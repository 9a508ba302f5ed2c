"""Difference-in-differences estimators and diagnostics.

Covers the classic two-way fixed-effects regression, the event-study
(leads/lags) design, cohort-by-period average treatment effects with
aggregation, imputation-based DID, and the timing-group decomposition that
rewrites the TWFE coefficient as a weighted average of all 2×2 comparisons
(flagging the forbidden later-vs-earlier contrasts).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import PanelCauseError, PanelCauseWarning
from .linreg import (FitResult, absorb_fixed_effects, build_design,
                     jackknife_se, normal_ci, normal_p, ols_fit)
from .panel import NEVER, PanelDataset, complete_rows, derive_adoption

NEVER_TREATED = "NEVER_TREATED"
NOT_YET_TREATED = "NOT_YET_TREATED"


@dataclass
class DidEstimate:
    att: float
    se: float
    ci: tuple
    p_value: float
    ci_level: float
    fit: FitResult
    estimand_label: str = "ATT under parallel trends"


@dataclass
class EventStudyEstimate:
    coefficients: dict      # event time (int, or "<=k"/">=k" bin label) -> (est, se)
    reference_period: int   # -1, omitted
    pretrend_stat: float | None
    pretrend_df: int
    pretrend_p: float | None
    omitted: list           # requested/observed ks with no usable support
    collinear: list         # ks dropped for collinearity
    fit: FitResult


@dataclass
class GroupTimeAtts:
    cells: dict             # (cohort g, time t) -> (att, se), t >= g
    comparison: str
    overall: tuple          # (est, se), cohort-size-weighted
    by_event_time: dict     # e -> (est, se)
    by_cohort: dict         # g -> (est, se)
    cohort_weights: dict    # g -> weight used in the overall aggregation
    omitted: list           # (g, t, reason)
    bootstrap_reps: int
    seed: int


@dataclass
class ImputationEstimate:
    unit_time_effects: dict  # (unit id, time t) -> observed - predicted
    att: float
    se: float
    untreated_fit: FitResult
    dropped_periods: tuple   # periods with no untreated rows (cells excluded)


@dataclass
class BaconComparison:
    kind: str                # TREATED_VS_NEVER / EARLY_VS_LATE / LATE_VS_EARLY
    treated_cohort: int
    comparison: object       # cohort period or NEVER_TREATED
    estimate: float
    weight: float
    forbidden: bool = False


@dataclass
class BaconDecomposition:
    comparisons: list
    weighted_sum: float


# ---------------------------------------------------------------------------
# classic TWFE


def fit_did_twfe(panel: PanelDataset, covariates=(),
                 ci_level: float = 0.95) -> DidEstimate:
    """Outcome on the policy indicator with unit and time effects absorbed.

    The coefficient is the ATT under parallel trends for simultaneous
    adoption; under staggered timing it is the variance-weighted average of
    2×2 comparisons (see goodman_bacon_decompose).
    """
    keep, Xc = complete_rows(panel, covariates)
    pol = panel.policy[keep].astype(float)
    if pol.min() == pol.max():
        raise PanelCauseError("NO_VARIATION", "policy indicator is constant")

    cols = np.column_stack([pol] + [Xc[keep][:, i] for i in range(Xc.shape[1])]) \
        if Xc.shape[1] else pol[:, None]
    ui, ti = panel.unit_idx[keep], panel.time_idx[keep]
    y_w, _ = absorb_fixed_effects(ui, ti, panel.outcome[keep])
    M, absorbed = absorb_fixed_effects(ui, ti, cols)
    if np.linalg.norm(M[:, 0]) <= 1e-10 * max(1.0, np.linalg.norm(pol)):
        raise PanelCauseError(
            "NO_CONTROL",
            "policy indicator is absorbed by unit+time effects: no comparison "
            "units remain (all units adopt together with no controls)")

    names = ["policy"] + list(covariates)
    X = build_design(zip(names, M.T), add_intercept=False)
    fit = ols_fit(X, y_w, ui, extra_dof=absorbed)
    att, se = fit.coef("policy"), fit.se("policy")
    return DidEstimate(att, se, normal_ci(att, se, ci_level),
                       normal_p(att, se), ci_level, fit)


# ---------------------------------------------------------------------------
# event study


def fit_event_study(panel: PanelDataset, covariates=(), leads: int | None = None,
                    lags: int | None = None, ci_level: float = 0.95) -> EventStudyEstimate:
    """Leads-and-lags regression around adoption, reference period k = -1.

    By default every event time observed for a treated unit gets its own
    indicator. With `leads`/`lags` given, event times past the window ends
    are binned into terminal "<=k" / ">=k" indicators. Control units carry
    zeros everywhere. Note that time-varying covariates can soak up dynamic
    effects; they are applied as supplied.
    """
    keep, Xc = complete_rows(panel, covariates)
    schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no unit ever adopts the policy")

    ui, ti = panel.unit_idx[keep], panel.time_idx[keep]
    adopt = np.full(panel.unit_count, np.iinfo(np.int64).max, dtype=np.int64)
    for u, g in schedule.adoption_time.items():
        if g is not NEVER:
            adopt[panel.units.index(u)] = g
    is_treated = adopt[ui] != np.iinfo(np.int64).max
    k_row = np.where(is_treated, ti - adopt[ui], 0)

    observed = sorted(set(k_row[is_treated].tolist()))
    lo_bin = -(leads) if leads is not None else None
    hi_bin = lags if lags is not None else None

    def key_for(k):
        if lo_bin is not None and k <= lo_bin:
            return f"<={lo_bin}"
        if hi_bin is not None and k >= hi_bin:
            return f">={hi_bin}"
        return int(k)

    keys, omitted = [], []
    for k in observed:
        if k == -1:
            continue
        kk = key_for(k)
        if kk not in keys:
            keys.append(kk)
    if leads is not None or lags is not None:
        requested = []
        if leads is not None:
            requested += [f"<={lo_bin}"] + list(range(lo_bin + 1, -1))
        if lags is not None:
            requested += list(range(0, hi_bin)) + [f">={hi_bin}"]
        omitted = [kk for kk in requested if kk not in keys]

    def indicator(kk):
        if isinstance(kk, str):
            if kk.startswith("<="):
                return (is_treated & (k_row <= int(kk[2:]))).astype(float)
            return (is_treated & (k_row >= int(kk[2:]))).astype(float)
        return (is_treated & (k_row == kk)).astype(float)

    cols = [(f"k[{kk}]", indicator(kk)) for kk in keys]
    cols += [(name, Xc[keep][:, i]) for i, name in enumerate(covariates)]
    names = [c[0] for c in cols]
    M, absorbed = absorb_fixed_effects(ui, ti, np.column_stack([c[1] for c in cols]))
    y_w, _ = absorb_fixed_effects(ui, ti, panel.outcome[keep])
    try:
        X = build_design(zip(names, M.T), add_intercept=False)
    except PanelCauseError as e:
        if e.code != "RANK_ZERO":
            raise
        X = None
    if X is None or not any(n.startswith("k[") for n in X.column_names):
        raise PanelCauseError("COLLINEAR_EVENT_TIME",
                              "every event-time indicator was dropped as collinear")
    fit = ols_fit(X, y_w, ui, extra_dof=absorbed)

    collinear = [n for n, _ in X.dropped_columns if n.startswith("k[")]
    coeffs = {}
    for kk in keys:
        name = f"k[{kk}]"
        if name in fit.coefficients:
            coeffs[kk] = (fit.coef(name), fit.se(name))

    # joint Wald test that all lead coefficients (k <= -2 side) are zero
    lead_names = [f"k[{kk}]" for kk in coeffs
                  if (isinstance(kk, int) and kk <= -2) or str(kk).startswith("<=")]
    if lead_names:
        b = np.array([fit.coef(n) for n in lead_names])
        V = fit.subvcov(lead_names)
        Vinv = np.linalg.pinv(V)
        stat = float(b @ Vinv @ b)
        df = int(np.linalg.matrix_rank(V))
        p = float(stats.chi2.sf(stat, df)) if df > 0 else None
        pre = (stat, df, p)
    else:
        pre = (None, 0, None)

    return EventStudyEstimate(coeffs, -1, pre[0], pre[1], pre[2],
                              omitted, collinear, fit)


# ---------------------------------------------------------------------------
# group-time ATT


def fit_group_time_att(panel: PanelDataset, schedule=None,
                       comparison: str = NEVER_TREATED, covariates=(),
                       bootstrap_reps: int = 999, seed: int = 0) -> GroupTimeAtts:
    """Cohort-by-period ATTs from base period g-1, plus aggregations.

    att(g, t) compares the outcome change from g-1 to t in cohort g against
    the same change among comparison units: never-treated, or units whose
    adoption lies strictly after t. SEs come from a Rademacher multiplier
    bootstrap over units; aggregation SEs reuse the same draws so they are
    internally consistent. With covariates, outcomes are first residualized
    against them (coefficients fit on untreated rows with unit+time effects).
    """
    if comparison not in (NEVER_TREATED, NOT_YET_TREATED):
        raise PanelCauseError("CONFIG_ERROR", f"unknown comparison '{comparison}'")
    if schedule is None:
        schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no treated cohorts")
    for g, members in schedule.cohort_sizes().items():
        if members == 1:
            warnings.warn(PanelCauseWarning(
                "SINGLETON_COHORT",
                f"cohort g={panel.time_labels[g]} has a single unit; its SEs are unreliable"))

    Y = panel.outcome_matrix().copy()
    if covariates:
        Y = Y - _covariate_residualizer(panel, covariates)

    adopt = {u: g for u, g in schedule.adoption_time.items()}
    uidx = {u: i for i, u in enumerate(panel.units)}
    T = panel.time_count

    cells, omitted, phis = {}, [], {}
    for g in sorted(schedule.cohorts):
        if g == 0:
            omitted.append((g, None, "no pre-period for base g-1"))
            continue
        treated_rows = [uidx[u] for u in schedule.cohorts[g]]
        for t in range(g, T):
            if comparison == NEVER_TREATED:
                comp_rows = [uidx[u] for u in schedule.never_treated]
            else:
                comp_rows = [uidx[u] for u in panel.units
                             if adopt[u] is NEVER or adopt[u] > t]
            d_t = Y[treated_rows, t] - Y[treated_rows, g - 1]
            d_c = Y[comp_rows, t] - Y[comp_rows, g - 1] if comp_rows else np.array([])
            ok_t, ok_c = ~np.isnan(d_t), ~np.isnan(d_c)
            if not ok_t.any() or not ok_c.any():
                omitted.append((g, t, "empty comparison or treated set"))
                continue
            tr = np.asarray(treated_rows)[ok_t]
            cr = np.asarray(comp_rows)[ok_c]
            dt, dc = d_t[ok_t], d_c[ok_c]
            att = float(dt.mean() - dc.mean())
            phi = np.zeros(panel.unit_count)
            phi[tr] = (dt - dt.mean()) / len(dt)
            phi[cr] -= (dc - dc.mean()) / len(dc)
            cells[(g, t)] = att
            phis[(g, t)] = phi
    if not cells:
        raise PanelCauseError("EMPTY_COMPARISON",
                              "no (cohort, time) cell has a nonempty comparison group",
                              omitted=omitted)

    keys = list(cells)
    Phi = np.column_stack([phis[k] for k in keys])          # units × cells
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    V = rng.choice((-1.0, 1.0), size=(bootstrap_reps, panel.unit_count))
    draws = V @ Phi                                          # reps × cells

    def agg(weights):
        """Point estimate and bootstrap SE of a weighted cell combination."""
        w = np.asarray(weights)
        est = float(w @ np.array([cells[k] for k in keys]))
        se = float(np.std(draws @ w, ddof=1))
        return est, se

    def weights_for(selected):
        w = np.zeros(len(keys))
        for k, wt in selected.items():
            w[keys.index(k)] = wt
        return w

    by_cohort, cohort_cells = {}, {}
    for g in sorted({g for g, _ in keys}):
        ks = [k for k in keys if k[0] == g]
        cohort_cells[g] = ks
        by_cohort[g] = agg(weights_for({k: 1.0 / len(ks) for k in ks}))

    sizes = schedule.cohort_sizes()
    total = sum(sizes[g] for g in cohort_cells)
    cohort_weights = {g: sizes[g] / total for g in cohort_cells}
    overall_w = np.zeros(len(keys))
    for g, ks in cohort_cells.items():
        overall_w += cohort_weights[g] * weights_for({k: 1.0 / len(ks) for k in ks})
    overall = (float(overall_w @ np.array([cells[k] for k in keys])),
               float(np.std(draws @ overall_w, ddof=1)))

    by_event = {}
    for e in sorted({t - g for g, t in keys}):
        ks = [k for k in keys if k[1] - k[0] == e]
        by_event[e] = agg(weights_for({k: 1.0 / len(ks) for k in ks}))

    cell_ses = {k: float(np.std(draws[:, i], ddof=1)) for i, k in enumerate(keys)}
    cell_out = {k: (cells[k], cell_ses[k]) for k in keys}
    return GroupTimeAtts(cell_out, comparison, overall, by_event, by_cohort,
                         cohort_weights, omitted, bootstrap_reps, seed)


def _covariate_residualizer(panel: PanelDataset, covariates):
    """Per-cell covariate contribution X@beta, with beta fit on untreated rows."""
    keep, Xc = complete_rows(panel, covariates)
    un = keep & (panel.policy == 0)
    if not un.any():
        raise PanelCauseError("NO_VARIATION", "no untreated rows to fit covariates on")
    ui, ti = panel.unit_idx[un], panel.time_idx[un]
    M, absorbed = absorb_fixed_effects(ui, ti, Xc[un])
    y_w, _ = absorb_fixed_effects(ui, ti, panel.outcome[un])
    X = build_design(zip(covariates, M.T), add_intercept=False)
    fit = ols_fit(X, y_w, ui, extra_dof=absorbed)
    beta = np.array([fit.coefficients.get(c, 0.0) for c in covariates])
    contrib = np.full((panel.unit_count, panel.time_count), np.nan)
    vals = panel.covariate_matrix(covariates) @ beta
    contrib[panel.unit_idx, panel.time_idx] = vals
    return contrib


# ---------------------------------------------------------------------------
# imputation DID


def fit_imputation_did(panel: PanelDataset, schedule=None,
                       covariates=()) -> ImputationEstimate:
    """Counterfactual imputation from a unit+time model fit on untreated rows.

    Treated-cell effects are Y_obs minus the prediction; the ATT is their
    mean. The SE is a leave-one-unit-out jackknife (each fold refits the
    untreated model and re-imputes).
    """
    if schedule is None:
        schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no treated cells to impute")

    est, fit, dropped = _impute_att(panel, schedule, covariates, skip_unit=None)
    effects, att = est

    se = jackknife_se(
        lambda u: _impute_att(panel, schedule, covariates, skip_unit=u)[0][1],
        panel.units)
    return ImputationEstimate(effects, att, se, fit, dropped)


def _impute_att(panel, schedule, covariates, skip_unit):
    keep, Xc = complete_rows(panel, covariates)
    if skip_unit is not None:
        keep = keep & (panel.unit_idx != panel.units.index(skip_unit))
    un = keep & (panel.policy == 0)
    tr = keep & (panel.policy == 1)
    if not tr.any():
        raise PanelCauseError("NO_VARIATION", "no treated rows")

    un_units = set(panel.unit_idx[un].tolist())
    bad = sorted({panel.units[i] for i in set(panel.unit_idx[tr].tolist()) - un_units})
    if bad:
        raise PanelCauseError(
            "UNIDENTIFIED_UNIT_FE",
            f"treated units with no untreated rows (unit effect not identified): {bad}",
            units=bad)
    un_times = set(panel.time_idx[un].tolist())
    dropped = tuple(sorted(set(panel.time_idx[tr].tolist()) - un_times))
    if dropped:
        warnings.warn(PanelCauseWarning(
            "UNIDENTIFIED_TIME_FE",
            f"periods with no untreated rows, treated cells dropped: "
            f"{[panel.time_labels[t] for t in dropped]}"))

    ui, ti = panel.unit_idx[un], panel.time_idx[un]
    cols = [(f"unit[{u}]", (ui == i).astype(float))
            for i, u in enumerate(panel.units) if i in un_units and i != min(un_units)]
    cols += [(f"time[{panel.time_labels[t]}]", (ti == t).astype(float))
             for t in sorted(un_times) if t != min(un_times)]
    cols += [(name, Xc[un][:, i]) for i, name in enumerate(covariates)]
    X = build_design(cols)
    fit = ols_fit(X, panel.outcome[un], ui)

    effects = {}
    tr_idx = np.flatnonzero(tr)
    for r in tr_idx:
        i, t = int(panel.unit_idx[r]), int(panel.time_idx[r])
        if t in dropped:
            continue
        pred = fit.coef("_intercept")
        pred += fit.coefficients.get(f"unit[{panel.units[i]}]", 0.0)
        pred += fit.coefficients.get(f"time[{panel.time_labels[t]}]", 0.0)
        for j, name in enumerate(covariates):
            pred += fit.coefficients.get(name, 0.0) * panel.covariates[name][r]
        effects[(panel.units[i], t)] = float(panel.outcome[r] - pred)
    if not effects:
        raise PanelCauseError("NO_VARIATION", "no treated cells left after drops")
    att = float(np.mean(list(effects.values())))
    return (effects, att), fit, dropped


# ---------------------------------------------------------------------------
# timing-group decomposition


def goodman_bacon_decompose(panel: PanelDataset, covariates=()) -> BaconDecomposition:
    """Decompose the TWFE policy coefficient into timing 2×2 comparisons.

    Requires a balanced, covariate-free panel. Weights are proportional to
    group sizes and treatment-share variances and are normalized to sum to
    one; later-vs-earlier comparisons (already-treated units as controls)
    are flagged as forbidden.
    """
    if covariates:
        raise PanelCauseError("COVARIATES_UNSUPPORTED",
                              "the decomposition is defined for covariate-free panels")
    Y = panel.outcome_matrix()
    if np.isnan(Y).any():
        raise PanelCauseError("UNBALANCED_INPUT",
                              "decomposition requires a balanced panel with no missing cells")
    schedule = derive_adoption(panel)
    if 0 in schedule.cohorts:
        raise PanelCauseError(
            "ALWAYS_TREATED",
            "a cohort treated from the first period has no pre-period; "
            "its 2×2 comparisons are undefined")
    groups = sorted(schedule.cohorts)
    never = [panel.units.index(u) for u in schedule.never_treated]
    if len(groups) < 2 and not never:
        raise PanelCauseError("NO_CONTROL",
                              "need ≥2 cohorts or a never-treated group to decompose")
    if not groups:
        raise PanelCauseError("NO_VARIATION", "no treated cohorts")

    T = panel.time_count
    rows = {g: [panel.units.index(u) for u in schedule.cohorts[g]] for g in groups}
    n = {g: len(rows[g]) for g in groups}
    dbar = {g: (T - g) / T for g in groups}

    def block_mean(units_, lo, hi):
        return float(Y[np.ix_(units_, range(lo, hi))].mean())

    comps = []
    if never:
        for g in groups:
            est = ((block_mean(rows[g], g, T) - block_mean(rows[g], 0, g))
                   - (block_mean(never, g, T) - block_mean(never, 0, g)))
            w = n[g] * len(never) * dbar[g] * (1 - dbar[g])
            comps.append(BaconComparison("TREATED_VS_NEVER", g, NEVER_TREATED, est, w))
    for a, gk in enumerate(groups):
        for gl in groups[a + 1:]:
            # earlier cohort treated, later cohort still untreated (window < gl)
            est = ((block_mean(rows[gk], gk, gl) - block_mean(rows[gk], 0, gk))
                   - (block_mean(rows[gl], gk, gl) - block_mean(rows[gl], 0, gk)))
            w = n[gk] * n[gl] * (dbar[gk] - dbar[gl]) * (1 - dbar[gk])
            comps.append(BaconComparison("EARLY_VS_LATE", gk, gl, est, w))
            # later cohort treated, earlier (already-treated) cohort as control
            est = ((block_mean(rows[gl], gl, T) - block_mean(rows[gl], gk, gl))
                   - (block_mean(rows[gk], gl, T) - block_mean(rows[gk], gk, gl)))
            w = n[gk] * n[gl] * dbar[gl] * (dbar[gk] - dbar[gl])
            comps.append(BaconComparison("LATE_VS_EARLY", gl, gk, est, w,
                                         forbidden=True))

    total = sum(c.weight for c in comps)
    for c in comps:
        c.weight = c.weight / total
    return BaconDecomposition(comps, sum(c.weight * c.estimate for c in comps))
