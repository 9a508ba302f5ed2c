"""Difference-in-differences estimators and diagnostics.

Covers the classic two-way fixed-effects regression, the event-study
(leads/lags) design, cohort-by-period average treatment effects with
aggregation, imputation-based DID, and the timing-group decomposition that
rewrites the TWFE coefficient as a weighted average of all 2×2 comparisons
(flagging the forbidden later-vs-earlier contrasts).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PanelCauseError, PanelCauseWarning
from .linreg import (GRAM_PIVOT_TOL, INTERCEPT, FitResult, _fixed_effects, _within_design,
                     blank_token, chi2_sf, index_slots, jackknife_se, memoized, normal_ci,
                     normal_p, read_only, unit_period_components, within_fit)
from .panel import NEVER, PanelDataset, complete_rows, derive_adoption

NEVER_TREATED = "NEVER_TREATED"
NOT_YET_TREATED = "NOT_YET_TREATED"
# the pre-trend test needs some lead variance above this share of the
# outcome variance: a lead SE below ~1.5e-8 outcome SDs is rounding
PRETREND_ROUNDING = np.finfo(float).eps
NEVER_ADOPTS = np.iinfo(np.int64).max   # a never-treated unit's adoption period in arrays


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
    pretrend_stat: float | None  # None (df 0) with no leads, or leads at rounding level
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
    untreated_coefficients: dict  # _intercept, unit[u], time[t], covariates
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


def _adoption_array(panel, schedule):
    """Each unit's adoption period in panel order; NEVER_ADOPTS if it never adopts."""
    times = [schedule.adoption_time[u] for u in panel.units]
    return np.array([NEVER_ADOPTS if g is NEVER else g for g in times], dtype=np.int64)


# ---------------------------------------------------------------------------
# classic TWFE


def fit_did_twfe(panel: PanelDataset, covariates=(),
                 ci_level: float = 0.95) -> DidEstimate:
    """Outcome on the policy indicator with unit and time effects absorbed.

    The coefficient is the ATT under parallel trends for simultaneous
    adoption; under staggered timing it is the variance-weighted average of
    2×2 comparisons (see goodman_bacon_decompose). The fixed effects and
    absorbed design (_twfe_plan) are outcome-free: a Monte Carlo evaluate
    builds them once per adoption.
    """
    covariates = tuple(covariates)
    keep, Xc = complete_rows(panel, covariates)
    fe, X, slots = memoized(
        lambda: ("twfe plan", panel.structure_key(), covariates,
                 blank_token(panel.outcome, lambda: keep)),
        lambda: _twfe_plan(panel, keep, Xc, covariates))
    fe.warn()
    fit = fe.fit(X, panel.outcome[keep], slots)
    if fit is None or "policy" not in fit.coefficients:
        raise PanelCauseError(
            "NO_CONTROL",
            "policy indicator is absorbed by unit+time effects: no comparison "
            "units remain (all units adopt together with no controls)")
    att, se = fit.coef("policy"), fit.se("policy")
    return DidEstimate(att, se, normal_ci(att, se, ci_level),
                       normal_p(att, se), ci_level, fit)


def _twfe_plan(panel, keep, Xc, covariates):
    """(FixedEffects, absorbed design or None, its cluster slots) of the TWFE
    fit on the rows ``keep``: within_fit's, without y."""
    pol = panel.policy[keep].astype(float)
    if not pol.size or pol.min() == pol.max():   # no complete row, or constant
        raise PanelCauseError("NO_VARIATION", "policy indicator is constant")
    fe = _fixed_effects(panel.unit_idx[keep], panel.time_idx[keep])
    X = _within_design(fe, ("policy", *covariates), np.column_stack([pol, Xc[keep]]))
    return fe, X, _design_slots(fe, X)


def _design_slots(fe, X):
    """index_slots of the fit of X on fe's rows (read-only), or None."""
    if X is None:
        return None
    slots = index_slots(fe.clusters, X.data.shape[1])
    read_only(slots)
    return slots


# ---------------------------------------------------------------------------
# event study


def fit_event_study(panel: PanelDataset, covariates=(), leads: int | None = None,
                    lags: int | None = None) -> EventStudyEstimate:
    """Leads-and-lags regression around adoption, reference period k = -1.

    By default every event time observed for a treated unit gets its own
    indicator. With `leads`/`lags` given, event times past the window ends
    are binned into terminal "<=k" / ">=k" indicators; leads < 2 or lags < 0
    would bin the reference period and raise CONFIG_ERROR. Control units carry
    zeros everywhere. Note that time-varying covariates can soak up dynamic
    effects; they are applied as supplied. The leads' joint Wald test is
    skipped, with a PRETREND_AT_ROUNDING warning, when every lead variance
    is at most PRETREND_ROUNDING times the outcome variance (a noiseless fit).
    The event-time keys with their design columns, omitted bins, collinear
    indicators and absorbed design (_event_study_plan) are outcome-free: a
    Monte Carlo evaluate builds them once per adoption.
    """
    if (leads is not None and leads < 2) or (lags is not None and lags < 0):
        raise PanelCauseError("CONFIG_ERROR", (
            f"need leads ≥ 2 and lags ≥ 0, got leads={leads}, lags={lags}: a shorter "
            f"window's terminal bin holds the reference period k = -1"))
    covariates = tuple(covariates)
    keep, Xc = complete_rows(panel, covariates)
    coef_at, fe, X, slots, omitted, collinear, lead_at = memoized(
        lambda: ("event study plan", panel.structure_key(), leads, lags, covariates,
                 blank_token(panel.outcome, lambda: keep)),
        lambda: _event_study_plan(panel, keep, Xc, covariates, leads, lags))
    fe.warn()
    fit = fe.fit(X, panel.outcome[keep], slots)
    if fit is None or not coef_at:
        raise PanelCauseError("COLLINEAR_EVENT_TIME",
                              "every event-time indicator was dropped as collinear")

    beta, var = list(fit.coefficients.values()), np.diagonal(fit.vcov).tolist()
    coeffs = {kk: (beta[j], math.sqrt(max(var[j], 0.0))) for kk, j in coef_at}

    # joint Wald test that all lead coefficients (k <= -2 side) are zero;
    # leads whose variances are at rounding level against the outcome's give
    # a statistic of rounding noise over rounding noise, so no test
    pre = (None, 0, None)
    if len(lead_at):
        b = np.array([beta[j] for j in lead_at])
        V = fit.vcov[lead_at[:, None], lead_at]
        v_max, scale = float(np.diag(V).max()), float(np.var(panel.outcome[keep]))
        if v_max <= PRETREND_ROUNDING * scale:
            warnings.warn(PanelCauseWarning("PRETREND_AT_ROUNDING", (
                f"lead variances are at most {v_max:.3g}, at rounding level "
                f"against the outcome variance {scale:.3g}; no pre-trend test")))
        else:
            # one eigh: stat and df count the eigenvalues above len(V)·eps·max
            w, U = np.linalg.eigh(V)
            on = w > len(w) * np.finfo(float).eps * w.max()
            stat = float(((U[:, on].T @ b) ** 2 / w[on]).sum())
            df = int(on.sum())
            pre = (stat, df, chi2_sf(stat, df))

    return EventStudyEstimate(coeffs, -1, pre[0], pre[1], pre[2],
                              list(omitted), list(collinear), fit)


def _event_study_plan(panel, keep, Xc, covariates, leads, lags):
    """All an event study on the rows ``keep`` computes without y:
    (coef_at, FixedEffects, absorbed design, its cluster slots, omitted
    window keys, collinear, lead_at). ``coef_at`` pairs each event-time key
    whose indicator the design keeps with its column, ``collinear`` names
    the indicators dropped as collinear, and ``lead_at`` (read-only) holds
    the columns of the kept leads. A design column is also the index of its coefficient in the fit
    and of its row in the vcov."""
    schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no unit ever adopts the policy")

    ui, ti = panel.unit_idx[keep], panel.time_idx[keep]
    adopt = _adoption_array(panel, schedule)
    is_treated = adopt[ui] != NEVER_ADOPTS
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

    # each treated row but the reference sets the indicator of its key
    column = {k: keys.index(key_for(k)) for k in observed if k != -1}
    on = np.flatnonzero(is_treated & (k_row != -1))
    raw = np.zeros((len(ui), len(keys) + len(covariates)))
    raw[on, [column[k] for k in k_row[on].tolist()]] = 1.0
    raw[:, len(keys):] = Xc[keep]
    names = [f"k[{kk}]" for kk in keys] + list(covariates)
    fe = _fixed_effects(ui, ti)
    X = _within_design(fe, names, raw)
    kept = {} if X is None else {name: j for j, name in enumerate(X.column_names)}
    coef_at = [(kk, kept[f"k[{kk}]"]) for kk in keys if f"k[{kk}]" in kept]
    lead_at = np.array([j for kk, j in coef_at
                        if (isinstance(kk, int) and kk <= -2) or str(kk).startswith("<=")],
                       dtype=np.intp)
    collinear = [] if X is None else [n for n, _ in X.dropped_columns if n.startswith("k[")]
    read_only(lead_at)
    return coef_at, fe, X, _design_slots(fe, X), omitted, collinear, lead_at


# ---------------------------------------------------------------------------
# group-time ATT


def fit_group_time_att(panel: PanelDataset,
                       comparison: str = NEVER_TREATED, covariates=(),
                       bootstrap_reps: int = 999, seed: int = 0) -> GroupTimeAtts:
    """Cohort-by-period ATTs from base period g-1, plus aggregations.

    att(g, t) compares the outcome change from g-1 to t in cohort g against
    the same change among comparison units: never-treated, or units whose
    adoption lies strictly after t. Each cohort's cells come from one
    difference matrix Y[:, g:] − Y[:, g-1], masked to the treated and
    comparison units with both cells observed; a period with either set
    empty is omitted. SEs come from a Rademacher multiplier bootstrap over
    units: the cells' influence vectors form Phi (units × cells), W holds
    every aggregate's cell weights (by cohort, by event time, overall), and
    each SE is the SD of v·a over the same draws v for a column a of A =
    [Phi | Phi·W], so the aggregates' SEs are internally consistent. That
    sample variance is the quadratic form aᵀSa in the draws' sample
    covariance S (units × units), read for every column at once; a Monte
    Carlo evaluate builds S once for all its reps. bootstrap_reps below 2
    raises CONFIG_ERROR. With covariates, outcomes are first residualized
    against them (coefficients fit on untreated rows with unit+time effects).
    The adoption array, the cells' masks and keys, W and the labels of its
    columns (_group_time_plan) are outcome-free: a Monte Carlo evaluate
    builds them once per adoption.
    """
    if comparison not in (NEVER_TREATED, NOT_YET_TREATED):
        raise PanelCauseError("CONFIG_ERROR", f"unknown comparison '{comparison}'")
    if bootstrap_reps < 2:
        raise PanelCauseError("CONFIG_ERROR", (
            f"bootstrap_reps must be ≥2 for a bootstrap SD, got {bootstrap_reps}"))
    schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no treated cohorts")
    for g, members in schedule.cohort_sizes().items():
        if members == 1:
            warnings.warn(PanelCauseWarning(
                "SINGLETON_COHORT",
                f"cohort g={panel.time_labels[g]} has a single unit; its SEs are unreliable"))

    Y = panel.outcome_matrix()
    if covariates:
        Y = Y - _covariate_residualizer(panel, covariates)
    # the cells' masks read which cells are NaN or infinite, not the values;
    # the policy grid decides the adoption
    def blanks():
        return np.where(np.isfinite(Y), 0.0, Y)

    cohorts, keys, W, (cohort_weights, events), omitted = memoized(
        lambda: ("group-time plan", panel.structure_key(), comparison, blank_token(Y, blanks)),
        lambda: _group_time_plan(schedule, _adoption_array(panel, schedule), blanks(),
                                 comparison))

    atts, phis = [], []
    for g, live, treated, comp, n_t, n_c in cohorts:
        D = (Y[:, g:] - Y[:, g - 1:g])[:, live]
        mean_t = np.where(treated, D, 0.0).sum(axis=0) / n_t
        mean_c = np.where(comp, D, 0.0).sum(axis=0) / n_c
        atts.append(mean_t - mean_c)
        phis.append(np.where(treated, (D - mean_t) / n_t, 0.0)
                    - np.where(comp, (D - mean_c) / n_c, 0.0))

    att = np.concatenate(atts)
    Phi = np.hstack(phis)                                    # units × cells
    A = np.hstack([Phi, Phi @ W])
    S = _multiplier_covariance(seed, bootstrap_reps, panel.unit_count)
    # aᵀSa ≥ 0 but for rounding, which may leave it a hair below zero
    se = np.sqrt(np.maximum(np.einsum("ij,ij->j", A, S @ A), 0.0))
    pairs = list(zip(np.concatenate([att, att @ W]).tolist(), se.tolist()))
    cells, aggs = pairs[:len(keys)], pairs[len(keys):]
    by_cohort = dict(zip(cohort_weights, aggs))
    by_event = dict(zip(events, aggs[len(cohort_weights):-1]))
    return GroupTimeAtts(dict(zip(keys, cells)), comparison, aggs[-1], by_event,
                         by_cohort, dict(cohort_weights), list(omitted),
                         bootstrap_reps, seed)


def _group_time_plan(schedule, adopt, blanks, comparison):
    """(cohorts, cell keys, W, (cohort weights, event times), omitted cells)
    of the group-time ATTs, from adoption and the blank cells of the outcome
    grid Y (``blanks``, Y with its finite cells 0.0). A cohort is (g, its
    live periods, treated and comparison masks over them, their counts). W's
    columns are the cohorts of the weights, the event times, then the
    overall ATT."""
    periods = np.arange(blanks.shape[1])
    cohorts, keys, omitted = [], [], []
    for g in sorted(schedule.cohorts):
        if g == 0:
            omitted.append((g, None, "no pre-period for base g-1"))
            continue
        ts = periods[g:]
        ok = ~np.isnan(blanks[:, g:] - blanks[:, g - 1:g])
        treated = ok & (adopt == g)[:, None]
        comp = ok & (adopt[:, None] > ts if comparison == NOT_YET_TREATED
                     else (adopt == NEVER_ADOPTS)[:, None])
        n_t, n_c = treated.sum(axis=0), comp.sum(axis=0)
        live = (n_t > 0) & (n_c > 0)
        omitted += [(g, t, "empty comparison or treated set") for t in ts[~live].tolist()]
        keys += [(g, t) for t in ts[live].tolist()]
        cohorts.append((g, live, treated[:, live], comp[:, live], n_t[live], n_c[live]))
    if not keys:
        raise PanelCauseError("EMPTY_COMPARISON",
                              "no (cohort, time) cell has a nonempty comparison group",
                              omitted=omitted)

    cell_g = np.array([g for g, _ in keys])
    cell_e = np.array([t - g for g, t in keys])
    groups, events = np.unique(cell_g), np.unique(cell_e)
    W_g = (cell_g[:, None] == groups).astype(float)
    W_g /= W_g.sum(axis=0)
    W_e = (cell_e[:, None] == events).astype(float)
    W_e /= W_e.sum(axis=0)
    cohort_weights = schedule.cohort_weights(groups.tolist())
    w_all = W_g @ np.array(list(cohort_weights.values()))
    W = np.column_stack([W_g, W_e, w_all])                   # cells × aggregates
    read_only(W, *(a for cohort in cohorts for a in cohort[1:]))
    return cohorts, keys, W, (cohort_weights, events.tolist()), omitted


def _multiplier_covariance(seed, draws, units):
    """Sample covariance (ddof 1, units × units) of the Rademacher multipliers
    (draws × units) from SeedSequence([seed]), read-only. The multipliers are
    V = 2X − 1 for the 0/1 draws X, the indices rng.choice((-1.0, 1.0), ...)
    draws. With c the column counts of X, VᵀV = 4XᵀX − 2(c1ᵀ + 1cᵀ) + draws
    and the column sums s = 2c − draws are integers, formed exactly, so
    S = (VᵀV − ssᵀ/draws)/(draws − 1) rounds only in its last three
    operations."""
    def build():
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        X = rng.integers(0, 2, size=(draws, units)).astype(float)
        c = X.sum(axis=0)
        s = 2.0 * c - draws
        VtV = 4.0 * (X.T @ X) - 2.0 * (c[:, None] + c) + draws
        S = (VtV - np.outer(s, s) / draws) / (draws - 1)
        S.flags.writeable = False
        return S
    return memoized(lambda: ("multiplier covariance", seed, draws, units), build)


def _untreated_betas(panel, un, Xc, covariates):
    """Untreated two-way model: kept covariates' betas, and all (0 if dropped)."""
    fit = within_fit(panel.unit_idx[un], panel.time_idx[un], panel.outcome[un],
                     list(zip(covariates, Xc[un].T)))
    kept = fit.coefficients if fit is not None else {}
    return kept, np.array([kept.get(c, 0.0) for c in covariates])


def _covariate_residualizer(panel: PanelDataset, covariates):
    """Per-cell covariate contribution X@beta, with beta fit on untreated rows."""
    keep, Xc = complete_rows(panel, covariates)
    un = keep & (panel.policy == 0)
    if not un.any():
        raise PanelCauseError("NO_VARIATION", "no untreated rows to fit covariates on")
    _, beta = _untreated_betas(panel, un, Xc, covariates)
    contrib = np.full((panel.unit_count, panel.time_count), np.nan)
    contrib[panel.unit_idx, panel.time_idx] = Xc @ beta
    return contrib


# ---------------------------------------------------------------------------
# imputation DID


def fit_imputation_did(panel: PanelDataset,
                       covariates=()) -> ImputationEstimate:
    """Counterfactual imputation from a unit+time model fit on untreated rows.

    Treated-cell effects are Y_obs minus the prediction; the ATT is their
    mean. The SE is a leave-one-unit-out jackknife over the units with
    complete rows. A fold is read off per-unit sums (see _summed_folds)
    when another unit's untreated rows cover every untreated period, treated
    cells remain, the main fit kept every covariate, each covariate's
    squared within residual in the fold (on both effects and the covariates
    before it) exceeds GRAM_PIVOT_TOL times its squared norm over the
    untreated rows, and the fold's solve is not singular. Any other fold
    refits the untreated model and re-imputes; either way a fold gives the
    refit's warnings. ``untreated_coefficients`` are the dummy regression's:
    references are the first untreated unit and period.
    """
    schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no treated cells to impute")

    effects, att, coefs, dropped = _impute_att(panel, covariates, skip_unit=None)
    summed = _summed_folds(panel, covariates, coefs)

    def without(u):
        if u not in summed:
            return _impute_att(panel, covariates, u)[1]
        att_u, gone = summed[u]
        _warn_dropped_periods(panel, gone)
        return att_u

    keep, _ = complete_rows(panel, covariates)
    se = jackknife_se(without, [panel.units[i] for i in np.unique(panel.unit_idx[keep])])
    return ImputationEstimate(effects, att, se, coefs, dropped)


def _warn_dropped_periods(panel, dropped):
    if dropped:
        warnings.warn(PanelCauseWarning(
            "UNIDENTIFIED_TIME_FE",
            f"periods with no untreated rows, treated cells dropped: "
            f"{[panel.time_labels[t] for t in dropped]}"))


def _impute_att(panel, covariates, skip_unit):
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
    _warn_dropped_periods(panel, dropped)
    rows = np.flatnonzero(tr & ~np.isin(panel.time_idx, dropped))
    if not len(rows):
        raise PanelCauseError("NO_VARIATION", "no treated cells left after drops")

    # a treated cell's counterfactual is identified only if untreated rows
    # connect its unit to its period
    ui, ti, ru, rt = (panel.unit_idx[un], panel.time_idx[un],
                      panel.unit_idx[rows], panel.time_idx[rows])
    unit_comp, period_comp = unit_period_components(ui, ti, panel.unit_count,
                                                    panel.time_count)
    apart = unit_comp[ru] != period_comp[rt]
    if apart.any():
        cells = [(panel.units[i], panel.time_labels[t])
                 for i, t in zip(ru[apart], rt[apart])]
        raise PanelCauseError(
            "DISCONNECTED_FE", f"treated cells not connected to their period through "
            f"untreated rows (counterfactual not identified): {cells[:5]}", cells=cells)

    coefs, beta = (_untreated_betas(panel, un, Xc, covariates) if covariates
                   else ({}, np.zeros(0)))
    alpha, gamma = _fixed_effects(ui, ti).effects(panel.outcome[un] - Xc[un] @ beta)
    resid = panel.outcome[rows] - (alpha[ru] + gamma[rt] + Xc[rows] @ beta)
    effects = {(panel.units[i], int(t)): float(e) for i, t, e in zip(ru, rt, resid)}

    u0, t0 = min(un_units), min(un_times)
    untreated = {INTERCEPT: float(alpha[u0] + gamma[t0])}
    untreated.update((f"unit[{panel.units[i]}]", float(alpha[i] - alpha[u0]))
                     for i in sorted(un_units) if i != u0)
    untreated.update((f"time[{panel.time_labels[t]}]", float(gamma[t] - gamma[t0]))
                     for t in sorted(un_times) if t != t0)
    untreated.update(coefs)
    return effects, float(resid.mean()), untreated, dropped


# folds solved together hold at most this many numbers in their period blocks
FOLD_CHUNK = 1 << 18


def _summed_folds(panel, covariates, coefs):
    """Leave-one-unit-out ATTs from per-unit sums: unit -> (ATT, dropped periods).

    Demeaning the untreated rows within each unit absorbs the unit effects
    exactly, so over the columns [period dummies | covariates | y] the
    untreated normal equations in θ = (period effects, betas) come from
    G = Σ_u G_u, with G_u unit u's within-unit Gram matrix. The sum of the
    treated-cell effects is Σ_u (h_u,y − h_uᵀθ), with h_u = W_u − (m_u/n_u)·S_u:
    W_u sums the columns over u's m_u kept treated cells, S_u over its n_u
    untreated rows. The fold without v solves (G − G_v)θ with the first
    untreated period pinned, the period block eliminated first, and reads
    ATT₋ᵥ = (Σh_y − h_v,y − (Σh − h_v)ᵀθ) / (m − m_v). Every sum reduces the
    unit × period grid Z of [covariates | y], so none depends on row order.
    Only the units fit_imputation_did may read so are returned; it refits the others.
    """
    if not all(c in coefs for c in covariates):
        return {}
    keep, Xc = complete_rows(panel, covariates)
    U, T, K = panel.unit_count, panel.time_count, len(covariates)
    ui, ti = panel.unit_idx[keep], panel.time_idx[keep]
    Z = np.zeros((U, T, K + 1))
    Z[ui, ti] = np.column_stack([Xc, panel.outcome])[keep]
    N = np.zeros((U, T))
    N[ui, ti] = panel.policy[keep] == 0
    treated = np.zeros((U, T), dtype=bool)
    treated[ui, ti] = panel.policy[keep] == 1
    n = N.sum(axis=1)
    inv_n = 1.0 / np.maximum(n, 1.0)
    periods = np.flatnonzero(N.any(axis=0))
    dropped = np.flatnonzero(treated.any(axis=0) & ~N.any(axis=0))
    cells = treated & N.any(axis=0)
    m = cells.sum(axis=1).astype(float)

    # a fold stays connected and drops no new period when another unit
    # covers every untreated period. A treated cell left at t then has its
    # unit's untreated rows before t and the covering unit's at t: two
    # units and two periods, so the within fit never warns SINGLE_LEVEL
    covers = n == len(periods)
    ok = (covers.sum() - covers > 0) & (m.sum() - m > 0)
    folds = np.flatnonzero(ok)
    if not len(folds):
        return {}

    zbar = np.einsum("ut,utj->uj", N, Z) * inv_n[:, None]
    D = (Z - zbar[:, None]) * N[:, :, None]     # within-unit deviations
    H_d = cells - (m * inv_n)[:, None] * N
    H_z = np.einsum("ut,utj->uj", cells, Z) - m[:, None] * zbar
    G_dd = np.diag(N.sum(axis=0)) - (N.T * inv_n) @ N
    G_dz = D.sum(axis=0)
    G_zz_u = np.einsum("utj,utk->ujk", D, D)
    # the normal equations square the covariates' conditioning, so a fold's
    # error grows as eps over its pivot ratio: a ratio at or below
    # GRAM_PIVOT_TOL sends the fold to the refit (at GRAM_PIVOT_TOL², the
    # AR's rule, folds drifted up to 1.5e-6 from their refits)
    floor = GRAM_PIVOT_TOL * np.einsum("ut,utk->k", N, Z[:, :, :K] ** 2)

    P = periods[1:]
    diag = np.arange(len(P))
    out = {}
    step = max(1, FOLD_CHUNK // max(len(P) ** 2, 1))
    for lo in range(0, len(folds), step):
        vs = folds[lo:lo + step]
        N_v = N[vs][:, P]
        A = G_dd[np.ix_(P, P)] + N_v[:, :, None] * N_v[:, None, :] * inv_n[vs, None, None]
        A[:, diag, diag] -= N_v
        B = G_dz[P] - D[vs][:, P]
        try:
            Y = np.linalg.solve(A, B)
            good = np.ones(len(vs), dtype=bool)
        except np.linalg.LinAlgError:
            good = np.linalg.slogdet(A)[0] != 0     # a singular fold is refit
            Y = np.zeros(B.shape)
            Y[good] = np.linalg.solve(A[good], B[good])
        # [covariates | y] within both effects; Gaussian elimination of the
        # covariate rows meets build_design's pivots in covariate order
        E = (G_zz_u.sum(axis=0) - G_zz_u[vs] - B.transpose(0, 2, 1) @ Y)[:, :K]
        piv = np.ones((len(vs), K))
        for j in range(K):
            good &= E[:, j, j] > floor[j]
            piv[:, j] = np.where(good, E[:, j, j], 1.0)
            f = E[:, j + 1:, j] / piv[:, j, None]
            E[:, j + 1:, j:] -= f[:, :, None] * E[:, None, j, j:]
        beta = np.zeros((len(vs), K))
        for j in reversed(range(K)):
            rest = (E[:, j, j + 1:K] * beta[:, j + 1:]).sum(axis=1)
            beta[:, j] = (E[:, j, K] - rest) / piv[:, j]
        gamma = Y[:, :, K] - np.einsum("ctk,ck->ct", Y[:, :, :K], beta)
        h_d = H_d[:, P].sum(axis=0) - H_d[vs][:, P]
        h_z = H_z.sum(axis=0) - H_z[vs]
        att = ((h_z[:, K] - (h_d * gamma).sum(axis=1) - (h_z[:, :K] * beta).sum(axis=1))
               / (m.sum() - m[vs]))
        for v, a in zip(vs[good], att[good]):
            gone = tuple(int(t) for t in dropped if treated[:, t].sum() > treated[v, t])
            out[panel.units[v]] = (float(a), gone)
    return out


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
