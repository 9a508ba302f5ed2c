"""Synthetic control estimators.

Classic SCM solves a simplex-constrained least-squares match of the treated
unit's pre-period trajectory (plus optional covariate pre-means) to a
weighted combination of donors, via accelerated projected gradient descent
with an exact simplex projection. The augmented variant adds a ridge
correction for any remaining pre-period imbalance (sign-free weights that
still sum to one), and the staggered variant fits one synthetic control per
adoption cohort under a partially pooled objective. Inference for a single
treated unit is by in-space placebo permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PanelCauseError
from .linreg import jackknife_se
from .panel import NEVER, PanelDataset, derive_adoption

SOLVER_TOL = 1e-10
SOLVER_MAX_ITER = 10_000
LAMBDA_GRID = np.logspace(-4, 6, 21)


@dataclass
class ScmWeights:
    weights: dict               # donor unit -> weight
    pre_period_rmspe: float
    objective_value: float
    negative_allowed: bool

    def as_array(self, donors) -> np.ndarray:
        return np.array([self.weights[d] for d in donors])


@dataclass
class ScmEstimate:
    att: float
    gaps: dict                  # post period (normalized t) -> treated - synthetic
    weights: ScmWeights
    treated: object             # unit id, or cohort label for pooled fits
    donors: tuple
    adoption_time: int
    placebo: object = None
    info: dict = field(default_factory=dict)


@dataclass
class PlaceboResult:
    treated_ratio: float
    placebo_ratios: dict        # donor -> post/pre RMSPE ratio (retained only)
    excluded: tuple             # donors failing the pre-fit exclusion rule
    exclusion_cutoff: float
    treated_rank: int           # 1 = most extreme
    p_value: float


@dataclass
class StaggeredAscmEstimate:
    nu: float
    nu_mode: str                # "fixed" or "auto"
    per_cohort: dict            # cohort g -> ScmEstimate
    cohort_weights: dict
    att: float
    se: float
    pooled_rmspe: float
    nu_trace: list = field(default_factory=list)  # (nu, pooled rmspe) when auto


# ---------------------------------------------------------------------------
# simplex-constrained least squares


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, len(v) + 1)
    rho = np.nonzero(u + (1.0 - css) / j > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _fw_gap(w, g, blocks):
    return sum(float(w[s] @ g[s] - g[s].min()) for s in blocks)


def _active_set_polish(AtA, Atb, w_start, blocks, tol_gap):
    """Exact KKT solve on the active support, Lawson–Hanson style.

    Starting from a candidate support, repeatedly solves the equality-
    constrained least squares restricted to it, drops the most negative
    coordinate, and admits the best gradient-violating coordinate per
    block, until the Frank-Wolfe gap clears tol_gap. Returns the polished
    weights or None if the round budget runs out (degenerate geometry);
    the caller then falls back to the iterative solution.
    """
    k = len(w_start)
    nb = len(blocks)
    blk_of = np.empty(k, dtype=int)
    for j, s in enumerate(blocks):
        blk_of[s] = j
    S = w_start > 1e-12
    for s in blocks:
        if not S[s].any():
            S[s.start + int(np.argmax(w_start[s]))] = True

    for _ in range(10 * (k + nb)):
        idx = np.flatnonzero(S)
        H = 2.0 * AtA[np.ix_(idx, idx)]
        C = np.zeros((nb, len(idx)))
        C[blk_of[idx], np.arange(len(idx))] = 1.0
        kkt = np.block([[H, C.T], [C, np.zeros((nb, nb))]])
        rhs = np.concatenate([2.0 * Atb[idx], np.ones(nb)])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        wS = sol[:len(idx)]
        if (wS < -1e-12).any():
            S[idx[int(np.argmin(wS))]] = False
            continue
        w = np.zeros(k)
        w[idx] = np.clip(wS, 0.0, None)
        g = 2.0 * (AtA @ w - Atb)
        if _fw_gap(w, g, blocks) <= tol_gap:
            return w
        added = False
        for s in blocks:
            best = s.start + int(np.argmin(g[s]))
            if not S[best]:
                S[best] = True
                added = True
        if not added:
            return None
    return None


def solve_simplex_lsq(A: np.ndarray, b: np.ndarray, blocks=None,
                      tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER):
    """Minimize ||A w - b||^2 over a simplex (or product of simplexes).

    ``blocks`` is a list of index slices, each constrained to its own
    simplex; None means one simplex over all of w. Accelerated projected
    gradient (FISTA, uniform start, adaptive restart) with a periodic
    exact active-set polish; convergence is declared when the Frank-Wolfe
    optimality gap falls below tol relative to the initial objective
    scale. Returns (w, objective, iterations, gap).
    """
    m, k = A.shape
    if blocks is None:
        blocks = [slice(0, k)]

    def proj(w):
        out = np.empty_like(w)
        for s in blocks:
            out[s] = project_simplex(w[s])
        return out

    w = np.empty(k)
    for s in blocks:
        size = len(range(*s.indices(k)))
        w[s] = 1.0 / size
    AtA = A.T @ A
    Atb = A.T @ b
    bb = float(b @ b)

    def fval(w):
        return float(w @ (AtA @ w) - 2.0 * (Atb @ w) + bb)

    def grad(w):
        return 2.0 * (AtA @ w - Atb)

    L = 2.0 * float(np.linalg.eigvalsh(AtA)[-1]) if k else 1.0
    if L <= 0:
        return w, fval(w), 0, 0.0
    scale = max(1.0, fval(w))
    tol_gap = tol * scale

    y, t_mom, f_prev = w.copy(), 1.0, fval(w)
    for it in range(1, max_iter + 1):
        g = grad(w)
        gap = _fw_gap(w, g, blocks)
        if gap <= tol_gap:
            return w, fval(w), it, gap
        if it % 50 == 1:          # support has usually settled; try exact solve
            polished = _active_set_polish(AtA, Atb, w, blocks, tol_gap)
            if polished is not None:
                gp = _fw_gap(polished, grad(polished), blocks)
                return polished, fval(polished), it, gp
        w_new = proj(y - grad(y) / L)
        f_new = fval(w_new)
        if f_new > f_prev:           # adaptive restart: drop momentum
            y, t_mom = w.copy(), 1.0
            w_new = proj(y - grad(y) / L)
            f_new = fval(w_new)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_mom ** 2)) / 2.0
        y = w_new + ((t_mom - 1.0) / t_new) * (w_new - w)
        w, t_mom, f_prev = w_new, t_new, f_new

    g = grad(w)
    gap = _fw_gap(w, g, blocks)
    if gap > tol_gap:
        raise PanelCauseError(
            "NO_CONVERGENCE",
            f"simplex solver hit {max_iter} iterations; objective {fval(w):.6g}, "
            f"optimality gap {gap:.3g}", objective=fval(w), gap=gap)
    return w, fval(w), max_iter, gap


# ---------------------------------------------------------------------------
# data preparation


def _prep(panel: PanelDataset, treated, donors, covariates):
    schedule = derive_adoption(panel)
    if treated not in panel.units:
        raise PanelCauseError("CONFIG_ERROR", f"unknown treated unit '{treated}'")
    g = schedule.adoption_time.get(treated)
    if g is NEVER:
        raise PanelCauseError("CONFIG_ERROR", f"unit '{treated}' is never treated")
    if donors is None:
        donors = [u for u in schedule.never_treated if u != treated]
    donors = list(donors)
    for d in donors:
        if d not in panel.units:
            raise PanelCauseError("CONFIG_ERROR", f"unknown donor unit '{d}'")
        if schedule.adoption_time.get(d) is not NEVER:
            raise PanelCauseError(
                "TREATED_DONOR",
                f"donor '{d}' adopts the policy inside the sample; donor pools "
                "must be never-treated")
    if len(donors) < 2:
        raise PanelCauseError("TOO_FEW_DONORS", f"need ≥2 donors, got {len(donors)}")
    if g < 2:
        raise PanelCauseError("TOO_FEW_PERIODS",
                              f"need ≥2 pre periods, adoption at t={g}")
    return g, donors


def _features(panel, unit_rows, g, covariates):
    """Feature matrix rows=units: pre-period outcomes then covariate pre-means."""
    Y = panel.outcome_matrix()
    F = Y[unit_rows][:, :g]
    for name in covariates:
        C = np.full((panel.unit_count, panel.time_count), np.nan)
        C[panel.unit_idx, panel.time_idx] = panel.covariates[name]
        F = np.column_stack([F, C[unit_rows][:, :g].mean(axis=1)])
    return F


def _check_missing(panel, treated_row, donor_rows, g):
    Y = panel.outcome_matrix()
    rows = [treated_row] + list(donor_rows)
    if np.isnan(Y[rows]).any():
        bad = [(panel.units[rows[i]], panel.time_labels[t])
               for i, t in zip(*np.nonzero(np.isnan(Y[rows])))]
        raise PanelCauseError("MISSING_CELLS",
                              f"missing outcome cells in matched series: {bad[:10]}",
                              cells=bad)


# ---------------------------------------------------------------------------
# classic SCM


def fit_scm(panel: PanelDataset, treated, donors=None, covariates=(),
            tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER) -> ScmEstimate:
    """Convex synthetic control for one treated unit.

    Matches pre-period outcomes (and covariate pre-means, uniformly
    weighted) and reports post-period gaps and their mean. Weight
    non-uniqueness under a flat objective resolves to the solver's
    deterministic trajectory from the uniform start.
    """
    g, donors = _prep(panel, treated, donors, covariates)
    return _scm_core(panel, panel.units.index(treated),
                     [panel.units.index(d) for d in donors], g, covariates,
                     tol, max_iter)


def _scm_core(panel, trow, drows, g, covariates, tol=SOLVER_TOL,
              max_iter=SOLVER_MAX_ITER):
    """Simplex fit of unit row trow on donor rows drows, adoption at g.

    Does no adoption checks, so placebo fits can pass a never-treated unit.
    """
    _check_missing(panel, trow, drows, g)
    x1 = _features(panel, [trow], g, covariates)[0]
    X0 = _features(panel, drows, g, covariates)          # donors × features
    w, obj, iters, gap = solve_simplex_lsq(X0.T, x1, tol=tol, max_iter=max_iter)

    Y = panel.outcome_matrix()
    pre, gaps, att = _synth_gaps(Y[trow], Y[drows], w, g)
    donors = tuple(panel.units[d] for d in drows)
    weights = ScmWeights(dict(zip(donors, w.tolist())), pre, obj, False)
    return ScmEstimate(att, gaps, weights, panel.units[trow], donors, g,
                       info={"iterations": iters, "fw_gap": gap})


def _synth_gaps(y, Y_donors, w, g):
    """(pre-period RMSPE, post-period gaps, their mean) of y against the
    synthetic series Y_donors.T @ w, adoption at g."""
    synth = Y_donors.T @ w
    pre = float(np.sqrt(np.mean((y[:g] - synth[:g]) ** 2)))
    gaps = {int(t): float(y[t] - synth[t]) for t in range(g, len(y))}
    return pre, gaps, float(np.mean(list(gaps.values())))


# ---------------------------------------------------------------------------
# placebo permutation inference


def _rmspe_ratio(pre, post):
    if pre == 0.0:
        return 0.0 if post == 0.0 else float("inf")
    return post / pre


def _post_rmspe(est: ScmEstimate) -> float:
    return float(np.sqrt(np.mean(np.array(list(est.gaps.values())) ** 2)))


def placebo_inference(panel: PanelDataset, treated, donors=None, covariates=(),
                      exclusion_cutoff: float = 5.0) -> PlaceboResult:
    """In-space permutation test on post/pre RMSPE ratios.

    Each donor is refit as a pseudo-treated unit (remaining donors as its
    pool, the real treated unit excluded). Donors whose pre-period fit is
    worse than cutoff × the treated unit's pre-RMSPE are excluded. The
    p-value counts placebos with ratios at least as extreme as the treated
    unit's (ties count), plus one, over retained placebos plus one.
    """
    g, donors = _prep(panel, treated, donors, covariates)
    if len(donors) < 3:
        raise PanelCauseError("TOO_FEW_DONORS",
                              "placebo inference needs ≥3 donors so each pseudo-"
                              "treated fit retains ≥2")
    base = fit_scm(panel, treated, donors, covariates)
    t_pre = base.weights.pre_period_rmspe
    t_ratio = _rmspe_ratio(t_pre, _post_rmspe(base))

    ratios, excluded = {}, []
    for d in donors:
        est = _scm_core(panel, panel.units.index(d),
                        [panel.units.index(x) for x in donors if x != d], g,
                        covariates)
        pre = est.weights.pre_period_rmspe
        if pre > exclusion_cutoff * t_pre:
            excluded.append(d)
            continue
        ratios[d] = _rmspe_ratio(pre, _post_rmspe(est))
    if not ratios:
        raise PanelCauseError("ALL_EXCLUDED",
                              "every placebo failed the pre-fit exclusion rule")
    n_ge = sum(1 for r in ratios.values() if r >= t_ratio)
    p = (n_ge + 1) / (len(ratios) + 1)
    return PlaceboResult(t_ratio, ratios, tuple(excluded), exclusion_cutoff,
                         n_ge + 1, p)


# ---------------------------------------------------------------------------
# augmented SCM


def _ridge_augment(X0: np.ndarray, x1: np.ndarray, w: np.ndarray, lam: float):
    """Sign-free correction to simplex weights from a ridge outcome model.

    X0 rows are donors. Centering features across donors makes the
    correction sum to zero exactly, so augmented weights still sum to one.
    """
    Xc = X0 - X0.mean(axis=0)
    r = x1 - X0.T @ w
    F = X0.shape[1]
    # lstsq rather than solve: at lam=0 the Gram matrix is singular whenever
    # donors-1 < features, and the minimum-norm solution is the lam->0 limit
    u = Xc @ np.linalg.lstsq(Xc.T @ Xc + lam * np.eye(F), r, rcond=None)[0]
    return w + u


def _cv_lambda(X0: np.ndarray, grid=LAMBDA_GRID):
    """Donor-level leave-one-out CV for the ridge penalty.

    Each donor in turn becomes pseudo-treated with the rest as its pool;
    weights are fit on all but the last pre period and scored on the
    held-out one. Ties resolve to the larger penalty.
    """
    J, F = X0.shape
    if F < 2 or J < 3:
        raise PanelCauseError("TOO_FEW_PERIODS",
                              "ridge CV needs ≥2 matched features and ≥3 donors")
    fit_cols = list(range(F - 1))
    scores = np.zeros(len(grid))
    for j in range(J):
        pool = [i for i in range(J) if i != j]
        A = X0[pool][:, fit_cols]
        b = X0[j, fit_cols]
        w, *_ = solve_simplex_lsq(A.T, b)
        target = X0[j, F - 1]
        donor_last = X0[pool][:, F - 1]
        for li, lam in enumerate(grid):
            w_aug = _ridge_augment(A, b, w, lam)
            scores[li] += (target - float(donor_last @ w_aug)) ** 2
    best = np.flatnonzero(scores <= scores.min())[-1]
    return float(grid[best]), dict(zip(grid.tolist(), scores.tolist()))


def fit_ascm(panel: PanelDataset, treated, donors=None, covariates=(),
             lam="cv") -> ScmEstimate:
    """Ridge-augmented SCM: corrects remaining pre-period imbalance.

    With zero imbalance the correction vanishes and the estimate equals
    classic SCM exactly; as lam → ∞ it degenerates to classic SCM.
    """
    g, donors = _prep(panel, treated, donors, covariates)
    base = fit_scm(panel, treated, donors, covariates)
    trow = panel.units.index(treated)
    drows = [panel.units.index(d) for d in donors]
    x1 = _features(panel, [trow], g, covariates)[0]
    X0 = _features(panel, drows, g, covariates)

    cv_scores = None
    if lam == "cv":
        lam, cv_scores = _cv_lambda(X0)
    w_aug = _ridge_augment(X0, x1, base.weights.as_array(donors), float(lam))

    Y = panel.outcome_matrix()
    pre, gaps, att = _synth_gaps(Y[trow], Y[drows], w_aug, g)
    obj = float(np.sum((x1 - X0.T @ w_aug) ** 2))
    weights = ScmWeights(dict(zip(donors, w_aug.tolist())), pre, obj, True)
    info = {"lambda": float(lam), "scm_att": base.att,
            "scm_objective": base.weights.objective_value}
    if cv_scores is not None:
        info["cv_scores"] = cv_scores
    return ScmEstimate(att, gaps, weights, treated, tuple(donors), g,
                       info=info)


# ---------------------------------------------------------------------------
# staggered adoption: partially pooled cohort fits


def _stagger_system(panel, schedule, donors, nu):
    """Assemble the partially pooled least-squares system over cohort weights.

    Rows: per-cohort pre-period residuals scaled by sqrt((1-nu)/T0_g), plus
    per-event-time pooled residuals scaled by sqrt(nu/E). Returns
    (M, d, blocks, cohort order, per-cohort (A_g, b_g)).
    """
    Y = panel.outcome_matrix()
    drows = [panel.units.index(d) for d in donors]
    J = len(drows)
    cohorts = sorted(schedule.cohorts)
    per = {}
    for g in cohorts:
        crows = [panel.units.index(u) for u in schedule.cohorts[g]]
        if np.isnan(Y[crows]).any() or np.isnan(Y[drows]).any():
            raise PanelCauseError("MISSING_CELLS",
                                  "staggered fit requires complete treated and donor series")
        if g < 2:
            raise PanelCauseError(
                "TOO_FEW_PERIODS",
                f"cohort g={panel.time_labels[g]} has {g} pre periods; need ≥2")
        b_g = Y[crows, :g].mean(axis=0)          # cohort-mean pre outcomes
        A_g = Y[drows][:, :g].T                  # T0_g × J
        per[g] = (A_g, b_g)

    G = len(cohorts)
    blocks = [slice(i * J, (i + 1) * J) for i in range(G)]
    rows_M, rows_d = [], []
    for i, g in enumerate(cohorts):
        A_g, b_g = per[g]
        s = np.sqrt((1.0 - nu) / len(b_g))
        block = np.zeros((len(b_g), G * J))
        block[:, i * J:(i + 1) * J] = A_g
        rows_M.append(s * block)
        rows_d.append(s * b_g)
    events = sorted({e for g in cohorts for e in range(-g, 0)})
    E = len(events)
    for e in events:
        present = [(i, g) for i, g in enumerate(cohorts) if -g <= e]
        m_e = len(present)
        row = np.zeros(G * J)
        val = 0.0
        for i, g in present:
            A_g, b_g = per[g]
            row[i * J:(i + 1) * J] += A_g[g + e] / m_e
            val += b_g[g + e] / m_e
        s = np.sqrt(nu / E)
        rows_M.append(s * row[None, :])
        rows_d.append(np.array([s * val]))
    M = np.vstack(rows_M)
    d = np.concatenate(rows_d)
    return M, d, blocks, cohorts, per, events


def _pooled_rmspe(W, cohorts, per, events):
    """RMS of the event-time-aligned mean pre-period residual."""
    vals = []
    for e in events:
        rs = [float(per[g][1][g + e] - per[g][0][g + e] @ W[i])
              for i, g in enumerate(cohorts) if -g <= e]
        vals.append(np.mean(rs))
    return float(np.sqrt(np.mean(np.array(vals) ** 2)))


def fit_staggered_ascm(panel: PanelDataset, schedule=None, nu="auto",
                       lam=0.0) -> StaggeredAscmEstimate:
    """Partially pooled synthetic controls, one per adoption cohort.

    nu=0 fits each cohort independently; nu=1 minimizes only the pooled
    (event-time-aligned mean) pre-period fit. "auto" picks the smallest nu
    on a 0..1 grid whose pooled pre-fit RMSPE is within 10% of the nu=1
    fit, and reports the trace. Donors are never-treated units only. Each
    cohort's simplex weights get the same ridge augmentation as fit_ascm;
    the overall ATT is the cohort-size-weighted mean with a
    leave-one-donor-out jackknife SE.
    """
    if schedule is None:
        schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no treated cohorts")
    donors = list(schedule.never_treated)
    if not donors:
        raise PanelCauseError("NO_NEVER_TREATED",
                              "staggered fits use never-treated units as donors; none exist")
    if len(donors) < 2:
        raise PanelCauseError("TOO_FEW_DONORS", f"need ≥2 donors, got {len(donors)}")

    nu_mode = "auto" if nu == "auto" else "fixed"
    trace = []
    if nu == "auto":
        M1, d1, blocks, cohorts, per, events = _stagger_system(
            panel, schedule, donors, 1.0)
        W1 = _solve_blocks(M1, d1, blocks)
        ref = _pooled_rmspe(W1, cohorts, per, events)
        chosen = 1.0
        for cand in np.linspace(0.0, 1.0, 11):
            M, d, blocks, cohorts, per, events = _stagger_system(
                panel, schedule, donors, float(cand))
            W = _solve_blocks(M, d, blocks)
            r = _pooled_rmspe(W, cohorts, per, events)
            trace.append((float(cand), r))
            if r <= 1.10 * ref:
                chosen = float(cand)
                break
        nu = chosen
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise PanelCauseError("CONFIG_ERROR", f"nu must lie in [0,1], got {nu}")

    est = _staggered_fit_once(panel, schedule, donors, nu, lam)
    per_cohort, cohort_weights, att, pooled = est

    # jackknife over donors at the resolved nu / lambda
    se = jackknife_se(
        lambda d: _staggered_fit_once(
            panel, schedule, [x for x in donors if x != d], nu, lam)[2],
        donors if len(donors) >= 3 else ())

    return StaggeredAscmEstimate(nu, nu_mode, per_cohort, cohort_weights,
                                 att, se, pooled, trace)


def _solve_blocks(M, d, blocks):
    w, *_ = solve_simplex_lsq(M, d, blocks=blocks)
    return [w[s] for s in blocks]


def _staggered_fit_once(panel, schedule, donors, nu, lam):
    M, d, blocks, cohorts, per, events = _stagger_system(panel, schedule, donors, nu)
    W = _solve_blocks(M, d, blocks)
    pooled = _pooled_rmspe(W, cohorts, per, events)

    Y = panel.outcome_matrix()
    drows = [panel.units.index(dn) for dn in donors]
    per_cohort, atts = {}, {}
    for i, g in enumerate(cohorts):
        A_g, b_g = per[g]
        X0 = A_g.T                                  # donors × features
        lam_g, cv_scores = (lam, None) if lam != "cv" else _cv_lambda(X0)
        w_aug = _ridge_augment(X0, b_g, W[i], float(lam_g))
        crows = [panel.units.index(u) for u in schedule.cohorts[g]]
        pre, gaps, att_g = _synth_gaps(Y[crows].mean(axis=0), Y[drows], w_aug, g)
        obj = float(np.sum((b_g - X0.T @ w_aug) ** 2))
        weights = ScmWeights(dict(zip(donors, w_aug.tolist())), pre, obj, True)
        info = {"lambda": float(lam_g), "scm_weights": dict(zip(donors, W[i].tolist()))}
        if cv_scores is not None:
            info["cv_scores"] = cv_scores
        per_cohort[g] = ScmEstimate(att_g, gaps, weights, g, tuple(donors), g,
                                    info=info)
        atts[g] = per_cohort[g].att

    sizes = schedule.cohort_sizes()
    total = sum(sizes[g] for g in cohorts)
    cohort_weights = {g: sizes[g] / total for g in cohorts}
    att = float(sum(cohort_weights[g] * atts[g] for g in cohorts))
    return per_cohort, cohort_weights, att, pooled
