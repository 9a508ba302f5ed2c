"""Synthetic control estimators.

Classic SCM solves a simplex-constrained least-squares match of the treated
unit's pre-period trajectory (plus optional covariate pre-means) to a
weighted combination of donors, via an exact forward active-set solver
certified by its Frank-Wolfe gap. The augmented variant adds a ridge
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


def _gap_terms(w, g, blocks):
    """Per-block Frank-Wolfe gap w·g - min g; nonnegative on the simplex, so
    rounding below zero is clipped and a zero tolerance stays unattainable."""
    return [max(0.0, float(w[s] @ g[s] - g[s].min())) for s in blocks]


def _kkt_solve(AtA, Atb, idx, blk):
    """Minimiser of the least squares restricted to the support idx, with
    each block's weights on it summing to one; None if the KKT system is
    singular. blk holds each support coordinate's block number, 0..nb-1."""
    p, nb = len(idx), int(blk.max()) + 1
    kkt = np.zeros((p + nb, p + nb))
    kkt[:p, :p] = AtA[idx][:, idx]
    kkt[p + blk, np.arange(p)] = 1.0
    kkt[np.arange(p), p + blk] = 1.0
    rhs = np.ones(p + nb)
    rhs[:p] = Atb[idx]
    try:
        z = np.linalg.solve(kkt, rhs)[:p]
    except np.linalg.LinAlgError:
        return None
    return z if np.isfinite(z).all() else None


def _admit(AtA, Atb, w, new, blk_of):
    """One active-set round: coordinate new joins w's support and the weights
    move to the minimiser on it, stepping back to the simplex (dropping the
    coordinates that reach zero) while it lies outside. None when rounding
    stops the round: a singular KKT system, or new cannot enter."""
    support = np.sort(np.append(w.nonzero()[0], new))
    while True:
        z = _kkt_solve(AtA, Atb, support, blk_of[support])
        if z is None:
            return None
        out = z <= 0
        if not out.any():
            w = np.zeros(len(w))
            w[support] = z
            return w
        # step back: the farthest feasible point on the segment to z
        ws = w[support]
        if (ws[out] == 0).any():
            return None
        ratio = ws[out] / (ws[out] - z[out])
        ws = ws + ratio.min() * (z - ws)
        ws[np.flatnonzero(out)[np.argmin(ratio)]] = 0.0
        keep = ws > 0
        w = np.zeros(len(w))
        w[support[keep]] = ws[keep]
        support = support[keep]


def _vertex(scores, blocks):
    """The point with weight one on the highest score of each block: a
    feasible start for an active-set pass, optimal on its own support."""
    v = np.zeros(len(scores))
    for s in blocks:
        v[s.start + int(np.argmax(scores[s]))] = 1.0
    return v


def _active_set_polish(AtA, Atb, blocks, tol_gap, max_iter):
    """Exact minimiser by a forward active set (Lawson & Hanson 1974, ch. 23).

    Each round admits the coordinate whose gradient most undercuts its
    block's weighted mean (the largest Frank-Wolfe gap term). In exact
    arithmetic the objective falls every round, so a pass from the best
    vertex of each block ends at the minimiser after finitely many rounds.
    Rounding stops a pass short when _admit gives None or the admitted
    coordinate already has weight (solve_simplex_lsq has the restart rule).
    Returns (w, passes, gap) once gap < tol_gap.
    """
    # an exact power-of-two rescaling caps AᵀA (largest on its diagonal) at
    # 2^30, far below where its rounding swamps the KKT unit constraint rows
    unit = 2.0 ** min(0, 30 - int(np.frexp(np.diag(AtA).max())[1]))
    AtA, Atb, tol_gap = unit * AtA, unit * Atb, unit * tol_gap
    blk_of = np.empty(len(Atb), dtype=int)
    for j, s in enumerate(blocks):
        blk_of[s] = j
    w = start = _vertex(2.0 * Atb - np.diag(AtA), blocks)
    passes, rounds = 1, 0
    for rounds in range(1, max_iter + 1):
        g = 2.0 * (AtA @ w - Atb)
        terms = _gap_terms(w, g, blocks)
        if sum(terms) < tol_gap:
            return w, passes, sum(terms) / unit
        s = blocks[int(np.argmax(terms))]
        new = s.start + int(np.argmin(g[s]))
        w_next = None if w[new] > 0 else _admit(AtA, Atb, w, new, blk_of)
        if w_next is None:
            w_next = _vertex(w, blocks)
            if np.array_equal(w_next, start):
                break
            start, passes = w_next, passes + 1
        w = w_next
    gap = sum(_gap_terms(w, 2.0 * (AtA @ w - Atb), blocks)) / unit
    raise PanelCauseError(
        "NO_CONVERGENCE",
        f"simplex solver stopped after {rounds} active-set rounds in {passes} "
        f"passes; optimality gap {gap:.3g}, tolerance {tol_gap / unit:.3g}",
        gap=gap)


def _gram(A, b, blocks):
    """(AᵀA, Aᵀb, bᵀb) with each block's columns and b centred: on the
    simplex that leaves A w - b unchanged, and it keeps a common level from
    swamping the Gram matrix in rounding."""
    A, b = np.array(A, dtype=float), np.array(b, dtype=float)
    for s in blocks:
        if A[:, s].size:
            c = A[:, s].mean(axis=1)
            A[:, s] -= c[:, None]
            b -= c
    return A.T @ A, A.T @ b, float(b @ b)


def _gap_scale(gram, uniform):
    """The certificate's scale: the objective at the uniform point, floored
    at R / SOLVER_TOL, where R = 4·k·eps·(max|AᵀA| + max|Aᵀb|) is the
    rounding level of the computed gap. A gradient entry 2((AᵀA w)_i -
    (Aᵀb)_i) is a length-k dot product with weights summing to one, off by
    up to 2·k·eps·(max|AᵀA| + max|Aᵀb|), and a gap term w·g - min g
    differences two of them: c = 4. More blocks raise that worst case, which
    rounding of random sign reaches only as sqrt(k)·eps. Both terms are
    quadratic in (A, b), so the certificate is scale-equivariant."""
    AtA, Atb, bb = gram
    R = 4.0 * len(Atb) * np.finfo(float).eps * (np.abs(AtA).max()
                                                 + np.abs(Atb).max())
    f = float(uniform @ (AtA @ uniform) - 2.0 * (Atb @ uniform) + bb)
    return max(f, R / SOLVER_TOL)


def solve_simplex_lsq(A: np.ndarray, b: np.ndarray, blocks=None,
                      tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER,
                      gram=None):
    """Minimize ||A w - b||^2 over a simplex (or product of simplexes).

    ``blocks`` is a list of index slices, each constrained to its own
    simplex; None means one simplex over all of w. ``gram`` may give
    (AᵀA, Aᵀb, bᵀb) instead of A and b, for example as sub-blocks of a
    Gram matrix shared by many refits.

    The forward active set (_active_set_polish) stops once the Frank-Wolfe
    gap is below tol × _gap_scale. When rounding stops a pass short, the
    next starts at the vertex of each block's heaviest weight; ``max_iter``
    bounds the rounds over all passes, and NO_CONVERGENCE is raised when
    they run out or a restart would repeat its pass's start. Returns (w,
    objective, passes, gap): passes is 1 when the first pass succeeds and 0
    when AᵀA = 0 after centring (any feasible w is optimal: the uniform one).
    """
    k = A.shape[1] if gram is None else len(gram[1])
    if blocks is None:
        blocks = [slice(0, k)]
    AtA, Atb, bb = gram = _gram(A, b, blocks) if gram is None else gram
    uniform = np.empty(k)
    for s in blocks:
        uniform[s] = 1.0 / len(range(*s.indices(k)))

    def fval(w):
        return float(w @ (AtA @ w) - 2.0 * (Atb @ w) + bb)

    if not k or np.trace(AtA) == 0:
        return uniform, fval(uniform), 0, 0.0
    w, passes, gap = _active_set_polish(
        AtA, Atb, blocks, tol * _gap_scale(gram, uniform), max_iter)
    return w, fval(w), passes, gap


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
    weighted) and reports post-period gaps and their mean. The weights are
    the exact minimiser from the solver's active set; where the minimiser
    is not unique (a flat objective), the one returned is fixed by the
    active set's deterministic path from the best single donor.
    """
    g, donors = _prep(panel, treated, donors, covariates)
    trow = panel.units.index(treated)
    drows = [panel.units.index(d) for d in donors]
    _check_missing(panel, trow, drows, g)
    x1 = _features(panel, [trow], g, covariates)[0]
    X0 = _features(panel, drows, g, covariates)          # donors × features
    w, obj, iters, gap = solve_simplex_lsq(X0.T, x1, tol=tol, max_iter=max_iter)

    Y = panel.outcome_matrix()
    pre, gaps, att = _synth_gaps(Y[trow], Y[drows], w, g)
    weights = ScmWeights(dict(zip(donors, w.tolist())), pre, obj, False)
    return ScmEstimate(att, gaps, weights, treated, tuple(donors), g,
                       info={"iterations": iters, "fw_gap": gap})


def _synth_gaps(y, Y_donors, w, g):
    """(pre-period RMSPE, post-period gaps, their mean) of y against the
    synthetic series Y_donors.T @ w, adoption at g."""
    synth = Y_donors.T @ w
    pre = float(np.sqrt(np.mean((y[:g] - synth[:g]) ** 2)))
    gaps = {int(t): float(y[t] - synth[t]) for t in range(g, len(y))}
    return pre, gaps, float(np.mean(list(gaps.values())))


def _donor_gram(X0):
    """Gram matrix of the donor features (rows) centred across donors.

    Refitting donor i on the others reads (AᵀA, Aᵀb, bᵀb) off it with
    _leave_out: on the simplex, shifting every donor by the same vector
    leaves A w - b unchanged, and the centring keeps a common level from
    swamping the products in rounding.
    """
    Xc = X0 - X0.mean(axis=0)
    return Xc @ Xc.T


def _leave_out(G, i):
    """(pool, gram) of donor i fitted on every other donor."""
    pool = np.delete(np.arange(len(G)), i)
    return pool, (G[pool][:, pool], G[pool, i], float(G[i, i]))


# ---------------------------------------------------------------------------
# placebo permutation inference


def _rmspe_ratio(pre, post):
    if pre == 0.0:
        return 0.0 if post == 0.0 else float("inf")
    return post / pre


def _post_rmspe(gaps: dict) -> float:
    return float(np.sqrt(np.mean(np.array(list(gaps.values())) ** 2)))


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
    t_ratio = _rmspe_ratio(t_pre, _post_rmspe(base.gaps))

    drows = np.array([panel.units.index(d) for d in donors])
    G = _donor_gram(_features(panel, drows, g, covariates))
    Y = panel.outcome_matrix()
    ratios, excluded = {}, []
    for i, d in enumerate(donors):
        pool, gram = _leave_out(G, i)
        w, *_ = solve_simplex_lsq(None, None, gram=gram)
        pre, gaps, _ = _synth_gaps(Y[drows[i]], Y[drows[pool]], w, g)
        if pre > exclusion_cutoff * t_pre:
            excluded.append(d)
            continue
        ratios[d] = _rmspe_ratio(pre, _post_rmspe(gaps))
    if not ratios:
        raise PanelCauseError("ALL_EXCLUDED",
                              "every placebo failed the pre-fit exclusion rule")
    n_ge = sum(1 for r in ratios.values() if r >= t_ratio)
    p = (n_ge + 1) / (len(ratios) + 1)
    return PlaceboResult(t_ratio, ratios, tuple(excluded), exclusion_cutoff,
                         n_ge + 1, p)


# ---------------------------------------------------------------------------
# augmented SCM


def _ridge_augment(X0: np.ndarray, x1: np.ndarray, w: np.ndarray, lams):
    """Simplex weights plus a sign-free ridge correction, one row per penalty.

    X0 rows are donors. Centering features across donors makes each
    correction Xc (XcᵀXc + lam I)⁺ (x1 - X0ᵀw) sum to zero exactly, so
    augmented weights still sum to one. One SVD of the centred features
    serves every penalty. Directions whose Gram eigenvalue plus lam is
    below the rounding floor get no correction: at lam = 0, where the Gram
    matrix is singular whenever donors-1 < features, that is the
    minimum-norm solution, the lam -> 0 limit.
    """
    Xc = X0 - X0.mean(axis=0)
    U, sv, Vt = np.linalg.svd(Xc, full_matrices=False)
    lams = np.asarray(lams, dtype=float)[:, None]
    ev = sv ** 2 + lams
    floor = np.finfo(float).eps * X0.shape[1] * (sv[:1] ** 2 + lams)
    coef = np.divide(sv, ev, out=np.zeros_like(ev), where=ev > floor)
    return w + (coef * (Vt @ (x1 - X0.T @ w))) @ U.T


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
    fit, last = X0[:, :F - 1], X0[:, F - 1]
    G = _donor_gram(fit)
    scores = np.zeros(len(grid))
    for j in range(J):
        pool, gram = _leave_out(G, j)
        w, *_ = solve_simplex_lsq(None, None, gram=gram)
        w_aug = _ridge_augment(fit[pool], fit[j], w, grid)
        scores += (last[j] - w_aug @ last[pool]) ** 2
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
    w_aug = _ridge_augment(X0, x1, base.weights.as_array(donors), [lam])[0]

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
        w_aug = _ridge_augment(X0, b_g, W[i], [lam_g])[0]
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
