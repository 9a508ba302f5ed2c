"""Synthetic control estimators.

Classic SCM solves a simplex-constrained least-squares match of the treated
unit's pre-period trajectory (plus optional covariate pre-means) to a
weighted combination of donors, via an exact forward active-set solver
certified by its Frank-Wolfe gap. The augmented variant adds a ridge
correction for any remaining pre-period imbalance (sign-free weights that
still sum to one), and the staggered variant fits one synthetic control per
adoption cohort under a partially pooled objective. Inference for a single
treated unit is by in-space placebo permutation.

The solver takes a batch of problems that share AᵀA and solves them in
lockstep; a single fit is a batch of one. The leave-one-donor-out refits of
placebo inference and ridge CV are each one batch off the shared donor Gram
matrix. Reruns are byte-identical.

fit_scm, fit_ascm and placebo_inference each check and read one match of
the treated unit (_match), which ASCM augments after its classic fit; each
staggered cohort is a match built from arrays its fit already holds, and
_ridge_augment corrects the weights of one match.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import PanelCauseError
from .linreg import jackknife_se
from .panel import NEVER, PanelDataset, derive_adoption

SOLVER_TOL = 1e-10
SOLVER_MAX_ITER = 10_000
LAMBDA_GRID = np.logspace(-4, 6, 21)
# ridge-CV folds factorised together number at most this over penalties ×
# donors; scoring all 80 folds of an 80-donor pool in one stack raised
# _cv_lambda's peak temporaries from 0.9 MB to 2.7 MB
BATCH_CHUNK = 1 << 15
# a synthetic control needs a pool of at least this many donors, and
# donor-level leave-one-out (placebo refits, ridge CV, the staggered
# jackknife) one more, so each fold keeps such a pool
MIN_DONORS = 2
LEAVE_OUT_MIN_DONORS = MIN_DONORS + 1


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
# simplex-constrained least squares: a batch of problems sharing AᵀA, with
# each array of per-coordinate state holding one row per problem


def _gap_terms(W, g, g_own, starts):
    """Per-block Frank-Wolfe gap terms w·g - min g, one row per problem; g_own
    is g with +inf off each problem's coordinates, where its w is zero.
    Nonnegative on the simplex, so rounding below zero is clipped and a
    zero tolerance stays unattainable."""
    wg = np.add.reduceat(W * g, starts, axis=1)
    return np.maximum(0.0, wg - np.minimum.reduceat(g_own, starts, axis=1))


def _kkt_solve(K, R, S, ki):
    """Minimiser of each row's least squares restricted to its support S[i],
    with each block's weights on it summing to one, as a row of length k
    (zero off the support); a row of NaN where the KKT system is singular
    or its solution not finite. K[ki[i]] is row i's bordered matrix [[AᵀA,
    E], [Eᵀ, 0]] of all k coordinates (E: block membership) and R[i] its
    right-hand side [Aᵀb, 1], their weight rows times the row's unit: each
    KKT system is a principal submatrix on the support and the block-sum
    rows. The systems are padded to the largest support with identity rows
    and zero right-hand sides and solved as one stack."""
    n, k = S.shape
    nb = K.shape[1] - k
    rows = np.arange(n)[:, None]
    if n == 1:                  # one system: no sort, no padding, no stack
        sel = np.concatenate((S[0].nonzero()[0], np.arange(k, k + nb)))
        P = len(sel) - nb
        z = _solve_or_nan(K[ki[0]][sel[:, None], sel], R[0, sel])[None, :P]
        sel = sel[None]
    else:
        p = S.sum(axis=1)
        P = int(p.max())
        sel = np.empty((n, P + nb), dtype=np.intp)
        sel[:, :P] = np.argsort(~S, axis=1, kind="stable")[:, :P]  # ascending
        sel[:, P:] = np.arange(k, k + nb)
        kkt = K[ki[:, None, None], sel[:, :, None], sel[:, None, :]]
        rhs = R[rows, sel]
        if p.min() < P:
            pad = np.zeros(sel.shape, dtype=bool)
            pad[:, :P] = np.arange(P) >= p[:, None]
            kkt *= ~(pad[:, :, None] | pad[:, None, :])
            kkt.reshape(n, -1)[:, ::P + nb + 1] += pad     # the diagonal
            rhs *= ~pad
        try:
            z = np.linalg.solve(kkt, rhs[:, :, None])[:, :P, 0]
        except np.linalg.LinAlgError:
            z = np.stack([_solve_or_nan(a, b) for a, b in zip(kkt, rhs)])[:, :P]
    Z = np.zeros(S.shape)
    Z[rows, sel[:, :P]] = z      # a padded position solves to zero
    if not np.isfinite(z).all():
        Z[~np.isfinite(z).all(axis=1)] = np.nan
    return Z


def _solve_or_nan(a, b):
    """np.linalg.solve(a, b), or NaN where a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def _admit(K, R, W, new, ki):
    """One active-set round per row: coordinate new[i] joins the support of
    W[i] and the weights move to the minimiser on it, stepping back to the
    simplex (dropping the coordinates that reach zero) while it lies
    outside. A row of NaN where rounding stops the round: a singular KKT
    system, or new[i] cannot enter (it already has weight, or would go
    negative). K, R and ki are as in _kkt_solve."""
    live = np.arange(len(W))
    S = W > 0
    taken = S[live, new]
    S[live, new] = True
    out = Z = _kkt_solve(K, R, S, ki)
    while True:
        neg = S & (Z <= 0)
        outside = neg.any(axis=1)
        if not outside.any():
            break
        # step back unless a coordinate at zero (new) would go negative
        stuck = (neg & (W == 0)).any(axis=1)
        out[live[outside & stuck]] = np.nan
        step = outside & ~stuck
        if not step.any():
            break
        live, W, S, Z, neg, R, ki = (
            a[step] for a in (live, W, S, Z, neg, R, ki))
        # the farthest feasible point on the segment to Z
        ratio = np.full(W.shape, np.inf)
        np.divide(W, W - Z, out=ratio, where=neg)
        W = W + ratio.min(axis=1, keepdims=True) * (Z - W)
        W[np.arange(len(W)), ratio.argmin(axis=1)] = 0.0
        S &= W > 0
        W *= S
        out[live] = Z = _kkt_solve(K, R, S, ki)
    out[taken] = np.nan
    return out


def _vertex(scores, blocks):
    """Each row's point with weight one on its highest score in each block:
    a feasible start for an active-set pass, optimal on its own support."""
    v = np.zeros(scores.shape)
    rows = np.arange(len(scores))
    for s in blocks:
        v[rows, s.start + np.argmax(scores[:, s], axis=1)] = 1.0
    return v


def _active_set_polish(AtA, Atb, bb, mask, blocks, tol, max_iter):
    """Exact minimisers by a forward active set (Lawson & Hanson 1974, ch. 23),
    for a batch of problems solved in lockstep.

    Problem i minimises wᵀAᵀA w - 2 w·Aᵀb[:, i] + bb[i] over the product of
    the block simplexes, with w zero off mask[i]. Each round, one matmul
    gives every unconverged problem's gradient, and each admits the
    coordinate whose gradient most undercuts its block's weighted mean (the
    largest Frank-Wolfe gap term). In exact arithmetic the objective falls
    every round, so a pass from the best vertex of each block ends at the
    minimiser after finitely many rounds. Rounding stops a pass short when
    _admit gives NaN; the next pass starts at the vertex of each block's
    heaviest unmasked weight off the stopped pass's start, so a restart
    never repeats its start. NO_CONVERGENCE is raised when a problem is
    still short after max_iter rounds.
    A problem stops once its gap is below tol × _gap_scale on its own
    coordinates; one whose AᵀA is zero there takes the uniform point (any
    feasible w is optimal) with 0 passes. Returns (W, passes, gaps), one
    row or entry per problem.
    """
    m, k = mask.shape
    starts = [s.start for s in blocks]
    blk_of = np.repeat(np.arange(len(blocks)), np.diff([*starts, k]))
    in_block = blk_of == np.arange(len(blocks))[:, None]
    W_out = mask / np.add.reduceat(mask, starts, axis=1)[:, blk_of]
    tol_gap = tol * _gap_scale((AtA, Atb, bb), W_out)
    full = mask.all()
    diag = np.where(mask, np.diag(AtA), 0.0)
    # an exact power-of-two rescaling of each KKT system's weight rows caps
    # its AᵀA (largest on the diagonal) at 2^30, far below where its rounding
    # swamps the unit constraint rows; gradients and gaps stay unscaled
    unit = 2.0 ** np.minimum(0, 30 - np.frexp(diag.max(axis=1))[1])
    # the bordered KKT matrix [[AᵀA, E], [Eᵀ, 0]] of all k coordinates, E
    # their block membership, with its weight rows times each distinct unit
    # (problem i's is K[ki[i]]), and each problem's right-hand side [Aᵀb,
    # 1] with its weight part times its unit
    K = np.zeros((k + len(blocks), k + len(blocks)))
    K[:k, :k] = AtA
    K[k + blk_of, np.arange(k)] = K[np.arange(k), k + blk_of] = 1.0
    units = np.array(sorted(set(unit.tolist())))
    ki = np.searchsorted(units, unit)
    K = np.repeat(K[None], len(units), axis=0)
    K[:, :k] *= units[:, None, None]
    B = np.array(Atb.T)
    R = np.ones((m, K.shape[1]))
    R[:, :k] = B * unit[:, None]
    gaps = np.zeros(m)
    passes = (diag.sum(axis=1) > 0).astype(int)
    ids = np.flatnonzero(passes)           # the unconverged problems, in order
    if len(ids) < m:
        B, R, ki, mask, tol_gap, diag = (
            a[ids] for a in (B, R, ki, mask, tol_gap, diag))
    start = _vertex(np.where(mask, 2.0 * B - diag, -np.inf), blocks)
    W = start.copy()
    rounds = 0
    while len(ids):
        rounds += 1
        g = 2.0 * (W @ AtA.T - B)
        g_own = g if full else np.where(mask, g, np.inf)
        terms = _gap_terms(W, g, g_own, starts)
        gap = terms.sum(axis=1)
        conv = gap < tol_gap
        if conv.any():
            W_out[ids[conv]], gaps[ids[conv]] = W[conv], gap[conv]
            ids, B, R, ki, mask, tol_gap, W, start, g_own, terms, gap = (
                a[~conv] for a in (ids, B, R, ki, mask, tol_gap, W, start,
                                   g_own, terms, gap))
            if not len(ids):
                break
        if rounds >= max_iter:
            raise _no_convergence(rounds, passes[ids[0]], gap[0], tol_gap[0])
        if len(blocks) > 1:     # the block with the largest gap term
            g_own = np.where(in_block[np.argmax(terms, axis=1)], g_own, np.inf)
        new = np.argmin(g_own, axis=1)
        nxt = _admit(K, R, W, new, ki)
        stopped = np.isnan(nxt[:, 0])
        if stopped.any():       # the start's coordinates rank below the rest
            scores = np.where(start[stopped] > 0, -1.0, W[stopped])
            nxt[stopped] = start[stopped] = _vertex(
                np.where(mask[stopped], scores, -np.inf), blocks)
            passes[ids[stopped]] += 1
        W = nxt
    return W_out, passes, gaps


def _no_convergence(rounds, passes, gap, tol_gap):
    return PanelCauseError(
        "NO_CONVERGENCE",
        f"simplex solver stopped after {rounds} active-set rounds in {passes} "
        f"passes; optimality gap {gap:.3g}, tolerance {tol_gap:.3g}",
        gap=float(gap))


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
    """The certificate's scale of each problem, on the coordinates its row of
    uniform weights (gram holds AᵀA, Aᵀb as k×m and bᵀb as m entries): the
    objective at the uniform point, floored at R / SOLVER_TOL, where R =
    4·k·eps·(max|AᵀA| + max|Aᵀb|) is the rounding level of the computed gap
    (k, AᵀA and Aᵀb restricted to the problem's coordinates). A gradient
    entry 2((AᵀA w)_i - (Aᵀb)_i) is a length-k dot product with weights
    summing to one, off by up to 2·k·eps·(max|AᵀA| + max|Aᵀb|), and a gap
    term w·g - min g differences two of them: c = 4. More blocks raise that
    worst case, which rounding of random sign reaches only as sqrt(k)·eps.
    Both terms are quadratic in (A, b), so the certificate is
    scale-equivariant."""
    AtA, Atb, bb = gram
    mask = uniform > 0
    # max|AᵀA| on each problem's coordinates: the overall maximum unless
    # the problem leaves out its row or column
    absA = np.abs(AtA)
    big = np.full(len(mask), absA.max())
    if not mask.all():
        r, c = divmod(int(np.argmax(absA)), len(absA))
        for i in np.flatnonzero(~(mask[:, r] & mask[:, c])):
            big[i] = absA[np.ix_(mask[i], mask[i])].max()
    R = 4.0 * mask.sum(axis=1) * np.finfo(float).eps * (
        big + (np.abs(Atb.T) * mask).max(axis=1))
    f = (((uniform @ AtA.T) * uniform).sum(axis=1)
         - 2.0 * (Atb.T * uniform).sum(axis=1) + bb)
    return np.maximum(f, R / SOLVER_TOL)


def solve_simplex_lsq(A: np.ndarray, b: np.ndarray, blocks=None,
                      tol: float = SOLVER_TOL, max_iter: int = SOLVER_MAX_ITER,
                      gram=None):
    """Minimize ||A w - b||^2 over a simplex (or product of simplexes).

    ``blocks`` is a list of contiguous index slices covering w in order,
    each constrained to its own simplex; None means one simplex over all of
    w. ``gram`` may give (AᵀA, Aᵀb, bᵀb) instead of A and b.

    The forward active set (_active_set_polish, here a batch of one) stops
    once the Frank-Wolfe gap is below tol × _gap_scale. When rounding stops
    a pass short, the next starts at the vertex of each block's heaviest
    weight off the stopped pass's start; ``max_iter`` bounds the rounds
    over all passes, and NO_CONVERGENCE is raised when they run out.
    Returns (w, objective, passes, gap): passes is 1 when the first pass
    succeeds and 0 when AᵀA = 0 after centring (any feasible w is optimal:
    the uniform one).
    """
    k = A.shape[1] if gram is None else len(gram[1])
    if blocks is None:
        blocks = [slice(0, k)]
    AtA, Atb, bb = _gram(A, b, blocks) if gram is None else gram
    if not k:
        return np.zeros(0), float(bb), 0, 0.0
    W, passes, gaps = _active_set_polish(
        AtA, np.asarray(Atb)[:, None], np.array([bb]), np.ones((1, k), bool),
        blocks, tol, max_iter)
    w = W[0]
    return (w, float(w @ (AtA @ w) - 2.0 * (Atb @ w) + bb), int(passes[0]),
            float(gaps[0]))


# ---------------------------------------------------------------------------
# the match: one treated unit's problem, validated and read once


# a treated unit's synthetic-control problem: adoption period g, the donor
# pool, the treated series y and donor series Yd (donors × periods), and the
# matched features of the treated unit (x1) and donors (X0, donors ×
# features): pre-period outcomes, then covariate pre-means
_Match = namedtuple("_Match", "g donors y Yd x1 X0")


def _match(panel: PanelDataset, treated, donors, covariates) -> _Match:
    """The match of a treated unit on a donor pool (default: every
    never-treated unit), checked and read once for every entry point."""
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
    if len(donors) < MIN_DONORS:
        raise PanelCauseError("TOO_FEW_DONORS", f"need ≥{MIN_DONORS} donors, got {len(donors)}")
    if g < 2:
        raise PanelCauseError("TOO_FEW_PERIODS",
                              f"need ≥2 pre periods, adoption at t={g}")
    rows = [panel.units.index(u) for u in [treated] + donors]
    Y = panel.outcome_matrix()[rows]
    if np.isnan(Y).any():
        bad = [(panel.units[rows[i]], panel.time_labels[t])
               for i, t in zip(*np.nonzero(np.isnan(Y)))]
        raise PanelCauseError("MISSING_CELLS",
                              f"missing outcome cells in matched series: {bad[:10]}",
                              cells=bad)
    F = Y[:, :g]
    for x in panel.covariate_matrix(covariates).T:     # CONFIG_ERROR if unknown
        C = np.full((panel.unit_count, panel.time_count), np.nan)
        C[panel.unit_idx, panel.time_idx] = x
        F = np.column_stack([F, C[rows][:, :g].mean(axis=1)])
    return _Match(g, donors, Y[0], Y[1:], F[0], F[1:])


# ---------------------------------------------------------------------------
# classic SCM


def _classic(m: _Match, treated) -> ScmEstimate:
    """The classic SCM fit of a match."""
    w, obj, iters, gap = solve_simplex_lsq(m.X0.T, m.x1)
    pre, gaps, att = _synth_gaps(m.y, m.Yd, w, m.g)
    weights = ScmWeights(dict(zip(m.donors, w.tolist())), pre, obj, False)
    return ScmEstimate(att, gaps, weights, treated, tuple(m.donors), m.g,
                       info={"iterations": iters, "fw_gap": gap})


def fit_scm(panel: PanelDataset, treated, donors=None,
            covariates=()) -> ScmEstimate:
    """Convex synthetic control for one treated unit.

    Matches pre-period outcomes (and covariate pre-means, uniformly
    weighted) and reports post-period gaps and their mean. The weights are
    the exact minimiser from the solver's active set; where the minimiser
    is not unique (a flat objective), the one returned is fixed by the
    active set's deterministic path from the best single donor.
    """
    return _classic(_match(panel, treated, donors, covariates), treated)


def _synth_gaps(y, Y_donors, w, g):
    """(pre-period RMSPE, post-period gaps, their mean) of y against the
    synthetic series Y_donors.T @ w, adoption at g."""
    synth = Y_donors.T @ w
    pre = float(np.sqrt(np.mean((y[:g] - synth[:g]) ** 2)))
    gaps = {int(t): float(y[t] - synth[t]) for t in range(g, len(y))}
    return pre, gaps, float(np.mean(list(gaps.values())))


def _donor_gram(X0):
    """Gram matrix of the donor features (rows) centred across donors.

    On the simplex, shifting every donor by the same vector leaves A w - b
    unchanged, so refitting donor i on the others can read (AᵀA, Aᵀb, bᵀb)
    off it; the centring keeps a common level from swamping the products
    in rounding.
    """
    Xc = X0 - X0.mean(axis=0)
    return Xc @ Xc.T


def _leave_outs(G):
    """Simplex weights of each donor fitted on all the others, row i for donor
    i (zero at i), from the donor Gram G: problem i has AᵀA = G, Aᵀb =
    G[:, i] and bᵀb = G[i, i] with coordinate i masked out. The fits are
    solved in lockstep as one batch."""
    J = len(G)
    return _active_set_polish(G, G, np.diag(G), ~np.eye(J, dtype=bool),
                              [slice(0, J)], SOLVER_TOL, SOLVER_MAX_ITER)[0]


# ---------------------------------------------------------------------------
# placebo permutation inference


def _rmspe_ratio(pre, post):
    if pre == 0.0:
        return 0.0 if post == 0.0 else float("inf")
    return post / pre


def _post_rmspe(gaps: dict) -> float:
    return float(np.sqrt(np.mean(np.array(list(gaps.values())) ** 2)))


def placebo_inference(panel: PanelDataset, treated, donors=None, covariates=(),
                      exclusion_cutoff: float = 5.0, *,
                      base: ScmEstimate | None = None) -> PlaceboResult:
    """In-space permutation test on post/pre RMSPE ratios.

    Each donor is refit as a pseudo-treated unit (remaining donors as its
    pool, the real treated unit excluded). The refits are solved in
    lockstep off the shared donor Gram (_leave_outs). Donors whose pre-period
    fit is worse than cutoff × the treated unit's pre-RMSPE are excluded. The
    p-value counts placebos with ratios at least as extreme as the treated
    unit's (ties count), plus one, over retained placebos plus one.

    base, if given, is the treated unit's fit_scm or fit_ascm(panel,
    treated, donors, covariates): its classic fit, which for fit_ascm is the
    one its info["scm_weights"] augmented, is then not solved again; the
    result is the same with or without it. A base fit for another treated
    unit or donor pool, or augmented without its classic weights, is
    CONFIG_ERROR.
    """
    m = _match(panel, treated, donors, covariates)
    if len(m.donors) < LEAVE_OUT_MIN_DONORS:
        raise PanelCauseError("TOO_FEW_DONORS",
                              f"placebo inference needs ≥{LEAVE_OUT_MIN_DONORS} "
                              f"donors so each pseudo-treated fit retains ≥{MIN_DONORS}")
    if base is None:
        base = _classic(m, treated)
    elif (base.treated != treated or base.donors != tuple(m.donors)
          or base.weights.negative_allowed and "scm_weights" not in base.info):
        raise PanelCauseError("CONFIG_ERROR",
                              "base is not an SCM or ASCM fit of this treated "
                              "unit on this donor pool")
    w = base.info["scm_weights"] if base.weights.negative_allowed else base.weights.weights
    t_pre, gaps, _ = _synth_gaps(m.y, m.Yd, np.array([w[d] for d in m.donors]), m.g)
    t_ratio = _rmspe_ratio(t_pre, _post_rmspe(gaps))

    W = _leave_outs(_donor_gram(m.X0))
    resid = m.Yd - W @ m.Yd
    pre = np.sqrt(np.mean(resid[:, :m.g] ** 2, axis=1))
    post = np.sqrt(np.mean(resid[:, m.g:] ** 2, axis=1))
    ratios, excluded = {}, []
    for d, pre_d, post_d in zip(m.donors, pre.tolist(), post.tolist()):
        if pre_d > exclusion_cutoff * t_pre:
            excluded.append(d)
        else:
            ratios[d] = _rmspe_ratio(pre_d, post_d)
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
    """Simplex weights w plus a sign-free ridge correction, per penalty.

    X0 is donors × features and x1 the target's features; the result is
    penalties × donors. Centering features across donors makes each
    correction Xc (XcᵀXc + lam I)⁺ (x1 - X0ᵀw) sum to zero exactly, so
    augmented weights still sum to one. One SVD of the centred features
    serves every penalty. Directions whose Gram eigenvalue plus lam is below
    the rounding floor get no correction: at lam = 0, where the Gram matrix
    is singular whenever donors-1 < features, that is the minimum-norm
    solution, the lam -> 0 limit. Nor do singular values past the first
    donors - 1, the centred pool's largest possible rank: with no more
    donors than features the last is rounding, and at lam > 0 its
    correction, rounding / lam along the constant donor vector, would move
    the weights' sum off one.
    """
    Xc = X0 - X0.mean(axis=0)
    U, sv, Vt = np.linalg.svd(Xc, full_matrices=False)
    lams = np.asarray(lams, dtype=float)[:, None]
    ev = sv ** 2 + lams
    floor = np.finfo(float).eps * X0.shape[1] * (sv[:1] ** 2 + lams)
    coef = np.divide(sv, ev, out=np.zeros_like(ev), where=ev > floor)
    coef[:, X0.shape[0] - 1:] = 0.0
    resid = x1 - np.einsum("jk,j->k", X0, w)
    return (coef * (Vt @ resid[:, None])[:, 0]) @ U.T + w


def _cv_lambda(X0: np.ndarray, grid=LAMBDA_GRID):
    """Donor-level leave-one-out CV for the ridge penalty.

    Each donor in turn becomes pseudo-treated with the rest as its pool;
    weights are fit on all but the last pre period and scored on the
    held-out one. The simplex fits are solved in lockstep off the shared
    donor Gram (_leave_outs). A fold is scored without forming its
    augmented weights: with Xc its centred pool features, R their QR factor
    and R = U S Vᵀ, the correction's dot product with the pool's held-out
    values y is Σ_k (Vᵀa)_k (Vᵀr)_k / (s_k² + lam), where a = Xcᵀy and r is
    the simplex fit's residual. Terms under _ridge_augment's floor or past
    the pool's rank are zeroed as there, which keeps the lam -> 0
    minimum-norm limit. Folds are factorised in stacks of at most
    BATCH_CHUNK // (penalties × donors). Ties resolve to the larger penalty.
    """
    J, F = X0.shape
    if F < 2:
        raise PanelCauseError("TOO_FEW_PERIODS", f"ridge CV needs ≥2 features, got {F}")
    if J < LEAVE_OUT_MIN_DONORS:
        raise PanelCauseError("TOO_FEW_DONORS",
                              f"ridge CV needs ≥{LEAVE_OUT_MIN_DONORS} donors, got {J}")
    fit, last = X0[:, :F - 1], X0[:, F - 1]
    off = ~np.eye(J, dtype=bool)
    pools = np.nonzero(off)[1].reshape(J, J - 1)         # fold j: all but j
    W = _leave_outs(_donor_gram(fit))[off].reshape(J, J - 1)
    lams = np.asarray(grid, dtype=float)[:, None]
    scores = np.zeros(len(grid))
    step = max(1, BATCH_CHUNK // (len(grid) * J))
    for f in (slice(lo, lo + step) for lo in range(0, J, step)):
        X, y = fit[pools[f]], last[pools[f]]
        Xc = X - X.mean(axis=1, keepdims=True)
        sv, Vt = np.linalg.svd(np.linalg.qr(Xc, mode="r"),
                               full_matrices=False)[1:]
        # Xcᵀ1 = 0: centring y leaves a as it is but for rounding, which
        # it shrinks
        yc = y - y.mean(axis=1, keepdims=True)
        a = Vt @ np.einsum("fjk,fj->fk", Xc, yc)[..., None]
        r = Vt @ (fit[f] - np.einsum("fjk,fj->fk", X, W[f]))[..., None]
        ev = sv[:, None, :] ** 2 + lams
        floor = np.finfo(float).eps * (F - 1) * ev[..., :1]
        inv = np.divide(1.0, ev, out=np.zeros_like(ev), where=ev > floor)
        inv[..., J - 2:] = 0.0          # past the rank of J - 1 centred donors
        pred = (W[f] * y).sum(axis=1)[:, None] + (inv @ (a * r))[..., 0]
        scores += ((last[f, None] - pred) ** 2).sum(axis=0)
    best = np.flatnonzero(scores <= scores.min())[-1]
    return float(grid[best]), dict(zip(grid.tolist(), scores.tolist()))


def _augmented(m: _Match, w, lam, treated, info):
    """Ridge-augmented ScmEstimate of a match from its simplex weights w;
    lam is a penalty or "cv" (_cv_lambda). info adds entries after the
    penalty."""
    cv_scores = None
    if lam == "cv":
        lam, cv_scores = _cv_lambda(m.X0)
    w_aug = _ridge_augment(m.X0, m.x1, w, [lam])[0]
    pre, gaps, att = _synth_gaps(m.y, m.Yd, w_aug, m.g)
    obj = float(np.sum((m.x1 - m.X0.T @ w_aug) ** 2))
    weights = ScmWeights(dict(zip(m.donors, w_aug.tolist())), pre, obj, True)
    info = {"lambda": float(lam), **info}
    if cv_scores is not None:
        info["cv_scores"] = cv_scores
    return ScmEstimate(att, gaps, weights, treated, tuple(m.donors), m.g,
                       info=info)


def fit_ascm(panel: PanelDataset, treated, donors=None, covariates=(),
             lam="cv") -> ScmEstimate:
    """Ridge-augmented SCM: corrects remaining pre-period imbalance.

    With zero imbalance the correction vanishes and the estimate equals
    classic SCM exactly; as lam → ∞ it degenerates to classic SCM. info
    keeps the classic fit's scm_att, scm_objective and scm_weights.
    """
    m = _match(panel, treated, donors, covariates)
    base = _classic(m, treated)
    return _augmented(m, base.weights.as_array(m.donors), lam, treated,
                      {"scm_att": base.att,
                       "scm_objective": base.weights.objective_value,
                       "scm_weights": base.weights.weights})


# ---------------------------------------------------------------------------
# staggered adoption: partially pooled cohort fits


def _stagger_system(Yd, targets, nu):
    """Assemble the partially pooled least-squares system over cohort weights.

    Yd holds the donor outcome rows and targets maps each cohort g, in
    order, to its mean pre-period outcomes b_g; cohort g is matched on A_g =
    Yd[:, :g].T. Rows: per-cohort pre-period residuals scaled by
    sqrt((1-nu)/T0_g), plus per-event-time pooled residuals scaled by
    sqrt(nu/E). Returns (M, d, blocks), one block of weights per cohort.
    """
    J, G = len(Yd), len(targets)
    blocks = [slice(i * J, (i + 1) * J) for i in range(G)]
    rows_M, rows_d = [], []
    for s_g, (g, b_g) in zip(blocks, targets.items()):
        s = np.sqrt((1.0 - nu) / g)
        block = np.zeros((g, G * J))
        block[:, s_g] = Yd[:, :g].T
        rows_M.append(s * block)
        rows_d.append(s * b_g)
    E = max(targets)
    for e in range(-E, 0):
        present = [(s_g, g, b_g) for s_g, (g, b_g) in zip(blocks, targets.items())
                   if -g <= e]
        m_e = len(present)
        row = np.zeros(G * J)
        val = 0.0
        for s_g, g, b_g in present:
            row[s_g] += Yd[:, g + e] / m_e
            val += b_g[g + e] / m_e
        s = np.sqrt(nu / E)
        rows_M.append(s * row[None, :])
        rows_d.append(np.array([s * val]))
    return np.vstack(rows_M), np.concatenate(rows_d), blocks


def _pooled_rmspe(Yd, targets, W):
    """RMS of the event-time-aligned mean pre-period residual."""
    vals = []
    for e in range(-max(targets), 0):
        rs = [float(b_g[g + e] - Yd[:, g + e] @ w)
              for w, (g, b_g) in zip(W, targets.items()) if -g <= e]
        vals.append(np.mean(rs))
    return float(np.sqrt(np.mean(np.array(vals) ** 2)))


def fit_staggered_ascm(panel: PanelDataset, nu="auto",
                       lam=0.0) -> StaggeredAscmEstimate:
    """Partially pooled synthetic controls, one per adoption cohort.

    nu=0 fits each cohort independently; nu=1 minimizes only the pooled
    (event-time-aligned mean) pre-period fit. "auto" picks the smallest nu
    on a 0..1 grid whose pooled pre-fit RMSPE is within 10% of the nu=1
    fit, reports the trace, and keeps the weights the scan solved at that
    nu. Donors are never-treated units only. Each cohort's simplex weights
    get the same ridge augmentation as fit_ascm; the overall ATT is the
    cohort-size-weighted mean with a leave-one-donor-out jackknife SE.
    The panel is read and checked once; each candidate nu and each fold
    (the donor rows less one) builds its system from those arrays.
    """
    schedule = derive_adoption(panel)
    if not schedule.cohorts:
        raise PanelCauseError("NO_VARIATION", "no treated cohorts")
    donors = list(schedule.never_treated)
    if not donors:
        raise PanelCauseError("NO_NEVER_TREATED",
                              "staggered fits use never-treated units as donors; none exist")
    if len(donors) < MIN_DONORS:
        raise PanelCauseError("TOO_FEW_DONORS", f"need ≥{MIN_DONORS} donors, got {len(donors)}")
    nu_mode = "auto" if nu == "auto" else "fixed"
    if nu_mode == "fixed":
        nu = float(nu)
        if not 0.0 <= nu <= 1.0:
            raise PanelCauseError("CONFIG_ERROR", f"nu must lie in [0,1], got {nu}")

    Y = panel.outcome_matrix()
    Yd = Y[[panel.units.index(d) for d in donors]]
    targets, series = {}, {}
    for g in sorted(schedule.cohorts):
        crows = [panel.units.index(u) for u in schedule.cohorts[g]]
        if np.isnan(Y[crows]).any() or np.isnan(Yd).any():
            raise PanelCauseError("MISSING_CELLS",
                                  "staggered fit requires complete treated and donor series")
        if g < 2:
            raise PanelCauseError(
                "TOO_FEW_PERIODS",
                f"cohort g={panel.time_labels[g]} has {g} pre periods; need ≥2")
        targets[g] = Y[crows, :g].mean(axis=0)
        series[g] = Y[crows].mean(axis=0)

    def weights(Yd, nu):
        M, d, blocks = _stagger_system(Yd, targets, nu)
        w, *_ = solve_simplex_lsq(M, d, blocks=blocks)
        return [w[s] for s in blocks]

    trace = []
    if nu_mode == "auto":
        W1 = weights(Yd, 1.0)
        ref = _pooled_rmspe(Yd, targets, W1)
        for nu in np.linspace(0.0, 1.0, 11).tolist():
            W = W1 if nu == 1.0 else weights(Yd, nu)
            r = _pooled_rmspe(Yd, targets, W)
            trace.append((nu, r))
            if r <= 1.10 * ref:
                break
    else:
        W = weights(Yd, nu)

    cohort_weights = schedule.cohort_weights(targets)

    def estimate(Yd, W, donors):
        per_cohort = {
            g: _augmented(_Match(g, donors, series[g], Yd, b_g, Yd[:, :g]), w,
                          lam, g, {"scm_weights": dict(zip(donors, w.tolist()))})
            for w, (g, b_g) in zip(W, targets.items())}
        att = float(sum(cohort_weights[g] * per_cohort[g].att for g in targets))
        return per_cohort, att

    def fold(j):
        keep = np.delete(np.arange(len(donors)), j)
        Yk = Yd[keep]
        return estimate(Yk, weights(Yk, nu), [donors[i] for i in keep])[1]

    per_cohort, att = estimate(Yd, W, donors)
    se = jackknife_se(fold, range(len(donors))
                      if len(donors) >= LEAVE_OUT_MIN_DONORS else ())
    return StaggeredAscmEstimate(nu, nu_mode, per_cohort, cohort_weights, att,
                                 se, _pooled_rmspe(Yd, targets, W), trace)
