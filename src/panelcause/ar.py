"""Debiased autoregressive policy-effect estimation.

The model regresses the outcome on its own lag, the current policy
indicator, optional covariates, and period effects — but the lag is
"debiased" by stripping the estimated policy effect from it
(L = Y_lag − γ·policy_lag), so prior treatment doesn't contaminate the
autoregressive baseline. γ appears both in the regressor construction and
as the regression coefficient, so estimation iterates to a fixed point.
An iteration that does not settle is NO_FIXED_POINT: a γ off its path is
no estimate. There are no unit fixed effects: unit-specific variability is
carried by the lag itself.

Only the lag columns move with γ. The period effects are absorbed once and
the covariates partialled out (Frisch–Waugh–Lovell), which leaves the Gram
matrix of [lags, policy, y] with entries quadratic in γ. Its minors are
expanded once into polynomials in γ, so every pass is a few polynomial
evaluations, and the reported fit is read from the same columns. Where a
column is (nearly) lost, the dense design with period dummies decides what
it keeps (see fit_debiased_ar)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PanelCauseError, PanelCauseWarning
from .linreg import (GRAM_PIVOT_TOL, INTERCEPT, DesignMatrix, build_design, index_sums,
                     jackknife_se, memoized, normal_ci, normal_p, ols_fit, read_only)
from .panel import PanelDataset

FP_TOL = 1e-8
FP_MAX_ITER = 200
# a Gram pivot at or below this share of its column's raw squared norm is
# one build_design would drop (see GRAM_PIVOT_TOL)
_PIVOT_FLOOR = GRAM_PIVOT_TOL ** 2
# a cluster-robust SE below this share of the model-based one means the
# clusters' scores cancel (two units, say): the sandwich says nothing
CLUSTER_SE_ROUNDING = 1e-6


@dataclass
class DebiasedArEstimate:
    gamma: float
    gamma_se: float
    beta_lag: float
    intercept: float
    time_effects: dict          # time label -> sigma_t (baseline period = 0.0)
    covariate_betas: dict
    iterations: int
    converged: bool             # always True: a path that does not settle raises
    gamma_path: list
    p_value: float
    ci: tuple
    fit: object = None
    gamma_se_jackknife: float = None


def _used_rows(panel: PanelDataset, lag_order: int):
    """Rows usable as dependent observations, plus their lag cells.

    Each unit's first lag_order observed periods are excluded by design.
    Any other row whose lag outcome is missing (absent row or blank cell)
    is a hard error — a silent drop would bias the autoregression.
    """
    Y = panel.outcome_matrix()
    P = panel.policy_matrix().astype(float)
    first_t = np.full(panel.unit_count, panel.time_count, dtype=int)
    np.minimum.at(first_t, panel.unit_idx, panel.time_idx)

    cand = np.isfinite(panel.outcome) & (
        panel.time_idx >= first_t[panel.unit_idx] + lag_order)
    ui, ti = panel.unit_idx[cand], panel.time_idx[cand]

    missing = []
    for ell in range(1, lag_order + 1):
        bad = ~np.isfinite(Y[ui, ti - ell])
        for u, t in zip(ui[bad], ti[bad]):
            missing.append((panel.units[u], panel.label_of(t)))
    if missing:
        raise PanelCauseError(
            "MISSING_LAG",
            f"{len(missing)} rows lack a lagged outcome: {sorted(set(missing))[:10]}",
            cells=sorted(set(missing)))
    if len(ui) == 0:
        raise PanelCauseError("TOO_FEW_PERIODS",
                              "no rows remain after excluding initial lags")

    y = Y[ui, ti]
    pol = P[ui, ti]
    lag_y = np.stack([Y[ui, ti - ell] for ell in range(1, lag_order + 1)])
    lag_p = np.stack([P[ui, ti - ell] for ell in range(1, lag_order + 1)])
    return cand, ui, ti, y, pol, lag_y, lag_p


def _fixed_columns(panel, cand, ti, covariates):
    """Covariate and period-dummy columns: the part of the design free of γ."""
    cols = [(name, panel.covariates[name][cand]) for name in covariates]
    levels = np.unique(ti)
    cols += [(f"t_{panel.label_of(int(t))}", (ti == t).astype(float))
             for t in levels[1:]]
    return cols, levels


def _ols_pass(panel, cand, ui, ti, y, pol, lag_y, lag_p, gamma, covariates):
    """Full OLS pass on [lags debiased at γ, policy, covariates, periods]."""
    fixed, levels = _fixed_columns(panel, cand, ti, covariates)
    lags = [(f"lag{ell + 1}", lag_y[ell] - gamma * lag_p[ell])
            for ell in range(len(lag_y))]
    X = build_design(lags + [("policy", pol)] + fixed)
    _check_saturated(len(pol), X.data.shape[1])
    return ols_fit(X, y, np.unique(ui, return_inverse=True)[1]), levels


class _Plan:
    """What a debiased AR fit on _used_rows' ``rows`` computes without y: the
    rows (cand, ui, ti, pol, lag_p), the covariates on them, the period
    levels, ``absorbed`` (see _LagPolicyGram) with ``basis`` the Q of the
    period-demeaned covariates or else the dense fixed part F, and the unit
    clusters, all read-only; and the names the report reads back: ``names``
    of the absorbed design's columns and ``periods``, each level's (time
    label, t_<label> coefficient name)."""

    def __init__(self, panel, rows, covariates):
        cand, ui, ti, _, pol, _, lag_p = rows
        self.rows = cand, ui, ti, pol, lag_p
        self.cov = cov = panel.covariate_matrix(covariates)[cand]
        # np.unique(ti, return_inverse=True, return_counts=True), by counting
        counts = np.bincount(ti)
        self.levels = np.flatnonzero(counts)
        self.tpos, self.counts = (np.cumsum(counts > 0) - 1)[ti], counts[self.levels]
        fixed = np.column_stack([cov, pol])
        raw = np.linalg.norm(fixed, axis=0)
        fixed -= (index_sums(self.tpos, len(self.levels), fixed) / self.counts[:, None])[self.tpos]
        Q, Rc = np.linalg.qr(fixed)
        self.absorbed = bool((np.abs(np.diagonal(Rc)) > GRAM_PIVOT_TOL * raw).all())
        if self.absorbed:
            self.basis = Q[:, :cov.shape[1]]
        else:
            X = build_design([("policy", pol)] + _fixed_columns(panel, cand, ti, covariates)[0])
            self.basis = X.data[:, [j for j, name in enumerate(X.column_names)
                                    if name != "policy"]]
        self.clusters = (np.cumsum(np.bincount(ui) > 0) - 1)[ui]  # np.unique's inverse
        self.names = [f"lag{ell + 1}" for ell in range(len(lag_p))] + ["policy", *covariates]
        self.periods = [(label, f"t_{label}")
                        for label in map(panel.label_of, self.levels.tolist())]
        read_only(*self.rows, self.cov, self.levels, self.tpos, self.counts, self.basis,
                  self.clusters)


def _check_saturated(n, rank):
    if n <= rank:
        raise PanelCauseError("SATURATED_DESIGN", (
            f"{n} used rows for a design of rank {rank}: no residual degrees "
            f"of freedom are left to identify γ"))


def _minor(P, cols, memo):
    """Determinant of rows 0..len(cols)-1 of the matrix P of quadratics
    against the columns ``cols``, by cofactors along its last row: 2r + 3
    coefficients for r + 1 rows, highest power first. ``memo`` keeps every
    minor by its columns and holds the empty one, (1.0,)."""
    if cols not in memo:
        r = len(cols) - 1
        total = [0.0] * (2 * r + 3)
        for i, c in enumerate(cols):
            sign = -1.0 if (r + i) % 2 else 1.0
            rest = _minor(P, cols[:i] + cols[i + 1:], memo)
            for a, x in enumerate(P[r][c]):
                for b, y in enumerate(rest):
                    total[a + b] += sign * x * y
        memo[cols] = tuple(total)
    return memo[cols]


class _LagPolicyGram:
    """Normal equations of the lag/policy block as polynomials in γ.

    z = [y, policy, lag_y_1..L, lag_p_1..L] and the covariates are demeaned
    within period, absorbing the intercept and period effects, and z is
    projected off the demeaned covariates (Frisch–Waugh–Lovell). If the
    demeaned [covariates, policy] have a QR pivot at or below GRAM_PIVOT_TOL
    of its raw norm, build_design may drop a period dummy instead (common
    adoption, a covariate that is a function of the period): ``absorbed`` is
    False and z is projected by least squares off the intercept, covariate
    and period columns that build_design keeps after policy.

    At γ the columns [lag_1..L, policy, y] are z·C(γ) with C(γ) = C0 +
    γ·C1, so their Gram and their raw squared norms are quadratics in γ.
    The leading principal minors Δ_1..Δ_{L+1} of the [lags, policy] block
    and the minor M of the [lags, policy] rows against the [lags, y] columns
    are expanded from them once, by cofactors, into polynomials of degree
    ≤ 2L. All are kept as sequences of Python floats, highest power first:
    polynomials this small evaluate faster in floats than through numpy
    calls. A pass's policy coefficient is M/Δ_{L+1}, and column j's pivot
    is Δ_{j+1}/Δ_j (Δ_0 = 1). A pass with a pivot at the floor, one whose
    dense design would drop a column because of the lags, is refit in full.
    """

    def __init__(self, panel, rows, covariates, plan=None):
        if plan is None:
            plan = _Plan(panel, rows, covariates)
        _, _, _, y, pol, lag_y, lag_p = rows
        z = np.column_stack([y, pol, *lag_y, *lag_p])
        k, L = z.shape[1], len(lag_y)
        self.absorbed = plan.absorbed
        if self.absorbed:
            zc = np.column_stack([z, plan.cov])
            means = index_sums(plan.tpos, len(plan.levels), zc) / plan.counts[:, None]
            zc -= means[plan.tpos]
            R = zc[:, :k] - plan.basis @ (plan.basis.T @ zc[:, :k])
            self._report = (zc, means, plan.levels, y, plan.clusters, plan.names,
                            plan.periods)
        else:
            R = z - plan.basis @ np.linalg.lstsq(plan.basis, z, rcond=None)[0]

        # C0 takes column r0[i] of z as column i, and C1 subtracts column
        # r1[i] from lag i: with r = r0 + r1, each coefficient block of
        # C(γ)ᵀMC(γ) is a block of M[r][:, r]. "+ 0.0" gives a negated zero
        # the sign +0.0 that the selection matmuls gave it.
        n = L + 2
        r = np.array([*range(2, 2 + L), 1, 0, *range(2 + L, k)])

        def quadratic(M):       # C(γ)ᵀMC(γ) as coefficients of γ², γ, 1
            P, q = M[r[:, None], r], np.zeros((3, n, n))
            q[0, :L, :L] = P[n:, n:]
            q[1, :, :L] = -P[:n, n:]
            q[1, :L] -= P[n:, :n]
            q[2] = P[:n, :n]
            q += 0.0
            return q

        self._lags = L
        gram = quadratic(R.T @ R).transpose(1, 2, 0).tolist()
        raw = np.diagonal(quadratic(z.T @ z), axis1=1, axis2=2).T.tolist()
        memo = {(): (1.0,)}
        self._pivots = [(_minor(gram, tuple(range(j + 1)), memo), raw[j])
                        for j in range(L + 1)]
        self._cross = _minor(gram, (*range(L), L + 1), memo)

    def report(self, gamma):
        """_ols_pass's fit at γ, read from the demeaned [lag_ℓ −
        γ·lagp_ℓ, policy, covariates]: unit-clustered with the period levels
        counted in the small-sample factor and the rank, and the intercept
        and t_<label> read back from the period means of y − Xβ."""
        zc, means, levels, y, clusters, names, periods = self._report
        L = self._lags

        def design(M):
            return np.column_stack([M[:, 2:2 + L] - gamma * M[:, 2 + L:2 + 2 * L],
                                    M[:, 1], M[:, 2 + 2 * L:]])

        X = design(zc)
        rank = X.shape[1] + len(levels)
        _check_saturated(len(y), rank)
        fit = ols_fit(DesignMatrix(X, names, np.linalg.qr(X)), zc[:, 0], clusters, len(levels))
        alpha = (means[:, 0] - design(means) @ list(fit.coefficients.values())).tolist()
        fit.coefficients = {INTERCEPT: alpha[0], **fit.coefficients, **{
            t: a - alpha[0] for (_, t), a in zip(periods[1:], alpha[1:])}}
        fit.rank = rank
        return fit

    def policy_coef(self, gamma):
        """Policy coefficient M(γ)/Δ_{L+1}(γ); None if a lag or policy pivot
        Δ_{j+1}/Δ_j is at or below GRAM_PIVOT_TOL² times the column's raw
        squared norm, as build_design would drop the column."""
        # Horner inlined: a pass is 2L + 3 evaluations, each about the cost of a call
        prev = 1.0
        for minor, raw in self._pivots:
            d = r = 0.0
            for a in minor:
                d = d * gamma + a
            for a in raw:
                r = r * gamma + a
            if d <= _PIVOT_FLOOR * r * prev:
                return None
            prev = d
        c = 0.0
        for a in self._cross:
            c = c * gamma + a
        return c / prev


def _report(panel, rows, covariates, gram, gamma):
    """The reported fit: the pass at γ, the last pass's input, read from the
    Gram where that pass was absorbed and dense where it was refit dense."""
    if gram.absorbed and gram.policy_coef(gamma) is not None:
        return gram.report(gamma)
    return _ols_pass(panel, *rows, gamma, covariates)[0]


def _solve(panel, rows, covariates, plan=None):
    """γ path of the fixed-point passes on ``rows`` (with their _Plan, or
    None), up to the first pass that moves γ by at most FP_TOL, and a
    function returning the reported fit (_report). NO_FIXED_POINT if no
    pass within FP_MAX_ITER settles."""
    if not rows[-1].any():      # no treated lag: one dense pass is exact
        fit = _ols_pass(panel, *rows, 0.0, covariates)[0]
        return [0.0, _coef(fit, "policy")], lambda: fit
    gram = _LagPolicyGram(panel, rows, covariates, plan)
    gamma_path = [0.0]
    for _ in range(FP_MAX_ITER):
        g = gamma_path[-1]
        new = gram.policy_coef(g)
        if new is None:
            new = _coef(_ols_pass(panel, *rows, g, covariates)[0], "policy")
        gamma_path.append(new)
        if abs(new - g) <= FP_TOL:
            return gamma_path, lambda: _report(panel, rows, covariates, gram, g)
    raise PanelCauseError("NO_FIXED_POINT", (
        f"no fixed point within {FP_TOL:g} after {FP_MAX_ITER} passes"))


def fit_debiased_ar(panel: PanelDataset, covariates=(), lag_order: int = 1,
                    ci_level: float = 0.95,
                    jackknife: bool = False) -> DebiasedArEstimate:
    """Policy effect γ from the debiased AR model, by fixed-point iteration.

    γ⁰ = 0; each step rebuilds the debiased lag with the current γ and
    refits OLS; stops when successive γ differ by ≤1e-8. When no used row
    has a treated lag the loop is skipped: one dense OLS pass is the exact
    answer (the model is then a plain AR regression with a policy term).

    The period effects are absorbed and the covariates partialled out once
    (_LagPolicyGram), and the Gram's minors are expanded once into
    polynomials in γ: each pass evaluates a few of them, and the report is
    read from the same demeaned columns. The dense design with period
    dummies is fit instead where the absorption could drop a column
    differently: throughout when policy or a covariate lies (nearly) in the
    period span, else for a pass whose lag/policy block is near
    rank-deficient and the report at its γ. Raises NO_FIXED_POINT when no
    pass within FP_MAX_ITER settles, and SATURATED_DESIGN when the used rows
    do not exceed the rank of the design (always so for a single unit).

    SE is cluster-robust from the fit at the last pass's input γ and
    ignores the uncertainty in the debiasing step; set jackknife=True for a
    unit-level jackknife SE that includes it, over the units with used rows.
    A fold solves for γ alone; it builds no report unless it has too few
    rows to be sure the report cannot raise. A fold without a fixed point
    raises NO_FIXED_POINT, as the fit does, and is dropped.
    The used rows, lag check, period levels, absorption QR and clusters
    (_Plan) are outcome-free: a Monte Carlo evaluate builds them once per
    adoption. A jackknife fold builds its own, outside the shared memo.
    When the unit clusters cannot support the sandwich (SE below
    CLUSTER_SE_ROUNDING times the model-based SE), the SE, CI and p-value
    are NaN, with a CLUSTER_SE_DEGENERATE warning.
    """
    if lag_order < 1:
        raise PanelCauseError("CONFIG_ERROR", f"lag_order must be ≥1, got {lag_order}")
    covariates = tuple(covariates)

    cov = panel.covariate_matrix(covariates)        # CONFIG_ERROR for an unknown name
    plan = memoized(
        lambda: ("debiased ar plan", tuple(panel.time_labels), panel.unit_count, lag_order,
                 covariates, panel.unit_idx.tobytes(), panel.time_idx.tobytes(),
                 panel.policy.tobytes(), np.isfinite(panel.outcome).tobytes(), cov.tobytes()),
        lambda: _Plan(panel, _used_rows(panel, lag_order), covariates))
    cand, ui, ti, pol, lag_p = plan.rows
    Y = panel.outcome_matrix()
    lag_y = np.stack([Y[ui, ti - ell] for ell in range(1, lag_order + 1)])
    rows = (cand, ui, ti, Y[ui, ti], pol, lag_y, lag_p)
    gamma_path, report = _solve(panel, rows, covariates, plan)
    fit, gamma = report(), gamma_path[-1]

    se = float("nan")
    if "policy" in fit.coefficients:
        se, model_se = fit.se("policy"), fit.model_se("policy")
        if se < CLUSTER_SE_ROUNDING * model_se:
            warnings.warn(PanelCauseWarning("CLUSTER_SE_DEGENERATE", (
                f"the scores of the {fit.cluster_count} unit clusters cancel: "
                f"the policy's cluster-robust SE {se:.3g} is at rounding level "
                f"against its model-based SE {model_se:.3g}, so gamma_se, the "
                f"CI and the p-value are NaN")))
            se = float("nan")

    (base, _), *periods = plan.periods
    time_effects = {base: 0.0, **{t: fit.coefficients.get(name, 0.0) for t, name in periods}}

    se_jack = None
    if jackknife:       # a unit without used rows leaves γ as it is: no fold
        # a fold needs only γ. Its report runs only where it could raise as
        # the fit without the unit would: no more rows than the dense
        # design's columns (intercept, lags, policy, covariates, periods)
        width = lag_order + 1 + len(covariates) + panel.time_count

        def without(v):     # the used rows of every unit but v, in their order;
            # its plan is built for the fold alone, outside the shared memo
            keep = ui != v
            fold = (rows[0] & (panel.unit_idx != v), *(a[..., keep] for a in rows[1:]))
            gamma_path, report = _solve(panel, fold, covariates)
            if keep.sum() <= width:
                report()
            return gamma_path[-1]
        se_jack = jackknife_se(without, np.unique(ui))

    return DebiasedArEstimate(
        gamma=gamma, gamma_se=se,
        beta_lag=fit.coefficients.get("lag1", 0.0),
        intercept=fit.coefficients.get("_intercept", 0.0),
        time_effects=time_effects,
        covariate_betas={n: fit.coefficients[n] for n in covariates
                         if n in fit.coefficients},
        iterations=len(gamma_path) - 1, converged=True, gamma_path=gamma_path,
        p_value=normal_p(gamma, se), ci=normal_ci(gamma, se, ci_level),
        fit=fit, gamma_se_jackknife=se_jack)


def _coef(fit, name):
    if name not in fit.coefficients:
        # all-zero policy column was dropped from the design: effect is 0
        return 0.0
    return fit.coefficients[name]

