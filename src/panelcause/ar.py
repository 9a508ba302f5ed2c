"""Debiased autoregressive policy-effect estimation.

The model regresses the outcome on its own lag, the current policy
indicator, optional covariates, and period effects — but the lag is
"debiased" by stripping the estimated policy effect from it
(L = Y_lag − γ·policy_lag), so prior treatment doesn't contaminate the
autoregressive baseline. γ appears both in the regressor construction and
as the regression coefficient, so estimation iterates to a fixed point;
a profile least-squares grid refinement takes over if the iteration
cycles. There are no unit fixed effects: unit-specific variability is
carried by the lag itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PanelCauseError
from .linreg import build_design, jackknife_se, normal_ci, normal_p, ols_fit
from .panel import PanelDataset

FP_TOL = 1e-8
FP_MAX_ITER = 200


@dataclass
class DebiasedArEstimate:
    gamma: float
    gamma_se: float
    beta_lag: float
    intercept: float
    time_effects: dict          # time label -> sigma_t (baseline period = 0.0)
    covariate_betas: dict
    iterations: int
    converged: bool
    gamma_path: list
    p_value: float
    ci: tuple
    fit: object = None
    gamma_se_jackknife: float = None

    @property
    def used_fallback(self) -> bool:
        return not self.converged and len(self.gamma_path) > FP_MAX_ITER + 1


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


def _design_columns(panel, cand, ti, pol, lag_y, lag_p, gamma, covariates,
                    include_policy=True):
    cols = []
    for ell in range(lag_y.shape[0]):
        cols.append((f"lag{ell + 1}", lag_y[ell] - gamma * lag_p[ell]))
    if include_policy:
        cols.append(("policy", pol))
    for name in covariates:
        cols.append((name, panel.covariates[name][cand]))
    levels = np.unique(ti)
    for t in levels[1:]:
        cols.append((f"t_{panel.label_of(int(t))}", (ti == t).astype(float)))
    return cols, levels


def _ols_pass(panel, cand, ui, ti, y, pol, lag_y, lag_p, gamma, covariates):
    cols, levels = _design_columns(panel, cand, ti, pol, lag_y, lag_p,
                                   gamma, covariates)
    X = build_design(cols)
    clusters = ui if len(np.unique(ui)) >= 2 else np.arange(len(ui))
    fit = ols_fit(X, y, clusters)
    return fit, levels


def _profile_ssr(panel, cand, ui, ti, y, pol, lag_y, lag_p, gamma, covariates):
    """Residual sum of squares with γ fixed: move γ·policy to the left side."""
    cols, _ = _design_columns(panel, cand, ti, pol, lag_y, lag_p, gamma,
                              covariates, include_policy=False)
    X = build_design(cols)
    z = y - gamma * pol
    beta, *_ = np.linalg.lstsq(X.data, z, rcond=None)
    resid = z - X.data @ beta
    return float(resid @ resid)


def _grid_refine(ssr, lo, hi, rounds=4, points=41):
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        vals = np.array([ssr(g) for g in grid])
        i = int(np.argmin(vals))
        step = grid[1] - grid[0]
        lo, hi = grid[i] - 2 * step, grid[i] + 2 * step
    return float(grid[i])


def fit_debiased_ar(panel: PanelDataset, covariates=(), lag_order: int = 1,
                    ci_level: float = 0.95,
                    jackknife: bool = False) -> DebiasedArEstimate:
    """Policy effect γ from the debiased AR model, by fixed-point iteration.

    γ⁰ = 0; each step rebuilds the debiased lag with the current γ and
    refits OLS; stops when successive γ differ by ≤1e-8. When no used row
    has a treated lag the loop is skipped: one OLS pass is the exact
    answer (the model is then a plain AR regression with a policy term).
    SE is cluster-robust from the final pass and ignores the uncertainty
    in the debiasing step; set jackknife=True for a unit-level jackknife
    SE that includes it.
    """
    if lag_order < 1:
        raise PanelCauseError("CONFIG_ERROR", f"lag_order must be ≥1, got {lag_order}")
    covariates = tuple(covariates)
    for name in covariates:
        if name not in panel.covariates:
            raise PanelCauseError("CONFIG_ERROR", f"unknown covariate '{name}'")

    cand, ui, ti, y, pol, lag_y, lag_p = _used_rows(panel, lag_order)

    gamma_path = [0.0]
    if not lag_p.any():
        fit, levels = _ols_pass(panel, cand, ui, ti, y, pol, lag_y, lag_p,
                                0.0, covariates)
        gamma = _coef(fit, "policy")
        gamma_path.append(gamma)
        iterations, converged = 1, True
    else:
        gamma, iterations, converged = 0.0, 0, False
        fit = levels = None
        for _ in range(FP_MAX_ITER):
            fit, levels = _ols_pass(panel, cand, ui, ti, y, pol, lag_y, lag_p,
                                    gamma, covariates)
            new = _coef(fit, "policy")
            gamma_path.append(new)
            iterations += 1
            if abs(new - gamma) <= FP_TOL:
                gamma, converged = new, True
                break
            gamma = new
        if not converged:
            lo = min(gamma_path) - 1.0
            hi = max(gamma_path) + 1.0
            gamma = _grid_refine(
                lambda g: _profile_ssr(panel, cand, ui, ti, y, pol, lag_y,
                                       lag_p, g, covariates), lo, hi)
            gamma_path.append(gamma)
            fit, levels = _ols_pass(panel, cand, ui, ti, y, pol, lag_y, lag_p,
                                    gamma, covariates)

    se = fit.se("policy") if "policy" in fit.coefficients else float("nan")
    time_effects = {panel.label_of(int(levels[0])): 0.0}
    for t in levels[1:]:
        name = f"t_{panel.label_of(int(t))}"
        time_effects[panel.label_of(int(t))] = fit.coefficients.get(name, 0.0)

    se_jack = None
    if jackknife:
        se_jack = jackknife_se(
            lambda u: fit_debiased_ar(
                panel.subset(units=[x for x in panel.units if x != u]),
                covariates, lag_order).gamma,
            panel.units)

    return DebiasedArEstimate(
        gamma=gamma, gamma_se=se,
        beta_lag=fit.coefficients.get("lag1", 0.0),
        intercept=fit.coefficients.get("_intercept", 0.0),
        time_effects=time_effects,
        covariate_betas={n: fit.coefficients[n] for n in covariates
                         if n in fit.coefficients},
        iterations=iterations, converged=converged, gamma_path=gamma_path,
        p_value=normal_p(gamma, se), ci=normal_ci(gamma, se, ci_level),
        fit=fit, gamma_se_jackknife=se_jack)


def _coef(fit, name):
    if name not in fit.coefficients:
        # all-zero policy column was dropped from the design: effect is 0
        return 0.0
    return fit.coefficients[name]

