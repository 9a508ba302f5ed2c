"""Shared least-squares machinery.

Design-matrix assembly with deterministic collinearity handling, OLS via
orthogonal decomposition, two-way fixed-effect absorption by iterative
demeaning, the cluster-robust sandwich, and the delete-one jackknife. All
pure functions; estimator modules own the modelling choices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import PanelCauseError, PanelCauseWarning

INTERCEPT = "_intercept"
PIVOT_TOL = 1e-10


@dataclass
class DesignMatrix:
    data: np.ndarray                  # n × k, full column rank after drops
    column_names: list
    dropped_columns: list = field(default_factory=list)  # (name, reason) pairs

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def index_of(self, name) -> int:
        return self.column_names.index(name)


def build_design(columns, add_intercept: bool = True,
                 pivot_tol: float = PIVOT_TOL) -> DesignMatrix:
    """Assemble named columns into a full-rank design matrix.

    Collinear columns are dropped deterministically: columns are scanned in
    the listed order and a column is kept only if its residual against the
    span of already-kept columns exceeds ``pivot_tol`` relative to its own
    norm. Later-listed columns therefore lose ties.
    """
    items = list(columns)
    if add_intercept:
        n = len(np.asarray(items[0][1], dtype=float)) if items else 0
        items = [(INTERCEPT, np.ones(n))] + items
    if not items:
        raise PanelCauseError("RANK_ZERO", "no columns supplied")

    n = len(np.asarray(items[0][1], dtype=float))
    kept_names, kept_cols, dropped = [], [], []
    basis = np.empty((n, 0))
    for name, col in items:
        x = np.asarray(col, dtype=float)
        if x.shape != (n,):
            raise PanelCauseError("CONFIG_ERROR",
                                  f"column '{name}' has shape {x.shape}, expected ({n},)")
        norm = np.linalg.norm(x)
        if norm == 0.0:
            dropped.append((name, "zero column"))
            continue
        # project out the kept span twice (re-orthogonalization for stability)
        r = x - basis @ (basis.T @ x)
        r = r - basis @ (basis.T @ r)
        rnorm = np.linalg.norm(r)
        if rnorm <= pivot_tol * norm:
            dropped.append((name, "collinear with earlier columns"))
            continue
        kept_names.append(name)
        kept_cols.append(x)
        basis = np.column_stack([basis, r / rnorm])
    if not kept_cols:
        raise PanelCauseError("RANK_ZERO", "all columns dropped as zero/collinear")
    return DesignMatrix(np.column_stack(kept_cols), kept_names, dropped)


@dataclass
class FitResult:
    coefficients: dict
    vcov: np.ndarray
    vcov_names: list
    residuals: np.ndarray
    fitted: np.ndarray
    n: int
    rank: int
    cluster_count: int
    dropped_columns: list = field(default_factory=list)

    def coef(self, name) -> float:
        return self.coefficients[name]

    def se(self, name) -> float:
        i = self.vcov_names.index(name)
        return float(np.sqrt(max(self.vcov[i, i], 0.0)))

    def subvcov(self, names) -> np.ndarray:
        idx = [self.vcov_names.index(n) for n in names]
        return self.vcov[np.ix_(idx, idx)]


def ols_fit(X: DesignMatrix, y, clusters, extra_dof: int = 0) -> FitResult:
    """OLS with the cluster-robust (CR0 × small-sample factor) sandwich.

    ``clusters`` labels each row; passing a distinct label per row yields
    heteroskedasticity-robust (HC1-style) errors. ``extra_dof`` counts
    parameters absorbed out of the design (fixed effects) so the
    small-sample factor matches the equivalent dummy regression.
    """
    y = np.asarray(y, dtype=float)
    A = X.data
    n, k = A.shape
    beta, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ beta
    resid = y - fitted

    labels = np.asarray(clusters)
    _, cluster_idx = np.unique(labels, return_inverse=True)
    G = int(cluster_idx.max()) + 1 if len(labels) else 0
    if G < 2:
        raise PanelCauseError("FEWER_CLUSTERS_THAN_TWO",
                              f"cluster-robust variance needs ≥2 clusters, got {G}")

    xtx_inv = np.linalg.pinv(A.T @ A)
    # meat: sum over clusters of (X_g' e_g)(X_g' e_g)'
    scores = A * resid[:, None]
    S = np.zeros((G, k))
    np.add.at(S, cluster_idx, scores)
    meat = S.T @ S
    k_eff = k + extra_dof
    c = (G / (G - 1)) * ((n - 1) / max(n - k_eff, 1))
    V = c * xtx_inv @ meat @ xtx_inv
    V = (V + V.T) / 2

    coefs = dict(zip(X.column_names, beta.tolist()))
    return FitResult(coefs, V, list(X.column_names), resid, fitted,
                     n, k, G, list(X.dropped_columns))


def _group_means(x: np.ndarray, idx: np.ndarray, n_groups: int) -> np.ndarray:
    counts = np.bincount(idx, minlength=n_groups).astype(float)
    if x.ndim == 1:
        sums = np.bincount(idx, weights=x, minlength=n_groups)
        return sums / counts
    out = np.empty((n_groups, x.shape[1]))
    for j in range(x.shape[1]):
        out[:, j] = np.bincount(idx, weights=x[:, j], minlength=n_groups) / counts
    return out


def absorb_fixed_effects(unit_idx, time_idx, columns, tol: float = 1e-10,
                         max_sweeps: int = 2000):
    """Within-transform columns by unit and time fixed effects.

    A dimension with a single level is skipped with a SINGLE_LEVEL warning.
    Iterative demeaning until the largest update is ≤ tol. Returns
    (transformed columns, absorbed_dof) where absorbed_dof is the parameter
    count of the equivalent dummy regression (intercept included).
    """
    M = np.array(columns, dtype=float)
    one_dim = M.ndim == 1
    if one_dim:
        M = M[:, None]
    unit_idx = np.asarray(unit_idx, dtype=np.intp)
    time_idx = np.asarray(time_idx, dtype=np.intp)
    n_u = int(unit_idx.max()) + 1 if len(unit_idx) else 0
    n_t = int(time_idx.max()) + 1 if len(time_idx) else 0

    active = []
    for dim, idx, size in (("unit", unit_idx, n_u), ("time", time_idx, n_t)):
        if len(np.unique(idx)) < 2:
            warnings.warn(PanelCauseWarning(
                "SINGLE_LEVEL", f"dimension '{dim}' has a single level; absorption is a no-op"))
            continue
        active.append((idx, size))

    if not active:
        return (M[:, 0] if one_dim else M), 0
    if len(active) == 1:
        idx, size = active[0]
        M = M - _group_means(M, idx, size)[idx]
        absorbed = len(np.unique(idx))  # intercept + (levels-1) dummies
        return (M[:, 0] if one_dim else M), absorbed

    for _ in range(max_sweeps):
        delta = 0.0
        for idx, size in active:
            means = _group_means(M, idx, size)[idx]
            M = M - means
            d = float(np.abs(means).max()) if means.size else 0.0
            delta = max(delta, d)
        if delta <= tol:
            break
    absorbed = len(np.unique(unit_idx)) + len(np.unique(time_idx)) - 1
    return (M[:, 0] if one_dim else M), absorbed


def jackknife_se(estimate_without, folds) -> float:
    """Delete-one jackknife SE, sqrt((m-1)/m · Σ(θ - θ̄)²).

    ``estimate_without(f)`` refits with fold f left out. A fold whose refit
    raises PanelCauseError is skipped; m counts the folds that remain, and
    fewer than two give NaN.
    """
    thetas = []
    for f in folds:
        try:
            thetas.append(estimate_without(f))
        except PanelCauseError:
            continue
    if len(thetas) < 2:
        return float("nan")
    th = np.array(thetas)
    m = len(th)
    return float(np.sqrt((m - 1) / m * ((th - th.mean()) ** 2).sum()))


# ---------------------------------------------------------------------------
# normal-reference inference helpers shared by the regression estimators


def normal_p(est: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if est != 0.0 else 1.0
    return float(2.0 * stats.norm.sf(abs(est / se)))


def normal_ci(est: float, se: float, level: float = 0.95):
    z = float(stats.norm.ppf(0.5 + level / 2.0))
    return est - z * se, est + z * se
