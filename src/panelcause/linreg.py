"""Shared least-squares machinery.

Design-matrix assembly with deterministic collinearity handling (one
Householder QR, the design's only factorisation), OLS and the
cluster-robust sandwich read off that QR, exact unit or two-way fixed
effects and the within regression built on them, the unit–period
connectivity they rest on, the delete-one jackknife, and the normal and
chi-square tails. Pure functions, apart from the memo that one Monte Carlo
evaluate call opens (shared_memo), whose values are functions of their
keys; estimator modules own the modelling choices. numpy and the standard
library are the only dependencies.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
import warnings
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import PanelCauseError, PanelCauseWarning

INTERCEPT = "_intercept"
PIVOT_TOL = 1e-10
# A Gram pass cannot resolve build_design's pivot rule (1e-10 of the norm):
# forming CᵀGC squares the rounding. A pivot within GRAM_PIVOT_TOL of the raw
# norm sends the pass to build_design, which decides the drop exactly.
GRAM_PIVOT_TOL = 1e-5


@dataclass
class DesignMatrix:
    data: np.ndarray                  # n × k, full column rank after drops
    column_names: list
    qr: tuple                         # thin (Q, R) of data: Q n × k, R k × k
    dropped_columns: list = field(default_factory=list)  # (name, reason) pairs
    r_inv: np.ndarray = field(init=False)   # R⁻¹, formed with the QR
    bread: np.ndarray = field(init=False)   # (XᵀX)⁻¹ = R⁻¹R⁻ᵀ

    def __post_init__(self):
        self.r_inv = np.linalg.inv(self.qr[1])
        self.bread = self.r_inv @ self.r_inv.T


def build_design(columns, add_intercept: bool = True) -> DesignMatrix:
    """Assemble named columns into a full-rank design matrix.

    Collinear columns are dropped deterministically by a Householder QR of
    the listed columns: |R_jj|, column j's residual on the columns before
    it, must exceed PIVOT_TOL times its norm. The first failing column
    is dropped and the rest refactored, so later-listed columns lose ties;
    past the n-th kept column of an n-row design every column fails.
    """
    items = list(columns)
    if add_intercept:
        n = len(np.asarray(items[0][1], dtype=float)) if items else 0
        items = [(INTERCEPT, np.ones(n))] + items
    if not items:
        raise PanelCauseError("RANK_ZERO", "no columns supplied")

    n = len(np.asarray(items[0][1], dtype=float))
    for name, col in items:
        if np.shape(col) != (n,):
            raise PanelCauseError("CONFIG_ERROR", f"column '{name}' has shape "
                                  f"{np.shape(col)}, expected ({n},)")
    A = np.column_stack([np.asarray(col, dtype=float) for _, col in items])
    norms = np.linalg.norm(A, axis=0)
    dropped = [(j, "zero column") for j in np.flatnonzero(norms == 0.0)]
    keep = np.flatnonzero(norms > 0.0)
    while len(keep):
        Q, R = np.linalg.qr(A[:, keep])
        fail = np.abs(np.diagonal(R)) <= PIVOT_TOL * norms[keep[:len(R)]]
        if not fail.any():
            break
        j = int(fail.argmax())
        dropped.append((keep[j], "collinear with earlier columns"))
        keep = np.delete(keep, j)
    dropped += [(j, "collinear with earlier columns") for j in keep[n:]]
    if not len(keep):
        raise PanelCauseError("RANK_ZERO", "all columns dropped as zero/collinear")
    keep, R = keep[:n], R[:, :n]
    return DesignMatrix(A[:, keep], [items[j][0] for j in keep], (Q, R),
                        [(items[j][0], why) for j, why in sorted(dropped)])


@dataclass
class FitResult:
    coefficients: dict
    vcov: np.ndarray
    vcov_names: list
    residuals: np.ndarray
    n: int
    rank: int
    cluster_count: int
    dropped_columns: list = field(default_factory=list)
    bread: np.ndarray = None          # (XᵀX)⁻¹ of the design

    def coef(self, name) -> float:
        return self.coefficients[name]

    def se(self, name) -> float:
        i = self.vcov_names.index(name)
        return math.sqrt(max(self.vcov[i, i], 0.0))

    def model_se(self, name) -> float:
        """Homoskedastic SE, sqrt(s²·(XᵀX)⁻¹_jj) with s² = e·e / (n − rank).

        The reference a cluster-robust SE is checked against: the two differ
        by a modest factor unless the clusters' scores cancel.
        """
        i = self.vcov_names.index(name)
        s2 = float(self.residuals @ self.residuals) / max(self.n - self.rank, 1)
        return math.sqrt(max(s2 * self.bread[i, i], 0.0))

    def subvcov(self, names) -> np.ndarray:
        idx = np.array([self.vcov_names.index(n) for n in names], dtype=np.intp)
        return self.vcov[idx[:, None], idx]


def ols_fit(X: DesignMatrix, y, cluster_idx, extra_dof: int = 0,
            slots=None) -> FitResult:
    """OLS with the cluster-robust (CR0 × small-sample factor) sandwich.

    ``cluster_idx`` numbers each row's cluster 0..G-1, G = max + 1 (the
    inverse of np.unique over the labels); a distinct number per row yields
    heteroskedasticity-robust (HC1-style) errors. ``extra_dof`` counts
    parameters absorbed out of the design (fixed effects) so the
    small-sample factor matches the equivalent dummy regression. ``slots``
    is index_slots(cluster_idx, width of X), if a caller keeps it.

    All of it comes from the design's thin QR, X = QR: β = R⁻¹Qᵀy, the fitted
    values Q(Qᵀy), the bread (XᵀX)⁻¹ = R⁻¹R⁻ᵀ and the sandwich c·WWᵀ, with
    W = R⁻¹S_Qᵀ and S_Q the cluster sums of the scores Q_i·e_i: bread·meat·
    bread in the Q basis, a sum of squares, so symmetric and PSD as formed.
    """
    G = int(cluster_idx.max()) + 1 if len(cluster_idx) else 0
    y = np.asarray(y, dtype=float)
    Q = X.qr[0]
    n, k = Q.shape
    if G < 2:
        raise PanelCauseError("FEWER_CLUSTERS_THAN_TWO",
                              f"cluster-robust variance needs ≥2 clusters, got {G}")

    qty = Q.T @ y
    beta = X.r_inv @ qty
    resid = y - Q @ qty
    S = index_sums(cluster_idx, G, Q * resid[:, None], slots)
    W = X.r_inv @ S.T
    c = (G / (G - 1)) * ((n - 1) / max(n - k - extra_dof, 1))

    coefs = dict(zip(X.column_names, beta.tolist()))
    return FitResult(coefs, c * (W @ W.T), list(X.column_names), resid, n, k, G,
                     list(X.dropped_columns), X.bread)


def index_sums(index, size, values, slots=None):
    """Row sums of ``values`` by ``index`` into ``size`` slots: np.add.at on zeros.

    One bincount over (index, column) slots, which adds each slot's rows in
    row order as np.add.at does, so the sums are the same to the bit.
    ``slots`` is index_slots(index, k) for k values a row, if the caller
    keeps it; with one value a row the index is its own slot array.
    """
    values = np.asarray(values, dtype=float)
    k = math.prod(values.shape[1:])
    if slots is None:
        slots = index_slots(index, k)
    return np.bincount(slots, values.ravel(), size * k).reshape((size,) + values.shape[1:])


def index_slots(index, k):
    """index_sums's slot array for k values a row: each row's (index, column)
    slot, index × k + column, in row order."""
    index = np.asarray(index)
    return index if k == 1 else (index[:, None] * k + np.arange(k)).ravel()


def unit_period_components(unit_idx, time_idx, n_units, n_periods):
    """Connected components of the bipartite unit–period graph of the rows.

    Each row links its unit to its period. Returns (unit_label, period_label):
    two nodes share a label exactly when rows connect them, and a label is
    the smallest node index of its component, units numbered before periods
    (period t is node n_units + t). Nodes without rows are their own
    component. Min-label hooking with pointer jumping: every root that
    shares an edge with a smaller root hooks onto the smallest such, then
    every node jumps to its root; the roots only ever decrease, so this
    ends, after a few sweeps on a panel.
    """
    a = np.asarray(unit_idx, dtype=np.intp)
    b = np.asarray(time_idx, dtype=np.intp) + n_units
    root = np.arange(n_units + n_periods)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return root[:n_units], root[n_units:]


class FixedEffects:
    """Unit or two-way fixed effects of one set of rows, factored once.

    Holds what a fit of any columns on these rows needs and the columns do
    not change: the level counts and their SINGLE_LEVEL checks, the absorbed
    parameter count, the unit cluster index, and for two-way effects the
    unit×period count matrix N with the pseudo-inverse of the T×T Schur
    complement of the normal equations, S = diag(m_t) − Nᵀ diag(1/n_u) N.
    S is singular once per connected component of the unit–period graph;
    its pseudo-inverse (an eigenvalue at most T·eps times the largest one
    counts as zero, lstsq's cutoff) still gives the unique fitted values on
    every observed cell. time_idx None means unit effects alone.
    """

    def __init__(self, unit_idx, time_idx):
        self.unit_idx = ui = np.asarray(unit_idx, dtype=np.intp)
        _, self._unit_pos, self._unit_rows = np.unique(
            ui, return_inverse=True, return_counts=True)
        units = len(self._unit_rows)
        # within_fit clusters by unit, or by row when the rows hold one unit
        self.clusters = self._unit_pos if units > 1 else np.arange(len(ui))
        self.single_level = ()
        if time_idx is None:
            self.time_idx, self.absorbed = None, units
            return
        self.time_idx = ti = np.asarray(time_idx, dtype=np.intp)
        levels = {"unit": units, "time": len(np.unique(ti))}
        self.single_level = tuple(d for d, n in levels.items() if n < 2)
        self.absorbed = (sum(levels.values()) - 1
                         if len(self.single_level) < 2 else 0)
        if not len(ui):         # no rows: no levels, nothing to absorb
            return
        U, T = ui.max() + 1, ti.max() + 1
        self._cell = ui * T + ti
        self._N = N = np.bincount(self._cell, minlength=U * T).reshape(U, T).astype(float)
        self._inv_u = 1.0 / np.maximum(N.sum(axis=1), 1.0)
        self._B = N.T * self._inv_u
        w, V = np.linalg.eigh(np.diag(N.sum(axis=0)) - self._B @ N)
        on = np.abs(w) > T * np.finfo(float).eps * np.abs(w).max()
        self._schur_pinv = (V[:, on] / w[on]) @ V[:, on].T

    def warn(self):
        """One SINGLE_LEVEL warning per single-level dimension, for each fit."""
        for dim in self.single_level:
            warnings.warn(PanelCauseWarning(
                "SINGLE_LEVEL", f"dimension '{dim}' has a single level; absorption is a no-op"))

    def effects(self, columns):
        """Two-way (alpha, gamma) of the columns, each column fit on its own."""
        X = np.asarray(columns, dtype=float)
        U, T = self._N.shape
        cell_sums = index_sums(self._cell, U * T, X).reshape((U, T) + X.shape[1:])
        sum_u = cell_sums.sum(axis=1)
        gamma = self._schur_pinv @ (cell_sums.sum(axis=0) - self._B @ sum_u)
        alpha = ((sum_u - self._N @ gamma).T * self._inv_u).T
        return alpha, gamma

    def absorb(self, columns):
        """The columns minus their fixed-effects fit (unchanged if both
        dimensions have a single level)."""
        M = np.array(columns, dtype=float)
        if self.time_idx is None:
            sums = index_sums(self._unit_pos, len(self._unit_rows), M)
            return M - (sums.T / self._unit_rows).T[self._unit_pos]
        if len(self.single_level) == 2:
            return M
        alpha, gamma = self.effects(M)
        return M - alpha[self.unit_idx] - gamma[self.time_idx]

    def fit(self, X, y, slots=None):
        """within_fit of y on X, a design _within_design absorbed here, or None;
        ``slots`` is index_slots(self.clusters, width of X), if kept."""
        return None if X is None else ols_fit(X, self.absorb(y), self.clusters,
                                              self.absorbed, slots)


def _fixed_effects(unit_idx, time_idx) -> FixedEffects:
    """FixedEffects of these rows, taken from the shared memo when one is open."""
    ui = np.asarray(unit_idx, dtype=np.intp)
    ti = None if time_idx is None else np.asarray(time_idx, dtype=np.intp)
    return memoized(lambda: ("fixed effects", ui.tobytes(),
                              None if ti is None else ti.tobytes()),
                     lambda: FixedEffects(ui, ti))


def absorb_fixed_effects(unit_idx, time_idx, columns):
    """Columns minus their fixed-effects fit, and the absorbed parameter count.

    absorbed_dof counts the equivalent dummy regression's parameters,
    intercept included. time_idx None absorbs unit means alone: absorbed_dof
    is the number of units. Two-way, it is levels(unit) + levels(time) - 1;
    a dimension with a single level gets a SINGLE_LEVEL warning, and if both
    do, the columns come back unchanged with absorbed_dof 0.
    """
    fe = _fixed_effects(unit_idx, time_idx)
    fe.warn()
    return fe.absorb(columns), fe.absorbed


def within_fit(unit_idx, time_idx, y, columns) -> FitResult | None:
    """OLS of y on named columns with fixed effects absorbed (see absorb_fixed_effects).

    Unit-clustered, or row-clustered when the rows hold one unit, with the
    effects in the small-sample factor, as in the equivalent dummy
    regression. A column the effects absorb (within norm ≤ PIVOT_TOL × raw
    norm) is zeroed, so build_design drops it as a zero column instead of
    fitting its rounding noise. None if every column is.

    The design side (the absorbed columns and their QR) and y are absorbed
    apart, y always on its own, so a design taken from the shared memo gives
    the same bits as one built afresh.
    """
    fe = _fixed_effects(unit_idx, time_idx)
    fe.warn()
    names, cols = zip(*columns)
    raw = np.column_stack(cols)
    X = memoized(lambda: ("within design", fe, names, raw.tobytes()),
                  lambda: _within_design(fe, names, raw))
    return fe.fit(X, y)


def _within_design(fe, names, raw):
    M = fe.absorb(raw)
    M[:, np.linalg.norm(M, axis=0) <= PIVOT_TOL * np.linalg.norm(raw, axis=0)] = 0.0
    if not M.any():
        return None
    X = build_design(zip(names, M.T), add_intercept=False)
    read_only(X.data, *X.qr, X.r_inv, X.bread)
    return X


def read_only(*arrays):
    """Mark the arrays read-only, as everything the shared memo hands out is."""
    for a in arrays:
        a.setflags(write=False)


# ---------------------------------------------------------------------------
# the memo one Monte Carlo evaluate call shares across its reps


MEMO_ENTRIES = 16
_MEMO = contextvars.ContextVar("panelcause_memo", default=None)


class _Memo:
    """Least-recently-used table of at most MEMO_ENTRIES values, shared by
    threads; ``hits`` and ``misses`` count lookups by kind (a tuple key's key[0])."""

    def __init__(self):
        self.items = OrderedDict()
        self.hits, self.misses = Counter(), Counter()
        self._lock = threading.Lock()

    def get(self, key, build):
        kind = key[0] if isinstance(key, tuple) else key
        with self._lock:
            if key in self.items:
                self.hits[kind] += 1
                self.items.move_to_end(key)
                return self.items[key]
            self.misses[kind] += 1
        value = build()
        with self._lock:
            self.items[key] = value
            if len(self.items) > MEMO_ENTRIES:
                self.items.popitem(last=False)
        return value


@contextlib.contextmanager
def shared_memo():
    """Within the block, fits keep for later fits what their inputs decide.

    Kept: simharness's DGP skeleton by shape, effect and adoption,
    FixedEffects by their rows, within_fit's absorbed design (QR, R⁻¹, bread)
    by its FixedEffects, names and column bytes, the sample covariance of
    did's multiplier draws, and the outcome-free plans of the TWFE, event
    study, group-time ATTs and debiased AR. A plan is keyed by (kind, the
    panel's structure key, the fit's options, an outcome-blank token): the
    structure key is the bytes of all of the panel but its outcome, kept on
    the simulated skeleton and shared by its reps' panels, and the token
    (blank_token) is None when every outcome cell is finite, else the bytes
    of the blank-cell mask or grid the plan reads. Each value is built as it
    is outside the block, so fits give the same bits. Threads see the memo
    when run in a copy of the block's context. It is emptied and dropped
    when the block ends.
    """
    memo = _Memo()
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)
        memo.items.clear()


def memoized(make_key, build):
    """build(), or the open memo's value for make_key(), built on a miss."""
    memo = _MEMO.get()
    return build() if memo is None else memo.get(make_key(), build)


def blank_token(values, blanks):
    """A plan key's outcome-blank token: None when every entry of ``values``
    is finite, else the bytes of blanks(), the mask or grid the plan reads."""
    return None if np.isfinite(values).all() else blanks().tobytes()


def jackknife_se(estimate_without, folds) -> float:
    """Delete-one jackknife SE, sqrt((m-1)/m · Σ(θ - θ̄)²).

    ``estimate_without(f)`` refits with fold f left out. A fold whose refit
    raises PanelCauseError is left out with a JACKKNIFE_FOLDS_DROPPED
    warning; m counts the folds that remain, and fewer than two give NaN.
    """
    thetas, failed = [], []
    for f in folds:
        try:
            thetas.append(estimate_without(f))
        except PanelCauseError as e:
            failed.append(e.code)
    if failed:
        warnings.warn(PanelCauseWarning("JACKKNIFE_FOLDS_DROPPED", (
            f"{len(failed)} of {len(failed) + len(thetas)} jackknife folds "
            f"raised and were left out (first: {failed[0]})")))
    if len(thetas) < 2:
        return float("nan")
    th = np.array(thetas)
    m = len(th)
    return float(np.sqrt((m - 1) / m * ((th - th.mean()) ** 2).sum()))


# ---------------------------------------------------------------------------
# normal-reference inference helpers shared by the regression estimators


_STANDARD_NORMAL = NormalDist()


def normal_p(est: float, se: float) -> float:
    """Two-sided normal p-value of est / se: erfc(|z| / √2)."""
    if se == 0.0:
        return 0.0 if est != 0.0 else 1.0
    return math.erfc(abs(est / se) * math.sqrt(0.5))


def normal_ci(est: float, se: float, level: float = 0.95):
    if not 0.0 < level < 1.0:
        raise PanelCauseError("CONFIG_ERROR",
                              f"CI level must lie strictly between 0 and 1, got {level}")
    z = _STANDARD_NORMAL.inv_cdf(0.5 + level / 2.0)
    return est - z * se, est + z * se


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(χ²_df > x) for an integer df ≥ 1, in closed form.

    With h = x/2, even df sums e^{-h}·h^k/k! over k < df/2; odd df adds
    e^{-h}·h^{k+1/2}/Γ(k+3/2) over k < (df-1)/2 to erfc(√h). Every term is
    formed as the exp of its logarithm, so nothing overflows for any x.
    """
    h = 0.5 * x
    if h <= 0.0:
        return 1.0
    if math.isinf(h):
        return 0.0
    log_h = math.log(h)
    half = 0.5 * (df % 2)
    terms = [math.exp((k + half) * log_h - h - math.lgamma(k + half + 1.0))
             for k in range(df // 2)]
    head = math.erfc(math.sqrt(h)) if half else 0.0
    return head + math.fsum(terms)
