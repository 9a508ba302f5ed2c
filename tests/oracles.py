"""Independent reference implementations used to check estimator output.

Everything here is deliberately written by a different route than the
package code (normal equations instead of lstsq, explicit dummy designs
instead of demeaning, exhaustive grid enumeration instead of projected
gradient), so agreement is evidence, not tautology.
"""

import csv
import math

import numpy as np
from scipy import stats
from scipy.optimize import nnls
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from panelcause import ColumnSpec, PanelCauseError, PanelDataset, derive_adoption


def ols_beta(X, y):
    """Solve the normal equations directly (pinv route)."""
    return np.linalg.pinv(X.T @ X) @ (X.T @ y)


def cluster_sandwich(X, y, clusters, extra_dof=0):
    """CR0 sandwich with small-sample factor, assembled with explicit loops."""
    n, k = X.shape
    beta = ols_beta(X, y)
    resid = y - X @ beta
    bread = np.linalg.pinv(X.T @ X)
    labels = sorted(set(clusters.tolist()))
    meat = np.zeros((k, k))
    for lab in labels:
        rows = np.flatnonzero(clusters == lab)
        s = X[rows].T @ resid[rows]
        meat += np.outer(s, s)
    G = len(labels)
    k_eff = k + extra_dof
    c = (G / (G - 1)) * ((n - 1) / max(n - k_eff, 1))
    return beta, c * bread @ meat @ bread


def fwl_cluster_se(others, col, y, clusters, extra_dof=0):
    """Cluster-robust and model SE of one column's coefficient, by Frisch–Waugh–Lovell.

    ``others`` (n × m) holds the remaining, well-conditioned columns; lstsq
    on them alone gives col's residual r and y's residual u, so a column
    nearly collinear with them is never factored with them. The full
    residual is e = u − r·(rᵀu)/(rᵀr). Returns (c^½·‖s‖/(rᵀr), s_e/‖r‖),
    where s_g = Σ_{i∈g} r_i e_i over cluster g, c is the CR0 small-sample
    factor of a k = m + 1 column design and s_e² = eᵀe/(n − k).
    """
    F = np.asarray(others, dtype=float)
    r = col - F @ np.linalg.lstsq(F, col, rcond=None)[0]
    u = y - F @ np.linalg.lstsq(F, y, rcond=None)[0]
    rr = r @ r
    e = u - r * (r @ u) / rr
    n, k = len(y), F.shape[1] + 1
    labels = sorted(set(clusters.tolist()))
    s = np.array([r[clusters == g] @ e[clusters == g] for g in labels])
    G = len(labels)
    c = (G / (G - 1)) * ((n - 1) / max(n - k - extra_dof, 1))
    return np.sqrt(c) * np.linalg.norm(s) / rr, np.sqrt(e @ e / (n - k) / rr)


def gram_schmidt_design(columns, add_intercept=True, pivot_tol=1e-10):
    """Kept names and (name, reason) drops of a column-by-column scan.

    Columns are taken in the listed order; a column is kept when its
    residual on the span of the kept ones, projected out twice by modified
    Gram-Schmidt, exceeds pivot_tol times its own norm. A zero column is
    dropped as such before any projection.
    """
    items = list(columns)
    if add_intercept:
        n = len(np.asarray(items[0][1], dtype=float)) if items else 0
        items = [("_intercept", np.ones(n))] + items
    n = len(np.asarray(items[0][1], dtype=float))
    kept, dropped = [], []
    basis = np.empty((n, 0))
    for name, col in items:
        x = np.asarray(col, dtype=float)
        norm = np.linalg.norm(x)
        if norm == 0.0:
            dropped.append((name, "zero column"))
            continue
        r = x - basis @ (basis.T @ x)
        r = r - basis @ (basis.T @ r)
        rnorm = np.linalg.norm(r)
        if rnorm <= pivot_tol * norm:
            dropped.append((name, "collinear with earlier columns"))
            continue
        kept.append(name)
        basis = np.column_stack([basis, r / rnorm])
    return kept, dropped


def twfe_dummy_fit(panel, extra_cols=()):
    """TWFE via an explicit full-dummy regression; returns (beta_policy, se).

    Unit dummies for all units, time dummies for all but the first period,
    no intercept — the saturated two-way design. Standard errors use the
    same cluster sandwich as `cluster_sandwich`, clustered on unit.
    """
    n = panel.n_rows
    U, T = panel.unit_count, panel.time_count
    cols = [panel.policy.astype(float)]
    for name, arr in extra_cols:
        cols.append(np.asarray(arr, dtype=float))
    for u in range(U):
        cols.append((panel.unit_idx == u).astype(float))
    for t in range(1, T):
        cols.append((panel.time_idx == t).astype(float))
    X = np.column_stack(cols)
    keep = np.isfinite(panel.outcome)
    beta, V = cluster_sandwich(X[keep], panel.outcome[keep],
                               panel.unit_idx[keep])
    return float(beta[0]), float(np.sqrt(max(V[0, 0], 0.0)))


def ridge_beta(X, y, lam):
    """Closed-form ridge with unpenalized intercept prepended."""
    n, k = X.shape
    Z = np.column_stack([np.ones(n), X])
    P = np.eye(k + 1) * lam
    P[0, 0] = 0.0
    return np.linalg.solve(Z.T @ Z + P, Z.T @ y)


# ---------------------------------------------------------------------------
# reference distributions and graph components (SciPy's implementations)


def normal_two_sided_p(z):
    return float(2.0 * stats.norm.sf(abs(z)))


def normal_quantile(q):
    return float(stats.norm.ppf(q))


def chi2_upper_tail(x, df):
    return float(stats.chi2.sf(x, df))


def bipartite_components(unit_idx, time_idx, n_units, n_periods):
    """Component label per node (units, then periods) from SciPy's csgraph."""
    n = n_units + n_periods
    graph = coo_matrix((np.ones(len(unit_idx)),
                        (np.asarray(unit_idx), n_units + np.asarray(time_idx))),
                       shape=(n, n))
    return connected_components(graph, directed=False)[1]


# ---------------------------------------------------------------------------
# simplex grids


def _compositions(J, total, lo, hi):
    """Integer vectors k (len J, sum total) with lo <= k <= hi, lexicographic."""
    out = []
    k = np.zeros(J, dtype=int)

    def rec(j, remaining):
        if j == J - 1:
            if lo[j] <= remaining <= hi[j]:
                k[j] = remaining
                out.append(k.copy())
            return
        tail_lo = int(lo[j + 1:].sum())
        tail_hi = int(hi[j + 1:].sum())
        start = max(lo[j], remaining - tail_hi)
        stop = min(hi[j], remaining - tail_lo)
        for v in range(start, stop + 1):
            k[j] = v
            rec(j + 1, remaining - v)

    rec(0, total)
    return np.array(out) if out else np.empty((0, J), dtype=int)


def grid_simplex_min(X0, x1, stages=(50, 250, 1250)):
    """Coarse-to-fine grid search for min ||x1 - X0^T w||^2 over the simplex.

    X0 is donors × features. Stage n enumerates weights with denominator n;
    after the first (full-simplex) stage, enumeration is confined to a box
    of ±2 previous-stage steps around the incumbent. Returns (w, objective).
    """
    J = X0.shape[0]

    def objective(W):
        r = x1[None, :] - W @ X0
        return np.einsum("ij,ij->i", r, r)

    best_w = None
    prev_step = None
    for n in stages:
        if best_w is None:
            lo = np.zeros(J, dtype=int)
            hi = np.full(J, n, dtype=int)
        else:
            lo = np.maximum(0, np.ceil((best_w - 2 * prev_step) * n).astype(int))
            hi = np.minimum(n, np.floor((best_w + 2 * prev_step) * n).astype(int))
        K = _compositions(J, n, lo, hi)
        W = K / n
        vals = objective(W)
        i = int(np.argmin(vals))
        best_w, best_val = W[i], float(vals[i])
        prev_step = 1.0 / n
    return best_w, best_val


def exhaustive_simplex_min(X0, x1, denom=1000):
    """Single-stage full enumeration (only sane for <=3 donors)."""
    J = X0.shape[0]
    K = _compositions(J, denom, np.zeros(J, dtype=int),
                      np.full(J, denom, dtype=int))
    W = K / denom
    r = x1[None, :] - W @ X0
    vals = np.einsum("ij,ij->i", r, r)
    i = int(np.argmin(vals))
    return W[i], float(vals[i])


def nnls_simplex_min(A, b, blocks, weight=1e6):
    """min ||A w - b||^2 over a product of simplexes by the weighting method
    (Lawson & Hanson, Solving Least Squares Problems, ch. 22).

    SciPy's NNLS solves the problem with each block's sum-to-one constraint
    appended as a row weighted by `weight` (times the largest |A| entry);
    each block is then rescaled to sum to one exactly, so the reported point
    is feasible and its objective is an upper bound on the minimum.
    Returns (w, objective).
    """
    k = A.shape[1]
    C = np.zeros((len(blocks), k))
    for i, s in enumerate(blocks):
        C[i, s] = 1.0
    big = weight * max(1.0, float(np.abs(A).max()))
    w, _ = nnls(np.vstack([A, big * C]),
                np.concatenate([b, np.full(len(blocks), big)]),
                maxiter=50 * k)
    for s in blocks:
        w[s] /= w[s].sum()
    r = A @ w - b
    return w, float(r @ r)


# ---------------------------------------------------------------------------
# placebo ranks


def placebo_p(treated_ratio, placebo_ratios):
    n_ge = sum(1 for r in placebo_ratios if r >= treated_ratio)
    return (n_ge + 1) / (len(placebo_ratios) + 1)


# ---------------------------------------------------------------------------
# segmented regressions


def segmented_design(t, g, unit_dummies=None):
    """Columns [1, t, policy, max(0, t-g)] (+ optional unit dummies)."""
    t = np.asarray(t, dtype=float)
    pol = (t >= g).astype(float)
    tsp = np.maximum(0.0, t - g) * pol
    cols = [np.ones_like(t), t, pol, tsp]
    if unit_dummies is not None:
        cols.extend(unit_dummies)
    return np.column_stack(cols)


def cits_betas(t, g, trt, y):
    """Full interacted two-group segmented regression via normal equations.

    Returns the eight coefficients (beta0..beta7) of
    y = b0 + b1 t + b2 P + b3 tsp + b4 trt + b5 trt*t + b6 trt*P + b7 trt*tsp
    with the policy clock shared across groups.
    """
    t = np.asarray(t, dtype=float)
    trt = np.asarray(trt, dtype=float)
    pol = (t >= g).astype(float)
    tsp = np.maximum(0.0, t - g) * pol
    X = np.column_stack([np.ones_like(t), t, pol, tsp,
                         trt, trt * t, trt * pol, trt * tsp])
    return ols_beta(X, np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# debiased autoregression


def debiased_ar_path(y, pol, lag_y, lag_p, fixed, tol, max_iter):
    """γ path of the debiased AR fixed point, one dense regression per pass.

    Each pass lays out [1, lag_ℓ − γ·lagp_ℓ (ℓ = 1..L), policy, *fixed] and
    keeps a column only when it raises the SVD rank of the kept ones, so a
    later column loses a tie; γ is then the policy coefficient of ols_beta
    (0 if policy was not kept). Stops when successive γ differ by ≤ tol,
    after max_iter passes, or after one pass when no policy lag is nonzero
    (the design is then the same at every γ). Returns [0, γ¹, γ², …].
    """
    path = [0.0]
    for _ in range(max_iter):
        g = path[-1]
        cols = ([np.ones(len(y))] + [ly - g * lp for ly, lp in zip(lag_y, lag_p)]
                + [np.asarray(pol, dtype=float)] + list(fixed))
        keep = []
        for j in range(len(cols)):
            trial = np.column_stack([cols[i] for i in keep + [j]])
            if np.linalg.matrix_rank(trial) > len(keep):
                keep.append(j)
        beta = ols_beta(np.column_stack([cols[j] for j in keep]), y)
        j_pol = 1 + len(lag_y)
        path.append(float(beta[keep.index(j_pol)]) if j_pol in keep else 0.0)
        if abs(path[-1] - g) <= tol or not np.any(lag_p):
            break
    return path


# ---------------------------------------------------------------------------
# adoption timing


def loop_adoption(panel):
    """unit -> first period with policy 1, or None, one unit at a time.

    The per-unit loop ``panel.derive_adoption`` replaced; absent rows are
    NaN in the policy grid and never count as adoption.
    """
    pm = panel.policy_matrix()
    adoption = {}
    for i, u in enumerate(panel.units):
        ts = np.flatnonzero(pm[i] == 1)
        adoption[u] = int(ts[0]) if len(ts) else None
    return adoption


# ---------------------------------------------------------------------------
# group-time ATT


def group_time_cells(panel, comparison="NEVER_TREATED", bootstrap_reps=999, seed=0):
    """Group-time ATTs one (g, t) cell at a time, with the package's draws.

    The per-cell loop that ``did.fit_group_time_att`` replaced: each cell
    selects its treated and comparison units by list, differences their
    outcomes from g-1 to t and forms its influence vector on its own. Every
    aggregate is a weight vector applied to the cells and to V·Phi, with
    V the same Rademacher draws (seeded by SeedSequence([seed])). Returns
    a dict with cells {(g, t): (att, se)}, phis {(g, t): influence},
    omitted, cohort_weights, by_cohort, by_event and overall.
    """
    sched = derive_adoption(panel)
    Y = panel.outcome_matrix()
    uidx = {u: i for i, u in enumerate(panel.units)}
    cells, phis, omitted = {}, {}, []
    for g in sorted(sched.cohorts):
        if g == 0:
            omitted.append((g, None, "no pre-period for base g-1"))
            continue
        treated = [uidx[u] for u in sched.cohorts[g]]
        for t in range(g, panel.time_count):
            if comparison == "NEVER_TREATED":
                comp = [uidx[u] for u in sched.never_treated]
            else:
                comp = [uidx[u] for u in panel.units
                        if sched.adoption_time[u] is None or sched.adoption_time[u] > t]
            d_t = Y[treated, t] - Y[treated, g - 1]
            d_c = Y[comp, t] - Y[comp, g - 1] if comp else np.array([])
            ok_t, ok_c = ~np.isnan(d_t), ~np.isnan(d_c)
            if not ok_t.any() or not ok_c.any():
                omitted.append((g, t, "empty comparison or treated set"))
                continue
            dt, dc = d_t[ok_t], d_c[ok_c]
            phi = np.zeros(panel.unit_count)
            phi[np.asarray(treated)[ok_t]] = (dt - dt.mean()) / len(dt)
            phi[np.asarray(comp)[ok_c]] -= (dc - dc.mean()) / len(dc)
            cells[(g, t)] = float(dt.mean() - dc.mean())
            phis[(g, t)] = phi
    out = {"cells": {}, "phis": phis, "omitted": omitted}
    if not cells:
        return out
    keys = list(cells)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    V = rng.choice((-1.0, 1.0), size=(bootstrap_reps, panel.unit_count))
    draws = V @ np.column_stack([phis[k] for k in keys])

    def agg(ks, scale=1.0):
        w = np.array([scale * (1.0 / len(ks)) if k in ks else 0.0 for k in keys])
        return (float(w @ np.array([cells[k] for k in keys])),
                float(np.std(draws @ w, ddof=1)), w)

    out["cells"] = {k: (cells[k], float(np.std(draws[:, i], ddof=1)))
                    for i, k in enumerate(keys)}
    groups = sorted({g for g, _ in keys})
    out["by_cohort"] = {g: agg([k for k in keys if k[0] == g])[:2] for g in groups}
    events = sorted({t - g for g, t in keys})
    out["by_event"] = {e: agg([k for k in keys if k[1] - k[0] == e])[:2] for e in events}
    sizes = sched.cohort_sizes()
    total = sum(sizes[g] for g in groups)
    out["cohort_weights"] = {g: sizes[g] / total for g in groups}
    w = sum(agg([k for k in keys if k[0] == g], out["cohort_weights"][g])[2]
            for g in groups)
    out["overall"] = (float(w @ np.array([cells[k] for k in keys])),
                      float(np.std(draws @ w, ddof=1)))
    return out


# ---------------------------------------------------------------------------
# panel CSV input and output


def _parse_number(text, where):
    try:
        v = float(text)
    except ValueError:
        raise PanelCauseError("UNPARSEABLE_CELL",
                              f"cannot parse '{text}' as a number at {where}") from None
    if not math.isfinite(v):
        raise PanelCauseError("UNPARSEABLE_CELL", f"non-finite value at {where}")
    return v


def row_load_panel(source, spec=ColumnSpec()):
    """The record-by-record loader that ``panel.load_panel`` replaced.

    Each record is parsed role by role; an auto-detected covariate column is
    dropped at the end if any cell failed to parse. Rows are numbered after
    blank records are dropped, and an empty unit field is a unit named "".
    """
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open(source, "r", newline="") if own else source
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelCauseError("NO_ROWS", "input file is empty") from None
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}
        for role in ("unit", "time", "outcome", "policy"):
            name = getattr(spec, role)
            if name not in col:
                raise PanelCauseError("CONFIG_ERROR",
                                      f"mapped {role} column '{name}' not in header {header}")
        reserved = {spec.unit, spec.time, spec.outcome, spec.policy}
        if spec.covariates is not None:
            for name in spec.covariates:
                if name not in col:
                    raise PanelCauseError("CONFIG_ERROR",
                                          f"covariate column '{name}' not in header")
            cov_names = [c for c in spec.covariates if c not in reserved]
        else:
            cov_names = [c for c in header if c not in reserved]

        raw = list(reader)
        raw = [r for r in raw if any(f.strip() for f in r)]
        if not raw:
            raise PanelCauseError("NO_ROWS", "no data rows in input")

        units: list = []
        unit_pos: dict = {}
        u_idx, labels_raw, outcome, policy = [], [], [], []
        cov_vals = {c: [] for c in cov_names}
        cov_numeric = {c: True for c in cov_names}
        for lineno, row in enumerate(raw, start=2):
            if len(row) < len(header):
                row = row + [""] * (len(header) - len(row))
            unit = row[col[spec.unit]].strip()
            if unit not in unit_pos:
                unit_pos[unit] = len(units)
                units.append(unit)
            u_idx.append(unit_pos[unit])

            where = f"row {lineno}, column '{spec.time}'"
            tval = _parse_number(row[col[spec.time]].strip(), where)
            if tval != int(tval):
                raise PanelCauseError("UNPARSEABLE_CELL",
                                      f"time '{tval}' is not an integer at {where}")
            labels_raw.append(int(tval))

            ytxt = row[col[spec.outcome]].strip()
            outcome.append(np.nan if ytxt == "" else _parse_number(
                ytxt, f"row {lineno}, column '{spec.outcome}'"))

            ptxt = row[col[spec.policy]].strip()
            if ptxt == "":
                raise PanelCauseError("UNPARSEABLE_CELL",
                                      f"empty policy field at row {lineno}")
            pval = _parse_number(ptxt, f"row {lineno}, column '{spec.policy}'")
            if pval not in (0.0, 1.0):
                raise PanelCauseError("NON_BINARY_POLICY",
                                      f"policy value {pval} at row {lineno} is not 0/1")
            policy.append(int(pval))

            for c in cov_names:
                txt = row[col[c]].strip()
                if txt == "":
                    cov_vals[c].append(np.nan)
                    continue
                if spec.covariates is None:
                    # auto mode: any non-numeric value disqualifies the column
                    try:
                        v = float(txt)
                    except ValueError:
                        cov_numeric[c] = False
                        cov_vals[c].append(np.nan)
                        continue
                    if not math.isfinite(v):
                        cov_numeric[c] = False
                        v = np.nan
                    cov_vals[c].append(v)
                else:
                    cov_vals[c].append(_parse_number(
                        txt, f"row {lineno}, column '{c}'"))
    finally:
        if own:
            fh.close()

    cov_names = [c for c in cov_names if cov_numeric[c]]

    # normalize the time axis: arithmetic grid from min..max at the gcd step
    distinct = sorted(set(labels_raw))
    if len(distinct) > 1:
        step = 0
        for a, b in zip(distinct, distinct[1:]):
            step = math.gcd(step, b - a)
    else:
        step = 1
    time_labels = list(range(distinct[0], distinct[-1] + step, step))
    t_idx = [(lab - distinct[0]) // step for lab in labels_raw]

    return PanelDataset(units, time_labels, u_idx, t_idx, outcome, policy,
                        {c: cov_vals[c] for c in cov_names})


def loop_subset(panel, units=None, time_window=None):
    """The ``PanelDataset.subset`` that the position-array version replaced:
    unit positions by ``tuple.index`` and a per-row dict lookup."""
    keep = np.ones(panel.n_rows, dtype=bool)
    if units is not None:
        uset = {panel.units.index(u) for u in units}
        keep &= np.isin(panel.unit_idx, sorted(uset))
    if time_window is not None:
        lo, hi = time_window
        keep &= (panel.time_idx >= lo) & (panel.time_idx <= hi)
    if not keep.any():
        raise PanelCauseError("NO_ROWS", "subset selects no observations")
    old_units = [panel.units[i] for i in sorted(set(panel.unit_idx[keep].tolist()))]
    unit_map = {panel.units.index(u): i for i, u in enumerate(old_units)}
    lo = int(panel.time_idx[keep].min()) if time_window is None else time_window[0]
    hi = int(panel.time_idx[keep].max()) if time_window is None else time_window[1]
    return PanelDataset(
        old_units, panel.time_labels[lo:hi + 1],
        np.array([unit_map[i] for i in panel.unit_idx[keep]]),
        panel.time_idx[keep] - lo,
        panel.outcome[keep], panel.policy[keep],
        {k: v[keep] for k, v in panel.covariates.items()})


def row_write_csv(panel, dest):
    """The row-by-row ``PanelDataset.write_csv`` that the column writer replaced."""
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", newline="") if own else dest
    try:
        w = csv.writer(fh)
        names = list(panel.covariates)
        w.writerow(["unit", "time", "outcome", "policy"] + names)
        for i in range(panel.n_rows):
            y = panel.outcome[i]
            row = [panel.units[panel.unit_idx[i]],
                   panel.time_labels[panel.time_idx[i]],
                   "" if math.isnan(y) else repr(float(y)),
                   int(panel.policy[i])]
            for name in names:
                v = panel.covariates[name][i]
                row.append("" if math.isnan(v) else repr(float(v)))
            w.writerow(row)
    finally:
        if own:
            fh.close()
