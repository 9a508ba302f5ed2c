import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcause import PanelCauseError
from panelcause.linreg import (INTERCEPT, MEMO_ENTRIES, PIVOT_TOL, build_design,
                               ols_fit, absorb_fixed_effects, chi2_sf, index_sums,
                               memoized, normal_p, normal_ci, shared_memo,
                               unit_period_components, within_fit)
from oracles import (bipartite_components, chi2_upper_tail, cluster_sandwich,
                     fwl_cluster_se, gram_schmidt_design, normal_quantile,
                     normal_two_sided_p, ols_beta, twfe_dummy_fit)
from helpers import build_panel


def cluster_index(labels):
    """ols_fit's cluster index of the labels: 0..G-1 in label order."""
    return np.unique(labels, return_inverse=True)[1]


def random_design(rng, n=60, k=3):
    cols = [(f"x{j}", rng.normal(size=n)) for j in range(k)]
    X = build_design(cols)
    beta_true = rng.normal(size=k + 1)
    y = X.data @ beta_true + rng.normal(0, 0.3, n)
    return X, y


class TestOls:
    def test_coefficients_match_normal_equations(self):
        rng = np.random.default_rng(7)
        X, y = random_design(rng)
        fit = ols_fit(X, y, cluster_index(np.arange(len(y))))
        ref = ols_beta(X.data, y)
        got = np.array([fit.coefficients[n] for n in X.column_names])
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_cluster_vcov_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        X, y = random_design(rng, n=90)
        clusters = np.repeat(np.arange(9), 10)
        fit = ols_fit(X, y, cluster_index(clusters))
        _, V = cluster_sandwich(X.data, y, clusters)
        np.testing.assert_allclose(fit.vcov, V, atol=1e-12)
        assert fit.cluster_count == 9

    def test_row_clusters_equal_hc1(self):
        rng = np.random.default_rng(9)
        X, y = random_design(rng, n=40)
        fit = ols_fit(X, y, cluster_index(np.arange(40)))
        _, V = cluster_sandwich(X.data, y, np.arange(40))
        np.testing.assert_allclose(fit.vcov, V, atol=1e-12)

    def test_extra_dof_rescales_vcov(self):
        rng = np.random.default_rng(10)
        X, y = random_design(rng, n=50)
        c = np.repeat(np.arange(10), 5)
        v0 = ols_fit(X, y, cluster_index(c), extra_dof=0).vcov
        v5 = ols_fit(X, y, cluster_index(c), extra_dof=5).vcov
        n, k = X.data.shape
        np.testing.assert_allclose(v5, v0 * (n - k) / (n - k - 5), rtol=1e-12)

    def test_single_cluster_rejected(self):
        rng = np.random.default_rng(11)
        X, y = random_design(rng, n=20)
        with pytest.raises(PanelCauseError) as ei:
            ols_fit(X, y, cluster_index(np.zeros(20, dtype=int)))
        assert ei.value.code == "FEWER_CLUSTERS_THAN_TWO"

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(12)
        X, y = random_design(rng)
        fit = ols_fit(X, y, cluster_index(np.arange(len(y))))
        np.testing.assert_allclose(X.data.T @ fit.residuals,
                                   np.zeros(X.data.shape[1]), atol=1e-8)

    def test_accessors(self):
        rng = np.random.default_rng(13)
        X, y = random_design(rng)
        fit = ols_fit(X, y, cluster_index(np.arange(len(y))))
        assert fit.coef("x0") == fit.coefficients["x0"]
        assert fit.se("x1") >= 0.0
        sub = fit.subvcov(["x0", "x2"])
        assert sub.shape == (2, 2)
        assert sub[0, 1] == pytest.approx(sub[1, 0])


class TestBuildDesign:
    def test_duplicate_column_dropped_keeping_earlier(self):
        x = np.arange(10.0)
        d = build_design([("a", x), ("b", 2 * x)], add_intercept=False)
        assert d.column_names == ["a"]
        assert d.dropped_columns == [("b", "collinear with earlier columns")]
        d2 = build_design([("b", 2 * x), ("a", x)], add_intercept=False)
        assert d2.column_names == ["b"]

    def test_zero_column_dropped(self):
        d = build_design([("z", np.zeros(5)), ("x", np.arange(5.0))],
                         add_intercept=False)
        assert d.column_names == ["x"]
        assert d.dropped_columns[0] == ("z", "zero column")

    def test_intercept_first(self):
        d = build_design([("x", np.arange(4.0))])
        assert d.column_names[0] == INTERCEPT

    def test_rank_zero(self):
        with pytest.raises(PanelCauseError) as ei:
            build_design([("z", np.zeros(5))], add_intercept=False)
        assert ei.value.code == "RANK_ZERO"

    def test_shape_mismatch(self):
        with pytest.raises(PanelCauseError) as ei:
            build_design([("a", np.ones(4)), ("b", np.ones(5))],
                         add_intercept=False)
        assert ei.value.code == "CONFIG_ERROR"

    def test_near_collinear_drops_by_relative_tol(self):
        x = np.arange(20.0)
        d = build_design([("a", x), ("b", x + 1e-14 * np.arange(20.0) ** 2)],
                         add_intercept=False)
        assert d.column_names == ["a"]


# residual ratios within a factor of 10 of PIVOT_TOL, outside a factor-2 band
NEAR_PIVOT = st.one_of(st.floats(-1.0, -np.log10(2.0)), st.floats(np.log10(2.0), 1.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9),
       st.lists(st.tuples(st.sampled_from(["new", "near", "zero", "dup", "combo"]),
                          NEAR_PIVOT), min_size=1, max_size=12))
def test_build_design_matches_gram_schmidt_oracle(seed, n, kinds):
    # fresh directions come from an orthonormal basis, so a "near" column's
    # residual on the kept span is exactly its designed share of its norm;
    # n below the column count gives wide designs. A kept "near" column ends
    # the list: it leaves the kept span with condition ~1/ratio, past which
    # the oracle's own rounding (eps/ratio ~ 1e-6) decides later columns
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    span, fresh, cols = [], 0, []
    for j, (kind, log_ratio) in enumerate(kinds):
        c = rng.uniform(-10.0, 10.0, size=len(span))
        base = Q[:, span] @ c
        if kind == "zero":
            x = np.zeros(n)
        elif kind == "dup" and cols:
            x = cols[int(rng.integers(len(cols)))][1] * float(rng.choice([1.0, -3.5]))
        elif kind == "combo" or fresh == n:
            x = base if span else Q @ rng.normal(size=n)
        elif kind == "near" and span and np.linalg.norm(base) > 0:
            ratio = PIVOT_TOL * 10.0 ** log_ratio
            s = ratio * np.linalg.norm(base) / np.sqrt(1.0 - ratio ** 2)
            x = base + s * Q[:, fresh]
            fresh += 1
            if ratio > PIVOT_TOL:
                cols.append((f"c{j}", x * 10.0 ** rng.uniform(-3, 3)))
                break
        else:
            x = base + rng.uniform(0.5, 2.0) * Q[:, fresh]
            span.append(fresh)
            fresh += 1
        cols.append((f"c{j}", x * 10.0 ** rng.uniform(-3, 3)))
    want_kept, want_dropped = gram_schmidt_design(cols, add_intercept=False)
    if not want_kept:
        with pytest.raises(PanelCauseError) as ei:
            build_design(cols, add_intercept=False)
        assert ei.value.code == "RANK_ZERO"
        return
    d = build_design(cols, add_intercept=False)
    assert d.column_names == want_kept
    assert d.dropped_columns == want_dropped
    kept = dict(cols)
    np.testing.assert_array_equal(d.data, np.column_stack([kept[k] for k in want_kept]))


class TestAbsorb:
    def build(self, rng, U=6, T=5):
        adopt = {"u0": 2, "u1": 3}
        units = [f"u{i}" for i in range(U)]
        y = {u: (rng.normal() + 0.4 * np.arange(T)
                 + rng.normal(0, 0.5, T)).tolist() for u in units}
        return build_panel(units, T, adopt, y)

    def test_two_way_matches_dummy_regression(self):
        rng = np.random.default_rng(21)
        p = self.build(rng)
        cols, dof = absorb_fixed_effects(
            p.unit_idx, p.time_idx,
            np.column_stack([p.policy.astype(float), p.outcome]))
        X = build_design([("policy", cols[:, 0])], add_intercept=False)
        fit = ols_fit(X, cols[:, 1], cluster_index(p.unit_idx), extra_dof=dof)
        ref_beta, ref_se = twfe_dummy_fit(p)
        assert fit.coef("policy") == pytest.approx(ref_beta, abs=1e-8)
        assert fit.se("policy") == pytest.approx(ref_se, rel=1e-8)
        assert dof == p.unit_count + p.time_count - 1

    def test_single_dimension_is_exact_demeaning(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=12)
        idx = np.repeat(np.arange(3), 4)
        # the time index has one level, so only unit effects are absorbed
        with pytest.warns(Warning, match="SINGLE_LEVEL"):
            out, dof = absorb_fixed_effects(idx, np.zeros(12, dtype=int), x)
        means = np.array([x[idx == g].mean() for g in range(3)])
        np.testing.assert_allclose(out, x - means[idx], atol=1e-12)
        assert dof == 3

    def test_unit_only_absorption_is_unit_demeaning(self):
        # time_idx None: unit means alone, absorbed_dof the units with rows,
        # and no SINGLE_LEVEL warning (one unit is just the intercept)
        rng = np.random.default_rng(24)
        idx = np.array([2, 0, 2, 1, 0, 2, 4, 4, 1])
        x = rng.normal(size=(9, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, dof = absorb_fixed_effects(idx, None, x)
            one, dof_one = absorb_fixed_effects(np.zeros(5, dtype=int), None,
                                                np.arange(5.0))
        means = np.array([x[idx == u].mean(axis=0) for u in idx])
        np.testing.assert_allclose(out, x - means, rtol=0, atol=1e-12)
        assert dof == 4
        np.testing.assert_allclose(one, np.arange(5.0) - 2.0, rtol=0, atol=1e-12)
        assert dof_one == 1

    def test_single_level_dimension_warns_and_noops(self):
        x = np.arange(6.0)
        with pytest.warns(Warning, match="SINGLE_LEVEL"):
            out, dof = absorb_fixed_effects(
                np.zeros(6, dtype=int), np.zeros(6, dtype=int), x)
        np.testing.assert_array_equal(out, x)
        assert dof == 0

    def test_demeaned_columns_sum_to_zero_within_groups(self):
        rng = np.random.default_rng(23)
        p = self.build(rng, U=5, T=6)
        col, _ = absorb_fixed_effects(p.unit_idx, p.time_idx, p.outcome)
        for u in range(5):
            assert abs(col[p.unit_idx == u].sum()) < 1e-8
        for t in range(6):
            assert abs(col[p.time_idx == t].sum()) < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40), st.integers(1, 9),
       st.sampled_from([(), (1,), (3,), (2, 2)]))
def test_index_sums_equal_add_at_bit_for_bit(seed, n, size, tail):
    # the same additions in the same order: equal to the bit, not just close
    rng = np.random.default_rng(seed)
    index = rng.integers(0, size, n)
    values = rng.normal(size=(n,) + tail) * 10.0 ** rng.integers(-8, 9, size=(n,) + tail)
    want = np.zeros((size,) + tail)
    np.add.at(want, index, values)
    got = index_sums(index, size, values)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=3), st.floats(min_value=0.2, max_value=1.0))
def test_absorb_matches_dense_dummy_residuals(seed, U, T, k, density):
    # random unbalanced designs, possibly disconnected or with a single level
    rng = np.random.default_rng(seed)
    cells = np.flatnonzero(rng.random(U * T) < density)
    if not len(cells):
        cells = np.array([int(rng.integers(U * T))])
    ui, ti = np.divmod(cells, T)
    x = rng.normal(size=(len(cells), k)) * rng.uniform(0.1, 100.0, size=k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, dof = absorb_fixed_effects(ui, ti, x)
    levels_u, levels_t = len(np.unique(ui)), len(np.unique(ti))
    if levels_u == 1 and levels_t == 1:
        np.testing.assert_array_equal(out, x)
        assert dof == 0
        return
    dummies = np.column_stack([ui == u for u in np.unique(ui)]
                              + [ti == t for t in np.unique(ti)]).astype(float)
    beta, *_ = np.linalg.lstsq(dummies, x, rcond=None)
    np.testing.assert_allclose(out, x - dummies @ beta, rtol=0, atol=1e-10)
    assert dof == levels_u + levels_t - 1


class TestNormalReference:
    def test_p_edge_cases(self):
        assert normal_p(1.0, 0.0) == 0.0
        assert normal_p(0.0, 0.0) == 1.0
        assert normal_p(0.0, 1.0) == pytest.approx(1.0)
        assert normal_p(1.96, 1.0) == pytest.approx(0.05, abs=1e-3)

    def test_ci(self):
        lo, hi = normal_ci(1.0, 0.5, 0.95)
        assert lo == pytest.approx(1.0 - 1.959964 * 0.5, abs=1e-5)
        assert hi == pytest.approx(1.0 + 1.959964 * 0.5, abs=1e-5)
        l2, h2 = normal_ci(1.0, 0.5, 0.8)
        assert h2 - l2 < hi - lo
        for level in (0.0, 1.0, 95.0, float("nan")):
            with pytest.raises(PanelCauseError):
                normal_ci(1.0, 0.5, level)

    def test_chi2_edge_cases(self):
        assert chi2_sf(0.0, 1) == 1.0 and chi2_sf(5e-324, 7) == 1.0
        assert chi2_sf(float("inf"), 3) == 0.0
        assert chi2_sf(2.0, 2) == pytest.approx(np.exp(-1.0), rel=1e-15)
        # far past SciPy's underflow: every term underflows, none overflows
        assert chi2_sf(1e6, 40) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=700.0),
       st.integers(min_value=1, max_value=40))
def test_chi2_sf_matches_scipy(x, df):
    want = chi2_upper_tail(x, df)
    if want > 1e-300:
        assert chi2_sf(x, df) == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-40.0, max_value=40.0),
       st.floats(min_value=1e-3, max_value=1e3))
def test_normal_p_matches_scipy(z, se):
    want = normal_two_sided_p(z * se / se)
    if want > 1e-300:
        assert normal_p(z * se, se) == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
       st.floats(min_value=-1e3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_normal_ci_matches_scipy(level, est, se):
    z = normal_quantile(0.5 + level / 2.0)
    assert normal_ci(0.0, 1.0, level)[1] == pytest.approx(z, rel=1e-12)
    lo, hi = normal_ci(est, se, level)
    tol = 1e-12 * (abs(est) + z * se)
    assert lo == pytest.approx(est - z * se, rel=0.0, abs=tol)
    assert hi == pytest.approx(est + z * se, rel=0.0, abs=tol)


def _same_partition(a, b):
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40))
def test_components_match_scipy_random(U, T, edges):
    # random bipartite graphs: often disconnected, often with isolated nodes
    edges = [(u % U, t % T) for u, t in edges]
    ui = np.array([u for u, _ in edges], dtype=np.intp)
    ti = np.array([t for _, t in edges], dtype=np.intp)
    lu, lt = unit_period_components(ui, ti, U, T)
    labels = np.concatenate([lu, lt])
    assert _same_partition(labels, bipartite_components(ui, ti, U, T))
    # each label is the smallest node index of its component
    assert all(labels[labels[i]] == labels[i] <= i for i in range(U + T))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=3),
       st.randoms(use_true_random=False))
def test_components_match_scipy_chains(n, spare, rnd):
    # one long unit–period path u0 t0 u1 t1 ..., node numbers shuffled so that
    # small labels must travel the length of the chain; plus isolated nodes
    U, T = n + spare, n + spare
    units, periods = list(range(U)), list(range(T))
    rnd.shuffle(units)
    rnd.shuffle(periods)
    edges = [(units[k], periods[k]) for k in range(n)]
    edges += [(units[k + 1], periods[k]) for k in range(n - 1)]
    rnd.shuffle(edges)
    ui = np.array([u for u, _ in edges], dtype=np.intp)
    ti = np.array([t for _, t in edges], dtype=np.intp)
    lu, lt = unit_period_components(ui, ti, U, T)
    want = bipartite_components(ui, ti, U, T)
    assert _same_partition(np.concatenate([lu, lt]), want)
    assert len(set(lu[units[:n]]) | set(lt[periods[:n]])) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=5))
def test_ols_matches_oracle_property(seed, k):
    rng = np.random.default_rng(seed)
    n = 12 * k
    X, y = random_design(rng, n=n, k=k)
    clusters = rng.integers(0, 4, size=n)
    if len(np.unique(clusters)) < 2:
        clusters = np.arange(n) % 2
    fit = ols_fit(X, y, cluster_index(clusters))
    ref_beta, ref_V = cluster_sandwich(X.data, y, clusters)
    got = np.array([fit.coefficients[nm] for nm in X.column_names])
    np.testing.assert_allclose(got, ref_beta, atol=1e-8)
    np.testing.assert_allclose(fit.vcov, ref_V, atol=1e-8)


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-8, 1e-9])
def test_near_collinear_kept_column_se_matches_fwl(eps):
    # z = x + eps·noise has a residual ratio of about eps on [1, x], above
    # PIVOT_TOL, so the design keeps it and its SEs must be its own: the
    # Frisch–Waugh oracle never factors z together with x
    rng = np.random.default_rng(7)
    n = 200
    x, noise = rng.normal(size=n), rng.normal(size=n)
    clusters = np.arange(n) % 20
    y = 1.0 + 2.0 * x + rng.normal(size=n) * (1.0 + np.abs(x))
    z = x + eps * noise
    X = build_design([("x", x), ("z", z)])
    assert X.column_names == [INTERCEPT, "x", "z"]
    fit = ols_fit(X, y, cluster_index(clusters))
    se, model_se = fwl_cluster_se(np.column_stack([np.ones(n), x]), z, y, clusters)
    assert fit.se("z") == pytest.approx(se, rel=1e-6)
    assert fit.model_se("z") == pytest.approx(model_se, rel=1e-6)
    np.testing.assert_array_equal(fit.vcov, fit.vcov.T)
    eig = np.linalg.eigvalsh(fit.vcov)
    assert eig.min() >= -1e-12 * eig.max()


class TestSharedMemo:
    def test_single_level_warns_once_per_fit_and_hits_match_misses(self):
        # time has one level (every row in period 0), so each fit warns once,
        # whether its operator and design come from the memo or not
        rng = np.random.default_rng(31)
        ui = np.repeat(np.arange(4), 3)
        ti = np.zeros(12, dtype=int)
        y, x = rng.normal(size=12), rng.normal(size=12)

        def fits():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = [within_fit(ui, ti, y + i, [("x", x)]) for i in range(3)]
            assert [str(w.message) for w in caught] == \
                ["SINGLE_LEVEL: dimension 'time' has a single level; "
                 "absorption is a no-op"] * 3
            return out

        alone = fits()
        with shared_memo() as memo:
            shared = fits()
            assert len(memo.items) == 2      # one operator, one design
        for a, b in zip(alone, shared):
            assert a.vcov.tobytes() == b.vcov.tobytes()
            assert a.coefficients == b.coefficients
            assert a.residuals.tobytes() == b.residuals.tobytes()

    def test_memo_keeps_the_most_recently_used(self):
        built = []
        with shared_memo() as memo:
            for k in [0, 1] + list(range(2, MEMO_ENTRIES + 2)) + [0, 1]:
                memoized(lambda: k, lambda: built.append(k) or k)
                memoized(lambda: 0, lambda: built.append(0) or 0)
            assert len(memo.items) == MEMO_ENTRIES
            assert list(memo.items)[-1] == 0
        # 0 stays in use throughout and is built once; 1 is evicted and rebuilt
        assert built.count(0) == 1 and built.count(1) == 2
        assert memo.items == {}
        assert memoized(lambda: 0, lambda: "fresh") == "fresh"
