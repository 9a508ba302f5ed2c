import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcause import PanelCauseError
from panelcause.linreg import (INTERCEPT, build_design, ols_fit,
                               absorb_fixed_effects, normal_p, normal_ci)
from oracles import ols_beta, cluster_sandwich, twfe_dummy_fit
from helpers import build_panel


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
        fit = ols_fit(X, y, clusters=np.arange(len(y)))
        ref = ols_beta(X.data, y)
        got = np.array([fit.coefficients[n] for n in X.column_names])
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_cluster_vcov_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        X, y = random_design(rng, n=90)
        clusters = np.repeat(np.arange(9), 10)
        fit = ols_fit(X, y, clusters)
        _, V = cluster_sandwich(X.data, y, clusters)
        np.testing.assert_allclose(fit.vcov, V, atol=1e-12)
        assert fit.cluster_count == 9

    def test_row_clusters_equal_hc1(self):
        rng = np.random.default_rng(9)
        X, y = random_design(rng, n=40)
        fit = ols_fit(X, y, clusters=np.arange(40))
        _, V = cluster_sandwich(X.data, y, np.arange(40))
        np.testing.assert_allclose(fit.vcov, V, atol=1e-12)

    def test_extra_dof_rescales_vcov(self):
        rng = np.random.default_rng(10)
        X, y = random_design(rng, n=50)
        c = np.repeat(np.arange(10), 5)
        v0 = ols_fit(X, y, c, extra_dof=0).vcov
        v5 = ols_fit(X, y, c, extra_dof=5).vcov
        n, k = X.data.shape
        np.testing.assert_allclose(v5, v0 * (n - k) / (n - k - 5), rtol=1e-12)

    def test_single_cluster_rejected(self):
        rng = np.random.default_rng(11)
        X, y = random_design(rng, n=20)
        with pytest.raises(PanelCauseError) as ei:
            ols_fit(X, y, clusters=np.zeros(20, dtype=int))
        assert ei.value.code == "FEWER_CLUSTERS_THAN_TWO"

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(12)
        X, y = random_design(rng)
        fit = ols_fit(X, y, clusters=np.arange(len(y)))
        np.testing.assert_allclose(X.data.T @ fit.residuals,
                                   np.zeros(X.data.shape[1]), atol=1e-8)

    def test_accessors(self):
        rng = np.random.default_rng(13)
        X, y = random_design(rng)
        fit = ols_fit(X, y, clusters=np.arange(len(y)))
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
        fit = ols_fit(X, cols[:, 1], clusters=p.unit_idx, extra_dof=dof)
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
    fit = ols_fit(X, y, clusters)
    ref_beta, ref_V = cluster_sandwich(X.data, y, clusters)
    got = np.array([fit.coefficients[nm] for nm in X.column_names])
    np.testing.assert_allclose(got, ref_beta, atol=1e-8)
    np.testing.assert_allclose(fit.vcov, ref_V, atol=1e-8)
