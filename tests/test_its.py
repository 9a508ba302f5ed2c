import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panelcause as pc
from helpers import build_panel
from oracles import cluster_sandwich, cits_betas, segmented_design


def seg_path(T, g, b0=1.0, b1=0.3, jump=2.0, dslope=0.5):
    t = np.arange(T, dtype=float)
    pol = (t >= g).astype(float)
    return b0 + b1 * t + jump * pol + dslope * pol * (t - g)


def err_code(fn, *args, **kw):
    with pytest.raises(pc.PanelCauseError) as ei:
        fn(*args, **kw)
    return ei.value


class TestIts:
    def test_exact_recovery_single_unit(self):
        p = build_panel(["a"], 12, {"a": 6}, {"a": seg_path(12, 6).tolist()})
        est = pc.fit_its(p)
        assert est.level_change == pytest.approx(2.0, abs=1e-10)
        assert est.slope_change == pytest.approx(0.5, abs=1e-10)
        assert est.baseline_intercept == pytest.approx(1.0, abs=1e-10)
        assert est.baseline_slope == pytest.approx(0.3, abs=1e-10)
        assert est.adoption_time == 6

    def test_jump_lands_on_first_in_effect_period(self):
        # pure level shift: counter starts at 0 on the adoption period itself
        y = (np.arange(10.0) + 5.0 * (np.arange(10) >= 4)).tolist()
        p = build_panel(["a"], 10, {"a": 4}, {"a": y})
        est = pc.fit_its(p)
        assert est.level_change == pytest.approx(5.0, abs=1e-10)
        assert est.slope_change == pytest.approx(0.0, abs=1e-10)

    def test_matches_segmented_oracle_with_noise(self):
        rng = np.random.default_rng(41)
        T, g = 16, 7
        y = seg_path(T, g) + rng.normal(0, 0.4, T)
        p = build_panel(["a"], T, {"a": g}, {"a": y.tolist()})
        est = pc.fit_its(p)
        X = segmented_design(np.arange(T), g)
        beta, V = cluster_sandwich(X, y, np.arange(T))
        assert est.baseline_intercept == pytest.approx(beta[0], abs=1e-8)
        assert est.baseline_slope == pytest.approx(beta[1], abs=1e-8)
        assert est.level_change == pytest.approx(beta[2], abs=1e-8)
        assert est.slope_change == pytest.approx(beta[3], abs=1e-8)
        assert est.level_change_se == pytest.approx(np.sqrt(V[2, 2]), rel=1e-8)
        assert est.slope_change_se == pytest.approx(np.sqrt(V[3, 3]), rel=1e-8)

    def test_multi_unit_matches_dummy_oracle(self):
        rng = np.random.default_rng(42)
        T, g, units = 10, 5, ["a", "b", "c"]
        paths = {u: (seg_path(T, g) + rng.normal() +
                     rng.normal(0, 0.3, T)).tolist() for u in units}
        p = build_panel(units, T, {u: g for u in units}, paths)
        est = pc.fit_its(p)
        t = p.time_idx.astype(float)
        dummies = [(p.unit_idx == i).astype(float) for i in (1, 2)]
        X = segmented_design(t, g, dummies)
        beta, V = cluster_sandwich(X, p.outcome, p.unit_idx)
        assert est.level_change == pytest.approx(beta[2], abs=1e-8)
        assert est.slope_change == pytest.approx(beta[3], abs=1e-8)
        assert est.level_change_se == pytest.approx(np.sqrt(V[2, 2]), rel=1e-8)
        # the intercept is the first unit's effect, the dummies' reference
        assert est.baseline_intercept == pytest.approx(beta[0], abs=1e-8)

    def test_covariate_adjustment_exact(self):
        rng = np.random.default_rng(43)
        T, g = 12, 6
        z = rng.normal(size=T)
        y = seg_path(T, g) + 1.7 * z
        p = build_panel(["a"], T, {"a": g}, {"a": y.tolist()},
                        covariates={"z": {"a": z.tolist()}})
        est = pc.fit_its(p, covariates=("z",))
        assert est.level_change == pytest.approx(2.0, abs=1e-8)
        assert est.fit.coef("z") == pytest.approx(1.7, abs=1e-8)

    def test_missing_rows_excluded(self):
        y = seg_path(12, 6)
        y[2] = np.nan
        p = build_panel(["a"], 12, {"a": 6}, {"a": y.tolist()})
        est = pc.fit_its(p)
        assert est.level_change == pytest.approx(2.0, abs=1e-10)
        assert est.fit.n == 11

    def test_one_row_per_unit_leaves_nothing_to_fit(self):
        # each unit keeps a single outcome: its effect absorbs every regressor
        y = {u: [float("nan")] * 8 for u in "abc"}
        y["a"][1], y["b"][5], y["c"][6] = 1.0, 2.0, 0.5
        p = build_panel(list("abc"), 8, {u: 4 for u in "abc"}, y)
        assert err_code(pc.fit_its, p).code == "RANK_ZERO"

    def test_no_adopter(self):
        p = build_panel(["a"], 8, {}, {"a": list(range(8))})
        assert err_code(pc.fit_its, p).code == "NO_VARIATION"

    def test_staggered_rejected(self):
        p = build_panel(["a", "b"], 8, {"a": 3, "b": 5},
                        {u: list(range(8)) for u in "ab"})
        assert err_code(pc.fit_its, p).code == "STAGGERED_INPUT"

    @pytest.mark.parametrize("g", [1, 7])
    def test_too_few_periods(self, g):
        p = build_panel(["a"], 8, {"a": g}, {"a": list(range(8))})
        e = err_code(pc.fit_its, p)
        assert e.code == "TOO_FEW_PERIODS"
        assert f"{g} pre" in str(e)


class TestMultiBaseline:
    def make(self, jumps={4: 2.0, 6: 3.0}, sizes={4: 2, 6: 1}, T=10):
        units, adopt, paths = [], {}, {}
        for g, n in sizes.items():
            for i in range(n):
                u = f"g{g}u{i}"
                units.append(u)
                adopt[u] = g
                paths[u] = seg_path(T, g, b0=float(i), jump=jumps[g],
                                    dslope=0.0).tolist()
        return build_panel(units, T, adopt, paths)

    def test_pooling(self):
        est = pc.fit_its_multiple_baseline(self.make())
        assert est.weights == {4: pytest.approx(2 / 3), 6: pytest.approx(1 / 3)}
        assert est.pooled_level_change == pytest.approx(
            (2 / 3) * 2.0 + (1 / 3) * 3.0, abs=1e-10)
        assert est.pooled_slope_change == pytest.approx(0.0, abs=1e-10)
        assert set(est.per_cohort) == {4, 6}
        assert est.per_cohort[4].level_change == pytest.approx(2.0, abs=1e-10)

    def test_pooled_se_is_weighted_rss(self):
        rng = np.random.default_rng(44)
        units = [f"u{i}" for i in range(6)]
        adopt = {u: 4 if i < 3 else 7 for i, u in enumerate(units)}
        paths = {u: (seg_path(12, adopt[u]) + rng.normal() +
                     rng.normal(0, 0.5, 12)).tolist() for u in units}
        est = pc.fit_its_multiple_baseline(build_panel(units, 12, adopt, paths))
        want = np.sqrt(sum((est.weights[g] * est.per_cohort[g].level_change_se) ** 2
                           for g in est.per_cohort))
        assert est.pooled_level_change_se == pytest.approx(want, rel=1e-12)

    def test_single_cohort_rejected(self):
        p = build_panel(["a", "b"], 8, {"a": 4, "b": 4},
                        {u: seg_path(8, 4).tolist() for u in "ab"})
        assert err_code(pc.fit_its_multiple_baseline, p).code == "NOT_STAGGERED"

    def test_cohort_error_names_offending_cohort(self):
        p = self.make(jumps={1: 2.0, 5: 3.0}, sizes={1: 1, 5: 1}, T=10)
        e = err_code(pc.fit_its_multiple_baseline, p)
        assert e.code == "TOO_FEW_PERIODS"
        assert "cohort g=1" in str(e)


class TestCits:
    def make(self, b4=0.7, noise=None, seed=0):
        T, g = 12, 6
        t = np.arange(T, dtype=float)
        pol = (t >= g).astype(float)
        tsp = pol * (t - g)
        ctrl = 1.0 + 0.2 * t + 0.5 * pol + 0.1 * tsp
        trt = ctrl + b4 + 0.3 * t + 1.5 * pol + 0.2 * tsp
        if noise:
            rng = np.random.default_rng(seed)
            ctrl = ctrl + rng.normal(0, noise, T)
            trt = trt + rng.normal(0, noise, T)
        # control listed first so the plain intercept is the control baseline
        return build_panel(["ctl", "trt"], T, {"trt": g},
                           {"trt": trt.tolist(), "ctl": ctrl.tolist()}), g

    def test_exact_recovery(self):
        p, g = self.make()
        est = pc.fit_cits(p)
        assert est.diff_level_change == pytest.approx(1.5, abs=1e-9)
        assert est.diff_slope_change == pytest.approx(0.2, abs=1e-9)
        b = est.coefficients
        assert b["beta4"] is None  # absorbed by unit effects
        for key, want in [("beta0", 1.0), ("beta1", 0.2), ("beta2", 0.5),
                          ("beta3", 0.1), ("beta5", 0.3), ("beta6", 1.5),
                          ("beta7", 0.2)]:
            assert b[key] == pytest.approx(want, abs=1e-9), key

    def test_matches_interacted_oracle(self):
        p, g = self.make(noise=0.3, seed=45)
        est = pc.fit_cits(p)
        trt = (p.unit_idx == p.units.index("trt")).astype(float)
        ref = cits_betas(p.time_idx, g, trt, p.outcome)
        b = est.coefficients
        got = [b["beta0"], b["beta1"], b["beta2"], b["beta3"],
               b["beta5"], b["beta6"], b["beta7"]]
        want = [ref[0], ref[1], ref[2], ref[3], ref[5], ref[6], ref[7]]
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_matches_dummy_sandwich_unbalanced_with_covariate(self):
        # seven units (three treated), a covariate, and rows lost to missing
        # outcomes and a missing covariate cell: every beta and SE against
        # the unit-dummy regression clustered on unit
        rng = np.random.default_rng(46)
        T, g = 12, 5
        units = ["c0", "t0", "c1", "t1", "c2", "t2", "c3"]
        adopt = {u: g for u in units if u.startswith("t")}
        z = {u: rng.normal(size=T).tolist() for u in units}
        y = {}
        for u in units:
            path = seg_path(T, g, b0=rng.normal(), jump=0.5, dslope=0.1)
            if u in adopt:
                path = path + 0.3 * np.arange(T) + 1.5 * (np.arange(T) >= g)
            y[u] = (path + 0.9 * np.array(z[u]) + rng.normal(0, 0.4, T)).tolist()
        for u, t in [("c0", 3), ("t1", 0), ("t1", 9), ("c2", 11), ("c3", 6)]:
            y[u][t] = float("nan")
        z["t2"][2] = float("nan")
        p = build_panel(units, T, adopt, y, covariates={"z": z})
        est = pc.fit_cits(p, covariates=("z",))

        keep = np.isfinite(p.outcome) & np.isfinite(p.covariates["z"])
        t = p.time_idx[keep].astype(float)
        ui = p.unit_idx[keep]
        trt = np.isin(ui, [units.index(u) for u in adopt]).astype(float)
        pol = (t >= g).astype(float)
        tsp = pol * (t - g)
        X = np.column_stack([np.ones_like(t), t, pol, tsp, trt * t, trt * pol,
                             trt * tsp, p.covariates["z"][keep]]
                            + [(ui == i).astype(float) for i in range(1, len(units))])
        beta, V = cluster_sandwich(X, p.outcome[keep], ui)
        b = est.coefficients
        got = [b["beta0"], b["beta1"], b["beta2"], b["beta3"], b["beta5"],
               b["beta6"], b["beta7"], est.fit.coef("z")]
        np.testing.assert_allclose(got, beta[:8], rtol=0, atol=1e-8)
        assert b["beta4"] is None
        se = np.sqrt(np.diag(V))
        assert est.diff_level_change_se == pytest.approx(se[5], rel=1e-8)
        assert est.diff_slope_change_se == pytest.approx(se[6], rel=1e-8)
        for j, name in enumerate(["time", "policy", "time_since_policy",
                                  "trt_x_time", "trt_x_policy",
                                  "trt_x_time_since_policy", "z"], start=1):
            assert est.fit.se(name) == pytest.approx(se[j], rel=1e-8), name
        assert est.fit.n == int(keep.sum()) == 12 * 7 - 6
        assert est.fit.cluster_count == 7

    def test_control_jump_subtracted(self):
        # both groups jump by 0.5 at the interruption; only the treated
        # excess of 1.5 should be attributed to the policy
        p, _ = self.make(b4=0.0)
        est = pc.fit_cits(p)
        assert est.coefficients["beta2"] == pytest.approx(0.5, abs=1e-9)
        assert est.diff_level_change == pytest.approx(1.5, abs=1e-9)

    def test_requires_control(self):
        p = build_panel(["a", "b"], 10, {"a": 5, "b": 5},
                        {u: seg_path(10, 5).tolist() for u in "ab"})
        assert err_code(pc.fit_cits, p).code == "NO_CONTROL"

    def test_staggered_rejected(self):
        p = build_panel(["a", "b", "c"], 10, {"a": 4, "b": 6},
                        {u: seg_path(10, 4).tolist() for u in "abc"})
        assert err_code(pc.fit_cits, p).code == "STAGGERED_INPUT"


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.floats(-2, 2), st.integers(3, 8))
def test_its_recovers_arbitrary_affine_effects(jump, dslope, g):
    T = 12
    y = seg_path(T, g, b0=0.5, b1=-0.2, jump=jump, dslope=dslope)
    p = build_panel(["a"], T, {"a": g}, {"a": y.tolist()})
    est = pc.fit_its(p)
    assert est.level_change == pytest.approx(jump, abs=1e-7)
    assert est.slope_change == pytest.approx(dslope, abs=1e-7)
