import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import panelcause as pc
from panelcause.did import (NEVER_TREATED, NOT_YET_TREATED, _impute_att,
                            _multiplier_covariance, _summed_folds)
from panelcause.simharness import DgpConfig, simulate_panel
from helpers import build_panel, linear_paths, with_blank_unit
from oracles import cluster_sandwich, group_time_cells, ols_beta, twfe_dummy_fit


def err(fn, *args, **kw):
    with pytest.raises(pc.PanelCauseError) as ei:
        fn(*args, **kw)
    return ei.value


def keep_rows(p, keep, covariates=None):
    """The panel restricted to the rows where ``keep`` holds."""
    return pc.PanelDataset(p.units, p.time_labels, p.unit_idx[keep],
                           p.time_idx[keep], p.outcome[keep], p.policy[keep],
                           {k: v[keep] for k, v in (covariates or {}).items()} or None)


def staggered_noisy(rng, U=8, T=9, never=3, effect=lambda g, t: 2.0):
    units = [f"u{i}" for i in range(U)]
    gs = rng.choice(range(2, T - 1), size=U - never)
    adopt = {units[i]: int(gs[i]) for i in range(U - never)}
    y = linear_paths(units, T, adopt, rng, effect=effect, noise_sd=0.5)
    return build_panel(units, T, adopt, y)


class TestTwfe:
    def test_two_by_two_closed_form(self):
        p = build_panel(["a", "b"], 2, {"a": 1},
                        {"a": [1.0, 4.0], "b": [2.0, 3.0]})
        est = pc.fit_did_twfe(p)
        assert est.att == pytest.approx((4 - 1) - (3 - 2), abs=1e-10)

    def test_noiseless_common_adoption(self):
        rng = np.random.default_rng(50)
        units = [f"u{i}" for i in range(6)]
        adopt = {u: 4 for u in units[:3]}
        y = linear_paths(units, 8, adopt, rng, effect=lambda g, t: 3.0)
        est = pc.fit_did_twfe(build_panel(units, 8, adopt, y))
        assert est.att == pytest.approx(3.0, abs=1e-9)

    def test_matches_dummy_design_oracle(self):
        p = staggered_noisy(np.random.default_rng(51))
        est = pc.fit_did_twfe(p)
        ref_att, ref_se = twfe_dummy_fit(p)
        assert est.att == pytest.approx(ref_att, abs=1e-8)
        assert est.se == pytest.approx(ref_se, rel=1e-6)

    def test_covariate_adjustment(self):
        rng = np.random.default_rng(52)
        units = [f"u{i}" for i in range(6)]
        adopt = {u: 4 for u in units[:3]}
        z = {u: rng.normal(size=8).tolist() for u in units}
        y = linear_paths(units, 8, adopt, rng, effect=lambda g, t: 3.0)
        y = {u: [y[u][t] + 1.7 * z[u][t] for t in range(8)] for u in units}
        p = build_panel(units, 8, adopt, y, covariates={"z": z})
        est = pc.fit_did_twfe(p, covariates=("z",))
        assert est.att == pytest.approx(3.0, abs=1e-8)
        assert est.fit.coef("z") == pytest.approx(1.7, abs=1e-8)
        ref_att, ref_se = twfe_dummy_fit(p, extra_cols=[("z", p.covariates["z"])])
        assert est.att == pytest.approx(ref_att, abs=1e-8)
        assert est.se == pytest.approx(ref_se, rel=1e-6)

    def test_missing_rows_dropped(self):
        rng = np.random.default_rng(53)
        units = [f"u{i}" for i in range(6)]
        adopt = {u: 4 for u in units[:3]}
        y = linear_paths(units, 8, adopt, rng, effect=lambda g, t: 3.0)
        y["u5"][2] = float("nan")
        est = pc.fit_did_twfe(build_panel(units, 8, adopt, y))
        assert est.att == pytest.approx(3.0, abs=1e-8)
        assert est.fit.n == 47

    def test_inference_fields_consistent(self):
        p = staggered_noisy(np.random.default_rng(54))
        est = pc.fit_did_twfe(p, ci_level=0.9)
        lo, hi = est.ci
        assert lo < est.att < hi
        assert est.ci_level == 0.9
        from panelcause.linreg import normal_ci, normal_p
        assert (lo, hi) == pytest.approx(normal_ci(est.att, est.se, 0.9))
        assert est.p_value == pytest.approx(normal_p(est.att, est.se))

    def test_no_variation(self):
        p = build_panel(["a", "b"], 4, {}, {u: [0.0] * 4 for u in "ab"})
        assert err(pc.fit_did_twfe, p).code == "NO_VARIATION"

    def test_no_control(self):
        p = build_panel(["a", "b"], 4, {"a": 2, "b": 2},
                        {u: [0.0, 0.0, 1.0, 1.0] for u in "ab"})
        assert err(pc.fit_did_twfe, p).code == "NO_CONTROL"


    def test_unit_invariant_covariate_dropped_on_unbalanced_panel(self):
        # the unit effects absorb z; fitting its rounding residue would cost a
        # degree of freedom and move the SE
        config = DgpConfig(n_units=30, n_periods=10, cohorts={4: 8, 7: 8}, seed=3)
        p, _ = simulate_panel(config, 0)
        rng = np.random.default_rng(3)
        keep = rng.random(len(p.unit_idx)) >= 0.1
        z = rng.normal(size=p.unit_count)[p.unit_idx]
        q = keep_rows(p, keep, {"z": z})
        with_z = pc.fit_did_twfe(q, covariates=("z",))
        without = pc.fit_did_twfe(q)
        assert [name for name, _ in with_z.fit.dropped_columns] == ["z"]
        assert with_z.att == pytest.approx(without.att, rel=1e-12)
        assert with_z.se == pytest.approx(without.se, rel=1e-12)


def dynamic_panel(U_treated=3, never=3, g=4, T=10, noise=0.0, seed=60):
    rng = np.random.default_rng(seed)
    units = [f"u{i}" for i in range(U_treated + never)]
    adopt = {u: g for u in units[:U_treated]}
    y = linear_paths(units, T, adopt, rng,
                     effect=lambda g_, t: float(t - g_ + 1), noise_sd=noise)
    return build_panel(units, T, adopt, y)


class TestEventStudy:
    def test_noiseless_dynamic_coefficients(self):
        est = pc.fit_event_study(dynamic_panel())
        assert est.reference_period == -1
        assert -1 not in est.coefficients
        for k in range(0, 6):
            assert est.coefficients[k][0] == pytest.approx(k + 1, abs=1e-8), k
        for k in range(-4, -1):
            assert est.coefficients[k][0] == pytest.approx(0.0, abs=1e-8), k

    def test_terminal_bins(self):
        est = pc.fit_event_study(dynamic_panel(), leads=3, lags=2)
        assert set(est.coefficients) == {"<=-3", -2, 0, 1, ">=2"}
        # ks 2..5 (effects 3,4,5,6) pool into the terminal lag bin
        assert est.coefficients[">=2"][0] == pytest.approx(4.5, abs=1e-8)
        assert est.coefficients["<=-3"][0] == pytest.approx(0.0, abs=1e-8)
        assert est.omitted == []

    @staticmethod
    def one_cohort_panel():
        config = DgpConfig(30, 10, cohorts={4: 10},
                           effect={"kind": "constant", "delta": 1.0}, seed=2)
        return simulate_panel(config, 0)[0]

    @pytest.mark.parametrize("window", [dict(leads=1), dict(leads=0), dict(leads=-1),
                                        dict(lags=-1)])
    def test_window_reaching_reference_period_refused(self, window):
        # each of these terminal bins would hold k = -1: leads=1 pools it
        # with the leads, leads ≤ 0 pools post periods with them too, and
        # lags=-1 makes a >=-1 bin that is dropped as collinear
        e = err(pc.fit_event_study, self.one_cohort_panel(), **window)
        assert e.code == "CONFIG_ERROR"

    def test_shortest_window_fits(self):
        est = pc.fit_event_study(self.one_cohort_panel(), leads=2, lags=0)
        assert set(est.coefficients) == {"<=-2", ">=0"}
        assert est.collinear == [] and est.omitted == []

    def test_omitted_reports_unsupported_ks(self):
        est = pc.fit_event_study(dynamic_panel(T=8), lags=5)
        # adoption at 4 of 8 periods: only k = 0..3 observed
        assert 4 in est.omitted and ">=5" in est.omitted

    def test_matches_dummy_design_oracle(self):
        p = dynamic_panel(noise=0.4, seed=61)
        est = pc.fit_event_study(p)
        ks = sorted(k for k in est.coefficients)
        sched = pc.derive_adoption(p)
        adopt = np.array([sched.adoption_time[u] if sched.adoption_time[u]
                          is not None else 10 ** 6 for u in p.units])
        k_row = p.time_idx - adopt[p.unit_idx]
        treated = adopt[p.unit_idx] != 10 ** 6
        cols = [(treated & (k_row == k)).astype(float) for k in ks]
        for u in range(p.unit_count):
            cols.append((p.unit_idx == u).astype(float))
        for t in range(1, p.time_count):
            cols.append((p.time_idx == t).astype(float))
        X = np.column_stack(cols)
        beta, V = cluster_sandwich(X, p.outcome, p.unit_idx)
        for i, k in enumerate(ks):
            assert est.coefficients[k][0] == pytest.approx(beta[i], abs=1e-7), k
            assert est.coefficients[k][1] == pytest.approx(
                np.sqrt(V[i, i]), rel=1e-6), k

    def test_pretrend_statistic(self):
        flat = pc.fit_event_study(dynamic_panel(U_treated=20, never=20, g=5,
                                                noise=0.3, seed=62))
        assert flat.pretrend_df == 4
        assert flat.pretrend_p is not None and flat.pretrend_p > 0.05
        # now violate parallel trends: treated units trend up before adoption
        rng = np.random.default_rng(63)
        units = [f"u{i}" for i in range(40)]
        adopt = {u: 5 for u in units[:20]}
        y = linear_paths(units, 10, adopt, rng, noise_sd=0.05)
        for u in units[:20]:
            y[u] = [y[u][t] + 0.8 * t for t in range(10)]
        bent = pc.fit_event_study(build_panel(units, 10, adopt, y))
        assert bent.pretrend_stat > flat.pretrend_stat
        assert bent.pretrend_p < 1e-6

    def test_pretrend_skipped_at_rounding_level(self):
        # noiseless: the lead coefficients and their variances are rounding
        # (about 1e-31 of the outcome variance), so there is nothing to test
        with pytest.warns(pc.PanelCauseWarning, match="PRETREND_AT_ROUNDING"):
            est = pc.fit_event_study(dynamic_panel())
        assert est.pretrend_stat is None and est.pretrend_p is None
        assert est.pretrend_df == 0
        assert any(isinstance(k, int) and k <= -2 for k in est.coefficients)
        # a little noise restores the test
        noisy = pc.fit_event_study(dynamic_panel(noise=0.01))
        assert noisy.pretrend_df == 3 and 0.0 < noisy.pretrend_p <= 1.0

    def test_fully_dynamic_without_controls_drops_a_column(self):
        # two cohorts, nobody untreated: one event-time indicator must fall
        # to collinearity with the unit+time effects
        rng = np.random.default_rng(64)
        units = [f"u{i}" for i in range(4)]
        adopt = {"u0": 3, "u1": 3, "u2": 6, "u3": 6}
        y = linear_paths(units, 9, adopt, rng, noise_sd=0.2)
        est = pc.fit_event_study(build_panel(units, 9, adopt, y))
        assert len(est.collinear) >= 1

    def test_all_indicators_absorbed(self):
        # one cohort, no controls: event time == calendar time, all absorbed
        rng = np.random.default_rng(65)
        units = ["a", "b"]
        adopt = {u: 4 for u in units}
        y = linear_paths(units, 8, adopt, rng, noise_sd=0.2)
        e = err(pc.fit_event_study, build_panel(units, 8, adopt, y))
        assert e.code == "COLLINEAR_EVENT_TIME"

    def test_no_adopters(self):
        p = build_panel(["a"], 4, {}, {"a": [0.0] * 4})
        assert err(pc.fit_event_study, p).code == "NO_VARIATION"

    def test_only_the_reference_period_observed(self):
        # the adopter's one observed cell is k = -1: no indicator to fit
        p = build_panel(["a", "b", "c"], 4, {"a": 2},
                        {"a": [np.nan, 1.0, np.nan, np.nan], "b": [0.0, 1.0, 2.0, 3.0],
                         "c": [1.0, 0.5, 2.5, 3.0]})
        assert err(pc.fit_event_study, p).code == "COLLINEAR_EVENT_TIME"


def cohort_effect_panel(noise=0.0, seed=70, sizes=(2, 2, 3), T=8,
                        gs=(3, 5), deltas=(1.0, 3.0)):
    """Cohorts at gs with flat per-cohort effects, plus never-treated."""
    rng = np.random.default_rng(seed)
    units, adopt = [], {}
    for j, g in enumerate(gs):
        for i in range(sizes[j]):
            u = f"g{g}u{i}"
            units.append(u)
            adopt[u] = g
    for i in range(sizes[-1]):
        units.append(f"nv{i}")
    dmap = dict(zip(gs, deltas))
    y = linear_paths(units, T, adopt, rng,
                     effect=lambda g, t: dmap[g], noise_sd=noise)
    return build_panel(units, T, adopt, y)


class TestGroupTime:
    def test_noiseless_cells_and_aggregates(self):
        gt = pc.fit_group_time_att(cohort_effect_panel(), bootstrap_reps=50)
        for (g, t), (att, _) in gt.cells.items():
            want = {3: 1.0, 5: 3.0}[g]
            assert att == pytest.approx(want, abs=1e-9), (g, t)
        assert gt.overall[0] == pytest.approx(2.0, abs=1e-9)
        assert gt.by_cohort[3][0] == pytest.approx(1.0, abs=1e-9)
        assert gt.by_cohort[5][0] == pytest.approx(3.0, abs=1e-9)
        assert gt.cohort_weights == {3: pytest.approx(0.5), 5: pytest.approx(0.5)}
        # event time 0 exists for both cohorts; unweighted mean of cells
        assert gt.by_event_time[0][0] == pytest.approx(2.0, abs=1e-9)
        assert gt.comparison == NEVER_TREATED

    def test_cells_match_direct_means(self):
        p = cohort_effect_panel(noise=0.6, seed=71)
        gt = pc.fit_group_time_att(p, bootstrap_reps=20)
        Y = p.outcome_matrix()
        sched = pc.derive_adoption(p)
        nv = [p.units.index(u) for u in sched.never_treated]
        for (g, t), (att, _) in gt.cells.items():
            tr = [p.units.index(u) for u in sched.cohorts[g]]
            want = ((Y[tr, t] - Y[tr, g - 1]).mean()
                    - (Y[nv, t] - Y[nv, g - 1]).mean())
            assert att == pytest.approx(want, abs=1e-10), (g, t)

    def test_bootstrap_se_matches_influence_norm(self):
        p = cohort_effect_panel(noise=0.6, seed=72, sizes=(5, 5, 6), T=8)
        gt = pc.fit_group_time_att(p, bootstrap_reps=4000, seed=5)
        Y = p.outcome_matrix()
        sched = pc.derive_adoption(p)
        nv = [p.units.index(u) for u in sched.never_treated]
        g, t = 3, 4
        tr = [p.units.index(u) for u in sched.cohorts[g]]
        dt = Y[tr, t] - Y[tr, g - 1]
        dc = Y[nv, t] - Y[nv, g - 1]
        want = np.sqrt(((dt - dt.mean()) ** 2).sum() / len(dt) ** 2
                       + ((dc - dc.mean()) ** 2).sum() / len(dc) ** 2)
        assert gt.cells[(g, t)][1] == pytest.approx(want, rel=0.1)

    def test_seed_determinism(self):
        p = cohort_effect_panel(noise=0.5, seed=73)
        a = pc.fit_group_time_att(p, seed=9)
        b = pc.fit_group_time_att(p, seed=9)
        c = pc.fit_group_time_att(p, seed=10)
        assert a.cells == b.cells
        assert a.overall != c.overall  # same point, different bootstrap SE
        assert a.overall[0] == pytest.approx(c.overall[0])

    def test_not_yet_treated_comparison(self):
        rng = np.random.default_rng(74)
        units = ["e0", "e1", "l0", "l1"]
        adopt = {"e0": 2, "e1": 2, "l0": 4, "l1": 4}
        y = linear_paths(units, 6, adopt, rng,
                         effect=lambda g, t: 2.0, noise_sd=0.3)
        p = build_panel(units, 6, adopt, y)
        gt = pc.fit_group_time_att(p, comparison=NOT_YET_TREATED,
                                   bootstrap_reps=20)
        # early cohort only identified while the late one is still untreated;
        # every late-cohort cell lacks a comparison group
        assert set(gt.cells) == {(2, 2), (2, 3)}
        assert {(g, t) for g, t, _ in gt.omitted} == \
            {(2, 4), (2, 5), (4, 4), (4, 5)}
        Y = p.outcome_matrix()
        for (g, t), (att, _) in gt.cells.items():
            tr, cr = [0, 1], [2, 3]
            want = ((Y[tr, t] - Y[tr, g - 1]).mean()
                    - (Y[cr, t] - Y[cr, g - 1]).mean())
            assert att == pytest.approx(want, abs=1e-10)

    def test_never_comparison_requires_never_units(self):
        rng = np.random.default_rng(75)
        units = ["e0", "l0", "l1"]
        adopt = {"e0": 2, "l0": 4, "l1": 4}
        y = linear_paths(units, 6, adopt, rng, noise_sd=0.3)
        with pytest.warns(Warning, match="SINGLETON_COHORT"):
            e = err(pc.fit_group_time_att, build_panel(units, 6, adopt, y))
        assert e.code == "EMPTY_COMPARISON"

    def test_singleton_cohort_warns(self):
        p = cohort_effect_panel(sizes=(1, 2, 3))
        with pytest.warns(Warning, match="SINGLETON_COHORT"):
            pc.fit_group_time_att(p, bootstrap_reps=10)

    def test_cohort_at_period_zero_omitted(self):
        rng = np.random.default_rng(76)
        units = ["a", "b", "n0", "n1"]
        adopt = {"a": 0, "b": 3}
        y = linear_paths(units, 6, adopt, rng, noise_sd=0.2)
        with pytest.warns(Warning, match="SINGLETON_COHORT"):
            gt = pc.fit_group_time_att(build_panel(units, 6, adopt, y),
                                       bootstrap_reps=10)
        assert all(g != 0 for g, _ in gt.cells)
        assert (0, None, "no pre-period for base g-1") in gt.omitted

    def test_covariate_residualization_exact(self):
        rng = np.random.default_rng(77)
        p0 = cohort_effect_panel(seed=77)
        z = {u: rng.normal(size=8).tolist() for u in p0.units}
        sched = pc.derive_adoption(p0)
        y = {u: [float(p0.outcome_matrix()[i, t]) + 1.7 * z[u][t]
                 for t in range(8)] for i, u in enumerate(p0.units)}
        adopt = {u: g for u, g in sched.adoption_time.items() if g is not None}
        p = build_panel(list(p0.units), 8, adopt, y, covariates={"z": z})
        gt = pc.fit_group_time_att(p, covariates=("z",), bootstrap_reps=10)
        for (g, t), (att, _) in gt.cells.items():
            assert att == pytest.approx({3: 1.0, 5: 3.0}[g], abs=1e-8)

    def test_unknown_comparison(self):
        assert err(pc.fit_group_time_att, cohort_effect_panel(),
                   comparison="nope").code == "CONFIG_ERROR"

    @pytest.mark.parametrize("reps", [1, 0, -3])
    def test_too_few_bootstrap_reps(self, reps):
        # a sample SD needs two draws: fewer is a coded error, not a NaN SE
        # with numpy's warnings or numpy's own error for a negative count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = err(pc.fit_group_time_att, cohort_effect_panel(), bootstrap_reps=reps)
        assert e.code == "CONFIG_ERROR"
        assert str(e).endswith(f"got {reps}")

    @pytest.mark.parametrize("seed,draws,units", [
        (0, 999, 80), (0, 999, 40), (3, 2, 1), (5, 2, 7), (8, 3, 1), (13, 50, 12)])
    def test_multiplier_covariance_is_that_of_the_sign_draws(self, seed, draws, units):
        # the reference: the ±1 multipliers as rng.choice draws them, and
        # their sample covariance formed from them
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        V = rng.choice((-1.0, 1.0), size=(draws, units))
        s = V.sum(axis=0)
        want = (V.T @ V - np.outer(s, s) / draws) / (draws - 1)
        got = _multiplier_covariance(seed, draws, units)
        assert got.shape == want.shape == (units, units)
        assert got.tobytes() == want.tobytes()


def random_group_time_panel(rng):
    """Up to 12 units × 9 periods, adoption at any period (0 too) or never,
    about 15% of the rows absent and 10% of the outcomes blank."""
    U, T = int(rng.integers(2, 13)), int(rng.integers(2, 10))
    ui, ti = np.nonzero(rng.random((U, T)) >= 0.15)
    adopt = np.where(rng.random(U) < 0.3, T, rng.integers(0, T, U))
    y = (rng.normal(size=U)[ui] + 0.4 * ti + rng.normal(size=len(ui))
         + 1.5 * (ti >= adopt[ui]))
    y[rng.random(len(y)) < 0.1] = np.nan
    return pc.PanelDataset([f"u{i}" for i in range(U)], list(range(T)), ui, ti, y,
                           (ti >= adopt[ui]).astype(int))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([NEVER_TREATED, NOT_YET_TREATED]),
       st.integers(2, 60))
def test_group_time_matches_per_cell_oracle(seed, comparison, reps):
    p = random_group_time_panel(np.random.default_rng(seed))
    assume(pc.derive_adoption(p).cohorts)
    want = group_time_cells(p, comparison, reps, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # SINGLETON_COHORT
        if not want["cells"]:
            e = err(pc.fit_group_time_att, p, comparison=comparison,
                    bootstrap_reps=reps, seed=seed)
            assert e.code == "EMPTY_COMPARISON"
            assert e.details["omitted"] == want["omitted"]
            return
        got = pc.fit_group_time_att(p, comparison=comparison, bootstrap_reps=reps,
                                    seed=seed)
    # rounding is relative to the outcome's scale: a cell's ATT is a
    # difference of means that may cancel far below it
    scale = float(np.nanmax(np.abs(p.outcome)))

    def close(a, b):
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-12 * max(abs(y), scale), (a, b)

    assert got.omitted == want["omitted"]
    assert got.cohort_weights == want["cohort_weights"]
    for name, got_d, want_d in (("cells", got.cells, want["cells"]),
                                ("by_cohort", got.by_cohort, want["by_cohort"]),
                                ("by_event", got.by_event_time, want["by_event"])):
        assert list(got_d) == list(want_d), name
        for k in want_d:
            close(got_d[k], want_d[k])
    close(got.overall, want["overall"])


class TestImputation:
    def make_mixed(self, noise=0.0, seed=80):
        # 16 treated cells: 10 with effect 1, 6 with effect 3
        rng = np.random.default_rng(seed)
        units = ["a0", "a1", "b0", "b1", "n0", "n1"]
        adopt = {"a0": 2, "a1": 2, "b0": 4, "b1": 4}
        dmap = {2: 1.0, 4: 3.0}
        y = linear_paths(units, 7, adopt, rng,
                         effect=lambda g, t: dmap[g], noise_sd=noise)
        return build_panel(units, 7, adopt, y)

    def test_cell_weighted_att(self):
        est = pc.fit_imputation_did(self.make_mixed())
        assert est.att == pytest.approx((10 * 1.0 + 6 * 3.0) / 16, abs=1e-9)
        assert len(est.unit_time_effects) == 16
        for (u, t), eff in est.unit_time_effects.items():
            want = 1.0 if u.startswith("a") else 3.0
            assert eff == pytest.approx(want, abs=1e-9), (u, t)
        assert est.dropped_periods == ()

    def test_jackknife_se_matches_manual_refits(self):
        p = self.make_mixed(noise=0.5, seed=81)
        est = pc.fit_imputation_did(p)

        def theta_without(skip):
            keep = p.unit_idx != p.units.index(skip)
            un = keep & (p.policy == 0)
            ui, ti = p.unit_idx[un], p.time_idx[un]
            uids = sorted(set(ui.tolist()))
            tids = sorted(set(ti.tolist()))
            cols = [np.ones(un.sum())]
            cols += [(ui == i).astype(float) for i in uids[1:]]
            cols += [(ti == t).astype(float) for t in tids[1:]]
            beta = ols_beta(np.column_stack(cols), p.outcome[un])
            coef = {"_": beta[0]}
            for j, i in enumerate(uids[1:]):
                coef[("u", i)] = beta[1 + j]
            for j, t in enumerate(tids[1:]):
                coef[("t", t)] = beta[1 + len(uids) - 1 + j]
            tr = keep & (p.policy == 1)
            effs = []
            for r in np.flatnonzero(tr):
                i, t = int(p.unit_idx[r]), int(p.time_idx[r])
                pred = coef["_"] + coef.get(("u", i), 0.0) + coef.get(("t", t), 0.0)
                effs.append(p.outcome[r] - pred)
            return float(np.mean(effs))

        thetas = np.array([theta_without(u) for u in p.units])
        m = len(thetas)
        want = np.sqrt((m - 1) / m * ((thetas - thetas.mean()) ** 2).sum())
        assert est.se == pytest.approx(want, rel=1e-9)

    def test_always_treated_unit_rejected(self):
        rng = np.random.default_rng(82)
        units = ["a", "b", "n"]
        adopt = {"a": 0, "b": 3}
        y = linear_paths(units, 6, adopt, rng)
        e = err(pc.fit_imputation_did, build_panel(units, 6, adopt, y))
        assert e.code == "UNIDENTIFIED_UNIT_FE"
        assert "a" in str(e)

    def test_fully_treated_periods_dropped(self):
        rng = np.random.default_rng(83)
        units = ["a", "b"]
        adopt = {"a": 2, "b": 3}
        y = linear_paths(units, 5, adopt, rng, effect=lambda g, t: 2.0)
        with pytest.warns(Warning, match="UNIDENTIFIED_TIME_FE"):
            est = pc.fit_imputation_did(build_panel(units, 5, adopt, y))
        assert est.dropped_periods == (3, 4)
        assert set(est.unit_time_effects) == {("a", 2)}
        assert est.att == pytest.approx(2.0, abs=1e-9)

    def test_no_treated(self):
        p = build_panel(["a", "b"], 4, {}, {u: [0.0] * 4 for u in "ab"})
        assert err(pc.fit_imputation_did, p).code == "NO_VARIATION"


    def test_dropped_jackknife_fold_warns(self):
        # leaving out the one treated unit leaves nothing to impute
        config = DgpConfig(n_units=6, n_periods=8, cohorts={4: 1},
                           effect={"kind": "constant", "delta": 2.0}, seed=1)
        p, _ = simulate_panel(config, 0)
        with pytest.warns(pc.PanelCauseWarning,
                          match=r"JACKKNIFE_FOLDS_DROPPED: 1 of 6 .*NO_VARIATION"):
            est = pc.fit_imputation_did(p)
        assert np.isfinite(est.se)

    def test_unit_without_complete_rows_is_not_a_fold(self):
        # an all-blank unit moved the jackknife SE from 0.418871 to 0.420334
        config = DgpConfig(12, 8, cohorts={3: 3, 5: 3},
                           effect={"kind": "constant", "delta": 1.0}, seed=4)
        p, _ = simulate_panel(config, 0)
        est = pc.fit_imputation_did(p)
        blank = pc.fit_imputation_did(with_blank_unit(p))
        assert blank.att == est.att
        assert blank.se == pytest.approx(est.se, abs=1e-12)

    def test_dropped_fold_count_excludes_units_without_rows(self):
        config = DgpConfig(n_units=6, n_periods=8, cohorts={4: 1},
                           effect={"kind": "constant", "delta": 2.0}, seed=1)
        p, _ = simulate_panel(config, 0)
        with pytest.warns(pc.PanelCauseWarning,
                          match=r"JACKKNIFE_FOLDS_DROPPED: 1 of 6 "):
            pc.fit_imputation_did(with_blank_unit(p))

    def test_disconnected_untreated_design_rejected(self):
        # a and b are seen only before t=4, c and d only from t=4 on, so no
        # untreated row links e's and f's unit effects to periods 4-7
        rng = np.random.default_rng(84)
        spans = {"a": range(4), "b": range(4), "c": range(4, 8),
                 "d": range(4, 8), "e": range(8), "f": range(8)}
        units = list(spans)
        rows = [(i, t) for i, u in enumerate(units) for t in spans[u]]
        ui, ti = np.array(rows).T
        policy = ((ui >= 4) & (ti >= 4)).astype(int)
        p = pc.PanelDataset(units, list(range(8)), ui, ti,
                            rng.normal(size=len(rows)) + 2.0 * policy, policy)
        e = err(pc.fit_imputation_did, p)
        assert e.code == "DISCONNECTED_FE"
        assert ("e", 4) in e.details["cells"]


def thinned_panel(seed, with_covariate):
    """A 10×6 staggered panel with about 10% of its rows removed."""
    config = DgpConfig(n_units=10, n_periods=6, cohorts={2: 3, 4: 3},
                       effect={"kind": "dynamic", "base": 1.0, "slope": 0.5},
                       seed=seed)
    p, _ = simulate_panel(config, 0)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(p.unit_idx)) >= 0.1
    cov = {"x": rng.normal(size=len(keep)) + 0.2 * p.time_idx} \
        if with_covariate else None
    return keep_rows(p, keep, cov)


# fit_imputation_did on thinned_panel(seed, with_covariate), recorded from the
# dense dummy-variable regression of the untreated rows
PINNED_IMPUTATION = {
    (5, False): dict(
        att=1.8049741360335558, se=0.43143065498626726,
        effects={('u000', 2): 1.0029424366294424, ('u000', 3): 3.542847221072496,
                 ('u000', 5): 1.5717658553521185, ('u001', 3): 1.5780908574460275,
                 ('u001', 4): 1.3484789561985489, ('u001', 5): 3.980547716794493,
                 ('u002', 2): 2.216824139508573, ('u002', 3): 2.6186621100206335,
                 ('u002', 4): 0.1414790786615402, ('u002', 5): 2.8931492423121346,
                 ('u003', 4): 1.1956421349551667, ('u004', 4): 1.5448242169333901,
                 ('u005', 4): -0.43288341388225493, ('u005', 5): 2.0672673524674705},
        coefficients={
            '_intercept': -0.762359069420972, 'unit[u001]': -0.6456961190241978,
            'unit[u002]': 0.7075911322722739, 'unit[u003]': 0.9273725665010262,
            'unit[u004]': 1.5564632524508852, 'unit[u005]': 1.1813283900577578,
            'unit[u006]': 0.3248780234435478, 'unit[u007]': 0.6156960035250144,
            'unit[u008]': 2.2985132274542, 'unit[u009]': 3.1821714788168256,
            'time[1]': -1.0397045998509955, 'time[2]': -1.0007799978980068,
            'time[3]': -0.4824004879058601, 'time[4]': 0.021903864986232407,
            'time[5]': -0.8434730536241789}),
    (6, True): dict(
        att=0.9541216408096829, se=0.48677029564720387,
        effects={('u000', 2): 1.2581072816965826, ('u000', 3): 3.2985333231018488,
                 ('u000', 4): 1.2373893340142423, ('u000', 5): 3.2168062824710635,
                 ('u001', 2): 0.3165300951680847, ('u001', 3): 2.2667411438178537,
                 ('u001', 5): -0.7071480233096787, ('u002', 2): 0.10551682119670547,
                 ('u002', 3): 0.6695033355215649, ('u002', 5): 0.6419903307540118,
                 ('u003', 4): 0.47750738775787727, ('u003', 5): -0.46122739532880086,
                 ('u004', 4): 0.6929218090097615, ('u004', 5): 0.23722826751547466,
                 ('u005', 4): 0.3383187968479726, ('u005', 5): 1.6772274627203623},
        coefficients={
            '_intercept': 0.405062857988505, 'unit[u001]': 2.730450860317836,
            'unit[u002]': -3.087845692545951, 'unit[u003]': 0.2222383876421797,
            'unit[u004]': 0.7571636652585204, 'unit[u005]': 1.3167726077166255,
            'unit[u006]': 0.300591696554633, 'unit[u007]': 0.44158667191359324,
            'unit[u008]': 0.07249895213970245, 'unit[u009]': -0.7879442196236714,
            'time[1]': 0.3990571228105803, 'time[2]': -0.5741349466842613,
            'time[3]': -0.8306420161345125, 'time[4]': 0.712441343299397,
            'time[5]': 0.9925965636963081, 'x': 0.08587103301714401}),
}


@pytest.mark.parametrize("seed,with_covariate", sorted(PINNED_IMPUTATION))
def test_imputation_pinned_on_unbalanced_panels(seed, with_covariate):
    want = PINNED_IMPUTATION[(seed, with_covariate)]
    est = pc.fit_imputation_did(thinned_panel(seed, with_covariate),
                                covariates=("x",) if with_covariate else ())
    assert est.att == pytest.approx(want["att"], abs=1e-10)
    assert est.se == pytest.approx(want["se"], abs=1e-10)
    assert list(est.unit_time_effects) == list(want["effects"])
    for cell, value in want["effects"].items():
        assert est.unit_time_effects[cell] == pytest.approx(value, abs=1e-10), cell
    assert list(est.untreated_coefficients) == list(want["coefficients"])
    for name, value in want["coefficients"].items():
        assert est.untreated_coefficients[name] == pytest.approx(value, abs=1e-10), name


# ---------------------------------------------------------------------------
# imputation jackknife folds read off per-unit sums


def panel_from_cells(cells, adopt, T, seed, cov=None):
    """cells: unit -> observed periods; adopt: unit -> adoption period.

    Two-way outcome with an effect of 1.5, noise, and, given cov(ui, ti, rng),
    a covariate x with coefficient 0.7.
    """
    rng = np.random.default_rng(seed)
    units = list(cells)
    rows = [(i, t) for i, u in enumerate(units) for t in cells[u]]
    ui, ti = np.array(rows).T
    policy = (ti >= np.array([adopt.get(units[i], T) for i in ui])).astype(int)
    y = (rng.normal(size=len(units))[ui] + rng.normal(size=T)[ti]
         + 1.5 * policy + 0.3 * rng.normal(size=len(rows)))
    covs = None
    if cov is not None:
        covs = {"x": cov(ui, ti, rng)}
        y = y + 0.7 * covs["x"]
    return pc.PanelDataset(units, list(range(T)), ui, ti, y, policy, covs)


def only_cover_panel():
    # n0 alone is untreated in every period: n1 misses period 0, n2 misses
    # 0 and 3, and the treated units' pre-periods end by period 3
    cells = {"n0": range(7), "n1": range(1, 7), "n2": [1, 2, 4, 5, 6],
             "a0": range(7), "a1": range(7), "b0": range(7),
             "b1": [0, 1, 3, 4, 5, 6]}
    return panel_from_cells(cells, {"a0": 2, "a1": 2, "b0": 4, "b1": 4}, 7, 91)


def absorbed_cov_panel():
    # x varies over time only within n0 and is a unit constant elsewhere,
    # so the fold without n0 absorbs x into the unit effects
    cells = {u: range(7) for u in ["n0", "n1", "n2", "n3", "a0", "a1", "b0", "b1"]}

    def cov(ui, ti, rng):
        level = rng.normal(size=ui.max() + 1)
        return np.where(ui == 0, np.sin(1.3 * ti) + 0.2 * ti, level[ui])
    return panel_from_cells(cells, {"a0": 2, "a1": 3, "b0": 4, "b1": 5}, 7, 92, cov)


def fully_treated_panel():
    # every unit adopts by period 4, so periods 4 and 5 have no untreated
    # rows; only a observes period 5, so the fold without a drops period 4 alone
    cells = {"a": range(6), "b": range(5), "c": range(5), "d": range(5)}
    return panel_from_cells(cells, {"a": 2, "b": 3, "c": 4, "d": 4}, 6, 93)


def assert_folds_match_refits(p, covariates=()):
    """Each fold read off the sums matches its refit's ATT and warnings.

    Returns the units whose folds were read off the sums.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coefs = _impute_att(p, covariates, None)[2]
    summed = _summed_folds(p, covariates, coefs)
    for u, (att, gone) in summed.items():
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            want = _impute_att(p, covariates, u)[1]
        assert att == pytest.approx(want, rel=1e-10, abs=1e-10), u
        periods = [p.time_labels[t] for t in gone]
        assert [str(x.message) for x in w] == (
            [f"UNIDENTIFIED_TIME_FE: periods with no untreated rows, treated "
             f"cells dropped: {periods}"] if gone else []), u
    return set(summed)


def random_covariate(kind, T, scale):
    """None, a trending covariate, or one within ``scale`` of unit + period effects."""
    if kind == "trend":
        return lambda ui, ti, r: r.normal(size=len(ui)) + 0.3 * ti
    if kind == "near_absorbed":
        return lambda ui, ti, r: (r.normal(size=ui.max() + 1)[ui] + r.normal(size=T)[ti]
                                  + scale * r.normal(size=len(ui)))
    return None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, "trend", "near_absorbed"]),
       st.floats(-5.0, 0.0))
def test_summed_folds_match_refits(seed, kind, log_scale):
    rng = np.random.default_rng(seed)
    U, T = int(rng.integers(4, 11)), int(rng.integers(4, 9))
    units = [f"u{i}" for i in range(U)]
    adopt = {u: int(rng.integers(1, T)) for u in units[int(rng.integers(0, 3)):]}
    cells = {u: [t for t in range(T) if rng.random() >= 0.15] for u in units}
    p = panel_from_cells(cells, adopt, T, seed, random_covariate(kind, T, 10 ** log_scale))
    covariates = ("x",) if kind else ()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _impute_att(p, covariates, None)
    except pc.PanelCauseError:
        assume(False)
    assert_folds_match_refits(p, covariates)


def row_order_panel(with_covariate):
    config = DgpConfig(40, 14, cohorts={5: 8, 9: 8}, ar_coef=0.5, seed=3)
    p, _ = simulate_panel(config, 0)
    rng = np.random.default_rng(3)
    cov = {"x": rng.normal(size=len(p.unit_idx)) + 0.2 * p.time_idx} \
        if with_covariate else None
    return keep_rows(p, np.ones(len(p.unit_idx), dtype=bool), cov)


def summed(p, covariates):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _summed_folds(p, covariates, _impute_att(p, covariates, None)[2])


@pytest.mark.parametrize("covariates", [(), ("x",)])
def test_summed_folds_ignore_row_order(covariates):
    p = row_order_panel(bool(covariates))
    perm = np.random.default_rng(0).permutation(len(p.unit_idx))
    shuffled = keep_rows(p, perm, p.covariates)     # an index array reorders the rows
    want = summed(p, covariates)
    assert len(want) == p.unit_count
    assert summed(shuffled, covariates) == want


@pytest.mark.parametrize("covariates", [(), ("x",)])
def test_summed_folds_chunked_match_one_chunk(covariates, monkeypatch):
    p = row_order_panel(bool(covariates))
    want = summed(p, covariates)
    monkeypatch.setattr("panelcause.did.FOLD_CHUNK", 1)
    assert summed(p, covariates) == want


def test_only_covering_unit_is_refit():
    p = only_cover_panel()
    assert assert_folds_match_refits(p) == set(p.units) - {"n0"}
    est = pc.fit_imputation_did(p)       # recorded before the summed folds
    assert est.att == pytest.approx(1.311259267315562, abs=1e-10)
    assert est.se == pytest.approx(0.27228079890044304, abs=1e-10)


def test_single_treated_unit_fold_is_refit():
    config = DgpConfig(n_units=6, n_periods=8, cohorts={4: 1},
                       effect={"kind": "constant", "delta": 2.0}, seed=1)
    p, _ = simulate_panel(config, 0)
    treated = set(pc.derive_adoption(p).treated_units)
    assert assert_folds_match_refits(p) == set(p.units) - treated
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        est = pc.fit_imputation_did(p)
    # recorded before the summed folds
    assert [str(x.message) for x in w] == [
        "JACKKNIFE_FOLDS_DROPPED: 1 of 6 jackknife folds raised and were left "
        "out (first: NO_VARIATION)"]
    assert est.se == pytest.approx(0.23895364023219148, abs=1e-10)


def test_covariate_absorbed_in_one_fold_is_refit():
    p = absorbed_cov_panel()
    assert assert_folds_match_refits(p, ("x",)) == set(p.units) - {"n0"}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert "x" not in _impute_att(p, ("x",), "n0")[2]
    est = pc.fit_imputation_did(p, covariates=("x",))
    assert est.att == pytest.approx(1.502561892864613, abs=1e-10)
    assert est.se == pytest.approx(0.17988387572222808, abs=1e-10)


def test_fully_treated_period_warnings_unchanged():
    p = fully_treated_panel()
    assert assert_folds_match_refits(p) == set(p.units)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        est = pc.fit_imputation_did(p)
    # recorded before the summed folds: the main fit's, then each fold's
    assert [str(x.message) for x in w] == [
        f"UNIDENTIFIED_TIME_FE: periods with no untreated rows, treated cells "
        f"dropped: {periods}" for periods in ([4, 5], [4], [4, 5], [4, 5], [4, 5])]
    assert est.att == pytest.approx(1.092944513224637, abs=1e-10)
    assert est.se == pytest.approx(0.1562073990938014, abs=1e-10)


def shifted_outcome(p, a, c):
    return pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                           a * p.outcome + c, p.policy, p.covariates)


@pytest.mark.parametrize("make,covariates", [
    (lambda: thinned_panel(5, False), ()), (lambda: thinned_panel(6, True), ("x",)),
    (only_cover_panel, ()), (absorbed_cov_panel, ("x",)), (fully_treated_panel, ())])
def test_imputation_outcome_shift_and_scale(make, covariates):
    p = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = pc.fit_imputation_did(p, covariates=covariates)
        shifted = pc.fit_imputation_did(shifted_outcome(p, 1.0, 1e3), covariates=covariates)
        scaled = pc.fit_imputation_did(shifted_outcome(p, -3.0, 0.0), covariates=covariates)
    assert shifted.att == pytest.approx(base.att, abs=1e-9)
    assert shifted.se == pytest.approx(base.se, abs=1e-9)
    assert scaled.att == pytest.approx(-3.0 * base.att, rel=1e-9)
    assert scaled.se == pytest.approx(3.0 * base.se, rel=1e-9)


def random_staggered(rng, max_cohorts=3):
    U = int(rng.integers(4, 9))
    T = int(rng.integers(6, 10))
    n_cohorts = int(rng.integers(2, max_cohorts + 1))
    gs = rng.choice(range(1, T - 1), size=n_cohorts, replace=False)
    units = [f"u{i}" for i in range(U)]
    adopt = {}
    for i, u in enumerate(units[: max(2, U - 2)]):
        adopt[u] = int(gs[i % n_cohorts])
    # heterogeneous, dynamic effects so wrong weights would show
    y = linear_paths(units, T, adopt, rng,
                     effect=lambda g, t: 0.5 * g + 0.3 * (t - g),
                     noise_sd=0.4)
    return build_panel(units, T, adopt, y)


class TestBacon:
    def test_structure_two_cohorts_plus_never(self):
        p = cohort_effect_panel(noise=0.3, seed=90)
        dec = pc.goodman_bacon_decompose(p)
        kinds = [c.kind for c in dec.comparisons]
        assert kinds.count("TREATED_VS_NEVER") == 2
        assert kinds.count("EARLY_VS_LATE") == 1
        assert kinds.count("LATE_VS_EARLY") == 1
        assert sum(c.weight for c in dec.comparisons) == pytest.approx(1.0)
        assert all(c.weight >= 0 for c in dec.comparisons)
        assert all(c.forbidden == (c.kind == "LATE_VS_EARLY")
                   for c in dec.comparisons)

    def test_sums_to_twfe_on_random_panels(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            p = random_staggered(rng)
            dec = pc.goodman_bacon_decompose(p)
            att = pc.fit_did_twfe(p).att
            assert dec.weighted_sum == pytest.approx(att, abs=1e-6)
            assert sum(c.weight for c in dec.comparisons) == pytest.approx(1.0)

    def test_each_comparison_is_a_subset_twfe(self):
        p = cohort_effect_panel(noise=0.4, seed=92)
        sched = pc.derive_adoption(p)
        T = p.time_count
        for c in pc.goodman_bacon_decompose(p).comparisons:
            g = c.treated_cohort
            if c.kind == "TREATED_VS_NEVER":
                sub = p.subset(units=list(sched.cohorts[g])
                               + list(sched.never_treated))
            elif c.kind == "EARLY_VS_LATE":
                sub = p.subset(units=list(sched.cohorts[g])
                               + list(sched.cohorts[c.comparison]),
                               time_window=(0, c.comparison - 1))
            else:  # LATE_VS_EARLY: earlier cohort is the (treated) control
                sub = p.subset(units=list(sched.cohorts[g])
                               + list(sched.cohorts[c.comparison]),
                               time_window=(c.comparison, T - 1))
            assert pc.fit_did_twfe(sub).att == pytest.approx(
                c.estimate, abs=1e-8), c.kind

    def test_error_codes(self):
        p = cohort_effect_panel()
        assert err(pc.goodman_bacon_decompose, p,
                   covariates=("z",)).code == "COVARIATES_UNSUPPORTED"
        rng = np.random.default_rng(93)
        units = ["a", "b"]
        y = linear_paths(units, 6, {"a": 3}, rng)
        y["b"][1] = float("nan")
        assert err(pc.goodman_bacon_decompose,
                   build_panel(units, 6, {"a": 3}, y)).code == "UNBALANCED_INPUT"
        y2 = linear_paths(units, 6, {"a": 0}, rng)
        assert err(pc.goodman_bacon_decompose,
                   build_panel(units, 6, {"a": 0}, y2)).code == "ALWAYS_TREATED"
        y3 = linear_paths(units, 6, {"a": 3, "b": 3}, rng)
        assert err(pc.goodman_bacon_decompose,
                   build_panel(units, 6, {"a": 3, "b": 3}, y3)).code == "NO_CONTROL"
        y4 = linear_paths(units, 6, {}, rng)
        assert err(pc.goodman_bacon_decompose,
                   build_panel(units, 6, {}, y4)).code == "NO_VARIATION"
