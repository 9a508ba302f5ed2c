import csv
import json

import numpy as np
import pytest

import panelcause as pc
from panelcause.advisor import ASCM, DID_TWFE, GROUP_TIME_DID, ITS, SCM
from panelcause.simharness import (DgpConfig, evaluate, simulate_panel)


def cfg(**over):
    base = dict(n_units=12, n_periods=8, cohorts={4: 4},
                effect={"kind": "constant", "delta": 3.0},
                intercept_sd=1.0, trend=0.1, noise_sd=0.5, seed=7,
                name="base")
    base.update(over)
    return DgpConfig(**base)


class TestTruth:
    def test_constant_effect_truth_is_exact(self):
        panel, truth = simulate_panel(cfg(), rep=0)
        assert truth.att_overall == 3.0
        assert truth.by_event == {k: 3.0 for k in range(4)}
        assert truth.by_cohort == {4: 3.0}
        assert sum(g == 4 for g in truth.adoption.values()) == 4
        assert sum(g is None for g in truth.adoption.values()) == 8

    def test_dynamic_effect_truth(self):
        c = cfg(effect={"kind": "dynamic", "base": 1.0, "slope": 0.5})
        _, truth = simulate_panel(c, rep=0)
        assert truth.by_event == {0: 1.0, 1: 1.5, 2: 2.0, 3: 2.5}
        assert truth.att_overall == pytest.approx(1.75)

    def test_cohort_effect_truth(self):
        c = cfg(cohorts={3: 2, 5: 3},
                effect={"kind": "cohort", "deltas": {3: 1.0, 5: 4.0}})
        _, truth = simulate_panel(c, rep=0)
        assert truth.by_cohort == {3: 1.0, 5: 4.0}
        # 2 units x 5 post periods at 1.0, 3 units x 3 post at 4.0
        assert truth.att_overall == pytest.approx((10 + 36) / 19)

    def test_null_panel_has_empty_truth(self):
        _, truth = simulate_panel(cfg(cohorts={}), rep=0)
        assert truth.att_overall == 0.0
        assert truth.by_event == {} and truth.by_cohort == {}

    def test_panel_matches_adoption_record(self):
        panel, truth = simulate_panel(cfg(), rep=3)
        sched = pc.derive_adoption(panel)
        assert dict(sched.adoption_time) == {
            u: (pc.NEVER if g is None else g)
            for u, g in truth.adoption.items()}

    def test_noiseless_did_recovers_delta(self):
        c = cfg(noise_sd=0.0)
        panel, truth = simulate_panel(c, rep=0)
        est = pc.fit_did_twfe(panel)
        assert est.att == pytest.approx(truth.att_overall, abs=1e-8)

    def test_intercept_confounding_treats_high_baseline_units(self):
        c = cfg(n_units=6, cohorts={4: 2}, noise_sd=0.0, trend=0.0,
                confounding="intercept")
        panel, truth = simulate_panel(c, rep=0)
        y0 = panel.outcome_matrix()[:, 0]
        treated = np.array([truth.adoption[u] is not None for u in panel.units])
        assert y0[treated].min() > y0[~treated].max()


class TestReproducibility:
    def test_same_seed_rep_is_bit_identical(self):
        a, _ = simulate_panel(cfg(), rep=5)
        b, _ = simulate_panel(cfg(), rep=5)
        assert np.array_equal(a.outcome_matrix(), b.outcome_matrix())
        assert np.array_equal(a.policy_matrix(), b.policy_matrix())

    def test_reps_are_distinct_streams(self):
        a, _ = simulate_panel(cfg(), rep=0)
        b, _ = simulate_panel(cfg(), rep=1)
        assert not np.array_equal(a.outcome_matrix(), b.outcome_matrix())

    def test_rep_stream_independent_of_rep_order(self):
        # drawing rep 9 cold equals drawing it after reps 0..8
        for r in range(9):
            simulate_panel(cfg(), rep=r)
        warm, _ = simulate_panel(cfg(), rep=9)
        cold, _ = simulate_panel(cfg(), rep=9)
        assert np.array_equal(warm.outcome_matrix(), cold.outcome_matrix())


class TestConfig:
    def test_json_round_trip(self):
        c = cfg(effect={"kind": "cohort", "deltas": {4: 2.0}})
        back = DgpConfig.from_json(c.to_json())
        assert back == c

    def test_from_json_accepts_dict(self):
        assert DgpConfig.from_json({"n_units": 4, "n_periods": 5}).n_units == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            DgpConfig.from_json('{"n_units": 4, "n_periods": 5, "bogus": 1}')
        assert ei.value.code == "CONFIG_ERROR"
        assert "bogus" in str(ei.value)

    @pytest.mark.parametrize("over,fragment", [
        (dict(n_units=0), "n_units"),
        (dict(n_periods=1), "n_periods"),
        (dict(cohorts={4: 20}), "past n_units"),
        (dict(cohorts={0: 2}), "outside 1..7"),
        (dict(cohorts={8: 2}), "outside 1..7"),
        (dict(cohorts={4: 0}), "size 0"),
        (dict(noise_sd=-1.0), "SDs"),
        (dict(ar_coef=1.0), "AR coefficient"),
        (dict(confounding="luck"), "confounding"),
        (dict(effect={"kind": "quadratic"}), "effect kind"),
        (dict(cohorts={3: 2, 5: 2},
              effect={"kind": "cohort", "deltas": {3: 1.0}}), "deltas for [5]"),
    ])
    def test_validation_errors(self, over, fragment):
        with pytest.raises(pc.PanelCauseError) as ei:
            cfg(**over).validate()
        assert ei.value.code == "CONFIG_ERROR"
        assert fragment in str(ei.value)


class TestEvaluate:
    def test_skips_nonviable_and_reports_why(self):
        out = evaluate([cfg()], [DID_TWFE, ITS], reps=2)
        assert ("base", ITS, "NOT_APPLICABLE") in out.skipped
        assert {r.method for r in out.rows} == {DID_TWFE}

    def test_force_runs_nonviable_pairs(self):
        out = evaluate([cfg()], [ITS], reps=2, force=True)
        assert out.skipped == []
        assert {r.method for r in out.rows} == {ITS}

    def test_unknown_method_rejected(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            evaluate([cfg()], ["OLS_WITH_VIBES"], reps=1)
        assert ei.value.code == "CONFIG_ERROR"

    def test_unnamed_configs_get_positional_names(self):
        c = cfg(name="")
        out = evaluate([c], [DID_TWFE], reps=1)
        assert c.name == "cfg0"
        assert out.rows[0].config == "cfg0"

    def test_estimator_errors_count_as_failures(self):
        # single-path ITS refuses staggered adoption on every rep
        out = evaluate([cfg(cohorts={3: 2, 5: 2})], [ITS], reps=3, force=True)
        row = out.rows[0]
        assert row.reps == 3 and row.failures == 3
        assert np.isnan(row.bias)
        assert all(r.error == "STAGGERED_INPUT" for r in out.per_rep)

    @pytest.mark.parametrize("method", [SCM, ASCM])
    def test_forced_synthetic_control_needs_one_treated_unit(self, method):
        # cfg() has four treated units; fit refuses them, so every rep fails
        out = evaluate([cfg()], [method], reps=3, force=True)
        assert out.rows[0].failures == out.rows[0].reps == 3
        assert all(r.error == "TOO_MANY_TREATED" for r in out.per_rep)

    def test_metrics_match_per_rep_recomputation(self):
        out = evaluate([cfg()], [DID_TWFE, GROUP_TIME_DID], reps=8)
        for row in out.rows:
            recs = [r for r in out.per_rep
                    if r.method == row.method and not r.error]
            est = np.array([r.estimate for r in recs])
            tru = np.array([r.truth for r in recs])
            assert row.reps == 8 and row.failures == 0
            assert row.bias == pytest.approx(np.mean(est - tru), rel=1e-12)
            assert row.sd == pytest.approx(np.std(est, ddof=1), rel=1e-12)
            assert row.rmse == pytest.approx(
                np.sqrt(np.mean((est - tru) ** 2)), rel=1e-12)
            assert row.coverage == pytest.approx(
                np.mean([r.ci_lo <= r.truth <= r.ci_hi for r in recs]))
            assert np.isnan(row.type1_rate)  # truth is nonzero here

    def test_rmse_decomposes_into_bias_and_spread(self):
        out = evaluate([cfg()], [DID_TWFE], reps=20)
        row = out.rows[0]
        est = np.array([r.estimate for r in out.per_rep])
        assert row.rmse ** 2 == pytest.approx(
            row.bias ** 2 + np.var(est, ddof=0), rel=1e-10)

    def test_type1_reported_under_null(self):
        c = cfg(effect={"kind": "constant", "delta": 0.0})
        out = evaluate([c], [DID_TWFE], reps=6)
        row = out.rows[0]
        assert np.isfinite(row.type1_rate)
        rej = [not (r.ci_lo <= 0.0 <= r.ci_hi) for r in out.per_rep]
        assert row.type1_rate == pytest.approx(np.mean(rej))

    def test_threads_match_serial(self):
        serial = evaluate([cfg()], [DID_TWFE], reps=6, threads=1)
        pooled = evaluate([cfg()], [DID_TWFE], reps=6, threads=2)
        key = lambda r: (r.method, r.rep)
        for a, b in zip(sorted(serial.per_rep, key=key),
                        sorted(pooled.per_rep, key=key)):
            assert (a.estimate, a.se, a.truth) == (b.estimate, b.se, b.truth)
        assert [(r.bias, r.sd, r.rmse) for r in serial.rows] == \
            [(r.bias, r.sd, r.rmse) for r in pooled.rows]

    def test_csv_outputs_round_trip(self, tmp_path):
        out = evaluate([cfg()], [DID_TWFE, SCM], reps=2, force=True)
        mpath, rpath = tmp_path / "m.csv", tmp_path / "r.csv"
        out.write_metrics_csv(mpath)
        out.write_reps_csv(rpath)
        with open(mpath) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {DID_TWFE, SCM}
        byname = {r["method"]: r for r in rows}
        assert float(byname[DID_TWFE]["bias"]) == pytest.approx(
            out.rows[0].bias, rel=1e-15)
        with open(rpath) as fh:
            reps = list(csv.DictReader(fh))
        assert len(reps) == 4
        scm_rows = [r for r in reps if r["method"] == SCM]
        assert all(r["se"] == "" for r in scm_rows)  # NaN serialized empty
