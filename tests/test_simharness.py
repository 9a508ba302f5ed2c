import contextlib
import csv
import dataclasses
import hashlib
import json
import sys
import warnings

import numpy as np
import pytest

import panelcause as pc
import panelcause.simharness as sh
from panelcause import advisor as adv
from panelcause import linreg
from panelcause.advisor import (ASCM, CITS, DEBIASED_AR, DID_TWFE, EVENT_STUDY,
                                GROUP_TIME_DID, ITS, SCM)
from panelcause.simharness import (DgpConfig, TruthRecord, evaluate,
                                   simulate_panel)


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


# simulate_panel(config, 2) for each effect kind × confounding mode: sha256 of
# outcome.tobytes() and policy.tobytes(), and the TruthRecord, recorded when
# the generator still filled the effect one cell at a time. The documented
# "bit-identical per (seed, rep)" holds across versions, not only reruns.
PINNED_EFFECTS = {
    "constant": {"kind": "constant", "delta": 1.3},
    "dynamic": {"kind": "dynamic", "base": 0.3, "slope": 0.1},
    "cohort": {"kind": "cohort", "deltas": {3: 0.7, 6: -1.9}},
}
PINNED_POLICY = {
    "none": "7d305ba9f1574a4763de0cdcfbbdc52c54034e69f6fb660b265c40caf0360e08",
    "intercept": "9c7847c1c88506c9e91cf50609b4158d83a0fab8d325d604b0a83bb30931432b",
    "trend": "2d8c81f05cb47319e19d68c30c3160dbf8b8928e412723ee19b6fecf72592bdf",
}


def _cohort_event(early):
    return {0: early, 1: early, 2: early, 3: 0.7, 4: 0.7, 5: 0.7}


CONSTANT = ({k: 1.3 for k in range(6)}, {3: 1.3, 6: 1.3})
DYNAMIC = ({0: 0.3, 1: 0.39999999999999997, 2: 0.5, 3: 0.6000000000000001, 4: 0.7,
            5: 0.8}, {3: 0.5499999999999999, 6: 0.4})
COHORT = {3: 0.6999999999999998, 6: -1.8999999999999997}
# (outcome sha256, truth's att_overall, by_event, by_cohort)
PINNED_DGP = {
    ("constant", "none"): (
        "2c94d49908727ce4847647c437b96585da0a759a423caf6f4256c4d3e58be4a0", 1.3, *CONSTANT),
    ("constant", "intercept"): (
        "b2f641cafbe8c7bc50d40aee286416ffd11bcfd2393e8efbcc1f83dbb3078d9a", 1.3, *CONSTANT),
    ("constant", "trend"): (
        "971a1d87b100bcd71b827b2b585c9488acee10ca136a4b6db6c00faa748634dc", 1.3, *CONSTANT),
    ("dynamic", "none"): (
        "3cf342bda6c8c51743a955ec01924045ce8bfc95a3d03fe0bbd05f520f84ff04",
        0.509090909090909, *DYNAMIC),
    ("dynamic", "intercept"): (
        "70c15727779b794d5b5713ba1b23d3e339b6a3df07538e5d715eef742c5730ea",
        0.5090909090909091, *DYNAMIC),
    ("dynamic", "trend"): (
        "59b0c2f8d6e10c4f797dfa5be0647d7dbcf2e53a4fdc540f198b0404b4a0fa29",
        0.5090909090909091, *DYNAMIC),
    ("cohort", "none"): (
        "96f9421b1510e3951ccdc10c46734c2f28b3c5c39f8112c87afb759a17c5deb1",
        -0.009090909090909153, _cohort_event(-0.41428571428571426), COHORT),
    ("cohort", "intercept"): (
        "101095f15ba78b1c4984b280ee58f881d70d1a851075f9913ad7fbeae7dd8a0c",
        -0.009090909090909038, _cohort_event(-0.4142857142857142), COHORT),
    ("cohort", "trend"): (
        "974372b2d00c19fdf906ba70a2ce6f9afc83f1d7bea7116967f6254acc7ed105",
        -0.009090909090909078, _cohort_event(-0.4142857142857142), COHORT),
}
PINNED_ADOPTERS = {     # unit number -> adoption period; the other units never adopt
    "none": {0: 3, 1: 3, 2: 3, 3: 3, 4: 6, 5: 6, 6: 6},
    "intercept": {1: 6, 4: 3, 5: 3, 6: 6, 9: 6, 12: 3, 13: 3},
    "trend": {1: 3, 2: 3, 3: 6, 4: 3, 6: 6, 9: 6, 13: 3},
}


@pytest.mark.parametrize("kind,confounding", sorted(PINNED_DGP))
def test_generator_pinned_bit_for_bit(kind, confounding):
    c = DgpConfig(n_units=14, n_periods=9, cohorts={3: 4, 6: 3},
                  effect=PINNED_EFFECTS[kind], trend=0.05, ar_coef=0.4,
                  confounding=confounding, seed=11)
    panel, truth = simulate_panel(c, rep=2)
    outcome_sha, *truth_values = PINNED_DGP[(kind, confounding)]
    assert hashlib.sha256(panel.outcome.tobytes()).hexdigest() == outcome_sha
    assert hashlib.sha256(panel.policy.tobytes()).hexdigest() == \
        PINNED_POLICY[confounding]
    adopters = PINNED_ADOPTERS[confounding]
    assert truth == TruthRecord(
        *truth_values, {f"u{i:03d}": adopters.get(i) for i in range(14)})


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

    def test_config_without_adopters_skips_without_losing_others(self):
        null = DgpConfig(n_units=10, n_periods=8, cohorts={})
        out = evaluate([cfg(), null], [DID_TWFE], reps=2)
        assert ("cfg1", DID_TWFE, "NO_TREATED_UNITS") in out.skipped
        assert [r.config for r in out.rows] == ["base"]

    def test_forced_config_without_adopters_counts_rep_errors(self):
        null = DgpConfig(n_units=10, n_periods=8, cohorts={})
        out = evaluate([cfg(), null], ["DID_TWFE"], reps=2, force=True)
        assert out.skipped == []
        rows = {r.config: r for r in out.rows}
        assert rows["base"].failures == 0 and rows["base"].reps == 2
        assert rows["cfg1"].failures == rows["cfg1"].reps == 2
        errors = [r.error for r in out.per_rep if r.config == "cfg1"]
        assert errors == ["NO_VARIATION", "NO_VARIATION"]

    def test_rep_without_fixed_point_is_a_failure(self):
        # three units, five periods: rep 0's debiased AR iteration cycles
        config = DgpConfig(3, 5, cohorts={1: 1, 2: 1}, ar_coef=0.9, intercept_sd=3.0,
                           effect={"kind": "dynamic", "base": 1.0, "slope": 0.5},
                           seed=22)
        out = evaluate([config], [DEBIASED_AR], reps=8, force=True)
        raised = set()
        for r in range(8):
            try:
                pc.fit_debiased_ar(simulate_panel(config, r)[0])
            except pc.PanelCauseError as exc:
                assert exc.code == "NO_FIXED_POINT"
                raised.add(r)
        assert raised == {r.rep for r in out.per_rep if r.error == "NO_FIXED_POINT"} == {0}
        assert {r.error for r in out.per_rep} == {"", "NO_FIXED_POINT"}
        assert out.rows[0].failures == len(raised)

    def test_unknown_method_rejected(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            evaluate([cfg()], ["OLS_WITH_VIBES"], reps=1)
        assert ei.value.code == "CONFIG_ERROR"

    def test_ci_level_outside_unit_interval_rejected(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            evaluate([cfg()], [DID_TWFE], reps=1, ci_level=1.0)
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
        # the bytes of a rendering from dataclasses.asdict: NaN blank, floats by repr
        for path, recs in ((mpath, out.rows), (rpath, out.per_rep)):
            lines = [",".join(dataclasses.asdict(recs[0]))]
            lines += [",".join("" if isinstance(v, float) and np.isnan(v)
                               else repr(v) if isinstance(v, float) else str(v)
                               for v in dataclasses.asdict(r).values())
                      for r in recs]
            assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


class TestSharedMemo:
    """evaluate keeps one memo for its reps: the DGP skeleton of each
    adoption, the fixed-effects operator, the absorbed design and the
    multipliers' covariance. What it reuses must give the bits a draw or fit
    outside evaluate gives, and nothing may outlive the call."""

    METHODS = (DID_TWFE, EVENT_STUDY, GROUP_TIME_DID, CITS, DEBIASED_AR)

    @pytest.mark.parametrize("confounding", ["none", "intercept"])
    def test_reps_equal_direct_fits(self, confounding):
        # "none": one design for every rep, so reps 1 and 2 reuse rep 0's;
        # "intercept": adoption follows the intercepts, a new design per rep
        # a second, smaller config in the same call must not reuse the first's
        c = cfg(ar_coef=0.3, confounding=confounding)
        configs = {"big": c, "small": cfg(ar_coef=0.3, confounding=confounding,
                                          n_units=10, name="small", seed=8)}
        c.name = "big"
        out = evaluate(list(configs.values()), list(self.METHODS), reps=3, force=True)
        assert len(out.per_rep) == 2 * 3 * len(self.METHODS)
        for rec in out.per_rep:
            assert rec.error == "", (rec.method, rec.error)
            spec = adv.METHODS[rec.method]
            panel, _ = simulate_panel(configs[rec.config], rec.rep)
            est, se = spec.point(spec.fit(panel, (), 0.95, 0), 0.95)[:2]
            assert (rec.estimate, rec.se) == (est, se), (rec.config, rec.method, rec.rep)
        if confounding == "intercept":
            adoption = [simulate_panel(c, r)[1].adoption for r in range(3)]
            assert adoption[0] != adoption[1] != adoption[2]

    def test_reps_share_the_skeleton(self):
        c, other = cfg(), cfg(effect={"kind": "constant", "delta": 2.0})
        with linreg.shared_memo():
            (p0, t0), (p1, t1), (q, tq) = (simulate_panel(c, 0), simulate_panel(c, 1),
                                           simulate_panel(other, 0))
        for name in ("unit_idx", "time_idx", "policy"):
            shared = getattr(p0, name)
            assert shared is getattr(p1, name) and not shared.flags.writeable
            assert getattr(q, name) is not shared
            with pytest.raises(ValueError):
                shared[0] = 1
        assert pc.derive_adoption(p0) is pc.derive_adoption(p1)
        assert p0.structure_key() is p1.structure_key()
        assert t0 is t1
        assert p0.outcome.tobytes() != p1.outcome.tobytes()
        # same adoption, another effect: the draw outside any memo
        alone, truth = simulate_panel(other, 0)
        assert (q.outcome.tobytes(), tq) == (alone.outcome.tobytes(), truth)
        assert tq.att_overall == 2.0

    @pytest.mark.parametrize("kind,confounding", sorted(PINNED_DGP))
    def test_pinned_rep_through_a_shared_skeleton(self, kind, confounding):
        # reps 0 and 1 of every effect kind first: with fixed adoption rep 2
        # then reads its own kind's skeleton, never another kind's
        with linreg.shared_memo() as memo:
            for effect in PINNED_EFFECTS.values():
                c = DgpConfig(n_units=14, n_periods=9, cohorts={3: 4, 6: 3},
                              effect=effect, trend=0.05, ar_coef=0.4,
                              confounding=confounding, seed=11)
                simulate_panel(c, 0)
                simulate_panel(c, 1)
            test_generator_pinned_bit_for_bit(kind, confounding)
            if confounding == "none":
                assert len(memo.items) == len(PINNED_EFFECTS)

    def test_confounded_reps_take_their_own_schedule(self):
        c = cfg(confounding="intercept")
        with linreg.shared_memo():
            panels = [simulate_panel(c, r)[0] for r in range(3)]
        schedules = [pc.derive_adoption(p) for p in panels]
        times = [s.adoption_time for s in schedules]
        assert times[0] != times[1] != times[2] != times[0]
        for p, s in zip(panels, schedules):
            fresh = pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                                    p.outcome, p.policy)
            assert s == pc.derive_adoption(fresh)

    def test_nothing_cached_after_return(self, monkeypatch):
        seen = []
        one_rep = sh._one_rep

        def spy(*args):
            out = one_rep(*args)
            seen.append((linreg._MEMO.get(), len(linreg._MEMO.get().items)))
            return out

        monkeypatch.setattr(sh, "_one_rep", spy)
        evaluate([cfg()], [DID_TWFE, GROUP_TIME_DID], reps=2)
        assert linreg._MEMO.get() is None
        memo = seen[0][0]
        assert all(m is memo for m, _ in seen) and seen[-1][1] > 0
        assert memo.items == {}

        def boom(*args):
            seen.append(linreg._MEMO.get())
            raise RuntimeError("stop")

        monkeypatch.setattr(sh, "_one_rep", boom)
        with pytest.raises(RuntimeError):
            evaluate([cfg()], [DID_TWFE], reps=2)
        assert seen[-1] is not None and linreg._MEMO.get() is None

    def test_threads_share_the_memo_under_eviction(self):
        # a design per rep and per method overflows the memo, so threads
        # evict each other's entries; every rep must still equal the serial one
        c = cfg(ar_coef=0.3, confounding="intercept")
        methods = list(self.METHODS)
        serial = evaluate([c], methods, reps=12, force=True)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = evaluate([c], methods, reps=12, force=True, threads=4)
        finally:
            sys.setswitchinterval(switch)
        key = lambda r: (r.method, r.rep)
        assert len(pooled.per_rep) == len(serial.per_rep) == 60
        for a, b in zip(sorted(serial.per_rep, key=key),
                        sorted(pooled.per_rep, key=key)):
            assert (a.estimate, a.se, a.error) == (b.estimate, b.se, b.error)


KIND = {EVENT_STUDY: "event study plan", GROUP_TIME_DID: "group-time plan",
        DEBIASED_AR: "debiased ar plan", DID_TWFE: "twfe plan"}
PLANS = tuple(KIND.values())


def plan_panel(blank=(), adopt_late=False, x_seed=0, common=False):
    """A 16 × 10 panel with a singleton cohort and a covariate x; ``blank``
    rows get a blank outcome, ``adopt_late`` makes a never-treated unit
    adopt at t=8, and ``common`` gives every unit the same adoption."""
    cohorts = {5: 16} if common else {3: 1, 6: 5}
    p, _ = simulate_panel(DgpConfig(n_units=16, n_periods=10, cohorts=cohorts,
                                    effect={"kind": "constant", "delta": 1.0},
                                    ar_coef=0.4, seed=6), 0)
    y = p.outcome.copy()
    y[list(blank)] = np.nan
    policy = p.policy.copy()
    if adopt_late:
        policy[(p.unit_idx == 15) & (p.time_idx >= 8)] = 1
    x = np.random.default_rng(x_seed).normal(size=p.n_rows) + 0.1 * p.time_idx
    return pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx, y,
                           policy, {"x": x})


def outcome_of(fit, panel):
    """fit(panel)'s fields, with its FitResult's coefficients, names, dropped
    columns, counts and the bytes of its vcov, residuals and bread, and its
    warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = fit(panel)
    fields = {k: v for k, v in vars(est).items() if k != "fit"}
    if hasattr(est, "fit"):
        f = est.fit
        fields["fit"] = (f.coefficients, f.vcov_names, f.dropped_columns,
                         (f.n, f.rank, f.cluster_count),
                         *(a.tobytes() for a in (f.vcov, f.residuals, f.bread)))
    return fields, [str(w.message) for w in caught]


PLAN_FITS = {
    EVENT_STUDY: lambda p: pc.fit_event_study(p, ("x",), leads=3, lags=2),
    GROUP_TIME_DID: lambda p: pc.fit_group_time_att(p, pc.NOT_YET_TREATED, ("x",)),
    DEBIASED_AR: lambda p: pc.fit_debiased_ar(p, ("x",), lag_order=2),
    DID_TWFE: lambda p: pc.fit_did_twfe(p, ("x",)),
}


class TestPlans:
    """The event-study, group-time and debiased AR fits take the part that
    does not read the outcome's values, their plan, from the shared memo.
    A fit served by a kept plan must give the bits and the warnings of one
    that builds its own, and a plan must never serve another panel."""

    @pytest.mark.parametrize("method,panel", [
        (EVENT_STUDY, plan_panel()),
        # blank outcome cells and a singleton cohort, whose warning the
        # second call must give too
        (GROUP_TIME_DID, plan_panel(blank=(9, 33, 71))),
        (DEBIASED_AR, plan_panel()),
        (DEBIASED_AR, plan_panel(common=True)),
        (DID_TWFE, plan_panel()),
    ])
    def test_a_hit_gives_the_bits_of_a_miss(self, method, panel):
        fit = PLAN_FITS[method]
        alone = outcome_of(fit, panel)
        kind = KIND[method]
        with linreg.shared_memo() as memo:
            first, again = outcome_of(fit, panel), outcome_of(fit, panel)
            (plan,) = [v for k, v in memo.items.items() if k[0] == kind]
        assert first == again == alone
        assert (memo.misses[kind], memo.hits[kind]) == (1, 1)
        if method == GROUP_TIME_DID:
            assert sum("SINGLETON_COHORT" in w for w in again[1]) == 1
        if method == DEBIASED_AR:
            # common adoption puts policy in the period span: the dense path
            assert plan.absorbed != (panel.policy_matrix().min(axis=0) == 1).any()

    @pytest.mark.parametrize("method", sorted(PLAN_FITS))
    def test_each_panel_reads_its_own_plan(self, method):
        # panels that differ from the first only in adoption, in blank
        # outcome cells or in covariate values, fit in turn in one memo
        # (a cell in the last period: no lag is missing for the AR)
        panels = [plan_panel(), plan_panel(adopt_late=True), plan_panel(blank=(29, 99)),
                  plan_panel(x_seed=1), plan_panel()]
        fit = PLAN_FITS[method]
        alone = [outcome_of(fit, p) for p in panels]
        with linreg.shared_memo() as memo:
            shared = [outcome_of(fit, p) for p in panels]
        assert shared == alone
        assert memo.hits[KIND[method]] >= 1

    def test_errors_are_never_kept(self):
        # the row after a blank cell lacks its lag: both calls raise
        p = plan_panel(blank=(23,))
        with linreg.shared_memo() as memo:
            for _ in range(2):
                with pytest.raises(pc.PanelCauseError) as exc:
                    pc.fit_debiased_ar(p)
                assert exc.value.code == "MISSING_LAG"
        assert (memo.misses[KIND[DEBIASED_AR]], memo.hits[KIND[DEBIASED_AR]]) == (2, 0)

    def test_jackknife_folds_stay_out_of_the_memo(self):
        # one fold per unit through a 16-entry memo would evict the rest
        p = plan_panel()
        alone = pc.fit_debiased_ar(p, ("x",), jackknife=True).gamma_se_jackknife
        with linreg.shared_memo() as plain:
            pc.fit_debiased_ar(p, ("x",))
            entries = len(plain.items)
        with linreg.shared_memo() as jack:
            est = pc.fit_debiased_ar(p, ("x",), jackknife=True)
            assert len(jack.items) == entries == 1
        assert jack.misses == plain.misses
        assert est.gamma_se_jackknife == alone

    def test_plans_are_read_only(self):
        p = plan_panel(blank=(9,))
        with linreg.shared_memo() as memo:
            for fit in PLAN_FITS.values():
                fit(p)
            plans = {k[0]: v for k, v in memo.items.items() if k[0] in PLANS}
        X, slots = plans[KIND[EVENT_STUDY]][2:4]
        cohorts, _, W, _, _ = plans[KIND[GROUP_TIME_DID]]
        ar = plans[KIND[DEBIASED_AR]]
        _, X_twfe, slots_twfe = plans[KIND[DID_TWFE]]
        arrays = [X.data, *X.qr, X.r_inv, X.bread, slots, W,
                  *(a for cohort in cohorts for a in cohort[1:]), *ar.rows,
                  *(v for v in vars(ar).values() if isinstance(v, np.ndarray)),
                  X_twfe.data, *X_twfe.qr, X_twfe.r_inv, X_twfe.bread, slots_twfe]
        assert len(arrays) == 7 + 5 * len(cohorts) + 5 + 8 + 6
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_event_study_lead_columns_are_read_only(self):
        with linreg.shared_memo() as memo:
            PLAN_FITS[EVENT_STUDY](plan_panel())
            (plan,) = [v for k, v in memo.items.items() if k[0] == KIND[EVENT_STUDY]]
        lead_at = plan[-1]
        assert len(lead_at) and not lead_at.flags.writeable

    @pytest.mark.parametrize("confounding", ["none", "intercept"])
    def test_memo_counts_the_plans(self, monkeypatch, confounding):
        # fixed adoption: each plan is built by rep 0 and read by reps 1 and
        # 2; adoption drawn per rep: each rep builds its own
        memos = spy_on_memos(monkeypatch)
        evaluate([cfg(ar_coef=0.3, confounding=confounding)],
                 [DID_TWFE, EVENT_STUDY, GROUP_TIME_DID, DEBIASED_AR], reps=3, force=True)
        (memo,) = memos
        want = (1, 2) if confounding == "none" else (3, 0)
        assert {k: (memo.misses[k], memo.hits[k]) for k in PLANS} == dict.fromkeys(PLANS, want)

    def test_reps_with_other_blank_cells_equal_fresh_fits(self, monkeypatch):
        # fixed adoption, and the reps blank no cell or one of two sets of
        # last-period cells (no AR lag is lost): each set of blanks keys its
        # own plan of each kind, and every rep equals a fit of its panel alone.
        # The third set comes last: 3 × 4 plans would overflow the memo
        a, b = [7, 5 * 8 + 7], [2 * 8 + 7, 9 * 8 + 7]
        blanks = [[], a, [], a, b, b]
        real = sh.simulate_panel

        def blanked(config, rep):
            panel, truth = real(config, rep)
            y = panel.outcome.copy()
            y[blanks[rep]] = np.nan
            return panel.with_outcome(y), truth

        memos = spy_on_memos(monkeypatch)
        monkeypatch.setattr(sh, "simulate_panel", blanked)
        c = cfg(ar_coef=0.3)
        out = evaluate([c], [DID_TWFE, EVENT_STUDY, GROUP_TIME_DID, DEBIASED_AR], reps=6,
                       force=True)
        (memo,) = memos
        assert {k: (memo.misses[k], memo.hits[k]) for k in PLANS} == dict.fromkeys(PLANS, (3, 3))
        for rec in out.per_rep:
            assert rec.error == "", (rec.method, rec.error)
            spec = adv.METHODS[rec.method]
            est, se = spec.point(spec.fit(blanked(c, rec.rep)[0], (), 0.95, 0), 0.95)[:2]
            assert (rec.estimate, rec.se) == (est, se), (rec.method, rec.rep)

    @pytest.mark.parametrize("method", sorted(PLAN_FITS))
    def test_no_plan_outlives_a_change_to_the_arrays(self, method):
        # a panel on writable arrays is never frozen, so it keys its plans by
        # their bytes at each fit: after its covariate changes in place, a
        # fit in the same memo builds a new plan and equals a fresh panel's
        p = plan_panel()
        x = p.covariates["x"]
        assert x.flags.writeable
        fit = PLAN_FITS[method]
        with linreg.shared_memo() as memo:
            fit(p)
            x[:] = np.random.default_rng(5).normal(size=len(x)) + 0.1 * p.time_idx
            changed = outcome_of(fit, p)
        fresh = pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                                p.outcome, p.policy, {"x": x.copy()})
        assert changed == outcome_of(fit, fresh)
        assert (memo.misses[KIND[method]], memo.hits[KIND[method]]) == (2, 0)


def spy_on_memos(monkeypatch):
    """The memos evaluate opens, in order, from here on."""
    memos, real = [], sh.shared_memo

    @contextlib.contextmanager
    def spy():
        with real() as memo:
            memos.append(memo)
            yield memo

    monkeypatch.setattr(sh, "shared_memo", spy)
    return memos
