import itertools

import pytest

import panelcause as pc
from panelcause.advisor import (ALL_METHODS, ASCM, CITS, DEBIASED_AR,
                                DID_TWFE, EVENT_STUDY, GROUP_TIME_DID,
                                IMPUTATION_DID, ITS, ITS_MULTI_BASELINE,
                                METHODS, SCM, STAGGERED_ASCM, DesignFeatures,
                                derive_features, recommend)
from helpers import build_panel


def features(n_treated=1, n_control=2, timing="SINGLE_TREATED",
             cohort_sizes=None, pre=4, post=4, missing=False, singles=0):
    return DesignFeatures(n_treated, n_control, timing,
                          cohort_sizes or {3: n_treated}, pre, post,
                          missing, singles)


def viable(**kw):
    return set(recommend(features(**kw)).viable)


class TestRuleTable:
    def test_no_treated_is_an_error(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            recommend(features(n_treated=0, timing="NO_TREATED"))
        assert ei.value.code == "NO_TREATED_UNITS"

    def test_staggered_without_controls(self):
        assert viable(n_treated=5, n_control=0, timing="STAGGERED",
                      cohort_sizes={2: 2, 4: 3}) == {ITS_MULTI_BASELINE}

    def test_staggered_with_controls(self):
        assert viable(n_treated=5, n_control=3, timing="STAGGERED",
                      cohort_sizes={2: 2, 4: 3}) == \
            {GROUP_TIME_DID, IMPUTATION_DID, DEBIASED_AR, STAGGERED_ASCM}

    def test_single_cohort_without_controls(self):
        assert viable(n_treated=1, n_control=0) == {ITS}
        assert viable(n_treated=4, n_control=0, timing="SIMULTANEOUS",
                      cohort_sizes={3: 4}) == {ITS}

    def test_single_treated_with_donor_pool(self):
        assert viable(n_treated=1, n_control=5) == \
            {SCM, ASCM, DID_TWFE, EVENT_STUDY, CITS}

    def test_single_treated_one_control(self):
        assert viable(n_treated=1, n_control=1) == \
            {DID_TWFE, EVENT_STUDY, CITS}

    def test_simultaneous_with_controls(self):
        assert viable(n_treated=4, n_control=3, timing="SIMULTANEOUS",
                      cohort_sizes={3: 4}) == {DID_TWFE, EVENT_STUDY, CITS}

    def test_every_method_id_always_present(self):
        rec = recommend(features())
        assert set(rec.methods) == set(ALL_METHODS)
        assert tuple(rec.viable) == tuple(
            m for m in ALL_METHODS if rec.methods[m].viable)

    def test_every_method_reachable(self):
        reached = set()
        cases = [
            dict(n_treated=1, n_control=0),
            dict(n_treated=1, n_control=5),
            dict(n_treated=4, n_control=3, timing="SIMULTANEOUS",
                 cohort_sizes={3: 4}),
            dict(n_treated=5, n_control=0, timing="STAGGERED",
                 cohort_sizes={2: 2, 4: 3}),
            dict(n_treated=5, n_control=3, timing="STAGGERED",
                 cohort_sizes={2: 2, 4: 3}),
        ]
        for kw in cases:
            reached |= viable(**kw)
        assert reached == set(ALL_METHODS)

    def test_nonviable_methods_carry_reason_codes(self):
        rec = recommend(features(n_treated=5, n_control=3, timing="STAGGERED",
                                 cohort_sizes={2: 2, 4: 3}))
        codes = {m: rec.methods[m].reasons[0][0] for m in ALL_METHODS
                 if not rec.methods[m].viable}
        assert codes[ITS] == "STAGGERED_INPUT"
        assert codes[DID_TWFE] == "STAGGERED_INPUT"
        assert codes[EVENT_STUDY] == "STAGGERED_INPUT"
        assert codes[CITS] == "STAGGERED_INPUT"
        assert codes[SCM] == "TOO_MANY_TREATED"
        assert codes[ASCM] == "TOO_MANY_TREATED"
        assert codes[ITS_MULTI_BASELINE] == "NOT_APPLICABLE"
        rec2 = recommend(features(n_treated=1, n_control=0))
        assert rec2.methods[DID_TWFE].reasons[0][0] == "NO_CONTROL"
        assert rec2.methods[GROUP_TIME_DID].reasons[0][0] == "NO_CONTROL"
        assert rec2.methods[SCM].reasons[0][0] == "TOO_FEW_DONORS"
        rec3 = recommend(features(n_treated=4, n_control=3,
                                  timing="SIMULTANEOUS", cohort_sizes={3: 4}))
        assert rec3.methods[GROUP_TIME_DID].reasons[0][0] == "NOT_STAGGERED"
        assert rec3.methods[ITS_MULTI_BASELINE].reasons[0][0] == "NOT_STAGGERED"
        assert rec3.methods[ITS].reasons[0][0] == "NOT_APPLICABLE"

    def test_viable_methods_have_no_reasons(self):
        rec = recommend(features(n_treated=1, n_control=5))
        for m in rec.viable:
            assert rec.methods[m].reasons == ()

    def test_removing_controls_never_adds_comparison_methods(self):
        comparison = {SCM, ASCM, DID_TWFE, EVENT_STUDY, CITS,
                      GROUP_TIME_DID, IMPUTATION_DID, DEBIASED_AR,
                      STAGGERED_ASCM}
        for timing, n_treated, sizes in [
                ("SINGLE_TREATED", 1, {3: 1}),
                ("SIMULTANEOUS", 4, {3: 4}),
                ("STAGGERED", 5, {2: 2, 4: 3})]:
            for n_control in (0, 1, 2, 5):
                with_c = viable(n_treated=n_treated, n_control=n_control,
                                timing=timing, cohort_sizes=sizes)
                without = viable(n_treated=n_treated, n_control=0,
                                 timing=timing, cohort_sizes=sizes)
                assert (without & comparison) <= (with_c & comparison)

    def test_determinism(self):
        f = features(n_treated=5, n_control=3, timing="STAGGERED",
                     cohort_sizes={2: 2, 4: 3})
        assert recommend(f).viable == recommend(f).viable


# (viable, first reason code) of every method, in ALL_METHODS order, over
# each timing class x n_treated x n_control, recorded from the two-function
# rule table this one replaced, but for ASCM at two controls (its ridge CV
# leaves one donor out, so it needs three) and STAGGERED_ASCM at one (its
# cohort fits need two donors, scm.MIN_DONORS). "+" is viable; the rest
# abbreviate codes.
REASON_ABBREV = {"NA": "NOT_APPLICABLE", "NS": "NOT_STAGGERED",
                 "TMT": "TOO_MANY_TREATED", "TFD": "TOO_FEW_DONORS",
                 "NC": "NO_CONTROL", "SI": "STAGGERED_INPUT"}
PINNED_RULE_TABLE = """
SINGLE_TREATED 0 0  +   NS  TMT TMT NC  NC  NC  NC  NC  NC  NC
SINGLE_TREATED 0 1  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SINGLE_TREATED 0 2  NA  NS  +   TMT +   +   +   NS  NS  NS  NS
SINGLE_TREATED 0 5  NA  NS  +   +   +   +   +   NS  NS  NS  NS
SINGLE_TREATED 1 0  +   NS  TFD TFD NC  NC  NC  NC  NC  NC  NC
SINGLE_TREATED 1 1  NA  NS  TFD TFD +   +   +   NS  NS  NS  NS
SINGLE_TREATED 1 2  NA  NS  +   TFD +   +   +   NS  NS  NS  NS
SINGLE_TREATED 1 5  NA  NS  +   +   +   +   +   NS  NS  NS  NS
SINGLE_TREATED 2 0  +   NS  TMT TMT NC  NC  NC  NC  NC  NC  NC
SINGLE_TREATED 2 1  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SINGLE_TREATED 2 2  NA  NS  +   TMT +   +   +   NS  NS  NS  NS
SINGLE_TREATED 2 5  NA  NS  +   +   +   +   +   NS  NS  NS  NS
SINGLE_TREATED 5 0  +   NS  TMT TMT NC  NC  NC  NC  NC  NC  NC
SINGLE_TREATED 5 1  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SINGLE_TREATED 5 2  NA  NS  +   TMT +   +   +   NS  NS  NS  NS
SINGLE_TREATED 5 5  NA  NS  +   +   +   +   +   NS  NS  NS  NS
SIMULTANEOUS   0 0  +   NS  TMT TMT NC  NC  NC  NC  NC  NC  NC
SIMULTANEOUS   0 1  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   0 2  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   0 5  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   1 0  +   NS  TFD TFD NC  NC  NC  NC  NC  NC  NC
SIMULTANEOUS   1 1  NA  NS  TFD TFD +   +   +   NS  NS  NS  NS
SIMULTANEOUS   1 2  NA  NS  TFD TFD +   +   +   NS  NS  NS  NS
SIMULTANEOUS   1 5  NA  NS  TFD TFD +   +   +   NS  NS  NS  NS
SIMULTANEOUS   2 0  +   NS  TMT TMT NC  NC  NC  NC  NC  NC  NC
SIMULTANEOUS   2 1  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   2 2  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   2 5  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   5 0  +   NS  TMT TMT NC  NC  NC  NC  NC  NC  NC
SIMULTANEOUS   5 1  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   5 2  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
SIMULTANEOUS   5 5  NA  NS  TMT TMT +   +   +   NS  NS  NS  NS
STAGGERED      0 0  SI  +   TMT TMT NC  NC  NC  NC  NC  NC  NC
STAGGERED      0 1  SI  NA  TMT TMT SI  SI  SI  +   +   +   TFD
STAGGERED      0 2  SI  NA  TMT TMT SI  SI  SI  +   +   +   +
STAGGERED      0 5  SI  NA  TMT TMT SI  SI  SI  +   +   +   +
STAGGERED      1 0  SI  +   TFD TFD NC  NC  NC  NC  NC  NC  NC
STAGGERED      1 1  SI  NA  TFD TFD SI  SI  SI  +   +   +   TFD
STAGGERED      1 2  SI  NA  TFD TFD SI  SI  SI  +   +   +   +
STAGGERED      1 5  SI  NA  TFD TFD SI  SI  SI  +   +   +   +
STAGGERED      2 0  SI  +   TMT TMT NC  NC  NC  NC  NC  NC  NC
STAGGERED      2 1  SI  NA  TMT TMT SI  SI  SI  +   +   +   TFD
STAGGERED      2 2  SI  NA  TMT TMT SI  SI  SI  +   +   +   +
STAGGERED      2 5  SI  NA  TMT TMT SI  SI  SI  +   +   +   +
STAGGERED      5 0  SI  +   TMT TMT NC  NC  NC  NC  NC  NC  NC
STAGGERED      5 1  SI  NA  TMT TMT SI  SI  SI  +   +   +   TFD
STAGGERED      5 2  SI  NA  TMT TMT SI  SI  SI  +   +   +   +
STAGGERED      5 5  SI  NA  TMT TMT SI  SI  SI  +   +   +   +
"""


def test_rule_table_pinned_over_design_grid():
    rows = PINNED_RULE_TABLE.strip().splitlines()
    assert len(rows) == 3 * 4 * 4
    for row in rows:
        timing, nt, nc, *cells = row.split()
        rec = recommend(features(n_treated=int(nt), n_control=int(nc),
                                 timing=timing, cohort_sizes={3: int(nt)}))
        got = ["+" if rec.methods[m].viable else rec.methods[m].reasons[0][0]
               for m in ALL_METHODS]
        want = [c if c == "+" else REASON_ABBREV[c] for c in cells]
        assert got == want, row
    for nt, nc in itertools.product((0, 1, 2, 5), repeat=2):
        with pytest.raises(pc.PanelCauseError) as ei:
            recommend(features(n_treated=nt, n_control=nc, timing="NO_TREATED"))
        assert ei.value.code == "NO_TREATED_UNITS"


class TestCautions:
    def test_missing_data(self):
        rec = recommend(features(missing=True))
        for m in rec.viable:
            assert ("MISSING_DATA" in
                    {c for c, _ in rec.methods[m].cautions})

    def test_few_pre_periods(self):
        rec = recommend(features(pre=1))
        assert any(c == "FEW_PRE_PERIODS"
                   for c, _ in rec.methods[DID_TWFE].cautions)
        rec_ok = recommend(features(pre=2))
        assert not any(c == "FEW_PRE_PERIODS"
                       for c, _ in rec_ok.methods[DID_TWFE].cautions)

    def test_singleton_cohort_only_for_cohort_methods(self):
        rec = recommend(features(n_treated=3, n_control=3, timing="STAGGERED",
                                 cohort_sizes={2: 1, 4: 2}, singles=1))
        assert any(c == "SINGLETON_COHORT"
                   for c, _ in rec.methods[GROUP_TIME_DID].cautions)
        assert any(c == "SINGLETON_COHORT"
                   for c, _ in rec.methods[STAGGERED_ASCM].cautions)
        assert not any(c == "SINGLETON_COHORT"
                       for c, _ in rec.methods[DEBIASED_AR].cautions)

    @pytest.mark.parametrize("n_control, flagged", [
        (0, {ITS_MULTI_BASELINE}),
        (3, {GROUP_TIME_DID, IMPUTATION_DID, STAGGERED_ASCM})])
    def test_singleton_cohort_marks_the_viable_by_cohort_methods(
            self, n_control, flagged):
        rec = recommend(features(n_treated=3, n_control=n_control,
                                 timing="STAGGERED", cohort_sizes={2: 1, 4: 2},
                                 singles=1))
        got = {m for m in rec.viable
               if "SINGLETON_COHORT" in {c for c, _ in rec.methods[m].cautions}}
        assert got == {m for m in rec.viable if METHODS[m].by_cohort} == flagged

    def test_single_cluster_inference(self):
        rec = recommend(features(n_treated=1, n_control=5))
        for m in (DID_TWFE, EVENT_STUDY, CITS):
            assert any(c == "SINGLE_CLUSTER_INFERENCE"
                       for c, _ in rec.methods[m].cautions), m
        for m in (SCM, ASCM):
            assert not any(c == "SINGLE_CLUSTER_INFERENCE"
                           for c, _ in rec.methods[m].cautions), m

    def test_nonviable_methods_carry_no_cautions(self):
        rec = recommend(features(missing=True, pre=1))
        for m in ALL_METHODS:
            if not rec.methods[m].viable:
                assert rec.methods[m].cautions == ()


class TestMetadata:
    def test_heterogeneity_flags(self):
        rec = recommend(features(n_treated=5, n_control=3, timing="STAGGERED",
                                 cohort_sizes={2: 2, 4: 3}))
        gt = rec.methods[GROUP_TIME_DID]
        assert gt.heterogeneity_by_time and gt.heterogeneity_by_cohort
        ar = rec.methods[DEBIASED_AR]
        assert not ar.heterogeneity_by_time and not ar.heterogeneity_by_cohort

    def test_assumptions_nonempty_and_stable(self):
        rec = recommend(features())
        for m in ALL_METHODS:
            assert rec.methods[m].assumptions
            assert "consistency" in rec.methods[m].assumptions
        assert "parallel trends" in rec.methods[DID_TWFE].assumptions
        assert "parallel trends" not in rec.methods[CITS].assumptions


class TestDeriveFeatures:
    def test_from_panel(self):
        flat = {u: [float(t) for t in range(8)] for u in "abcdef"}
        p = build_panel(list("abcdef"), 8, {"a": 2, "b": 2, "c": 5}, flat)
        f = derive_features(p)
        assert f.n_treated == 3
        assert f.n_control == 3
        assert f.timing_class == "STAGGERED"
        assert f.cohort_sizes == {2: 2, 5: 1}
        assert f.pre_periods_min == 2
        assert f.post_periods_min == 3
        assert not f.has_missing
        assert f.singleton_cohorts == 1

    def test_cohort_sizes_use_time_labels(self):
        flat = {u: [0.0] * 5 for u in "ab"}
        p = build_panel(["a", "b"], 5, {"a": 2, "b": 3}, flat,
                        time_labels=[2000, 2002, 2004, 2006, 2008])
        f = derive_features(p)
        assert f.cohort_sizes == {2004: 1, 2006: 1}

    def test_missing_flag(self):
        flat = {u: [0.0] * 5 for u in "ab"}
        flat["a"][3] = float("nan")
        p = build_panel(["a", "b"], 5, {"b": 2}, flat)
        assert derive_features(p).has_missing

    def test_case_study_recommends_staggered_set(self, case_panel):
        rec = pc.recommend_for_panel(case_panel)
        assert set(rec.viable) == {GROUP_TIME_DID, IMPUTATION_DID,
                                   DEBIASED_AR, STAGGERED_ASCM}
        assert rec.features.n_treated == 44
        assert rec.features.n_control == 6


def test_full_grid_never_crashes_and_always_offers_something():
    timings = [("SINGLE_TREATED", 1, {3: 1}),
               ("SIMULTANEOUS", 3, {3: 3}),
               ("STAGGERED", 4, {2: 2, 4: 2})]
    for (timing, nt, sizes), nc, pre, missing in itertools.product(
            timings, (0, 1, 2, 4), (0, 1, 2, 5), (False, True)):
        v = viable(n_treated=nt, n_control=nc, timing=timing,
                   cohort_sizes=sizes, pre=pre, missing=missing)
        assert v, (timing, nc, pre, missing)
