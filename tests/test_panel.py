import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panelcause as pc
from helpers import COHORT_PLAN, CASE_SPEC, build_panel

CSV = """unit,time,outcome,policy
a,2000,1.0,0
a,2001,2.0,1
b,2000,1.5,0
b,2001,1.8,0
"""


def load(text, **kw):
    return pc.load_panel(io.StringIO(text), pc.ColumnSpec(**kw) if kw else pc.ColumnSpec())


def err_code(fn, *args, **kw):
    with pytest.raises(pc.PanelCauseError) as ei:
        fn(*args, **kw)
    return ei.value.code


class TestLoad:
    def test_basic(self):
        p = load(CSV)
        assert p.units == ("a", "b")
        assert p.time_labels == (2000, 2001)
        assert p.n_rows == 4
        assert p.policy.tolist() == [0, 1, 0, 0]

    def test_column_mapping(self):
        text = CSV.replace("unit", "state").replace("time", "yr")
        p = load(text, unit="state", time="yr")
        assert p.units == ("a", "b")

    def test_missing_mapped_column(self):
        assert err_code(load, CSV, unit="nope") == "CONFIG_ERROR"

    def test_empty_file(self):
        assert err_code(load, "") == "NO_ROWS"

    def test_header_only(self):
        assert err_code(load, "unit,time,outcome,policy\n") == "NO_ROWS"

    def test_unparseable_outcome_locates_cell(self):
        bad = CSV.replace("1.8", "oops")
        with pytest.raises(pc.PanelCauseError) as ei:
            load(bad)
        assert ei.value.code == "UNPARSEABLE_CELL"
        assert "row 5" in str(ei.value) and "outcome" in str(ei.value)

    def test_blank_outcome_is_missing(self):
        p = load(CSV.replace("1.8", ""))
        assert p.has_missing and p.missing_cell_count() == 1

    def test_blank_policy_rejected(self):
        assert err_code(load, CSV.replace("2001,1.8,0", "2001,1.8,")) == \
            "UNPARSEABLE_CELL"

    def test_non_binary_policy(self):
        assert err_code(load, CSV.replace("2.0,1", "2.0,2")) == "NON_BINARY_POLICY"

    def test_duplicate_key(self):
        assert err_code(load, CSV + "b,2001,9.9,0\n") == "DUPLICATE_KEY"

    def test_policy_reversal(self):
        text = ("unit,time,outcome,policy\n"
                "a,1,1.0,1\na,2,1.0,0\n")
        assert err_code(load, text) == "POLICY_REVERSAL"

    def test_first_reversing_unit_named(self):
        # b and d switch back to 0, rows shuffled; message recorded from the
        # per-unit loop this check replaced
        units = ["a", "b", "c", "d"]
        pol = {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1], "c": [0, 0, 0, 0],
               "d": [1, 1, 0, 0]}
        rows = [(i, t, pol[u][t]) for i, u in enumerate(units) for t in range(4)]
        ui, ti, policy = np.array(rows)[np.random.default_rng(5).permutation(16)].T
        with pytest.raises(pc.PanelCauseError) as ei:
            pc.PanelDataset(units, range(4), ui, ti, np.zeros(16), policy)
        assert str(ei.value) == ("POLICY_REVERSAL: unit 'b' switches policy "
                                 "from 1 back to 0")

    def test_fractional_time_rejected(self):
        assert err_code(load, CSV.replace("a,2000", "a,2000.5", 1)) == \
            "UNPARSEABLE_CELL"

    def test_auto_covariates_numeric_only(self):
        text = ("unit,time,outcome,policy,pop,color\n"
                "a,1,1.0,0,5.0,red\n"
                "a,2,1.0,0,6.0,blue\n")
        p = load(text)
        assert set(p.covariates) == {"pop"}

    def test_explicit_covariates_strict(self):
        text = ("unit,time,outcome,policy,pop\n"
                "a,1,1.0,0,x\n")
        assert err_code(load, text, covariates=("pop",)) == "UNPARSEABLE_CELL"

    def test_time_grid_uses_gcd_step(self):
        text = ("unit,time,outcome,policy\n"
                "a,2000,1.0,0\na,2004,2.0,0\na,2006,3.0,0\n")
        p = load(text)
        assert p.time_labels == (2000, 2002, 2004, 2006)
        # the never-observed 2002 column is all-missing in the dense grid
        assert np.isnan(p.outcome_matrix()[0, 1])

    def test_roundtrip_write_read(self, tmp_path):
        p = load(CSV.replace("1.8", ""))  # include a missing cell
        dest = tmp_path / "out.csv"
        p.write_csv(str(dest))
        p2 = pc.load_panel(str(dest))
        assert p2.units == p.units
        assert p2.time_labels == p.time_labels
        np.testing.assert_array_equal(p2.policy, p.policy)
        np.testing.assert_allclose(p2.outcome, p.outcome, equal_nan=True)


class TestAdoption:
    def test_schedule(self):
        p = load(CSV)
        s = pc.derive_adoption(p)
        assert s.adoption_time == {"a": 1, "b": pc.NEVER}
        assert s.cohorts == {1: ("a",)}
        assert s.never_treated == ("b",)
        assert s.timing_class == "SINGLE_TREATED"

    def test_timing_classes(self):
        T = 4
        flat = {u: [0.0] * T for u in "abcd"}
        assert pc.derive_adoption(build_panel(list("abcd"), T, {}, flat)) \
            .timing_class == "NO_TREATED"
        assert pc.derive_adoption(
            build_panel(list("abcd"), T, {"a": 2, "b": 2}, flat)) \
            .timing_class == "SIMULTANEOUS"
        assert pc.derive_adoption(
            build_panel(list("abcd"), T, {"a": 1, "b": 2}, flat)) \
            .timing_class == "STAGGERED"

    def test_cumulative_counts(self):
        flat = {u: [0.0] * 5 for u in "abcde"}
        p = build_panel(list("abcde"), 5, {"a": 1, "b": 1, "c": 3}, flat)
        s = pc.derive_adoption(p)
        assert pc.cumulative_adoption_counts(s, range(5)) == [0, 2, 2, 3, 3]


class TestCaseStudyFixture:
    def test_cohort_sizes_and_never(self, case_panel):
        s = pc.derive_adoption(case_panel)
        sizes = {case_panel.label_of(g): n for g, n in s.cohort_sizes().items()}
        assert sizes == COHORT_PLAN
        assert len(s.never_treated) == 6
        assert len(s.treated_units) == 44
        assert s.timing_class == "STAGGERED"

    def test_cumulative_with_policy(self, case_panel):
        s = pc.derive_adoption(case_panel)
        counts = pc.cumulative_adoption_counts(s, range(case_panel.time_count))
        by_year = dict(zip(case_panel.time_labels, counts))
        assert [by_year[y] for y in range(2010, 2018)] == \
            [1, 1, 1, 2, 10, 18, 34, 44]

    def test_shape(self, case_panel):
        assert case_panel.unit_count == 50
        assert case_panel.time_labels == tuple(range(1999, 2018))


class TestBalance:
    def test_balanced_passthrough(self):
        p = load(CSV)
        p2, rep = pc.balance_panel(p)
        assert rep.is_balanced
        assert rep.missing_cells == 0
        assert p2.n_rows == p.n_rows

    def test_common_window_trim(self):
        text = ("unit,time,outcome,policy\n"
                "a,1,1.0,0\na,2,1.0,0\na,3,1.0,0\n"
                "b,2,1.0,0\nb,3,1.0,0\n")
        p = load(text)
        p2, rep = pc.balance_panel(p)
        assert p2.time_labels == (2, 3)
        assert p2.n_rows == 4
        assert rep.is_balanced  # report describes the trimmed panel

    def test_interior_missing(self):
        text = ("unit,time,outcome,policy\n"
                "a,1,1.0,0\na,2,,0\na,3,1.0,0\n"
                "b,1,1.0,0\nb,2,1.0,0\nb,3,1.0,0\n")
        p = load(text)
        assert err_code(pc.balance_panel, p) == "INTERIOR_MISSING"
        _, rep = pc.balance_panel(p, mode="UNBALANCED")
        assert rep.missing_cells == 1

    def test_empty_intersection(self):
        text = ("unit,time,outcome,policy\n"
                "a,1,1.0,0\na,2,1.0,0\n"
                "b,5,1.0,0\nb,6,1.0,0\n")
        assert err_code(pc.balance_panel, load(text)) == "EMPTY_INTERSECTION"


class TestSubset:
    def test_subset_renormalizes(self):
        flat = {u: list(range(6)) for u in "abc"}
        p = build_panel(list("abc"), 6, {"a": 3}, flat)
        sub = p.subset(units=["a", "b"], time_window=(2, 4))
        assert sub.units == ("a", "b")
        assert sub.time_labels == (2, 3, 4)
        assert sub.n_rows == 6

    def test_subset_empty(self):
        p = load(CSV)
        assert err_code(p.subset, units=["a"], time_window=(5, 9)) == "NO_ROWS"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=2,
                max_size=8, unique=True),
       st.integers(min_value=1, max_value=7))
def test_time_normalization_property(labels, scale):
    """Scaled integer labels land on a grid whose step divides every gap."""
    labels = sorted(x * scale for x in labels)
    rows = ["unit,time,outcome,policy"]
    rows += [f"a,{t},1.0,0" for t in labels]
    p = load("\n".join(rows) + "\n")
    assert p.time_labels[0] == labels[0]
    assert p.time_labels[-1] == labels[-1]
    step = p.time_labels[1] - p.time_labels[0]
    assert all(b - a == step for a, b in zip(p.time_labels, p.time_labels[1:]))
    assert all((t - labels[0]) % step == 0 for t in labels)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=10))
def test_reversal_detection_property(bits):
    rows = ["unit,time,outcome,policy"]
    rows += [f"a,{t},1.0,{b}" for t, b in enumerate(bits)]
    text = "\n".join(rows) + "\n"
    has_reversal = any(a > b for a, b in zip(bits, bits[1:]))
    if has_reversal:
        assert err_code(load, text) == "POLICY_REVERSAL"
    else:
        p = load(text)
        assert p.policy.tolist() == bits
