import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panelcause as pc
from helpers import COHORT_PLAN, CASE_SPEC, build_panel
from oracles import loop_adoption, loop_subset, row_load_panel, row_write_csv

CSV = """unit,time,outcome,policy
a,2000,1.0,0
a,2001,2.0,1
b,2000,1.5,0
b,2001,1.8,0
"""


COV_CSV = """unit,time,outcome,policy,x
a,2000,1.0,0,3
a,2001,2.0,1,4
b,2000,1.5,0,5
b,2001,1.8,0,6
"""


def load(text, **kw):
    return pc.load_panel(io.StringIO(text), pc.ColumnSpec(**kw) if kw else pc.ColumnSpec())


def err_code(fn, *args, **kw):
    with pytest.raises(pc.PanelCauseError) as ei:
        fn(*args, **kw)
    return ei.value.code


def attempt(loader, text, spec):
    try:
        return loader(io.StringIO(text), spec)
    except pc.PanelCauseError as e:
        return str(e)


def assert_same_panel(a, b):
    assert a.units == b.units
    assert a.time_labels == b.time_labels
    assert all(type(t) is int for t in a.time_labels)
    for name in ("unit_idx", "time_idx", "policy", "outcome"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.outcome.tobytes() == b.outcome.tobytes()
    assert list(a.covariates) == list(b.covariates)
    for name, x in a.covariates.items():
        np.testing.assert_array_equal(x, b.covariates[name])
        assert x.tobytes() == b.covariates[name].tobytes()


def assert_same_result(new, old):
    """The same panel, or the same error string."""
    assert type(new) is type(old)
    if isinstance(old, str):
        assert new == old
    else:
        assert_same_panel(new, old)


# whitespace-only cells are blank; "1_000" and "+.5" are numbers to float()
CELLS = st.one_of(st.sampled_from(["", " ", "\t", "1_000", "+.5"]),
                  st.integers(-5, 5).map(str), st.floats(-1e3, 1e3).map(repr))
VALUES = st.one_of(st.just(math.nan), st.floats(allow_nan=False, allow_infinity=False))
UNIT_IDS = st.text('ab,"x ', min_size=1, max_size=4).filter(lambda s: s == s.strip() != "")


@st.composite
def panels(draw):
    """Panels whose every unit and period has a row, NaN cells included."""
    ids = draw(st.lists(UNIT_IDS, min_size=1, max_size=4, unique=True))
    T, step, base = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(-30, 30))
    names = draw(st.lists(st.sampled_from(["x", "pop", "a b", "x,y"]), max_size=2, unique=True))
    ui, ti, policy = [], [], []
    for u in range(len(ids)):
        ts = range(T) if u == 0 else draw(
            st.lists(st.integers(0, T - 1), min_size=1, max_size=T, unique=True))
        adopt = draw(st.integers(0, T))
        ui += [u] * len(ts)
        ti += list(ts)
        policy += [int(t >= adopt) for t in ts]
    n = len(ui)
    columns = {k: draw(st.lists(VALUES, min_size=n, max_size=n)) for k in ["outcome"] + names}
    return pc.PanelDataset(ids, range(base, base + step * T, step), ui, ti,
                           columns.pop("outcome"), policy, columns)


PAD = st.sampled_from(["", " ", "  ", "\t"])
BAD = {"time": ["x", "2.5", "inf", "nan", "", "\t", "1e400"],
       "outcome": ["oops", "inf", "-inf", "nan", "1e400"],
       "policy": ["2", "", " ", "yes", "0.5", "-1", "inf"],
       "x": ["red", "inf", "nan", "1,5", "1e400"]}
BLANK_RECORDS = st.sampled_from(["", ",,,", " , \t ,"])


@st.composite
def csv_texts(draw):
    """(CSV text, ColumnSpec): quoted and padded fields, short and overlong
    records, gapped negative time labels, auto or named covariates, up to
    three bad cells, LF or CRLF line ends and a last record with or without
    one, but no blank records and no empty unit fields."""
    def field(text):
        left, right = draw(PAD), draw(PAD)
        if "," in text or '"' in text:
            return '"' + left + text.replace('"', '""') + right + '"'
        return left + text + right

    extras = [f"x{j}" for j in range(draw(st.integers(0, 2)))]
    header = draw(st.permutations(["unit", "time", "outcome", "policy"] + extras))
    step, base = draw(st.integers(1, 5)), draw(st.integers(-20, 20))
    records = []
    for u in draw(st.lists(UNIT_IDS, min_size=1, max_size=4, unique=True)):
        adopt = draw(st.integers(0, 8))
        for k in draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True)):
            t = base + step * k
            rec = {"unit": u, "time": draw(st.sampled_from([str(t), f"{t}.0", f"{t}e0"])),
                   "outcome": draw(CELLS),
                   "policy": draw(st.sampled_from(["{}", "{}.0"])).format(int(k >= adopt))}
            records.append(rec | {x: draw(CELLS) for x in extras})
    records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 3))):
        role = draw(st.sampled_from(["time", "outcome", "policy"] + extras))
        # bad cells go to the first three records, so that they often share one
        records[draw(st.integers(0, min(len(records), 3) - 1))][role] = \
            draw(st.sampled_from(BAD.get(role, BAD["x"])))
    lines = [",".join(field(h) for h in header)]
    for rec in records:
        fields = [field(rec[h]) for h in header]
        shape = draw(st.sampled_from(["full"] * 4 + ["short", "long"]))
        if shape == "short":
            fields = fields[:draw(st.integers(header.index("unit") + 1, len(header)))]
        elif shape == "long":
            fields += ["z", " 1"][:draw(st.integers(1, 2))]
        lines.append(",".join(fields))
    covariates = draw(st.one_of(st.none(), st.just(tuple(extras)), st.lists(
        st.sampled_from(extras + ["outcome"]), unique=True).map(tuple)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""])), \
        pc.ColumnSpec(covariates=covariates)


def quoted_head(text):
    """The text with its first field quoted, which csv.reader reads the same
    but the plain split refuses."""
    i = text.index(",")
    return '"' + text[:i] + '"' + text[i:]


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

    def test_lowest_duplicate_key_named(self):
        # d at 2000 (three times), c at 2001 and b at 2002 repeat, rows
        # shuffled; message recorded from the np.unique check this replaced
        rows = [(i, t) for i in range(4) for t in range(4)] + [(3, 0), (2, 1), (1, 2), (3, 0)]
        ui, ti = np.array(rows)[np.random.default_rng(7).permutation(len(rows))].T
        with pytest.raises(pc.PanelCauseError) as ei:
            pc.PanelDataset(list("abcd"), range(2000, 2004), ui, ti, np.zeros(20), np.zeros(20))
        assert str(ei.value) == ("DUPLICATE_KEY: duplicate observation for unit 'b' "
                                 "at time 2002")

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

    def test_row_numbers_count_blank_records(self):
        text = "unit,time,outcome,policy\na,1,1.0,0\n\n\n,,,\na,2,oops,0\n"
        with pytest.raises(pc.PanelCauseError) as ei:
            load(text)
        assert str(ei.value) == ("UNPARSEABLE_CELL: cannot parse 'oops' as a "
                                 "number at row 6, column 'outcome'")

    def test_blank_records_before_header_skipped(self):
        p = load("\n , \nunit,time,outcome,policy\na,1,1.0,0\n")
        assert p.units == ("a",) and p.time_labels == (1,)

    def test_padded_quoted_unit(self):
        # spaces before the opening quote do not end the quoting
        p = load('unit,time,outcome,policy\n "Jones, OK",2000,1.0,0\n'
                 '  "Jones, OK" , 2001 ,2.0,1\n')
        assert p.units == ("Jones, OK",) and p.time_labels == (2000, 2001)

    def test_empty_unit_rejected(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            load("unit,time,outcome,policy\na,1,1.0,0\n,1,2.0,0\n")
        assert str(ei.value) == "UNPARSEABLE_CELL: empty unit field at row 3"

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + CSV.encode())
        assert_same_panel(pc.load_panel(path), load(CSV))

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_not_utf8_names_byte_offset(self, tmp_path, bom):
        # the bad byte lies past the reader's first decoded chunk
        good = (CSV + "".join(f"c,{t},1.0,0\n" for t in range(2000, 3000))).encode()
        path = tmp_path / "latin1.csv"
        path.write_bytes(bom + good + "d\xe9,2000,1.0,0\n".encode("latin-1"))
        with pytest.raises(pc.PanelCauseError) as ei:
            pc.load_panel(path)
        assert str(ei.value) == (
            f"CONFIG_ERROR: file is not UTF-8 text: byte 0xe9 at byte offset "
            f"{len(bom) + len(good) + 1} cannot be decoded")

    @pytest.mark.parametrize("as_path", [True, False])
    def test_field_past_csv_limit_names_its_record(self, tmp_path, as_path):
        # the csv module refuses fields over 131072 characters; the error is
        # coded and counts the blank record before it; without that record
        # the file is quote-free and equal-width, and is refused alike
        for blank in ["\n", ""]:
            text = CSV + blank + "d,2000," + "9" * 200_000 + ",0\n"
            path = tmp_path / "big.csv"
            path.write_text(text)
            row = CSV.count("\n") + 1 + len(blank)
            with pytest.raises(pc.PanelCauseError) as ei:
                pc.load_panel(path if as_path else io.StringIO(text, newline=""))
            assert str(ei.value) == (f"UNPARSEABLE_CELL: field larger than field "
                                     f"limit (131072) at row {row}")

    @pytest.mark.parametrize("text", [
        COV_CSV.replace("b,", "b\0,"),
        COV_CSV.replace("2.0", "2\r.0"),
        ",,,,\n" + COV_CSV,
        COV_CSV.replace(",6\n", "\n"),
        COV_CSV.replace(",6\n", ",6" + ",7" * 6 + "\n"),
    ], ids=["NUL", "lone CR", "blank first record", "short record", "long record"])
    def test_irregular_text_read_by_csv(self, tmp_path, text):
        """Text the plain split refuses reads as its quoted-header spelling
        does, which only csv.reader reads. On Python 3.10 the csv module
        refuses a NUL, on 3.11 it reads one. The long record has one field
        more than two records, so its last field sits where the next line
        end would."""
        def read(text):
            path = tmp_path / "irregular.csv"
            path.write_bytes(text.encode())
            try:
                return pc.load_panel(path)
            except pc.PanelCauseError as e:
                return str(e)

        assert_same_result(read(text), read(quoted_head(text)))

    def test_lone_cr_in_lf_stream_refused(self):
        # a stream that splits lines at LF only hands csv.reader a record
        # with a carriage return inside, which it refuses
        text = "unit,time,outcome,policy\na,1,1.0,0\rb,1,2.0,0\n"
        with pytest.raises(csv.Error) as ce:
            list(csv.reader(io.StringIO(text)))
        with pytest.raises(pc.PanelCauseError) as ei:
            pc.load_panel(io.StringIO(text))
        assert str(ei.value) == f"UNPARSEABLE_CELL: {ce.value} at row 2"

    def test_write_csv_is_utf8(self, tmp_path):
        p = pc.PanelDataset(["Zürich", "Genève"], [0], [0, 1], [0, 0], [1.0, 2.0], [0, 0])
        path = tmp_path / "utf8.csv"
        p.write_csv(path)
        assert "Zürich".encode() in path.read_bytes()
        assert pc.load_panel(path).units == p.units

    @settings(max_examples=100, deadline=None)
    @given(panels())
    def test_roundtrip_write_read(self, p):
        """write_csv matches the row writer byte for byte and reads back exactly."""
        out, ref = io.StringIO(), io.StringIO()
        p.write_csv(out)
        row_write_csv(p, ref)
        assert out.getvalue() == ref.getvalue()
        assert_same_panel(pc.load_panel(io.StringIO(out.getvalue())), p)

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_matches_row_loader(self, case):
        """Same panel, or the same error, as the record-by-record loader."""
        text, spec = case
        new, old = (attempt(f, text, spec) for f in (pc.load_panel, row_load_panel))
        assert type(new) is type(old)
        if isinstance(old, str):
            assert new == old
        else:
            assert_same_panel(new, old)

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    def test_plain_split_matches_csv_reader(self, case):
        """Same panel, or the same error, as the text with its first field
        quoted, which only csv.reader reads."""
        text, spec = case
        assert_same_result(attempt(pc.load_panel, text, spec),
                           attempt(pc.load_panel, quoted_head(text), spec))

    @settings(max_examples=200, deadline=None)
    @given(csv_texts(), st.data())
    def test_blank_records_only_shift_row_numbers(self, case, data):
        """Blank records anywhere, before the header too, give the same panel,
        or the same error with its row moved down by the blanks above it."""
        text, spec = case
        lines = text.splitlines()
        at = data.draw(st.lists(st.integers(0, len(lines)), max_size=4))
        padded = list(lines)
        for p in sorted(at, reverse=True):
            padded.insert(p, data.draw(BLANK_RECORDS))
        new = attempt(pc.load_panel, "\n".join(padded) + "\n", spec)
        old = attempt(pc.load_panel, text, spec)
        assert type(new) is type(old)
        if isinstance(old, str):
            def shift(m):
                n = int(m[1])
                return f"at row {n + sum(p < n for p in at)}"
            assert new == re.sub(r"at row (\d+)", shift, old)
        else:
            assert_same_panel(new, old)

    @settings(max_examples=100, deadline=None)
    @given(csv_texts(), st.sampled_from(["", "  ", '" "', '"\t"']),
           st.integers(0, 2), st.integers(0, 2))
    def test_blank_unit_among_fields_named(self, case, unit, before, after):
        """A record with a blank unit but other fields filled is not a blank
        record: it is the first bad cell when it follows the header."""
        text, spec = case
        head, _, body = text.partition("\n")
        record = ",".join(unit if h.strip() == "unit" else "1" for h in head.split(","))
        text = "\n" * before + head + "\n" + ",,,\n" * after + record + "\n" + body
        assert attempt(pc.load_panel, text, spec) == \
            f"UNPARSEABLE_CELL: empty unit field at row {2 + before + after}"


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_unit_loop(self, seed):
        # absent rows (NaN in the policy grid), a unit without rows, adoption
        # at period 0 and a unit whose first observed rows are treated
        rng = np.random.default_rng(seed)
        U, T = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        adopt = rng.integers(0, T + 1, U)
        ui, ti = np.nonzero(rng.random((U, T)) >= 0.3)
        p = pc.PanelDataset([f"u{i}" for i in range(U)], list(range(T)), ui, ti,
                            np.zeros(len(ui)), (ti >= adopt[ui]).astype(int))
        want = loop_adoption(p)
        s = pc.derive_adoption(p)
        assert list(s.adoption_time.items()) == list(want.items())
        assert all(type(g) is int for g in s.adoption_time.values() if g is not None)
        assert s.never_treated == tuple(u for u, g in want.items() if g is None)
        assert s.cohorts == {g: tuple(u for u, h in want.items() if h == g)
                             for g in sorted({g for g in want.values() if g is not None})}

    def test_schedule_kept_per_panel(self, tmp_path):
        flat = {u: [0.0] * 6 for u in "abc"}
        p = build_panel(list("abc"), 6, {"a": 3, "b": 2}, flat)
        s = pc.derive_adoption(p)
        assert pc.derive_adoption(p) is s
        assert pc.derive_adoption(p.with_outcome(np.ones(p.n_rows))) is s
        sub = pc.derive_adoption(p.subset(units=["a", "c"]))
        assert sub is not s and sub.cohorts == {3: ("a",)}
        p.write_csv(tmp_path / "p.csv")
        again = pc.derive_adoption(pc.load_panel(tmp_path / "p.csv"))
        assert again is not s and again == s

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


class TestWithOutcome:
    def test_shares_all_but_the_outcome(self):
        p = load(CSV)
        q = p.with_outcome([4.0, 3.0, 2.0, 1.0])
        assert q.outcome.tolist() == [4.0, 3.0, 2.0, 1.0]
        assert p.outcome.tolist() == [1.0, 2.0, 1.5, 1.8]
        assert q.outcome_matrix().tolist() == [[4.0, 3.0], [2.0, 1.0]]
        for name in ("unit_idx", "time_idx", "policy"):
            shared = getattr(q, name)
            assert shared is getattr(p, name) and not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 0

    def test_structure_key(self):
        # copies share one key; it reads the rows, policy, labels and
        # covariates but not the outcome or the unit ids, and a panel whose
        # arrays are still writable reads their bytes at every call
        p = load(CSV)
        z = np.array([0.5, 1.0, 1.5, 2.0])
        q = pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx, p.outcome,
                            p.policy, {"z": z})
        key = q.structure_key()
        z[0] = 9.0
        assert q.structure_key() != key
        z[0] = 0.5
        assert q.structure_key() == key
        q.freeze()
        assert not z.flags.writeable and q.with_outcome(p.outcome + 1).structure_key() is \
            q.structure_key() == key
        renamed = pc.PanelDataset(["x", "y"], p.time_labels, p.unit_idx, p.time_idx,
                                  -p.outcome, p.policy, {"z": z})
        assert renamed.structure_key() == key
        for labels, policy in [([float(t) for t in p.time_labels], p.policy),
                               (p.time_labels, [0, 1, 0, 1])]:
            moved = pc.PanelDataset(p.units, labels, p.unit_idx, p.time_idx, p.outcome,
                                    policy, {"z": z})
            assert moved.structure_key() != key

    @pytest.mark.parametrize("make", ["with_outcome", "constructor"])
    @pytest.mark.parametrize("shape,got", [((3,), "3 rows"), ((5,), "5 rows"),
                                           ((4, 1), "shape (4, 1)")],
                             ids=["shorter", "longer", "2-D"])
    def test_wrong_shape_refused(self, make, shape, got):
        p = load(CSV)
        with pytest.raises(pc.PanelCauseError) as ei:
            if make == "with_outcome":
                p.with_outcome(np.zeros(shape))
            else:
                pc.PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                                np.zeros(shape), p.policy)
        assert str(ei.value) == f"CONFIG_ERROR: column 'outcome' has {got}, expected 4"


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

    def test_unknown_unit(self):
        with pytest.raises(pc.PanelCauseError) as ei:
            load(CSV).subset(units=["a", "z"])
        assert str(ei.value) == "CONFIG_ERROR: unknown unit 'z'"

    @settings(max_examples=200, deadline=None)
    @given(panels(), st.data())
    def test_matches_loop_subset(self, p, data):
        """Same panel, or the same error, as the per-row lookup it replaced."""
        units = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(p.units))))
        index = st.integers(0, p.time_count - 1)
        window = data.draw(st.one_of(st.none(), st.tuples(index, index)))
        new, old = (attempt_subset(f, p, units, window)
                    for f in (pc.PanelDataset.subset, loop_subset))
        assert type(new) is type(old)
        if isinstance(old, str):
            assert new == old
        else:
            assert_same_panel(new, old)
            assert new.unit_idx.dtype == old.unit_idx.dtype


def attempt_subset(subset, p, units, window):
    try:
        return subset(p, units=units, time_window=window)
    except pc.PanelCauseError as e:
        return str(e)


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
