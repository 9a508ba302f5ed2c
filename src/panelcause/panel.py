"""Panel data model: ingestion, validation, adoption cohorts, balancing.

Data is long-format (one record per unit×time). Times are normalized to
0..T-1 on load; the original labels are kept for reporting. Policy must be
binary and absorbing within each unit (no reversals) — every estimator in
this package presumes staggered adoption semantics, so reversals fail at
the boundary instead of corrupting estimands downstream.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PanelCauseError

NEVER = None  # adoption_time value for never-treated units

NO_TREATED = "NO_TREATED"
SINGLE_TREATED = "SINGLE_TREATED"
SIMULTANEOUS = "SIMULTANEOUS"
STAGGERED = "STAGGERED"


@dataclass(frozen=True)
class ColumnSpec:
    """Maps CSV column names onto panel roles.

    ``covariates=None`` means every additional numeric column is a
    covariate; pass an explicit tuple (possibly empty) to restrict.
    """

    unit: str = "unit"
    time: str = "time"
    outcome: str = "outcome"
    policy: str = "policy"
    covariates: tuple[str, ...] | None = None


class PanelDataset:
    """Validated long-format panel.

    Attributes
    ----------
    units : tuple of unit ids, first-appearance order
    time_labels : tuple of original time labels spanning min..max at the
        observed step; normalized time t corresponds to time_labels[t]
    unit_idx, time_idx : int arrays, one entry per observed row
    outcome : float array (NaN = missing cell)
    policy : int8 array of 0/1
    covariates : dict name -> float array (NaN = missing)

    Panels from ``with_outcome`` share this panel's other arrays, read-only.
    """

    def __init__(self, units, time_labels, unit_idx, time_idx, outcome, policy,
                 covariates=None):
        self.units = tuple(units)
        self.time_labels = tuple(time_labels)
        self.unit_idx = np.asarray(unit_idx, dtype=np.intp)
        self.time_idx = np.asarray(time_idx, dtype=np.intp)
        self.outcome = np.asarray(outcome, dtype=float)
        self.policy = np.asarray(policy, dtype=np.int8)
        self.covariates = {k: np.asarray(v, dtype=float)
                           for k, v in (covariates or {}).items()}
        self._validate()
        self._outcome_mat = None
        self._policy_mat = None
        self._schedule = None

    def _validate(self):
        n = len(self.unit_idx)
        for name, arr in [("time_idx", self.time_idx),
                          ("outcome", self.outcome), ("policy", self.policy)]:
            _check_rows(f"column '{name}'", arr, n)
        for name, arr in self.covariates.items():
            _check_rows(f"covariate '{name}'", arr, n)
        bad = ~np.isin(self.policy, (0, 1))
        if bad.any():
            i = int(np.argmax(bad))
            raise PanelCauseError("NON_BINARY_POLICY",
                                  f"policy value {self.policy[i]} at row {i} is not 0/1")
        # rows in key order run by unit, then time: the first duplicate key
        # named is the lowest, and the first reversal the lowest-index unit's
        keys = self.unit_idx * len(self.time_labels) + self.time_idx
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        dup = keys[1:] == keys[:-1]
        if dup.any():
            u, t = divmod(int(keys[1:][dup.argmax()]), len(self.time_labels))
            raise PanelCauseError(
                "DUPLICATE_KEY",
                f"duplicate observation for unit '{self.units[u]}' at time {self.time_labels[t]}")
        # absorbing policy within unit
        u = self.unit_idx[order]
        back = (u[1:] == u[:-1]) & (np.diff(self.policy[order].astype(int)) < 0)
        if back.any():
            raise PanelCauseError(
                "POLICY_REVERSAL",
                f"unit '{self.units[u[1:][back.argmax()]]}' switches policy from 1 back to 0")

    # -- basic shape -------------------------------------------------------

    @property
    def unit_count(self) -> int:
        return len(self.units)

    @property
    def time_count(self) -> int:
        return len(self.time_labels)

    @property
    def n_rows(self) -> int:
        return len(self.unit_idx)

    def label_of(self, t: int):
        return self.time_labels[t]

    def with_outcome(self, outcome) -> "PanelDataset":
        """This panel with another outcome column. The copy shares the other
        arrays (made read-only), the policy grid and the adoption schedule."""
        outcome = np.asarray(outcome, dtype=float)
        _check_rows("column 'outcome'", outcome, self.n_rows)
        for a in (self.unit_idx, self.time_idx, self.policy, self.policy_matrix(),
                  *self.covariates.values()):
            a.flags.writeable = False
        new = copy.copy(self)
        new.outcome, new._outcome_mat = outcome, None
        return new

    # -- dense views ---------------------------------------------------------

    def outcome_matrix(self) -> np.ndarray:
        """unit_count × time_count outcome grid; NaN where absent or missing."""
        if self._outcome_mat is None:
            m = np.full((self.unit_count, self.time_count), np.nan)
            m[self.unit_idx, self.time_idx] = self.outcome
            self._outcome_mat = m
        return self._outcome_mat

    def policy_matrix(self) -> np.ndarray:
        """unit_count × time_count policy grid; NaN where no row observed."""
        if self._policy_mat is None:
            m = np.full((self.unit_count, self.time_count), np.nan)
            m[self.unit_idx, self.time_idx] = self.policy
            self._policy_mat = m
        return self._policy_mat

    @property
    def has_missing(self) -> bool:
        return bool(np.isnan(self.outcome_matrix()).any())

    def missing_cell_count(self) -> int:
        return int(np.isnan(self.outcome_matrix()).sum())

    def covariate_matrix(self, names) -> np.ndarray:
        cols = []
        for name in names:
            if name not in self.covariates:
                raise PanelCauseError("CONFIG_ERROR", f"unknown covariate '{name}'")
            cols.append(self.covariates[name])
        if not cols:
            return np.empty((self.n_rows, 0))
        return np.column_stack(cols)

    # -- slicing ---------------------------------------------------------------

    def subset(self, units=None, time_window=None) -> "PanelDataset":
        """Restrict to the given unit ids and/or inclusive normalized-time window."""
        keep = np.ones(self.n_rows, dtype=bool)
        if units is not None:
            pos = {u: i for i, u in enumerate(self.units)}
            chosen = np.zeros(self.unit_count, dtype=bool)
            try:
                chosen[[pos[u] for u in units]] = True
            except KeyError as exc:
                raise PanelCauseError("CONFIG_ERROR", f"unknown unit {exc}") from None
            keep &= chosen[self.unit_idx]
        if time_window is not None:
            lo, hi = time_window
            keep &= (self.time_idx >= lo) & (self.time_idx <= hi)
        if not keep.any():
            raise PanelCauseError("NO_ROWS", "subset selects no observations")
        unit_idx = self.unit_idx[keep]
        present = np.zeros(self.unit_count, dtype=bool)
        present[unit_idx] = True
        lo = int(self.time_idx[keep].min()) if time_window is None else time_window[0]
        hi = int(self.time_idx[keep].max()) if time_window is None else time_window[1]
        return PanelDataset(
            [self.units[i] for i in np.flatnonzero(present).tolist()],
            self.time_labels[lo:hi + 1],
            (np.cumsum(present) - 1)[unit_idx],
            self.time_idx[keep] - lo,
            self.outcome[keep], self.policy[keep],
            {k: v[keep] for k, v in self.covariates.items()})

    # -- output ---------------------------------------------------------------

    def write_csv(self, dest) -> None:
        """Write canonical-column CSV (unit,time,outcome,policy,covariates...)."""
        def text(values):
            return ["" if math.isnan(v) else repr(v) for v in values.tolist()]

        names = list(self.covariates)
        columns = [[self.units[i] for i in self.unit_idx.tolist()],
                   [self.time_labels[t] for t in self.time_idx.tolist()],
                   text(self.outcome), self.policy.tolist()]
        columns += [text(self.covariates[name]) for name in names]
        own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
        fh = open(dest, "w", newline="", encoding="utf-8") if own else dest
        try:
            w = csv.writer(fh)
            w.writerow(["unit", "time", "outcome", "policy"] + names)
            w.writerows(zip(*columns))
        finally:
            if own:
                fh.close()


def _check_rows(what, arr, n):
    """CONFIG_ERROR unless ``arr`` is a column of ``n`` rows."""
    if arr.shape != (n,):
        got = f"{len(arr)} rows" if arr.ndim == 1 else f"shape {arr.shape}"
        raise PanelCauseError("CONFIG_ERROR", f"{what} has {got}, expected {n}")


@dataclass(frozen=True)
class AdoptionSchedule:
    """Per-unit adoption periods (normalized time) and the derived cohorts."""

    adoption_time: dict  # unit id -> int period, or NEVER
    cohorts: dict        # period g -> tuple of unit ids
    never_treated: tuple
    timing_class: str

    @property
    def treated_units(self) -> tuple:
        return tuple(u for us in self.cohorts.values() for u in us)

    def cohort_sizes(self) -> dict:
        return {g: len(us) for g, us in self.cohorts.items()}

    def cohort_weights(self, gs) -> dict:
        """Each cohort of ``gs`` weighted by its share of their units, in order."""
        sizes = {g: len(self.cohorts[g]) for g in gs}
        return {g: n / sum(sizes.values()) for g, n in sizes.items()}


@dataclass(frozen=True)
class BalanceReport:
    is_balanced: bool
    unit_ranges: dict        # unit -> (first label, last label) with data
    cohort_periods: dict     # cohort g (normalized) -> (n_pre, n_post)
    missing_cells: int
    dropped_units: tuple = ()


# ---------------------------------------------------------------------------
# loading


def _parse_column(cells, blank_ok):
    """Parse raw cells as finite floats; a blank cell is NaN if ``blank_ok``.

    Returns ``(values, bad)``: ``bad`` is None when every cell parses, and
    otherwise ``(i, reason)`` for the first bad cell i, with ``values``
    holding the cells before it. ``float`` ignores surrounding whitespace,
    so one conversion over the raw cells reads a good column. The walk over
    stripped cells runs only when that conversion raises or gives a
    non-finite value: it names the first bad cell, and reads cells that
    only ``str.strip`` empties (``" "``, ``"\\t"``) as blank.
    """
    try:
        text = [c or "nan" for c in cells] if blank_ok and "" in cells else cells
        values = np.fromiter(map(float, text), float, len(text))
        if not any(cells[i] for i in np.flatnonzero(~np.isfinite(values)).tolist()):
            return values, None
    except ValueError:
        pass
    cells = [c.strip() for c in cells]
    blank = "nan" if blank_ok else ""
    values, reason = [], None
    try:
        for c in cells:
            values.append(float(c or blank))
    except ValueError:
        reason = f"cannot parse '{cells[len(values)]}' as a number"
    values = np.array(values)
    odd = [i for i in np.flatnonzero(~np.isfinite(values)).tolist() if cells[i]]
    if odd:
        values, reason = values[:odd[0]], "non-finite value"
    return values, None if reason is None else (len(values), reason)


def _read_records(source):
    """``(first, header, columns)`` of a path (UTF-8, BOM allowed) or an open
    text stream: ``first`` counts the blank records before the header, and
    short records are padded with blank fields. A plain text (no quote, NUL
    or lone carriage return, a non-blank first record and every record as
    wide as it) is split at its commas and line ends; any other is read by
    ``csv.reader`` from the stream's own lines. Both read the same panel:
    every consumer strips or float-parses the spaces csv.reader skips.
    """
    lines = None
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        lines = source.readlines()
        text = "".join(lines)
    else:
        try:
            with open(source, newline="", encoding="utf-8-sig") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            # the decoder's position may not be the file's: find the offset
            with open(source, "rb") as fh:
                data = fh.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            raise PanelCauseError(
                "CONFIG_ERROR", f"file is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                                f"at byte offset {exc.start} cannot be decoded",
                offset=exc.start) from None
    return _plain_table(text) or _csv_table(lines or io.StringIO(text, newline=""))


def _plain_table(text):
    """``(0, header, columns)`` of a plain text, else None: each line end is
    a token of its own, every (w+1)-th for a first record w fields wide."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:       # a carriage return that ends no line
            return None
    if not text.endswith("\n"):
        text += "\n"
    n = text.count("\n")
    tokens = text.replace("\n", ",\n,").split(",")
    tokens.pop()
    w = tokens.index("\n")
    if (len(tokens) != n * (w + 1) or tokens[w::w + 1].count("\n") != n
            or not any(map(str.strip, tokens[:w]))):
        return None
    # csv.reader refuses a field past its limit, naming the record
    limit = csv.field_size_limit()
    if len(text) >= limit and max(map(len, tokens)) >= limit:
        return None
    return 0, tokens[:w], [tokens[j::w + 1] for j in range(w + 1, 2 * w + 1)]


def _csv_table(lines):
    """``(first, header, columns)`` as csv.reader reads the lines; a record
    it cannot read (a field past the csv module's size limit) is
    UNPARSEABLE_CELL at its record number."""
    records = []
    try:
        records.extend(csv.reader(lines, skipinitialspace=True))
    except csv.Error as exc:
        raise PanelCauseError("UNPARSEABLE_CELL",
                              f"{exc} at row {len(records) + 1}") from None
    first = next((n for n, r in enumerate(records) if any(map(str.strip, r))), None)
    if first is None:
        raise PanelCauseError("NO_ROWS", "input file is empty")
    header, rows = records[first], records[first + 1:]
    columns = list(itertools.zip_longest(*rows, fillvalue=""))
    return first, header, columns + [("",) * len(rows)] * (len(header) - len(columns))


def load_panel(source, spec: ColumnSpec = ColumnSpec()) -> PanelDataset:
    """Read a header-bearing CSV into a validated PanelDataset.

    ``source`` may be a path, read as UTF-8 with or without a byte-order
    mark, or an open text stream. A file that is not UTF-8 is
    ``CONFIG_ERROR``, naming the byte offset that cannot be decoded; a
    record the csv module cannot read (a field over its 131072-character
    limit) is ``UNPARSEABLE_CELL``. Blank records are skipped, whitespace around fields (spaces before an
    opening quote too) is ignored and short records are padded with blank
    fields. Unit, time and policy must be present in every record; a blank
    outcome or covariate field is a missing cell. With
    ``spec.covariates=None`` every other column whose non-blank fields are
    all finite numbers is a covariate. Errors give the record's number in
    the file, blank records included: the header is row 1 unless blank
    records precede it.

    A quote-free file whose records all have the header's width is split
    at its commas; any other is read by the csv module, and both read the
    same panel (see ``_read_records``). Only the unit column is stripped: a
    blank record has a blank unit field, so only those records are tested
    for being blank. Each numeric column is one ``float`` conversion over
    its raw cells.
    """
    first, header, columns = _read_records(source)
    header = [h.strip() for h in header]
    col = {name: i for i, name in enumerate(header)}
    for role in ("unit", "time", "outcome", "policy"):
        name = getattr(spec, role)
        if name not in col:
            raise PanelCauseError("CONFIG_ERROR",
                                  f"mapped {role} column '{name}' not in header {header}")
    reserved = {spec.unit, spec.time, spec.outcome, spec.policy}
    for name in spec.covariates or ():
        if name not in col:
            raise PanelCauseError("CONFIG_ERROR", f"covariate column '{name}' not in header")
    cov_names = dict.fromkeys(c for c in (header if spec.covariates is None
                                          else spec.covariates) if c not in reserved)

    # the header is record first + 1 (numbering from 1), so data row i is
    # record first + 2 + i
    units = [c.strip() for c in columns[col[spec.unit]]]
    row_no = range(first + 2, first + 2 + len(units))
    if "" in units:
        blank = {i for i, u in enumerate(units) if not u and not any(c[i].strip() for c in columns)}
        if blank:
            kept = [i for i in range(len(units)) if i not in blank]
            columns = [[c[i] for i in kept] for c in columns]
            units, row_no = [units[i] for i in kept], [row_no[i] for i in kept]
    if not units:
        raise PanelCauseError("NO_ROWS", "no data rows in input")

    # (data row, role rank, code, message before and after " at row N"):
    # the first bad cell in record order, then in role order, is raised
    failures = []

    def fail(i, rank, head, tail="", code="UNPARSEABLE_CELL"):
        failures.append((i, rank, code, head, tail))

    def parse(rank, name, blank_ok=True, required=True):
        values, bad = _parse_column(columns[col[name]], blank_ok)
        if bad and required:
            fail(bad[0], rank, bad[1], f", column '{name}'")
        return values, bad

    if "" in units:
        fail(units.index(""), 0, "empty unit field")
    t, _ = parse(1, spec.time, blank_ok=False)
    for i in np.flatnonzero(t != np.floor(t))[:1]:
        fail(i, 1, f"time '{float(t[i])}' is not an integer", f", column '{spec.time}'")
    outcome, _ = parse(2, spec.outcome)
    policy, _ = parse(3, spec.policy)
    for i in np.flatnonzero((policy != 0) & (policy != 1))[:1]:
        if np.isnan(policy[i]):
            fail(i, 3, "empty policy field")
        else:
            fail(i, 3, f"policy value {float(policy[i])}", " is not 0/1", "NON_BINARY_POLICY")
    # a named covariate must parse; an auto-detected one that fails is dropped
    covariates = {}
    for rank, c in enumerate(cov_names, 4):
        values, bad = parse(rank, c, required=spec.covariates is not None)
        if bad is None:
            covariates[c] = values
    if failures:
        i, _, code, head, tail = min(failures, key=lambda f: f[:2])
        raise PanelCauseError(code, f"{head} at row {row_no[i]}{tail}")

    # normalize the time axis: arithmetic grid from min..max at the gcd step
    distinct, t_pos = np.unique(t, return_inverse=True)
    labels = [int(v) for v in distinct.tolist()]
    step = math.gcd(*(v - labels[0] for v in labels[1:])) or 1
    t_idx = np.array([(v - labels[0]) // step for v in labels])[t_pos]
    unit_pos = {u: i for i, u in enumerate(dict.fromkeys(units))}
    return PanelDataset(list(unit_pos), range(labels[0], labels[-1] + step, step),
                        list(map(unit_pos.__getitem__, units)), t_idx, outcome, policy,
                        covariates)


def complete_rows(panel: PanelDataset, covariates):
    """Rows with an observed outcome and every named covariate observed.

    Returns (row mask, n_rows × len(covariates) covariate matrix).
    """
    keep = ~np.isnan(panel.outcome)
    X = panel.covariate_matrix(covariates)
    if X.shape[1]:
        keep &= ~np.isnan(X).any(axis=1)
    return keep, X


# ---------------------------------------------------------------------------
# adoption schedule


def derive_adoption(panel: PanelDataset) -> AdoptionSchedule:
    """Group units into treatment cohorts by earliest period with policy=1.
    The schedule is kept on the panel, so later calls return it."""
    if panel._schedule is not None:
        return panel._schedule
    on = panel.policy_matrix() == 1
    first = np.where(on.any(axis=1), on.argmax(axis=1), -1).tolist()
    adoption = {u: NEVER if g < 0 else g for u, g in zip(panel.units, first)}
    cohorts: dict = {}
    for u, g in adoption.items():
        if g is not NEVER:
            cohorts.setdefault(g, []).append(u)
    cohorts = {g: tuple(us) for g, us in sorted(cohorts.items())}
    never = tuple(u for u in panel.units if adoption[u] is NEVER)
    n_treated = sum(len(us) for us in cohorts.values())
    if n_treated == 0:
        timing = NO_TREATED
    elif n_treated == 1:
        timing = SINGLE_TREATED
    elif len(cohorts) == 1:
        timing = SIMULTANEOUS
    else:
        timing = STAGGERED
    panel._schedule = AdoptionSchedule(adoption, cohorts, never, timing)
    return panel._schedule


def cumulative_adoption_counts(schedule: AdoptionSchedule, times) -> list:
    """Units with policy in effect at each normalized time in `times`."""
    sizes = schedule.cohort_sizes()
    return [sum(n for g, n in sizes.items() if g <= t) for t in times]


# ---------------------------------------------------------------------------
# balancing


def _unit_ranges(panel: PanelDataset):
    """First/last normalized time with a non-missing outcome, per unit."""
    om = panel.outcome_matrix()
    ranges = {}
    for i, u in enumerate(panel.units):
        obs = np.flatnonzero(~np.isnan(om[i]))
        ranges[u] = (int(obs[0]), int(obs[-1])) if len(obs) else None
    return ranges


def balance_panel(panel: PanelDataset, mode: str = "BALANCED"):
    """Return (panel, BalanceReport); BALANCED restricts to the common window.

    BALANCED mode keeps the maximal time window observed for every unit and
    raises INTERIOR_MISSING if holes remain inside it; UNBALANCED passes the
    panel through and only reports.
    """
    if mode not in ("BALANCED", "UNBALANCED"):
        raise PanelCauseError("CONFIG_ERROR", f"unknown balance mode '{mode}'")
    ranges = _unit_ranges(panel)
    if any(r is None for r in ranges.values()):
        empty = [u for u, r in ranges.items() if r is None]
        raise PanelCauseError("EMPTY_INTERSECTION",
                              f"units with no observed outcomes: {empty}")

    def report_for(p: PanelDataset, dropped=()) -> BalanceReport:
        rr = _unit_ranges(p)
        label_ranges = {u: (p.time_labels[a], p.time_labels[b])
                        for u, (a, b) in rr.items()}
        cohort_periods = {g: (g, p.time_count - g)
                          for g in derive_adoption(p).cohorts}
        missing = p.missing_cell_count()
        return BalanceReport(missing == 0, label_ranges, cohort_periods,
                             missing, tuple(dropped))

    if mode == "UNBALANCED":
        return panel, report_for(panel)

    lo = max(a for a, _ in ranges.values())
    hi = min(b for _, b in ranges.values())
    if lo > hi:
        raise PanelCauseError("EMPTY_INTERSECTION",
                              "no time window is observed for every unit")
    balanced = panel if (lo, hi) == (0, panel.time_count - 1) \
        else panel.subset(time_window=(lo, hi))
    om = balanced.outcome_matrix()
    if np.isnan(om).any():
        holes = [(balanced.units[i], balanced.time_labels[t])
                 for i, t in zip(*np.nonzero(np.isnan(om)))]
        raise PanelCauseError(
            "INTERIOR_MISSING",
            f"{len(holes)} missing cells inside the common window: {holes[:10]}",
            cells=holes)
    return balanced, report_for(balanced)
