"""Panel data model: ingestion, validation, adoption cohorts, balancing.

Data is long-format (one record per unit×time). Times are normalized to
0..T-1 on load; the original labels are kept for reporting. Policy must be
binary and absorbing within each unit (no reversals) — every estimator in
this package presumes staggered adoption semantics, so reversals fail at
the boundary instead of corrupting estimands downstream.
"""

from __future__ import annotations

import csv
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

    def _validate(self):
        n = len(self.unit_idx)
        for name, arr in [("time_idx", self.time_idx),
                          ("outcome", self.outcome), ("policy", self.policy)]:
            if len(arr) != n:
                raise PanelCauseError("CONFIG_ERROR",
                                      f"column '{name}' has {len(arr)} rows, expected {n}")
        for name, arr in self.covariates.items():
            if len(arr) != n:
                raise PanelCauseError("CONFIG_ERROR",
                                      f"covariate '{name}' has {len(arr)} rows, expected {n}")
        bad = ~np.isin(self.policy, (0, 1))
        if bad.any():
            i = int(np.argmax(bad))
            raise PanelCauseError("NON_BINARY_POLICY",
                                  f"policy value {self.policy[i]} at row {i} is not 0/1")
        # duplicate (unit, time) keys
        keys = self.unit_idx * len(self.time_labels) + self.time_idx
        uniq, counts = np.unique(keys, return_counts=True)
        if (counts > 1).any():
            k = int(uniq[np.argmax(counts > 1)])
            u, t = divmod(k, len(self.time_labels))
            raise PanelCauseError(
                "DUPLICATE_KEY",
                f"duplicate observation for unit '{self.units[u]}' at time {self.time_labels[t]}")
        # absorbing policy within unit: rows by unit, then time; the first
        # reversal in that order is the lowest-index unit's
        order = np.lexsort((self.time_idx, self.unit_idx))
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
            uset = {self.units.index(u) for u in units}
            keep &= np.isin(self.unit_idx, sorted(uset))
        if time_window is not None:
            lo, hi = time_window
            keep &= (self.time_idx >= lo) & (self.time_idx <= hi)
        if not keep.any():
            raise PanelCauseError("NO_ROWS", "subset selects no observations")
        old_units = [self.units[i] for i in sorted(set(self.unit_idx[keep].tolist()))]
        unit_map = {self.units.index(u): i for i, u in enumerate(old_units)}
        lo = int(self.time_idx[keep].min()) if time_window is None else time_window[0]
        hi = int(self.time_idx[keep].max()) if time_window is None else time_window[1]
        labels = self.time_labels[lo:hi + 1]
        return PanelDataset(
            old_units, labels,
            np.array([unit_map[i] for i in self.unit_idx[keep]]),
            self.time_idx[keep] - lo,
            self.outcome[keep], self.policy[keep],
            {k: v[keep] for k, v in self.covariates.items()})

    # -- output ---------------------------------------------------------------

    def write_csv(self, dest) -> None:
        """Write canonical-column CSV (unit,time,outcome,policy,covariates...)."""
        own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
        fh = open(dest, "w", newline="") if own else dest
        try:
            w = csv.writer(fh)
            names = list(self.covariates)
            w.writerow(["unit", "time", "outcome", "policy"] + names)
            for i in range(self.n_rows):
                y = self.outcome[i]
                row = [self.units[self.unit_idx[i]],
                       self.time_labels[self.time_idx[i]],
                       "" if math.isnan(y) else repr(float(y)),
                       int(self.policy[i])]
                for name in names:
                    v = self.covariates[name][i]
                    row.append("" if math.isnan(v) else repr(float(v)))
                w.writerow(row)
        finally:
            if own:
                fh.close()


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


@dataclass(frozen=True)
class BalanceReport:
    is_balanced: bool
    unit_ranges: dict        # unit -> (first label, last label) with data
    cohort_periods: dict     # cohort g (normalized) -> (n_pre, n_post)
    missing_cells: int
    dropped_units: tuple = ()


# ---------------------------------------------------------------------------
# loading


def _parse_number(text, where):
    try:
        v = float(text)
    except ValueError:
        raise PanelCauseError("UNPARSEABLE_CELL",
                              f"cannot parse '{text}' as a number at {where}") from None
    if not math.isfinite(v):
        raise PanelCauseError("UNPARSEABLE_CELL", f"non-finite value at {where}")
    return v


def load_panel(source, spec: ColumnSpec = ColumnSpec()) -> PanelDataset:
    """Read a header-bearing CSV into a validated PanelDataset.

    ``source`` may be a path or an open text stream. Empty fields in the
    outcome/covariate columns are missing cells; unit/time/policy must be
    present in every row.
    """
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open(source, "r", newline="") if own else source
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelCauseError("NO_ROWS", "input file is empty") from None
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}
        for role in ("unit", "time", "outcome", "policy"):
            name = getattr(spec, role)
            if name not in col:
                raise PanelCauseError("CONFIG_ERROR",
                                      f"mapped {role} column '{name}' not in header {header}")
        reserved = {spec.unit, spec.time, spec.outcome, spec.policy}
        if spec.covariates is not None:
            for name in spec.covariates:
                if name not in col:
                    raise PanelCauseError("CONFIG_ERROR",
                                          f"covariate column '{name}' not in header")
            cov_names = [c for c in spec.covariates if c not in reserved]
        else:
            cov_names = [c for c in header if c not in reserved]

        raw = list(reader)
        raw = [r for r in raw if any(f.strip() for f in r)]
        if not raw:
            raise PanelCauseError("NO_ROWS", "no data rows in input")

        units: list = []
        unit_pos: dict = {}
        u_idx, labels_raw, outcome, policy = [], [], [], []
        cov_vals = {c: [] for c in cov_names}
        cov_numeric = {c: True for c in cov_names}
        for lineno, row in enumerate(raw, start=2):
            if len(row) < len(header):
                row = row + [""] * (len(header) - len(row))
            unit = row[col[spec.unit]].strip()
            if unit not in unit_pos:
                unit_pos[unit] = len(units)
                units.append(unit)
            u_idx.append(unit_pos[unit])

            where = f"row {lineno}, column '{spec.time}'"
            tval = _parse_number(row[col[spec.time]].strip(), where)
            if tval != int(tval):
                raise PanelCauseError("UNPARSEABLE_CELL",
                                      f"time '{tval}' is not an integer at {where}")
            labels_raw.append(int(tval))

            ytxt = row[col[spec.outcome]].strip()
            outcome.append(np.nan if ytxt == "" else _parse_number(
                ytxt, f"row {lineno}, column '{spec.outcome}'"))

            ptxt = row[col[spec.policy]].strip()
            if ptxt == "":
                raise PanelCauseError("UNPARSEABLE_CELL",
                                      f"empty policy field at row {lineno}")
            pval = _parse_number(ptxt, f"row {lineno}, column '{spec.policy}'")
            if pval not in (0.0, 1.0):
                raise PanelCauseError("NON_BINARY_POLICY",
                                      f"policy value {pval} at row {lineno} is not 0/1")
            policy.append(int(pval))

            for c in cov_names:
                txt = row[col[c]].strip()
                if txt == "":
                    cov_vals[c].append(np.nan)
                    continue
                if spec.covariates is None:
                    # auto mode: any non-numeric value disqualifies the column
                    try:
                        v = float(txt)
                    except ValueError:
                        cov_numeric[c] = False
                        cov_vals[c].append(np.nan)
                        continue
                    if not math.isfinite(v):
                        cov_numeric[c] = False
                        v = np.nan
                    cov_vals[c].append(v)
                else:
                    cov_vals[c].append(_parse_number(
                        txt, f"row {lineno}, column '{c}'"))
    finally:
        if own:
            fh.close()

    cov_names = [c for c in cov_names if cov_numeric[c]]

    # normalize the time axis: arithmetic grid from min..max at the gcd step
    distinct = sorted(set(labels_raw))
    if len(distinct) > 1:
        step = 0
        for a, b in zip(distinct, distinct[1:]):
            step = math.gcd(step, b - a)
    else:
        step = 1
    time_labels = list(range(distinct[0], distinct[-1] + step, step))
    t_idx = [(lab - distinct[0]) // step for lab in labels_raw]

    return PanelDataset(units, time_labels, u_idx, t_idx, outcome, policy,
                        {c: cov_vals[c] for c in cov_names})


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
    """Group units into treatment cohorts by earliest period with policy=1."""
    adoption: dict = {}
    pm = panel.policy_matrix()
    for i, u in enumerate(panel.units):
        ts = np.flatnonzero(pm[i] == 1)
        adoption[u] = int(ts[0]) if len(ts) else NEVER
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
    return AdoptionSchedule(adoption, cohorts, never, timing)


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
