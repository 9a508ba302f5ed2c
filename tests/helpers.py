"""Shared builders for test panels."""

import csv
import io

import numpy as np

from panelcause import PanelDataset, load_panel, ColumnSpec
from panelcause.simharness import DgpConfig, simulate_panel

# synthetic case-study adoption plan: 44 adopters in six waves, 6 never
COHORT_PLAN = {2010: 1, 2013: 1, 2014: 8, 2015: 8, 2016: 16, 2017: 10}
YEARS = list(range(1999, 2018))


def build_panel(units, T, adopt, y, covariates=None, time_labels=None):
    """Balanced panel from per-unit outcome paths.

    adopt: unit -> adoption period (normalized), absent = never treated.
    y: unit -> length-T sequence.
    """
    ui, ti, out, pol = [], [], [], []
    cov = {k: [] for k in (covariates or {})}
    for i, u in enumerate(units):
        for t in range(T):
            ui.append(i)
            ti.append(t)
            out.append(y[u][t])
            g = adopt.get(u)
            pol.append(1 if g is not None and t >= g else 0)
            for k in cov:
                cov[k].append(covariates[k][u][t])
    return PanelDataset(units, time_labels or list(range(T)), ui, ti, out,
                        pol, cov or None)


def case_study_csv_text(seed=2043):
    """The 50-unit × 19-year adoption-table fixture as CSV text."""
    rng = np.random.default_rng(seed)
    lines = ["state,year,rate,adopted"]
    names = [f"S{i:02d}" for i in range(1, 51)]
    adopt = {}
    i = 0
    for year in sorted(COHORT_PLAN):
        for _ in range(COHORT_PLAN[year]):
            adopt[names[i]] = year
            i += 1
    alphas = rng.normal(10.0, 2.0, len(names))
    for j, s in enumerate(names):
        for year in YEARS:
            pol = 1 if s in adopt and year >= adopt[s] else 0
            rate = (alphas[j] + 0.2 * (year - 1999)
                    - 1.0 * pol + rng.normal(0.0, 0.5))
            lines.append(f"{s},{year},{float(rate)!r},{pol}")
    return "\n".join(lines) + "\n"


CASE_SPEC = ColumnSpec(unit="state", time="year", outcome="rate",
                       policy="adopted")


def load_case_study():
    return load_panel(io.StringIO(case_study_csv_text()), CASE_SPEC)


def linear_paths(units, T, adopt, rng, slope=0.5, effect=None,
                 alpha_sd=1.0, noise_sd=0.0):
    """unit -> outcome path with unit intercepts, common trend, optional effect.

    effect(g, t) gives the treated-cell addition; None means no effect.
    """
    y = {}
    for u in units:
        a = rng.normal(0.0, alpha_sd)
        path = a + slope * np.arange(T) + rng.normal(0.0, noise_sd, T)
        g = adopt.get(u)
        if g is not None and effect is not None:
            for t in range(g, T):
                path[t] += effect(g, t)
        y[u] = path.tolist()
    return y


def strip_runtime_columns(blob):
    """Drop wall-clock columns (runtime_s / mean_runtime_s) from a CSV blob."""
    rows = list(csv.reader(io.StringIO(blob.decode())))
    keep = [i for i, h in enumerate(rows[0]) if "runtime" not in h]
    return "\n".join(",".join(r[i] for i in keep) for r in rows).encode()


def with_blank_unit(p):
    """p plus a never-treated unit "blank", in every period, outcome blank."""
    T = p.time_count
    return PanelDataset(
        p.units + ("blank",), p.time_labels,
        np.concatenate([p.unit_idx, np.full(T, p.unit_count)]),
        np.concatenate([p.time_idx, np.arange(T)]),
        np.concatenate([p.outcome, np.full(T, np.nan)]),
        np.concatenate([p.policy, np.zeros(T, dtype=np.int8)]),
        {k: np.concatenate([v, np.zeros(T)]) for k, v in p.covariates.items()})


def one_x_panel():
    """One treated unit, u000, and a covariate x whose pre-means join the
    synthetic-control match."""
    p = simulate_panel(DgpConfig(n_units=14, n_periods=10, cohorts={6: 1},
                                 seed=4), 0)[0]
    x = np.random.default_rng(4).normal(size=p.n_rows) + 0.1 * p.time_idx
    return PanelDataset(p.units, p.time_labels, p.unit_idx, p.time_idx,
                        p.outcome, p.policy, {"x": x})
