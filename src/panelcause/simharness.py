"""Monte Carlo harness: synthetic panels with known truth, estimator scoring.

The generator builds untreated potential outcomes from unit intercepts, a
common linear trend, and an AR(1) disturbance, then adds the configured
treatment effect on treated cells — so every estimand (overall ATT,
per-event-time, per-cohort) is known exactly and stored beside the panel.
Each method is fitted, summarized and scored through its entry in
``advisor.METHODS``, the same entry the CLI's ``fit`` uses. Replications derive independent RNG substreams from (seed, rep), so results
are identical under any parallel schedule. PANELCAUSE_THREADS caps worker
threads; the default is serial.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import advisor as adv
from .errors import PanelCauseError
from .linreg import normal_ci
from .panel import PanelDataset

EFFECT_KINDS = ("constant", "dynamic", "cohort")
CONFOUNDING_MODES = ("none", "intercept", "trend")
TREND_CONFOUND_SD = 0.1   # SD of unit-specific slopes under confounding="trend"


@dataclass
class DgpConfig:
    n_units: int
    n_periods: int
    cohorts: dict = field(default_factory=dict)   # adoption period -> size
    effect: dict = field(default_factory=lambda: {"kind": "constant", "delta": 0.0})
    intercept_sd: float = 1.0
    trend: float = 0.0
    ar_coef: float = 0.0
    noise_sd: float = 1.0
    confounding: str = "none"
    seed: int = 0
    name: str = ""

    def validate(self):
        if self.n_units < 1 or self.n_periods < 2:
            raise PanelCauseError("CONFIG_ERROR",
                                  "need n_units ≥ 1 and n_periods ≥ 2")
        if sum(self.cohorts.values()) > self.n_units:
            raise PanelCauseError("CONFIG_ERROR",
                                  "cohort sizes sum past n_units")
        for g, size in self.cohorts.items():
            if not 0 < g < self.n_periods:
                raise PanelCauseError("CONFIG_ERROR",
                                      f"adoption period {g} outside 1..{self.n_periods - 1}")
            if size < 1:
                raise PanelCauseError("CONFIG_ERROR", f"cohort {g} has size {size}")
        if self.noise_sd < 0 or self.intercept_sd < 0:
            raise PanelCauseError("CONFIG_ERROR", "SDs must be ≥ 0")
        if not -1.0 < self.ar_coef < 1.0:
            raise PanelCauseError("CONFIG_ERROR", "AR coefficient must lie in (−1, 1)")
        if self.confounding not in CONFOUNDING_MODES:
            raise PanelCauseError("CONFIG_ERROR",
                                  f"confounding must be one of {CONFOUNDING_MODES}")
        kind = self.effect.get("kind")
        if kind not in EFFECT_KINDS:
            raise PanelCauseError("CONFIG_ERROR",
                                  f"effect kind must be one of {EFFECT_KINDS}")
        if kind == "cohort":
            missing = [g for g in self.cohorts if g not in self.effect.get("deltas", {})]
            if missing:
                raise PanelCauseError("CONFIG_ERROR",
                                      f"cohort effect lacks deltas for {missing}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text) if isinstance(text, str) else dict(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise PanelCauseError("CONFIG_ERROR",
                                  f"unknown config fields: {sorted(unknown)}")
        if "cohorts" in d:
            d["cohorts"] = {int(k): int(v) for k, v in d["cohorts"].items()}
        if "effect" in d and "deltas" in d.get("effect", {}):
            d["effect"] = dict(d["effect"])
            d["effect"]["deltas"] = {int(k): float(v)
                                     for k, v in d["effect"]["deltas"].items()}
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class TruthRecord:
    att_overall: float
    by_event: dict              # event time k >= 0 -> mean effect
    by_cohort: dict             # adoption period -> mean effect
    adoption: dict              # unit id -> adoption period or None


def _effect_value(effect, g, t):
    kind = effect["kind"]
    if kind == "constant":
        return float(effect["delta"])
    if kind == "dynamic":
        return float(effect.get("base", 0.0)) + float(effect.get("slope", 0.0)) * (t - g)
    return float(effect["deltas"][g])


def simulate_panel(config: DgpConfig, rep: int):
    """One synthetic panel plus its truth record; bit-identical per (seed, rep)."""
    config.validate()
    rng = np.random.default_rng([config.seed, rep])
    U, T = config.n_units, config.n_periods

    alpha = rng.normal(0.0, config.intercept_sd, U)
    slopes = (rng.normal(0.0, TREND_CONFOUND_SD, U)
              if config.confounding == "trend" else np.zeros(U))
    innov = rng.normal(0.0, config.noise_sd, (U, T))
    e = np.empty((U, T))
    e[:, 0] = innov[:, 0]
    for t in range(1, T):
        e[:, t] = config.ar_coef * e[:, t - 1] + innov[:, t]
    tgrid = np.arange(T)
    y0 = alpha[:, None] + config.trend * tgrid[None, :] + \
        slopes[:, None] * tgrid[None, :] + e

    if config.confounding == "intercept":
        order = np.argsort(-alpha, kind="stable")
    elif config.confounding == "trend":
        order = np.argsort(-slopes, kind="stable")
    else:
        order = np.arange(U)
    adopt = np.full(U, -1)
    pos = 0
    for g in sorted(config.cohorts):
        size = config.cohorts[g]
        adopt[order[pos:pos + size]] = g
        pos += size

    policy = np.zeros((U, T), dtype=np.int8)
    delta = np.zeros((U, T))
    for i in range(U):
        g = adopt[i]
        if g >= 0:
            policy[i, g:] = 1
            for t in range(g, T):
                delta[i, t] = _effect_value(config.effect, g, t)
    y = y0 + policy * delta

    units = [f"u{i:03d}" for i in range(U)]
    unit_idx = np.repeat(np.arange(U), T)
    time_idx = np.tile(np.arange(T), U)
    panel = PanelDataset(units, list(range(T)), unit_idx, time_idx, y.ravel(),
                         policy.ravel())

    treated = policy == 1
    if treated.any():
        att = float(delta[treated].mean())
        ks = (np.arange(T)[None, :] - adopt[:, None])
        by_event = {int(k): float(delta[treated & (ks == k)].mean())
                    for k in np.unique(ks[treated])}
        by_cohort = {int(g): float(delta[(adopt[:, None] == g) & treated].mean())
                     for g in sorted(config.cohorts)}
    else:
        att, by_event, by_cohort = 0.0, {}, {}
    adoption = {units[i]: (int(adopt[i]) if adopt[i] >= 0 else None)
                for i in range(U)}
    return panel, TruthRecord(att, by_event, by_cohort, adoption)


@dataclass
class RepRecord:
    config: str
    method: str
    rep: int
    estimate: float
    se: float
    ci_lo: float
    ci_hi: float
    truth: float
    runtime_s: float
    error: str = ""


@dataclass
class MetricRow:
    config: str
    method: str
    reps: int
    failures: int
    bias: float
    sd: float
    rmse: float
    coverage: float
    type1_rate: float
    mean_runtime_s: float


@dataclass
class SimMetrics:
    rows: list
    per_rep: list
    skipped: list               # (config, method, reason code)

    def write_metrics_csv(self, path):
        _write_csv(path, [asdict(r) for r in self.rows],
                   list(MetricRow.__dataclass_fields__))

    def write_reps_csv(self, path):
        _write_csv(path, [asdict(r) for r in self.per_rep],
                   list(RepRecord.__dataclass_fields__))


def _write_csv(path, records, fields):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for rec in records:
            w.writerow(["" if isinstance(v := rec[f], float) and np.isnan(v)
                        else (repr(v) if isinstance(v, float) else v)
                        for f in fields])


def _one_rep(config, methods, rep, ci_level):
    panel, truth = simulate_panel(config, rep)
    out = []
    for m in methods:
        t0 = time.perf_counter()
        try:
            spec = adv.METHODS[m]
            fitted = spec.fit(panel, (), ci_level, 0)
            est, se = spec.point(fitted)
            # the truth component matching the method's estimand
            target = spec.target(fitted, truth)
            lo, hi = normal_ci(est, se, ci_level) if np.isfinite(se) \
                else (float("nan"), float("nan"))
            out.append(RepRecord(config.name, m, rep, est, se, lo, hi, target,
                                 time.perf_counter() - t0))
        except PanelCauseError as exc:
            out.append(RepRecord(config.name, m, rep, float("nan"),
                                 float("nan"), float("nan"), float("nan"),
                                 float("nan"), time.perf_counter() - t0,
                                 error=exc.code))
    return out


def evaluate(configs, methods, reps: int, ci_level: float = 0.95,
             force: bool = False, threads: int | None = None) -> SimMetrics:
    """Run each method over `reps` replications of each config.

    Methods the advisor rules out for a config are skipped and reported
    (pass force=True to run them anyway — required when the point of the
    experiment is demonstrating a method's failure mode). Estimator errors
    are counted per cell, never silently dropped.
    """
    for m in methods:
        if m not in adv.METHODS:
            raise PanelCauseError("CONFIG_ERROR", f"unknown method '{m}'")
    if threads is None:
        threads = int(os.environ.get("PANELCAUSE_THREADS", "1"))

    per_rep, skipped, rows = [], [], []
    for ci_idx, config in enumerate(configs):
        if not config.name:
            config.name = f"cfg{ci_idx}"
        config.validate()
        panel0, _ = simulate_panel(config, 0)
        rec = adv.recommend(adv.derive_features(panel0))
        active = []
        for m in methods:
            if force or rec.methods[m].viable:
                active.append(m)
            else:
                skipped.append((config.name, m, rec.methods[m].reasons[0][0]))
        if not active:
            continue

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                batches = list(pool.map(
                    lambda r: _one_rep(config, active, r, ci_level),
                    range(reps)))
        else:
            batches = [_one_rep(config, active, r, ci_level)
                       for r in range(reps)]
        recs = [r for batch in batches for r in batch]
        per_rep.extend(recs)

        for m in active:
            rows.append(_aggregate(config.name, m,
                                   [r for r in recs if r.method == m]))
    return SimMetrics(rows, per_rep, skipped)


def _aggregate(config_name, method, recs):
    ok = [r for r in recs if not r.error]
    failures = len(recs) - len(ok)
    if not ok:
        nan = float("nan")
        return MetricRow(config_name, method, len(recs), failures,
                         nan, nan, nan, nan, nan,
                         float(np.mean([r.runtime_s for r in recs])))
    est = np.array([r.estimate for r in ok])
    tru = np.array([r.truth for r in ok])
    bias = float(np.mean(est - tru))
    sd = float(np.std(est, ddof=1)) if len(ok) > 1 else 0.0
    rmse = float(np.sqrt(np.mean((est - tru) ** 2)))
    with_ci = [r for r in ok if np.isfinite(r.se)]
    if with_ci:
        coverage = float(np.mean([r.ci_lo <= r.truth <= r.ci_hi
                                  for r in with_ci]))
        if all(r.truth == 0.0 for r in with_ci):
            type1 = float(np.mean([not (r.ci_lo <= 0.0 <= r.ci_hi)
                                   for r in with_ci]))
        else:
            type1 = float("nan")
    else:
        coverage = type1 = float("nan")
    runtime = float(np.mean([r.runtime_s for r in recs]))
    return MetricRow(config_name, method, len(recs), failures, bias, sd, rmse,
                     coverage, type1, runtime)
