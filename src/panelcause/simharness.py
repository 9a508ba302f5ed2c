"""Monte Carlo harness: synthetic panels with known truth, estimator scoring.

The generator builds untreated potential outcomes from unit intercepts, a
common linear trend, and an AR(1) disturbance, then adds the configured
treatment effect on treated cells — so every estimand (overall ATT,
per-event-time, per-cohort) is known exactly and stored beside the panel.
Each method is fitted, summarized and scored through its entry in
``advisor.METHODS``, the same entry the CLI's ``fit`` uses: a rep keeps the
estimate, SE and interval of ``MethodSpec.point``, which ``fit`` writes as
its ``point``. Replications derive independent RNG substreams from (seed,
rep), so results are identical under any schedule. ``evaluate(threads=N)``
runs them on N threads (default serial), but the fits hold the GIL:
threads give no speed-up and inflate each rep's runtime_s with waiting.

One ``evaluate`` call opens ``linreg.shared_memo`` for its reps. They then
share what the draws do not change: each adoption's DGP skeleton (panel
arrays, effect grid and truth), the fixed-effects operator of each set of
rows, the absorbed design with its QR, R⁻¹ and bread of each set of columns
(with fixed adoption, the TWFE design of every rep), the sample covariance
of the group-time multiplier draws, which every rep makes from seed 0, and
the outcome-free plans of the event study, the group-time ATTs and the
debiased AR, so that with fixed adoption a later rep runs only each fit's
outcome pass. Each value is built as it is outside the call, so a rep's
panel is the one ``simulate_panel`` draws alone, and its score is exactly
what ``fit`` reports for that panel. The memo is dropped on return.
"""

from __future__ import annotations

import contextvars
import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import advisor as adv
from .errors import PanelCauseError
from .linreg import memoized, normal_ci, shared_memo
from .panel import PanelDataset, derive_adoption

EFFECT_KINDS = ("constant", "dynamic", "cohort")
CONFOUNDING_MODES = ("none", "intercept", "trend")
TREND_CONFOUND_SD = 0.1   # SD of unit-specific slopes under confounding="trend"

# the JSON value of each DgpConfig field type (true and false are not numbers)
_JSON_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "str": (str, "a string"), "dict": (dict, "an object")}


def _typed(where, value, kind):
    types, name = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise PanelCauseError("CONFIG_ERROR", f"{where} must be {name}, got {value!r}")
    return value


def _by_period(where, mapping, kind):
    """mapping keyed by adoption period, its JSON string keys read as ints and
    each value checked to be of the JSON kind."""
    out = {}
    for k, v in mapping.items():
        try:
            g = int(k)
        except ValueError:
            raise PanelCauseError("CONFIG_ERROR", f"{where} key must be an "
                                  f"integer period, got {k!r}") from None
        out[g] = _typed(f"{where}[{k}]", v, kind)
    return out


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
        if self.seed < 0:
            raise PanelCauseError("CONFIG_ERROR", f"seed must be ≥ 0, got {self.seed}")
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
        """A config from JSON text or a mapping. n_units and n_periods are
        required; a missing, unknown or mistyped field raises CONFIG_ERROR."""
        if isinstance(text, str):
            try:
                text = json.loads(text)
            except json.JSONDecodeError as exc:
                raise PanelCauseError("CONFIG_ERROR", f"invalid JSON ({exc})") from exc
        d = dict(_typed("a DGP config", text, "dict"))
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise PanelCauseError("CONFIG_ERROR",
                                  f"unknown config fields: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in d:
                _typed(f.name, d[f.name], f.type)
            elif f.default is f.default_factory is MISSING:
                raise PanelCauseError("CONFIG_ERROR", f"missing config field '{f.name}'")
        if "cohorts" in d:
            d["cohorts"] = _by_period("cohorts", d["cohorts"], "int")
        effect = d.get("effect", {})
        for key in ("delta", "base", "slope"):
            if key in effect:
                _typed(f"effect.{key}", effect[key], "float")
        if effect.get("kind") == "constant" and "delta" not in effect:
            raise PanelCauseError("CONFIG_ERROR", "a constant effect needs 'delta'")
        if "deltas" in effect:
            deltas = _typed("effect.deltas", effect["deltas"], "dict")
            d["effect"] = dict(effect, deltas={
                g: float(v) for g, v in _by_period("effect.deltas", deltas, "float").items()})
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class TruthRecord:
    att_overall: float
    by_event: dict              # event time k >= 0 -> mean effect
    by_cohort: dict             # adoption period -> mean effect
    adoption: dict              # unit id -> adoption period or None


def simulate_panel(config: DgpConfig, rep: int):
    """One synthetic panel plus its truth record; bit-identical per (seed, rep).
    Within a shared memo the reps of one adoption share its skeleton: the
    panel's arrays other than the outcome (read-only), schedule and truth."""
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

    template, shift, truth = memoized(
        lambda: ("dgp skeleton", U, T, repr(config.effect), adopt.tobytes()),
        lambda: _skeleton(config, adopt))
    return template.with_outcome((y0 + shift).ravel()), truth


def _skeleton(config, adopt):
    """(panel with a zero outcome, policy × effect grid, truth) of one
    adoption; the panel's schedule is computed before it is shared."""
    U, T = config.n_units, config.n_periods
    tgrid = np.arange(T)
    # policy and effect on the U×T grid; untreated cells carry effect 0.0
    policy = ((adopt[:, None] >= 0) & (tgrid >= adopt[:, None])).astype(np.int8)
    effect, kind = config.effect, config.effect["kind"]
    if kind == "constant":
        value = float(effect["delta"])
    elif kind == "dynamic":
        value = float(effect.get("base", 0.0)) + \
            float(effect.get("slope", 0.0)) * (tgrid - adopt[:, None])
    else:
        value = np.array([float(effect["deltas"][g]) if g >= 0 else 0.0
                          for g in adopt.tolist()])[:, None]
    delta = np.where(policy == 1, value, 0.0)

    units = [f"u{i:03d}" for i in range(U)]
    template = PanelDataset(units, list(range(T)), np.repeat(np.arange(U), T),
                            np.tile(np.arange(T), U), np.zeros(U * T), policy.ravel())
    derive_adoption(template)

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
    return template, policy * delta, TruthRecord(att, by_event, by_cohort, adoption)


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
        _write_csv(path, self.rows, list(MetricRow.__dataclass_fields__))

    def write_reps_csv(self, path):
        _write_csv(path, self.per_rep, list(RepRecord.__dataclass_fields__))


def _write_csv(path, records, fields):
    """One row per record, its fields read in place: NaN blank, floats by repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for rec in records:
            w.writerow(["" if isinstance(v := getattr(rec, f), float) and math.isnan(v)
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
            est, se, lo, hi = spec.point(fitted, ci_level)
            # the truth component matching the method's estimand
            target = spec.target(fitted, truth)
            out.append(RepRecord(config.name, m, rep, est, se, lo, hi, target,
                                 time.perf_counter() - t0))
        except PanelCauseError as exc:
            out.append(RepRecord(config.name, m, rep, *[float("nan")] * 5,
                                 time.perf_counter() - t0, error=exc.code))
    return out


def evaluate(configs, methods, reps: int, ci_level: float = 0.95,
             force: bool = False, threads: int = 1) -> SimMetrics:
    """Run each method over `reps` replications of each config.

    Methods the advisor rules out for a config are skipped and reported
    (pass force=True to run them anyway — required when the point of the
    experiment is demonstrating a method's failure mode). A config the
    advisor refuses outright (no unit adopts) skips every method with the
    advisor's reason code, and the other configs still run. Estimator errors
    are counted per cell, never silently dropped.
    """
    for m in methods:
        if m not in adv.METHODS:
            raise PanelCauseError("CONFIG_ERROR", f"unknown method '{m}'")
    normal_ci(0.0, 1.0, ci_level)   # a level outside (0, 1) fails here, not per rep
    if reps < 1:
        raise PanelCauseError("CONFIG_ERROR", f"need reps ≥ 1, got {reps}")

    per_rep, skipped, rows = [], [], []
    with shared_memo():
        for ci_idx, config in enumerate(configs):
            if not config.name:
                config.name = f"cfg{ci_idx}"
            config.validate()
            panel0, _ = simulate_panel(config, 0)
            try:
                rec = adv.recommend(adv.derive_features(panel0))
                reasons = {m: rec.methods[m].reasons for m in methods
                           if not rec.methods[m].viable}
            except PanelCauseError as exc:      # e.g. NO_TREATED_UNITS
                reasons = {m: [(exc.code, exc.message)] for m in methods}
            active = []
            for m in methods:
                if force or m not in reasons:
                    active.append(m)
                else:
                    skipped.append((config.name, m, reasons[m][0][0]))
            if not active:
                continue

            if threads > 1:
                # each task runs in a copy of this context, so it sees the memo
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    futures = [pool.submit(contextvars.copy_context().run,
                                           _one_rep, config, active, r, ci_level)
                               for r in range(reps)]
                batches = [f.result() for f in futures]
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
