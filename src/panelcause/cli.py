"""Command-line interface: describe / recommend / fit / simulate.

Every document embeds the tool version, the fully resolved run config, and
the seed, and contains no timestamps — rerunning a command reproduces its
output byte for byte. Estimator and loader errors print one
``error CODE: message`` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from . import advisor as adv
from .errors import PanelCauseError
from .linreg import FitResult, normal_ci
from .panel import (ColumnSpec, balance_panel, cumulative_adoption_counts,
                    derive_adoption, load_panel)
from .scm import placebo_inference
from .simharness import DgpConfig, evaluate


def _jsonable(x):
    """Nested dataclasses/arrays → plain JSON types; NaN → None."""
    if isinstance(x, FitResult):
        return {"n": x.n, "rank": x.rank, "cluster_count": x.cluster_count,
                "coefficients": _jsonable(x.coefficients),
                "dropped_columns": _jsonable(x.dropped_columns)}
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {_key(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if np.isnan(x):
            return None
        if np.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for k in doc:
            rows.extend(_flatten(doc[k], f"{prefix}{k}."))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], "" if doc is None else doc))
    return rows


def _render(doc, fmt):
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["field,value"]
        for k, v in sorted(_flatten(doc)):
            sv = str(v)
            if "," in sv or '"' in sv or "\n" in sv:
                sv = '"' + sv.replace('"', '""') + '"'
            lines.append(f"{k},{sv}")
        return "\n".join(lines) + "\n"
    raise PanelCauseError("CONFIG_ERROR", f"unknown format '{fmt}'")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _colspec(args):
    cov = None
    if args.covariates is not None:
        cov = tuple(c for c in args.covariates.split(",") if c)
    return ColumnSpec(unit=args.unit_col, time=args.time_col,
                      outcome=args.outcome_col, policy=args.policy_col,
                      covariates=cov)


def _resolved_config(args, keys):
    return {k: getattr(args, k) for k in keys}


def _load(args):
    try:
        return load_panel(args.data, _colspec(args))
    except PanelCauseError as exc:
        raise PanelCauseError(exc.code, f"{args.data}: {exc.message}",
                              **exc.details) from exc
    except OSError as exc:
        raise PanelCauseError("CONFIG_ERROR", f"{args.data}: {exc}") from exc


# ---------------------------------------------------------------------------
# describe


def cmd_describe(args):
    panel = _load(args)
    _, report = balance_panel(panel, mode="UNBALANCED")
    schedule = derive_adoption(panel)
    features = adv.derive_features(panel, schedule)
    doc = {
        "tool": "panelcause", "version": __version__, "command": "describe",
        "config": _resolved_config(args, ("data", "unit_col", "time_col",
                                          "outcome_col", "policy_col",
                                          "covariates", "format")),
        "balance": _jsonable(report),
        "schedule": {
            "timing_class": schedule.timing_class,
            "cohorts": {str(panel.label_of(g)): list(us)
                        for g, us in sorted(schedule.cohorts.items())},
            "cohort_sizes": {str(panel.label_of(g)): n for g, n
                             in sorted(schedule.cohort_sizes().items())},
            "never_treated": list(schedule.never_treated),
            "cumulative_with_policy": dict(zip(
                map(str, panel.time_labels),
                cumulative_adoption_counts(schedule, range(panel.time_count)))),
        },
        "features": _jsonable(features),
    }
    if args.format == "json":
        _emit(_render(doc, "json"), args.out)
        return 0
    lines = [f"panelcause {__version__} describe  data={args.data}",
             f"units: {panel.unit_count}   periods: {panel.time_count} "
             f"({panel.time_labels[0]}..{panel.time_labels[-1]})   "
             f"rows: {panel.n_rows}",
             f"balanced: {report.is_balanced}   missing cells: "
             f"{report.missing_cells}",
             f"timing: {schedule.timing_class}",
             f"cohorts ({len(schedule.cohorts)}):"]
    for g in sorted(schedule.cohorts):
        n_pre, n_post = report.cohort_periods.get(g, (g, panel.time_count - g))
        lines.append(f"  adoption {panel.label_of(g)}: "
                     f"{len(schedule.cohorts[g])} unit(s), "
                     f"{n_pre} pre / {n_post} post periods")
    lines.append(f"never treated: {len(schedule.never_treated)} unit(s)")
    lines.append("cumulative units with policy in effect: " + ", ".join(
        f"{lab}:{n}" for lab, n in zip(
            panel.time_labels,
            cumulative_adoption_counts(schedule, range(panel.time_count)))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# recommend


def cmd_recommend(args):
    panel = _load(args)
    rec = adv.recommend(adv.derive_features(panel))
    doc = {
        "tool": "panelcause", "version": __version__, "command": "recommend",
        "config": _resolved_config(args, ("data", "unit_col", "time_col",
                                          "outcome_col", "policy_col",
                                          "covariates", "format")),
        "features": _jsonable(rec.features),
        "viable": list(rec.viable),
        "methods": {m: {
            "viable": a.viable,
            "reasons": [{"code": c, "message": t} for c, t in a.reasons],
            "assumptions": list(a.assumptions),
            "heterogeneity": {"by_time": a.heterogeneity_by_time,
                              "by_cohort": a.heterogeneity_by_cohort},
            "cautions": [{"code": c, "message": t} for c, t in a.cautions],
        } for m, a in rec.methods.items()},
    }
    if args.format == "json":
        _emit(_render(doc, "json"), args.out)
        return 0
    lines = [f"panelcause {__version__} recommend  data={args.data}",
             f"viable methods: {', '.join(rec.viable)}", ""]
    for m in adv.ALL_METHODS:
        a = rec.methods[m]
        if a.viable:
            lines.append(f"[x] {m}")
            lines.append(f"      assumptions: {', '.join(a.assumptions)}")
            for code, msg in a.cautions:
                lines.append(f"      caution {code}: {msg}")
        else:
            code, msg = a.reasons[0]
            lines.append(f"[ ] {m}  ({code}: {msg})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# fit


def _point_doc(spec, est, ci_level):
    """The document's headline (estimate, se, ci) from the method's summary."""
    point = spec.point(est)
    if point is None:
        return None
    estimate, se = point
    doc = {"estimate": _jsonable(estimate), "se": _jsonable(se)}
    if np.isfinite(se):
        doc["ci"] = list(normal_ci(estimate, se, ci_level))
    if spec.label:
        doc["label"] = spec.label
    return doc


def cmd_fit(args):
    panel = _load(args)
    rec = adv.recommend(adv.derive_features(panel))
    assessment = rec.methods.get(args.method)
    if assessment is None:
        raise PanelCauseError("CONFIG_ERROR", f"unknown method '{args.method}'")
    forced = False
    if not assessment.viable:
        if not args.force:
            code, msg = assessment.reasons[0]
            raise PanelCauseError(
                code, f"{args.method} not recommended for this design: {msg} "
                      "(--force overrides)")
        forced = True

    spec = adv.METHODS[args.method]
    cov = tuple(c for c in (args.covariates or "").split(",") if c)
    est = spec.fit(panel, cov, args.ci_level, args.seed)
    if spec.placebo:
        try:
            est.placebo = placebo_inference(panel, est.treated, covariates=cov)
        except PanelCauseError as exc:
            est.info["placebo_error"] = exc.code
    doc = {
        "tool": "panelcause", "version": __version__, "command": "fit",
        "config": _resolved_config(args, ("data", "unit_col", "time_col",
                                          "outcome_col", "policy_col",
                                          "covariates", "method", "seed",
                                          "ci_level", "format", "force")),
        "method": args.method,
        "forced": forced,
        "point": _point_doc(spec, est, args.ci_level),
        "time_labels": {str(i): lab for i, lab in enumerate(panel.time_labels)},
        "estimate": _jsonable(est),
        "assumptions": list(assessment.assumptions),
        "cautions": [{"code": c, "message": t} for c, t in assessment.cautions],
    }
    _emit(_render(doc, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    try:
        with open(args.data) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise PanelCauseError("CONFIG_ERROR", f"{args.data}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PanelCauseError("CONFIG_ERROR",
                              f"{args.data}: invalid JSON ({exc})") from exc
    raw_configs = raw if isinstance(raw, list) else [raw]
    configs = [DgpConfig.from_json(c) for c in raw_configs]
    if args.seed is not None:
        for c in configs:
            c.seed = args.seed
    methods = (tuple(m for m in args.method.split(",") if m)
               if args.method else adv.ALL_METHODS)

    metrics = evaluate(configs, methods, args.reps, ci_level=args.ci_level,
                       force=args.force)
    prefix = args.out or "sim"
    run_doc = {
        "tool": "panelcause", "version": __version__, "command": "simulate",
        "config": {"data": args.data, "reps": args.reps,
                   "methods": list(methods), "seed": args.seed,
                   "ci_level": args.ci_level, "force": args.force,
                   "out": prefix},
        "dgp_configs": [json.loads(c.to_json()) for c in configs],
        "skipped": [{"config": c, "method": m, "reason": r}
                    for c, m, r in metrics.skipped],
    }
    with open(f"{prefix}_run.json", "w") as fh:
        fh.write(_render(run_doc, "json"))
    metrics.write_metrics_csv(f"{prefix}_metrics.csv")
    metrics.write_reps_csv(f"{prefix}_reps.csv")

    print(f"panelcause {__version__} simulate  reps={args.reps}")
    for c, m, r in metrics.skipped:
        print(f"skipped {m} on {c}: {r}")
    for row in metrics.rows:
        print(f"{row.config} {row.method}: bias={row.bias:+.4f} "
              f"sd={row.sd:.4f} rmse={row.rmse:.4f} "
              f"coverage={row.coverage:.3f} failures={row.failures}/{row.reps}")
    print(f"wrote {prefix}_run.json {prefix}_metrics.csv {prefix}_reps.csv")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="input CSV (simulate: config JSON)")
    p.add_argument("--unit-col", default="unit", dest="unit_col")
    p.add_argument("--time-col", default="time", dest="time_col")
    p.add_argument("--outcome-col", default="outcome", dest="outcome_col")
    p.add_argument("--policy-col", default="policy", dest="policy_col")
    p.add_argument("--covariates", default=None,
                   help="comma-separated covariate columns (default: all numeric extras)")


def build_parser():
    top = argparse.ArgumentParser(
        prog="panelcause",
        description="Panel policy-evaluation toolkit: design description, "
                    "method selection, estimation, simulation.")
    top.add_argument("--version", action="version",
                     version=f"panelcause {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="panel shape, cohorts, balance")
    _add_data_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("recommend", help="viable methods for this design")
    _add_data_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("fit", help="run one estimator")
    _add_data_flags(p)
    p.add_argument("--method", required=True, choices=adv.ALL_METHODS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci-level", type=float, default=0.95, dest="ci_level")
    p.add_argument("--force", action="store_true",
                   help="run even when the advisor rules the method out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="Monte Carlo estimator comparison")
    p.add_argument("--data", required=True, help="DGP config JSON (one or a list)")
    p.add_argument("--method", default=None,
                   help="comma-separated method ids (default: all)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed in every config")
    p.add_argument("--ci-level", type=float, default=0.95, dest="ci_level")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None, help="output file prefix (default: sim)")
    p.set_defaults(func=cmd_simulate)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PanelCauseError as exc:
        print(f"error {exc.code}: {exc.message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
