"""panelcause benchmark: CLI fit latency and Monte Carlo throughput.

    python3 bench/run.py --workload WORKLOAD --seed 0 --seconds 30 --trace 0

Each workload is one closed-loop caller in one process: it calls the
``panelcause`` CLI in-process, waits for each reply, and leaves the
program's own parallelism at its default. Set-up runs ``make_inputs.py`` as
a fresh process several times; it writes the run's inputs, drawn from the
seed. Passes then repeat the workload's job (see ``workloads.py``) on the
inputs in turn until ``--seconds`` is used up. Every output is checked:
byte-identical across passes, invariants on every seed, and the values in
``reference.json`` on the reference seed. README.md describes the metrics.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics
of a traced run (see ``layertrace.py``), which alternates untraced and
traced passes to measure the tracing overhead. The lines before it give
every metric of the workload by name, the checks and the environment.
The exit code is nonzero when the program cannot be imported or set up,
or when an output differs from the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
from workloads import INPUTS_PER_RUN, WORKLOADS, input_name, is_simulation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5          # set-up processes per run; setup_s is their median
SETUP_TIMEOUT_S = 120
PROBE_NOMINAL_S = 0.01  # probe wall time that defines nominal machine speed
SAMPLE_EVERY_S = 0.25   # probe interval inside an untraced call
CHEAP_FIT_S = 0.5       # fits faster than this are repeated within a pass ...
CHEAP_REPEATS = 4       # ... this many more times (untraced runs only)
REF_TOL = 1e-8          # absolute; the acceptance tests allow 1e-6
EXACT_FIELDS = ("placebo_p", "failures")
NO_SE = ("SCM", "ASCM")  # report a placebo p-value instead of an SE
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PANELCAUSE_THREADS")


def nproc() -> int:
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def import_program():
    """Import panelcause from this checkout's src/, nowhere else."""
    if not (SRC / "panelcause" / "__init__.py").is_file():
        raise SystemExit(f"bench: no panelcause sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import panelcause
    import panelcause.cli
    if Path(panelcause.__file__).resolve().parent != SRC / "panelcause":
        raise SystemExit(
            f"bench: imported panelcause from {panelcause.__file__}")
    return panelcause


def environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    env = {k: v for k, v in sorted(os.environ.items())
           if k in THREAD_VARS or "BLAS" in k}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": nproc(),
            "env": env}


# ---------------------------------------------------------------------------
# set-up


def set_up(workload, seed, work):
    """Run the input generator SETUP_RUNS times; return their wall times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(BENCH / "make_inputs.py"), workload,
            str(seed), str(work)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# passes


def probe() -> float:
    """Wall time of a fixed single-threaded task that touches nothing of
    panelcause: an interpreter loop and element-wise numpy work. It tracks
    the speed of the shared machine; see "Run length and noise" in
    README.md."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(75_000):
        acc += i * i % 7
    v = np.arange(2048.0)
    for _ in range(100):
        v = np.sort(np.cos(v))
    return time.perf_counter() - t0


def call_cli(cli, argv, spans, probe_before):
    """One in-process CLI call: wall time, the wall time scaled to nominal
    machine speed, return code, stdout, and the range of spans it recorded.

    Speed is the nominal probe time over the mean of the probes before and
    after the call and, on untraced calls (spans is None), of probes taken
    every SAMPLE_EVERY_S during it from a SIGALRM handler; the handler's own
    time is not counted as the call's. Traced calls take no probe inside,
    since it would land inside the spans.
    """
    out, err = io.StringIO(), io.StringIO()
    probes, paused = [probe_before], 0.0

    def sample(signum, frame):
        nonlocal paused
        t = time.perf_counter()
        probes.append(probe())
        paused += time.perf_counter() - t

    i0 = len(spans) if spans is not None else 0
    handler = signal.signal(signal.SIGALRM, sample) if spans is None else None
    t0 = time.perf_counter()
    try:
        if spans is None:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash fails the call, not the run
                rc = f"{type(exc).__name__}: {exc}"
    finally:
        if spans is None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, handler)
    elapsed = time.perf_counter() - t0
    wall = elapsed - paused
    i1 = len(spans) if spans is not None else 0
    probes.append(probe())
    speed = PROBE_NOMINAL_S / statistics.mean(probes)
    return {"wall_s": wall, "s": wall * speed, "speed": speed,
            "unpaused": wall / elapsed, "rc": rc,
            "out": out.getvalue(), "err": err.getvalue(), "spans": (i0, i1),
            "probe_after": probes[-1]}


def fit_pass(cli, data, methods, spans, repeats):
    """The job: recommend, then fit every method once. Then each fit that
    took under CHEAP_FIT_S runs `repeats` more times, labelled "METHOD*k",
    so that the median of a millisecond fit rests on more samples.
    Returns the calls by label."""
    jobs = {"recommend": ["recommend", "--data", data, "--format", "json"]}
    jobs.update((m, ["fit", "--data", data, "--method", m]) for m in methods)
    calls, before = {}, probe()
    for label, argv in jobs.items():
        calls[label] = call_cli(cli, argv, spans, before)
        before = calls[label]["probe_after"]
    for m in methods:
        if calls[m]["s"] < CHEAP_FIT_S:
            for k in range(1, repeats + 1):
                calls[f"{m}*{k}"] = call_cli(cli, jobs[m], spans, before)
                before = calls[f"{m}*{k}"]["probe_after"]
    return calls


def sim_pass(cli, data, methods, reps, prefix, spans):
    """One simulate call, with the rows and runtimes of its output files."""
    argv = ["simulate", "--data", data, "--method", ",".join(methods),
            "--reps", str(reps), "--force", "--out", prefix]
    call = call_cli(cli, argv, spans, probe())
    if call["rc"] == 0:
        with open(f"{prefix}_metrics.csv", newline="") as fh:
            call["rows"] = list(csv.DictReader(fh))
        with open(f"{prefix}_reps.csv", newline="") as fh:
            call["runtime_s"] = sum(float(r["runtime_s"])
                                    for r in csv.DictReader(fh))
        with open(f"{prefix}_run.json") as fh:
            call["out"] = fh.read()
    return {"simulate": call}


# ---------------------------------------------------------------------------
# output summaries and checks


def _num(text):
    return float(text) if text != "" else float("nan")


def fit_summary(doc):
    """Values compared against the reference: point, SE, CI, p-values."""
    point, est = doc["point"], doc["estimate"]
    out = {"estimate": point["estimate"], "se": point["se"],
           "ci": point.get("ci")}
    for key in ("p_value", "pretrend_p"):
        if key in est:
            out[key] = est[key]
    if est.get("placebo"):
        out["placebo_p"] = est["placebo"]["p_value"]
        out["placebo_count"] = len(est["placebo"]["placebo_ratios"])
    return out


def sim_summary(rows):
    return {r["method"]: {"bias": _num(r["bias"]), "sd": _num(r["sd"]),
                          "rmse": _num(r["rmse"]),
                          "coverage": _num(r["coverage"]),
                          "failures": int(r["failures"]),
                          "reps": int(r["reps"])} for r in rows}


def summarise_calls(workload, calls):
    """Reference-comparable summary of one pass's outputs."""
    if is_simulation(workload):
        return sim_summary(calls["simulate"]["rows"])
    return {m: fit_summary(json.loads(calls[m]["out"]))
            for m in WORKLOADS[workload]["methods"]}


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def invariant_problems(workload, summary):
    """Checks that hold on every seed."""
    probs = []
    for m, s in summary.items():
        if is_simulation(workload):
            if not all(_finite(s[k]) for k in ("bias", "sd", "rmse")):
                probs.append(f"{m}: non-finite bias/sd/rmse")
            if not 0.0 <= s["coverage"] <= 1.0:
                probs.append(f"{m}: coverage {s['coverage']} outside [0, 1]")
            continue
        if not _finite(s["estimate"]):
            probs.append(f"{m}: estimate {s['estimate']} not finite")
        if m in NO_SE:
            J = s.get("placebo_count", 0)
            p = s.get("placebo_p")
            if not J or not (1.0 / (J + 1) <= p <= 1.0):
                probs.append(f"{m}: placebo p {p} outside [1/(J+1), 1], J={J}")
        elif not _finite(s["se"]):
            probs.append(f"{m}: SE {s['se']} not finite")
    return probs


def reference_problems(got, want, path=""):
    """Differences from the recorded reference, beyond REF_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            shown = sorted(got) if isinstance(got, dict) else got
            return [f"{path}: keys {shown} != {sorted(want)}"]
        return [p for k in want
                for p in reference_problems(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in reference_problems(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not path.endswith(EXACT_FIELDS):
        if _finite(got) and abs(got - want) <= REF_TOL:
            return []
        if isinstance(got, float) and math.isnan(got) and math.isnan(want):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} != reference {want!r}"]


def bacon_problems(pc, data):
    """Goodman-Bacon identity on the panel, as tests/test_acceptance.py
    states it: weights >= -1e-12 summing to 1 within 1e-8, weighted sum
    equal to the TWFE coefficient within 1e-6."""
    panel = pc.load_panel(data)
    dec = pc.goodman_bacon_decompose(panel)
    twfe = pc.fit_did_twfe(panel).att
    weights = [c.weight for c in dec.comparisons]
    probs = []
    if min(weights) < -1e-12 or abs(sum(weights) - 1.0) > 1e-8:
        probs.append(f"bacon: weights {weights} not a distribution")
    if not abs(dec.weighted_sum - twfe) <= 1e-6:
        probs.append(f"bacon: weighted sum {dec.weighted_sum} != TWFE {twfe}")
    return probs


class Checker:
    """Counts operations and failures. The first output of each call on each
    input is checked against the invariants and, on the reference seed, the
    reference; every later output of that call on that input must match it
    byte for byte, so a wrong output fails every time it is produced."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference  # one summary per input, or None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}             # (input, call label) -> first output
        self.bad = set()            # (input, call label) with a wrong output

    def record(self, label, ops, failed, problems=()):
        self.attempted += ops
        self.failed += failed
        self.problems.extend(f"{label}: {p}" for p in problems)

    def check_pass(self, k, calls):
        new = {label: c for label, c in calls.items()
               if "*" not in label and (k, label) not in self.first}
        self.first.update(((k, label), c["out"]) for label, c in new.items())
        self._check_outputs(k, new)
        wl = WORKLOADS[self.workload]
        for label, c in calls.items():
            job = (k, label.split("*")[0])  # a repeat is checked as its job
            ops = wl["reps"] * len(wl["methods"]) if label == "simulate" else 1
            where = f"input {k} {label}"
            if c["rc"] != 0:
                self.record(where, ops, ops,
                            [f"exit {c['rc']}: {c['err'].strip()}"])
            elif c["out"] != self.first[job]:
                self.record(where, ops, ops,
                            ["output differs from its first run"])
            elif job in self.bad:
                self.record(where, ops, ops)
            elif label == "simulate":
                fails = sum(int(r["failures"]) for r in c["rows"])
                self.record(where, ops, fails,
                            [f"{fails} failed replications"] if fails else [])
            else:
                self.record(where, ops, 0)

    def _check_outputs(self, k, calls):
        wl = WORKLOADS[self.workload]
        for label, c in calls.items():
            if c["rc"] != 0:
                continue
            if label == "recommend":
                viable = json.loads(c["out"])["viable"]
                probs = [f"advisor no longer marks {m} viable"
                         for m in wl["methods"] if m not in viable]
            else:
                summary = (sim_summary(c["rows"]) if label == "simulate"
                           else {label: fit_summary(json.loads(c["out"]))})
                probs = invariant_problems(self.workload, summary)
                if self.reference is not None:
                    want = {m: self.reference[k][m] for m in summary}
                    probs += reference_problems(summary, want, "reference")
            if probs:
                self.bad.add((k, label))
                self.problems.extend(f"input {k} {label}: {p}" for p in probs)

    @property
    def correct(self):
        return self.failed == 0


# ---------------------------------------------------------------------------
# metrics


def run_passes(run_pass, deadline):
    """Run passes on inputs 0, 1, ... (cycling) until the next one would end
    after the deadline; yields (input, calls)."""
    times = []
    for i in itertools.count():
        k = i % INPUTS_PER_RUN
        t0 = time.perf_counter()
        calls = run_pass(k)
        times.append(time.perf_counter() - t0)
        yield k, calls
        if time.perf_counter() + statistics.median(times) > deadline:
            return


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def end_to_end(workload, setup_times, passes):
    """Every end-to-end figure of the workload: name -> (value, unit, n,
    median raw wall time or None). Timings of calls are speed-scaled."""
    wl = WORKLOADS[workload]
    if is_simulation(workload):   # a failed simulate call has no timings
        passes = [p for p in passes if p["simulate"]["rc"] == 0]
        if not passes:
            raise SystemExit("bench: every simulate call failed")
    n = len(passes)

    def timing(per_pass):
        return (statistics.median(per_pass(p, "s") for p in passes), "s", n,
                statistics.median(per_pass(p, "wall_s") for p in passes))

    rows = {"setup_s": (statistics.median(setup_times), "s",
                        len(setup_times), None),
            "analysis_s": timing(lambda p, k: sum(
                c[k] for label, c in p.items() if "*" not in label))}
    fit_s = {}
    if is_simulation(workload):
        sim = [p["simulate"] for p in passes]
        rows["mc_reps_per_s"] = (
            statistics.median(wl["reps"] / c["s"] for c in sim), "1/s", n,
            None)
        for m in wl["methods"]:    # the harness's own per-rep runtime_s,
            def rep_s(p, k, m=m):  # less the share the probes took
                c = p["simulate"]
                mean = float(next(r["mean_runtime_s"] for r in c["rows"]
                                  if r["method"] == m)) * c["unpaused"]
                return mean * (c["speed"] if k == "s" else 1.0)
            rows[f"rep_fit_s.{m}"] = timing(rep_s)
            fit_s[m] = rows[f"rep_fit_s.{m}"][0]
    else:
        for m in wl["methods"]:
            samples = {k: [c[k] for p in passes for label, c in p.items()
                           if label.split("*")[0] == m]
                       for k in ("s", "wall_s")}
            rows[f"fit_s.{m}"] = (statistics.median(samples["s"]), "s",
                                  len(samples["s"]),
                                  statistics.median(samples["wall_s"]))
            fit_s[m] = rows[f"fit_s.{m}"][0]
    rows["fit_s.geomean"] = (geomean(fit_s.values()), "s", n, None)
    rows["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
        None)
    return rows


def layer_figures(workload, spans, calls):
    """Per-layer figures of one traced pass, by metric name."""
    summary = layertrace.summarise(spans)
    out = {}
    for layer in layertrace.LAYERS:
        out[f"{layer}.calls"] = summary[layer]["calls"]
        out[f"{layer}.self_s"] = summary[layer]["self_s"]
    bd = summary["linreg.build_design"]["info"]
    out["linreg.build_design.cols_kept"] = sum(k for k, _ in bd)
    out["linreg.build_design.cols_dropped"] = sum(d for _, d in bd)
    out["scm.solve_simplex_lsq.iterations"] = sum(
        summary["scm.solve_simplex_lsq"]["info"])
    polish = summary["scm._active_set_polish"]
    out["scm._active_set_polish.success_ratio"] = (
        sum(polish["info"]) / polish["calls"] if polish["calls"] else 0.0)
    out["scm._active_set_polish.lstsq_calls"] = polish["lstsq_calls"]
    out["scm._active_set_polish.total_s"] = polish["total_s"]
    out["ar.fit_debiased_ar.fp_iterations"] = sum(
        summary["ar.fit_debiased_ar"]["info"])
    out["simharness.runtime_ratio"] = 0.0
    if is_simulation(workload):
        out["simharness.runtime_ratio"] = runtime_ratio(
            calls["simulate"]["runtime_s"], spans)
    return out


def runtime_ratio(runtime_s, spans):
    """Sum of the harness's per-rep runtime_s over the thread CPU time of
    the estimator calls it timed, as the tracer saw them from outside."""
    cpu = sum(s[layertrace.CPU_S]
              for s in layertrace.top_estimator_spans(spans))
    return runtime_s / cpu


def layer_map(workload, traced):
    """Shares the layer table predicts, from the first traced pass."""
    spans, calls = traced["spans"], traced["calls"]

    def within(label):
        return layertrace.summarise(spans[slice(*calls[label]["spans"])])

    if workload == "scm_single":
        s, fit = within("SCM"), calls["SCM"]["wall_s"]
        polish = s["scm._active_set_polish"]
        return {"scm._active_set_polish.self_s / fit_s.SCM":
                polish["self_s"] / fit,
                "scm._active_set_polish.total_s / fit_s.SCM":
                polish["total_s"] / fit}
    if workload == "did_staggered":
        s, fit = within("IMPUTATION_DID"), calls["IMPUTATION_DID"]["wall_s"]
        return {"(linreg.build_design + linreg.ols_fit).self_s"
                " / fit_s.IMPUTATION_DID":
                (s["linreg.build_design"]["self_s"]
                 + s["linreg.ols_fit"]["self_s"]) / fit}
    s = layertrace.summarise(spans)
    return {"sum of scm.* calls": sum(v["calls"] for k, v in s.items()
                                      if k.startswith("scm."))}


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_reference(seed):
    with open(BENCH / "reference.json") as fh:
        ref = json.load(fh)
    return ref if ref["seed"] == seed else None


def make_pass(cli, workload, data, prefix, spans, repeats):
    """The workload's pass as a function of the input index."""
    wl = WORKLOADS[workload]
    if is_simulation(workload):
        return lambda k: sim_pass(cli, data[k], wl["methods"], wl["reps"],
                                  prefix, spans)
    return lambda k: fit_pass(cli, data[k], wl["methods"], spans, repeats)


def measure(args, pc, data, work, checker):
    """Untraced passes; returns the calls of each pass."""
    run_pass = make_pass(pc.cli, args.workload, data, str(work / "sim"),
                         None, CHEAP_REPEATS)
    deadline = time.perf_counter() + args.seconds
    passes = []
    for k, calls in run_passes(run_pass, deadline):
        checker.check_pass(k, calls)
        passes.append(calls)
    return passes


def measure_traced(args, pc, data, work, checker, tracer):
    """Alternating untraced and traced passes; returns per-layer figures.
    The untraced passes record into a throwaway span list, so that both
    sides of the overhead comparison are timed alike."""
    plain = make_pass(pc.cli, args.workload, data, str(work / "sim"), [], 0)
    traced_pass = make_pass(pc.cli, args.workload, data, str(work / "sim"),
                            tracer.spans, 0)
    untraced, traced = [], []

    def pair(k):
        calls = plain(k)
        checker.check_pass(k, calls)
        untraced.append(sum(c["s"] for c in calls.values()))
        i0 = len(tracer.spans)
        with tracer.installed():
            calls = traced_pass(k)
        checker.check_pass(k, calls)
        traced.append({"s": sum(c["s"] for c in calls.values()),
                       "calls": calls, "spans": tracer.spans[i0:]})
        for c in calls.values():   # span ranges relative to this pass
            c["spans"] = (c["spans"][0] - i0, c["spans"][1] - i0)

    # One untimed pass first, so that one-time costs of the process (lazy
    # imports, first-use set-up in numpy and scipy) fall on neither side.
    checker.check_pass(0, plain(0))
    deadline = time.perf_counter() + args.seconds
    for _ in run_passes(pair, deadline):
        pass

    per_pass = [layer_figures(args.workload, t["spans"], t["calls"])
                for t in traced]
    figures = {k: statistics.median(p[k] for p in per_pass)
               for k in per_pass[0]}
    figures["tracing.overhead_frac"] = (
        statistics.median(t["s"] for t in traced)
        / statistics.median(untraced) - 1.0)
    figures["simharness.runtime_ratio_nproc"] = 0.0
    if is_simulation(args.workload):
        figures["simharness.runtime_ratio_nproc"] = threaded_ratio(
            pc, data, tracer, args.workload)
    shares = layer_map(args.workload, traced[0])
    return figures, shares, len(traced)


def threaded_ratio(pc, data, tracer, workload):
    """runtime_ratio of a direct evaluate() call at threads = nproc."""
    wl = WORKLOADS[workload]
    with open(data[0]) as fh:
        config = pc.DgpConfig.from_json(fh.read())
    i0 = len(tracer.spans)
    with tracer.installed():
        result = pc.simharness.evaluate([config], wl["methods"], wl["reps"],
                                        force=True, threads=nproc())
    return runtime_ratio(sum(r.runtime_s for r in result.per_rep),
                         tracer.spans[i0:])


def main(argv=None):
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    pc = import_program()
    # A traced run resolves every layer first: a renamed one stops it here.
    tracer = layertrace.Tracer() if args.trace else None
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_times = set_up(args.workload, args.seed, work)
        data = [str(work / input_name(args.workload, k))
                for k in range(INPUTS_PER_RUN)]
        reference = load_reference(args.seed)
        checker = Checker(args.workload,
                          reference[args.workload] if reference else None)
        if args.workload == "did_staggered":
            for k, path in enumerate(data):
                probs = bacon_problems(pc, path)
                checker.record(f"input {k} bacon", 1, 1 if probs else 0, probs)

        if args.trace:
            figures, shares, n = measure_traced(args, pc, data, work, checker,
                                                tracer)
            units = {m["name"]: m["unit"] for m in wanted}
            print(f"traced run: {args.workload} seed {args.seed}, "
                  f"{n} traced pass(es); per-pass medians")
            for name in sorted(figures):
                print(f"  {name:45s} {figures[name]:.6g} "
                      f"{units.get(name, '')}")
            for name, value in shares.items():
                print(f"  layer map: {name} = {value:.4g}")
        else:
            passes = measure(args, pc, data, work, checker)
            rows = end_to_end(args.workload, setup_times, passes)
            figures = {k: v[0] for k, v in rows.items()}
            print(f"run: {args.workload} seed {args.seed}, "
                  f"{len(passes)} pass(es); medians over n samples, "
                  "speed-scaled (raw wall-clock median after it)")
            for name, (value, unit, n, wall) in rows.items():
                raw = f"  raw {wall:.6g} s" if wall is not None else ""
                print(f"  {name:28s} {value:12.6g} {unit:5s} n={n}{raw}")
        fail_frac = checker.failed / max(checker.attempted, 1)
        print(f"  {'fail_frac':28s} {fail_frac:12.6g} {'1':5s} "
              f"({checker.failed}/{checker.attempted}; reference check "
              f"{'on' if reference else 'off, invariants only'})")
        for p in checker.problems:
            print(f"  problem: {p}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise SystemExit(f"bench: no figure for {missing}")
    result = {"correct": checker.correct, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {m["name"]: {"value": figures[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 1 if reference and not checker.correct else 0


if __name__ == "__main__":
    sys.exit(main())
