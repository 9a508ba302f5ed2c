"""Outside-in span tracing of panelcause's public layer functions.

The tracer changes nothing in the program. For each named function object
it finds every module attribute in ``panelcause.*`` bound to that object
(``did``, ``its``, ``ar``, ``cli`` and ``simharness`` import ``build_design``,
``ols_fit`` and the ``fit_*`` functions by name) and rebinds it to a
wrapper; ``numpy.linalg.lstsq`` and ``numpy.linalg.pinv`` are wrapped on
``numpy.linalg`` itself, which is where the package looks them up. A name
that no longer resolves raises ``LayerMissing``, so a rename cannot read as
a layer that costs nothing.

A span is ``[name, parent, start, end, child_s, cpu_s, info]``. The parent
stack is kept per thread; spans stay in memory until summarised. Self time
is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager

NAME, PARENT, START, END, CHILD_S, CPU_S, INFO = range(7)

# Layers whose per-layer metrics the benchmark reports, with the value read
# from each call's return value (None: nothing read).
LAYERS = {
    "linreg.build_design": lambda r: (len(r.column_names),
                                      len(r.dropped_columns)),
    "linreg.ols_fit": None,
    "linreg.absorb_fixed_effects": None,
    "numpy.linalg.lstsq": None,
    "numpy.linalg.pinv": None,
    "scm.solve_simplex_lsq": lambda r: r[2],          # iterations
    "scm._active_set_polish": lambda r: r is not None,  # polish succeeded
    "scm.fit_scm": None,
    "scm.fit_staggered_ascm": None,
    "did.fit_group_time_att": None,
    "did.fit_imputation_did": None,
    "ar.fit_debiased_ar": lambda r: r.iterations,     # fixed-point passes
    "simharness.simulate_panel": None,
    "simharness.evaluate": None,
    "panel.load_panel": None,
    "panel.derive_adoption": None,
    "advisor.derive_features": None,
    "advisor.recommend": None,
    "cli.main": None,
}

# Estimator entry points the CLI and the harness call. They are wrapped too,
# so that their time is not charged to cli.main or simharness.evaluate, and
# their spans record thread CPU time for simharness.runtime_ratio.
ESTIMATORS = (
    "did.fit_did_twfe", "did.fit_event_study", "did.fit_group_time_att",
    "did.fit_imputation_did", "ar.fit_debiased_ar", "its.fit_cits",
    "scm.fit_scm", "scm.fit_ascm", "scm.placebo_inference",
    "scm.fit_staggered_ascm",
)


class LayerMissing(RuntimeError):
    """A named layer function no longer exists under its name."""


def _module_of(qualname):
    mod = qualname.rsplit(".", 1)[0]
    return mod if mod.startswith("numpy") else f"panelcause.{mod}"


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []              # (module, attribute, original)
        self._targets = self._resolve()

    def _resolve(self):
        """(qualname, function, info reader, records CPU) for every target."""
        importlib.import_module("panelcause.cli")  # the package skips it
        targets = []
        for qualname in dict.fromkeys([*LAYERS, *ESTIMATORS]):
            module = importlib.import_module(_module_of(qualname))
            fn = getattr(module, qualname.rsplit(".", 1)[1], None)
            if not callable(fn):
                raise LayerMissing(
                    f"traced layer {qualname} not found in {module.__name__}")
            targets.append((qualname, fn, LAYERS.get(qualname),
                            qualname in ESTIMATORS))
        return targets

    def _wrap(self, name, fn, info, cpu):
        spans, local = self.spans, self._local
        clock, thread_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0, 0.0,
                    None]
            spans.append(span)
            stack.append(span)
            c0 = thread_clock() if cpu else 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                if cpu:
                    span[CPU_S] = thread_clock() - c0
                stack.pop()
                if span[PARENT] is not None:
                    span[PARENT][CHILD_S] += span[END] - span[START]
            if info is not None:
                span[INFO] = info(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "panelcause"
                                         or n.startswith("panelcause."))]
        try:
            for qualname, fn, info, cpu in self._targets:
                wrapper = self._wrap(qualname, fn, info, cpu)
                mods = holders + ([sys.modules[_module_of(qualname)]]
                                  if qualname.startswith("numpy") else [])
                for module in mods:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, fn))
            yield self
        finally:
            while self._patches:
                module, attr, fn = self._patches.pop()
                setattr(module, attr, fn)


def self_time(span):
    return (span[END] - span[START]) - span[CHILD_S]


def summarise(spans):
    """Per-target totals over a list of spans: calls, self_s, total_s (self
    plus children) and the values read from return values. Every target
    appears, with zeros where it was not called.
    """
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "info": []}
           for name in dict.fromkeys([*LAYERS, *ESTIMATORS])}
    for s in spans:
        rec = out[s[NAME]]
        rec["calls"] += 1
        rec["self_s"] += self_time(s)
        rec["total_s"] += s[END] - s[START]
        if s[INFO] is not None:
            rec["info"].append(s[INFO])
    out["scm._active_set_polish"]["lstsq_calls"] = sum(
        1 for s in spans
        if s[NAME] == "numpy.linalg.lstsq" and s[PARENT] is not None
        and s[PARENT][NAME] == "scm._active_set_polish")
    return out


def top_estimator_spans(spans):
    """Estimator spans with no estimator span above them."""
    est = set(ESTIMATORS)
    out = []
    for s in spans:
        if s[NAME] not in est:
            continue
        p = s[PARENT]
        while p is not None and p[NAME] not in est:
            p = p[PARENT]
        if p is None:
            out.append(s)
    return out
