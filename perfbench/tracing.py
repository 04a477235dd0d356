"""Spans around condflow's public functions, installed from outside.

The tracer replaces each traced function in every condflow module that
binds it, whether as a module attribute (``darcy.upscale``, which
``mcmc`` calls) or as a ``from ... import`` name (``study`` and ``cli``
bind ``solve_pressure``, ``run_study``, ``read_trace_csv`` and others by
name). Spans live in memory as (name, start_ns, end_ns, parent) and are
written out once the workload has finished; :meth:`Tracer.restore` puts
every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

#: (module, function) pairs traced; each span is named "module.function"
TRACED = (
    ("grid", "write_field_pgm"),
    ("grid", "read_field_csv"),
    ("covariance", "assemble_covariance"),
    ("kle", "solve_kle"),
    ("kle", "synthesize_unconditioned"),
    ("kriging", "krige"),
    ("kriging", "read_measurements_csv"),
    ("conditioning", "build_data_matrix"),
    ("conditioning", "nullspace_basis"),
    ("conditioning", "synthesize_conditioned"),
    ("darcy", "solve_pressure"),
    ("darcy", "upscale"),
    ("mcmc", "run_study"),
    ("mcmc", "run_chain"),
    ("mcmc", "write_trace_csv"),
    ("mcmc", "read_trace_csv"),
    ("diagnostics", "diagnostics_series"),
    ("diagnostics", "mpsrf"),
    ("diagnostics", "write_report_csv"),
    ("diagnostics", "write_report_dat"),
    ("study", "build_setup"),
    ("study", "run_one_study"),
    ("study", "run_reference_experiment"),
    ("cli", "main"),
)


class Tracer:
    """In-memory span recorder; one instance per traced workload."""

    def __init__(self, fine_grid):
        self.fine_grid = fine_grid
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = []
        self._patches = []

    def _span_name(self, name, args):
        # the fine and coarse pressure solves are different layers
        if name == "darcy.solve_pressure":
            grid = args[0].grid
            return name + (".fine" if grid == self.fine_grid else ".coarse")
        return name

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self._span_name(name, args), 0, 0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def install(self):
        """Patch every binding of every traced function in condflow."""
        for mod_name, _ in TRACED:
            importlib.import_module("condflow." + mod_name)
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("condflow.") and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["condflow." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def summarize(spans):
    """Per span name: call count, inclusive durations (us) and total self
    time (s). Self time is a span's duration minus its children's."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations, self_ns = {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        durations.setdefault(name, []).append((end - start) / 1e3)
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
    return {
        name: {
            "calls": len(d),
            "us": np.asarray(d),
            "total_s": float(np.sum(d)) / 1e6,
            "self_s": self_ns[name] / 1e9,
        }
        for name, d in durations.items()
    }


def calls_under(spans, ancestor, name):
    """Number of ``name`` spans nested, at any depth, in an ``ancestor``
    span."""
    def inside(i):
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][3]
        return False

    return sum(1 for s in spans if s[0] == name and inside(s[3]))
