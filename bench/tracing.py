"""Spans and counts recorded around the calls into each capmix layer.

A traced run replaces module-level names of the program with wrappers that
record a span per call: its name, start, end, parent span, and the batch
(one timed repetition of the workload) and time step it belongs to.  The
layers reach each other only through such names (``solver`` calls
``fem.assemble_system``, ``fem`` calls ``entropy._state_from_w_many``, and
so on), so wrapping the names on their modules catches every call.  Spans
stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its direct children
cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

SETUP_BATCH = -1

# (module name, attribute, span name or None for a pure counter)
WRAPPED = (
    ("runio", "parse_config", "runio.parse"),
    ("runio", "write_outputs", "runio.write"),
    ("solver", "solve_time_step", "solver.step"),
    ("solver", "_fixed_point", "solver.fixed_point"),
    ("solver", "_newton_polish", "solver.newton"),
    ("solver", "solve_linear", "solver.linear"),
    ("fem", "assemble_system", "fem.assemble"),
    ("entropy", "_w_many", "entropy.forward"),
    ("entropy", "_state_from_w_many", "entropy.inverse"),
    ("entropy", "_solve_total_many", "entropy.rootfind"),
    ("entropy", "_f_of_total", None),
    ("diagnostics", "dissipation_budget", "diagnostics.budget"),
)

# Spans whose self time is charged to one per-layer metric.
_SELF_TIME = {
    "solver.step_self_s": ("solver.step", "solver.fixed_point",
                           "solver.newton"),
    "fem.assemble_self_s": ("fem.assemble",),
    "diagnostics.budget_self_s": ("diagnostics.budget",),
}
# Spans whose whole duration is one per-layer metric.
_INCLUSIVE = {
    "runio.parse_s": "runio.parse",
    "runio.write_s": "runio.write",
    "constitutive.tables_s": "constitutive.tables",
    "solver.linear_s": "solver.linear",
    "entropy.inverse_s": "entropy.inverse",
    "entropy.forward_s": "entropy.forward",
}
_CALLS = {
    "solver.steps": "solver.step",
    "solver.linear_calls": "solver.linear",
    "fem.assemble_calls": "fem.assemble",
    "diagnostics.budget_calls": "diagnostics.budget",
}

# Unit of every per-layer metric the benchmark reports.
UNITS = {
    "capmix.import_s": "s",
    "runio.parse_s": "s",
    "runio.write_s": "s",
    "runio.write_bytes": "B",
    "constitutive.tables_s": "s",
    "solver.steps": "count",
    "solver.map_evals": "count",
    "solver.newton_map_evals": "count",
    "solver.homotopy_steps": "count",
    "solver.step_self_s": "s",
    "solver.linear_calls": "count",
    "solver.linear_s": "s",
    "fem.assemble_calls": "count",
    "fem.assemble_self_s": "s",
    "entropy.inverse_points": "count",
    "entropy.inverse_s": "s",
    "entropy.forward_s": "s",
    "entropy.rootfind_point_evals": "count",
    "entropy.rootfind_evals_per_point": "evals/point",
    "diagnostics.budget_calls": "count",
    "diagnostics.budget_self_s": "s",
    "trace.solve_s": "s",
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, batch, step].
        self.spans = []
        self._stack = []
        self.batch = SETUP_BATCH
        self.step = -1
        self.counts = defaultdict(lambda: defaultdict(int))

    def start_batch(self, batch):
        self.batch = batch
        self.step = 0

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.batch, self.step])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def count(self, key, amount=1):
        self.counts[self.batch][key] += int(amount)

    # -- wrapping ---------------------------------------------------------

    def install(self, modules):
        """Wrap every name in WRAPPED on the given {name: module} map.

        A name the program no longer has is left out and reported on
        standard error; the metrics it feeds then read 0.
        """
        missing = []
        for mod_name, attr, span_name in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrapper(attr, span_name, original))
        if missing:
            print("trace: not wrapped (missing in the program): "
                  + ", ".join(missing), file=sys.stderr)

    def _wrapper(self, attr, span_name, original):
        before = getattr(self, f"_before_{attr.lstrip('_')}", None)
        after = getattr(self, f"_after_{attr.lstrip('_')}", None)

        if span_name is None:
            @functools.wraps(original)
            def counted(*args, **kwargs):
                before(args, kwargs)
                return original(*args, **kwargs)
            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(result)
            return result
        return traced

    # -- counters taken from arguments and results ------------------------
    # Hooks run outside the span: before the call or after it returns.

    def _before_solve_time_step(self, args, kwargs):
        self.step += 1

    def _after_fixed_point(self, result):
        # (w, evals, residual, converged, mixing)
        self.count("solver.map_evals", result[1])
        self.count("solver.fixed_point_calls")

    def _after_newton_polish(self, result):
        # (w, residual, converged, evals_used)
        self.count("solver.newton_map_evals", result[3])

    def _after_state_from_w_many(self, result):
        self.count("entropy.inverse_points", len(result[1]))

    def _before_f_of_total(self, args, kwargs):
        # Only evaluations made by the root-find count as root-find work.
        if self._stack and self.spans[self._stack[-1]][0] == "entropy.rootfind":
            total = args[0] if args else kwargs["total"]
            self.count("entropy.rootfind_point_evals", getattr(total, "size", 1))

    # -- metrics ----------------------------------------------------------

    def batch_metrics(self, batch):
        """Per-layer metrics of one batch from its spans and counts."""
        dur = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_cover = defaultdict(float)
        for name, start, end, parent, b, _ in self.spans:
            if b != batch or end is None:
                continue
            if parent >= 0 and self.spans[parent][4] == batch:
                child_cover[parent] += end - start
        for idx, (name, start, end, parent, b, _) in enumerate(self.spans):
            if b != batch or end is None:
                continue
            dur[name] += end - start
            self_time[name] += (end - start) - child_cover[idx]
            calls[name] += 1

        counts = self.counts[batch]
        out = {}
        for metric, span_name in _INCLUSIVE.items():
            out[metric] = dur[span_name]
        for metric, names in _SELF_TIME.items():
            out[metric] = sum(self_time[n] for n in names)
        for metric, span_name in _CALLS.items():
            out[metric] = calls[span_name]
        for key in ("solver.map_evals", "solver.newton_map_evals",
                    "entropy.inverse_points", "entropy.rootfind_point_evals",
                    "runio.write_bytes"):
            out[key] = counts[key]
        # Every step runs one fixed-point solve at full load; any further
        # solve in the step is a rung of the homotopy ladder.
        out["solver.homotopy_steps"] = (counts["solver.fixed_point_calls"]
                                        - calls["solver.step"])
        points = counts["entropy.inverse_points"]
        out["entropy.rootfind_evals_per_point"] = (
            counts["entropy.rootfind_point_evals"] / points if points else 0.0)
        return out

    def write(self, path, meta):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "batch",
                            "step"],
            "span_names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                      for s in self.spans],
            "counts": {str(b): dict(c) for b, c in self.counts.items()},
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))

