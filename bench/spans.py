"""Spans around the calls into planegbp's layers, recorded from outside.

Each public function of a layer is replaced, for the duration of one traced
solve, by a wrapper that records a span (name, parent span, start, end) and,
where the call reports one, a work count. Spans stay in memory and are reduced
once, when the solve ends: a span's self time is its duration minus the
durations of its child spans.

Each function is wrapped where it is looked up: names that a module imports
with `from ... import` (harness.generate_scene, harness.lm_solve,
reference.evaluate_factor) are wrapped in the importing module, and names the
engine or harness call through a module (factors.eval_*_batch,
io_formats.write_*) are wrapped on that module. `tukey_weight_batch` is bound
inside the engine and stays in the engine's self time. The cli, geometry and
errors modules are not traced.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from planegbp import (
    abstraction,
    engine,
    factors,
    frontend,
    gaussians,
    graph,
    harness,
    io_formats,
    reference,
    routing,
)

EVAL_KINDS = ("reprojection", "plane_point", "plane_prediction",
              "rigid_plane_prediction", "rigid_reprojection")
# Writers that create a file themselves; the other io_formats writers call them.
FILE_WRITERS = ("write_json", "write_csv", "write_tum")


def _rows(args, result):
    return {"rows": int(result[0].shape[0])}


def _sweep(args, report):
    eng = args[0]
    return {
        "relinearised": report.n_relinearised,
        "factor_sweeps": report.n_factors,
        "dropped": report.n_dropped,
        "edges": sum(b.n * b.arity for b in eng.batches),
        "marginalisation_calls": report.marginalisation_calls,
        "regularised": report.n_regularised,
    }


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _hops(args, records):
    return {"hops": sum(r["hops"] for r in records)}


# span name -> ([(owner, attribute), ...], work count or None)
TARGETS = {
    "harness.run": ([(harness, "run")], None),
    "harness.build_ba_graph": ([(harness, "build_ba_graph")], None),
    "frontend.generate_scene": ([(harness, "generate_scene")], None),
    "frontend.emit_keyframe": ([(frontend.SyntheticScene, "emit_keyframe")], None),
    "graph.add_variable": ([(graph.FactorGraph, "add_variable")], None),
    "graph.add_factor": ([(graph.FactorGraph, "add_factor")], None),
    "graph.remove_factor": ([(graph.FactorGraph, "remove_factor")], None),
    "graph.replace_with_rigid_body": (
        [(graph.FactorGraph, "replace_with_rigid_body")], None),
    **{
        f"factors.eval_{kind}_batch": ([(factors, f"eval_{kind}_batch")], _rows)
        for kind in EVAL_KINDS
    },
    "factors.evaluate_factor": (
        [(reference, "evaluate_factor"), (factors, "evaluate_factor")], None),
    "gaussians.slice_of": ([(gaussians.BlockLayout, "slice_of")], None),
    "engine.init": ([(engine.GbpEngine, "__init__")], None),
    "engine.iterate": ([(engine.GbpEngine, "iterate")], _sweep),
    "engine.on_graph_edit": ([(engine.GbpEngine, "on_graph_edit")], None),
    "engine.sync_graph": ([(engine.GbpEngine, "sync_graph")], None),
    "abstraction.integrate_hypothesis": (
        [(abstraction.AbstractionManager, "integrate_hypothesis")], None),
    "abstraction.run_tests": ([(abstraction.AbstractionManager, "run_tests")], None),
    "abstraction.merge_pass": ([(abstraction.AbstractionManager, "merge_pass")], None),
    "routing.apply_edit": ([(routing.RoutingSimulator, "apply_edit")], None),
    "routing.attach": ([(routing.RoutedTransport, "attach")], None),
    "routing.cost_report": ([(routing.RoutingSimulator, "cost_report")], _hops),
    "reference.lm_solve": ([(harness, "lm_solve")], None),
    "reference.avg_reprojection_px": ([(reference, "avg_reprojection_px")], None),
    **{
        f"io_formats.{fn}": ([(io_formats, fn)], _bytes if fn in FILE_WRITERS else None)
        for fn in ("write_json", "write_csv", "write_tum", "write_graph",
                   "write_iteration_csv", "write_cost_csv")
    },
}

# Spans reported with their call count and self time.
REPORTED = (
    "frontend.generate_scene", "frontend.emit_keyframe",
    "graph.add_variable", "graph.add_factor", "graph.remove_factor",
    "graph.replace_with_rigid_body",
    "factors.evaluate_factor", "gaussians.slice_of",
    "engine.init", "engine.iterate", "engine.on_graph_edit", "engine.sync_graph",
    "abstraction.integrate_hypothesis", "abstraction.run_tests",
    "abstraction.merge_pass",
    "routing.apply_edit", "routing.attach",
    "reference.lm_solve", "reference.avg_reprojection_px",
    "harness.run", "harness.build_ba_graph",
)

# Counts that must repeat exactly between runs of one seed.
EXACT = ("factors.eval_batch.rows", "factors.evaluate_factor.calls",
         "graph.journal_events", "routing.hops", "io_formats.bytes_written")


class Tracer:
    """In-memory spans of one solve."""

    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end, work]
        self._stack: list = []  # indices of the spans still open

    def _wrapper(self, name, original, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        try:
            for name, (sites, work) in TARGETS.items():
                for owner, attr in sites:
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrapper(name, original, work))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> {"calls", "self_s", work counts...} over all spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, _, start, end, work) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += end - start - child[i]
            for key, value in (work or {}).items():
                t[key] = t.get(key, 0) + value
        return out


def layer_metrics(totals: dict, counts: dict, run_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced solve."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m: dict = {}
    for name in REPORTED:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")

    rows = self_s = calls = 0
    for kind in EVAL_KINDS:
        name = f"factors.eval_{kind}_batch"
        m[f"{name}.rows"] = (get(name, "rows"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        rows += get(name, "rows")
        self_s += get(name, "self_s")
        calls += get(name, "calls")
    m["factors.eval_batch.calls"] = (calls, "count")
    m["factors.eval_batch.rows"] = (rows, "count")
    m["factors.eval_batch.self_s"] = (self_s, "s")
    m["factors.eval_batch.rows_per_s"] = (rows / self_s if self_s else 0.0, "1/s")

    it = "engine.iterate"
    sweeps = get(it, "factor_sweeps")
    edges = get(it, "edges")
    m["engine.relinearised_frac"] = (
        get(it, "relinearised") / sweeps if sweeps else 0.0, "ratio")
    m["engine.dropped_frac"] = (get(it, "dropped") / edges if edges else 0.0, "ratio")
    m["engine.marginalisation_calls"] = (get(it, "marginalisation_calls"), "count")
    m["engine.regularised"] = (get(it, "regularised"), "count")

    for key in ("graph.journal_events", "abstraction.events.confirm",
                "abstraction.events.reject", "abstraction.events.merge"):
        m[key] = (counts.get(key, 0), "count")
    m["routing.hops"] = (get("routing.cost_report", "hops"), "count")

    writers = [n for n in totals if n.startswith("io_formats.write")]
    m["io_formats.write.calls"] = (
        sum(get(f"io_formats.{fn}", "calls") for fn in FILE_WRITERS), "count")
    m["io_formats.write.self_s"] = (sum(get(n, "self_s") for n in writers), "s")
    m["io_formats.bytes_written"] = (
        sum(get(f"io_formats.{fn}", "bytes") for fn in FILE_WRITERS), "B")

    # Coverage: the layers' self time as a share of the solve; the rest is
    # harness.run's own time and the benchmark's loop.
    covered = sum(t["self_s"] for n, t in totals.items() if n != "harness.run")
    m["trace.coverage"] = (covered / run_s, "ratio")
    return m


def median_metrics(per_solve: list) -> dict:
    """Median of each metric over traced solves (counts repeat exactly)."""
    return {
        name: (statistics.median(m[name][0] for m in per_solve), unit)
        for name, (_, unit) in per_solve[0].items()
    }
