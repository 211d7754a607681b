"""planegbp benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ba_static and lm_ba, whose reasons BENCHMARK.json gives, and
slam_wall and slam_stream, which run by name but are left out of
BENCHMARK.json because the program fails their output checks on some seeds
(slam_wall rejects a true plane, slam_stream diverges). The seed makes the
inputs; the same seed gives the same inputs. The set-up alone is repeated
first, then solves run one after another, closed loop, while the next one
should end within S seconds. Every solve's outputs are checked; a solve
that raises, produces non-finite output or fails its check counts as failed.

With --trace 0 every solve is untraced and the last line of standard output
is a JSON object whose metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced solves alternate, and the metrics are the
per-layer metrics of the traced solves (median over them), with the tracing
overhead (median traced run_s minus median untraced run_s) and coverage.

Before the JSON come each solve, the machine, and a table of every
end-to-end metric; a metric a workload cannot produce reads n/a.
`converged_iteration_px` is left out: it reads 0 on every run of the current
code. A line starting with EXACT holds the counts that must repeat exactly for
a seed; runs with the same seed that differ there are non-deterministic.

Timings. On a shared machine (a 2-vCPU guest whose host is busy with other
tenants) each CPU's speed changes by up to ~1.6x, for seconds to minutes at a
time, so the same code timed a few minutes apart differs by more than any
bound allows: over five seeds of ba_static, the fastest segment times of a
run (ms_per_iter_best) spread by 0.31 of their median. The bounded speed
metric is therefore iter_probe_ratio: the time of each iteration divided by
the time of a fixed probe computation (bench/workloads.py) run on the same
CPU just before it, at most once per 0.1 s, averaged over the solve's
iterations; the run reports the median over its solves. A slow spell of the
machine slows iteration and probe alike and cancels; a change that makes
iterations faster lowers the ratio by the same share. Iterations are the GBP
sweeps and, for LM, the steps between avg_reprojection_px calls, which
lm_solve makes once at the start and once per accepted step. Probe time is
left out of every other timing, and traced solves run without probes.
setup_s is scaled the same way: each set-up-only pass follows a probe, and
the median set-up over the median probe is multiplied by PROBE_REF_S, so
that setup_s reads in seconds on a machine where the probe takes 5 ms. The
fastest set-up as measured is printed as setup_raw_s. setup_raw_s, run_s,
ms_per_iter, ms_per_iter_best (each iteration segment at its fastest among
the run's solves, summed, over the iterations) and the median and p90 of
per-iteration times are printed but not bounded.

Run one benchmark process at a time. BLAS is pinned to one thread: in five
runs of slam_wall, one thread gave 2.85-3.58 s and the default 3.16-5.20 s.
"""

from __future__ import annotations

import os

# Before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_MIN, SETUP_MAX, SETUP_SHARE = 5, 50, 0.15

E2E_UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "run_s": "s", "ms_per_iter": "ms", "ms_per_iter_best": "ms",
    "iter_probe_ratio": "ratio", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
    "iterations": "count", "ate_cm": "cm", "final_px": "px", "final_factors": "count",
    "planes_confirmed": "count", "peak_rss_mb": "MB", "failed_frac": "ratio",
}


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _solve(workload, inputs, tracer=None):
    """One solve, probed when untraced; returns (outcome or None, failure
    messages)."""
    out_dir = tempfile.mkdtemp(dir=SCRATCH) if workload.writes_artifacts else None
    gc.collect()
    try:
        if tracer is None:
            outcome = workload.solve(inputs, out_dir, True)
        else:
            with tracer.installed():
                outcome = workload.solve(inputs, out_dir, False)
    except Exception:
        return None, ["raised: " + traceback.format_exc(limit=3).strip()]
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    return outcome, list(outcome.failures)


def _exact(outcome) -> dict:
    return {
        "iterations": outcome.iterations,
        "final_factors": outcome.final_factors,
        "planes_confirmed": outcome.planes_confirmed,
        "ate_cm": repr(outcome.ate_cm),
        "final_px": repr(outcome.final_px),
    }


def best_run_s(outcomes) -> float:
    """The run's fastest solve, assembled segment by segment: each segment's
    fastest time among the solves. Contention on a shared machine comes in
    bursts of seconds; this keeps them out where a median of whole solves
    cannot."""
    return sum(min(times) for times in zip(*(o.segments for o in outcomes)))


def end_to_end(outcomes, setups, setup_probes, attempted, failed) -> dict:
    """The end-to-end metrics; None where the workload has none. `setups`
    are the set-up-only passes, each run just after `setup_probes`' probe."""
    import workloads

    first = outcomes[0]
    run_s = statistics.median(o.run_s for o in outcomes)
    iter_s = [t for o in outcomes for t in o.iter_s]
    return {
        "setup_s": (statistics.median(setups) / statistics.median(setup_probes)
                    * workloads.PROBE_REF_S),
        "setup_raw_s": min([*setups, *(o.setup_s for o in outcomes)]),
        "run_s": run_s,
        "ms_per_iter": run_s / first.iterations * 1e3,
        "ms_per_iter_best": best_run_s(outcomes) / first.iterations * 1e3,
        "iter_probe_ratio": statistics.median(o.probe_ratio() for o in outcomes),
        "iter_ms_p50": statistics.median(iter_s) * 1e3,
        # The highest percentile reported needs ten samples beyond it.
        "iter_ms_p90": (statistics.quantiles(iter_s, n=10)[-1] * 1e3
                        if len(iter_s) >= 100 else None),
        "iterations": first.iterations,
        "ate_cm": first.ate_cm,
        "final_px": first.final_px,
        "final_factors": first.final_factors,
        "planes_confirmed": first.planes_confirmed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / attempted,
    }


@contextmanager
def _cpu_turns():
    """Yield turn(i), which moves this process to the i-th of its CPUs in
    turn; restore them all at exit. On a shared host each CPU slows down
    independently of the other, so set-ups and solves take turns on the CPUs,
    and the fastest of them are drawn from all."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        yield lambda i: os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    finally:
        os.sched_setaffinity(0, cpus)


def measure(name: str, seed: int, seconds: float, trace_on: bool,
            toy: bool = False, log=print) -> dict:
    """Run one workload for `seconds`; returns the result object."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    inputs = workload.inputs(seed, toy)

    with _cpu_turns() as turn:
        start = time.perf_counter()
        deadline = start + seconds
        # Set-up alone, repeated: at least SETUP_MIN times, then while within
        # SETUP_SHARE of the run, up to SETUP_MAX times.
        setups, setup_probes = [], []
        while len(setups) < SETUP_MIN or (
                len(setups) < SETUP_MAX
                and time.perf_counter() < start + SETUP_SHARE * seconds):
            turn(len(setups))
            gc.collect()
            setup_probes.append(workloads.probe())
            setups.append(workload.setup(inputs))
        outcomes, traced, traced_metrics = [], [], []
        exact: dict = {}
        attempted = failed = 0
        deterministic = True
        last = 0.0
        # After the minimum, start a solve only if it should end in time.
        minimum = 2 if trace_on else 1
        while attempted < minimum or time.perf_counter() + last < deadline:
            tracer = spans.Tracer() if trace_on and attempted % 2 == 1 else None
            turn(attempted // 2 if trace_on else attempted)
            t0 = time.perf_counter()
            outcome, problems = _solve(workload, inputs, tracer)
            last = time.perf_counter() - t0
            attempted += 1
            if outcome is not None:
                this = _exact(outcome)
                if tracer is None:
                    outcomes.append(outcome)
                else:
                    layer = spans.layer_metrics(tracer.totals(), outcome.counts,
                                                outcome.run_s)
                    traced.append(outcome)
                    traced_metrics.append(layer)
                    this.update({k: layer[k][0] for k in spans.EXACT})
                for key, value in this.items():
                    if exact.setdefault(key, value) != value:
                        deterministic = False
                        problems.append(f"non-deterministic {key}: {value} "
                                        f"against {exact[key]}")
            failed += bool(problems)
            log(f"solve {attempted}{' traced' if tracer else ''}: "
                + (f"run_s={outcome.run_s:.4f} setup_s={outcome.setup_s:.4f} "
                   f"iterations={outcome.iterations} " if outcome else "")
                + ("FAILED " + "; ".join(problems) if problems else "ok"))

    log("machine: " + json.dumps(machine()))
    if not outcomes or (trace_on and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}

    e2e = end_to_end(outcomes, setups, setup_probes, attempted, failed)
    log(f"end-to-end, {name}, seed {seed}: {len(outcomes)} untraced solves, "
        f"{len(setups)} set-ups, {sum(len(o.iter_s) for o in outcomes)} "
        "per-iteration samples")
    for key, value in e2e.items():
        shown = "n/a" if value is None else f"{value:.10g}"
        log(f"  {key:<18} {shown:>14} {E2E_UNITS[key]}")
    log("EXACT " + json.dumps(exact, sort_keys=True))

    if trace_on:
        metrics = spans.median_metrics(traced_metrics)
        metrics["trace.overhead_s"] = (
            statistics.median(o.run_s for o in traced)
            - statistics.median(o.run_s for o in outcomes), "s")
        log("per-layer (median of traced solves):")
        for key, (value, unit) in metrics.items():
            log(f"  {key:<44} {value:>14.10g} {unit}")
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items() if v is not None}
        wanted = [m["name"] for m in bench["end_to_end"]]
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planegbp" / "__init__.py").is_file():
        print(f"error: planegbp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
