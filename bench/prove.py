"""Check the benchmark's steadiness over a set of seeds.

    python3 bench/prove.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                           [--out FILE] [--against FILE]

Runs bench/run.py once per workload and seed, one process at a time, with the
run length of BENCHMARK.json. For every end-to-end metric it prints the
spread of its values over the seeds (interquartile range as a share of the
median, as statistics.quantiles(values, n=4) gives the quartiles) next to the
metric's bound. With --against, a set saved earlier by --out, it also prints
how far each median moved, and reports as non-deterministic every seed whose
exact counts (the EXACT line) differ between the two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    exact = next(json.loads(l[6:]) for l in lines if l.startswith("EXACT "))
    return {"result": json.loads(lines[-1]), "exact": exact}


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    runs: dict = {}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            r = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.setdefault(workload, {})[str(seed)] = r
            res = r["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in res["metrics"].items()),
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    before = json.loads(Path(args.against).read_text()) if args.against else {}

    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, by_seed in runs.items():
        results = [r["result"] for r in by_seed.values()]
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"{workload:<12} {name:<44} median={median:<12.6g}"
            if len(values) >= 2:
                line += f" spread={spread(values):.4f}"
            if name in bounds:
                line += f" bound={bounds[name]['bound']}"
                if name != "setup_s" and len(values) >= 2:
                    ok &= spread(values) <= bounds[name]["bound"]
            old = before.get(workload, {})
            old_values = [old[s]["result"]["metrics"][name]["value"]
                          for s in by_seed if s in old]
            if old_values and statistics.median(old_values):
                change = statistics.median(values) / statistics.median(old_values) - 1
                line += f" vs_before={change:+.4f}"
                if name in bounds:
                    worse = change if bounds[name]["better"] == "lower" else -change
                    ok &= worse <= bounds[name]["bound"]
            print(line)
        for seed, r in by_seed.items():
            old = before.get(workload, {}).get(seed)
            if old is None:
                continue
            diff = {k: (old["exact"].get(k), v) for k, v in r["exact"].items()
                    if old["exact"].get(k) != v}
            if diff:
                ok = False
                print(f"NON-DETERMINISTIC {workload} seed {seed}: {diff}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
