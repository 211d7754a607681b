"""Self-test of the benchmark at toy size.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(name, trace_on=False, lines=None):
    log = (lambda *_: None) if lines is None else lines.append
    return run.measure(name, seed=1, seconds=0, trace_on=trace_on, toy=True, log=log)


@pytest.mark.parametrize("trace_on", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(name, trace_on):
    lines = []
    result = _measure(name, trace_on, lines)
    assert result["correct"] and result["failed"] == 0, lines
    wanted = SPEC["per_layer" if trace_on else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    # The table before the JSON names all twelve end-to-end metrics.
    rows = {line.split()[0]: line.split()[-1] for line in lines
            if line.startswith("  ")}
    for metric, unit in run.E2E_UNITS.items():
        assert rows[metric] == unit


def test_failing_output_check_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.LIMITS["lm_ba"], "max_ate_cm", 0.0)
    lines = []
    result = _measure("lm_ba", lines=lines)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert "failed_frac" in "\n".join(lines) and result["metrics"]


def test_raising_solve_counts_as_failed(monkeypatch):
    def boom(inputs, out_dir, probing):
        raise FloatingPointError("injected")

    w = workloads.WORKLOADS["lm_ba"]
    monkeypatch.setitem(workloads.WORKLOADS, "lm_ba",
                        dataclasses.replace(w, solve=boom))
    result = _measure("lm_ba")
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lm_ba", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
