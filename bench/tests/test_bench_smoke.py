"""Smoke tests of the benchmark (bench/run.py) on the coarse grid.

Every metric that BENCHMARK.json names is emitted with its unit, for every
workload, untraced and traced; a copy of the benchmark without the package
refuses to run; self time subtracts the union of child spans.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run_bench(run_py, *args):
    return subprocess.run([sys.executable, run_py, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run_bench(os.path.join(BENCH, "run.py"), "--workload", workload,
                      "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 + trace
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    # the human-readable table names every end-to-end metric with its sample count
    for m in SPEC["end_to_end"]:
        assert any(line.startswith(m["name"] + " ") and "samples=" in line for line in lines)
    assert any(line.startswith("failed_frac ") for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run_bench(str(tmp_path / "bench" / "run.py"), "--workload", "wpm-minus",
                      "--seed", "1", "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_union_of_children():
    sys.path.insert(0, BENCH)
    try:
        import tracing
    finally:
        sys.path.remove(BENCH)
    rows = [
        {"name": "sample", "start": 0.0, "end": 10.0, "parent": -1, "thread": 1},
        {"name": "experiments.run", "start": 1.0, "end": 9.0, "parent": 0, "thread": 1},
        # two overlapping children on worker threads cover [2, 7]
        {"name": "series_builder.residual_rate", "start": 2.0, "end": 6.0, "parent": 1,
         "thread": 2},
        {"name": "series_builder.residual_rate", "start": 3.0, "end": 7.0, "parent": 1,
         "thread": 3},
    ]
    m = tracing.layer_metrics(rows, {})
    assert m["experiments.run_self_s"] == pytest.approx(3.0)
    assert m["series_builder.residual_rate_s"] == pytest.approx(8.0)
    assert m["experiments.sweep_concurrency"] == pytest.approx(8.0 / 5.0)
    assert m["evolver.steps"] == 0 and m["evolver.step_us"] == 0.0
