"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload once untraced and once traced, and checks that
each prints every metric of BENCHMARK.json with its unit and no failure.
It also corrupts one output file and checks that the failure is counted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke",
         "--results", str(HERE / "runs" / f"smoke-{workload}-{trace}.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[1:2] == [m["name"]] and f" {m['unit']} " in line for line in lines[:-1])


def test_corrupted_output_file_counts_as_failed():
    def corrupt(cmd, workdir):
        if cmd["label"] == "sample-exact":
            path = workdir / "exact.txt"
            first, rest = path.read_text().split("\n", 1)
            points = first.split()
            points[0], points[-1] = points[-1], points[0]
            path.write_text(" ".join(points) + "\n" + rest)

    record = run.run_workload("small-support", 3, 0, trace=False, smoke=True, tamper=corrupt)
    assert record["failed"] >= 1
    assert record["failed_frac"] == record["failed"] / record["attempted"] > 0
    assert any(f.startswith("sample-exact: exact.txt") for f in record["failures"])
