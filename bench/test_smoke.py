"""Tiny-size smoke run of every workload, so the harness cannot rot.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
The default test run collects ``tests/`` only, so this stays out of it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout.splitlines()[-2]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_refuses_a_tree_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_known_defect_counts_as_known_only_in_its_own_way():
    sys.path.insert(0, str(BENCH))
    from ops import Op
    from run import Gate

    op = Op("deep query", lambda: None, lambda out: out == "witness", known_defect="recursion",
            defect_seen=lambda out, error: isinstance(error, RecursionError))
    gate = Gate()
    gate.judge(0, op, None, RecursionError("maximum recursion depth exceeded"))
    assert gate.failed == 1 and gate.correct
    gate.judge(0, op, "wrong witness", None)
    assert gate.failed == 2 and not gate.correct
