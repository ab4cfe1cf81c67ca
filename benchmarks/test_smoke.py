"""Smoke-sized runs of the benchmark harness, kept out of the tier-1 suite.

Run from the repository root: python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "21", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    stamp, result = lines[0], lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    env = stamp["env"]
    assert env["tracing"] is bool(trace)
    assert {"python", "numpy", "scipy", "nproc", "git_commit"} <= set(env)


def test_reference_check_tolerates_rounding_but_not_a_changed_value():
    ref = {"loss": [0.25, 1e-12]}
    assert run._mismatch({"loss": [0.25 * (1 + 1e-15), 0.0]}, ref) is None
    assert run._mismatch({"loss": [0.2501, 1e-12]}, ref) is not None
    assert run._mismatch({"loss": [0.25]}, ref) is not None


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
