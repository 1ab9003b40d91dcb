"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

Kept out of the default test collection (the file name does not match
``test_*.py``) so the main suite's run time does not grow.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True and result["failed"] == 0, details["problems"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["cli.main.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["meta"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
