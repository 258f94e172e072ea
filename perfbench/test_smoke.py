"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload end to end, checks that the printed metrics are the ones
BENCHMARK.json declares, and shows that the output checks can fail: a stub
that drops or reorders one tc line, or a checkout without latem's sources,
must not produce a passing result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, *extra: str, cwd: Path = ROOT, fault: str | None = None):
    env = dict(os.environ)
    env.pop("PERFBENCH_STUB_FAULT", None)
    if fault:
        env["PERFBENCH_STUB_FAULT"] = fault
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_at_toy_size(workload):
    proc, result = run(workload, "--size", "toy")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc, result = run("apply-stub-64", "--size", "toy", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["adapters.run_calls"] == metrics["orchestrator.plan_lines"]
    assert metrics["autoarpd.replied"] == metrics["autoarpd.received"] > 0
    assert metrics["orchestrator.build_startup_plan_s"] > 0


@pytest.mark.parametrize("fault", ["drop:5", "swap:5"])
def test_stub_log_fault_fails_the_run(fault):
    proc, result = run("apply-stub-64", "--size", "toy", fault=fault)
    assert proc.returncode != 0
    assert result is not None and not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_latem_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("dryrun-1000", "--size", "toy", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
