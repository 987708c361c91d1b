"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/tests

Runs every workload once untraced and once traced, checks the output schema
against BENCHMARK.json, and checks that the benchmark refuses to run without
the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(data) == {"correct", "attempted", "failed", "metrics"}
    assert data["correct"] is True
    assert data["failed"] == 0 and data["attempted"] >= 1
    for metric in data["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return data


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    data = result(workload, 0)
    assert {k: v["unit"] for k, v in data["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in data["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    metrics = result(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected("per_layer")
    assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.run_s"]["value"]
    assert metrics["bwb.bwb_single.calls"]["value"] > 0
    assert metrics["rep_ring.tensor.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
