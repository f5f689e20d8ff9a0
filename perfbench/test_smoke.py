"""Smoke test for the benchmark itself, at tiny run lengths.

    python3 -m pytest -q perfbench/test_smoke.py

For every workload it runs the benchmark once untraced and once traced,
and checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, that the gates pass, and that
layer self times plus ``unattributed`` sum to the traced wall time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = "0.5"  # half of each workload's simulated load


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench(workload, trace=0)
    check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_sum_to_traced_wall(workload):
    result = bench(workload, trace=1)
    check_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    parts = [v["value"] for k, v in metrics.items() if k.endswith(".self_s")]
    wall = metrics["trace.traced_wall_s"]["value"]
    assert sum(parts) == pytest.approx(wall, rel=1e-9)
    assert metrics["unattributed.self_s"]["value"] < 0.05 * wall
    assert metrics["sim.events"]["value"] > 0
    assert metrics["trace.overhead"]["value"] > 0


def test_unbuildable_checkout_fails_without_result(tmp_path):
    """Copied without src/, the benchmark exits nonzero and prints no
    result line."""
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "layers.py"):
        (tmp_path / "perfbench" / name).write_text(
            (ROOT / "perfbench" / name).read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-flows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
