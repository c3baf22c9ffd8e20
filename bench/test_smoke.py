"""Smoke check of the benchmark at reduced job sizes.

    python3 -m pytest bench/test_smoke.py

Each workload runs once untraced and once traced; every metric of
BENCHMARK.json, and failed_frac, must be printed by name with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(bench_dir: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(BENCH, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    rows = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    for m in wanted + [{"name": "failed_frac", "unit": "1"}]:
        assert rows.get(m["name"]) == m["unit"], m["name"]


def test_refuses_without_osclab_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(tmp_path / "bench", "trajectory", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
