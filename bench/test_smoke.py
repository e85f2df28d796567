"""Smoke test of the benchmark at tiny sizes.

Run with ``python3 -m pytest -q bench/test_smoke.py`` from the repository
root; it is outside the library's test paths because it starts benchmark
processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--sizes", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    for name in workloads.WORKLOADS:
        assert workloads.jobs(name, 5) == workloads.jobs(name, 5)
        assert workloads.jobs(name, 5) != workloads.jobs(name, 6)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
