"""Smoke check for the benchmark: a short run of every workload, untraced and
traced, must print every metric BENCHMARK.json names, with its unit, and pass
its output checks. A directory holding only the benchmark must fail.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
# every workload run.py offers; app_data is not in BENCHMARK.json but still runs
WORKLOADS = sorted({w["name"] for w in SPEC["workloads"]} | {"app_data"})


def _run(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run the benchmark's command, as BENCHMARK.json gives it, from cwd."""
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace)], cwd=common.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources():
    common.OUT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=common.OUT)
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(common.ROOT / path, f"{bare}/{path}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
