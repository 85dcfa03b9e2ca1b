"""Smoke test of the benchmark itself: python3 -m pytest perfbench

Runs every workload at a tiny size, plain and traced, and checks that the
result line carries every metric of BENCHMARK.json with its unit and that
the report lines name every per-workload metric with its unit.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    proc = run(ROOT, "--workload", name, "--seed", "37", "--seconds", "0.2",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}

    wl = workloads.WORKLOADS[name]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    expected = {wl.rate_metric: wl.rate_unit, "setup_s": "s",
                "peak_rss_mb": "MB", "failed_frac": "ratio"}
    if wl.quality:
        expected[wl.quality[0]] = "ratio"
    for metric, unit in expected.items():
        assert printed.get(metric) == unit, metric
    assert any(line.startswith("env {") for line in lines)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "eval-k10", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
