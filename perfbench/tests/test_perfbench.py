"""Tests of the benchmark itself: tiny runs of every workload, metric names,
and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_is_correct(workload, trace):
    result = run.measure(workload, seed=7, seconds=0, trace=trace, tiny=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float | int), name
    if not trace:
        assert result["metrics"]["passed_share"]["value"] == 1.0
        assert result["metrics"]["trace_mb_per_scenario"]["value"] > 0


def test_metric_names_are_well_formed():
    for name, unit in {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_names_are_emitted():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    for key, emitted in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert declared == emitted, key


def test_fails_without_the_package(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fanout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
