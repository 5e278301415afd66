"""BENCHMARK.json agrees with what the harness emits; the harness refuses a
tree without mislab's sources."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import rep
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_end_to_end_metrics_match_the_harness():
    cfg = load_config()
    declared = {m["name"]: m["unit"] for m in cfg["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_per_layer_metrics_match_the_harness():
    cfg = load_config()
    declared = {m["name"]: m["unit"] for m in cfg["per_layer"]}
    assert declared == rep.layer_units() | run.RUN_LAYER_UNITS
    assert [w["name"] for w in cfg["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
