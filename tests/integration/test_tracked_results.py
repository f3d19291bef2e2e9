"""Tracked benchmark results come from default-size runs.

``benchmarks/results/`` is committed so numbers can be diffed across
changes.  A file written by a shrunk smoke run (``C9_N=300``) quotes a
speedup nobody can reproduce at the documented size, so the workload
size recorded in a tracked JSON file must equal the experiment's
default.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def test_c9_read_cache_results_are_default_size():
    metrics = json.loads((RESULTS / "c9_read_cache.json").read_text())["metrics"]
    assert metrics["num_keys"] == 1200
    assert metrics["num_queries"] == 100


def test_c12_durability_results_are_default_size():
    metrics = json.loads((RESULTS / "c12_durability.json").read_text())["metrics"]
    assert metrics["num_keys"] == 500
    assert "== 500-key workload" in (RESULTS / "c12_durability.txt").read_text()
