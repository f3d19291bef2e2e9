"""Shared benchmark plumbing.

Every benchmark module reproduces one experiment from DESIGN.md's index
(E1..E6 are the paper's tables and figures, C1..C6 its quantitative
claims).  Each writes a human-readable table to ``benchmarks/results/``
so that EXPERIMENTS.md can quote measured numbers verbatim, and wraps its
core computation in the ``benchmark`` fixture for timing.

Experiments that call :meth:`Reporter.metric` additionally write a
machine-readable ``benchmarks/results/<id>.json`` next to the ``.txt``,
so a performance trajectory can be tracked across PRs by diffing or
plotting the JSON files.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_RESULTS_DIR`` to write the result files somewhere else --
smoke runs at shrunk sizes do, so the tracked default-size results
stay untouched.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR") or Path(__file__).parent / "results"
)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row: list[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


class Reporter:
    """Writes one experiment's output file and echoes it to stdout."""

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id
        self._chunks: list[str] = []
        self._metrics: dict[str, object] = {}

    def section(self, title: str, body: str) -> None:
        self._chunks.append(f"== {title} ==\n{body}\n")

    def table(self, title: str, headers: list[str], rows: list[list[object]]) -> None:
        self.section(title, format_table(headers, rows))

    def metric(self, key: str, value: object) -> None:
        """Record one machine-readable result (JSON scalar / list / dict)."""
        self._metrics[key] = value

    def metrics(self, mapping: dict[str, object]) -> None:
        """Record several machine-readable results at once."""
        self._metrics.update(mapping)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        text = f"# Experiment {self.experiment_id}\n\n" + "\n".join(self._chunks)
        (RESULTS_DIR / f"{self.experiment_id}.txt").write_text(text)
        if self._metrics:
            payload = {"experiment": self.experiment_id, "metrics": self._metrics}
            (RESULTS_DIR / f"{self.experiment_id}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        print(f"\n{text}")


@pytest.fixture
def reporter(request):
    """A per-test reporter named after the test's module."""
    module = request.module.__name__
    experiment_id = module.replace("bench_", "")
    rep = Reporter(experiment_id)
    yield rep
    rep.flush()
