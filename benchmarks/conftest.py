"""Shared infrastructure of the paper-figure harnesses.

Every ``bench_fig*`` / ``bench_table*`` module regenerates one table or
figure of the paper's evaluation section (README.md's "Paper figures ↔
benchmark scripts" is the index).  The harnesses run under
``pytest benchmarks/ --benchmark-only``: each figure is produced inside a
``benchmark.pedantic(..., rounds=1)`` call so pytest-benchmark records its
wall-clock cost, and the produced rows are printed and written as CSV to
``benchmarks/results/``.  System speed is measured by ``benchmarks/e2e``, not
here.

Scaling: the paper's fields are up to 500³ doubles; the default harness halves
the (already scaled-down) registry shapes so the full matrix completes in a
few minutes of pure Python.  Set ``REPRO_BENCH_SCALE=full`` for the registry
shapes (~0.3–0.6 million points per field), ``REPRO_BENCH_SCALE=paper`` for the
original resolutions, or ``REPRO_BENCH_SCALE=tiny`` for a seconds-long smoke
run.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np
import pytest

from repro.datasets import DATASETS, load_dataset

RESULTS_DIR = Path(__file__).parent / "results"

#: The active shape-scale preset (see ``_SCALES``).
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "default")

#: Shape scale presets, as a per-axis factor on the registry's default shapes.
_SCALES = {
    "tiny": 0.25,
    "default": 0.5,
    "full": 1.0,
    "paper": None,  # use the full paper shapes
}


def skip_scale_tuned_asserts(reason: str) -> None:
    """Skip (with a visible reason) assertions tuned for ≥ default scale.

    Several figure harnesses assert paper-shaped *relationships* (relative
    orderings, ladder staircases) that only emerge once the fields are big
    enough for fixed overheads — headers, anchor blocks, coarsest rungs —
    to stop dominating.  At ``REPRO_BENCH_SCALE=tiny`` those relationships
    are genuinely absent, not broken, so the harness records its CSV as
    usual and skips only the assertion phase, loudly.
    """
    if BENCH_SCALE == "tiny":
        pytest.skip(f"scale-tuned assertion needs ≥ default scale: {reason}")


def _scaled_shape(name: str) -> tuple:
    scale = BENCH_SCALE
    spec = DATASETS[name]
    if scale == "paper":
        return spec.paper_shape
    factor = _SCALES.get(scale, 1.0)
    return tuple(max(8, int(round(s * factor))) for s in spec.default_shape)


@pytest.fixture(scope="session")
def bench_datasets() -> Dict[str, np.ndarray]:
    """The six Table 3 fields at benchmark scale, generated once per session."""
    return {name: load_dataset(name, shape=_scaled_shape(name)) for name in DATASETS}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Persist one figure/table as CSV under benchmarks/results/."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def print_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a paper-style table (visible with ``pytest -s``)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
