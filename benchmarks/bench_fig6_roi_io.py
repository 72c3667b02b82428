"""Figure 6 (I/O companion) — ROI-progressive retrieval from a file-backed store.

Paper claim: progressive retrieval pays off because the storage layer can
fetch *parts* of a compressed object.  This harness stores every Table 3
field as a sharded :class:`repro.io.ChunkedDataset` container and measures
the bytes actually read off the file for

* a full-field retrieval at a relaxed bound,
* a region-of-interest retrieval (≤ 1/4 of the volume) at the same bound —
  which must touch **less than 50 %** of the full-field volume, and
* a stateful coarse → tight ``refine()`` pair — whose second request must
  load only *new* plane blocks, re-reading **zero** of the byte ranges the
  first request already fetched (Algorithm 2 per shard).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table, write_csv
from repro.analysis import max_error
from repro.io import ChunkedDataset

BASE_BOUND = 1e-6
N_BLOCKS = 4
READ_MULTIPLIER = 64      # relaxed bound of the full/ROI comparison
COARSE_MULTIPLIER = 1024  # first refine() rung
TIGHT_MULTIPLIER = 16     # second refine() rung


def _run(bench_datasets, tmp_dir):
    rows = []
    for name, field in bench_datasets.items():
        path = tmp_dir / f"{name}.rprc"
        manifest = ChunkedDataset.write(
            path, field, error_bound=BASE_BOUND, relative=True,
            n_blocks=N_BLOCKS,
        )
        eb = manifest["error_bound"]
        target = eb * READ_MULTIPLIER

        with ChunkedDataset(path) as dataset:
            full = dataset.read(error_bound=target)
        assert max_error(field, full.data) <= target * (1 + 1e-9), name

        # A leading slab of <= 1/4 of the volume: quarter of axis 0.
        roi = (slice(0, max(1, field.shape[0] // N_BLOCKS)),)
        with ChunkedDataset(path) as dataset:
            part = dataset.read(error_bound=target, roi=roi)
            n_shards = dataset.n_shards
        assert part.data.size <= field.size / N_BLOCKS + field.size // field.shape[0]
        assert max_error(field[part.roi], part.data) <= target * (1 + 1e-9), name

        # Stateful refinement: coarse then tight, no byte range read twice.
        with ChunkedDataset(path) as dataset:
            coarse = dataset.refine(error_bound=eb * COARSE_MULTIPLIER)
            tight = dataset.refine(error_bound=eb * TIGHT_MULTIPLIER)
        reread = len(set(coarse.ranges) & set(tight.ranges))
        assert max_error(field, tight.data) <= eb * TIGHT_MULTIPLIER * (1 + 1e-9)

        rows.append(
            [
                name,
                f"{len(part.shards)}/{n_shards}",
                full.bytes_loaded,
                part.bytes_loaded,
                f"{part.bytes_loaded / full.bytes_loaded:.3f}",
                coarse.bytes_loaded,
                tight.bytes_loaded,
                reread,
            ]
        )
    return rows


@pytest.mark.benchmark(group="fig6")
def test_fig6_roi_io(benchmark, bench_datasets, results_dir, tmp_path):
    rows = benchmark.pedantic(
        _run, args=(bench_datasets, tmp_path), rounds=1, iterations=1
    )
    header = [
        "dataset",
        "roi shards",
        "full B",
        "roi B",
        "roi/full",
        "coarse B",
        "refine B",
        "reread ranges",
    ]
    print_table("Figure 6 companion: ROI bytes touched vs full-field reads", header, rows)
    write_csv(results_dir / "fig6_roi_io.csv", header, rows)

    # Partial retrieval must be *demonstrably* partial: a <= 1/4-volume ROI
    # touches < 50 % of the full-field read at the same bound, and Algorithm-2
    # refinement re-reads zero previously loaded plane-block ranges while
    # still loading something new.
    assert all(float(row[4]) < 0.5 for row in rows)
    assert all(int(row[6]) > 0 for row in rows)
    assert all(int(row[7]) == 0 for row in rows)
