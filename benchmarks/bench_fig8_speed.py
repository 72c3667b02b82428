"""Figure 8 — compression and decompression throughput.

Paper claim: IPComp is the fastest progressive compressor in both directions
(up to ~300 % faster), except against SZ3-M which is multi-fidelity but not
progressive; SPERR-R is far slower than everything else, which is why the
paper drops it from the full evaluation.

Absolute MB/s numbers of this pure-Python reproduction are of course far below
the paper's C++ implementation — the comparison of interest is the relative
ordering, in particular IPComp vs. the residual ladders which must run many
compression/decompression passes.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import print_table, skip_scale_tuned_asserts, write_csv
from repro.baselines import make_compressor

COMPRESSORS = ("ipcomp", "sz3-m", "sz3-r", "zfp-r", "pmgard", "sperr-r")
#: The paper uses eb = 1e−9·range for the speed study.
BOUND = 1e-9
#: The speed study uses a subset of fields to keep the harness short.
SPEED_FIELDS = ("density", "wave", "ch4")


def _run(bench_datasets):
    rows = []
    for name in SPEED_FIELDS:
        field = bench_datasets[name]
        mb = field.nbytes / 1e6
        for comp_name in COMPRESSORS:
            comp = make_compressor(comp_name, error_bound=BOUND, relative=True)
            start = time.perf_counter()
            blob = comp.compress(field)
            compress_seconds = time.perf_counter() - start
            start = time.perf_counter()
            comp.decompress(blob)
            decompress_seconds = time.perf_counter() - start
            rows.append(
                [
                    name,
                    comp_name,
                    f"{mb / compress_seconds:.3f}",
                    f"{mb / decompress_seconds:.3f}",
                    f"{compress_seconds:.3f}",
                    f"{decompress_seconds:.3f}",
                ]
            )
    return rows


@pytest.mark.benchmark(group="fig8")
def test_fig8_compression_decompression_speed(benchmark, bench_datasets, results_dir):
    rows = benchmark.pedantic(_run, args=(bench_datasets,), rounds=1, iterations=1)
    header = [
        "dataset", "compressor",
        "compress MB/s", "decompress MB/s", "compress s", "decompress s",
    ]
    print_table("Figure 8: compression / decompression speed", header, rows)
    write_csv(results_dir / "fig8_speed.csv", header, rows)

    # Shape check: IPComp decompression is faster than the residual ladders
    # (which decompress every rung) on every field measured.  The ordering
    # needs fields big enough that per-rung fixed costs — not the payload
    # work this figure is about — stop deciding the ranking.
    skip_scale_tuned_asserts(
        "decompression-speed ordering vs residual ladders needs ≥ default fields"
    )
    by_key = {(r[0], r[1]): r for r in rows}
    for name in SPEED_FIELDS:
        ip = float(by_key[(name, "ipcomp")][3])
        for ladder in ("sz3-r", "sperr-r"):
            assert ip >= float(by_key[(name, ladder)][3]) * 0.8
