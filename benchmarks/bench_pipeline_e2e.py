"""End-to-end pipeline throughput: the write path and the sweep.

This is the harness behind ``BENCH_pipeline.json`` (repo root): the one
artefact tracking whether the compression pipeline keeps the paper's
headline property — throughput that keeps pace with I/O — as the codebase
grows.  It measures two things:

1. **The write path** — encode/decode MB/s of the full IPComp pipeline under
   the default profile (the ``matrix`` has that one row), with stream
   byte-identity to the loop oracle (``tests/oracle_kernel.py``,
   substituted for the one plane kernel — identity only, never timed)
   asserted on the side.
2. **Kernel stage in isolation** — ``encode_planes``/``decode_planes``
   throughput of the shard sweep on one 400 k-value level and on a ragged
   shard (recorded; the e2e floors are what gate).

A checked-in floor (``benchmarks/perf_floor.json``) turns the bench into a
regression gate: when the floor file's scale matches the active
``REPRO_BENCH_SCALE``, encode throughput more than 30 % below the floor
fails the run.  Floors are deliberately conservative (≈ a quarter of the
measurement machine's numbers) so only real regressions — not CI jitter —
trip them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, REPO_ROOT, print_table, write_csv
from repro.core import kernels
from repro.core.compressor import IPComp

BENCH_JSON = REPO_ROOT / "BENCH_pipeline.json"
FLOOR_FILE = REPO_ROOT / "benchmarks" / "perf_floor.json"

BOUND = 1e-5

#: Matrix field shapes per scale (the identity oracle runs Python loops
#: per bit, so the matrix field stays modest even at full scale).
_MATRIX_SHAPES = {
    "tiny": (20, 24, 28),
    "default": (32, 36, 40),
    "full": (44, 48, 56),
    "paper": (44, 48, 56),
}

def _synthetic_field(shape) -> np.ndarray:
    rng = np.random.default_rng(314159)  # local; never the shared fixture rng
    grids = np.meshgrid(*(np.linspace(0, 1, s) for s in shape), indexing="ij")
    smooth = sum(np.sin((3 + i) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.normal(size=shape)).astype(np.float64)


def _best_seconds(fn, reps: int) -> float:
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


@contextmanager
def _oracle_kernel():
    """Run the block with the loop oracle in place of the plane kernel."""
    from tests.oracle_kernel import OracleKernel

    production = kernels._KERNEL
    kernels._KERNEL = OracleKernel()
    try:
        yield
    finally:
        kernels._KERNEL = production


def _run_matrix(field):
    mb = field.nbytes / 1e6
    comp = IPComp(error_bound=BOUND, relative=True)
    blob = comp.compress(field)
    encode_s = _best_seconds(lambda: comp.compress(field), 3)
    decode_s = _best_seconds(lambda: comp.decompress(blob), 3)
    cells = {
        "default": {
            "encode_mbps": round(mb / encode_s, 3),
            "decode_mbps": round(mb / decode_s, 3),
            "encode_s": round(encode_s, 4),
            "decode_s": round(decode_s, 4),
            "stream_bytes": len(blob),
        }
    }
    with _oracle_kernel():
        identical = comp.compress(field) == blob
    return cells, identical


#: Values fed to the kernel-stage microbenchmark.  Fixed regardless of the
#: scale preset: the regime that matters is the paper's (≳10⁵ values per
#: level) — tiny fields would only measure dispatch overhead.
_KERNEL_STAGE_VALUES = 400_000


#: The 18 sweep-unit sizes of an 8×136×120 slab (one shard of the e2e
#: benchmark's archive).  Fourteen of them hold ≤ 4,080 values — the regime
#: where a per-level kernel pays more for NumPy dispatch than for data, and
#: what the shard-wide hook exists to remove.
_RAGGED_SHARD_LEVELS = (
    1, 1, 3, 4, 10, 16, 36, 64, 119, 255, 510, 1020, 2040, 4080, 8160,
    16320, 32640, 65280,
)  # fmt: skip


def _time_kernel_hooks(levels):
    """Best-of-7 ``{"encode": s, "decode": s}`` of the sweep on one shard."""
    kernel = kernels.get_kernel()
    encoded = kernel.encode_planes(levels, 2)  # also warms the arena
    loaded = [
        (blocks, codes.size, nbits) for codes, (nbits, blocks) in zip(levels, encoded)
    ]
    kernel.decode_planes(loaded, 2)
    best = {"encode": float("inf"), "decode": float("inf")}
    for _ in range(7):
        for op, hook, shard in (
            ("encode", kernel.encode_planes, levels),
            ("decode", kernel.decode_planes, loaded),
        ):
            start = time.perf_counter()
            hook(shard, 2)
            best[op] = min(best[op], time.perf_counter() - start)
    return best


def _run_kernel_stage(field):
    """encode_planes/decode_planes throughput of the shard sweep.

    Quantized at the paper's speed-study bound (eb = 1e−9 · range, the
    Figure 8 setting) so levels are ~30 planes deep.  Two legs: one
    400 k-value level (bulk throughput) and one *ragged shard*
    (:data:`_RAGGED_SHARD_LEVELS`, the same codes cut into a real shard's
    level sizes), where fixed per-level dispatch would dominate a per-level
    kernel.
    """
    from repro.core.quantizer import LinearQuantizer, relative_to_absolute

    rng = np.random.default_rng(27182)
    values = np.repeat(field.ravel(), _KERNEL_STAGE_VALUES // field.size + 1)
    values = values[:_KERNEL_STAGE_VALUES] + 0.01 * rng.normal(
        size=_KERNEL_STAGE_VALUES
    )
    quantizer = LinearQuantizer(relative_to_absolute(1e-9, values))
    codes = quantizer.quantize(values)

    def leg(levels):
        values = sum(level.size for level in levels)
        best = _time_kernel_hooks(levels)
        return {
            "values": values,
            "encode_mbps": round(values * 8 / 1e6 / best["encode"], 3),
            "decode_mbps": round(values * 8 / 1e6 / best["decode"], 3),
        }

    stage = leg([codes])
    stage["ragged_shard"] = {
        "levels": len(_RAGGED_SHARD_LEVELS),
        **leg(np.split(codes, np.cumsum(_RAGGED_SHARD_LEVELS))[:-1]),
    }
    return stage


def _check_floor(payload) -> list:
    """Regression gate against the checked-in floor (>30 % drop fails)."""
    if not FLOOR_FILE.exists():
        return []
    floor = json.loads(FLOOR_FILE.read_text())
    if floor.get("scale") != BENCH_SCALE:
        return []  # floors are calibrated per scale; no cross-scale gating
    failures = []
    for cell, minimum in floor.get("encode_mbps", {}).items():
        measured = payload["matrix"].get(cell, {}).get("encode_mbps")
        if measured is not None and measured < minimum * 0.7:
            failures.append(
                f"{cell}: encode {measured} MB/s < 70% of floor {minimum} MB/s"
            )
    return failures


def _run(_bench_datasets_unused=None):
    matrix_field = _synthetic_field(_MATRIX_SHAPES.get(BENCH_SCALE, (32, 36, 40)))
    matrix, identical = _run_matrix(matrix_field)
    kernel_stage = _run_kernel_stage(matrix_field)
    payload = {
        "schema": "bench-pipeline-e2e/v4",
        "scale": BENCH_SCALE,
        "matrix_shape": list(matrix_field.shape),
        "matrix_field_mb": round(matrix_field.nbytes / 1e6, 3),
        "matrix": matrix,
        "kernel_stage": kernel_stage,
        "streams_byte_identical_to_oracle": identical,
    }
    return payload


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_e2e(benchmark, results_dir):
    payload = benchmark.pedantic(_run, rounds=1, iterations=1)

    header = ["cell", "encode MB/s", "decode MB/s", "stream bytes"]
    rows = [
        [cell, c["encode_mbps"], c["decode_mbps"], c["stream_bytes"]]
        for cell, c in payload["matrix"].items()
    ]
    print_table("Pipeline e2e: default profile", header, rows)
    write_csv(results_dir / "pipeline_e2e.csv", header, rows)
    stage = payload["kernel_stage"]
    print(
        f"kernel stage: {stage['encode_mbps']} / {stage['decode_mbps']} MB/s "
        f"encode / decode on one level "
        f"({stage['ragged_shard']['encode_mbps']} / "
        f"{stage['ragged_shard']['decode_mbps']} on a ragged shard)"
    )
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Correctness gate: identity to the oracle.
    assert payload["streams_byte_identical_to_oracle"]

    floor_failures = _check_floor(payload)
    assert not floor_failures, "\n".join(floor_failures)
