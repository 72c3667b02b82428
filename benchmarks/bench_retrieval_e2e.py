"""End-to-end retrieval throughput: the local read vs remote reads.

The decode-side companion of ``bench_pipeline_e2e``: it measures the
retrieval engine's execution paths over a file-backed chunked dataset and
emits **`BENCH_retrieval.json`** at the repo root:

1. **Full-field read** — output MB/s of the synchronous read on the
   scale's field (a local file has one read path: in-process, synchronous),
   bitwise the one-rung ``refine()`` of the same bound.
2. **ROI reads** — bytes-touched fraction for a ≤ 1/4-volume region
   (the Figure 6 headline), bitwise the region of the full read.
3. **Refinement ladder** — a 4-rung ``refine()`` ladder over loopback
   HTTP, multiplexed: zero re-read ranges and byte
   counts identical to the local synchronous ladder (hard-gated; this is
   the accounting contract).
4. **Single-stream decode** — a bare ``.ipc`` file read through
   ``ChunkedDataset`` (a one-shard dataset), identical to the bare
   retriever.
5. **Loopback HTTP** — a container served by
   :class:`repro.io.rangeserver.RangeServer` and read through the
   resilient remote stack, one leg per ``prefetch`` value (``serial`` = 0,
   one range on the wire at a time, vs the ``multiplexed`` default) ×
   server condition (clean vs a 20 ms/read latency plan): MB/s per leg
   is recorded with its ``prefetch`` and ``latency_plan``; byte identity
   on every leg, a retry-free clean run, and **multiplexed ≥ 2× serial
   under latency** are hard-gated (the latency legs are network-bound,
   so the speedup gate is valid even on one core).  The served archive
   is never smaller than ``_REMOTE_MIN_SHAPE``: a remote stack keeps the
   last 64 KiB of the object from its opening read, and an archive that
   fits inside it (``tiny`` does) would be read from memory — no request
   to multiplex.

Correctness is hard-gated (bitwise identity across every path); speed is
recorded and gated only where the hardware can honour it: the checked-in
floor (``benchmarks/perf_floor.json``, ``retrieval_mbps`` section) applies
when the scale matches.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, REPO_ROOT, print_table, write_csv
from repro import ChunkedDataset, IPComp, ProgressiveRetriever
from repro.io.aio import OPENING_WINDOW, open_remote_source
from repro.io.faults import FaultPlan
from repro.io.rangeserver import RangeServer
from repro.retrieval.prefetch import DEFAULT_PREFETCH_DEPTH

BENCH_JSON = REPO_ROOT / "BENCH_retrieval.json"
FLOOR_FILE = REPO_ROOT / "benchmarks" / "perf_floor.json"

BOUND = 1e-5
N_BLOCKS = 8
#: Server-side injected latency per ranged read for the latency legs.
_REMOTE_LATENCY_S = 0.02
#: Hard gate: the multiplexed read must beat the serial one by at least
#: this factor when reads cost _REMOTE_LATENCY_S each.
_MULTIPLEXED_LATENCY_SPEEDUP_MIN = 2.0

_SHAPES = {
    "tiny": (24, 28, 32),
    "default": (48, 56, 64),
    "full": (64, 80, 96),
    "paper": (64, 80, 96),
}
#: Smallest field the loopback-HTTP legs serve, whatever the scale: its
#: archive is several opening windows long, so nearly all of the payload
#: is real wire traffic (asserted).
_REMOTE_MIN_SHAPE = _SHAPES["default"]


def _synthetic_field(shape) -> np.ndarray:
    rng = np.random.default_rng(271828)  # local; never the shared fixture rng
    grids = np.meshgrid(*(np.linspace(0, 1, s) for s in shape), indexing="ij")
    smooth = sum(np.sin((2 + i) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.normal(size=shape)).astype(np.float64)


def _best_seconds(fn, reps: int) -> float:
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def _read_once(path, **knobs):
    with ChunkedDataset(path, **knobs) as dataset:
        return dataset.read()


def _run_full_reads(path, field):
    mb = field.nbytes / 1e6
    reference = _read_once(path)
    sync_s = _best_seconds(lambda: _read_once(path), 3)
    with ChunkedDataset(path) as dataset:
        refined = dataset.refine()
    return {
        "modes": {"sync": {"mbps": round(mb / sync_s, 3), "seconds": round(sync_s, 4)}},
        "paths_byte_identical": refined.data.tobytes() == reference.data.tobytes(),
    }


def _run_roi(path, field):
    # Quarter of the sharded (leading) axis, half of the rest: 1/16 of the
    # volume, intersecting ~1/4 of the shards.
    roi = (slice(0, max(1, field.shape[0] // 4)),) + tuple(
        slice(0, max(1, s // 2)) for s in field.shape[1:]
    )
    with ChunkedDataset(path) as dataset:
        full = dataset.read()
        with ChunkedDataset(path) as fresh:
            part = fresh.read(roi=roi)
    return {
        "roi": [[s.start, s.stop] for s in part.roi],
        "roi_volume_fraction": round(part.data.size / field.size, 4),
        "roi_bytes": part.bytes_loaded,
        "full_bytes": full.bytes_loaded,
        "bytes_fraction": round(part.bytes_loaded / full.bytes_loaded, 4),
        "paths_byte_identical": part.data.tobytes() == full.data[roi].tobytes(),
    }


def _run_refine_ladder(path):
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
        ladder = [eb * k for k in (1024, 64, 8, 1)]
        sync = [dataset.refine(error_bound=target) for target in ladder]
    with RangeServer(path.parent) as server:
        with ChunkedDataset(server.url_for(path.name)) as dataset:
            spec = [dataset.refine(error_bound=target) for target in ladder]
    seen = set()
    re_read = 0
    for step in spec:
        re_read += len(seen & set(step.ranges))
        seen |= set(step.ranges)
    return {
        "rungs": len(ladder),
        "bytes_per_rung": [step.bytes_loaded for step in sync],
        "re_read_ranges": re_read,
        "bytes_identical_to_sync": all(
            s.bytes_loaded == p.bytes_loaded and s.ranges == p.ranges
            for s, p in zip(sync, spec)
        ),
        "data_identical_to_sync": all(
            s.data.tobytes() == p.data.tobytes() for s, p in zip(sync, spec)
        ),
    }


def _run_stream(tmp_path, field):
    mb = field.nbytes / 1e6
    blob = IPComp(error_bound=BOUND, relative=True).compress(field)
    path = tmp_path / "stream.ipc"
    path.write_bytes(blob)
    retriever = ProgressiveRetriever(blob)
    bare = retriever.retrieve(error_bound=retriever.header.error_bound)
    sync_s = _best_seconds(lambda: _read_once(path), 3)
    return {
        "sync_mbps": round(mb / sync_s, 3),
        "identical": _read_once(path).data.tobytes() == bare.data.tobytes(),
    }


def _run_remote(tmp_path, path, field):
    """Loopback-HTTP legs: serial/multiplexed × server condition through the stack.

    Clean legs are the stack's fixed-overhead measurement: bytes identical
    to the local read (hard gate elsewhere), zero retries (ditto), and the
    remote/local latency ratio is the per-request cost of HTTP framing —
    recorded, never gated, since it is pure hardware/loopback noise.  The
    20 ms/read latency legs isolate request concurrency: at ``prefetch=0``
    every plane block is its own round trip, one at a time, while the
    default reads the plan in two waves (open — which carries every shard
    header in the archive's headers block — then payload) over the
    connection pool, so its speedup there is network-bound and
    gated even on a 1-core box.
    """
    if field.size < int(np.prod(_REMOTE_MIN_SHAPE)):
        field = _synthetic_field(_REMOTE_MIN_SHAPE)
        path = tmp_path / "remote.rprc"
        ChunkedDataset.write(
            path, field, error_bound=BOUND, relative=True, n_blocks=N_BLOCKS,
        )
    windows = path.stat().st_size / OPENING_WINDOW
    assert windows >= 3, f"remote archive is only {windows:.1f} opening windows"
    mb = field.nbytes / 1e6
    local = _read_once(path)
    sync_seconds = _best_seconds(lambda: _read_once(path), 3)

    def leg(prefetch, plan):
        with RangeServer(path.parent, plan=plan) as server:
            url = server.url_for(path.name)

            def read():
                stack = open_remote_source(url)
                with ChunkedDataset(url, source=stack, prefetch=prefetch) as dataset:
                    return dataset.read(), stack.stats()

            # The serial latency leg is one 20 ms round trip per plane
            # block (well over a thousand): once is enough, for timing and
            # identity.
            seconds = float("inf")
            for _ in range(1 if plan and not prefetch else 3):
                start = time.perf_counter()
                result, stats = read()
                seconds = min(seconds, time.perf_counter() - start)
        return {
            "prefetch": prefetch,
            "latency_plan": (
                {"kind": "latency", "seconds": _REMOTE_LATENCY_S}
                if plan is not None
                else None
            ),
            "mbps": round(mb / seconds, 3),
            "seconds": round(seconds, 4),
            "requests": stats.get("requests", 0),
            "egress_bytes": stats.get("egress_bytes", 0),
            "retries": stats.get("retries", 0),
            "crc_verified": stats.get("crc_verified", 0),
            "inflight_max": stats.get("inflight_max", 0),
            "identical": result.data.tobytes() == local.data.tobytes()
            and result.bytes_loaded == local.bytes_loaded,
        }

    latency_plan = FaultPlan.always("latency", seconds=_REMOTE_LATENCY_S)
    legs = {}
    for label, prefetch in (("serial", 0), ("multiplexed", DEFAULT_PREFETCH_DEPTH)):
        legs[f"{label}/clean"] = leg(prefetch, None)
        legs[f"{label}/latency"] = leg(prefetch, latency_plan)
    return {
        "shape": list(field.shape),
        "field_mb": round(mb, 3),
        "file_bytes": path.stat().st_size,
        "opening_window_bytes": OPENING_WINDOW,
        "latency_seconds_per_read": _REMOTE_LATENCY_S,
        "legs": legs,
        "latency_ratio_vs_sync": round(
            legs["serial/clean"]["seconds"] / sync_seconds, 3
        ),
        "multiplexed_latency_speedup": round(
            legs["serial/latency"]["seconds"]
            / legs["multiplexed/latency"]["seconds"],
            3,
        ),
    }


def _check_floor(payload) -> list:
    """Regression gate against the checked-in floor (>30 % drop fails)."""
    if not FLOOR_FILE.exists():
        return []
    floor = json.loads(FLOOR_FILE.read_text())
    if floor.get("scale") != BENCH_SCALE:
        return []
    failures = []
    for mode, minimum in floor.get("retrieval_mbps", {}).items():
        measured = payload["full_read"]["modes"].get(mode, {}).get("mbps")
        if measured is not None and measured < minimum * 0.7:
            failures.append(
                f"retrieval {mode}: {measured} MB/s < 70% of floor {minimum} MB/s"
            )
    # Remote floors arm per leg (serial/multiplexed × condition): a regression
    # in one cannot hide behind the other's healthy number.
    for leg_label, minimum in floor.get("remote_mbps", {}).items():
        measured = (
            payload["remote_http"]["legs"].get(leg_label, {}).get("mbps")
        )
        if measured is not None and measured < minimum * 0.7:
            failures.append(
                f"remote {leg_label}: {measured} MB/s < 70% of floor "
                f"{minimum} MB/s"
            )
    return failures


@pytest.mark.benchmark(group="retrieval")
def test_retrieval_e2e(benchmark, results_dir, tmp_path):
    shape = _SHAPES.get(BENCH_SCALE, _SHAPES["default"])
    field = _synthetic_field(shape)
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(
        path, field, error_bound=BOUND, relative=True, n_blocks=N_BLOCKS
    )

    def _run():
        full_read = _run_full_reads(path, field)
        return {
            "schema": "bench-retrieval-e2e/v7",
            "scale": BENCH_SCALE,
            "shape": list(shape),
            "field_mb": round(field.nbytes / 1e6, 3),
            "n_blocks": N_BLOCKS,
            "full_read": full_read,
            "roi": _run_roi(path, field),
            "refine_ladder": _run_refine_ladder(path),
            "single_stream": _run_stream(tmp_path, field),
            "remote_http": _run_remote(tmp_path, path, field),
        }

    payload = benchmark.pedantic(_run, rounds=1, iterations=1)

    header = ["path", "MB/s"]
    rows = [
        ["sync", payload["full_read"]["modes"]["sync"]["mbps"]],
    ] + [
        [f"http/{label}", leg["mbps"]]
        for label, leg in payload["remote_http"]["legs"].items()
    ]
    print_table("Retrieval e2e: full-field read", header, rows)
    write_csv(results_dir / "retrieval_e2e.csv", header, rows)
    remote = payload["remote_http"]
    clean = remote["legs"]["serial/clean"]
    print(
        f"loopback http (serial/clean): {clean['mbps']} MB/s over "
        f"{clean['requests']} ranged GETs "
        f"({remote['latency_ratio_vs_sync']}x local sync latency); "
        f"multiplexing beats the serial read "
        f"{remote['multiplexed_latency_speedup']}x under "
        f"{int(remote['latency_seconds_per_read'] * 1000)} ms/read latency"
    )
    print(
        f"roi: {payload['roi']['roi_volume_fraction']:.3f} of the volume → "
        f"{payload['roi']['bytes_fraction']:.3f} of the bytes"
    )
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Correctness gates (hardware-independent, always asserted).
    assert payload["full_read"]["paths_byte_identical"]
    assert payload["roi"]["paths_byte_identical"]
    assert payload["single_stream"]["identical"]
    ladder = payload["refine_ladder"]
    assert ladder["re_read_ranges"] == 0, ladder
    assert ladder["bytes_identical_to_sync"], ladder
    assert ladder["data_identical_to_sync"], ladder
    # A ≤ 1/4-volume ROI must touch well under half the full-read bytes.
    assert payload["roi"]["roi_volume_fraction"] <= 0.25
    assert payload["roi"]["bytes_fraction"] < 0.5, payload["roi"]
    # Loopback HTTP: identical bytes on every leg, clean runs never retry,
    # and the default genuinely multiplexes
    # (window > 1 on the wire) and beats the serial read by ≥ 2x when each
    # read costs 20 ms — network-bound, so valid on any core count.
    for label, leg in payload["remote_http"]["legs"].items():
        assert leg["identical"], (label, leg)
        if leg["latency_plan"] is None:
            assert leg["retries"] == 0, (label, leg)
    assert payload["remote_http"]["legs"]["multiplexed/latency"]["inflight_max"] > 1
    assert (
        payload["remote_http"]["multiplexed_latency_speedup"]
        >= _MULTIPLEXED_LATENCY_SPEEDUP_MIN
    ), payload["remote_http"]

    # Perf gates: floor-file driven.
    floor_failures = _check_floor(payload)
    assert not floor_failures, "\n".join(floor_failures)
