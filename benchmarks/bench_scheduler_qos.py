"""QoS scheduler: admission overhead, fair share, shed-then-refine latency.

The serving-layer companion of ``bench_retrieval_e2e``: it measures what the
byte-budget request scheduler costs and buys on top of a bare
:class:`~repro.service.RetrievalService` and emits **`BENCH_scheduler.json`**
at the repo root:

1. **Uncontended overhead** — the scheduler's per-request tax (costing +
   admission + executor handoff, isolated as a warm-median difference)
   relative to the cold request a user actually waits on.  The scheduler
   must be nearly free when there is nothing to arbitrate: < 5 % added
   latency (scale-tuned; skipped at ``tiny`` where the base request is
   too short for the ratio to mean anything).
2. **Fair share under contention** — four tenants with equal byte budgets
   and identical workloads on private container copies race through a
   window smaller than the offered load.  Hard-gated: every request is
   granted, per-tenant debited bytes are exactly equal, token buckets
   never go negative, and every final answer is bitwise-identical to the
   serial oracle.
3. **Shed-then-refine latency** — with a coarse slab resident and a budget
   too small to grant the fine request immediately, the degraded first
   answer must arrive ahead of the background-refined final (hard-gated),
   and well ahead at ≥ default scale.  The refined bytes are hard-gated
   bitwise against the serial oracle — degradation never changes what the
   caller ultimately gets.

Correctness is hard-gated on every path; latency ratios are recorded and
asserted only at scales where they are meaningful.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.conftest import (
    BENCH_SCALE,
    REPO_ROOT,
    print_table,
    skip_scale_tuned_asserts,
    write_csv,
)
from repro import ChunkedDataset
from repro.service import RequestScheduler, RetrievalService

BENCH_JSON = REPO_ROOT / "BENCH_scheduler.json"

BOUND = 1e-5
N_BLOCKS = 4
_TENANTS = 4
_WINDOW = 2

_SHAPES = {
    "tiny": (20, 24, 16),
    "default": (40, 48, 32),
    "full": (56, 64, 48),
    "paper": (56, 64, 48),
}


def _synthetic_field(shape) -> np.ndarray:
    rng = np.random.default_rng(424243)  # local; never the shared fixture rng
    grids = np.meshgrid(*(np.linspace(0, 1, s) for s in shape), indexing="ij")
    smooth = sum(np.sin((2 + i) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.normal(size=shape)).astype(np.float64)


def _write_container(path, field) -> None:
    ChunkedDataset.write(
        path, field, error_bound=BOUND, relative=True, n_blocks=N_BLOCKS,
    )


def _serial(path, error_bound=None, roi=None):
    with ChunkedDataset(path) as dataset:
        return dataset.read(error_bound, roi=roi)


def _stored_bound(path) -> float:
    with ChunkedDataset(path) as dataset:
        return dataset.absolute_bound


def _best_seconds(fn, reps: int) -> float:
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


# ------------------------------------------------------------------ sections


def _run_overhead(workdir, field, cold_reps=5, warm_reps=30):
    """Uncontended scheduler tax on a single request.

    Two measurements, combined:

    * the **per-request tax** — costing, admission, executor handoff — as
      the difference of *warm* medians (direct vs scheduled on a resident
      request).  Warm serves are sub-ms and repeatable, so 30-rep medians
      isolate the milliseconds-scale tax that cold-vs-cold wall clocks
      bury in I/O jitter;
    * the **cold base** — best-of over private container copies (each a
      genuinely cold session) through the bare service.

    ``overhead_fraction = warm tax / cold base``: what scheduling adds to
    the request a user actually waits on.  Infrastructure (service,
    scheduler, worker threads) is built once, outside every timed region.
    """
    big = np.concatenate([field, field], axis=0)  # ~2x the work per request
    path = workdir / "overhead.rprc"
    _write_container(path, big)
    copies = []
    for i in range(cold_reps):
        copy = workdir / f"overhead-cold-{i}.rprc"
        copy.write_bytes(path.read_bytes())
        copies.append(copy)

    def _median(samples):
        ordered = sorted(samples)
        return ordered[len(ordered) // 2]

    with RetrievalService() as service:
        cold = []
        for copy in copies:
            start = time.perf_counter()
            service.get(copy)
            cold.append(time.perf_counter() - start)
        cold_s = min(cold)
        reference = service.get(path).data  # warm the measurement container
        direct = []
        for _ in range(warm_reps):
            start = time.perf_counter()
            service.get(path)
            direct.append(time.perf_counter() - start)
        with RequestScheduler(service, max_inflight=_WINDOW) as scheduler:
            identical = np.array_equal(scheduler.request(path).data, reference)
            scheduled = []
            for _ in range(warm_reps):
                start = time.perf_counter()
                scheduler.request(path)
                scheduled.append(time.perf_counter() - start)
    tax_s = max(0.0, _median(scheduled) - _median(direct))
    return {
        "cold_direct_seconds": round(cold_s, 4),
        "warm_direct_seconds": round(_median(direct), 5),
        "warm_scheduled_seconds": round(_median(scheduled), 5),
        "tax_seconds": round(tax_s, 5),
        "overhead_fraction": round(tax_s / cold_s, 4),
        "identical": bool(identical),
    }


def _run_fairness(workdir, field):
    """Four equal-budget tenants, identical workloads, private containers.

    Bounds strictly tighten so no request is satisfied by fidelity already
    resident — every request is granted and debited its planner cost,
    which makes per-tenant totals exactly comparable (same construction as
    ``tests/test_scheduler.py``'s fairness test, here at benchmark scale
    and with wall-clock recorded).
    """
    source = workdir / "fair.rprc"
    _write_container(source, field)
    stored = _stored_bound(source)
    workload = [
        (None, stored * 64.0),
        (None, stored * 8.0),
        ((slice(0, max(1, field.shape[0] // 2)),), stored * 2.0),
    ]
    clients = [f"tenant-{i}" for i in range(_TENANTS)]
    paths = {}
    for client in clients:
        copy = workdir / f"{client}.rprc"
        copy.write_bytes(source.read_bytes())
        paths[client] = copy

    import threading

    results: dict = {}
    start = time.perf_counter()
    with RetrievalService() as service:
        with RequestScheduler(
            service, max_inflight=_WINDOW, budget_bps=4_000_000
        ) as scheduler:

            def run(client):
                handles = [
                    scheduler.submit(
                        paths[client], error_bound=bound, roi=roi, client=client
                    )
                    for roi, bound in workload
                ]
                results[client] = [h.refined(timeout=300) for h in handles]

            threads = [
                threading.Thread(target=run, args=(c,)) for c in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        stats = scheduler.stats()
    wall = time.perf_counter() - start

    identical = True
    for client, finals in results.items():
        for (roi, bound), final in zip(workload, finals):
            oracle = _serial(paths[client], bound, roi=roi)
            identical &= np.array_equal(final.data, oracle.data)
    debited = [stats["clients"][c]["debited_bytes"] for c in clients]
    return {
        "tenants": _TENANTS,
        "requests_per_tenant": len(workload),
        "max_inflight": _WINDOW,
        "budget_bps": 4_000_000,
        "wall_seconds": round(wall, 4),
        "debited_bytes": dict(zip(clients, debited)),
        "debited_spread": max(debited) - min(debited),
        "all_granted": all(
            stats["clients"][c]["granted"] == len(workload) for c in clients
        ),
        "min_tokens": min(
            stats["clients"][c]["min_tokens"] for c in clients
        ),
        "followers": stats["followers"],
        "identical": bool(identical),
    }


def _run_shed_refine(workdir, field):
    """Degraded time-to-first-answer vs background-refined final."""
    path = workdir / "shed.rprc"
    _write_container(path, field)
    stored = _stored_bound(path)
    coarse, fine = stored * 64.0, stored * 2.0
    oracle = _serial(path, fine)
    with RetrievalService() as service:
        cost = service.cost(path, error_bound=fine).predicted_bytes
        # Size the budget so the fine request cannot be granted on arrival
        # and the background refine has to wait ~0.6 s for tokens.
        budget_bps = max(1, int(cost / 1.6))
        service.get(path, error_bound=coarse)  # resident slab to shed to
        with RequestScheduler(
            service, max_inflight=_WINDOW, budget_bps=budget_bps
        ) as scheduler:
            start = time.perf_counter()
            handle = scheduler.submit(path, error_bound=fine, client="shed")
            first = handle.result(timeout=300)
            first_s = time.perf_counter() - start
            final = handle.refined(timeout=300)
            final_s = time.perf_counter() - start
    return {
        "predicted_bytes": cost,
        "budget_bps": budget_bps,
        "first_answer_seconds": round(first_s, 4),
        "refined_seconds": round(final_s, 4),
        "first_over_refined": round(first_s / final_s, 4) if final_s else 0.0,
        "degraded": bool(handle.degraded),
        "first_bytes_loaded": first.trace.bytes_loaded,
        "first_achieved_bound": first.trace.achieved_bound,
        "refined_achieved_bound": final.trace.achieved_bound,
        "identical": bool(np.array_equal(final.data, oracle.data)),
    }


# ------------------------------------------------------------------- harness


@pytest.mark.benchmark(group="scheduler")
def test_scheduler_qos(benchmark, results_dir, tmp_path):
    shape = _SHAPES.get(BENCH_SCALE, _SHAPES["default"])
    field = _synthetic_field(shape)

    def _run():
        return {
            "schema": "bench-scheduler-qos/v1",
            "scale": BENCH_SCALE,
            "shape": list(shape),
            "field_mb": round(field.nbytes / 1e6, 3),
            "overhead": _run_overhead(tmp_path, field),
            "fairness": _run_fairness(tmp_path, field),
            "shed_refine": _run_shed_refine(tmp_path, field),
        }

    payload = benchmark.pedantic(_run, rounds=1, iterations=1)

    header = ["metric", "value"]
    rows = [
        ["overhead fraction", payload["overhead"]["overhead_fraction"]],
        ["fairness wall s", payload["fairness"]["wall_seconds"]],
        ["debited spread B", payload["fairness"]["debited_spread"]],
        ["min tokens", round(payload["fairness"]["min_tokens"], 1)],
        ["batched followers", payload["fairness"]["followers"]],
        ["first answer s", payload["shed_refine"]["first_answer_seconds"]],
        ["refined final s", payload["shed_refine"]["refined_seconds"]],
    ]
    print_table("Scheduler QoS", header, rows)
    write_csv(results_dir / "scheduler_qos.csv", header, rows)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # Correctness gates (hardware-independent, always asserted).
    assert payload["overhead"]["identical"]
    fairness = payload["fairness"]
    assert fairness["identical"]
    assert fairness["all_granted"], fairness
    assert fairness["debited_spread"] == 0, fairness
    assert fairness["min_tokens"] >= 0.0, fairness
    shed = payload["shed_refine"]
    assert shed["identical"]
    assert shed["degraded"], shed
    assert shed["first_bytes_loaded"] == 0, shed  # served from residency
    assert shed["first_answer_seconds"] <= shed["refined_seconds"]

    # Latency gates: only meaningful once the base request dwarfs fixed
    # scheduling costs.
    skip_scale_tuned_asserts("scheduler latency ratios")
    assert payload["overhead"]["overhead_fraction"] < 0.05, payload["overhead"]
    assert shed["first_answer_seconds"] < 0.5 * shed["refined_seconds"], shed
