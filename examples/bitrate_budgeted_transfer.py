#!/usr/bin/env python3
"""Domain example: many tenants sharing one dataset under byte budgets.

A common situation in HPC serving: a post-hoc analysis portal exposes one
compressed field to many simultaneous users — a WAN-limited collaborator, a
dashboard polling coarse overviews, a batch job pulling full-fidelity
slices.  Earlier versions of this example swept per-request byte budgets in
a manual loop; the service layer now does the budgeting itself.
:class:`~repro.service.RequestScheduler` admits requests through a bounded
window, meters each client with a bytes-per-second token bucket costed by
the planner's exact ``predicted_bytes``, and — the part only a progressive
codec can offer — sheds overload by answering from whatever fidelity is
already resident (``degraded``), refining to the requested bound in the
background.

Run with::

    python examples/bitrate_budgeted_transfer.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset
from repro.io.dataset import ChunkedDataset
from repro.service import RequestScheduler, RetrievalService

SHAPE = (56, 56, 24)

#: Unequal tenant budgets, bytes/second: a WAN user, a dashboard, two batch
#: jobs.  The scheduler keeps delivery proportional without starving anyone.
CLIENT_BUDGETS = {
    "wan": 50_000,
    "dashboard": 800_000,
    "batch-a": 3_000_000,
    "batch-b": 3_000_000,
}

#: Each tenant's workload: (roi, error_bound) request list over one field.
REQUESTS = [
    ("wan", ((0, 28), (0, 56), (0, 24)), 1e-3),
    ("dashboard", ((0, 56), (0, 28), (0, 24)), 1e-3),
    ("batch-a", ((0, 56), (0, 56), (0, 24)), 1e-4),
    ("batch-b", ((28, 56), (0, 56), (0, 24)), 1e-4),
    ("wan", ((28, 56), (0, 56), (0, 24)), 1e-3),
    ("dashboard", ((0, 56), (28, 56), (0, 24)), 1e-3),
    ("batch-a", ((0, 28), (0, 28), (0, 24)), 1e-4),
    ("batch-b", ((0, 56), (0, 56), (0, 24)), 1e-4),
]


def main() -> None:
    wave = load_dataset("wave", shape=SHAPE)
    workdir = Path(tempfile.mkdtemp(prefix="repro-qos-"))
    container = workdir / "wave.rprc"
    ChunkedDataset.write(
        container, wave, error_bound=1e-6, relative=True, n_blocks=4
    )
    print(f"wave field {wave.shape} -> {container} "
          f"({container.stat().st_size / 1e6:.2f} MB container)")

    with RetrievalService() as service:
        # Warm a coarse rung so overloaded requests have a fidelity to
        # degrade to (a live portal reaches this state by itself).
        service.get(container, error_bound=1e-2)

        with RequestScheduler(
            service, max_inflight=2, client_budgets=CLIENT_BUDGETS
        ) as scheduler:
            handles = [
                (
                    client,
                    bound,
                    scheduler.submit(
                        container, error_bound=bound, roi=roi, client=client
                    ),
                )
                for client, roi, bound in REQUESTS
            ]
            # First answers arrive immediately (possibly degraded); the
            # refined finals land as budgets allow.
            for client, bound, handle in handles:
                first = handle.result(timeout=120)
                final = handle.refined(timeout=120)
                tag = "degraded" if handle.degraded else "direct  "
                print(
                    f"  {client:>9} eb={bound:.0e} [{tag}] "
                    f"first bound {first.trace.achieved_bound:.2e} -> "
                    f"final {final.trace.achieved_bound:.2e}, "
                    f"waited {final.trace.queue_wait * 1e3:6.1f} ms, "
                    f"debited {final.trace.budget_debited:>8} B"
                )
            stats = scheduler.stats()

    print(f"\nper-client QoS accounting "
          f"({stats['degraded_served']} degraded serves, "
          f"{stats['followers']} batched followers):")
    print(f"{'client':>10} {'budget B/s':>12} {'granted':>8} "
          f"{'delivered B':>12} {'min tokens':>11}")
    for name, c in sorted(stats["clients"].items()):
        print(f"{name:>10} {c['budget_bps']:>12} {c['granted']:>8} "
              f"{c['delivered_bytes']:>12} {c['min_tokens']:>11.0f}")
    print("\nToken buckets never overdraw (min tokens >= 0); degraded "
          "answers refine to the exact requested bound in the background.")


if __name__ == "__main__":
    main()
