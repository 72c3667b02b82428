#!/usr/bin/env python3
"""Domain example: ROI-progressive retrieval from a file-backed dataset.

A post-analysis campaign rarely needs the whole field at full precision: an
analyst scans a coarse rendering, zooms into a region of interest, and keeps
tightening the error bound there.  This example writes a Miranda-like density
field into a sharded :class:`repro.io.ChunkedDataset` container, then plays
that campaign against the *file*, printing the bytes each request actually
read:

1. coarse full-field pass (every shard, few bitplanes),
2. one-shot ROI read — only the shards intersecting the region are opened,
3. stateful ``refine()`` ladder on the ROI — each rung loads only the *new*
   plane blocks of the touched shards (Algorithm 2), never re-reading a byte.

Run with::

    python examples/roi_progressive_retrieval.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import max_error
from repro.datasets import load_dataset
from repro.io import ChunkedDataset

SHAPE = (64, 56, 56)
RELATIVE_BOUND = 1e-6
N_BLOCKS = 4


def main() -> None:
    density = load_dataset("density", shape=SHAPE)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "density.rprc"
        manifest = ChunkedDataset.write(
            path, density, error_bound=RELATIVE_BOUND, relative=True,
            n_blocks=N_BLOCKS,
        )
        eb = manifest["error_bound"]
        file_bytes = path.stat().st_size
        print(
            f"stored {density.nbytes / 1e6:.1f} MB as {file_bytes / 1e3:.1f} kB "
            f"container ({len(manifest['shards'])} shards, abs eb {eb:.3e})"
        )

        with ChunkedDataset(path) as dataset:
            # 1. Coarse overview of the whole field.
            overview = dataset.read(error_bound=eb * 4096)
            print(
                f"overview   : {overview.bytes_loaded / 1e3:7.1f} kB "
                f"({overview.bytes_loaded / file_bytes:5.1%} of file), "
                f"error <= {overview.error_bound:.3e}"
            )

            # 2. Zoom into the first quarter of the domain: one shard opened.
            roi = (slice(0, SHAPE[0] // 4),)
            zoom = dataset.read(error_bound=eb * 256, roi=roi)
            print(
                f"roi read   : {zoom.bytes_loaded / 1e3:7.1f} kB "
                f"({len(zoom.shards)}/{dataset.n_shards} shards), "
                f"roi error {max_error(density[zoom.roi], zoom.data):.3e}"
            )

        # 3. Progressive refinement ladder on the ROI against a fresh handle.
        with ChunkedDataset(path) as dataset:
            seen = set()
            roi = (slice(0, SHAPE[0] // 4),)
            for multiplier in (4096, 256, 16, 1):
                step = dataset.refine(error_bound=eb * multiplier, roi=roi)
                reread = len(seen & set(step.ranges))
                seen |= set(step.ranges)
                print(
                    f"refine x{multiplier:<5d}: {step.bytes_loaded / 1e3:7.1f} kB new, "
                    f"{step.cumulative_bytes / 1e3:7.1f} kB total, "
                    f"re-read ranges: {reread}, "
                    f"roi error {max_error(density[step.roi], step.data):.3e}"
                )
                assert reread == 0, "Algorithm 2 must never re-read a range"


if __name__ == "__main__":
    main()
