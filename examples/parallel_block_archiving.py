#!/usr/bin/env python3
"""Domain example: block-parallel archiving of a large combustion field.

HPC deployments compress per-rank blocks rather than whole fields.  This
example writes an S3D-like CH4 mass-fraction field into a sharded
:class:`repro.io.ChunkedDataset` container — two slabs compress at once, on
the calling thread and one helper thread, and each shard's stream is the
one ``IPComp`` makes of its slab alone — verifies that the global error
bound survives the decomposition, and then performs a
slab-local progressive retrieval — a coarse pass finds the slab containing
the flame front and only that slab is refined to full fidelity.  Every byte
count printed is the retrieval engine's own accounting.

Run with::

    python examples/parallel_block_archiving.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis import max_error
from repro.datasets import load_dataset
from repro.io import ChunkedDataset

SHAPE = (64, 56, 56)
RELATIVE_BOUND = 1e-6
N_BLOCKS = 4


def main() -> None:
    ch4 = load_dataset("ch4", shape=SHAPE)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ch4.rprc"
        start = time.perf_counter()
        manifest = ChunkedDataset.write(
            path, ch4, error_bound=RELATIVE_BOUND, relative=True, n_blocks=N_BLOCKS
        )
        elapsed = time.perf_counter() - start
        total = path.stat().st_size
        print(
            f"compressed {ch4.nbytes / 1e6:.1f} MB into "
            f"{len(manifest['shards'])} shards, {total / 1e6:.2f} MB file "
            f"(CR {ch4.nbytes / total:.2f}) in {elapsed:.2f} s"
        )
        global_eb = manifest["error_bound"]

        with ChunkedDataset(path) as dataset:
            restored = dataset.read()
            print(f"global error after reassembly: {max_error(ch4, restored.data):.3e} "
                  f"(bound {global_eb:.3e})")

            # Slab-local progressive retrieval: find the slab with the most
            # CH4 from a coarse pass, then refine only that slab.
            coarse = dataset.read(error_bound=global_eb * 4096)
            print(f"coarse pass over {len(coarse.shards)} shards: "
                  f"loaded {coarse.bytes_loaded / 1e3:.1f} kB")
            means = [float(coarse.data[shard.slices].mean()) for shard in dataset.shards]
            hot = dataset.shards[int(np.argmax(means))]
            fine = dataset.refine(error_bound=global_eb, roi=hot.slices)
            rows = hot.slices[0]
            print(
                f"refined only {hot.name} (rows {rows.start}:{rows.stop}): "
                f"loaded {fine.bytes_loaded / 1e3:.1f} kB, "
                f"slab error {max_error(ch4[hot.slices], fine.data):.3e}"
            )


if __name__ == "__main__":
    main()
