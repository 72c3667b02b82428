"""Block-decomposed parallel compression substrate.

Scientific compressors are deployed per-rank on HPC systems: the domain is
decomposed into blocks and every block is compressed independently, which
preserves the point-wise error bound and lets retrieval be block-local.  This
subpackage provides the write transport behind
:meth:`repro.io.ChunkedDataset.write` — two slabs in flight in one process,
the caller's thread and one helper thread — and the slab geometry the write
and the retrieval engine share.
"""

from __future__ import annotations

from repro.parallel.executor import BlockParallelCompressor, shard_name
from repro.parallel.partition import (
    block_slices,
    intersect_slab_roi,
    normalize_roi,
    ranges_to_slices,
    slices_intersect,
    slices_to_ranges,
)

__all__ = [
    "BlockParallelCompressor",
    "shard_name",
    "block_slices",
    "normalize_roi",
    "intersect_slab_roi",
    "slices_intersect",
    "slices_to_ranges",
    "ranges_to_slices",
]
