"""Domain decomposition helpers.

``block_slices`` splits a field into contiguous slabs along its slowest
axis; the range helpers serialize slab extents for manifests;
``intersect_slab_roi`` gives the selectors that place a slab
into an ROI-shaped output (the engine's decode stage and
:func:`repro.retrieval.engine.assemble`).  The decomposition is purely
geometric — no ghost layers are needed because every compressor in this
repository is block-independent.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

SliceTuple = Tuple[slice, ...]


def block_slices(shape: Sequence[int], n_blocks: int) -> List[SliceTuple]:
    """Split along the slowest axis into at most ``n_blocks`` contiguous slabs."""
    shape = tuple(int(s) for s in shape)
    if n_blocks < 1:
        raise ConfigurationError("n_blocks must be positive")
    leading = shape[0]
    n_blocks = min(n_blocks, leading)
    edges = np.linspace(0, leading, n_blocks + 1, dtype=int)
    slabs = []
    for i in range(n_blocks):
        if edges[i + 1] > edges[i]:
            slabs.append((slice(int(edges[i]), int(edges[i + 1])),) + tuple(
                slice(None) for _ in shape[1:]
            ))
    return slabs


def slices_to_ranges(slices: SliceTuple, shape: Sequence[int]) -> List[List[int]]:
    """Serialize a slice tuple as JSON-friendly ``[[start, stop], ...]`` pairs."""
    shape = tuple(int(s) for s in shape)
    if len(slices) != len(shape):
        raise ConfigurationError("slice tuple must match the number of dimensions")
    ranges = []
    for slc, size in zip(slices, shape):
        start, stop, step = slc.indices(size)
        if step != 1:
            raise ConfigurationError("only contiguous (step-1) slices are supported")
        ranges.append([int(start), int(stop)])
    return ranges


def ranges_to_slices(ranges: Sequence[Sequence[int]]) -> SliceTuple:
    """Inverse of :func:`slices_to_ranges`."""
    return tuple(slice(int(start), int(stop)) for start, stop in ranges)


def normalize_roi(roi, shape: Sequence[int]) -> SliceTuple:
    """Normalize a region-of-interest spec into a concrete slice tuple.

    ``roi`` may be a single slice, a tuple of slices, a tuple of
    ``(start, stop)`` pairs, or integers (one index, keeping the axis);
    missing trailing axes default to the full extent.  The result always has
    one step-1 slice with concrete, in-bounds endpoints per axis, and every
    axis must select at least one point.
    """
    shape = tuple(int(s) for s in shape)
    if isinstance(roi, slice):
        roi = (roi,)
    roi = tuple(roi)
    if len(roi) > len(shape):
        raise ConfigurationError(
            f"roi has {len(roi)} axes but the field has {len(shape)}"
        )
    roi = roi + tuple(slice(None) for _ in range(len(shape) - len(roi)))
    out = []
    for axis, (spec, size) in enumerate(zip(roi, shape)):
        if not isinstance(spec, slice):
            if isinstance(spec, (int, np.integer)):
                index = int(spec) + (size if spec < 0 else 0)
                if not 0 <= index < size:
                    raise ConfigurationError(
                        f"roi index {spec} out of range for axis {axis} "
                        f"of size {size}"
                    )
                spec = slice(index, index + 1)
            else:
                try:
                    start, stop = spec
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"roi axis {axis} must be a slice, an int, or a "
                        f"(start, stop) pair, got {spec!r}"
                    ) from None
                spec = slice(int(start), int(stop))
        start, stop, step = spec.indices(size)
        if step != 1:
            raise ConfigurationError("roi slices must have step 1")
        if stop <= start:
            raise ConfigurationError(f"roi selects no points along axis {axis}")
        out.append(slice(start, stop))
    return tuple(out)


def slices_intersect(a: SliceTuple, b: SliceTuple) -> bool:
    """True if two concrete (start/stop) slice tuples share any point."""
    return all(
        max(sa.start, sb.start) < min(sa.stop, sb.stop) for sa, sb in zip(a, b)
    )


def intersect_slab_roi(slab: SliceTuple, roi: SliceTuple) -> Tuple[SliceTuple, SliceTuple]:
    """Selectors scattering a slab's data into an ROI-shaped output.

    Returns ``(sel_out, sel_in)``: ``out[sel_out] = slab_data[sel_in]``
    places the slab∩ROI overlap of a decoded slab into an array shaped like
    the ROI: the engine places each shard of a read with it, and
    :func:`repro.retrieval.engine.assemble` the service's cached slabs.
    """
    sel_out, sel_in = [], []
    for slab_axis, roi_axis in zip(slab, roi):
        start = max(slab_axis.start, roi_axis.start)
        stop = min(slab_axis.stop, roi_axis.stop)
        sel_out.append(slice(start - roi_axis.start, stop - roi_axis.start))
        sel_in.append(slice(start - slab_axis.start, stop - slab_axis.start))
    return tuple(sel_out), tuple(sel_in)
