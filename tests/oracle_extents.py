"""The loop oracle of the header parse and the block extent table.

This is the test-side half of the parse's identity contract: the one-pass,
flat-array parse of :meth:`repro.core.stream.StreamHeader.from_json` and the
extent table :class:`repro.core.stream.BlockExtents` builds from it must give
exactly what these loops give — per level, its plane sizes, coders and loss
table, and each level's ``(starts, sizes, segments)``.  Nothing in ``src/``
imports it.

The two functions are the parse's and the table's former bodies, one level
at a time, kept as they were; only their results are returned as plain
values instead of being stored on a header (no geometry check runs here:
the tests compare headers the production parse accepted).
"""

from __future__ import annotations

from itertools import accumulate, count
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.coders.backend import RawCoder
from repro.core.predictive_coder import LevelEncoding
from repro.core.stream import LevelTable, Segment
from repro.errors import StreamFormatError


def oracle_levels(obj: dict) -> Tuple[str, int, List[LevelEncoding], Dict[int, List[int]]]:
    """``(anchor coder, version, levels, plane sizes by level)`` of a header
    object, one level at a time."""
    if "codecs" in obj:
        codecs = [str(name) for name in obj["codecs"]]
        version = 2

        def resolve(indices) -> List[str]:
            # One range check per list, then plain indexing.
            indices = list(map(int, indices))
            if indices and not (min(indices) >= 0 and max(indices) < len(codecs)):
                bad = next(i for i in indices if not 0 <= i < len(codecs))
                raise StreamFormatError(
                    f"codec index {bad} outside the name table "
                    f"of {len(codecs)} entries"
                )
            return list(map(codecs.__getitem__, indices))

        (anchor_coder,) = resolve([obj["anchor_coder"]])

        def plane_coders(item: dict) -> List[str]:
            return resolve(item["plane_codecs"])

    else:  # v1: one implicit backend for anchor and every plane
        backend = str(obj["backend"])
        anchor_coder = backend
        version = 1

        def plane_coders(item: dict) -> List[str]:
            return [backend] * len(item["plane_sizes"])

    levels = []
    plane_sizes: Dict[int, List[int]] = {}
    for item in obj["levels"]:
        sizes = list(map(int, item["plane_sizes"]))
        coders = plane_coders(item)
        if len(coders) != len(sizes):
            raise StreamFormatError(
                f"level {item['level']}: {len(coders)} plane codecs "
                f"for {len(sizes)} plane sizes"
            )
        enc = LevelEncoding(
            level=int(item["level"]),
            count=int(item["count"]),
            nbits=int(item["nbits"]),
            plane_blocks=[],
            plane_coders=coders,
            delta_table=np.asarray(item["delta_table"], dtype=np.float64),
        )
        # Plane blocks are not stored in the header; only their sizes.
        plane_sizes[enc.level] = sizes
        levels.append(enc)
    return anchor_coder, version, levels, plane_sizes


def _level_table(enc: LevelEncoding, sizes: List[int], cursor: int) -> LevelTable:
    row = (enc.count + 7) // 8
    level = enc.level
    segments: List[Segment] = []
    run = -1  # first plane of the stored run being walked, if any
    for plane, coder, size in zip(count(), enc.plane_coders, sizes):
        if coder == RawCoder.name and size == row:
            if run < 0:
                run = plane
            continue
        if run >= 0:
            segments.append((level, run, plane, True))
            run = -1
        segments.append((level, plane, plane + 1, False))
    if run >= 0:
        segments.append((level, run, len(sizes), True))
    return LevelTable(list(accumulate(sizes, initial=cursor)), sizes, segments)


def oracle_table(
    levels: List[LevelEncoding],
    plane_sizes: Dict[int, List[int]],
    anchor_size: int,
    payload_start: int,
) -> Dict[Optional[int], LevelTable]:
    """The extent table of a stream: the anchor, then each level in stream
    order (descending level, planes MSB first)."""
    cursor = payload_start + anchor_size
    anchor = LevelTable([payload_start, cursor], [anchor_size], [(None, 0, 1, False)])
    table: Dict[Optional[int], LevelTable] = {None: anchor}
    for enc in sorted(levels, key=lambda e: -e.level):
        table[enc.level] = _level_table(enc, plane_sizes[enc.level], cursor)
        cursor = table[enc.level].starts[-1]
    return table
