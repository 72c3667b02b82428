"""The flat header parse and extent table against their loop oracle.

:meth:`StreamHeader.from_json` walks a header's levels once into flat
arrays, and :class:`BlockExtents` cuts its table from them;
``tests/oracle_extents.py`` keeps the former one-level-at-a-time loops.
Generated v1 and v2 headers — raw and deflated planes, sizes equal and
unequal to the row size, stored runs at level edges, levels of no planes,
levels listed out of stream order — and every shard of the golden corpus
must parse to the same levels, sizes, coders, loss tables, payload size and
``(starts, sizes, segments)`` per level.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_extents import oracle_levels, oracle_table
from repro import ChunkedDataset
from repro.core.interpolation import shared_predictor
from repro.core.stream import BlockExtents, StreamHeader

DATA = Path(__file__).parent / "data"

CODECS = ["raw", "zlib"]


@st.composite
def header_objects(draw):
    """A header object whose geometry the parse accepts."""
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    method = draw(st.sampled_from(["linear", "cubic"]))
    predictor = shared_predictor(shape, method)
    version = draw(st.sampled_from([1, 2]))
    backend = draw(st.sampled_from(CODECS))
    levels = []
    for level, count in sorted(predictor.sweep_sizes.items(), reverse=True):
        row = (count + 7) // 8
        nbits = draw(st.integers(0, 6))
        coders = [
            draw(st.sampled_from(CODECS)) if version == 2 else backend for _ in range(nbits)
        ]
        sizes = [
            row if draw(st.booleans()) else draw(st.integers(0, 3 * row + 3))
            for _ in range(nbits)
        ]
        item = {
            "level": level,
            "count": count,
            "nbits": nbits,
            "plane_sizes": sizes,
            "delta_table": draw(
                st.lists(st.floats(0, 1e6), min_size=nbits + 1, max_size=nbits + 1)
            ),
        }
        if version == 2:
            item["plane_codecs"] = [CODECS.index(name) for name in coders]
        levels.append(item)
    obj = {
        "shape": list(shape),
        "dtype": "float64",
        "error_bound": 0.5,
        "method": method,
        "prefix_bits": 2,
        "anchor_count": predictor.anchor_count,
        "anchor_size": draw(st.integers(0, 99)),
        "levels": draw(st.permutations(levels)) if draw(st.booleans()) else levels,
    }
    if version == 2:
        obj.update(codecs=CODECS, anchor_coder=draw(st.integers(0, 1)))
    else:
        obj["backend"] = backend
    return obj


def check_parse(obj: dict, payload_start: int) -> None:
    header = StreamHeader.from_json(obj)
    anchor_coder, version, levels, sizes = oracle_levels(obj)
    assert (header.anchor_coder, header.version) == (anchor_coder, version)
    assert len(header.levels) == len(levels)
    for enc, want in zip(header.levels, levels):
        assert (enc.level, enc.count, enc.nbits) == (want.level, want.count, want.nbits)
        assert enc.plane_coders == want.plane_coders
        assert enc.delta_table.tobytes() == want.delta_table.tobytes()
        assert header.plane_sizes[enc.level] == sizes[enc.level]
    payload = header.anchor_size + sum(sum(planes) for planes in sizes.values())
    assert header.payload_bytes() == payload
    extents = BlockExtents(header, payload_start, payload_start + payload)
    assert extents._table == oracle_table(levels, sizes, header.anchor_size, payload_start)


@given(obj=header_objects(), payload_start=st.integers(10, 5000))
@settings(deadline=None, max_examples=120)
def test_generated_headers_parse_like_the_oracle(obj, payload_start):
    check_parse(obj, payload_start)


def test_every_golden_corpus_shard_parses_like_the_oracle():
    archives = sorted(DATA.glob("*.ipc")) + sorted(DATA.glob("*.rprc"))
    assert len(archives) == 5
    for path in archives:
        with ChunkedDataset(path) as dataset:
            names = [shard.name for shard in dataset.shards]
            for pinned, source in zip(
                dataset._engine.pin(names), dataset._engine.open_sources(names)
            ):
                prefix = source.read_range(0, pinned.header_bytes)
                check_parse(json.loads(zlib.decompress(prefix[10:])), pinned.header_bytes)
