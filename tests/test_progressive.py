"""Tests of Algorithm 1/2 progressive retrieval (the heart of the paper)."""

from __future__ import annotations

import json
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from repro import IPComp, ProgressiveRetriever
from repro.coders import get_backend
from repro.core.stream import CompressedStore, IPCompStream
from repro.errors import ConfigurationError, StreamFormatError


@pytest.fixture(scope="module")
def compressed_pair():
    rng = np.random.default_rng(1234)
    data = np.cumsum(np.cumsum(rng.normal(size=(30, 28, 26)), axis=0), axis=1)
    data += 5.0 * np.sin(np.linspace(0, 12, data.size)).reshape(data.shape)
    comp = IPComp(error_bound=1e-5, relative=True)
    blob = comp.compress(data)
    return data, comp, blob


def test_full_retrieval_error_within_compression_bound(compressed_pair):
    data, comp, blob = compressed_pair
    eb = comp.absolute_bound(data)
    restored = comp.decompress(blob)
    assert np.abs(data - restored).max() <= eb * (1 + 1e-12)
    assert restored.dtype == data.dtype
    assert restored.shape == data.shape


@pytest.mark.parametrize("multiplier", [1, 2, 16, 128, 1024, 8192])
def test_error_bound_requests_are_honoured(compressed_pair, multiplier):
    data, comp, blob = compressed_pair
    eb = comp.absolute_bound(data)
    target = eb * multiplier
    result = ProgressiveRetriever(blob).retrieve(error_bound=target)
    assert np.abs(data - result.data).max() <= target * (1 + 1e-12)
    assert result.error_bound <= target * (1 + 1e-12)


def test_coarser_requests_load_fewer_bytes(compressed_pair):
    data, comp, blob = compressed_pair
    eb = comp.absolute_bound(data)
    fine = ProgressiveRetriever(blob).retrieve(error_bound=eb)
    coarse = ProgressiveRetriever(blob).retrieve(error_bound=eb * 4096)
    assert coarse.bytes_loaded < fine.bytes_loaded


def test_incremental_refinement_matches_from_scratch(compressed_pair):
    data, comp, blob = compressed_pair
    eb = comp.absolute_bound(data)
    stepwise = ProgressiveRetriever(blob)
    for multiplier in (4096, 512, 64, 8, 1):
        refined = stepwise.retrieve(error_bound=eb * multiplier)
        # Every rung is the bytes of a fresh retriever at the resident planes.
        fresh = ProgressiveRetriever(blob)
        direct = fresh.retrieve(plan=fresh.loader._make_plan(stepwise.current_keep))
        assert refined.data.tobytes() == direct.data.tobytes()
        assert refined.error_bound == direct.error_bound
    direct = ProgressiveRetriever(blob).retrieve(error_bound=eb)
    assert refined.data.tobytes() == direct.data.tobytes()


def test_refinement_never_reloads_blocks(compressed_pair):
    data, comp, blob = compressed_pair
    eb = comp.absolute_bound(data)
    retriever = ProgressiveRetriever(blob)
    first = retriever.retrieve(error_bound=eb * 1024)
    second = retriever.retrieve(error_bound=eb)
    total_incremental = first.bytes_loaded + second.bytes_loaded
    one_shot = ProgressiveRetriever(blob).retrieve(error_bound=eb)
    # Incremental refinement touches (almost) the same total volume as a
    # single fine retrieval: nothing is read twice.
    assert total_incremental <= one_shot.bytes_loaded * 1.02 + 1024


def test_coarsening_request_is_free(compressed_pair):
    data, comp, blob = compressed_pair
    eb = comp.absolute_bound(data)
    retriever = ProgressiveRetriever(blob)
    fine = retriever.retrieve(error_bound=eb)
    coarse = retriever.retrieve(error_bound=eb * 10000)
    assert coarse.bytes_loaded == 0
    assert np.array_equal(coarse.data, fine.data)


def test_bitrate_requests_respect_budget(compressed_pair):
    data, comp, blob = compressed_pair
    for bitrate in (0.5, 1.0, 2.0, 4.0):
        result = ProgressiveRetriever(blob).retrieve(bitrate=bitrate)
        assert result.bytes_loaded * 8.0 / data.size <= bitrate * (1 + 1e-9)


def test_higher_bitrate_budgets_reduce_error(compressed_pair):
    data, comp, blob = compressed_pair
    errors = []
    for bitrate in (0.5, 1.0, 2.0, 4.0):
        result = ProgressiveRetriever(blob).retrieve(bitrate=bitrate)
        errors.append(np.abs(data - result.data).max())
    assert errors[-1] < errors[0]


def test_byte_budget_requests(compressed_pair):
    data, comp, blob = compressed_pair
    retriever = ProgressiveRetriever(blob)
    budget = len(blob) // 3
    result = retriever.retrieve(byte_budget=budget)
    assert result.bytes_loaded <= budget


def test_result_reports_bitrates(compressed_pair):
    data, comp, blob = compressed_pair
    result = ProgressiveRetriever(blob).retrieve(bitrate=2.0)
    assert result.bitrate() == pytest.approx(8.0 * result.bytes_loaded / data.size)
    assert result.cumulative_bitrate() >= result.bitrate() - 1e-12


def test_current_state_accessors(compressed_pair):
    data, comp, blob = compressed_pair
    retriever = ProgressiveRetriever(blob)
    retriever.retrieve(bitrate=1.0)
    assert set(retriever.current_keep) == {
        enc.level for enc in retriever.header.levels
    }


def test_exactly_one_request_kind_required(compressed_pair):
    _, _, blob = compressed_pair
    retriever = ProgressiveRetriever(blob)
    with pytest.raises(ConfigurationError):
        retriever.retrieve()
    with pytest.raises(ConfigurationError):
        retriever.retrieve(error_bound=1.0, bitrate=2.0)


def test_linear_method_progressive_roundtrip():
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.normal(size=(40, 30)), axis=0)
    comp = IPComp(error_bound=1e-4, relative=True, method="linear")
    blob = comp.compress(data)
    eb = comp.absolute_bound(data)
    result = ProgressiveRetriever(blob).retrieve(error_bound=eb * 32)
    assert np.abs(data - result.data).max() <= eb * 32 * (1 + 1e-12)


# ------------------------------------------------------------ hostile blocks


@pytest.fixture(scope="module")
def deflate_bomb():
    """65 KB of deflate that inflates to 64 MiB of zeros."""
    return zlib.compress(bytes(64 << 20), 9)


def _hostile_stream(blob, where, block):
    """``blob`` with its anchor block, or the last plane a full retrieval
    loads of level 1, replaced by ``block`` and labelled ``zlib``
    (``block=None``: the deflated original with two bytes flipped)."""
    header, _ = IPCompStream.parse_header(blob)
    store = CompressedStore(blob)
    anchor = store.read_anchor()
    for enc in header.levels:
        enc.plane_blocks = [
            store.read_block(enc.level, plane) for plane in range(len(enc.plane_coders))
        ]
    full = ProgressiveRetriever(blob)
    full.retrieve(error_bound=header.error_bound)
    victim, plane = header.level(1), full.current_keep[1] - 1
    if block is None:
        original = anchor if where == "anchor" else victim.plane_blocks[plane]
        coder = header.anchor_coder if where == "anchor" else victim.plane_coders[plane]
        block = bytearray(zlib.compress(get_backend(coder).decode(original)))
        block[len(block) // 2] ^= 0x5A
        block[len(block) // 2 + 1] ^= 0x5A
        block = bytes(block)
    if where == "anchor":
        anchor, header.anchor_coder, header.anchor_size = block, "zlib", len(block)
    else:
        victim.plane_blocks[plane], victim.plane_coders[plane] = block, "zlib"
    return IPCompStream.serialize(header, anchor, header.levels), plane


@pytest.mark.parametrize(
    "where, route",
    [("plane", "retrieve"), ("plane", "refine"), ("anchor", "retrieve")],
)
@pytest.mark.parametrize("attack", ["corrupt", "bomb"])
def test_hostile_block_is_a_stream_format_error(compressed_pair, deflate_bomb, attack, where, route):
    """A corrupt or over-long deflate block read from a stream raises
    ``StreamFormatError`` naming the block — never a bare ``zlib.error`` —
    through Algorithm 1 and Algorithm 2 alike, and is never inflated past
    the row (or anchor) size the reader expects."""
    _, _, blob = compressed_pair
    hostile, plane = _hostile_stream(blob, where, deflate_bomb if attack == "bomb" else None)
    retriever = ProgressiveRetriever(hostile)
    eb = retriever.header.error_bound
    if route == "refine":  # Algorithm 2 meets the block on the second request
        retriever.retrieve(error_bound=eb * 4096)
        assert retriever.current_keep[1] <= plane
    named = "anchor block" if where == "anchor" else f"level 1 plane {plane}"
    tracemalloc.start()
    started = time.perf_counter()
    try:
        if attack == "bomb" and where == "plane":
            # The bomb's first bytes are a well-formed row of zeros: what a
            # longer block holds past the row is ignored, unread.
            retriever.retrieve(error_bound=eb)
        else:
            with pytest.raises(StreamFormatError, match=named):
                retriever.retrieve(error_bound=eb)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    # The whole field is 175 KB and the bomb 65 KB; inflating it is 64 MiB.
    assert peak < 4 << 20


def test_an_empty_block_read_alone_is_a_stream_format_error(compressed_pair):
    """A header may list an empty plane block (no writer emits one).  Planned
    on its own it makes no fetch op at all, and the retriever still raises
    instead of answering at the coarser resident selection."""
    _, _, blob = compressed_pair
    hostile, plane = _hostile_stream(blob, "plane", b"")
    retriever = ProgressiveRetriever(hostile)
    full = {enc.level: enc.nbits for enc in retriever.header.levels}
    assert full[1] == plane + 1
    retriever.retrieve(plan=retriever.loader._make_plan({**full, 1: plane}))
    with pytest.raises(StreamFormatError, match=f"level 1 plane {plane}"):
        retriever.retrieve(plan=retriever.loader._make_plan(full))
    assert retriever.current_keep[1] == plane


def _level_1(obj: dict) -> dict:
    return next(item for item in obj["levels"] if item["level"] == 1)


def _negative_size(obj: dict) -> None:
    """Level 1's first two plane sizes as ``[s0 + s1 + 5, −5]``: the total,
    and with it the stream-size check, is unchanged."""
    sizes = _level_1(obj)["plane_sizes"]
    sizes[:2] = [sizes[0] + sizes[1] + 5, -5]


#: One field of the stream's JSON header rewritten: each contradicts the
#: geometry the header's own ``(shape, method)`` implies, or no stream can
#: hold it.
_HOSTILE_HEADERS = {
    "count-huge": lambda obj: _level_1(obj).update(count=1 << 62),
    "count-negative": lambda obj: _level_1(obj).update(count=-8),
    "nbits-huge": lambda obj: _level_1(obj).update(nbits=1 << 70),
    "count-minus-5": lambda obj: _level_1(obj).update(count=-5),
    "count-times-4": lambda obj: _level_1(obj).update(count=4 * _level_1(obj)["count"]),
    "level-renumbered": lambda obj: _level_1(obj).update(level=999),
    "level-dropped": lambda obj: obj["levels"].remove(_level_1(obj)),
    "delta-short": lambda obj: _level_1(obj)["delta_table"].pop(),
    "delta-empty": lambda obj: _level_1(obj).update(delta_table=[]),
    "delta-negative": lambda obj: _level_1(obj)["delta_table"].__setitem__(0, -1.0),
    "delta-nan": lambda obj: _level_1(obj)["delta_table"].__setitem__(0, float("nan")),
    "shape-doubled": lambda obj: obj.update(shape=[2 * n for n in obj["shape"]]),
    "dtype-complex999": lambda obj: obj.update(dtype="complex999"),
    "size-negative": _negative_size,
}


@pytest.mark.parametrize(
    "rewrite", list(_HOSTILE_HEADERS.values()), ids=list(_HOSTILE_HEADERS)
)
def test_hostile_level_geometry_is_a_stream_format_error(compressed_pair, rewrite):
    """A header that contradicts its own geometry — levels that are not the
    predictor's sweeps, counts that are not their sizes, a loss table of
    the wrong length or with non-finite entries, a shape the payload does
    not hold, a dtype that is not floating — is stream corruption, caught
    when the header is parsed: before any payload read, so planning sees it
    too, and never as a decode at many times the stored bound."""
    _, _, blob = compressed_pair
    _, payload_start = IPCompStream.parse_header(blob)
    obj = json.loads(zlib.decompress(blob[10:payload_start]))
    rewrite(obj)
    header_json = zlib.compress(json.dumps(obj).encode(), 9)
    prefix = blob[:6] + struct.pack("<I", len(header_json)) + header_json
    with pytest.raises(StreamFormatError, match="stream header invalid"):
        IPCompStream.parse_header(prefix)  # the header alone, no payload
    with pytest.raises(StreamFormatError, match="stream header invalid"):
        ProgressiveRetriever(prefix + blob[payload_start:])
