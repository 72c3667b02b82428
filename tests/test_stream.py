"""Unit tests of the IPComp stream format and the block-addressable store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictive_coder import PredictiveCoder
from repro.core.profile import CodecProfile
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import CompressedStore, IPCompStream, StreamHeader
from repro.errors import StreamFormatError


@pytest.fixture
def sample_stream(rng):
    quantizer = LinearQuantizer(0.05)
    coder = PredictiveCoder(quantizer, CodecProfile())
    # A header must describe its predictor's geometry: shape (4,) is one
    # anchor and two sweeps, unit 2 of one point and unit 1 of two.  (The
    # draws keep their old sizes: ``rng`` is shared by later modules.)
    anchor_codes = rng.integers(-40, 40, size=8)[:1]
    anchor_block = coder.encode_anchor(anchor_codes)
    encodings = [
        coder.encode_level(2, rng.integers(-30, 30, size=100)[:1]),
        coder.encode_level(1, rng.integers(-10, 10, size=300)[:2]),
    ]
    header = StreamHeader(
        shape=(4,),
        dtype="float64",
        error_bound=0.05,
        method="cubic",
        prefix_bits=2,
        anchor_coder="zlib",
        anchor_count=1,
        anchor_size=len(anchor_block),
        levels=encodings,
    )
    blob = IPCompStream.serialize(header, anchor_block, encodings)
    return blob, header, anchor_block, encodings


def test_header_roundtrip(sample_stream):
    blob, header, _, encodings = sample_stream
    parsed, offset = IPCompStream.parse_header(blob)
    assert parsed.shape == header.shape
    assert parsed.error_bound == header.error_bound
    assert parsed.anchor_coder == "zlib"
    assert parsed.version == 2
    assert parsed.num_levels == 2
    assert offset > 10
    for original, decoded in zip(
        sorted(encodings, key=lambda e: e.level),
        sorted(parsed.levels, key=lambda e: e.level),
    ):
        assert decoded.count == original.count
        assert decoded.nbits == original.nbits
        assert parsed.plane_sizes[decoded.level] == original.plane_sizes
        # Header deltas are rounded *up* (never down) to 5 significant digits.
        assert np.all(decoded.delta_table >= original.delta_table - 1e-15)
        assert np.allclose(decoded.delta_table, original.delta_table, rtol=5e-4)


def test_store_reads_blocks_exactly(sample_stream):
    blob, _, anchor_block, encodings = sample_stream
    store = CompressedStore(blob)
    assert store.read_anchor() == anchor_block
    for enc in encodings:
        for plane, block in enumerate(enc.plane_blocks):
            assert store.read_block(enc.level, plane) == block


def test_store_accounts_bytes(sample_stream):
    blob, _, anchor_block, encodings = sample_stream
    store = CompressedStore(blob)
    store.read_anchor()
    store.read_block(2, 0)
    expected = len(anchor_block) + encodings[0].plane_sizes[0]
    assert store.bytes_read == expected
    store.reset_accounting()
    assert store.bytes_read == 0


def test_store_total_and_overhead(sample_stream):
    blob, _, anchor_block, _ = sample_stream
    store = CompressedStore(blob)
    assert store.total_bytes == len(blob)
    assert store.overhead_bytes == store.header_bytes + len(anchor_block)


def test_missing_block_rejected(sample_stream):
    store = CompressedStore(sample_stream[0])
    with pytest.raises(StreamFormatError):
        store.read_block(9, 0)


def test_bad_magic_rejected(sample_stream):
    blob = b"XXXX" + sample_stream[0][4:]
    with pytest.raises(StreamFormatError):
        IPCompStream.parse_header(blob)


def test_truncated_stream_rejected(sample_stream):
    blob = sample_stream[0]
    with pytest.raises(StreamFormatError):
        CompressedStore(blob[: len(blob) // 2])


def test_header_level_lookup(sample_stream):
    _, header, _, _ = sample_stream
    assert header.level(1).level == 1
    with pytest.raises(StreamFormatError):
        header.level(7)


def test_payload_bytes(sample_stream):
    _, header, anchor_block, encodings = sample_stream
    expected = len(anchor_block) + sum(e.total_bytes for e in encodings)
    assert header.payload_bytes() == expected
