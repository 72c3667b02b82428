"""Tests of the backend registry, the DEFLATE wrapper, and the entropy helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IPComp, ProgressiveRetriever
from repro.coders import available_backends, backend as backend_table, get_backend
from repro.coders.entropy import bit_entropy, byte_entropy, shannon_entropy
from repro.coders.zlib_backend import ZlibCoder
from repro.datasets import load_dataset
from repro.errors import ConfigurationError, StreamFormatError


def test_default_backends_registered():
    names = available_backends()
    for expected in ("zlib", "raw"):
        assert expected in names
    for removed in ("huffman", "rle", "lz77"):
        assert removed not in names


@pytest.mark.parametrize("name", ["zlib", "raw"])
def test_every_backend_roundtrips(name):
    backend = get_backend(name)
    data = b"progressive compression " * 64 + bytes(range(256))
    assert backend.decode(backend.encode(data)) == data


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        get_backend("zstd-but-not-really")


def test_register_custom_backend(monkeypatch):
    """The table is closed; a test that needs an instrumented coder patches it."""

    class Reverser:
        name = "reverse"

        def encode(self, data: bytes) -> bytes:
            return data[::-1]

        def decode(self, data: bytes) -> bytes:
            return data[::-1]

    monkeypatch.setitem(backend_table._REGISTRY, "reverse", Reverser)
    backend = get_backend("reverse")
    assert backend.decode(backend.encode(b"abc")) == b"abc"
    assert "reverse" in available_backends()


def test_zlib_compresses_redundant_data():
    coder = ZlibCoder()
    data = b"\x00" * 4096
    assert len(coder.encode(data)) < 64


@pytest.fixture(scope="module")
def deflated_plane():
    """A written stream's retriever and its largest deflated plane block."""
    blob = IPComp(error_bound=1e-4).compress(load_dataset("density", shape=(24, 28, 32)))
    retriever = ProgressiveRetriever(blob)
    enc, plane = max(
        (
            (enc, plane)
            for enc in retriever.header.levels
            for plane, name in enumerate(enc.plane_coders)
            if name == ZlibCoder.name
        ),
        key=lambda pair: retriever.store.block_extent(pair[0].level, pair[1])[1],
    )
    return retriever, enc, plane, retriever.store.read_block(enc.level, plane)


@pytest.mark.parametrize("from_end", [1, 2, 3, 4])
def test_flipped_adler32_is_a_stream_format_error(deflated_plane, from_end):
    """A deflated plane's last 4 bytes are its Adler-32: flipping any of them
    is caught by the bounded inflate at the row size, one byte over it and
    unbounded, and ``decode_row`` names the level and plane.  (A stored
    plane has no check.)"""
    retriever, enc, plane, block = deflated_plane
    row_bytes = (enc.count + 7) // 8
    assert len(retriever.coder.decode_row(enc, plane, block)) == row_bytes
    flipped = bytearray(block)
    flipped[-from_end] ^= 0xFF
    flipped = bytes(flipped)
    for max_length in (row_bytes, row_bytes + 1, None):
        with pytest.raises(StreamFormatError, match="incorrect data check"):
            ZlibCoder().decode(flipped, max_length)
    with pytest.raises(StreamFormatError, match=f"level {enc.level} plane {plane}: "):
        retriever.coder.decode_row(enc, plane, flipped)


def test_shannon_entropy_uniform():
    symbols = np.arange(256)
    assert shannon_entropy(symbols) == pytest.approx(8.0)


def test_shannon_entropy_constant_is_zero():
    assert shannon_entropy(np.zeros(100, dtype=int)) == 0.0


def test_bit_entropy_bounds():
    assert bit_entropy(np.array([0, 1, 0, 1])) == pytest.approx(1.0)
    assert bit_entropy(np.zeros(10, dtype=np.uint8)) == 0.0
    fair = bit_entropy(np.array([0, 0, 0, 1]))
    assert 0.0 < fair < 1.0


def test_byte_entropy_empty():
    assert byte_entropy(b"") == 0.0
