"""Tests of the backend registry, the DEFLATE wrapper, and the entropy helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coders import available_backends, backend as backend_table, get_backend
from repro.coders.entropy import bit_entropy, byte_entropy, shannon_entropy
from repro.coders.zlib_backend import ZlibCoder
from repro.errors import ConfigurationError


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


def test_zlib_level_validation():
    with pytest.raises(ValueError):
        ZlibCoder(level=11)


def test_zlib_compresses_redundant_data():
    coder = ZlibCoder()
    data = b"\x00" * 4096
    assert len(coder.encode(data)) < 64


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
