"""Tests of the block container file format, including corruption handling.

Every malformed container — truncated footer, bad magic, duplicate or
overlapping directory entries, extents past end-of-file — must surface as
:class:`~repro.errors.StreamFormatError`, never as a bare ``struct`` or
``json`` exception.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro import IPComp, ProgressiveRetriever
from repro.errors import StreamFormatError
from repro.io import BlockContainerReader, BlockContainerWriter, is_container
from repro.io.container import MAGIC


def _container_with_footer(path, payload: bytes, footer_obj) -> None:
    """Write a container with a hand-crafted (possibly malicious) footer."""
    footer = json.dumps(footer_obj, separators=(",", ":")).encode()
    path.write_bytes(payload + footer + struct.pack("<Q", len(footer)) + MAGIC)


def test_roundtrip_named_blocks(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("alpha", b"first block", {"kind": "test"})
        writer.add_block("beta", b"\x00" * 1000)
    with BlockContainerReader(path) as reader:
        assert set(reader.block_names()) == {"alpha", "beta"}
        assert reader.read_block("alpha") == b"first block"
        assert reader.read_block("beta") == b"\x00" * 1000
        assert reader.metadata("alpha") == {"kind": "test"}
        assert reader.block_size("beta") == 1000


def test_bytes_read_accounting(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("a", b"x" * 100)
        writer.add_block("b", b"y" * 900)
    with BlockContainerReader(path) as reader:
        reader.read_block("a")
        assert reader.bytes_read == 100


def test_duplicate_names_rejected(tmp_path):
    writer = BlockContainerWriter(tmp_path / "store.rprc")
    writer.add_block("a", b"1")
    with pytest.raises(StreamFormatError):
        writer.add_block("a", b"2")
    writer.close()


def test_missing_block_rejected(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("a", b"1")
    with BlockContainerReader(path) as reader:
        with pytest.raises(StreamFormatError):
            reader.read_block("nope")


def test_not_a_container_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"clearly not a container file")
    with pytest.raises(StreamFormatError):
        BlockContainerReader(path)


def test_write_after_close_rejected(tmp_path):
    writer = BlockContainerWriter(tmp_path / "store.rprc")
    writer.close()
    with pytest.raises(StreamFormatError):
        writer.add_block("late", b"data")


def test_range_reads_within_a_block(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("head", b"0123456789")
        writer.add_block("tail", bytes(range(50)))
    with BlockContainerReader(path) as reader:
        assert reader.read_range("tail", 0, 5) == bytes(range(5))
        assert reader.read_range("tail", 10, 4) == bytes(range(10, 14))
        assert reader.read_range("head", 9, 1) == b"9"
        assert reader.read_range("head", 3, 0) == b""
        assert reader.bytes_read == 5 + 4 + 1


def test_range_read_past_block_end_rejected(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("a", b"0123456789")
    with BlockContainerReader(path) as reader:
        with pytest.raises(StreamFormatError):
            reader.read_range("a", 8, 4)
        with pytest.raises(StreamFormatError):
            reader.read_range("a", -1, 2)
        with pytest.raises(StreamFormatError):
            reader.read_range("a", 0, -3)
        with pytest.raises(StreamFormatError):
            reader.read_range("nope", 0, 1)


def test_read_after_close_rejected(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("a", b"payload")
    reader = BlockContainerReader(path)
    reader.close()
    with pytest.raises(StreamFormatError):
        reader.read_block("a")


def test_truncated_footer_rejected(tmp_path):
    """A footer length word larger than the file must not crash the parser."""
    path = tmp_path / "trunc.rprc"
    path.write_bytes(b"xx" + struct.pack("<Q", 1 << 40) + MAGIC)
    with pytest.raises(StreamFormatError):
        BlockContainerReader(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "magic.rprc"
    footer = json.dumps({"blocks": []}).encode()
    path.write_bytes(footer + struct.pack("<Q", len(footer)) + b"NOPE")
    with pytest.raises(StreamFormatError):
        BlockContainerReader(path)


def test_garbage_footer_json_rejected(tmp_path):
    path = tmp_path / "garbage.rprc"
    footer = b"\xffnot json at all"
    path.write_bytes(footer + struct.pack("<Q", len(footer)) + MAGIC)
    with pytest.raises(StreamFormatError):
        BlockContainerReader(path)


def test_footer_without_blocks_key_rejected(tmp_path):
    _container_with_footer(tmp_path / "nokey.rprc", b"", {"not-blocks": []})
    with pytest.raises(StreamFormatError):
        BlockContainerReader(tmp_path / "nokey.rprc")


def test_duplicate_footer_names_rejected(tmp_path):
    entries = [
        {"name": "a", "offset": 0, "size": 4, "metadata": {}},
        {"name": "a", "offset": 4, "size": 4, "metadata": {}},
    ]
    _container_with_footer(tmp_path / "dup.rprc", b"01234567", {"blocks": entries})
    with pytest.raises(StreamFormatError, match="duplicate"):
        BlockContainerReader(tmp_path / "dup.rprc")


def test_overlapping_extents_rejected(tmp_path):
    entries = [
        {"name": "a", "offset": 0, "size": 6, "metadata": {}},
        {"name": "b", "offset": 4, "size": 4, "metadata": {}},
    ]
    _container_with_footer(tmp_path / "overlap.rprc", b"01234567", {"blocks": entries})
    with pytest.raises(StreamFormatError, match="overlap"):
        BlockContainerReader(tmp_path / "overlap.rprc")


def test_extent_past_eof_rejected(tmp_path):
    """A directory entry pointing past the payload region must be refused."""
    entries = [{"name": "a", "offset": 0, "size": 999, "metadata": {}}]
    _container_with_footer(tmp_path / "eof.rprc", b"0123", {"blocks": entries})
    with pytest.raises(StreamFormatError):
        BlockContainerReader(tmp_path / "eof.rprc")
    entries = [{"name": "a", "offset": -2, "size": 2, "metadata": {}}]
    _container_with_footer(tmp_path / "neg.rprc", b"0123", {"blocks": entries})
    with pytest.raises(StreamFormatError):
        BlockContainerReader(tmp_path / "neg.rprc")


def test_footer_entry_without_metadata_tolerated(tmp_path):
    """Missing metadata defaults to {}; a non-object metadata is refused."""
    entries = [{"name": "a", "offset": 0, "size": 4}]
    _container_with_footer(tmp_path / "nometa.rprc", b"0123", {"blocks": entries})
    with BlockContainerReader(tmp_path / "nometa.rprc") as reader:
        assert reader.metadata("a") == {}
        assert reader.read_block("a") == b"0123"
    entries = [{"name": "a", "offset": 0, "size": 4, "metadata": "oops"}]
    _container_with_footer(tmp_path / "badmeta.rprc", b"0123", {"blocks": entries})
    with pytest.raises(StreamFormatError):
        BlockContainerReader(tmp_path / "badmeta.rprc")


def test_malformed_directory_entry_rejected(tmp_path):
    _container_with_footer(
        tmp_path / "entry.rprc", b"0123", {"blocks": [{"offset": 0, "size": 4}]}
    )
    with pytest.raises(StreamFormatError):
        BlockContainerReader(tmp_path / "entry.rprc")
    _container_with_footer(
        tmp_path / "types.rprc",
        b"0123",
        {"blocks": [{"name": "a", "offset": "zero", "size": 4, "metadata": {}}]},
    )
    with pytest.raises(StreamFormatError):
        BlockContainerReader(tmp_path / "types.rprc")


def test_is_container_sniff(tmp_path):
    path = tmp_path / "store.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("a", b"data")
    assert is_container(path)
    other = tmp_path / "other.bin"
    other.write_bytes(b"tiny")
    assert not is_container(other)
    assert not is_container(tmp_path / "does-not-exist")


def test_block_source_serves_compressed_store(tmp_path, smooth_3d):
    """A retriever over a BlockSource reads only planned ranges off disk."""
    blob = IPComp(error_bound=1e-5, relative=True).compress(smooth_3d)
    path = tmp_path / "field.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("stream", blob)
    with BlockContainerReader(path) as reader:
        source = reader.source("stream")
        assert source.size == len(blob)
        retriever = ProgressiveRetriever(source)
        eb = retriever.header.error_bound
        result = retriever.retrieve(error_bound=eb * 256)
        assert result.data.shape == smooth_3d.shape
        # Partial retrieval must leave most of the stream untouched...
        assert 0 < reader.bytes_read < len(blob)
        # ...and refinement to full precision touches only the remainder,
        # never re-reading a range.
        ranges = list(retriever.store.trace)
        retriever.retrieve(error_bound=eb)
        new_ranges = retriever.store.trace[len(ranges):]
        assert new_ranges and not set(ranges) & set(new_ranges)
        assert reader.bytes_read <= len(blob)


def test_partial_read_of_compressed_stream_saves_io(tmp_path, smooth_3d):
    """End-to-end: store an IPComp stream per level-group and read selectively."""
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(smooth_3d)
    path = tmp_path / "field.rprc"
    with BlockContainerWriter(path) as writer:
        writer.add_block("ipcomp-stream", blob, {"shape": list(smooth_3d.shape)})
        writer.add_block("provenance", b"synthetic smooth field")
    with BlockContainerReader(path) as reader:
        restored_blob = reader.read_block("ipcomp-stream")
        assert reader.bytes_read == len(blob)
    result = ProgressiveRetriever(restored_blob).retrieve(bitrate=2.0)
    assert result.data.shape == smooth_3d.shape
