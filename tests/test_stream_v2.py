"""Stream format v2: per-plane codec dispatch + v1 backward compatibility.

The v1 fixture under ``tests/data/`` was serialized by the pre-v2 codebase
(single implicit backend, binary version word 1) and is pinned as bytes: the
v2 reader must keep decoding it byte-identically forever.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import legacy_layout

from repro import CodecProfile, IPComp, ProgressiveRetriever
from repro.baselines import compressor_names, make_compressor
from repro.coders import backend as backend_registry
from repro.core.stream import (
    VERSION,
    CompressedStore,
    IPCompStream,
    StreamHeader,
)
from repro.datasets import load_dataset
from repro.errors import StreamFormatError
from repro.io import ChunkedDataset

DATA = Path(__file__).parent / "data"

# Local generator (the session-scoped conftest ``rng`` must not be consumed
# by new modules — it would shift downstream fixtures' draws).
_rng = np.random.default_rng(41005)


@pytest.fixture(scope="module")
def v1_blob() -> bytes:
    return (DATA / "v1_stream.ipc").read_bytes()


# ------------------------------------------------------------------ v1 compat


def test_v1_fixture_really_is_version_1(v1_blob):
    assert v1_blob[:4] == b"IPC1"
    version, _ = struct.unpack_from("<HI", v1_blob, 4)
    assert version == 1


def test_v1_header_parses_and_normalises(v1_blob):
    header, _ = IPCompStream.parse_header(v1_blob)
    assert header.version == 1
    assert header.anchor_coder == "zlib"
    # Every plane of a v1 stream is implicitly coded by the single backend.
    for enc in header.levels:
        assert enc.plane_coders == ["zlib"] * len(header.plane_sizes[enc.level])
    assert header.codec_names() == ("zlib",)


def test_v1_stream_decodes_byte_identically(v1_blob):
    expected = np.load(DATA / "v1_expected.npy")
    retriever = ProgressiveRetriever(v1_blob)
    result = retriever.retrieve(error_bound=retriever.header.error_bound)
    assert result.data.dtype == expected.dtype
    assert result.data.shape == expected.shape
    assert result.data.tobytes() == expected.tobytes()


def test_v1_stream_progressive_refinement_still_works(v1_blob):
    original = np.load(DATA / "v1_input.npy")
    retriever = ProgressiveRetriever(v1_blob)
    eb = retriever.header.error_bound
    coarse = retriever.retrieve(error_bound=eb * 64)
    fine = retriever.retrieve(error_bound=eb)
    assert fine.bytes_loaded > 0
    assert np.abs(original - fine.data).max() <= eb * (1 + 1e-12)
    assert np.abs(original - coarse.data).max() <= eb * 64 * (1 + 1e-12)


def test_recompressing_v1_content_yields_v2(v1_blob):
    """New writers always emit v2, even for data that round-trips a v1 blob."""
    original = np.load(DATA / "v1_input.npy")
    blob = IPComp(error_bound=1e-5, relative=True).compress(original)
    header, _ = IPCompStream.parse_header(blob)
    assert header.version == VERSION == 2


# ------------------------------------------------------------------ v2 format


def _reheadered(blob: bytes, offset: int, obj: dict, payload: bytes = None) -> bytes:
    """``blob`` with its header JSON replaced by ``obj`` (and its payload, if given)."""
    header_json = zlib.compress(json.dumps(obj).encode(), 9)
    payload = blob[offset:] if payload is None else payload
    return blob[:6] + struct.pack("<I", len(header_json)) + header_json + payload


def _compress(profile: CodecProfile, shape=(14, 12, 10)) -> tuple:
    base = np.cumsum(_rng.normal(size=shape), axis=0)
    field = (base + np.cumsum(_rng.normal(size=shape), axis=1)).astype(np.float64)
    return field, IPComp(profile=profile).compress(field)


def test_v2_header_records_codec_per_plane():
    profile = CodecProfile(error_bound=1e-5)
    field, blob = _compress(profile)
    header, _ = IPCompStream.parse_header(blob)
    assert header.version == 2
    used = set()
    for enc in header.levels:
        sizes = header.plane_sizes[enc.level]
        assert len(enc.plane_coders) == len(sizes)
        assert set(enc.plane_coders) <= {"zlib", "raw"}
        used.update(enc.plane_coders)
    assert used, "stream must have at least one coded plane"
    # The name table only lists coders actually used (plus the anchor's).
    assert set(header.codec_names()) == used | {header.anchor_coder}


def test_v2_header_json_roundtrip_preserves_plane_coders():
    _, blob = _compress(CodecProfile(error_bound=1e-4))
    header, _ = IPCompStream.parse_header(blob)
    again = StreamHeader.from_json(json.loads(json.dumps(header.to_json())))
    assert again.anchor_coder == header.anchor_coder
    for a, b in zip(
        sorted(again.levels, key=lambda e: e.level),
        sorted(header.levels, key=lambda e: e.level),
    ):
        assert a.plane_coders == b.plane_coders
        assert again.plane_sizes[a.level] == header.plane_sizes[b.level]


class _ComplementCoder:
    """Injected test coder: every byte complemented (size-preserving)."""

    name = "complement"

    def encode(self, data: bytes) -> bytes:
        return bytes(byte ^ 0xFF for byte in data)

    def decode(self, data: bytes, max_length=None) -> bytes:
        return self.encode(data)


def test_mixed_codec_stream_decodes_with_store_dispatch(monkeypatch):
    """Every plane is decoded by the coder the header names for it."""
    monkeypatch.setitem(backend_registry._REGISTRY, "complement", _ComplementCoder)
    _, blob = _compress(CodecProfile(error_bound=1e-6))
    header, offset = IPCompStream.parse_header(blob)
    store = CompressedStore(blob)
    # Re-code every stored plane with the injected coder — same size, so the
    # block directory does not move — and rename it in the header's table.
    recoded = bytearray(blob)
    for enc in header.levels:
        for plane, name in enumerate(enc.plane_coders):
            if name == "raw":
                start, size = store.block_extent(enc.level, plane)
                recoded[start : start + size] = _ComplementCoder().encode(
                    blob[start : start + size]
                )
    obj = header.to_json()
    assert set(obj["codecs"]) == {"zlib", "raw"}, "field should exercise both outcomes"
    obj["codecs"] = ["complement" if name == "raw" else name for name in obj["codecs"]]
    mixed = _reheadered(blob, offset, obj, bytes(recoded[offset:]))
    assert mixed != blob
    assert IPComp().decompress(mixed).tobytes() == IPComp().decompress(blob).tobytes()


def test_unknown_version_rejected(v1_blob):
    bad = v1_blob[:4] + struct.pack("<H", 9) + v1_blob[6:]
    with pytest.raises(StreamFormatError, match="version"):
        IPCompStream.parse_header(bad)


def test_version_word_and_header_body_must_agree(v1_blob):
    # Relabel the v1 stream's binary word as v2 while the JSON stays v1.
    bad = v1_blob[:4] + struct.pack("<H", 2) + v1_blob[6:]
    with pytest.raises(StreamFormatError, match="version"):
        IPCompStream.parse_header(bad)


def test_malformed_v2_codec_table_rejected():
    _, blob = _compress(CodecProfile(error_bound=1e-4))
    header, offset = IPCompStream.parse_header(blob)
    obj = header.to_json()
    obj["levels"][0]["plane_codecs"] = obj["levels"][0]["plane_codecs"][:-1]
    with pytest.raises(StreamFormatError, match="plane codecs"):
        StreamHeader.from_json(obj)
    obj = header.to_json()
    obj["levels"][0]["plane_codecs"] = [99] * len(obj["levels"][0]["plane_codecs"])
    with pytest.raises(StreamFormatError):
        StreamHeader.from_json(obj)
    # Out-of-range (and negative — Python lists index from the end!) anchor
    # indices must be rejected, never resolved to the wrong coder.
    for bad_index in (99, -1):
        obj = header.to_json()
        obj["anchor_coder"] = bad_index
        with pytest.raises(StreamFormatError, match="codec index"):
            StreamHeader.from_json(obj)


def test_store_block_dispatch_counts_bytes_for_mixed_codecs():
    _, blob = _compress(CodecProfile(error_bound=1e-5))
    store = CompressedStore(blob)
    store.read_anchor()
    enc = store.header.levels[0]
    sizes = store.header.plane_sizes[enc.level]
    store.read_block(enc.level, 0)
    assert store.bytes_read == store.header.anchor_size + sizes[0]


# ------------------------------------------------------- container manifests


def test_dataset_manifest_v2_embeds_profile(tmp_path):
    field = np.cumsum(_rng.normal(size=(12, 8, 6)), axis=0)
    path = tmp_path / "field.rprc"
    manifest = ChunkedDataset.write(path, field, error_bound=1e-4, n_blocks=2)
    assert manifest["version"] == 2
    with ChunkedDataset(path) as dataset:
        assert dataset.version == 2
        assert dataset.write_profile.error_bound == pytest.approx(manifest["error_bound"])
        assert not dataset.write_profile.relative
        result = dataset.read()
        assert np.abs(result.data - field).max() <= manifest["error_bound"] * (1 + 1e-9)


def test_dataset_manifest_v1_still_opens(tmp_path):
    """A v1-era manifest (loose method/prefix_bits/backend fields) still reads."""
    from repro.io import BlockContainerReader, BlockContainerWriter

    field = np.cumsum(_rng.normal(size=(10, 6, 4)), axis=0)
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-4, n_blocks=2)

    # Rewrite the manifest block into its v1 shape, keeping the shards.
    rewritten = tmp_path / "field.v1.rprc"
    with BlockContainerReader(path) as reader:
        manifest = json.loads(reader.read_block("manifest").decode("utf-8"))
        profile = manifest.pop("profile")
        manifest["version"] = 1
        manifest["method"] = profile["method"]
        manifest["prefix_bits"] = profile["prefix_bits"]
        manifest["backend"] = "zlib"
        with BlockContainerWriter(rewritten) as writer:
            for name in reader.block_names():
                if name == "manifest":
                    writer.add_block(
                        name, json.dumps(manifest, sort_keys=True).encode()
                    )
                else:
                    writer.add_block(
                        name, reader.read_block(name), reader.metadata(name)
                    )

    with ChunkedDataset(rewritten) as dataset:
        assert dataset.version == 1
        assert dataset.write_profile.method == profile["method"]
        assert dataset.write_profile.prefix_bits == profile["prefix_bits"]
        result = dataset.read()
        assert np.abs(result.data - field).max() <= dataset.absolute_bound * (1 + 1e-9)


@pytest.mark.parametrize(
    "corruption",
    [{"prefix_bits": 7}, {"error_bound": 0.0}, {"method": "quintic"}],
    ids=["prefix_bits", "error_bound", "method"],
)
def test_out_of_range_header_fields_are_stream_errors(corruption):
    """Corrupt header fields must surface as StreamFormatError, not config."""
    _, blob = _compress(CodecProfile(error_bound=1e-4))
    header, offset = IPCompStream.parse_header(blob)
    obj = header.to_json()
    obj.update(corruption)
    with pytest.raises(StreamFormatError, match="header invalid"):
        ProgressiveRetriever(_reheadered(blob, offset, obj))


def test_unknown_plane_coder_in_stream_is_a_stream_error():
    """A header codecs table naming an unregistered coder surfaces as
    StreamFormatError at retrieval, not as a caller configuration error."""
    _, blob = _compress(CodecProfile(error_bound=1e-4))
    header, offset = IPCompStream.parse_header(blob)
    obj = header.to_json()
    # Rename a non-anchor codec to something unregistered; sizes unchanged.
    anchor_index = obj["anchor_coder"]
    victim = next(i for i in range(len(obj["codecs"])) if i != anchor_index)
    obj["codecs"][victim] = "zstd-from-the-future"
    retriever = ProgressiveRetriever(_reheadered(blob, offset, obj))
    with pytest.raises(StreamFormatError, match="unknown lossless coder"):
        retriever.retrieve(error_bound=retriever.header.error_bound)


def test_dataset_opens_when_manifest_names_unregistered_coder(tmp_path):
    """A manifest written before 5.0 carries the writer's coder fields —
    possibly naming a coder this process lacks.  The dataset still opens
    and decodes, and the write profile loads with those keys dropped."""
    from repro.io import BlockContainerReader, BlockContainerWriter

    field = np.cumsum(_rng.normal(size=(10, 6, 4)), axis=0)
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-4, n_blocks=2)
    rewritten = tmp_path / "field.alien.rprc"
    with BlockContainerReader(path) as reader:
        manifest = json.loads(reader.read_block("manifest").decode("utf-8"))
        current = dict(manifest["profile"])
        manifest["profile"].update(
            anchor_coder="zlib",
            plane_coders=["zlib", "raw", "zstd-from-the-future"],
            negotiation="sampled",
            negotiation_sample=65536,
        )
        with BlockContainerWriter(rewritten) as writer:
            for name in reader.block_names():
                data = (
                    json.dumps(manifest).encode()
                    if name == "manifest"
                    else reader.read_block(name)
                )
                writer.add_block(name, data, reader.metadata(name))

    with ChunkedDataset(rewritten) as dataset:
        result = dataset.read()
        assert np.abs(result.data - field).max() <= dataset.absolute_bound * (1 + 1e-9)
        assert dataset.write_profile == CodecProfile.from_json(current)


def test_unsupported_manifest_version_rejected(tmp_path):
    from repro.io import BlockContainerReader, BlockContainerWriter

    field = np.cumsum(_rng.normal(size=(8, 4)), axis=0)
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-3, n_blocks=1)
    rewritten = tmp_path / "field.v9.rprc"
    with BlockContainerReader(path) as reader:
        manifest = json.loads(reader.read_block("manifest").decode("utf-8"))
        manifest["version"] = 9
        with BlockContainerWriter(rewritten) as writer:
            for name in reader.block_names():
                data = (
                    json.dumps(manifest).encode()
                    if name == "manifest"
                    else reader.read_block(name)
                )
                writer.add_block(name, data, reader.metadata(name))
    with pytest.raises(StreamFormatError, match="version"):
        ChunkedDataset(rewritten)


# --------------------------------------------------- pinned default-profile bytes

#: CRC32 of what the default profile wrote for :func:`_pinned_field` at commit
#: ae866cc (PR 14), i.e. before the encoder's δ table moved to
#: ``truncation_errors``.  The δ tables travel in the header, so these pin them
#: too.  A deliberate format change re-records the table; nothing else may.
PINNED_V2_CRC32 = {
    "linear/0": 0x61D10D28,
    "linear/1": 0xE9DBE3B4,
    "linear/2": 0x265697DA,
    "linear/3": 0x0652E5A6,
    "cubic/0": 0xEB459E10,
    "cubic/1": 0x9A1FA61D,
    "cubic/2": 0x970FF871,
    "cubic/3": 0xDCD6D394,
    # Re-pinned once, at 5.0: the manifest lost its four coder keys (the
    # container's directory entry and footer moved with it), nothing else —
    # see PINNED_SHARD_CRC32 / PINNED_4X_MANIFEST_CRC32.  Was 0x62CDE18F.
    "dataset": 0x20168081,
}

#: The four shard entries and the manifest of the pinned dataset, recorded at
#: commit a3806d7 (4.0, file CRC32 0x62CDE18F) before the profile lost its
#: coder fields: the shards must still be these bytes, and putting the four
#: keys back must reproduce that manifest.
PINNED_SHARD_CRC32 = {
    "shard-0000": 0xA7123115,
    "shard-0001": 0x1FE7E3FF,
    "shard-0002": 0xD4F383A9,
    "shard-0003": 0xF03FD6DA,
}
PINNED_4X_MANIFEST_CRC32 = 0xA77B6AF6

#: CRC32 of the pinned dataset file since the ``headers`` block (a copy of
#: each shard's stream prefix) and the manifest key placing it joined the
#: container.  The change is additive: stripping both
#: (:func:`conftest.legacy_layout`) gives back the file
#: ``PINNED_V2_CRC32["dataset"]`` pins.
PINNED_HEADERS_DATASET_CRC32 = 0x489979EB
REMOVED_MANIFEST_PROFILE_KEYS = {
    "anchor_coder": "zlib",
    "plane_coders": ["zlib", "raw"],
    "negotiation": "smallest",
    "negotiation_sample": 65536,
}

# The blocks are deflate output: byte-stable across stock zlib releases, not
# across a drop-in such as zlib-ng.
_needs_stock_zlib = pytest.mark.skipif(
    "zlib-ng" in getattr(zlib, "ZLIB_RUNTIME_VERSION", ""),
    reason="pinned bytes were deflated by stock zlib",
)


def _pinned_field() -> np.ndarray:
    return load_dataset("density", shape=(18, 20, 22), seed=7)


#: CRC32 of each registered compressor's stream of :func:`_pinned_field` at
#: 1e-4 relative, and of what its ``decompress`` returns, recorded at 22.2.1.
#: Predictor refactors must leave every baseline's bytes as they are.
PINNED_BASELINE_CRC32 = {
    "ipcomp": (0x970FF871, 0x1F0818BB),
    "sz3": (0xE4BB2635, 0x1F0818BB),
    "sz3-m": (0x7CFB2987, 0x1F0818BB),
    "sz3-r": (0x5089FA39, 0x2AC94380),
    "zfp": (0x3ACB02A3, 0x311F964E),
    "zfp-r": (0x1635D4A7, 0x1C83689C),
    "mgard": (0xDC026C2A, 0x397C5B28),
    "pmgard": (0x42AF6757, 0x397C5B28),
    "sperr": (0x375BFA49, 0xB769D1FF),
    "sperr-r": (0x8C959A5A, 0xE013983E),
}


def test_every_registered_compressor_is_pinned():
    assert set(compressor_names()) == set(PINNED_BASELINE_CRC32)


@_needs_stock_zlib
@pytest.mark.parametrize("name", sorted(PINNED_BASELINE_CRC32))
def test_baseline_stream_and_output_bytes_are_pinned(name):
    compressor = make_compressor(name, 1e-4)
    blob = compressor.compress(_pinned_field())
    output = compressor.decompress(blob)
    assert output.dtype == np.float64 and output.shape == (18, 20, 22)
    crcs = (zlib.crc32(blob), zlib.crc32(np.ascontiguousarray(output).tobytes()))
    assert crcs == PINNED_BASELINE_CRC32[name]


@_needs_stock_zlib
@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_default_profile_stream_bytes_are_pinned(method, prefix_bits):
    blob = IPComp(
        error_bound=1e-4, relative=True, method=method, prefix_bits=prefix_bits
    ).compress(_pinned_field())
    assert IPCompStream.parse_header(blob)[0].version == VERSION == 2
    assert zlib.crc32(blob) == PINNED_V2_CRC32[f"{method}/{prefix_bits}"]


@_needs_stock_zlib
def test_default_profile_dataset_bytes_are_pinned(tmp_path):
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(
        path, _pinned_field(), error_bound=1e-4, relative=True, n_blocks=4
    )
    assert zlib.crc32(path.read_bytes()) == PINNED_HEADERS_DATASET_CRC32
    # Without the headers block and its manifest key, the file is byte for
    # byte the one written before the block existed.
    legacy = legacy_layout(path, tmp_path / "legacy.rprc")
    assert zlib.crc32(legacy.read_bytes()) == PINNED_V2_CRC32["dataset"]
    from repro.io import BlockContainerReader

    with BlockContainerReader(path) as reader:
        blocks = {n: reader.read_block(n) for n in reader.block_names()}
    manifest = json.loads(blocks.pop("manifest"))
    copies = blocks.pop("headers")
    assert {n: zlib.crc32(b) for n, b in blocks.items()} == PINNED_SHARD_CRC32
    # The block is each shard's stream prefix, back to back in shard order.
    cursor = 0
    for name, blob in blocks.items():
        offset, length = manifest["headers"][name]
        assert (offset, length) == (cursor, IPCompStream.parse_header(blob)[1])
        assert copies[offset : offset + length] == blob[:length]
        cursor += length
    assert cursor == len(copies)
    del manifest["headers"]
    assert not REMOVED_MANIFEST_PROFILE_KEYS.keys() & manifest["profile"].keys()
    manifest["profile"].update(REMOVED_MANIFEST_PROFILE_KEYS)
    as_written_by_4x = json.dumps(manifest, separators=(",", ":"), sort_keys=True)
    assert zlib.crc32(as_written_by_4x.encode()) == PINNED_4X_MANIFEST_CRC32
