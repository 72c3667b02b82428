"""Sweep byte identity and sampled-negotiation behaviour.

The packed-domain shard sweep and the sampled negotiation policy are both
pure performance features: neither may change a single stream byte (sweep)
or may produce anything but a valid, self-describing stream (sampled).
These tests pin that contract:

* a negotiation-policy **byte-identity matrix** over synthetic fields (the
  sweep ≡ the loop oracle of ``tests/oracle_kernel.py`` under each policy);
* sampled streams decode correctly, are deterministic, and their
  header-recorded per-plane coders agree with a full re-negotiation on at
  least 90 % of synthetic planes;
* the kernel hooks (`encode_planes` / `decode_planes`) agree with the oracle
  at the API level, including the edge shapes the stream layer never
  exercises.

Every test uses a module-local rng: the conftest ``rng`` fixture is
session-scoped and shared, so drawing from it here would shift downstream
fixtures' draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle_kernel import OracleKernel
from repro.core.compressor import IPComp
from repro.core.kernels import get_kernel
from repro.core.predictive_coder import negotiate_encode
from repro.core.profile import (
    DEFAULT_NEGOTIATION_SAMPLE,
    CodecProfile,
    NEGOTIATION_POLICIES,
)
from repro.core.progressive import ProgressiveRetriever
from repro.errors import ConfigurationError

WIDE_CODERS = ("zlib", "huffman", "rle", "raw")


def _local_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(20260726 + offset)


def _field(rng: np.random.Generator, shape) -> np.ndarray:
    grids = np.meshgrid(*(np.linspace(0, 1, s) for s in shape), indexing="ij")
    smooth = sum(np.sin((3 + i) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.normal(size=shape)).astype(np.float64)


# ------------------------------------------------------------ identity matrix


@pytest.mark.parametrize("shape", [(257,), (31, 37), (14, 18, 22)])
@pytest.mark.parametrize("negotiation", ["smallest", "sampled", "fixed"])
def test_kernel_negotiation_stream_identity_matrix(oracle, shape, negotiation):
    """The sweep and the oracle emit byte-identical streams under every policy."""
    # Stable per-cell seed (str hashing is PYTHONHASHSEED-salted, so
    # hash() here would make any failure unreproducible across runs).
    rng = _local_rng(
        100 * len(shape) + NEGOTIATION_POLICIES.index(negotiation)
    )
    field = _field(rng, shape)
    profile = CodecProfile(
        error_bound=1e-4,
        relative=True,
        plane_coders=WIDE_CODERS,
        negotiation=negotiation,
        negotiation_sample=512,
    )
    stream = IPComp(profile=profile).compress(field)
    oracle()
    assert IPComp(profile=profile).compress(field) == stream


def test_the_oracle_decodes_the_sweeps_stream(oracle):
    rng = _local_rng(3)
    field = _field(rng, (12, 16, 20))
    blob = IPComp(error_bound=1e-5, relative=True).compress(field)
    eb = CodecProfile(error_bound=1e-5, relative=True).absolute_bound(field)
    retriever = ProgressiveRetriever(blob)
    out = retriever.retrieve(error_bound=retriever.header.error_bound).data
    assert np.abs(out - field).max() <= eb * (1 + 1e-9)
    oracle()
    retriever = ProgressiveRetriever(blob)
    again = retriever.retrieve(error_bound=retriever.header.error_bound).data
    assert again.tobytes() == out.tobytes()


def test_encode_planes_hook_parity_across_kernels():
    rng = _local_rng(5)
    kernels = [get_kernel(), OracleKernel()]
    for n in (0, 1, 7, 64, 65, 1000):
        for spread in (1, 900, 2**40):
            codes = rng.integers(-spread, spread + 1, size=n, dtype=np.int64)
            for prefix_bits in range(4):
                outs = [k.encode_planes([codes], prefix_bits) for k in kernels]
                for other in outs[1:]:
                    assert other == outs[0], (n, spread, prefix_bits)
                [(nbits, blocks)] = outs[0]
                for keep in {0, 1, nbits // 2, nbits}:
                    decoded = [
                        k.decode_planes([(blocks[:keep], n, nbits)], prefix_bits)[0]
                        for k in kernels
                    ]
                    for other in decoded[1:]:
                        assert np.array_equal(decoded[0], other)
                    if keep == nbits:
                        assert np.array_equal(decoded[0], codes)


def test_fused_arena_reuse_does_not_leak_between_levels():
    """Back-to-back levels of different sizes must not corrupt each other."""
    sweep = get_kernel()
    reference = OracleKernel()
    rng = _local_rng(8)
    previous = None
    for n in (4096, 17, 900, 4096, 1):
        codes = rng.integers(-(2**20), 2**20, size=n, dtype=np.int64)
        assert sweep.encode_planes([codes], 2) == reference.encode_planes([codes], 2)
        if previous is not None:
            # Re-encoding the previous level still matches (scratch reuse
            # cannot have retained stale content in the observable output).
            assert sweep.encode_planes([previous], 2) == reference.encode_planes(
                [previous], 2
            )
        previous = codes


# -------------------------------------------------------- sampled negotiation


def test_sampled_policy_is_valid_and_full_is_an_alias():
    assert "sampled" in NEGOTIATION_POLICIES
    assert CodecProfile(negotiation="full").negotiation == "smallest"
    assert CodecProfile(negotiation="sampled").negotiation_sample == (
        DEFAULT_NEGOTIATION_SAMPLE
    )
    with pytest.raises(ConfigurationError):
        CodecProfile(negotiation="sampled", negotiation_sample=0)
    with pytest.raises(ConfigurationError):
        CodecProfile(negotiation_sample="64k")


def test_sampled_profile_json_roundtrip():
    profile = CodecProfile(
        plane_coders=WIDE_CODERS, negotiation="sampled", negotiation_sample=2048
    )
    assert CodecProfile.from_json(profile.to_json()) == profile


def test_negotiate_encode_sampled_semantics():
    rng = _local_rng(11)
    # Compressible payload much larger than the sample: zlib must win on
    # the prefix and the returned blob must be the *full* encode.
    payload = (rng.integers(0, 4, size=65536, dtype=np.uint8) // 3).tobytes()
    name, blob = negotiate_encode(
        payload, ("zlib", "raw"), policy="sampled", sample=1024
    )
    assert name == "zlib"
    from repro.coders.backend import get_backend

    assert blob == get_backend("zlib").encode(payload)
    # Payload within the sample: identical to full negotiation.
    short = payload[:512]
    assert negotiate_encode(short, WIDE_CODERS, policy="sampled", sample=1024) == (
        negotiate_encode(short, WIDE_CODERS, policy="smallest")
    )


def test_sampled_stream_decodes_and_is_deterministic():
    rng = _local_rng(13)
    field = _field(rng, (20, 24, 28))
    profile = CodecProfile(
        error_bound=1e-5,
        relative=True,
        plane_coders=WIDE_CODERS,
        negotiation="sampled",
        negotiation_sample=512,
    )
    comp = IPComp(profile=profile)
    blob = comp.compress(field)
    assert blob == comp.compress(field)  # deterministic prefix → same bytes
    eb = profile.absolute_bound(field)
    # Decode needs no knowledge of the negotiation policy (header-driven).
    retriever = ProgressiveRetriever(blob)
    out = retriever.retrieve(error_bound=retriever.header.error_bound).data
    assert np.abs(out - field).max() <= eb * (1 + 1e-9)


def test_sampled_winner_matches_full_negotiation_on_most_planes():
    """Header-recorded coders agree with a full re-negotiation ≥ 90 %.

    Synthetic packed planes spanning the regimes the codec actually
    produces: all-zero top planes, sparse mid planes, dense noise bottom
    planes, and run-structured planes.
    """
    rng = _local_rng(17)
    planes = []
    for i in range(40):
        kind = i % 4
        nbytes = int(rng.integers(3000, 20000))
        if kind == 0:
            raw = np.zeros(nbytes, dtype=np.uint8)
        elif kind == 1:
            raw = (rng.random(nbytes * 8) < 0.03).astype(np.uint8)
            raw = np.packbits(raw, bitorder="little")
        elif kind == 2:
            raw = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        else:
            runs = np.repeat(
                rng.integers(0, 256, size=max(1, nbytes // 64), dtype=np.uint8), 64
            )[:nbytes]
            raw = runs
        planes.append(raw.tobytes())
    agree = 0
    for payload in planes:
        full_name, _ = negotiate_encode(payload, WIDE_CODERS, policy="smallest")
        sampled_name, sampled_blob = negotiate_encode(
            payload, WIDE_CODERS, policy="sampled", sample=4096
        )
        agree += full_name == sampled_name
        # Whatever the pick, the blob must be that coder's real encoding.
        from repro.coders.backend import get_backend

        assert get_backend(sampled_name).decode(sampled_blob) == payload
    assert agree >= 0.9 * len(planes), f"only {agree}/{len(planes)} planes agree"


def test_sampled_stream_header_coders_match_full_stream_mostly():
    """End-to-end variant: per-plane coder tables of the two policies."""
    rng = _local_rng(19)
    field = _field(rng, (24, 28, 32))
    base = dict(
        error_bound=1e-6, relative=True, plane_coders=WIDE_CODERS,
        negotiation_sample=1024,
    )
    blob_full = IPComp(
        profile=CodecProfile(negotiation="smallest", **base)
    ).compress(field)
    blob_sampled = IPComp(
        profile=CodecProfile(negotiation="sampled", **base)
    ).compress(field)
    header_full = ProgressiveRetriever(blob_full).header
    header_sampled = ProgressiveRetriever(blob_sampled).header
    total = agree = 0
    for enc_full, enc_sampled in zip(header_full.levels, header_sampled.levels):
        assert enc_full.level == enc_sampled.level
        for a, b in zip(enc_full.plane_coders, enc_sampled.plane_coders):
            total += 1
            agree += a == b
    assert total > 0
    assert agree >= 0.9 * total, f"only {agree}/{total} plane coders agree"
    # The size penalty of prefix-based winners is bounded.
    assert len(blob_sampled) <= len(blob_full) * 1.05


# --------------------------------------------------------- executor utilities


def test_batch_slabs_merges_small_and_respects_workers():
    from repro.parallel.executor import MIN_TASK_BYTES
    from repro.parallel.partition import batch_slabs, block_slices

    shape = (64, 8, 8)
    slabs = block_slices(shape, 16)  # 16 slabs × 2 KiB
    batches = batch_slabs(slabs, shape, 8, 4, MIN_TASK_BYTES)
    # Tiny slabs collapse into ≥ 1, ≤ workers-sized batch count while
    # preserving order and covering every slab exactly once.
    flat = [slc for batch in batches for slc in batch]
    assert flat == list(slabs)
    assert 1 <= len(batches) <= 16
    big_batches = batch_slabs(slabs, (4096, 64, 64), 8, 4, MIN_TASK_BYTES)
    assert len(big_batches) >= 4  # large field keeps every worker busy


def test_compress_into_streaming_and_keep_blobs(tmp_path):
    from repro.io import BlockContainerReader, BlockContainerWriter
    from repro.parallel.executor import BlockParallelCompressor

    rng = _local_rng(23)
    field = _field(rng, (16, 18, 20))
    comp = BlockParallelCompressor(
        error_bound=1e-4, relative=True, n_blocks=3, workers=0
    )

    order = []

    class RecordingWriter:
        def __init__(self, inner):
            self.inner = inner

        def add_block(self, name, payload, metadata=None):
            order.append(name)
            self.inner.add_block(name, payload, metadata)

    path = tmp_path / "streamed.rprc"
    with BlockContainerWriter(path) as writer:
        light = comp.compress_into(RecordingWriter(writer), field, keep_blobs=False)
    assert order == ["shard-0000", "shard-0001", "shard-0002"]
    assert all(block.blob == b"" for block in light)  # extents only
    assert [b.slices for b in light] == [b.slices for b in comp.compress(field)]
    with BlockContainerReader(path) as reader:
        stored = [reader.read_block(n) for n in order]
    assert stored == [b.blob for b in comp.compress(field)]


def test_compress_falls_back_without_shared_memory(monkeypatch, smooth_3d):
    from repro.parallel import executor as executor_module

    monkeypatch.setattr(executor_module, "_shared_memory", None)
    comp = executor_module.BlockParallelCompressor(
        error_bound=1e-5, relative=True, n_blocks=2, workers=2
    )
    serial = executor_module.BlockParallelCompressor(
        error_bound=1e-5, relative=True, n_blocks=2, workers=0
    )
    assert [b.blob for b in comp.compress(smooth_3d)] == [
        b.blob for b in serial.compress(smooth_3d)
    ]
