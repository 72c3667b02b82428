"""Shard-wide kernel hooks: one batched sweep ≡ the per-level loop oracle.

``PlaneKernel.encode_planes`` / ``decode_planes`` take every level of a shard
at once, lay them side by side in one position-major matrix and sweep them
together.  The oracle (``tests/oracle_kernel.py``) loops over the bit-by-bit
primitives one level at a time, so the differential tests below feed the
sweep *ragged* shards: empty levels, ``nbits == 0``, counts that are not a
multiple of 8, a different plane prefix loaded per level, every
``prefix_bits``.

Every draw comes from hypothesis or a module-local generator (the conftest
``rng`` fixture is session-scoped and shared).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle_kernel import OracleKernel, plane_rows
from repro.core.kernels import get_kernel
from repro.core.predictive_coder import PredictiveCoder
from repro.core.profile import CodecProfile
from repro.core.quantizer import LinearQuantizer
from repro.errors import StreamFormatError

REFERENCE = OracleKernel()


@st.composite
def ragged_shards(draw):
    """Levels of a shard as ``(codes, keep fraction)``, sizes and widths mixed."""
    levels = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        count = draw(st.sampled_from([0, 0, 1, 3, 7, 8, 9, 16, 37, 64, 65]))
        spread = draw(st.sampled_from([0, 1, 5, 900, 2**20, 2**40]))
        codes = draw(
            st.lists(
                st.integers(min_value=-spread, max_value=spread),
                min_size=count,
                max_size=count,
            )
        )
        levels.append((np.array(codes, dtype=np.int64), draw(st.floats(0.0, 1.0))))
    return levels


@given(shard=ragged_shards(), prefix_bits=st.integers(0, 3), with_empty_width=st.booleans())
@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_batched_hooks_match_per_level_reference(shard, prefix_bits, with_empty_width):
    codes = [level for level, _ in shard]
    # The oracle never sees more than one level at a time.
    expected = [REFERENCE.encode_planes([level], prefix_bits)[0] for level in codes]
    loaded = []
    for (level, fraction), (nbits, blocks) in zip(shard, expected):
        keep = min(nbits, int(round(fraction * (nbits + 1))))  # 0 … nbits, per level
        loaded.append((plane_rows(blocks[:keep], level.size), level.size, nbits))
    if with_empty_width:
        # A level the header gives no planes at all decodes to zeros.
        loaded.insert(len(loaded) // 2, (plane_rows([], 5), 5, 0))
    want = [REFERENCE.decode_planes([level], prefix_bits)[0] for level in loaded]
    sweep = get_kernel()
    assert sweep.encode_planes(codes, prefix_bits) == expected
    got = sweep.decode_planes(loaded, prefix_bits)
    assert len(got) == len(want)
    for have, need, (rows, count, nbits) in zip(got, want, loaded):
        assert have.dtype == np.int64 and have.shape == (count,)
        assert np.array_equal(have, need), (count, nbits, len(rows))
    # Fully loaded levels are lossless.
    full = [
        (plane_rows(blocks, level.size), level.size, nbits)
        for level, (nbits, blocks) in zip(codes, expected)
    ]
    for have, level in zip(sweep.decode_planes(full, prefix_bits), codes):
        assert np.array_equal(have, level)


def test_a_single_level_is_the_batch_of_one():
    rng = np.random.default_rng(20261001)
    sweep = get_kernel()
    levels = [rng.integers(-900, 900, size=n, dtype=np.int64) for n in (1, 13, 200, 0, 64)]
    together = sweep.encode_planes(levels, 2)
    assert together == [sweep.encode_planes([level], 2)[0] for level in levels]
    batch = [
        (plane_rows(blocks, level.size), level.size, nbits)
        for level, (nbits, blocks) in zip(levels, together)
    ]
    for level, decoded in zip(levels, sweep.decode_planes(batch, 2)):
        assert np.array_equal(decoded, level)
    assert sweep.encode_planes([], 2) == [] and sweep.decode_planes([], 2) == []


def _shard(rng: np.random.Generator, sizes):
    """An encoded shard: ``(levels for decode_planes, expected codes)``."""
    sweep = get_kernel()
    codes = [rng.integers(-(2**30), 2**30, size=n, dtype=np.int64) for n in sizes]
    encoded = sweep.encode_planes(codes, 2)
    levels = [
        (plane_rows(blocks, level.size), level.size, nbits)
        for level, (nbits, blocks) in zip(codes, encoded)
    ]
    return levels, codes, encoded


def test_threads_decode_different_shards_on_the_shared_instance():
    """The position-major arena is per thread: no cross-talk between shards.

    ``get_kernel`` hands every thread the same instance; shards of
    different geometry decoded (and re-encoded) at the same time must come
    out exactly as they do alone.
    """
    rng = np.random.default_rng(20261002)
    sweep = get_kernel()
    shards = [
        _shard(rng, sizes)
        for sizes in ((1, 9, 300, 4000), (5000, 2, 65), (7, 7, 7, 1200, 31), (2048,))
    ]
    failures = []
    barrier = threading.Barrier(len(shards))

    def worker(levels, codes, encoded):
        barrier.wait(timeout=30)
        for _ in range(40):
            decoded = sweep.decode_planes(levels, 2)
            if not all(np.array_equal(a, b) for a, b in zip(decoded, codes)):
                failures.append("decode diverged")
            again = sweep.encode_planes(codes, 2)
            if again != encoded:
                failures.append("encode diverged")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=shard) for shard in shards]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_arena_is_not_shared_across_threads():
    kernel = get_kernel()
    arenas = {}

    def grab(key):
        arenas[key] = kernel._arena

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    grab("main")
    assert len({id(a) for a in arenas.values()}) == len(arenas)


# ------------------------------------------------------------- hostile rows


@pytest.fixture
def encoded_level():
    coder = PredictiveCoder(LinearQuantizer(0.5), CodecProfile())
    rng = np.random.default_rng(20261003)
    encoding = coder.encode_level(1, rng.integers(-900, 900, size=100, dtype=np.int64))
    return coder, encoding


def test_short_plane_row_is_a_stream_format_error(encoded_level):
    """A block that decodes to fewer than ceil(count/8) bytes never reaches
    the kernel (it used to surface NumPy's broadcast ``ValueError``)."""
    coder, encoding = encoded_level
    decoder = PredictiveCoder(coder.quantizer, CodecProfile())
    backend = decoder._coder(encoding.plane_coders[1])
    blocks = list(encoding.plane_blocks)
    blocks[1] = backend.encode(backend.decode(blocks[1])[:-1])
    for decode in (decoder.decode_level_codes, decoder.decode_level):
        with pytest.raises(StreamFormatError, match="plane 1 holds 12 bytes, expected 13"):
            decode(encoding, blocks)
    with pytest.raises(StreamFormatError):
        decoder.decode_levels_codes([(encoding, encoding.plane_blocks), (encoding, blocks)])
    # A row with trailing bytes is trimmed, as on the Algorithm-2 path.
    blocks[1] = backend.encode(backend.decode(encoding.plane_blocks[1]) + b"\xff")
    assert np.array_equal(
        decoder.decode_level_codes(encoding, blocks),
        decoder.decode_level_codes(encoding, encoding.plane_blocks),
    )


def test_more_blocks_than_the_level_width_is_a_stream_format_error(encoded_level):
    coder, encoding = encoded_level
    blocks = encoding.plane_blocks + [encoding.plane_blocks[0]]
    for decode in (coder.decode_level_codes, coder.decode_level):
        with pytest.raises(StreamFormatError, match="level width"):
            decode(encoding, blocks)


def test_fused_kernel_rejects_rows_it_cannot_lay_out():
    """Called directly (no coder in front), bad rows fail loudly, not silently:
    rows of the wrong width, more rows than planes, and loose byte strings."""
    sweep = get_kernel()
    [(nbits, blocks)] = sweep.encode_planes([np.arange(-32, 32, dtype=np.int64)], 2)
    for rows in (plane_rows(blocks, 64)[:, :-1], plane_rows(blocks + blocks[:1], 64), blocks):
        with pytest.raises(ValueError):
            sweep.decode_planes([(rows, 64, nbits)], 2)
