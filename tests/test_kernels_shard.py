"""Shard-wide kernel hooks: one batched call ≡ the per-level loop oracle.

``PlaneKernel.encode_planes`` / ``decode_planes`` take every level of a shard
at once, each one C call that walks the levels in chunks of 256 packed
columns.  The oracle (``tests/oracle_kernel.py``) loops over the
bit-by-bit primitives one level at a time, so the differential tests below
feed the kernel *ragged* shards — empty levels, ``nbits == 0``, counts that
are not a multiple of 8, a different plane prefix loaded per level, every
``prefix_bits`` — and the C decode's own edges: 64-bit levels, every
``keep``, counts 1–17 and around the chunk size, many threads at once.

Every draw comes from hypothesis or a module-local generator (the conftest
``rng`` fixture is session-scoped and shared).
"""

from __future__ import annotations

import sys
import threading
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracle_kernel import OracleKernel, plane_rows, shard_rows
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
        count = draw(st.sampled_from([0, 0, 1, 3, 7, 8, 9, 16, 37, 64, 65, 2047, 2049]))
        spread = draw(st.sampled_from([0, 1, 5, 900, 2**20, 2**40, 2**63 - 1]))
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
    want = [REFERENCE.decode_planes(*shard_rows([level]), prefix_bits)[0] for level in loaded]
    sweep = get_kernel()
    assert sweep.encode_planes(codes, prefix_bits) == expected
    got = sweep.decode_planes(*shard_rows(loaded), prefix_bits)
    assert len(got) == len(want)
    for have, need, (rows, count, nbits) in zip(got, want, loaded):
        assert have.dtype == np.int64 and have.shape == (count,)
        assert np.array_equal(have, need), (count, nbits, len(rows))
    # Fully loaded levels are lossless.
    full = [
        (plane_rows(blocks, level.size), level.size, nbits)
        for level, (nbits, blocks) in zip(codes, expected)
    ]
    for have, level in zip(sweep.decode_planes(*shard_rows(full), prefix_bits), codes):
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
    for level, decoded in zip(levels, sweep.decode_planes(*shard_rows(batch), 2)):
        assert np.array_equal(decoded, level)
    assert sweep.encode_planes([], 2) == [] and sweep.decode_planes(*shard_rows([]), 2) == []


def _shard(rng: np.random.Generator, sizes, prefix_bits: int = 2):
    """An encoded shard: ``(levels for decode_planes, codes, encoded)``."""
    sweep = get_kernel()
    codes = [rng.integers(-(2**30), 2**30, size=n, dtype=np.int64) for n in sizes]
    encoded = sweep.encode_planes(codes, prefix_bits)
    levels = [
        (plane_rows(blocks, level.size), level.size, nbits)
        for level, (nbits, blocks) in zip(codes, encoded)
    ]
    return levels, codes, encoded


def _run_at_once(worker, jobs):
    """Run ``worker(*job)`` for every job on its own thread, started together."""
    barrier = threading.Barrier(len(jobs))

    def run(*job):
        barrier.wait(timeout=30)
        worker(*job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_decode_different_shards_on_the_shared_instance():
    """The C decode keeps no state between calls and runs without the GIL:
    eight threads decoding shards of different geometry and prefix at the
    same time each get exactly the serial answer."""
    rng = np.random.default_rng(20261002)
    sweep = get_kernel()
    jobs = []
    for index, sizes in enumerate(
        ((1, 9, 300, 40000), (50000, 2, 65), (7, 7, 7, 12000, 31), (2048,), (2049, 2047),
         (30000,), (17, 4097, 6000), (8, 64, 512, 20000))
    ):
        levels, _, _ = _shard(rng, sizes, prefix_bits=index % 4)
        # A different plane prefix loaded per level, so the threads' keeps differ.
        levels = [(rows[: len(rows) - i % 3], count, nbits) for i, (rows, count, nbits) in enumerate(levels)]
        serial = [code.copy() for code in sweep.decode_planes(*shard_rows(levels), index % 4)]
        jobs.append((levels, index % 4, serial))
    failures = []

    def worker(levels, prefix_bits, serial):
        for _ in range(20):
            decoded = sweep.decode_planes(*shard_rows(levels), prefix_bits)
            if not all(np.array_equal(a, b) for a, b in zip(decoded, serial)):
                failures.append("decode diverged")

    _run_at_once(worker, jobs)
    assert failures == []


def test_threads_encode_different_shards_on_the_shared_instance():
    """The encode's position-major arena is per thread: shards of different
    geometry encoded at the same time come out exactly as they do alone."""
    rng = np.random.default_rng(20261004)
    sweep = get_kernel()
    jobs = [
        _shard(rng, sizes)[1:]
        for sizes in ((1, 9, 300, 4000), (5000, 2, 65), (7, 7, 7, 1200, 31), (2048,))
    ]
    failures = []

    def worker(codes, encoded):
        for _ in range(40):
            if sweep.encode_planes(codes, 2) != encoded:
                failures.append("encode diverged")

    _run_at_once(worker, jobs)
    assert failures == []


def test_threads_encoding_different_shards_get_the_serial_bytes():
    """Each thread's shard comes out as it does alone: the encode keeps
    nothing between calls that another thread could overwrite.  The shards
    differ in width (up to 64 planes), in count (across the 2048-value
    chunk) and in prefix, so that any shared scratch would show."""
    rng = np.random.default_rng(20261019)
    sweep = get_kernel()
    jobs = []
    for index, (sizes, top) in enumerate(
        (((2049, 3, 0, 17), 63), ((4105,), 20), ((1, 1, 2048), 40), ((600, 9000), 8))
    ):
        codes = [rng.integers(-(2**top), 2**top, size=n, dtype=np.int64) for n in sizes]
        prefix_bits = index % 4
        serial = [REFERENCE.encode_planes([level], prefix_bits)[0] for level in codes]
        jobs.append((codes, prefix_bits, serial))
    failures = []

    def worker(codes, prefix_bits, serial):
        for _ in range(15):
            if sweep.encode_planes(codes, prefix_bits) != serial:
                failures.append("encode diverged")

    _run_at_once(worker, jobs)
    assert failures == []


# ------------------------------------------------------------ the C's edges


def _check_every_keep(codes: np.ndarray, prefix_bits: int, keeps=None) -> int:
    """The kernel's decode of ``codes``' planes equals the oracle's at every
    ``keep`` (or those given); returns the level width."""
    [(nbits, blocks)] = REFERENCE.encode_planes([codes], prefix_bits)
    sweep = get_kernel()
    assert sweep.encode_planes([codes], prefix_bits) == [(nbits, blocks)]
    rows = plane_rows(blocks, codes.size)
    for keep in range(nbits + 1) if keeps is None else keeps(nbits):
        [have] = sweep.decode_planes(*shard_rows([(rows[:keep], codes.size, nbits)]), prefix_bits)
        [need] = REFERENCE.decode_planes(*shard_rows([(blocks[:keep], codes.size, nbits)]), prefix_bits)
        assert have.dtype == np.int64 and np.array_equal(have, need), (keep, nbits, codes.size)
    assert np.array_equal(have, codes) or keeps is not None
    return nbits


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_a_64_bit_level_decodes_at_every_keep(prefix_bits):
    rng = np.random.default_rng(20261005 + prefix_bits)
    codes = rng.integers(-(2**63), 2**63 - 1, size=37, dtype=np.int64, endpoint=True)
    codes[:2] = (-(2**63), 2**63 - 1)
    # Negabinary needs all 64 digits for values near either end of int64.
    assert _check_every_keep(codes, prefix_bits) == 64


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_counts_one_to_seventeen_decode_at_every_keep(prefix_bits):
    rng = np.random.default_rng(20261006 + prefix_bits)
    for count in range(1, 18):
        _check_every_keep(rng.integers(-(2**20), 2**20, size=count, dtype=np.int64), prefix_bits)


@pytest.mark.parametrize("count", [8 * 256 - 1, 8 * 256, 8 * 256 + 1, 2 * 8 * 256 + 9])
@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_chunk_edges_decode(count, prefix_bits):
    """A level one value short of, exactly at and past the C's 256-column
    chunk, and one ending in a short third chunk."""
    rng = np.random.default_rng(20261007 + count + prefix_bits)
    codes = rng.integers(-(2**40), 2**40, size=count, dtype=np.int64)
    _check_every_keep(codes, prefix_bits, keeps=lambda nbits: (0, 1, 7, 8, 9, nbits - 1, nbits))


def test_empty_levels_and_an_empty_shard():
    sweep = get_kernel()
    nothing = np.zeros(0, dtype=np.uint8)
    assert sweep.decode_planes(nothing, array("q"), 0) == []
    decoded = sweep.decode_planes(nothing, array("q", (0, 0, 0, 0, 0, 0, 9, 5, 0, 3, 0, 4)), 2)
    assert [d.tolist() for d in decoded] == [[], [0] * 9, []]
    assert all(d.dtype == np.int64 for d in decoded)


def test_decode_refuses_what_the_c_cannot_read_safely():
    """Every level is checked before the C reads a byte of any."""
    sweep = get_kernel()
    [(nbits, blocks)] = sweep.encode_planes([np.arange(-32, 32, dtype=np.int64)], 2)
    rows, good = shard_rows([(blocks, 64, nbits)])
    size = rows.size
    strided = np.zeros(2 * size, dtype=np.uint8)[::2]
    strided[...] = rows
    for buffer, level in (
        (strided, good),  # the right bytes, not C-contiguous
        (rows.view(np.int8), good),  # not uint8
        (rows.reshape(nbits, 8), good),  # not one 1-D buffer
        (rows, (0, nbits, 64, 65)),  # wider than 64 planes
        (rows, (0, 0, 64, -1)),  # a negative width
        (rows, (0, 0, -8, 0)),  # a negative count
        (rows, (0, 0, 64, 65)),  # wider than 64, nothing loaded
        (rows, (0, nbits + 1, 64, nbits + 1)),  # one row more than the buffer holds
        (rows, (-1, 1, 64, nbits)),  # a negative offset
        (rows, (8, nbits, 64, nbits)),  # rows past the buffer's end
        (rows, (size + 1, 0, 64, nbits)),  # an offset past the end
        (rows, (0, 64, 2**62, 64)),  # rows whose byte count passes int64
    ):
        with pytest.raises(ValueError):
            sweep.decode_planes(buffer, good + array("q", level), 2)
    # The table itself: int64s, four a level.
    for table in (list(good), array("i", good), good[:-1]):
        with pytest.raises(ValueError):
            sweep.decode_planes(rows, table, 2)


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
    rows a byte short, more rows than planes, and loose byte strings."""
    sweep = get_kernel()
    [(nbits, blocks)] = sweep.encode_planes([np.arange(-32, 32, dtype=np.int64)], 2)
    short = np.frombuffer(b"".join(block[:-1] for block in blocks), dtype=np.uint8)
    extra, surplus = shard_rows([(blocks + blocks[:1], 64, nbits)])
    level = array("q", (0, nbits, 64, nbits))
    for rows, table in ((short, level), (extra, surplus), (b"".join(blocks), level)):
        with pytest.raises(ValueError):
            sweep.decode_planes(rows, table, 2)
