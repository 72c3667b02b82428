"""Algorithm 2's packed-plane merge and the default path.

``ProgressiveRetriever._merge_codes`` adds newly loaded planes to the resident
negabinary word in the packed byte domain.  Its contract is exact: for any
``old_keep < new_keep`` the merged integer codes equal
``PredictiveCoder.decode_level_codes`` of the first ``new_keep`` blocks —
under every ``prefix_bits`` and level sizes that are not a multiple of eight
(the pad bits of the last packed byte).

NB: module-local rngs only — the session-scoped ``rng`` fixture is shared.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ChunkedDataset, IPComp, ProgressiveRetriever
from repro.service import RetrievalService


def _field(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return base + 0.05 * rng.normal(size=shape)


def _keep_pairs(nbits: int, rng: np.random.Generator):
    """(old_keep, new_keep): 0 → k, k → nbits, one plane, and random spans."""
    pairs = {(0, nbits), (0, 1), (nbits - 1, nbits)}
    for _ in range(4):
        new = int(rng.integers(1, nbits + 1))
        pairs.add((int(rng.integers(0, new)), new))
    pairs.add((0, int(rng.integers(1, nbits + 1))))
    pairs.add((int(rng.integers(0, nbits)), nbits))
    return sorted(pairs)


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_merge_equals_decoding_the_first_new_keep_blocks(prefix_bits):
    blob = IPComp(error_bound=1e-5, relative=True, prefix_bits=prefix_bits).compress(
        _field((13, 9, 7), seed=prefix_bits)
    )
    retriever = ProgressiveRetriever(blob)
    assert retriever.coder.prefix_bits == prefix_bits
    rng = np.random.default_rng(100 + prefix_bits)
    levels = [enc for enc in retriever.header.levels if enc.count]
    assert any(enc.count % 8 for enc in levels) and any(enc.nbits > 8 for enc in levels)
    for enc in levels:
        blocks = [retriever.store.read_block(enc.level, k) for k in range(enc.nbits)]
        for old_keep, new_keep in _keep_pairs(enc.nbits, rng):
            retriever._current_codes[enc.level] = retriever.coder.decode_level_codes(
                enc, blocks[:old_keep]
            )
            merged = retriever._merge_codes(
                enc, old_keep, new_keep, blocks[old_keep:new_keep]
            )
            want = retriever.coder.decode_level_codes(enc, blocks[:new_keep])
            assert merged.dtype == want.dtype == np.int64
            assert merged.tobytes() == want.tobytes(), (enc.level, old_keep, new_keep)


def test_merge_into_a_level_with_nothing_resident():
    """``0 → k`` with no entry in ``_current_codes`` at all (never decoded)."""
    blob = IPComp(error_bound=1e-4, relative=True).compress(_field((11, 6), seed=9))
    retriever = ProgressiveRetriever(blob)
    enc = max(retriever.header.levels, key=lambda e: e.count)
    blocks = [retriever.store.read_block(enc.level, k) for k in range(enc.nbits)]
    assert enc.level not in retriever._current_codes
    merged = retriever._merge_codes(enc, 0, enc.nbits, blocks)
    assert np.array_equal(merged, retriever.coder.decode_level_codes(enc, blocks))


def test_rebuilt_ladder_rungs_equal_fresh_reads(tmp_path):
    """Dataset-level: every rung the service refines in place through
    ``retrieve_rebuilt`` is bitwise the fresh serial read of that bound."""
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(
        path, _field((20, 18, 14), seed=3), error_bound=1e-5, relative=True,
        n_blocks=3, workers=0,
    )
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
    with RetrievalService() as service:
        for rung, factor in enumerate((1024.0, 64.0, 8.0, 1.0)):
            served = service.get(path, error_bound=stored * factor)
            with ChunkedDataset(path) as dataset:
                fresh = dataset.read(error_bound=stored * factor)
            assert served.data.tobytes() == fresh.data.tobytes()
            assert served.trace.bytes_loaded == fresh.bytes_loaded
            if rung:  # refined from the resident coarser rung, not re-read
                assert served.trace.tier_hits.get("rung", 0) == len(served.trace.shards)
                assert served.trace.physical_bytes < served.trace.bytes_loaded


def test_stream_level_rebuilt_and_delta_ladders():
    """Stream-level twin: rebuilt rungs are bitwise fresh retrievals; the
    delta-add ``retrieve`` rungs carry the same integer codes."""
    blob = IPComp(error_bound=1e-6, relative=True).compress(_field((15, 12, 10), seed=5))
    eb = ProgressiveRetriever(blob).header.error_bound
    rebuilt, delta = ProgressiveRetriever(blob), ProgressiveRetriever(blob)
    for factor in (4096.0, 256.0, 16.0, 1.0):
        fresh = ProgressiveRetriever(blob)
        want = fresh.retrieve(error_bound=eb * factor)
        got = rebuilt.retrieve_rebuilt(error_bound=eb * factor)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.cumulative_bytes == want.bytes_loaded
        refined = delta.retrieve(error_bound=eb * factor)
        assert delta.current_keep == fresh.current_keep
        for level, codes in fresh._current_codes.items():
            assert np.array_equal(delta._current_codes[level], codes)
        assert np.abs(refined.data - want.data).max() <= 1e-9 * max(1.0, np.abs(want.data).max())


# ------------------------------------------------------------- default path


def test_default_argument_streams_equal_the_reference_kernel(oracle, tmp_path):
    """Default arguments everywhere: the bytes are the loop oracle's."""
    field = _field((9, 10, 11), seed=7)
    paths = {name: tmp_path / f"{name}.rprc" for name in ("default", "reference")}
    blob = IPComp(error_bound=1e-4, relative=True).compress(field)
    ChunkedDataset.write(paths["default"], field, error_bound=1e-4, relative=True,
                         n_blocks=2, workers=0)
    with ChunkedDataset(paths["default"]) as default:
        restored = default.read().data.tobytes()
    oracle()
    assert IPComp(error_bound=1e-4, relative=True).compress(field) == blob
    ChunkedDataset.write(paths["reference"], field, error_bound=1e-4, relative=True,
                         n_blocks=2, workers=0)
    assert paths["default"].read_bytes() == paths["reference"].read_bytes()
    with ChunkedDataset(paths["default"]) as reference:
        assert reference.read().data.tobytes() == restored
