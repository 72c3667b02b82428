"""Unit tests of the per-level predictive bitplane encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_properties import _SETTINGS, _packed_planes

import repro.core.predictive_coder as predictive_coder
from repro.coders import get_backend
from repro.core.predictive_coder import PredictiveCoder, negotiate_encode, negotiate_level
from repro.core.profile import CodecProfile
from repro.core.quantizer import LinearQuantizer
from repro.datasets import dataset_names, load_dataset
from repro.errors import StreamFormatError
from repro.io import ChunkedDataset


@pytest.fixture
def coder():
    return PredictiveCoder(LinearQuantizer(0.01), CodecProfile(prefix_bits=2))


@pytest.fixture
def codes(rng):
    # A zero-heavy, small-magnitude integer distribution like real level diffs.
    return np.rint(rng.normal(scale=6.0, size=4000)).astype(np.int64)


def test_full_decode_matches_input(coder, codes):
    encoding = coder.encode_level(3, codes)
    decoded = coder.decode_level_codes(encoding, encoding.plane_blocks)
    assert np.array_equal(decoded, codes)


def test_decoded_diffs_are_dequantized(coder, codes):
    encoding = coder.encode_level(3, codes)
    diffs = coder.decode_level(encoding, encoding.plane_blocks)
    assert np.allclose(diffs, codes * coder.quantizer.bin_width)


def test_partial_decode_error_matches_delta_table(coder, codes):
    """delta_table[b] must be the exact max error of dropping b planes."""
    encoding = coder.encode_level(2, codes)
    for keep in range(encoding.nbits + 1):
        dropped = encoding.nbits - keep
        partial = coder.decode_level_codes(encoding, encoding.plane_blocks[:keep])
        error = np.abs(partial - codes).max() * coder.quantizer.bin_width if codes.size else 0
        assert error <= encoding.delta_table[dropped] + 1e-12
    # And it must be tight for the all-dropped case.
    assert encoding.delta_table[-1] == pytest.approx(
        np.abs(codes).max() * coder.quantizer.bin_width
    )


def test_delta_table_is_exact(coder, local_rng):
    """delta_table[b] *equals* the worst error of decoding without the b low
    planes — for every b, on a draw that belongs to this test alone."""
    codes = np.rint(local_rng.normal(scale=6.0, size=4000)).astype(np.int64)
    encoding = coder.encode_level(1, codes)
    for dropped in range(encoding.nbits + 1):
        kept = encoding.plane_blocks[: encoding.nbits - dropped]
        partial = coder.decode_level_codes(encoding, kept)
        worst = np.abs(partial - codes).max() * coder.quantizer.bin_width
        assert encoding.delta_table[dropped] == worst


def test_delta_table_is_not_monotone(coder):
    """Negabinary digits alternate in sign, so one more dropped plane can
    cancel loss: 22 = 64 − 42 loses 42 without six planes, 22 without seven."""
    encoding = coder.encode_level(1, np.array([22], dtype=np.int64))
    assert encoding.nbits == 7
    expected = np.array([0, 0, 2, 2, 10, 10, 42, 22]) * coder.quantizer.bin_width
    assert encoding.delta_table.tobytes() == expected.tobytes()
    assert encoding.delta_table[6] > encoding.delta_table[7]


def test_zero_planes_decode_to_zero(coder, codes):
    encoding = coder.encode_level(1, codes)
    decoded = coder.decode_level_codes(encoding, [])
    assert np.array_equal(decoded, np.zeros_like(codes))


def test_empty_level(coder):
    encoding = coder.encode_level(5, np.zeros(0, dtype=np.int64))
    assert encoding.count == 0
    assert coder.decode_level(encoding, encoding.plane_blocks).size == 0


def test_plane_sizes_and_total_bytes(coder, codes):
    encoding = coder.encode_level(1, codes)
    assert len(encoding.plane_sizes) == encoding.nbits
    assert encoding.total_bytes == sum(encoding.plane_sizes)
    assert all(size > 0 for size in encoding.plane_sizes)


def test_high_planes_compress_better_than_low_planes(coder, codes):
    """Negabinary keeps high planes near-constant → much smaller blocks."""
    encoding = coder.encode_level(1, codes)
    assert encoding.plane_sizes[0] < encoding.plane_sizes[-1]


def test_anchor_roundtrip(coder, rng):
    anchor_codes = rng.integers(-1000, 1000, size=27)
    block = coder.encode_anchor(anchor_codes)
    values = coder.decode_anchor(block, 27)
    assert np.allclose(values, anchor_codes * coder.quantizer.bin_width)


def test_anchor_count_mismatch_rejected(coder, rng):
    block = coder.encode_anchor(rng.integers(-5, 5, size=10))
    with pytest.raises(StreamFormatError):
        coder.decode_anchor(block, 11)


def test_too_many_blocks_rejected(coder, codes):
    encoding = coder.encode_level(1, codes)
    with pytest.raises(StreamFormatError):
        coder.decode_level(encoding, encoding.plane_blocks + [encoding.plane_blocks[0]])


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_all_prefix_settings_roundtrip(rng, prefix_bits):
    coder = PredictiveCoder(
        LinearQuantizer(0.5), CodecProfile(prefix_bits=prefix_bits)
    )
    codes = rng.integers(-100, 100, size=777)
    encoding = coder.encode_level(4, codes)
    assert np.array_equal(
        coder.decode_level_codes(encoding, encoding.plane_blocks), codes
    )


# ------------------------------------------------------------ entropy stage


def _exhaustive_level(packed_planes):
    """The oracle: every plane through the deflate-or-stored rule."""
    return [negotiate_encode(packed) for packed in packed_planes]


def _write(tmp_path, monkeypatch, data, error_bound, exhaustive):
    """The bytes of a 4-shard dataset file, written by the encoder or the oracle."""
    with monkeypatch.context() as patch:
        if exhaustive:
            patch.setattr(predictive_coder, "negotiate_level", _exhaustive_level)
        path = tmp_path / f"{'oracle' if exhaustive else 'encoder'}.rprc"
        ChunkedDataset.write(path, data, error_bound=error_bound, n_blocks=4)
    return path, path.read_bytes()


@pytest.mark.parametrize("error_bound", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("name", dataset_names())
def test_stored_run_rule_writes_the_exhaustive_bytes(tmp_path, monkeypatch, name, error_bound):
    """Skipping deflate below two stored planes loses nothing on the registry
    datasets: the file is byte-identical to trying every plane."""
    data = load_dataset(name, shape=(32, 32, 32))
    _, encoded = _write(tmp_path, monkeypatch, data, error_bound, exhaustive=False)
    _, oracle = _write(tmp_path, monkeypatch, data, error_bound, exhaustive=True)
    assert encoded == oracle


@given(packed_planes=st.lists(_packed_planes, max_size=10))
@settings(**_SETTINGS)
def test_level_is_negotiated_until_two_stored_planes(packed_planes):
    chosen = negotiate_level(packed_planes)
    assert len(chosen) == len(packed_planes)
    stored_run = 0
    for packed, (name, block) in zip(packed_planes, chosen):
        if stored_run < 2:
            assert (name, block) == negotiate_encode(packed)
            stored_run = stored_run + 1 if name == "raw" else 0
        else:
            assert name == "raw" and block is packed
        assert get_backend(name).decode(block, len(packed)) == packed


def test_step_field_cost_is_bounded(tmp_path, monkeypatch):
    """The known cost: a field of 64 values has sparse planes below stored
    runs, which the rule stores.  It loses bytes — at most 0.5 % — and the
    answer stays within the bound."""
    field = load_dataset("density", shape=(48, 48, 48))
    low, high = field.min(), field.max()
    step = low + np.round((field - low) / (high - low) * 63) * ((high - low) / 63)
    path, encoded = _write(tmp_path, monkeypatch, step, 1e-9, exhaustive=False)
    _, oracle = _write(tmp_path, monkeypatch, step, 1e-9, exhaustive=True)
    assert len(oracle) < len(encoded) <= 1.005 * len(oracle)
    with ChunkedDataset(path) as dataset:
        restored = dataset.read().data
    assert np.abs(restored - step).max() <= 1e-9 * (high - low)
