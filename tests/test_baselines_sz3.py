"""Tests of the SZ3 baseline and its multi-fidelity variant."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.analysis import compression_ratio, max_error
from repro.baselines import SZ3Compressor, SZ3MultiFidelityCompressor, unpack_sections
from repro.baselines.base import pack_sections
from repro.coders.huffman import decode_symbols, encode_symbols
from repro.datasets import load_dataset
from repro.errors import ConfigurationError, StreamFormatError


@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_roundtrip_respects_bound(smooth_3d, method):
    comp = SZ3Compressor(error_bound=1e-5, relative=True, method=method)
    blob = comp.compress(smooth_3d)
    restored = comp.decompress(blob)
    assert max_error(smooth_3d, restored) <= comp.absolute_bound(smooth_3d) * (1 + 1e-12)
    assert restored.shape == smooth_3d.shape
    assert restored.dtype == smooth_3d.dtype


def test_absolute_bound_mode(smooth_2d):
    comp = SZ3Compressor(error_bound=5e-4, relative=False)
    restored = comp.decompress(comp.compress(smooth_2d))
    assert max_error(smooth_2d, restored) <= 5e-4 * (1 + 1e-12)


def test_outlier_path_handles_spiky_data(rng):
    """A field with huge local spikes exercises the unpredictable-data path."""
    data = rng.normal(size=(24, 24)).astype(np.float64)
    data[5, 5] = 1e7
    data[17, 3] = -1e7
    comp = SZ3Compressor(error_bound=1e-7, relative=False)
    restored = comp.decompress(comp.compress(data))
    assert max_error(data, restored) <= 1e-7 * (1 + 1e-9)


def test_smooth_compresses_better_than_rough(smooth_3d, rough_3d):
    comp = SZ3Compressor(error_bound=1e-5, relative=True)
    cr_smooth = compression_ratio(smooth_3d, comp.compress(smooth_3d))
    cr_rough = compression_ratio(rough_3d, comp.compress(rough_3d))
    assert cr_smooth > cr_rough


def test_looser_bound_higher_ratio(smooth_3d):
    tight = SZ3Compressor(error_bound=1e-8, relative=True)
    loose = SZ3Compressor(error_bound=1e-3, relative=True)
    assert compression_ratio(smooth_3d, loose.compress(smooth_3d)) > compression_ratio(
        smooth_3d, tight.compress(smooth_3d)
    )


def test_invalid_bound_rejected():
    with pytest.raises(ConfigurationError):
        SZ3Compressor(error_bound=0.0)


# ---------------------------------------------------------------------- SZ3-M


def test_sz3m_stores_independent_copies(smooth_3d):
    single = SZ3Compressor(error_bound=1e-5, relative=True)
    multi = SZ3MultiFidelityCompressor(error_bound=1e-5, relative=True, rungs=4)
    blob_single = single.compress(smooth_3d)
    blob_multi = multi.compress(smooth_3d)
    # Storing several fidelity copies must cost noticeably more than one.
    assert len(blob_multi) > len(blob_single) * 1.5


def test_sz3m_full_decompression_uses_finest_copy(smooth_3d):
    multi = SZ3MultiFidelityCompressor(error_bound=1e-5, relative=True, rungs=3)
    blob = multi.compress(smooth_3d)
    restored = multi.decompress(blob)
    assert max_error(smooth_3d, restored) <= multi.absolute_bound(smooth_3d) * (1 + 1e-12)


def test_sz3m_retrieval_by_error_bound(smooth_3d):
    multi = SZ3MultiFidelityCompressor(error_bound=1e-6, relative=True, rungs=4)
    blob = multi.compress(smooth_3d)
    eb = multi.absolute_bound(smooth_3d)
    outcome = multi.retrieve(blob, error_bound=eb * 16)
    assert outcome.passes == 1
    assert max_error(smooth_3d, outcome.data) <= eb * 16 * (1 + 1e-9)
    # Coarser copies are smaller than the finest one.
    fine = multi.retrieve(blob, error_bound=eb)
    assert outcome.bytes_loaded < fine.bytes_loaded


def test_sz3m_retrieval_by_bitrate(smooth_3d):
    multi = SZ3MultiFidelityCompressor(error_bound=1e-6, relative=True, rungs=4)
    blob = multi.compress(smooth_3d)
    # Budget sized to admit the coarsest copy but not the whole bundle.
    sizes = [len(section) for section in unpack_sections(blob)[1]]
    budget_bits = (min(sizes) * 8 / smooth_3d.size) * 1.05
    outcome = multi.retrieve(blob, bitrate=budget_bits)
    assert outcome.passes == 1
    assert outcome.bytes_loaded * 8 / smooth_3d.size <= budget_bits + 1e-9


def test_sz3m_request_validation(smooth_3d):
    multi = SZ3MultiFidelityCompressor(error_bound=1e-6, relative=True, rungs=2)
    blob = multi.compress(smooth_3d)
    with pytest.raises(ConfigurationError):
        multi.retrieve(blob)


@pytest.mark.parametrize("change", [5, -1], ids=["five-surplus", "one-short"])
def test_a_wrong_symbol_count_is_a_stream_format_error(change):
    """The symbol section must hold exactly one symbol per point: surplus
    symbols are not ignored, and a short section is named as the stream's
    fault, not the predictor's."""
    comp = SZ3Compressor(error_bound=1e-4, relative=True)
    blob = comp.compress(load_dataset("density", shape=(16, 16, 16)))
    meta, (symbols, outliers) = unpack_sections(blob)
    decoded = decode_symbols(zlib.decompress(symbols))
    if change > 0:
        decoded = np.concatenate([decoded, np.zeros(change, dtype=np.int64)])
    else:
        decoded = decoded[:change]
    tampered = pack_sections(meta, [zlib.compress(encode_symbols(decoded)), outliers])
    with pytest.raises(StreamFormatError, match="symbols"):
        comp.decompress(tampered)
