"""Fields too wide for the bound: a clear refusal, never an ``OverflowError``.

A level's δ table (the loss of dropping each number of its low planes) is
``int64``.  Codes 63 bits wide in negabinary (about ``2^62``) still fit it;
a level 64 bits wide can lose more than ``int64`` holds, and such a write
raises :class:`ConfigurationError` naming the bound and the width before
the shard's bytes are written.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import ChunkedDataset, IPComp
from repro.core.interpolation import shared_predictor
from repro.core.quantizer import LinearQuantizer
from repro.errors import ConfigurationError

#: A field whose finest codes reach about 7e18 at absolute eb 1e-3.
WIDE = np.linspace(0, 1e17, 64).reshape(4, 16)


def test_a_64_bit_wide_level_is_refused_naming_bound_and_width():
    comp = IPComp(error_bound=1e-3, relative=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConfigurationError, match=r"error bound 0\.001 .*64 bits wide"):
            comp.compress(WIDE)


def test_a_64_bit_wide_level_leaves_no_archive(tmp_path):
    path = tmp_path / "wide.rprc"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConfigurationError, match="64 bits wide"):
            ChunkedDataset.write(path, WIDE, error_bound=1e-3, relative=False)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_a_63_bit_wide_level_still_writes_and_round_trips(method, tmp_path):
    # Every finest-level code is exactly 2^62: ``2^62 · w`` is exact (a
    # power-of-two scaling), and so is every prediction of the zeros.
    field = np.zeros((4, 16))
    field[:, 1::2] = 2.0**62 * 2e-3
    comp = IPComp(error_bound=1e-3, relative=False, method=method)
    blob = comp.compress(field)
    assert max(level.nbits for level in comp.retriever(blob).header.levels) == 63
    assert np.array_equal(comp.decompress(blob), field)

    path = tmp_path / "wide.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-3, relative=False, n_blocks=2)
    with ChunkedDataset(path) as dataset:
        assert np.array_equal(dataset.read().data, field)


MAGNITUDES = [10.0**k for k in range(12, 25)] + [10.0**k for k in range(30, 301, 10)]


def test_every_magnitude_round_trips_or_is_refused():
    """From 1e12 to 1e300 at absolute eb 1e-3: a write either decodes to
    the compressor's own reconstruction, bit for bit, or raises
    :class:`ConfigurationError` — never anything else."""
    comp = IPComp(error_bound=1e-3, relative=False)
    predictor = shared_predictor(WIDE.shape, comp.profile.method)
    refused = written = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for magnitude in MAGNITUDES:
            field = np.linspace(0, magnitude, 64).reshape(WIDE.shape)
            try:
                blob = comp.compress(field)
            except ConfigurationError as error:
                assert "bits wide" in str(error)
                refused += 1
                continue
            _, _, xhat = predictor.decompose(field, LinearQuantizer(1e-3), "sweep")
            assert comp.decompress(blob).tobytes() == xhat.tobytes(), magnitude
            written += 1
    assert refused and written
