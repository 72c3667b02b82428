"""Fields too wide for the bound: a clear refusal, never garbage or an ``OverflowError``.

Three limits, each a :class:`ConfigurationError` naming the bound, raised
before any byte of the archive is written:

* a quantization code is ``int64``: a difference whose rounded quotient
  ``|y| / (2·eb)`` is ``2^63`` or more has none (x86 would cast it to
  ``INT64_MIN``, and the archive would decode to garbage);
* a reconstruction ``x̂ = pred + q·2·eb`` is a float64 of the field's own
  spacing: where that spacing is about the bin width, ``x̂`` can miss ``x``
  by up to twice the bound though the code is within half a bin;
* a level's δ table (the loss of dropping each number of its low planes) is
  ``int64`` too.  Codes 63 bits wide in negabinary (about ``2^62``) still
  fit it; a level 64 bits wide can lose more than ``int64`` holds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ChunkedDataset, IPComp
from repro.core.interpolation import shared_predictor
from repro.core.quantizer import LinearQuantizer
from repro.errors import ConfigurationError


def _finest_codes(code: float) -> np.ndarray:
    """A field whose finest-level codes at absolute eb 1e-3 are all ``code``:
    the even columns are zero, so every prediction of an odd one is 0."""
    field = np.zeros((4, 16))
    field[:, 1::2] = code * 2e-3
    return field


#: Codes of about 8.1e18: inside ``int64``, 64 bits wide in negabinary.
WIDE = _finest_codes(7 * 2.0**60)


def test_a_64_bit_wide_level_is_refused_naming_bound_and_width():
    comp = IPComp(error_bound=1e-3, relative=False)
    with pytest.raises(ConfigurationError, match=r"error bound 0\.001 .*64 bits wide"):
        comp.compress(WIDE)


def test_a_64_bit_wide_level_leaves_no_archive(tmp_path):
    path = tmp_path / "wide.rprc"
    with pytest.raises(ConfigurationError, match="64 bits wide"):
        ChunkedDataset.write(path, WIDE, error_bound=1e-3, relative=False)
    assert list(tmp_path.iterdir()) == []


def test_a_code_beyond_int64_is_refused_naming_the_bound():
    comp = IPComp(error_bound=1e-3, relative=False)
    with pytest.raises(ConfigurationError, match=r"error bound 0\.001 .*no int64 quantization code"):
        comp.compress(_finest_codes(2.0**63))


@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_a_63_bit_wide_level_still_writes_and_round_trips(method, tmp_path):
    # Every finest-level code is exactly 2^62: ``2^62 · w`` is exact (a
    # power-of-two scaling), and so is every prediction of the zeros.
    field = _finest_codes(2.0**62)
    comp = IPComp(error_bound=1e-3, relative=False, method=method)
    blob = comp.compress(field)
    assert max(level.nbits for level in comp.retriever(blob).header.levels) == 63
    assert np.array_equal(comp.decompress(blob), field)

    path = tmp_path / "wide.rprc"
    ChunkedDataset.write(path, field, error_bound=1e-3, relative=False, n_blocks=2)
    with ChunkedDataset(path) as dataset:
        assert np.array_equal(dataset.read().data, field)


MAGNITUDES = [10.0**k for k in range(12, 25)] + [10.0**k for k in range(30, 301, 10)]

#: The one magnitude of :data:`MAGNITUDES` whose float spacing (1.95e-3 at
#: 1e13) lets a reconstruction at absolute eb 1e-3 miss the bound.
SPACED = {1e13: r"largest magnitude 1e\+13 are 0\.00195 apart"}


def _refused_everywhere(field, match, tmp_path):
    """``IPComp.compress`` and ``ChunkedDataset.write`` both raise, and the
    write leaves no file."""
    with pytest.raises(ConfigurationError, match=match):
        IPComp(error_bound=1e-3, relative=False).compress(field)
    with pytest.raises(ConfigurationError, match=match):
        ChunkedDataset.write(
            tmp_path / "huge.rprc", field, error_bound=1e-3, relative=False, n_blocks=2
        )
    assert list(tmp_path.iterdir()) == []


def test_every_magnitude_round_trips_or_is_refused(tmp_path):
    """From 1e12 to 1e300 at absolute eb 1e-3: up to 1e16 a write decodes
    to the compressor's own reconstruction, bit for bit, and within the
    bound — but for 1e13, whose float spacing the reconstruction would
    miss the bound by; from 1e17 on (a code would need ``|y| / 2e-3 ≥
    2^63``) it is refused.  Each refusal raises :class:`ConfigurationError`
    through ``IPComp.compress`` and ``ChunkedDataset.write``, and leaves no
    archive."""
    comp = IPComp(error_bound=1e-3, relative=False)
    predictor = shared_predictor(WIDE.shape, comp.profile.method)
    for magnitude in MAGNITUDES:
        field = np.linspace(0, magnitude, 64).reshape(WIDE.shape)
        if magnitude in SPACED:
            _refused_everywhere(field, SPACED[magnitude], tmp_path)
        elif magnitude < 1e17:
            restored = comp.decompress(comp.compress(field))
            _, _, xhat = predictor.decompose(field, LinearQuantizer(1e-3))
            assert restored.tobytes() == xhat.tobytes(), magnitude
            assert np.abs(restored - field).max() <= 1e-3, magnitude
        else:
            _refused_everywhere(field, "no int64 quantization code", tmp_path)


def test_a_bound_finer_than_the_field_spacing_is_refused_naming_both(tmp_path):
    """``np.linspace(0, 1e13, 64)`` at absolute eb 1e-3 once decoded with a
    max error of 1.953e-3, twice the bound, and nothing said so."""
    field = np.linspace(0, 1e13, 64).reshape(4, 16)
    _refused_everywhere(field, r"error bound 0\.001 .*0\.00195 apart", tmp_path)
