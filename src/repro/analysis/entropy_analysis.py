"""Table 2 reproduction: entropy of predictive bitplane coding.

The paper quantifies how much the XOR-prefix prediction of §4.4.1 lowers the
zero-order entropy of the bitplane streams (lower entropy → better
compressibility by the lossless backend).  ``prefix_coding_entropy`` runs the
full IPComp front end (interpolation + quantization + negabinary + bitplanes)
on a field and reports the plane-size-weighted average bit entropy for a given
number of prefix bits; ``prefix_entropy_table`` sweeps 0–3 prefix bits, which
is exactly the content of Table 2.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.coders.entropy import bit_entropy
from repro.core.bitplane import extract_bitplanes, predictive_encode
from repro.core.interpolation import InterpolationPredictor
from repro.core.negabinary import required_bits, to_negabinary
from repro.core.quantizer import LinearQuantizer, relative_to_absolute


def _unit_planes(field: np.ndarray, error_bound: float, relative: bool, method: str):
    """Run the IPComp front end and yield each sweep unit's raw bitplane
    matrix: the planes a stream of the field holds per level."""
    field = np.asarray(field, dtype=np.float64)
    eb = relative_to_absolute(error_bound, field) if relative else error_bound
    predictor = InterpolationPredictor(field.shape, method)
    quantizer = LinearQuantizer(eb)
    _, unit_codes, _ = predictor.decompose(field, quantizer)
    for unit, codes in unit_codes.items():
        nbits = required_bits(codes)
        planes = extract_bitplanes(to_negabinary(codes), nbits)
        yield unit, planes


def prefix_coding_entropy(
    field: np.ndarray,
    prefix_bits: int,
    error_bound: float = 1e-6,
    relative: bool = True,
    method: str = "cubic",
) -> float:
    """Average bit entropy of all bitplanes after XOR-prefix prediction.

    ``prefix_bits = 0`` reports the entropy of the raw bitplanes (the
    "Original" column of Table 2); 1–3 reproduce the remaining columns.  The
    average weights every plane equally within a sweep and every sweep by its
    number of planes × elements, i.e. by its share of the raw bit volume.
    """
    weighted = 0.0
    total_bits = 0
    for _, planes in _unit_planes(field, error_bound, relative, method):
        encoded = predictive_encode(planes, prefix_bits)
        for plane in encoded:
            weighted += bit_entropy(plane) * plane.size
            total_bits += plane.size
    return weighted / total_bits if total_bits else 0.0


def prefix_entropy_table(
    field: np.ndarray,
    prefixes: Sequence[int] = (0, 1, 2, 3),
    error_bound: float = 1e-6,
    relative: bool = True,
    method: str = "cubic",
) -> Dict[int, float]:
    """Entropy for each prefix length — one row of Table 2."""
    return {
        int(p): prefix_coding_entropy(field, int(p), error_bound, relative, method)
        for p in prefixes
    }
