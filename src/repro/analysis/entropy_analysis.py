"""Table 2 reproduction: entropy of predictive bitplane coding.

The paper quantifies how much the XOR-prefix prediction of §4.4.1 lowers the
zero-order entropy of the bitplane streams (lower entropy → better
compressibility by the lossless backend).  ``prefix_coding_entropy`` runs the
full IPComp front end (interpolation + quantization) on a field, packs every
sweep unit's planes with the plane kernel the writer uses
(:meth:`repro.core.kernels.PlaneKernel.encode_planes`) and reports the
plane-size-weighted average bit entropy for a given number of prefix bits;
``prefix_entropy_table`` sweeps 0–3 prefix bits, which is exactly the content
of Table 2.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.coders.entropy import binary_entropy
from repro.core.interpolation import InterpolationPredictor
from repro.core.kernels import get_kernel
from repro.core.quantizer import LinearQuantizer, relative_to_absolute


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
    field = np.asarray(field, dtype=np.float64)
    eb = relative_to_absolute(error_bound, field) if relative else error_bound
    predictor = InterpolationPredictor(field.shape, method)
    _, unit_codes, _ = predictor.decompose(field, LinearQuantizer(eb))
    levels = list(unit_codes.values())
    weighted = 0.0
    total_bits = 0
    for codes, (nbits, planes) in zip(levels, get_kernel().encode_planes(levels, prefix_bits)):
        count = codes.size
        # A packed plane's pad bits are zero, so its popcount counts its ones.
        rows = np.frombuffer(b"".join(planes), dtype=np.uint8).reshape(nbits, -1)
        for ones in np.unpackbits(rows, axis=1).sum(axis=1).tolist():
            weighted += binary_entropy(ones / count) * count
            total_bits += count
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
