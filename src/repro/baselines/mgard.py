"""MGARD-like non-progressive multigrid compressor (refs. [2, 23, 24]).

The non-progressive variant of :mod:`repro.baselines.pmgard`: the same
hierarchical-basis (piecewise-linear multigrid) decomposition, but the
quantized coefficients are entropy coded in one monolithic Huffman + DEFLATE
stream instead of per-bitplane blocks.  It exists so the PMGARD progressive
overhead (per-plane blocks, per-level δ tables) can be measured against its
own non-progressive baseline, mirroring how the paper positions SZ3 vs IPComp.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import LossyCompressor, pack_sections, unpack_sections, validate_field
from repro.baselines.pmgard import _quantizer_refinement
from repro.coders.huffman import decode_symbols, encode_symbols
from repro.coders.zlib_backend import ZlibCoder
from repro.core.interpolation import InterpolationPredictor
from repro.core.quantizer import LinearQuantizer
from repro.errors import StreamFormatError

_QUANT_CAP = 1 << 15
_OUTLIER_SENTINEL = _QUANT_CAP + 1


class MGARDCompressor(LossyCompressor):
    """Hierarchical-basis transform + Huffman + DEFLATE compressor."""

    name = "mgard"

    def __init__(self, error_bound: float = 1e-6, relative: bool = True) -> None:
        super().__init__(error_bound, relative)
        self._zlib = ZlibCoder()

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        eb_user = self.absolute_bound(data)
        predictor = InterpolationPredictor(data.shape, "linear")
        refinement = _quantizer_refinement(data.shape, predictor.num_levels)
        quantizer = LinearQuantizer(eb_user / refinement)

        anchor_values, unit_coeffs = predictor.transform(data)
        symbols = quantizer.quantize(np.concatenate([anchor_values, *unit_coeffs.values()]))

        outlier_mask = np.abs(symbols) > _QUANT_CAP
        outliers = symbols[outlier_mask]
        clipped = symbols.copy()
        clipped[outlier_mask] = _OUTLIER_SENTINEL

        meta = {
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "error_bound": eb_user,
            "quant_bound": quantizer.error_bound,
            "n_outliers": int(outliers.size),
        }
        return pack_sections(
            meta,
            [
                self._zlib.encode(encode_symbols(clipped)),
                self._zlib.encode(outliers.astype(np.int64).tobytes()),
            ],
        )

    def decompress(self, blob: bytes) -> np.ndarray:
        meta, sections = unpack_sections(blob)
        if len(sections) != 2:
            raise StreamFormatError("MGARD stream must contain two sections")
        shape = tuple(meta["shape"])
        predictor = InterpolationPredictor(shape, "linear")
        quantizer = LinearQuantizer(float(meta["quant_bound"]))

        symbols = decode_symbols(self._zlib.decode(sections[0]))
        outliers = np.frombuffer(self._zlib.decode(sections[1]), dtype=np.int64)
        mask = symbols == _OUTLIER_SENTINEL
        symbols = symbols.copy()
        symbols[mask] = outliers

        anchor_count = predictor.anchor_count
        output = predictor.reconstruct(
            quantizer.dequantize(symbols[:anchor_count]),
            symbols[anchor_count:],
            predictor.layout,
            quantizer.bin_width,
        )
        return output.astype(meta["dtype"]).reshape(shape)
