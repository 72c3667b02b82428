"""SZ3-like non-progressive compressor (§6.1.3).

The paper describes SZ3 as "interpolation as prediction, together with
linear-scale quantization, Huffman coding, and zstd lossless coding".  This
baseline follows that pipeline exactly, reusing the same interpolation
predictor as IPComp so that the comparison isolates the *encoding* stage:

* the anchors' and every sweep's quantization integers are concatenated
  into one symbol stream;
* symbols whose magnitude exceeds the quantization-bin capacity are emitted
  as literal "outliers" (SZ3's unpredictable-data path) so the Huffman
  alphabet stays bounded;
* the symbol stream is canonical-Huffman coded and then DEFLATE-compressed
  (the zstd stand-in), which reproduces the Huffman-disrupts-byte-patterns
  effect discussed in §6.2.1.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import LossyCompressor, pack_sections, unpack_sections, validate_field
from repro.coders.huffman import decode_symbols, encode_symbols
from repro.coders.zlib_backend import ZlibCoder
from repro.core.interpolation import InterpolationPredictor
from repro.core.quantizer import LinearQuantizer
from repro.errors import StreamFormatError

#: Symbols with |q| above this go through the outlier path (SZ3 uses 2^15 bins).
_QUANT_CAP = 1 << 15
_OUTLIER_SENTINEL = _QUANT_CAP + 1


class SZ3Compressor(LossyCompressor):
    """Non-progressive interpolation + Huffman + DEFLATE compressor."""

    name = "sz3"

    def __init__(
        self,
        error_bound: float = 1e-6,
        relative: bool = True,
        method: str = "cubic",
    ) -> None:
        super().__init__(error_bound, relative)
        self.method = method
        self._zlib = ZlibCoder()

    # ------------------------------------------------------------ compression

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        eb = self.absolute_bound(data)
        predictor = InterpolationPredictor(data.shape, self.method)
        quantizer = LinearQuantizer(eb)
        anchor_codes, unit_codes, _ = predictor.decompose(data, quantizer)
        symbols = np.concatenate([anchor_codes, *unit_codes.values()])

        outlier_mask = np.abs(symbols) > _QUANT_CAP
        outlier_values = symbols[outlier_mask]
        clipped = symbols.copy()
        clipped[outlier_mask] = _OUTLIER_SENTINEL

        huffman_blob = self._zlib.encode(encode_symbols(clipped))
        outlier_blob = self._zlib.encode(outlier_values.astype(np.int64).tobytes())
        meta = {
            "shape": list(data.shape),
            "dtype": str(data.dtype),
            "error_bound": eb,
            "method": self.method,
            "n_outliers": int(outlier_values.size),
        }
        return pack_sections(meta, [huffman_blob, outlier_blob])

    # ---------------------------------------------------------- decompression

    def decompress(self, blob: bytes) -> np.ndarray:
        meta, sections = unpack_sections(blob)
        if len(sections) != 2:
            raise StreamFormatError("SZ3 stream must contain two sections")
        shape = tuple(meta["shape"])
        eb = float(meta["error_bound"])
        predictor = InterpolationPredictor(shape, meta["method"])
        quantizer = LinearQuantizer(eb)
        count = predictor.total_points()
        n_outliers = int(meta["n_outliers"])
        if not 0 <= n_outliers <= count:
            raise StreamFormatError(f"SZ3 stream declares {n_outliers} outliers of {count} points")

        # Both inflates are bounded by what the field can hold: a symbol's
        # code is at most 64 bits, and the code table (``encode_symbols``'s
        # 24 header bytes, 9 a symbol) lists each distinct symbol once.
        alphabet = min(count, 2 * _QUANT_CAP + 2)
        symbols = decode_symbols(self._zlib.decode(sections[0], 24 + 9 * alphabet + 8 * count))
        if symbols.size != count:
            raise StreamFormatError(
                f"SZ3 stream holds {symbols.size} symbols for a {shape} field of {count}"
            )
        # One byte past the outliers, so that an over-long section shows.
        raw = self._zlib.decode(sections[1], 8 * n_outliers + 1)
        if len(raw) != 8 * n_outliers:
            raise StreamFormatError(
                f"SZ3 outlier section holds {len(raw)} bytes, expected {8 * n_outliers}"
            )
        outliers = np.frombuffer(raw, dtype=np.int64)
        outlier_mask = symbols == _OUTLIER_SENTINEL
        if int(outlier_mask.sum()) != n_outliers:
            raise StreamFormatError("outlier count mismatch in SZ3 stream")
        symbols = symbols.copy()
        symbols[outlier_mask] = outliers

        anchor_count = predictor.anchor_count
        output = predictor.reconstruct(
            quantizer.dequantize(symbols[:anchor_count]),
            symbols[anchor_count:],
            predictor.layout,
            quantizer.bin_width,
        )
        return output.astype(meta["dtype"]).reshape(shape)
