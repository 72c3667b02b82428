"""Predictive bitplane encoder (§4.3 + §4.4), one shard at a time.

This module turns the quantization integers of every interpolation level of
a shard into sequences of *independently decodable blocks*, one per level
and bitplane:

1. signed integers → negabinary codes (:mod:`repro.core.negabinary`);
2. codes → bitplanes, most significant first (:mod:`repro.core.bitplane`);
3. planes → XOR-predicted planes using the two previously loaded planes;
4. every predicted plane → packed bits → the one **entropy stage**,
   :func:`negotiate_level`: a plane is deflated, or stored verbatim when
   deflate does not make it smaller (ties go to deflate, so the stream is
   deterministic) — until two planes of the level in a row are stored; the
   rest are stored untried.  Of 54 registry writes (6 datasets × 3 bounds ×
   3 shapes) 53 are byte-identical to trying every plane, the 54th 2 B
   smaller; a field of 64 values grows ≤ 0.8 % (docs/architecture.md).
   The name of what was written (``"zlib"`` or ``"raw"``) is recorded per
   plane in :attr:`LevelEncoding.plane_coders` and travels in the stream-v2
   header, so decoding dispatches per ``(level, plane)`` by name without
   any out-of-band configuration.

Steps 1–3 (and the packing of step 4) run on the plane kernel
(:mod:`repro.core.kernels`) through its *shard-wide* hooks
:meth:`~repro.core.kernels.PlaneKernel.encode_planes` /
:meth:`~repro.core.kernels.PlaneKernel.decode_planes`, which take all levels
of the shard in one call (:meth:`PredictiveCoder.encode_levels` /
:meth:`~PredictiveCoder.decode_levels_codes`; the per-level methods are the
shard of one) and sweep them together in one position-major matrix over a
reusable buffer arena.  Decoding is two steps: lossless decoding stays per
plane (:meth:`PredictiveCoder.decode_row`, which validates every row), and
:meth:`PredictiveCoder.codes_from_rows` is the sweep.  The progressive
retriever calls the two apart — it keeps the validated rows resident and
re-sweeps them on every refinement — so there is one plane decoder.

Alongside the blocks the encoder records the *exact* information-loss table
``δy_l(b)`` — the largest value-domain error introduced at this level when the
``b`` least significant planes are not loaded — which is what the optimized
data loader of §5 consumes (one order-preserving sweep over the whole
shard, :func:`repro.core.negabinary.truncation_error_tables`).  Using exact
per-level tables (instead of the worst-case negabinary uncertainty formula)
tightens the retrieval plans noticeably on smooth fields where low planes are
mostly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coders.backend import Backend, RawCoder, get_backend
from repro.coders.zlib_backend import ZlibCoder
from repro.core.kernels import get_kernel
from repro.core.negabinary import truncation_error_tables
from repro.core.profile import CodecProfile
from repro.core.quantizer import LinearQuantizer
from repro.errors import ConfigurationError, StreamFormatError


@dataclass
class LevelEncoding:
    """Encoded form of one interpolation level.

    Attributes
    ----------
    level:
        Level number (finest = 1).
    count:
        Number of quantization integers in the level.
    nbits:
        Number of bitplanes (width of the widest negabinary code).
    plane_blocks:
        Losslessly compressed blocks, most significant plane first.
    plane_coders:
        Name of the lossless coder each plane block was encoded with,
        parallel to ``plane_blocks`` (and to the header's plane sizes).
    delta_table:
        ``delta_table[b]`` is the exact maximum value-domain error introduced
        at this level when the ``b`` lowest planes are dropped
        (``b = 0 … nbits``).  Not monotone in ``b``: negabinary digits
        alternate in sign, so dropping one more plane can *cancel* loss
        (the lone code 22 = 64 − 42 loses 42 at ``b = 6`` but 22 at
        ``b = 7``); the optimizer treats every ``b`` as its own choice.
    """

    level: int
    count: int
    nbits: int
    plane_blocks: List[bytes] = field(default_factory=list)
    plane_coders: List[str] = field(default_factory=list)
    delta_table: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def plane_sizes(self) -> List[int]:
        """Compressed size in bytes of every plane block."""
        return [len(block) for block in self.plane_blocks]

    @property
    def total_bytes(self) -> int:
        return sum(self.plane_sizes)

    def coder_for_plane(self, plane: int) -> str:
        try:
            return self.plane_coders[plane]
        except IndexError:
            raise StreamFormatError(
                f"level {self.level} has no coder recorded for plane {plane}"
            ) from None


#: The lossless back-end of every plane and anchor block (the paper's zstd).
_DEFLATE = ZlibCoder()


def negotiate_encode(data: bytes) -> Tuple[str, bytes]:
    """The entropy stage of one packed plane; returns ``(name, blob)``.

    ``data`` is deflated; when that is no smaller than ``data`` the plane is
    stored as it is, under the name ``"raw"``.  Ties go to deflate (the
    choice must be deterministic, and this is the one every existing stream
    was written with).  A stored plane *is* ``data``: its size was known
    without making a copy to measure.
    """
    blob = _DEFLATE.encode(data)
    if len(blob) <= len(data):
        return _DEFLATE.name, blob
    return RawCoder.name, data


def negotiate_level(packed_planes: Iterable[bytes]) -> List[Tuple[str, bytes]]:
    """The entropy stage of a level's packed planes, most significant first:
    :func:`negotiate_encode`'s answer until two in a row are stored, then stored."""
    chosen: List[Tuple[str, bytes]] = []
    stored = 0  # planes stored in a row
    for packed in packed_planes:
        name, block = (RawCoder.name, packed) if stored >= 2 else negotiate_encode(packed)
        stored = stored + 1 if name == RawCoder.name else 0
        chosen.append((name, block))
    return chosen


class PredictiveCoder:
    """Stateless encoder/decoder shared by compression and retrieval.

    The encode path takes its prefix bits from a
    :class:`~repro.core.profile.CodecProfile`; the decode path needs no
    profile — prefix bits, the anchor coder and per-plane coder names arrive
    with the stream metadata — so retrieval constructs the coder via
    :meth:`for_header`.
    """

    #: Coder of the anchor block.  Writers always deflate it;
    #: :meth:`for_header` replaces the name with the one the stream carries.
    anchor_coder = ZlibCoder.name

    def __init__(self, quantizer: LinearQuantizer, profile: Optional[CodecProfile] = None) -> None:
        if profile is None:
            profile = CodecProfile()
        self.quantizer = quantizer
        self.profile = profile
        self.prefix_bits = profile.prefix_bits
        # One shared instance cache for every stage, filled by name on
        # first use.
        self._coders: Dict[str, Backend] = {}

    @classmethod
    def for_header(cls, header, quantizer: LinearQuantizer) -> "PredictiveCoder":
        """A decode-side coder for a parsed stream header.

        Everything that shapes the bytes (prefix bits, anchor coder,
        per-plane coders) comes from the header itself — streams are
        self-describing.  The profile built here validates the header's
        lossy-stage fields, so ``coder.profile`` is always a real profile.
        """
        try:
            profile = CodecProfile(
                error_bound=header.error_bound,
                relative=False,
                method=header.method,
                prefix_bits=header.prefix_bits,
            )
        except ConfigurationError as exc:
            # Out-of-range header fields are stream corruption, not a caller
            # configuration mistake — keep the errors.py taxonomy honest.
            raise StreamFormatError(f"stream header invalid: {exc}") from None
        coder = cls(quantizer, profile)
        coder.anchor_coder = header.anchor_coder
        return coder

    def _coder(self, name: str) -> Backend:
        try:
            return self._coders[name]
        except KeyError:
            pass
        # Writers only ever name the two built-in coders, so an unknown name
        # can only come from a *stream's* coder table — stream corruption (or
        # a foreign coder), not a caller configuration mistake.
        try:
            backend = get_backend(name)
        except ConfigurationError:
            raise StreamFormatError(
                f"stream names unknown lossless coder {name!r}"
            ) from None
        self._coders[name] = backend
        return backend

    # ------------------------------------------------------------------ encode

    def encode_levels(
        self, levels: Iterable[Tuple[int, np.ndarray]]
    ) -> List[LevelEncoding]:
        """Encode a shard's ``(level, quantization integers)`` pairs into plane blocks."""
        levels = [
            (level, np.asarray(codes, dtype=np.int64).ravel()) for level, codes in levels
        ]
        # The negabinary → bitplane → XOR-predict → pack chain of every
        # level is one kernel hook call: the whole shard is a single sweep
        # over the kernel's buffer arena.
        planes = get_kernel().encode_planes(
            [codes for _, codes in levels], self.prefix_bits
        )
        # Integer losses of every level and every b in one shard-wide
        # sweep; the bin width is the only float.
        try:
            deltas = truncation_error_tables(
                [(codes, nbits) for (_, codes), (nbits, _) in zip(levels, planes)]
            )
        except OverflowError as error:
            raise ConfigurationError(
                f"error bound {self.quantizer.error_bound!r} is too fine for this "
                f"field: {error}"
            ) from None
        encodings: List[LevelEncoding] = []
        for (level, codes), (nbits, packed_planes), delta in zip(levels, planes, deltas):
            chosen = negotiate_level(packed_planes)
            encodings.append(
                LevelEncoding(
                    level=level,
                    count=codes.size,
                    nbits=nbits,
                    plane_blocks=[block for _, block in chosen],
                    plane_coders=[name for name, _ in chosen],
                    delta_table=delta * self.quantizer.bin_width,
                )
            )
        return encodings

    def encode_level(self, level: int, codes: np.ndarray) -> LevelEncoding:
        """Encode one level: the shard of one (see :meth:`encode_levels`)."""
        return self.encode_levels([(level, codes)])[0]

    def encode_anchor(self, codes: np.ndarray) -> bytes:
        """Encode the (small, always fully loaded) anchor integers."""
        codes = np.asarray(codes, dtype=np.int64).ravel()
        return self._coder(self.anchor_coder).encode(codes.tobytes())

    # ------------------------------------------------------------------ decode

    def decode_anchor(self, block: bytes, count: int) -> np.ndarray:
        """Recover dequantized anchor values from their block."""
        try:
            # Bounded like a plane row, one byte over so that an anchor block
            # that is too long still fails the size check below.
            raw = self._coder(self.anchor_coder).decode(block, 8 * count + 1)
        except StreamFormatError as exc:
            raise StreamFormatError(f"anchor block: {exc}") from None
        if len(raw) != 8 * count:
            raise StreamFormatError(
                f"anchor block holds {len(raw)} bytes, expected {8 * count}"
            )
        codes = np.frombuffer(raw, dtype=np.int64)
        return self.quantizer.dequantize(codes)

    def decode_row(self, encoding_meta: "LevelEncoding", plane: int, block: bytes) -> bytes:
        """Losslessly decode one plane block to its packed ``ceil(count / 8)``-byte row.

        The row is still XOR-predicted — the form the progressive retriever
        keeps resident and :meth:`codes_from_rows` sweeps.
        """
        row_bytes = (encoding_meta.count + 7) // 8
        try:
            # The block is untrusted and the row size is known: the coder
            # inflates no further (a longer row's tail is ignored, as ever).
            row = self._coder(encoding_meta.coder_for_plane(plane)).decode(block, row_bytes)
        except StreamFormatError as exc:
            raise StreamFormatError(
                f"level {encoding_meta.level} plane {plane}: {exc}"
            ) from None
        if len(row) < row_bytes:
            raise StreamFormatError(
                f"level {encoding_meta.level} plane {plane} holds {len(row)} "
                f"bytes, expected {row_bytes}"
            )
        return row[:row_bytes]

    def codes_from_rows(
        self, levels: Iterable[Tuple["LevelEncoding", Sequence[bytes]]]
    ) -> List[np.ndarray]:
        """Integer codes of a shard's levels from their loaded, validated rows.

        Each pair is a level's metadata and its loaded :meth:`decode_row`
        rows, most significant first — a ``(keep, row_bytes)`` ``uint8``
        array or loose byte strings (:data:`repro.core.kernels.LevelPlanes`);
        unloaded planes count as zero — exactly what the interpolation
        reconstruction is fed.  The bit-level inverse chain of all levels
        is one kernel hook call.
        """
        return get_kernel().decode_planes(
            [(rows, meta.count, meta.nbits) for meta, rows in levels], self.prefix_bits
        )

    def decode_levels_codes(
        self, levels: Iterable[Tuple["LevelEncoding", Sequence[bytes]]]
    ) -> List[np.ndarray]:
        """Integer codes of a shard's levels from their loaded plane blocks.

        Each pair is a level's metadata and its first ``len(blocks)`` plane
        blocks.  Lossless decoding dispatches per plane (the header names a
        coder for each) and every row is validated here, once
        (:meth:`decode_row`); the rest is :meth:`codes_from_rows`.
        """
        batch = []
        for meta, blocks in levels:
            if len(blocks) > meta.nbits:
                raise StreamFormatError("more plane blocks supplied than the level width")
            rows = [self.decode_row(meta, plane, block) for plane, block in enumerate(blocks)]
            batch.append((meta, rows))
        return self.codes_from_rows(batch)

    def decode_level_codes(
        self,
        encoding_meta: "LevelEncoding",
        loaded_blocks: Sequence[bytes],
    ) -> np.ndarray:
        """Integer codes of one level: the shard of one (see :meth:`decode_levels_codes`)."""
        return self.decode_levels_codes([(encoding_meta, loaded_blocks)])[0]

    def decode_level(
        self,
        encoding_meta: "LevelEncoding",
        loaded_blocks: Sequence[bytes],
    ) -> np.ndarray:
        """Like :meth:`decode_level_codes` but dequantized to prediction differences."""
        return self.quantizer.dequantize(
            self.decode_level_codes(encoding_meta, loaded_blocks)
        )
