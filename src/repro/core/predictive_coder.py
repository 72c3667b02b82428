"""Predictive bitplane encoder (§4.3 + §4.4), one shard at a time.

This module turns the quantization integers of every interpolation level of
a shard into sequences of *independently decodable blocks*, one per level
and bitplane:

1. signed integers → negabinary codes (:mod:`repro.core.negabinary`);
2. codes → bitplanes, most significant first (:mod:`repro.core.bitplane`);
3. planes → XOR-predicted planes using the two previously loaded planes;
4. every predicted plane → packed bits → a lossless coder chosen by the
   profile's **backend negotiation**: under the default ``"smallest"``
   (a.k.a. *full*) policy each candidate coder trial-encodes the whole
   packed plane and the smallest output wins (ties break toward the earlier
   candidate, so the choice — and therefore the stream — is deterministic).
   The ``"sampled"`` policy trial-encodes only a deterministic prefix of
   the packed plane — autotuned per plane as ≈1/8 of the plane's bytes,
   clamped to ``[MIN_NEGOTIATION_PROBE, profile.negotiation_sample]`` — to
   pick the winner and then encodes the full plane once with it —
   O(candidates × probe) instead of O(candidates × plane) work.  Either way the winning
   coder's name is recorded per plane in
   :attr:`LevelEncoding.plane_coders` and travels in the stream-v2 header,
   so decoding dispatches per ``(level, plane)`` without any out-of-band
   configuration: sampled streams are just as self-describing and
   deterministic as fully negotiated ones (they may merely pick a
   different — still valid — coder for a plane whose prefix is not
   representative).

Steps 1–3 (and the packing of step 4) run on the plane kernel
(:mod:`repro.core.kernels`) through its *shard-wide* hooks
:meth:`~repro.core.kernels.PlaneKernel.encode_planes` /
:meth:`~repro.core.kernels.PlaneKernel.decode_planes`, which take all levels
of the shard in one call (:meth:`PredictiveCoder.encode_levels` /
:meth:`~PredictiveCoder.decode_levels_codes`; the per-level methods are the
shard of one) and sweep them together in one position-major matrix over a
reusable buffer arena.  Lossless decoding stays per plane, and every decoded
row is validated where the batch is assembled.

Alongside the blocks the encoder records the *exact* information-loss table
``δy_l(b)`` — the largest value-domain error introduced at this level when the
``b`` least significant planes are not loaded — which is what the optimized
data loader of §5 consumes (one order-preserving sweep,
:func:`repro.core.negabinary.truncation_errors`).  Using exact per-level
tables (instead of the worst-case negabinary uncertainty formula) tightens
the retrieval plans noticeably on smooth fields where low planes are mostly
zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.coders.backend import Backend, get_backend
from repro.core.kernels import get_kernel
from repro.core.negabinary import truncation_errors
from repro.core.profile import DEFAULT_NEGOTIATION_SAMPLE, CodecProfile
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


#: Floor of the autotuned per-plane probe under ``sampled`` negotiation:
#: below this, prefix statistics are too thin to separate the candidates
#: reliably (and the probe overhead is negligible anyway).
MIN_NEGOTIATION_PROBE = 4096

#: Fraction of the plane the autotuned probe covers: probe ≈ plane/8,
#: clamped to [:data:`MIN_NEGOTIATION_PROBE`, ``negotiation_sample``].
NEGOTIATION_PROBE_FRACTION = 8


def effective_negotiation_sample(nbytes: int, configured: int) -> int:
    """The autotuned per-plane probe size under ``sampled`` negotiation.

    ``configured`` (the profile's ``negotiation_sample``) is an *upper
    bound*; the probe actually used for a plane of ``nbytes`` is::

        min(configured, max(MIN_NEGOTIATION_PROBE, nbytes // 8))

    Large planes probe a fixed fraction (1/8) of their bytes instead of the
    conservative fixed default, so mid-size planes (say 32 KiB) pay a 4 KiB
    probe rather than a full trial, while the probe never exceeds the
    configured cap.  Planes that fit inside the resulting probe keep the
    tiny-plane behaviour: they are fully negotiated (the prefix *is* the
    payload, so probing would cost more than trialling).
    """
    return max(
        1,
        min(int(configured), max(MIN_NEGOTIATION_PROBE, nbytes // NEGOTIATION_PROBE_FRACTION)),
    )


def negotiate_encode(
    data: bytes,
    candidates: Sequence[str],
    coders: Optional[Dict[str, Backend]] = None,
    *,
    policy: str = "smallest",
    sample: int = DEFAULT_NEGOTIATION_SAMPLE,
) -> Tuple[str, bytes]:
    """Encode ``data`` with the best candidate coder; return ``(name, blob)``.

    Under ``policy="smallest"`` (full negotiation) every candidate
    trial-encodes the whole payload and the smallest output wins; ties break
    toward the earlier candidate.  With a single candidate this degenerates
    to a plain encode (the ``"fixed"`` negotiation policy).

    Under ``policy="sampled"`` each candidate trial-encodes two
    deterministic payload prefixes (``probe // 2`` and ``probe`` bytes,
    where the probe is :func:`effective_negotiation_sample` of the payload
    size capped by ``sample``) and its full-payload size is *extrapolated*
    from the affine fit ``size(n) ≈ a + b·n`` — the two-point fit cancels
    per-stream fixed costs (e.g. a Huffman symbol table) that would
    otherwise bias short probes against coders with large headers but low
    per-byte rates.  The predicted winner then encodes the full payload
    exactly once.  Prefixes are deterministic and ties break toward the
    earlier candidate, so the chosen coder — and therefore the stream — is
    deterministic too.  Payloads no longer than the probe fall back to full
    negotiation (the prefix *is* the payload, so probing would cost more
    than trialling).
    """
    if not candidates:
        raise StreamFormatError("no candidate coders to negotiate between")

    resolve = coders.__getitem__ if coders is not None else get_backend
    # The probe only exists under ``sampled`` with a real choice to make;
    # otherwise it is the payload itself and the branch below is skipped.
    probe = (
        effective_negotiation_sample(len(data), sample)
        if policy == "sampled" and len(candidates) > 1
        else len(data)
    )
    if len(data) > probe:
        half = max(1, probe // 2)
        best_name: Optional[str] = None
        best_predicted = 0.0
        for name in candidates:
            coder = resolve(name)
            size_half = len(coder.encode(data[:half]))
            size_probe = len(coder.encode(data[:probe]))
            slope = (size_probe - size_half) / max(1, probe - half)
            predicted = size_probe + slope * (len(data) - probe)
            if best_name is None or predicted < best_predicted:
                best_name, best_predicted = name, predicted
        assert best_name is not None
        return best_name, resolve(best_name).encode(data)

    best_name = None
    best_blob: Optional[bytes] = None
    for name in candidates:
        blob = resolve(name).encode(data)
        if best_blob is None or len(blob) < len(best_blob):
            best_name, best_blob = name, blob
    assert best_name is not None and best_blob is not None
    return best_name, best_blob


class PredictiveCoder:
    """Stateless encoder/decoder shared by compression and retrieval.

    The encode path is configured by a :class:`~repro.core.profile.CodecProfile`
    (candidate coders + negotiation policy + prefix bits); the decode
    path needs no profile — per-plane coder names arrive with the stream
    metadata — so retrieval constructs the coder via :meth:`for_header`.
    """

    def __init__(self, quantizer: LinearQuantizer, profile: Optional[CodecProfile] = None) -> None:
        if profile is None:
            profile = CodecProfile()
        self.quantizer = quantizer
        self.profile = profile
        self.prefix_bits = profile.prefix_bits
        self.anchor_coder = profile.anchor_coder
        self.candidates = profile.candidates
        # One shared instance cache for every stage; the encode candidates
        # (and anchor coder) are resolved once, not per plane.
        self._coders: Dict[str, Backend] = {
            name: get_backend(name) for name in {self.anchor_coder, *self.candidates}
        }

    @classmethod
    def for_header(cls, header, quantizer: LinearQuantizer) -> "PredictiveCoder":
        """A decode-side coder for a parsed stream header.

        Everything that shapes the bytes (prefix bits, anchor coder,
        per-plane coders) comes from the header itself — streams are
        self-describing.  The synthesized profile
        pins the header's anchor coder as the only (fixed) candidate, so the
        coder is fully initialised: re-encoding through it stays coherent
        and ``coder.profile`` is always a real profile.
        """
        try:
            profile = CodecProfile(
                error_bound=header.error_bound,
                relative=False,
                method=header.method,
                prefix_bits=header.prefix_bits,
                anchor_coder=header.anchor_coder,
                plane_coders=(header.anchor_coder,),
                negotiation="fixed",
            )
        except ConfigurationError as exc:
            # Out-of-range header fields are stream corruption, not a caller
            # configuration mistake — keep the errors.py taxonomy honest.
            raise StreamFormatError(f"stream header invalid: {exc}") from None
        return cls(quantizer, profile)

    def _coder(self, name: str) -> Backend:
        try:
            return self._coders[name]
        except KeyError:
            pass
        # The encode-side coders are prefetched from the validated profile in
        # __init__, so a lazy miss can only come from a *stream's* per-plane
        # coder table — an unknown name there is stream corruption (or a
        # foreign coder), not a caller configuration mistake.
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
        policy, sample = self.profile.negotiation, self.profile.negotiation_sample
        encodings: List[LevelEncoding] = []
        for (level, codes), (nbits, packed_planes) in zip(levels, planes):
            blocks: List[bytes] = []
            chosen: List[str] = []
            for packed in packed_planes:
                name, block = negotiate_encode(
                    packed, self.candidates, self._coders, policy=policy, sample=sample
                )
                blocks.append(block)
                chosen.append(name)
            # Integer losses for every b at once; the bin width is the only float.
            delta = truncation_errors(codes, nbits) * self.quantizer.bin_width
            encodings.append(
                LevelEncoding(
                    level=level,
                    count=codes.size,
                    nbits=nbits,
                    plane_blocks=blocks,
                    plane_coders=chosen,
                    delta_table=delta,
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
        raw = self._coder(self.anchor_coder).decode(block)
        codes = np.frombuffer(raw, dtype=np.int64)
        if codes.size != count:
            raise StreamFormatError(
                f"anchor block holds {codes.size} integers, expected {count}"
            )
        return self.quantizer.dequantize(codes)

    def _decode_row(self, encoding_meta: "LevelEncoding", plane: int, block: bytes) -> bytes:
        """Losslessly decode one plane block to its packed ``ceil(count / 8)``-byte row."""
        row = self._coder(encoding_meta.coder_for_plane(plane)).decode(block)
        row_bytes = (encoding_meta.count + 7) // 8
        if len(row) < row_bytes:
            raise StreamFormatError(
                f"level {encoding_meta.level} plane {plane} holds {len(row)} "
                f"bytes, expected {row_bytes}"
            )
        return row[:row_bytes]

    def decode_plane_packed(self, encoding_meta: "LevelEncoding", plane: int, block: bytes) -> np.ndarray:
        """Decode one plane block to its (still XOR-predicted) packed bit row.

        Returns a writable ``uint8`` row of ``ceil(count / 8)`` bytes,
        little-endian bit order — the form Algorithm 2's merge consumes.
        """
        return np.frombuffer(
            self._decode_row(encoding_meta, plane, block), dtype=np.uint8
        ).copy()

    def decode_levels_codes(
        self, levels: Iterable[Tuple["LevelEncoding", Sequence[bytes]]]
    ) -> List[np.ndarray]:
        """Integer codes of a shard's levels from their loaded plane blocks.

        Each pair is a level's metadata and its first ``len(blocks)`` plane
        blocks; unloaded planes count as zero — exactly what Algorithm 1
        feeds into the interpolation reconstruction.  Lossless decoding
        dispatches per plane (the header names a coder for each) and every
        row is validated here, once; the bit-level inverse chain of all
        levels is one kernel hook call.
        """
        batch = []
        for meta, blocks in levels:
            if len(blocks) > meta.nbits:
                raise StreamFormatError("more plane blocks supplied than the level width")
            rows = [self._decode_row(meta, plane, block) for plane, block in enumerate(blocks)]
            batch.append((rows, meta.count, meta.nbits))
        return get_kernel().decode_planes(batch, self.prefix_bits)

    def decode_level_codes(
        self,
        encoding_meta: "LevelEncoding",
        loaded_blocks: Sequence[bytes],
    ) -> np.ndarray:
        """Integer codes of one level: the shard of one (see :meth:`decode_levels_codes`).

        The progressive retriever keeps the integer codes of the current
        fidelity so that incremental refinement (Algorithm 2) can compute the
        exact integer delta contributed by newly loaded planes.
        """
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
