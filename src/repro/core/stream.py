"""IPComp stream format and block-addressable store (Figure 2's block layout).

A compressed IPComp object is a single byte string laid out as::

    magic "IPC1" | version:u16 | header_len:u32 | header (JSON, UTF-8)
    | anchor block | level L planes (MSB→LSB) | level L−1 planes | ... | level 1 planes

The header is deliberately self-describing JSON: it carries everything the
*optimized data loader* needs to make a retrieval plan without touching any
payload block — per-plane compressed sizes and the per-level information-loss
tables ``δy_l(b)``.  Only after planning are the selected blocks actually read,
which is what lets :class:`CompressedStore` report the exact retrieval volume
plotted in Figures 6 and 7 — it is the one recorder of what a request
consumed (``trace``, ``bytes_read``) and it checks the length of every
block it is handed, whatever source sits beneath it.

Two header versions exist (the binary ``version`` word distinguishes them):

* **v1** — one implicit lossless backend for the whole stream, named by the
  header's ``"backend"`` field.
* **v2** (current) — per-``(level, plane)`` codec dispatch: the header holds
  a ``"codecs"`` name table (the coders actually used), the anchor block's
  coder, and per level a ``"plane_codecs"`` index array parallel to the
  plane sizes.  This is where the writer's entropy stage records whether
  a plane was deflated (``"zlib"``) or stored (``"raw"``), and it makes
  every stream self-describing — no compression-time configuration is
  needed to decode one.

Readers accept both: a v1 header is normalised at parse time into the same
in-memory :class:`StreamHeader` (every plane coded by the single backend), so
all downstream code — store, optimizer, retriever — sees one representation.
Writers always produce v2.

The JSON header costs a few kilobytes; for the multi-megabyte scientific
fields the format targets this is negligible and it keeps the format easy to
inspect and to evolve.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.predictive_coder import LevelEncoding
from repro.errors import StreamFormatError

MAGIC = b"IPC1"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

#: Label of the anchor block in a fetch op; a plane block's is ``"L<level>/p<plane>"``.
ANCHOR_BLOCK = "anchor"


class BytesSource:
    """In-memory :class:`CompressedStore` source: byte-range reads of a blob.

    Any object with the same two members — ``size`` and
    ``read_range(offset, length)`` — can back a store, which is how the
    on-disk container (:mod:`repro.io`) serves IPComp streams without ever
    materialising them: the retriever asks for exactly the block ranges its
    plan selected and the source translates them into file reads.
    """

    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self.size = len(blob)

    def read_range(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.size:
            raise StreamFormatError(
                f"read of [{offset}, {offset + length}) past stream end {self.size}"
            )
        return self._blob[offset : offset + length]


@dataclass
class StreamHeader:
    """Decoded header of an IPComp stream (v1 and v2 normalise to this)."""

    shape: Tuple[int, ...]
    dtype: str
    error_bound: float
    method: str
    prefix_bits: int
    anchor_coder: str
    anchor_count: int
    anchor_size: int
    levels: List[LevelEncoding] = field(default_factory=list)
    version: int = VERSION

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 0

    def level(self, number: int) -> LevelEncoding:
        for enc in self.levels:
            if enc.level == number:
                return enc
        raise StreamFormatError(f"stream has no level {number}")

    def payload_bytes(self) -> int:
        """Total size of anchor + all plane blocks (excluding the header)."""
        return self.anchor_size + sum(
            sum(header_plane_sizes(enc)) for enc in self.levels
        )

    def codec_names(self) -> Tuple[str, ...]:
        """Every lossless coder this stream uses (anchor + planes), sorted."""
        used = {self.anchor_coder}
        for enc in self.levels:
            used.update(enc.plane_coders)
        return tuple(sorted(used))

    def to_json(self) -> dict:
        codecs = list(self.codec_names())
        index = {name: i for i, name in enumerate(codecs)}
        return {
            "shape": list(self.shape),
            "dtype": self.dtype,
            "error_bound": self.error_bound,
            "method": self.method,
            "prefix_bits": self.prefix_bits,
            "codecs": codecs,
            "anchor_coder": index[self.anchor_coder],
            "anchor_count": self.anchor_count,
            "anchor_size": self.anchor_size,
            "levels": [
                {
                    "level": enc.level,
                    "count": enc.count,
                    "nbits": enc.nbits,
                    "plane_sizes": header_plane_sizes(enc),
                    "plane_codecs": [index[name] for name in enc.plane_coders],
                    # Stored rounded *up* to 5 significant digits: keeps the
                    # header small without ever under-stating the information
                    # loss (the optimizer's guarantee stays valid).
                    "delta_table": [
                        float(f"{float(v) * 1.0001:.4e}") if v else 0.0
                        for v in enc.delta_table
                    ],
                }
                for enc in self.levels
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StreamHeader":
        """Decode a header object — either the v2 or the legacy v1 shape.

        Every malformed shape — missing keys, wrong types, codec indices
        outside the name table — surfaces as :class:`StreamFormatError`.
        """
        try:
            return cls._from_json(obj)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, StreamFormatError):
                raise
            raise StreamFormatError(f"malformed stream header: {exc!r}") from None

    @classmethod
    def _from_json(cls, obj: dict) -> "StreamHeader":
        if "codecs" in obj:
            codecs = [str(name) for name in obj["codecs"]]
            version = 2

            def resolve(index) -> str:
                index = int(index)
                if not 0 <= index < len(codecs):
                    raise StreamFormatError(
                        f"codec index {index} outside the name table "
                        f"of {len(codecs)} entries"
                    )
                return codecs[index]

            anchor_coder = resolve(obj["anchor_coder"])

            def plane_coders(item: dict) -> List[str]:
                return [resolve(i) for i in item["plane_codecs"]]

        else:  # v1: one implicit backend for anchor and every plane
            backend = str(obj["backend"])
            anchor_coder = backend
            version = 1

            def plane_coders(item: dict) -> List[str]:
                return [backend] * len(item["plane_sizes"])

        levels = []
        for item in obj["levels"]:
            sizes = [int(s) for s in item["plane_sizes"]]
            coders = plane_coders(item)
            if len(coders) != len(sizes):
                raise StreamFormatError(
                    f"level {item['level']}: {len(coders)} plane codecs "
                    f"for {len(sizes)} plane sizes"
                )
            enc = LevelEncoding(
                level=int(item["level"]),
                count=int(item["count"]),
                nbits=int(item["nbits"]),
                plane_blocks=[],
                plane_coders=coders,
                delta_table=np.asarray(item["delta_table"], dtype=np.float64),
            )
            # Plane blocks are not stored in the header; only their sizes.
            enc._header_plane_sizes = sizes  # type: ignore[attr-defined]
            levels.append(enc)
        return cls(
            shape=tuple(int(s) for s in obj["shape"]),
            dtype=str(obj["dtype"]),
            error_bound=float(obj["error_bound"]),
            method=str(obj["method"]),
            prefix_bits=int(obj["prefix_bits"]),
            anchor_coder=anchor_coder,
            anchor_count=int(obj["anchor_count"]),
            anchor_size=int(obj["anchor_size"]),
            levels=levels,
            version=version,
        )


def header_plane_sizes(enc: LevelEncoding) -> List[int]:
    """Plane sizes of a level, whether it came from an encoder or a header."""
    if enc.plane_blocks:
        return enc.plane_sizes
    return list(getattr(enc, "_header_plane_sizes", []))


class IPCompStream:
    """Serializer: assemble header + blocks into one byte string and back."""

    @staticmethod
    def serialize(
        header: StreamHeader,
        anchor_block: bytes,
        level_encodings: List[LevelEncoding],
    ) -> bytes:
        header_json = json.dumps(header.to_json(), separators=(",", ":")).encode("utf-8")
        header_json = zlib.compress(header_json, 9)
        out = bytearray()
        out += MAGIC
        out += struct.pack("<HI", VERSION, len(header_json))
        out += header_json
        out += anchor_block
        for enc in sorted(level_encodings, key=lambda e: -e.level):
            for block in enc.plane_blocks:
                out += block
        return bytes(out)

    @staticmethod
    def prefix_length(blob: bytes) -> int:
        """The payload offset of a stream this process serialized: magic,
        version/length word and header, from the length word alone (no
        inflate, no JSON — a reader parses with :meth:`parse_header_source`)."""
        if len(blob) < 10 or blob[:4] != MAGIC:
            raise StreamFormatError("not an IPComp stream (bad magic)")
        return 10 + struct.unpack_from("<I", blob, 6)[0]

    @staticmethod
    def parse_header(blob: bytes) -> Tuple[StreamHeader, int]:
        """Return ``(header, payload_offset)`` without touching payload bytes."""
        return IPCompStream.parse_header_source(BytesSource(blob))

    @staticmethod
    def parse_header_source(source) -> Tuple[StreamHeader, int]:
        """Parse the header via byte-range reads of any ``BytesSource``-like.

        Reads only the prefix of the stream (magic + length word + header
        JSON), so a file- or network-backed source pays for exactly the
        header bytes — the payload blocks stay untouched until a retrieval
        plan asks for them.
        """
        if source.size < 10:
            raise StreamFormatError("truncated IPComp header")
        prefix = source.read_range(0, 10)
        if prefix[:4] != MAGIC:
            raise StreamFormatError("not an IPComp stream (bad magic)")
        version, header_len = struct.unpack_from("<HI", prefix, 4)
        if version not in SUPPORTED_VERSIONS:
            raise StreamFormatError(
                f"unsupported stream version {version} "
                f"(supported: {SUPPORTED_VERSIONS})"
            )
        start = 10
        end = start + header_len
        if end > source.size:
            raise StreamFormatError("truncated IPComp header")
        try:
            header_json = zlib.decompress(source.read_range(start, header_len))
        except zlib.error as exc:
            raise StreamFormatError(f"corrupted IPComp header: {exc}") from None
        try:
            obj = json.loads(header_json.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise StreamFormatError(f"malformed stream header: {exc!r}") from None
        header = StreamHeader.from_json(obj)  # normalises its own errors
        if header.version != version:
            raise StreamFormatError(
                f"stream version word says {version} but the header body "
                f"is version {header.version}"
            )
        return header, end


class BlockExtents:
    """Where each block of a stream lies, known from its header alone.

    ``(header, payload_start)`` is what
    :meth:`IPCompStream.parse_header_source` returns; ``size`` is the
    stream's length, which must hold every block the header lists.  This
    extent table is what the planner (:func:`repro.retrieval.plan.plan_stream_ops`)
    walks; a :class:`CompressedStore` is one plus a source to read from.
    """

    def __init__(self, header: StreamHeader, payload_start: int, size: int) -> None:
        self.header = header
        self.header_bytes = payload_start
        self._anchor_offset = payload_start
        if payload_start + header.payload_bytes() > size:
            raise StreamFormatError("stream shorter than its block directory")

    @cached_property
    def _planes(self) -> Dict[int, List[Tuple[int, int, str]]]:
        # Per level, ``(offset, size, fetch-op label)`` of each plane block,
        # most significant first.  Built on the first block lookup: a
        # pinned shard that is never planned from pays only the size check.
        planes: Dict[int, List[Tuple[int, int, str]]] = {}
        cursor = self.header_bytes + self.header.anchor_size
        for enc in sorted(self.header.levels, key=lambda e: -e.level):
            blocks = planes[enc.level] = []
            for plane, size in enumerate(header_plane_sizes(enc)):
                blocks.append((cursor, size, f"L{enc.level}/p{plane}"))
                cursor += size
        return planes

    @cached_property
    def _labelled(self) -> Dict[str, Tuple[Optional[Tuple[int, int]], int, int]]:
        # Fetch-op label → (``(level, plane)`` or ``None`` for the anchor,
        # offset, size): how a store finds the blocks inside an op.
        labelled = {ANCHOR_BLOCK: (None, self._anchor_offset, self.header.anchor_size)}
        for level, blocks in self._planes.items():
            for plane, (offset, size, label) in enumerate(blocks):
                labelled[label] = ((level, plane), offset, size)
        return labelled

    @property
    def overhead_bytes(self) -> int:
        """Header + anchor block: always loaded regardless of fidelity."""
        return self.header_bytes + self.header.anchor_size

    def anchor_extent(self) -> Tuple[int, int]:
        """``(offset, size)`` of the anchor block within the stream."""
        return self._anchor_offset, self.header.anchor_size

    def block_extent(self, level: int, plane: int) -> Tuple[int, int]:
        """``(offset, size)`` of one plane block."""
        offset, size, _ = self.plane_blocks(level, plane, plane + 1)[0]
        return offset, size

    def plane_blocks(self, level: int, start: int, stop: int) -> List[Tuple[int, int, str]]:
        """``(offset, size, label)`` of planes ``start … stop − 1`` of one
        level, in stream order — the planner's substrate."""
        blocks = self._planes.get(level, [])
        if start < 0 or stop > len(blocks):
            missing = start if not 0 <= start < len(blocks) else len(blocks)
            raise StreamFormatError(f"no block for level {level}, plane {missing}")
        return blocks[start:stop]


class CompressedStore(BlockExtents):
    """Random access to the blocks of a serialized IPComp stream.

    ``blob`` is either the in-memory byte string or any *byte-range source*
    (``size`` attribute + ``read_range(offset, length)`` method, see
    :class:`BytesSource`); a file-backed source lets the progressive
    retriever pull individual plane blocks straight off disk.

    The store tracks how many payload bytes have actually been read
    (``bytes_read``), which is the quantity the paper's retrieval-volume
    figures report, plus the unavoidable header/anchor overhead
    (``overhead_bytes``).

    ``trace`` is the one record of what a request **consumed**: the
    ``(offset, length)`` of every block the store handed out, in order,
    never reset.  It always begins with the two header ranges — ``(0, 10)``
    and ``(10, payload_start - 10)`` — whether the store parsed the header
    itself or was handed ``parsed=``, so a request reports the same ranges
    however its header was obtained.  Whatever sits between the store and
    the bytes (a prime cache, a container block, a remote stack) keeps no
    list of its own: the engine, the pool worker and the serving layer all
    report ``retriever.store.trace``.  A fetch op (:meth:`read_op`) is one
    source read but one trace entry per block it carries, so the record
    does not depend on how the reads were grouped; ``n_reads`` counts the
    source reads themselves.
    """

    def __init__(self, blob, *, parsed: "Tuple[StreamHeader, int] | None" = None) -> None:
        self._source = BytesSource(blob) if isinstance(blob, (bytes, bytearray)) else blob
        # A pre-parsed ``(header, payload_offset)`` pair skips the header
        # reads entirely — a dataset pins each shard's parse
        # (:class:`~repro.retrieval.engine.PinnedShard`), so re-opening a
        # stream for a later request touches zero header bytes.
        header, payload_start = (
            IPCompStream.parse_header_source(self._source) if parsed is None else parsed
        )
        super().__init__(header, payload_start, self._source.size)
        self.bytes_read = 0
        #: Source reads issued since the last :meth:`reset_accounting` (one
        #: per fetch op or single block) — a serve's ``physical_reads``.
        self.n_reads = 0
        self.trace: List[Tuple[int, int]] = [(0, 10), (10, payload_start - 10)]

    @property
    def total_bytes(self) -> int:
        """Size of the whole compressed object."""
        return self._source.size

    @property
    def source(self):
        """The byte-range source backing this store (planner/prefetch hook)."""
        return self._source

    # ------------------------------------------------------------------ reads

    def _fetch(self, offset: int, size: int, what: str) -> bytes:
        data = self._source.read_range(offset, size)
        self.n_reads += 1
        if len(data) != size:
            raise StreamFormatError(
                f"short read of {what}: wanted {size} B at stream offset "
                f"{offset}, got {len(data)}"
            )
        return data

    def _read(self, offset: int, size: int, what: str) -> bytes:
        data = self._fetch(offset, size, what)
        # Charge only after the read succeeds: a raising or truncating
        # source must not inflate the consumed figures with bytes that
        # never arrived.
        self.bytes_read += size
        self.trace.append((offset, size))
        return data

    def read_anchor(self) -> bytes:
        return self._read(self._anchor_offset, self.header.anchor_size, "the anchor block")

    def read_block(self, level: int, plane: int) -> bytes:
        offset, size = self.block_extent(level, plane)
        return self._read(offset, size, f"level {level}, plane {plane}")

    def read_op(self, op) -> Iterator[Tuple[Optional[Tuple[int, int]], memoryview]]:
        """Read one fetch op (:class:`~repro.retrieval.plan.FetchOp`) with one
        source read; yield ``((level, plane) or None for the anchor, bytes)``
        per block it carries.

        Each block is sliced out of the op's buffer, never copied, and is
        charged — one ``trace`` entry, checked to lie inside the op — as it
        is handed out, so a consumer that raises midway has consumed
        exactly the blocks before the one it failed on.
        """
        shown = op.blocks if len(op.blocks) <= 3 else (op.blocks[0], "…", op.blocks[-1])
        buffer = memoryview(
            self._fetch(op.offset, op.length, f"fetch op [{', '.join(shown)}]")
        )
        labelled = self._labelled
        for label in op.blocks:
            try:
                key, offset, size = labelled[label]
            except KeyError:
                raise StreamFormatError(f"the stream has no block {label!r}") from None
            start = offset - op.offset
            if start < 0 or start + size > op.length:
                raise StreamFormatError(
                    f"block {label} [{offset}, {offset + size}) outside its "
                    f"fetch op [{op.offset}, {op.offset + op.length})"
                )
            self.bytes_read += size
            self.trace.append((offset, size))
            yield key, buffer[start : start + size]

    def reset_accounting(self) -> None:
        """Zero the ``bytes_read`` and ``n_reads`` counters (used between
        retrieval requests)."""
        self.bytes_read = 0
        self.n_reads = 0
