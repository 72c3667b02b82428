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
read it is handed, whatever source sits beneath it.

The unit of decode is the :data:`Segment`, cut from the header alone: a
maximal run of a level's planes stored raw at exactly their packed row size
(contiguous in the stream, so their bytes *are* the rows), or any other
single plane.  :meth:`CompressedStore.read_op` hands out one item per
segment while still charging — and tracing — every block on its own.

The header parse checks the header against the interpolation geometry its
``(shape, method)`` implies (:meth:`StreamHeader._check_geometry`): a
header that contradicts it is a :class:`~repro.errors.StreamFormatError`
before any payload is read.

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
from itertools import accumulate, chain, count
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.coders.backend import RawCoder
from repro.core.interpolation import shared_predictor
from repro.core.predictive_coder import LevelEncoding
from repro.errors import ConfigurationError, StreamFormatError

MAGIC = b"IPC1"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

#: Label of the anchor block in plans and messages (:func:`block_label`).
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
    #: Each level's plane block sizes, MSB first: the sizes a parsed header
    #: lists (its levels carry no blocks), by default the blocks' lengths.
    plane_sizes: Optional[Dict[int, List[int]]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.plane_sizes is None:
            self.plane_sizes = {enc.level: enc.plane_sizes for enc in self.levels}

    @cached_property
    def plane_bytes(self) -> int:
        """Total size of all plane blocks."""
        return sum(map(sum, self.plane_sizes.values()))

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
        return self.anchor_size + self.plane_bytes

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
                    "plane_sizes": (
                        enc.plane_sizes if enc.plane_blocks else self.plane_sizes[enc.level]
                    ),
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
        # One pass over the levels into flat lists — every plane's size and
        # coder, every loss table in one float64 array — checked once and
        # then cut into per-level slices and views.
        if "codecs" in obj:
            codecs = [str(name) for name in obj["codecs"]]
            names = dict(enumerate(codecs))
            version = 2

            def resolve(indices) -> List[str]:
                # One lookup per index; the first outside the table is named.
                try:
                    return list(map(names.__getitem__, map(int, indices)))
                except KeyError as exc:
                    raise StreamFormatError(
                        f"codec index {exc.args[0]} outside the name table "
                        f"of {len(codecs)} entries"
                    ) from None

            (anchor_coder,) = resolve([obj["anchor_coder"]])
        else:  # v1: one implicit backend for anchor and every plane
            anchor_coder = str(obj["backend"])
            version = 1
        items = obj["levels"]
        size_lists = [item["plane_sizes"] for item in items]
        sizes = list(map(int, chain.from_iterable(size_lists)))
        widths = list(map(len, size_lists))
        if version == 1:
            coders = [anchor_coder] * len(sizes)
        else:
            codec_lists = [item["plane_codecs"] for item in items]
            coders = resolve(chain.from_iterable(codec_lists))
            for item, n_codecs, n_sizes in zip(items, map(len, codec_lists), widths):
                if n_codecs != n_sizes:
                    raise StreamFormatError(
                        f"level {item['level']}: {n_codecs} plane codecs "
                        f"for {n_sizes} plane sizes"
                    )
        tables = [item["delta_table"] for item in items]
        deltas = np.array(list(chain.from_iterable(tables)), dtype=np.float64)
        bounds = list(accumulate(widths, initial=0))
        delta_bounds = list(accumulate(map(len, tables), initial=0))
        levels = [
            LevelEncoding(
                int(item["level"]), int(item["count"]), int(item["nbits"]),
                [], coders[a:b], deltas[c:d],
            )
            for item, a, b, c, d in zip(items, bounds, bounds[1:], delta_bounds, delta_bounds[1:])
        ]
        header = cls(
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
            # Plane blocks are not stored in the header; only their sizes.
            plane_sizes={
                enc.level: sizes[a:b] for enc, a, b in zip(levels, bounds, bounds[1:])
            },
        )
        header._check_geometry(sizes, deltas)
        return header

    def _check_geometry(self, sizes: List[int], losses: np.ndarray) -> None:
        """Check a parsed header against the predictor of its ``(shape,
        method)``: its levels are exactly the predictor's sweep units, each
        ``count`` its unit's size and ``anchor_count`` the anchor grid's;
        every level has ``0 ≤ nbits ≤ 64`` planes, a size for each, and a
        finite, non-negative loss table of ``nbits + 1`` entries; no plane
        size is negative; the dtype is a floating one.  ``sizes`` and
        ``losses`` are every plane size and every loss-table entry, flat.  A
        header that fails decodes nothing: it would either decode silently
        at many times its stored bound or fail late, after its payload was
        read."""

        def invalid(reason: str) -> StreamFormatError:
            return StreamFormatError(f"stream header invalid: {reason}")

        try:
            floating = np.issubdtype(np.dtype(self.dtype), np.floating)
        except (TypeError, ValueError):
            floating = False
        if not floating:
            raise invalid(f"dtype {self.dtype!r} is not a floating dtype")
        try:
            predictor = shared_predictor(self.shape, self.method)
        except ConfigurationError as exc:
            raise invalid(str(exc)) from None
        if self.anchor_count != predictor.anchor_count:
            raise invalid(
                f"anchor_count {self.anchor_count}, the anchor grid of shape "
                f"{self.shape} holds {predictor.anchor_count}"
            )
        units = predictor.sweep_sizes
        numbers = [enc.level for enc in self.levels]
        if len(numbers) != len(units) or units.keys() != set(numbers):
            raise invalid(
                f"levels {sorted(numbers)}, a {self.method} predictor of shape "
                f"{self.shape} sweeps units 1…{len(units)}"
            )
        for enc in self.levels:
            if enc.count != units[enc.level]:
                raise invalid(
                    f"level {enc.level} counts {enc.count} values, its sweep "
                    f"{units[enc.level]}"
                )
            if not 0 <= enc.nbits <= 64:
                raise invalid(f"level {enc.level} has {enc.nbits} planes (0…64)")
            # The parse gave every listed plane a size and a coder.
            if len(enc.plane_coders) != enc.nbits:
                raise invalid(
                    f"level {enc.level} lists {len(enc.plane_coders)} plane "
                    f"sizes for {enc.nbits} planes"
                )
            if len(enc.delta_table) != enc.nbits + 1:
                raise invalid(
                    f"level {enc.level} has {enc.delta_table.size} delta_table "
                    f"entries for {enc.nbits} planes"
                )
        if not (np.isfinite(losses).all() and (losses >= 0).all()):
            raise invalid("a delta_table entry is negative or not finite")
        if min(sizes, default=0) < 0:
            raise invalid(f"a plane size is negative ({min(sizes)} B)")


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


#: The unit of decode, ``(level, first, stop, stored)``: planes ``first …
#: stop − 1`` of one level.  A **stored** segment is a maximal run of planes
#: the header lists as ``raw`` at exactly their packed row size,
#: ``ceil(count / 8)`` bytes: adjacent in the stream, so its bytes *are* the
#: run's rows, taken with one copy.  Any other plane — deflated, or raw at
#: another size — is a segment of its own and goes through
#: :meth:`~repro.core.predictive_coder.PredictiveCoder.decode_row`.  A plain
#: tuple: a shard's table holds dozens and an open builds them all.
Segment = Tuple[Optional[int], int, int, bool]


class LevelTable(NamedTuple):
    """Where one level's plane blocks lie: ``starts[p]`` is plane ``p``'s
    stream offset (``starts[nbits]`` the level's end), ``sizes[p]`` its
    size, and ``segments`` cut the planes in order."""

    starts: List[int]
    sizes: List[int]
    segments: List[Segment]


def _segments(enc: LevelEncoding, sizes: List[int]) -> List[Segment]:
    """One level's planes cut into segments (:data:`Segment`), MSB first."""
    row = (enc.count + 7) // 8
    level = enc.level
    segments: List[Segment] = []
    run = -1  # first plane of the stored run being walked, if any
    for plane, coder, size in zip(count(), enc.plane_coders, sizes):
        if coder == RawCoder.name and size == row:
            if run < 0:
                run = plane
            continue
        if run >= 0:
            segments.append((level, run, plane, True))
            run = -1
        segments.append((level, plane, plane + 1, False))
    if run >= 0:
        segments.append((level, run, len(sizes), True))
    return segments


def block_label(level: Optional[int], plane: int) -> str:
    """A block's name in plans and messages: ``"anchor"`` (``level`` is
    ``None``) or ``"L<level>/p<plane>"``."""
    return ANCHOR_BLOCK if level is None else f"L{level}/p{plane}"


def _span_name(level: Optional[int], first: int, stop: int) -> str:
    name = block_label(level, first)
    return name if stop - first == 1 else f"{name}…p{stop - 1}"


def _shown(labels: Tuple[str, ...]) -> str:
    """An op's block labels for a message: all of up to three, else the
    first and the last."""
    return ", ".join(labels if len(labels) <= 3 else (labels[0], "…", labels[-1]))


class BlockExtents:
    """Where each block of a stream lies, known from its header alone.

    ``(header, payload_start)`` is what
    :meth:`IPCompStream.parse_header_source` returns; ``size`` is the
    stream's length, which must hold every block the header lists.  This
    extent table — per level, each plane's offset and size and the level's
    :data:`Segment` cut — is what the planner
    (:func:`repro.retrieval.plan.plan_stream_ops`) walks and what a
    :class:`CompressedStore` (one plus a source to read from) reads by.
    """

    def __init__(self, header: StreamHeader, payload_start: int, size: int) -> None:
        self.header = header
        self.header_bytes = payload_start
        self._anchor_offset = payload_start
        if payload_start + header.payload_bytes() > size:
            raise StreamFormatError("stream shorter than its block directory")

    @cached_property
    def _table(self) -> Dict[Optional[int], LevelTable]:
        # In stream order: the anchor (key ``None``, one segment of one
        # block), then each level (descending level, planes MSB first).
        # Built in one pass on first use: a pinned shard never planned from
        # or read pays only the size check, and every store opened over a
        # pin shares the pin's table.
        header = self.header
        cursor = self.header_bytes + header.anchor_size
        anchor = LevelTable(
            [self.header_bytes, cursor], [header.anchor_size], [(None, 0, 1, False)]
        )
        table: Dict[Optional[int], LevelTable] = {None: anchor}
        for enc in sorted(header.levels, key=attrgetter("level"), reverse=True):
            sizes = header.plane_sizes[enc.level]
            starts = list(accumulate(sizes, initial=cursor))
            cursor = starts[-1]
            table[enc.level] = LevelTable(starts, sizes, _segments(enc, sizes))
        return table

    @property
    def overhead_bytes(self) -> int:
        """Header + anchor block: always loaded regardless of fidelity."""
        return self.header_bytes + self.header.anchor_size

    def anchor_extent(self) -> Tuple[int, int]:
        """``(offset, size)`` of the anchor block within the stream."""
        return self._anchor_offset, self.header.anchor_size

    def block_extent(self, level: int, plane: int) -> Tuple[int, int]:
        """``(offset, size)`` of one plane block."""
        return self.plane_blocks(level, plane, plane + 1)[0]

    def _level(self, level: int, start: int, stop: int) -> LevelTable:
        table = self._table.get(level)
        planes = 0 if table is None else len(table.sizes)
        if start < 0 or stop > planes:
            missing = start if not 0 <= start < planes else planes
            raise StreamFormatError(f"no block for level {level}, plane {missing}")
        return table

    def plane_blocks(self, level: int, start: int, stop: int) -> List[Tuple[int, int]]:
        """``(offset, size)`` of planes ``start … stop − 1`` of one level, in
        stream order: the per-block entries a read of them adds to a
        store's ``trace``."""
        table = self._level(level, start, stop)
        return list(zip(table.starts[start:stop], table.sizes[start:stop]))

    def plane_span(self, level: int, start: int, stop: int) -> Tuple[int, int]:
        """``(offset, size)`` of planes ``start … stop − 1`` of one level as
        one contiguous range — the planner's substrate."""
        starts = self._level(level, start, stop).starts
        return starts[start], starts[stop] - starts[start]


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

    def __init__(self, blob, *, parsed: "BlockExtents | None" = None) -> None:
        self._source = BytesSource(blob) if isinstance(blob, (bytes, bytearray)) else blob
        # An already parsed stream — a dataset pins each shard's parse
        # (:class:`~repro.retrieval.engine.PinnedShard`) — skips the header
        # reads entirely and shares its extent table, so re-opening a stream
        # for a later request touches zero header bytes and builds nothing.
        if parsed is None:
            header, payload_start = IPCompStream.parse_header_source(self._source)
        else:
            header, payload_start = parsed.header, parsed.header_bytes
        super().__init__(header, payload_start, self._source.size)
        if parsed is not None:
            self._table = parsed._table
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

    def _fetch(self, offset: int, size: int, what: Callable[[], str]) -> bytes:
        data = self._source.read_range(offset, size)
        self.n_reads += 1
        if len(data) != size:
            raise StreamFormatError(
                f"short read of {what()}: wanted {size} B at stream offset "
                f"{offset}, got {len(data)}"
            )
        return data

    def _read(self, offset: int, size: int, what: Callable[[], str]) -> bytes:
        data = self._fetch(offset, size, what)
        # Charge only after the read succeeds: a raising or truncating
        # source must not inflate the consumed figures with bytes that
        # never arrived.
        self.bytes_read += size
        self.trace.append((offset, size))
        return data

    def read_anchor(self) -> bytes:
        return self._read(
            self._anchor_offset, self.header.anchor_size, lambda: "the anchor block"
        )

    def read_block(self, level: int, plane: int) -> bytes:
        offset, size = self.block_extent(level, plane)
        return self._read(offset, size, lambda: f"level {level}, plane {plane}")

    def read_op(self, op) -> Iterator[Tuple[Segment, memoryview]]:
        """Read one fetch op (:class:`~repro.retrieval.plan.FetchOp`) with one
        source read; yield ``(segment, bytes)`` per :data:`Segment` of the
        op's spans, in stream order (the anchor as ``(None, 0, 1, False)``).

        Each segment is sliced out of the op's buffer, never copied, and is
        charged — its blocks' ``bytes_read`` and one ``trace`` entry per
        block, exactly as if each block were read alone — as it is handed
        out, so a consumer that raises midway has consumed exactly the
        segments before the one it failed on, that one included.
        """
        offset, end = op.offset, op.offset + op.length
        buffer = memoryview(
            self._fetch(offset, op.length, lambda: f"fetch op [{_shown(op.blocks)}]")
        )
        trace = self.trace
        for level, first, stop in op.spans:
            table = self._table.get(level)
            if table is None or not 0 <= first < stop <= len(table.sizes):
                raise StreamFormatError(f"the stream has no block {_span_name(level, first, stop)}")
            starts, sizes = table.starts, table.sizes
            if starts[first] < offset or starts[stop] > end:
                raise StreamFormatError(
                    f"block {_span_name(level, first, stop)} [{starts[first]}, "
                    f"{starts[stop]}) outside its fetch op [{offset}, {end})"
                )
            for segment in table.segments:
                _, a, b, stored = segment
                if b <= first:
                    continue
                if a >= stop:
                    break
                if a < first or b > stop:  # a stored run the span cuts
                    a, b = max(a, first), min(b, stop)
                    segment = (level, a, b, stored)
                self.bytes_read += starts[b] - starts[a]
                if b - a == 1:
                    trace.append((starts[a], sizes[a]))
                else:
                    trace.extend(zip(starts[a:b], sizes[a:b]))
                yield segment, buffer[starts[a] - offset : starts[b] - offset]

    def reset_accounting(self) -> None:
        """Zero the ``bytes_read`` and ``n_reads`` counters (used between
        retrieval requests)."""
        self.bytes_read = 0
        self.n_reads = 0
