"""Simple block container file format.

Progressive retrieval only pays off if the storage layer can read *parts* of a
compressed object.  This container stores named binary blocks contiguously and
keeps a JSON directory in the footer, so a reader can open the file, read the
footer, and then fetch exactly the byte ranges of the blocks a retrieval plan
asks for — the same role HDF5 chunked datasets play in the paper's workflow
integration.  The reader counts the bytes it actually touched, which the
benchmarks and examples use to demonstrate end-to-end I/O savings.

Beyond whole-block reads, :meth:`BlockContainerReader.read_range` serves a
sub-range of one block, and :class:`BlockSource` adapts a named block to the
byte-range-source interface of :class:`repro.core.stream.CompressedStore` —
together they let a :class:`~repro.core.progressive.ProgressiveRetriever`
pull individual bitplane blocks of an embedded IPComp stream straight from
the file without ever materialising the stream in memory.

Layout::

    block 0 bytes | block 1 bytes | ... | footer JSON | footer_len:u64 | MAGIC

A **bare IPComp stream** — a file whose tail is not a container's and
whose head is the stream magic — is presented by the reader as a directory
of one block, :data:`STREAM_BLOCK`, spanning the file.  The lock, the
counters, the short-read check and the async twin therefore serve plain
``.ipc`` files too, and this module (with :mod:`repro.io.dataset`) is the
only place that knows the two kinds of file apart.

Every malformed input — truncated footer, bad magic, duplicate or overlapping
directory entries, extents past end-of-file — raises
:class:`~repro.errors.StreamFormatError`, never a bare ``struct`` / ``json``
exception.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.stream import MAGIC as STREAM_MAGIC
from repro.errors import StreamFormatError

MAGIC = b"RPRC"
_TAIL = 12  # footer_len:u64 + MAGIC

#: Name of the one block a bare IPComp stream file is presented as (and of
#: the one shard the dataset and the serving layer report for it).
STREAM_BLOCK = "stream"


def is_container(path: Union[str, Path]) -> bool:
    """True if ``path`` ends with the container magic (cheap tail sniff)."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            handle.seek(0, 2)
            if handle.tell() < _TAIL:
                return False
            handle.seek(-4, 2)
            return handle.read(4) == MAGIC
    except OSError:
        return False


class BlockContainerWriter:
    """Append named blocks to a container file.

    The blocks go to a temporary sibling of ``path`` (same directory, so
    the rename cannot cross a file system); :meth:`close` writes the footer
    and renames it onto ``path`` in one step.  When a ``with`` block raises,
    the temporary file is removed instead and whatever was at ``path``
    before — a previous archive — is left as it was.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._entries: List[Dict[str, object]] = []
        # Exclusive create: a unique name, and the permissions a plain
        # ``open(path, "wb")`` would give.
        self._partial = self.path.with_name(
            f".{self.path.name}.{secrets.token_hex(8)}.partial"
        )
        self._handle = open(self._partial, "xb")
        self._offset = 0
        self._closed = False

    def add_block(self, name: str, data: bytes, metadata: Optional[dict] = None) -> None:
        """Write one named block; names must be unique within the container."""
        if self._closed:
            raise StreamFormatError("container already finalized")
        if any(entry["name"] == name for entry in self._entries):
            raise StreamFormatError(f"duplicate block name {name!r}")
        self._handle.write(data)
        self._entries.append(
            {
                "name": name,
                "offset": self._offset,
                "size": len(data),
                "metadata": metadata or {},
            }
        )
        self._offset += len(data)

    def close(self) -> None:
        """Write the footer directory and move the file onto ``path``."""
        if self._closed:
            return
        self._closed = True
        try:
            footer = json.dumps({"blocks": self._entries}, separators=(",", ":")).encode()
            self._handle.write(footer)
            self._handle.write(struct.pack("<Q", len(footer)))
            self._handle.write(MAGIC)
            self._handle.close()
            os.replace(self._partial, self.path)
        except BaseException:
            self._discard()
            raise

    def _discard(self) -> None:
        """Drop everything written so far; ``path`` is not touched."""
        self._closed = True
        self._handle.close()
        self._partial.unlink(missing_ok=True)

    def __enter__(self) -> "BlockContainerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            self._discard()


class BlockContainerReader:
    """Random access to the blocks of a container with byte accounting.

    Opens either a local path or any **byte-range source** (``size`` +
    ``read_range(offset, length)``) — in particular the resilient remote
    stacks built by :func:`repro.io.aio.open_remote_source`, which is
    how a container served over HTTP is read without any layer above this
    one knowing about networking.  A reader built from a source owns it:
    :meth:`close` — and a constructor that fails — closes the source too.
    """

    def __init__(self, source: Union[str, Path, object]) -> None:
        if hasattr(source, "read_range") and hasattr(source, "size"):
            self.path: Optional[Path] = None
            self._source = source
            self._handle = None
            self._file_size = int(source.size)
        else:
            self.path = Path(source)
            self._source = None
            self._handle = open(self.path, "rb")
            self._handle.seek(0, 2)
            self._file_size = self._handle.tell()
        # Range reads arrive from concurrent request threads (the serving
        # layer shares one pinned reader); seek+read must stay atomic.
        self._lock = threading.Lock()
        self.bytes_read = 0
        #: Number of physical ``read_range`` calls served (the serving-layer
        #: tests assert a warm cache repeat performs zero of them).
        self.n_reads = 0
        #: True when the file is a bare IPComp stream, presented as a
        #: directory of one block named :data:`STREAM_BLOCK`.
        self.is_stream = False
        self._closed = False
        try:
            self._parse_footer()
        except BaseException:
            self.close()
            raise

    def _read_at(self, offset: int, length: int, context: str) -> bytes:
        """Read ``length`` bytes at absolute ``offset``, or fail loud.

        The single physical-read primitive of the reader: backed by the
        locked file handle or the byte-range source, and always validated
        — a short read raises a :class:`StreamFormatError` naming the
        offset instead of handing truncated bytes to the decoder.
        """
        if self._source is not None:
            data = self._source.read_range(offset, length)
        else:
            with self._lock:
                self._handle.seek(offset)
                data = self._handle.read(length)
        return self._checked(data, offset, length, context)

    @staticmethod
    def _checked(data: bytes, offset: int, length: int, context: str) -> bytes:
        """``data`` if it is the ``length`` bytes asked for at ``offset``."""
        if len(data) != length:
            raise StreamFormatError(
                f"{context}: wanted {length} B at offset {offset}, "
                f"got {len(data)}"
            )
        return data

    def _parse_footer(self) -> None:
        file_size = self._file_size
        if file_size < _TAIL:
            raise StreamFormatError("container too small")
        tail = self._read_at(file_size - _TAIL, _TAIL, "container tail")
        footer_len = struct.unpack("<Q", tail[:8])[0]
        self.directory: Dict[str, Dict[str, object]] = {}
        if tail[8:] != MAGIC:
            # The tail decides first: a container's first block is itself an
            # IPComp stream, so both kinds of file *start* with its magic.
            if self._read_at(0, len(STREAM_MAGIC), "stream magic") != STREAM_MAGIC:
                raise StreamFormatError("not a repro block container")
            self.is_stream = True
            self.directory[STREAM_BLOCK] = {
                "name": STREAM_BLOCK, "offset": 0, "size": file_size, "metadata": {},
            }
            return
        if footer_len > file_size - _TAIL:
            raise StreamFormatError("truncated container footer")
        payload_end = file_size - _TAIL - footer_len
        footer_bytes = self._read_at(payload_end, footer_len, "container footer")
        try:
            footer = json.loads(footer_bytes.decode("utf-8"))
            blocks = footer["blocks"]
        except (ValueError, UnicodeDecodeError, KeyError, TypeError) as exc:
            raise StreamFormatError(f"corrupted container footer: {exc}") from None
        extents: List[Tuple[int, int, str]] = []
        try:
            for entry in blocks:
                name = str(entry["name"])
                offset, size = int(entry["offset"]), int(entry["size"])
                metadata = entry.get("metadata", {})
                if not isinstance(metadata, dict):
                    raise StreamFormatError(f"block {name!r} metadata is not an object")
                if name in self.directory:
                    raise StreamFormatError(f"duplicate block name {name!r} in footer")
                if offset < 0 or size < 0 or offset + size > payload_end:
                    raise StreamFormatError(
                        f"block {name!r} extent [{offset}, {offset + size}) "
                        f"outside payload [0, {payload_end})"
                    )
                self.directory[name] = {
                    "name": name, "offset": offset, "size": size, "metadata": metadata,
                }
                extents.append((offset, size, name))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, StreamFormatError):
                raise
            raise StreamFormatError(f"malformed container directory: {exc}") from None
        extents.sort()
        for (off_a, size_a, name_a), (off_b, _, name_b) in zip(extents, extents[1:]):
            if off_a + size_a > off_b:
                raise StreamFormatError(
                    f"blocks {name_a!r} and {name_b!r} overlap in the container"
                )

    @property
    def file_size(self) -> int:
        """Total size of the backing file or remote object in bytes."""
        return self._file_size

    def block_names(self) -> List[str]:
        return list(self.directory)

    def block_size(self, name: str) -> int:
        return int(self._entry(name)["size"])

    def metadata(self, name: str) -> dict:
        return dict(self._entry(name)["metadata"])

    def _entry(self, name: str) -> Dict[str, object]:
        try:
            return self.directory[name]
        except KeyError:
            raise StreamFormatError(f"container has no block {name!r}") from None

    def read_block(self, name: str) -> bytes:
        entry = self._entry(name)
        return self.read_range(name, 0, int(entry["size"]))

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting ``offset`` bytes into block ``name``.

        This is the partial-read primitive progressive retrieval builds on:
        a retriever backed by :class:`BlockSource` fetches exactly the plane
        blocks its plan selected, and ``bytes_read`` accounts for them.
        """
        start, context = self._extent(name, offset, length)
        data = self._read_at(start, length, context)
        self._count(length)
        return data

    def _extent(self, name: str, offset: int, length: int) -> Tuple[int, str]:
        """File offset of ``length`` bytes at ``offset`` into block ``name``,
        and the context a short read of them is reported in — the lookup
        and bounds check of both range reads."""
        if self._closed:
            raise StreamFormatError("container reader is closed")
        entry = self._entry(name)
        size = int(entry["size"])
        if offset < 0 or length < 0 or offset + length > size:
            raise StreamFormatError(
                f"range [{offset}, {offset + length}) outside block "
                f"{name!r} of {size} bytes"
            )
        return (
            int(entry["offset"]) + offset,
            f"container truncated inside block {name!r} (block offset {offset})",
        )

    def _count(self, length: int) -> None:
        """Charge one physical read of ``length`` bytes."""
        with self._lock:
            self.bytes_read += length
            self.n_reads += 1

    @property
    def supports_async(self) -> bool:
        """True when the backing source can serve event-loop range reads
        (the :class:`~repro.io.aio.AsyncPrefetcher` capability probe)."""
        return self._source is not None and getattr(
            self._source, "supports_async", False
        )

    async def aread_range(self, name: str, offset: int, length: int) -> bytes:
        """Async twin of :meth:`read_range` over an async-capable source.

        Same validation, error messages and byte accounting; used by the
        event-loop prefetcher to multiplex block reads without a thread hop.
        """
        start, context = self._extent(name, offset, length)
        data = self._checked(
            await self._source.aread_range(start, length), start, length, context
        )
        self._count(length)
        return data

    def source(self, name: str) -> "BlockSource":
        """A byte-range source over one block (for ``CompressedStore``)."""
        return BlockSource(self, name)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
            elif self._source is not None:
                closer = getattr(self._source, "close", None)
                if closer is not None:
                    closer()

    def __enter__(self) -> "BlockContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BlockSource:
    """Byte-range-source view of one container block.

    Implements the ``size`` / ``read_range`` interface of
    :class:`repro.core.stream.BytesSource`, so an IPComp stream stored as a
    container block — or a bare stream file, the reader's one block — can
    back a :class:`~repro.core.stream.CompressedStore` directly.  Each read
    is forwarded to the container, which validates its length and counts it
    (``bytes_read`` / ``n_reads``); what a request *consumed* is recorded
    one layer up, by the store.
    """

    def __init__(self, reader: BlockContainerReader, name: str) -> None:
        self._reader = reader
        self.name = name
        self.size = reader.block_size(name)

    def read_range(self, offset: int, length: int) -> bytes:
        return self._reader.read_range(self.name, offset, length)

    @property
    def supports_async(self) -> bool:
        return self._reader.supports_async

    async def aread_range(self, offset: int, length: int) -> bytes:
        """Async twin of :meth:`read_range` (event-loop prefetch path)."""
        return await self._reader.aread_range(self.name, offset, length)
