"""DEFLATE (stdlib ``zlib``) lossless backend.

This is the default back-end of every compressor in the repository.  The
paper's implementation uses zstd; DEFLATE is the closest always-available
stand-in — both are LZ-class dictionary coders followed by entropy coding, so
the §6.2.1 argument about preserving byte-level repetition applies unchanged.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.errors import StreamFormatError

#: The deflate level every stream was written with.
LEVEL = 6


class ZlibCoder:
    """Thin wrapper adding the registry protocol around :mod:`zlib`."""

    name = "zlib"

    def encode(self, data: bytes) -> bytes:
        return zlib.compress(data, LEVEL)

    def decode(self, data: bytes, max_length: Optional[int] = None) -> bytes:
        """Inflate ``data``, at most ``max_length`` bytes of it when given.

        A block read from a stream is untrusted and its reader knows how
        many bytes it must hold, so it never inflates further than that: a
        few KB of deflate can expand to gigabytes.  Whatever a longer stream
        holds past the bound is ignored, unread.
        """
        inflater = zlib.decompressobj()
        try:
            # zlib spells "unbounded" as 0, so a bound of zero bytes asks for one.
            out = inflater.decompress(data, 0 if max_length is None else max(1, max_length))
            # A bounded inflate can stop on its last byte of output, short of
            # the stream's end: ask for one byte more, so that a stream of
            # exactly the expected size still has its checksum verified.
            overrun = b"" if inflater.eof else inflater.decompress(inflater.unconsumed_tail, 1)
        except zlib.error as exc:
            raise StreamFormatError(f"corrupt deflate block ({exc})") from None
        if not inflater.eof and not overrun:
            raise StreamFormatError("deflate block is truncated")
        return out
