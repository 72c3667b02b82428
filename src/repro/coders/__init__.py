"""Lossless coding substrate.

The paper's IPComp pipeline ends with a lossless back-end (zstd in the
authors' implementation) applied to every independently retrievable block.
This subpackage provides that substrate:

* :mod:`repro.coders.zlib_backend` — stdlib DEFLATE wrapper, the back-end of
  every block (fast and always available), with a bounded inflate for
  blocks read from untrusted streams.
* :mod:`repro.coders.backend` — the name table a stream's coder table
  resolves through: ``zlib`` and ``raw`` (a block stored verbatim because
  deflate would not have made it smaller).
* :mod:`repro.coders.huffman` — canonical Huffman symbol coder (used by the
  SZ3 and MGARD baselines, matching the paper's description of SZ3 =
  Huffman + zstd).
* :mod:`repro.coders.entropy` — Shannon entropy estimators used by the
  Table 2 reproduction.

The two coders expose the same interface, ``encode(bytes) ->
bytes`` and ``decode(bytes, max_length) -> bytes``.
"""

from __future__ import annotations

from repro.coders.backend import (
    Backend,
    available_backends,
    get_backend,
)
from repro.coders.entropy import bit_entropy, byte_entropy, shannon_entropy
from repro.coders.zlib_backend import ZlibCoder

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "ZlibCoder",
    "shannon_entropy",
    "byte_entropy",
    "bit_entropy",
]
