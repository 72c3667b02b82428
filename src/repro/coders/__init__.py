"""Lossless coding substrate.

The paper's IPComp pipeline ends with a lossless back-end (zstd in the
authors' implementation) applied to every independently retrievable block.
This subpackage provides that substrate from scratch:

* :mod:`repro.coders.huffman` — canonical Huffman coder (used by the SZ3
  baseline, matching the paper's description of SZ3 = Huffman + zstd).
* :mod:`repro.coders.rle` — byte run-length coder (cheap pre-pass for very
  sparse bitplanes).
* :mod:`repro.coders.lz77` — a from-scratch byte-level LZ77 coder standing in
  for zstd's match/offset modelling.
* :mod:`repro.coders.zlib_backend` — stdlib DEFLATE wrapper, the default
  production backend (fast and always available).
* :mod:`repro.coders.entropy` — Shannon entropy estimators used by the
  Table 2 reproduction.

Every coder exposes the same two-function interface ``encode(bytes) -> bytes``
and ``decode(bytes) -> bytes`` plus a registry so the compressors can select a
backend by name.
"""

from __future__ import annotations

from repro.coders.backend import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.coders.entropy import bit_entropy, byte_entropy, shannon_entropy
from repro.coders.huffman import HuffmanCoder
from repro.coders.lz77 import LZ77Coder
from repro.coders.rle import RLECoder
from repro.coders.zlib_backend import ZlibCoder

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "HuffmanCoder",
    "LZ77Coder",
    "RLECoder",
    "ZlibCoder",
    "shannon_entropy",
    "byte_entropy",
    "bit_entropy",
]
