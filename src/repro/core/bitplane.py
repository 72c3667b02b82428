"""Bitplane decomposition and predictive (XOR-prefix) bitplane coding.

Figure 4 of the paper: the quantized integers of every interpolation level are
viewed as a matrix of bits; all bits occupying the same position across the
level form a *bitplane*.  Planes are stored most-significant first so that a
prefix of the plane sequence is exactly a truncated-precision version of the
level.

§4.4.1 then removes the correlation between consecutive planes of the same
integer with predictive coding: the value of a bit is predicted as the XOR of
its ``prefix_bits`` previously-loaded (more significant) bits and only the
prediction error is stored.  Two prefix bits minimise the entropy on the
paper's datasets (Table 2), so 2 is the default here.

The actual bit twiddling lives in :mod:`repro.core.kernels`; the functions
below are thin wrappers that dispatch to a registered kernel (the default
``"auto"`` kernel unless a ``kernel=`` argument selects another), kept
so existing call sites and the paper-facing naming survive the kernel
refactor unchanged.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.kernels import Kernel, get_kernel

DEFAULT_PREFIX_BITS = 2

_KernelArg = Optional[Union[str, Kernel]]


def extract_bitplanes(
    codes: np.ndarray, nbits: int, kernel: _KernelArg = None
) -> np.ndarray:
    """Split unsigned codes into ``nbits`` bitplanes.

    Parameters
    ----------
    codes:
        1-D ``uint64`` array of negabinary codes.
    nbits:
        Number of planes to produce; must cover the largest code.
    kernel:
        Optional kernel name or instance (default ``"auto"``: the fastest
        registered backend, see :func:`repro.core.kernels.resolve_auto_kernel`).

    Returns
    -------
    ndarray
        ``uint8`` array of shape ``(nbits, n)``.  Row 0 is the most
        significant plane (bit position ``nbits − 1``), row ``nbits − 1`` the
        least significant — i.e. rows are in *load order*.
    """
    return get_kernel(kernel).extract_bitplanes(codes, nbits)


def assemble_bitplanes(
    planes: np.ndarray, nbits: int, kernel: _KernelArg = None
) -> np.ndarray:
    """Rebuild codes from the first ``planes.shape[0]`` (most significant) planes.

    Missing (unloaded) low planes are treated as zero, matching the partial
    retrieval semantics of §4.3.
    """
    return get_kernel(kernel).assemble_bitplanes(planes, nbits)


def predictive_encode(
    planes: np.ndarray,
    prefix_bits: int = DEFAULT_PREFIX_BITS,
    kernel: _KernelArg = None,
) -> np.ndarray:
    """XOR-predict every plane from its ``prefix_bits`` predecessors.

    ``encoded[k] = planes[k] ^ planes[k-1] ^ ... ^ planes[k-prefix_bits]``
    (with fewer terms near the top).  ``prefix_bits = 0`` is the identity.
    """
    return get_kernel(kernel).predictive_encode(planes, prefix_bits)


def predictive_decode(
    encoded: np.ndarray,
    prefix_bits: int = DEFAULT_PREFIX_BITS,
    kernel: _KernelArg = None,
) -> np.ndarray:
    """Invert :func:`predictive_encode` plane by plane (top to bottom).

    Decoding only needs the *already decoded* more-significant planes, which is
    precisely why the scheme is compatible with progressive loading: the
    planes available at retrieval time are always a prefix of the sequence.
    """
    return get_kernel(kernel).predictive_decode(encoded, prefix_bits)


def pack_plane(plane: np.ndarray, kernel: _KernelArg = None) -> bytes:
    """Pack one bitplane (uint8 0/1 values) into bytes, little-endian bit order."""
    return get_kernel(kernel).pack_bits(plane)


def unpack_plane(data: bytes, count: int, kernel: _KernelArg = None) -> np.ndarray:
    """Invert :func:`pack_plane`, recovering exactly ``count`` bits."""
    return get_kernel(kernel).unpack_bits(data, count)
