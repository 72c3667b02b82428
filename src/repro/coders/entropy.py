"""Shannon entropy estimators.

Table 2 of the paper compares the zero-order entropy of raw bitplane streams
against the entropy after predictive (XOR-prefix) coding with 1, 2, or 3
prefix bits; lower entropy indicates better downstream compressibility.  The
functions here compute exactly that quantity.
"""

from __future__ import annotations

import numpy as np


def shannon_entropy(symbols: np.ndarray) -> float:
    """Zero-order Shannon entropy in bits/symbol of an integer array."""
    flat = np.asarray(symbols).ravel()
    if flat.size == 0:
        return 0.0
    _, counts = np.unique(flat, return_counts=True)
    probabilities = counts / flat.size
    return float(-(probabilities * np.log2(probabilities)).sum())


def binary_entropy(p1: float) -> float:
    """Entropy in bits/bit of a binary source emitting 1 with probability ``p1``."""
    if p1 in (0.0, 1.0):
        return 0.0
    p0 = 1.0 - p1
    return float(-(p0 * np.log2(p0) + p1 * np.log2(p1)))


def bit_entropy(bits: np.ndarray) -> float:
    """Entropy of a binary stream in bits/bit (between 0 and 1)."""
    flat = np.asarray(bits).ravel().astype(np.uint8)
    if flat.size == 0:
        return 0.0
    return binary_entropy(float(flat.mean()))


def byte_entropy(data: bytes) -> float:
    """Zero-order entropy in bits/byte of a byte string."""
    if not data:
        return 0.0
    arr = np.frombuffer(data, dtype=np.uint8)
    return shannon_entropy(arr)
