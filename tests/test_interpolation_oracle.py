"""Byte-exact oracle for the strided-view interpolation predictor.

:class:`OraclePredictor` is the open-mesh (``np.ix_`` gather/scatter,
full-size ``np.where`` blends) implementation the predictor shipped with
before it moved to basic-slice views.  The production code must evaluate the
same floating-point expression per element, so every output is compared by
``tobytes()`` — not ``array_equal``, which cannot see that ``x + 0.0`` turns
``-0.0`` into ``+0.0`` (the difference a skipped ``+ zeros`` would make).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np
import pytest

from oracle_interpolation import SLACK, packed
from repro.core.interpolation import InterpolationPredictor
from repro.core.quantizer import LinearQuantizer
from repro.errors import ConfigurationError


class OraclePredictor:
    """The ``np.ix_`` reference implementation (kept for tests only)."""

    def __init__(self, shape, method: str = "cubic") -> None:
        self.shape = tuple(int(s) for s in shape)
        self.ndim = len(self.shape)
        self.method = method
        max_dim = max(self.shape)
        self.num_levels = max(1, int(np.ceil(np.log2(max_dim))) if max_dim > 1 else 1)
        self._anchor_indices = tuple(
            np.arange(0, s, 2**self.num_levels, dtype=np.intp) for s in self.shape
        )
        self._passes = {
            level: self._build_level_passes(level)
            for level in range(self.num_levels, 0, -1)
        }
        ordered = [
            p for level in range(self.num_levels, 0, -1) for p in self._passes[level]
        ]
        self.num_units = len(ordered)
        self._unit_passes = {
            self.num_units - index: p for index, p in enumerate(ordered)
        }

    def _build_level_passes(self, level: int) -> List[Tuple[int, int, tuple]]:
        stride = 2**level
        half = stride // 2
        passes = []
        for dim in range(self.ndim):
            axis_indices = []
            for axis, size in enumerate(self.shape):
                if axis < dim:
                    idx = np.arange(0, size, half, dtype=np.intp)
                elif axis == dim:
                    idx = np.arange(half, size, stride, dtype=np.intp)
                else:
                    idx = np.arange(0, size, stride, dtype=np.intp)
                axis_indices.append(idx)
            if axis_indices[dim].size:
                passes.append((level, dim, tuple(axis_indices)))
        return passes

    def _groups(self, granularity: str):
        if granularity == "level":
            return [(l, self._passes[l]) for l in range(self.num_levels, 0, -1)]
        return [(u, [self._unit_passes[u]]) for u in range(self.num_units, 0, -1)]

    def _predict_pass(self, buffer: np.ndarray, p) -> np.ndarray:
        level, dim, axis_indices = p
        half = 2 ** (level - 1)
        size_d = self.shape[dim]
        targets = axis_indices[dim]

        def values_at(offset_indices: np.ndarray) -> np.ndarray:
            axes = list(axis_indices)
            axes[dim] = offset_indices
            return buffer[np.ix_(*axes)]

        left1 = targets - half
        right1 = targets + half
        right1_valid = right1 < size_d
        v_left1 = values_at(left1)
        v_right1 = values_at(np.where(right1_valid, right1, left1))
        mask_shape = [1] * self.ndim
        mask_shape[dim] = targets.size
        linear = 0.5 * (v_left1 + v_right1)
        prediction = np.where(right1_valid.reshape(mask_shape), linear, v_left1)
        if self.method == "cubic":
            left3 = targets - 3 * half
            right3 = targets + 3 * half
            cubic_valid = (left3 >= 0) & (right3 < size_d) & right1_valid
            if cubic_valid.any():
                v_left3 = values_at(np.clip(left3, 0, size_d - 1))
                v_right3 = values_at(np.clip(right3, 0, size_d - 1))
                cubic = (
                    -v_left3 / 16.0
                    + 9.0 * v_left1 / 16.0
                    + 9.0 * v_right1 / 16.0
                    - v_right3 / 16.0
                )
                prediction = np.where(cubic_valid.reshape(mask_shape), cubic, prediction)
        return prediction

    def decompose(self, data, quantizer, granularity="level"):
        data = np.asarray(data, dtype=np.float64)
        xhat = np.zeros(self.shape, dtype=np.float64)
        anchor_mesh = np.ix_(*self._anchor_indices)
        anchor_codes, anchor_dequant = quantizer.roundtrip(data[anchor_mesh])
        xhat[anchor_mesh] = anchor_dequant
        level_codes: Dict[int, np.ndarray] = {}
        for key, passes in self._groups(granularity):
            per_pass = []
            for p in passes:
                mesh = np.ix_(*p[2])
                prediction = self._predict_pass(xhat, p)
                codes, dequant = quantizer.roundtrip(data[mesh] - prediction)
                xhat[mesh] = prediction + dequant
                per_pass.append(codes.ravel())
            level_codes[key] = (
                np.concatenate(per_pass) if per_pass else np.zeros(0, dtype=np.int64)
            )
        return anchor_codes.ravel(), level_codes, xhat

    def transform(self, data, granularity="level"):
        data = np.asarray(data, dtype=np.float64)
        anchor_values = data[np.ix_(*self._anchor_indices)].ravel().copy()
        level_coeffs: Dict[int, np.ndarray] = {}
        for key, passes in self._groups(granularity):
            per_pass = []
            for p in passes:
                prediction = self._predict_pass(data, p)
                per_pass.append((data[np.ix_(*p[2])] - prediction).ravel())
            level_coeffs[key] = (
                np.concatenate(per_pass) if per_pass else np.zeros(0, dtype=np.float64)
            )
        return anchor_values, level_coeffs

    def reconstruct(self, anchor_values, level_diffs, granularity="level"):
        """Adds float diffs: the dequantize-then-add route the predictor's
        ``int64`` codes must match bitwise."""
        xhat = np.zeros(self.shape, dtype=np.float64)
        anchor_shape = tuple(idx.size for idx in self._anchor_indices)
        xhat[np.ix_(*self._anchor_indices)] = np.asarray(
            anchor_values, dtype=np.float64
        ).reshape(anchor_shape)
        for key, passes in self._groups(granularity):
            size = sum(int(np.prod([idx.size for idx in p[2]])) for p in passes)
            diffs = level_diffs.get(key)
            if diffs is None:
                diffs = np.zeros(size, dtype=np.float64)
            diffs = np.asarray(diffs, dtype=np.float64).ravel()
            offset = 0
            for p in passes:
                target_shape = tuple(idx.size for idx in p[2])
                count = int(np.prod(target_shape))
                block = diffs[offset : offset + count].reshape(target_shape)
                xhat[np.ix_(*p[2])] = self._predict_pass(xhat, p) + block
                offset += count
        return xhat


# Extents 1, 2, 3, 5 in every position, powers of two and their neighbours,
# 1-D … 4-D; a slab-like shape (one short axis) is what dataset shards are.
SHAPES = (
    [(n,) for n in (1, 2, 3, 4, 5, 8, 9, 17, 100)]
    + list(itertools.product((1, 2, 3, 5), repeat=2))
    + [(33, 20), (1, 9), (7, 64), (13, 7, 5), (16, 16, 16), (5, 34, 30), (2, 3, 1)]
    + [(4, 4, 4, 4), (3, 5, 2, 9), (1, 6, 1, 7)]
)
METHODS = ("linear", "cubic")
GRANULARITIES = ("level", "sweep")


def _field(shape, seed: int) -> np.ndarray:
    """Rough data sprinkled with signed zeros, denormal and large magnitudes."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=shape), axis=-1)
    flat = data.reshape(-1)
    picks = rng.integers(0, flat.size, size=max(1, flat.size // 4))
    flat[picks] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1e12], size=picks.size)
    return data


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_levels(a: Dict[int, np.ndarray], b: Dict[int, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(_same_bytes(a[k], b[k]) for k in a)


def _regrouped(units: Dict[int, np.ndarray], old: OraclePredictor, granularity: str, dtype):
    """The predictor's per-unit outputs in the oracle's ``granularity``.  Per
    level, a level's units lie end to end, so both groupings flatten to one
    array: the one the SZ3 and MGARD streams hold after the anchors."""
    if granularity == "sweep":
        return units
    arrays = iter(units.values())
    return {
        level: np.concatenate([np.zeros(0, dtype)] + [next(arrays) for _ in old._passes[level]])
        for level in range(old.num_levels, 0, -1)
    }


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_matches_the_open_mesh_oracle(shape, method, granularity):
    """Every path against the oracle grouped per sweep unit, and per level
    (the grouping the baselines' streams were first written in)."""
    new, old = InterpolationPredictor(shape, method), OraclePredictor(shape, method)
    assert (new.num_levels, new.num_units) == (old.num_levels, old.num_units)
    data = _field(shape, seed=len(shape) * 1000 + sum(shape))

    anchors, coeffs = new.transform(data)
    old_anchors, old_coeffs = old.transform(data, granularity)
    assert _same_bytes(anchors, old_anchors)
    assert _same_levels(_regrouped(coeffs, old, granularity, np.float64), old_coeffs)
    assert not np.shares_memory(anchors, data)

    quantizer = LinearQuantizer(1e-3)
    want = old.decompose(data, quantizer, granularity)
    # A 1e12 point's x̂ rounds to its float spacing (1.2e-4) and may miss the
    # bound: the predictor refuses exactly the fields where one does, and
    # the paths are compared at a bound that spacing holds.
    if (np.abs(data - want[2]) > 0.5 * quantizer.bin_width * (1.0 + SLACK)).any():
        with pytest.raises(ConfigurationError, match="apart"):
            new.decompose(data, quantizer)
        quantizer = LinearQuantizer(2.0**7)
        want = old.decompose(data, quantizer, granularity)
    got = new.decompose(data, quantizer)
    assert _same_bytes(got[0], want[0])
    assert _same_levels(_regrouped(got[1], old, granularity, np.int64), want[1])
    assert _same_bytes(got[2], want[2])

    # reconstruct from int64 codes against the oracle's dequantize-then-add:
    # every group, every other group missing, none at all — the latter two
    # are where a −0.0 prediction meets the implicit "+ 0.0".
    anchor_values = quantizer.dequantize(got[0])
    group = {
        new.num_units - i: p.level if granularity == "level" else new.num_units - i
        for i, p in enumerate(new._passes)
    }
    for keep in (lambda i: True, lambda i: i % 2 == 0, lambda i: False):
        kept = [k for i, k in enumerate(want[1]) if keep(i)]
        codes = {u: c for u, c in got[1].items() if group[u] in kept}
        diffs = {k: quantizer.dequantize(want[1][k]) for k in kept}
        assert _same_bytes(
            new.reconstruct(anchor_values, *packed(new, codes), quantizer.bin_width),
            old.reconstruct(anchor_values, diffs, granularity),
        )


@pytest.mark.parametrize("method", METHODS)
def test_negative_zero_predictions_survive_like_the_oracle(method):
    """An all-(−0.0) field: every prediction is −0.0, every diff is +0.0."""
    shape = (9, 6)
    data = np.full(shape, -0.0)
    new, old = InterpolationPredictor(shape, method), OraclePredictor(shape, method)
    anchors = np.full(new.anchor_count, -0.0)
    assert _same_bytes(
        new.reconstruct(anchors, *packed(new, {}), 1.0), old.reconstruct(anchors, {})
    )
    zeros = {k: np.zeros(n, dtype=np.int64) for k, n in new.sweep_sizes.items()}
    assert _same_bytes(
        new.reconstruct(anchors, *packed(new, zeros), 1.0),
        old.reconstruct(anchors, {k: np.zeros(n) for k, n in new.sweep_sizes.items()}, "sweep"),
    )
    assert _same_levels(new.transform(data)[1], old.transform(data, "sweep")[1])
