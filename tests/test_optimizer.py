"""Unit tests of the optimized data loader (knapsack DP of §5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IPComp
from repro.core.optimizer import OptimizedLoader
from repro.core.predictive_coder import PredictiveCoder
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever
from repro.core.quantizer import LinearQuantizer
from repro.core.stream import CompressedStore, StreamHeader
from repro.datasets import load_dataset
from repro.errors import ConfigurationError, RetrievalError
from repro.io.dataset import ChunkedDataset


@pytest.fixture(scope="module")
def compressed(rng=None):
    rng = np.random.default_rng(99)
    data = np.cumsum(np.cumsum(rng.normal(size=(28, 26, 22)), axis=0), axis=1)
    comp = IPComp(error_bound=1e-5, relative=True)
    blob = comp.compress(data)
    store = CompressedStore(blob)
    loader = OptimizedLoader(store.header, overhead_bytes=store.overhead_bytes)
    return data, comp.absolute_bound(data), store, loader


def test_full_plan_when_target_equals_eb(compressed):
    _, eb, store, loader = compressed
    plan = loader.plan_for_error_bound(eb)
    assert plan.keep == {enc.level: enc.nbits for enc in store.header.levels}
    assert plan.predicted_error == pytest.approx(eb)


def test_larger_targets_load_fewer_bytes(compressed):
    _, eb, _, loader = compressed
    sizes = [
        loader.plan_for_error_bound(eb * mult).payload_bytes
        for mult in (1, 4, 16, 64, 256, 1024, 4096)
    ]
    assert all(b >= a for a, b in zip(sizes[1:], sizes))  # non-increasing
    assert sizes[-1] < sizes[0]


def test_plan_error_never_exceeds_target(compressed):
    _, eb, _, loader = compressed
    for mult in (1, 2, 10, 100, 1000, 10000):
        target = eb * mult
        plan = loader.plan_for_error_bound(target)
        assert plan.predicted_error <= target * (1 + 1e-12)


def test_infeasible_target_falls_back_to_full_plan(compressed):
    _, eb, store, loader = compressed
    plan = loader.plan_for_error_bound(eb / 10)
    assert plan.keep == {enc.level: enc.nbits for enc in store.header.levels}


def test_size_plans_respect_budget(compressed):
    _, _, store, loader = compressed
    full = loader.plan_for_error_bound(store.header.error_bound)
    for fraction in (0.1, 0.3, 0.5, 0.8):
        budget = int(full.total_bytes * fraction)
        plan = loader.plan_for_size(budget)
        assert plan.total_bytes <= budget


def test_smaller_budgets_never_reduce_error(compressed):
    _, _, store, loader = compressed
    full = loader.plan_for_error_bound(store.header.error_bound)
    errors = [
        loader.plan_for_size(int(full.total_bytes * f)).predicted_error
        for f in (0.8, 0.5, 0.3, 0.15)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


def test_generous_budget_returns_full_plan(compressed):
    _, eb, store, loader = compressed
    plan = loader.plan_for_size(store.total_bytes * 2)
    assert plan.keep == {enc.level: enc.nbits for enc in store.header.levels}
    assert plan.predicted_error == pytest.approx(eb)


def test_budget_below_overhead_rejected(compressed):
    _, _, _, loader = compressed
    with pytest.raises(RetrievalError):
        loader.plan_for_size(loader.overhead_bytes)


def test_bitrate_wrapper_consistent_with_size(compressed):
    data, _, _, loader = compressed
    bitrate = 2.0
    plan = loader.plan_for_bitrate(bitrate)
    assert plan.total_bytes <= bitrate * data.size / 8 + 1
    assert plan.bitrate(data.size) <= bitrate * (1 + 1e-9)


def test_plan_error_and_payload_helpers(compressed):
    _, eb, store, loader = compressed
    keep_none = {enc.level: 0 for enc in store.header.levels}
    keep_all = {enc.level: enc.nbits for enc in store.header.levels}
    assert loader.plan_payload(keep_none) == 0
    assert loader.plan_error(keep_all) == pytest.approx(eb)
    assert loader.plan_error(keep_none) > loader.plan_error(keep_all)


def test_invalid_requests_rejected(compressed):
    _, _, _, loader = compressed
    with pytest.raises(ConfigurationError):
        loader.plan_for_error_bound(0.0)
    with pytest.raises(ConfigurationError):
        loader.plan_for_bitrate(-1.0)
    with pytest.raises(ConfigurationError):
        loader.plan_for_size(0)


def test_loading_plan_bitrate_requires_positive_elements(compressed):
    _, eb, _, loader = compressed
    plan = loader.plan_for_error_bound(eb * 100)
    with pytest.raises(ConfigurationError):
        plan.bitrate(0)


def test_non_monotone_delta_table_is_planned_per_choice():
    """The exact δ table can *fall* as planes are dropped (the lone code
    22 = 64 − 42: keeping only the top plane is worse than keeping none), so
    every keep count must be weighed on its own error, not assumed ordered."""
    eb = 0.5  # bin width 1: errors below read in code units
    coder = PredictiveCoder(LinearQuantizer(eb), CodecProfile(error_bound=eb))
    enc = coder.encode_level(1, np.array([22], dtype=np.int64))
    assert enc.delta_table[::-1].tolist() == [22, 42, 10, 10, 2, 2, 0, 0]  # by keep
    header = StreamHeader(
        shape=(1,), dtype="float64", error_bound=eb, method="linear", prefix_bits=2,
        anchor_coder="zlib", anchor_count=0, anchor_size=0, levels=[enc],
    )
    loader = OptimizedLoader(header)
    one_plane = enc.plane_sizes[0]

    # keep = 0 (free, loses 22) beats keep = 1 (costs a block, loses 42).
    loose = loader.plan_for_error_bound(eb + 30)
    assert loose.keep == {1: 0} and loose.payload_bytes == 0
    assert loose.predicted_error == eb + 22
    # A target between the two skips the lossier keep = 1 for keep = 2.
    tight = loader.plan_for_error_bound(eb + 15)
    assert tight.keep == {1: 2} and tight.predicted_error == eb + 10
    # A budget that affords exactly the top plane leaves it unloaded.
    cheap = loader.plan_for_size(one_plane)
    assert cheap.keep == {1: 0} and cheap.predicted_error == eb + 22


@pytest.fixture(scope="module")
def two_shard_density(tmp_path_factory):
    path = tmp_path_factory.mktemp("hair") / "density.rprc"
    data = load_dataset("density", shape=(32, 34, 30), seed=7)
    ChunkedDataset.write(path, data, error_bound=1e-5, relative=True, n_blocks=2)
    return path, data


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("hair", [1e-12, 1e-14, 1e-15])
def test_a_target_a_hair_above_the_stored_bound_keeps_it(two_shard_density, hair):
    """``err / budget · bins`` passes 2^63 for a budget this small; cast to
    int64 it wrapped negative, the DP took every lossy choice as free, and
    the read came back 85,000× outside its target.  Now only choices that
    lose nothing fit: the plan may skip a plane whose loss is exactly 0, so
    it costs at most the full plan's bytes (16 B fewer here)."""
    path, data = two_shard_density
    with ChunkedDataset(path) as ds:
        full = ds.read()
        target = ds.absolute_bound * (1 + hair)
        with ChunkedDataset(path) as fresh:
            rung = fresh.refine(target)
        for result in (ds.read(target), rung):
            assert np.max(np.abs(result.data - data)) <= target
            assert result.error_bound <= target
            assert result.bytes_loaded <= full.bytes_loaded
        for shard in ds.shards:
            retriever = ds.open_shard(shard.name)
            plan = retriever.plan_request(error_bound=target)
            assert plan.predicted_error == retriever.header.error_bound
            assert plan.payload_bytes <= retriever.loader._full_plan().payload_bytes


def test_any_finite_budget_past_the_full_plan_gets_the_full_plan():
    """Huge but finite budgets used to crash: a Python int past int64 is a
    ``TypeError`` to ``np.isfinite`` and ``int(inf)`` an ``OverflowError``."""
    data = load_dataset("density", shape=(12, 14, 10), seed=3)
    retriever = ProgressiveRetriever(IPComp(error_bound=1e-4, relative=True).compress(data))
    full = retriever.loader._full_plan()
    for request in (
        {"bitrate": 1e300}, {"bitrate": 1e308}, {"bitrate": 10**400},
        {"byte_budget": 2**70}, {"byte_budget": 1e300}, {"byte_budget": 10**400},
    ):
        assert retriever.plan_request(**request) == full, request
    assert retriever.plan_request(error_bound=10**400).payload_bytes == 0
    for bad in (float("nan"), float("inf"), -float("inf"), 0, -1, -(10**400)):
        for key in ("error_bound", "bitrate", "byte_budget"):
            with pytest.raises(ConfigurationError):
                retriever.plan_request(**{key: bad})
