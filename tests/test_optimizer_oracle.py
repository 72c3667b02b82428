"""The planner against its loop oracle: the same plan, bit for bit.

:class:`~repro.core.optimizer.OptimizedLoader` runs one allocation-free
knapsack DP for both retrieval modes and reads its choices back from the DP
vectors.  ``tests/oracle_optimizer.py`` keeps the two straightforward loops
it replaced.  Every plan here — on real shard headers and on synthetic
headers built to tie — must agree on ``keep``, ``predicted_error`` and
``payload_bytes`` exactly, except where the oracle's own ``int64`` cast
overflows; there the test asserts the bound instead.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from oracle_optimizer import OracleLoader

from repro.core.optimizer import DEFAULT_BINS, OptimizedLoader
from repro.core.predictive_coder import LevelEncoding
from repro.core.stream import StreamHeader
from repro.datasets import load_dataset
from repro.datasets.registry import dataset_names
from repro.io.dataset import ChunkedDataset

BOUNDS = (1e-3, 1e-5, 1e-7)


def assert_same_plan(plan, oracle) -> None:
    assert plan.keep == oracle.keep
    assert plan.predicted_error == oracle.predicted_error
    assert plan.payload_bytes == oracle.payload_bytes
    assert plan.overhead_bytes == oracle.overhead_bytes


def oracle_overflows(loader: OptimizedLoader, budget: float) -> bool:
    """Does some shift ``err / budget · bins`` reach 2^63?  There the
    oracle's ``int64`` cast wraps it negative and takes that choice free."""
    return any(
        float(np.max(err / budget * DEFAULT_BINS)) >= 2.0**63
        for _, err in loader._choice_cache.values()
    )


def check_loader(header, overhead: int, rng, n_targets: int, n_budgets: int) -> None:
    new = OptimizedLoader(header, overhead_bytes=overhead)
    old = OracleLoader(header, overhead_bytes=overhead)
    eb = header.error_bound
    for u in rng.uniform(-8.0, 7.0, n_targets):
        target = eb * (1.0 + 10.0**u)
        plan = new.plan_for_error_bound(target)
        if oracle_overflows(new, target - eb):
            assert plan.predicted_error <= target
            continue
        assert_same_plan(plan, old.plan_for_error_bound(target))
    total = new._full_plan().total_bytes
    for budget in rng.integers(overhead + 1, total + 16, n_budgets):
        assert_same_plan(new.plan_for_size(int(budget)), old.plan_for_size(int(budget)))


@pytest.fixture(scope="module")
def shard_headers(tmp_path_factory):
    """(name, bound, header, overhead) for every shard of every registry
    dataset written in 2 shards at three relative bounds."""
    root = tmp_path_factory.mktemp("oracle")
    headers = []
    for name in dataset_names():
        data = load_dataset(name, shape=(20, 22, 18), seed=11)
        for rel in BOUNDS:
            path = root / f"{name}-{rel}.rprc"
            ChunkedDataset.write(path, data, error_bound=rel, relative=True, n_blocks=2, workers=0)
            with ChunkedDataset(path) as ds:
                for shard in ds.shards:
                    retriever = ds.open_shard(shard.name)
                    headers.append(
                        (name, rel, retriever.header, retriever.store.overhead_bytes)
                    )
    return headers


@pytest.mark.parametrize("name", dataset_names())
def test_registry_shard_plans_match_the_oracle(shard_headers, name, local_rng):
    for dataset, _, header, overhead in shard_headers:
        if dataset == name:
            check_loader(header, overhead, local_rng, n_targets=16, n_budgets=10)


def test_the_oracle_is_wrong_past_int64_and_the_planner_is_not(shard_headers):
    """A target a hair above the stored bound: the oracle's wrapped shifts
    make lossy choices free and blow the bound; the planner affords only
    choices that lose nothing (a level's low planes may be all zero)."""
    _, _, header, overhead = shard_headers[0]
    eb = header.error_bound
    target = eb * (1 + 1e-15)
    new = OptimizedLoader(header, overhead_bytes=overhead)
    assert oracle_overflows(new, target - eb)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert OracleLoader(header, overhead_bytes=overhead).plan_for_error_bound(
            target
        ).predicted_error > target
    plan = new.plan_for_error_bound(target)
    assert plan.predicted_error == eb
    assert plan.payload_bytes <= new._full_plan().payload_bytes


def tie_header(rng, method: str) -> StreamHeader:
    """A header built to tie: plane sizes from {0, 4, 4, 9}, so equal sizes
    and zero-size planes are common, and δ tables drawn from four values,
    so entries repeat and rise and fall as planes are dropped."""
    levels = []
    for level in range(rng.integers(1, 7), 0, -1):
        nbits = int(rng.integers(1, 12))
        delta = rng.choice([0.0, 0.25, 0.5, 1.5], size=nbits + 1)
        delta[0] = 0.0  # nothing dropped, nothing lost
        levels.append(
            LevelEncoding(
                level=level,
                count=8,
                nbits=nbits,
                plane_blocks=[bytes(int(s)) for s in rng.choice([0, 4, 4, 9], size=nbits)],
                plane_coders=["raw"] * nbits,
                delta_table=delta,
            )
        )
    return StreamHeader(
        shape=(8 * len(levels),), dtype="float64", error_bound=0.125, method=method,
        prefix_bits=2, anchor_coder="zlib", anchor_count=0, anchor_size=0, levels=levels,
    )


@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_tied_headers_plan_like_the_oracle(method, local_rng):
    for _ in range(60):
        header = tie_header(local_rng, method)
        check_loader(header, 3, local_rng, n_targets=6, n_budgets=6)
        # Targets on the grid of the δ values themselves tie hardest.
        new = OptimizedLoader(header, overhead_bytes=3)
        old = OracleLoader(header, overhead_bytes=3)
        for extra in (0.25, 0.5, 1.0, 1.5, 3.0):
            target = header.error_bound + extra
            assert_same_plan(new.plan_for_error_bound(target), old.plan_for_error_bound(target))
