"""The retriever as one state machine, and the default path.

``ProgressiveRetriever.retrieve`` is the only transition: load the blocks
the plan adds into the resident packed rows, then rebuild the output from
them.  Its contract is exact — after every successful call the data is
bitwise what a fresh retriever returns at the same ``current_keep``, the
error is within the reported bound, no range was consumed twice and
``cumulative_bytes`` is the sum of the store's trace — under every
``prefix_bits``, level sizes that are not a multiple of eight (the pad bits
of the last packed byte), every kind of target, and reads that fail midway.

NB: module-local rngs only — the session-scoped ``rng`` fixture is shared.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ChunkedDataset, IPComp, ProgressiveRetriever
from repro.core.stream import BytesSource
from repro.errors import StreamFormatError
from repro.io.faults import FaultInjector, FaultPlan
from repro.service import RetrievalService


def _field(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return base + 0.05 * rng.normal(size=shape)


def _flaky(blob):
    """``(injector, retriever)`` over ``blob`` behind a fault injector that
    injects nothing until :func:`_fail_read` arms it."""
    injector = FaultInjector(FaultPlan.never())
    return injector, ProgressiveRetriever(injector.wrap(BytesSource(blob)))


def _fail_read(injector, k: int, kind: str = "raise") -> None:
    """Arm one fault on the ``k``-th read from now (1-based)."""
    injector.plan = FaultPlan.at({injector.total_reads + k}, kind=kind)


def _assert_consistent(retriever, blob, field=None, result=None) -> None:
    """The state-machine invariants, checked against a fresh retriever."""
    trace = retriever.store.trace
    assert retriever.cumulative_bytes == sum(n for _, n in trace)
    consumed = [r for r in trace if r[1]]
    assert len(set(consumed)) == len(consumed), "a range was read twice"
    if result is None:
        return
    assert np.abs(field - result.data).max() <= result.error_bound * (1 + 1e-12)
    fresh = ProgressiveRetriever(blob)
    want = fresh.retrieve(plan=fresh.loader._make_plan(retriever.current_keep))
    assert result.data.tobytes() == want.data.tobytes()
    assert result.cumulative_bytes == retriever.cumulative_bytes
    assert sorted(trace) == sorted(fresh.store.trace)
    rows = sum(enc.nbits * ((enc.count + 7) // 8) for enc in retriever.header.levels)
    assert retriever.resident_nbytes == rows + retriever._anchor_values.nbytes


@lru_cache(maxsize=None)
def _ragged_stream(prefix_bits: int):
    field = _field((13, 9, 7), seed=prefix_bits)
    blob = IPComp(error_bound=1e-5, relative=True, prefix_bits=prefix_bits).compress(field)
    levels = [enc for enc in ProgressiveRetriever(blob).header.levels if enc.count]
    assert any(enc.count % 8 for enc in levels) and any(enc.nbits > 8 for enc in levels)
    return field, blob


_TARGETS = st.one_of(
    st.tuples(st.just("error_bound"), st.integers(0, 14)),  # eb · 2^n, coarser ones too
    st.tuples(st.just("bitrate"), st.floats(0.5, 24.0)),
    st.tuples(st.just("byte_budget"), st.floats(0.0, 1.0)),  # overhead … whole stream
)
#: A step is a target and, maybe, one transient fault on the call's k-th read.
_STEPS = st.lists(
    st.tuples(
        _TARGETS,
        st.none() | st.tuples(st.integers(1, 40), st.sampled_from(["raise", "short"])),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
@settings(
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(steps=_STEPS)
def test_any_sequence_of_targets_and_faults_is_a_fresh_read(prefix_bits, steps):
    field, blob = _ragged_stream(prefix_bits)
    injector, retriever = _flaky(blob)
    assert retriever.coder.prefix_bits == prefix_bits
    eb, overhead = retriever.header.error_bound, retriever.store.overhead_bytes
    for (kind, value), fault in steps:
        if kind == "error_bound":
            request = {kind: eb * 2.0**value}
        elif kind == "byte_budget":
            request = {kind: overhead + 1 + int(value * (len(blob) - overhead))}
        else:
            request = {kind: max(value, 8.0 * (overhead + 1) / field.size)}
        if fault is not None:
            _fail_read(injector, *fault)
        try:
            result = retriever.retrieve(**request)
        except (OSError, StreamFormatError):
            # The fault landed inside this call: what arrived stays, and
            # the retry finishes the job without reading it again.
            assert injector.faults_injected
            _assert_consistent(retriever, blob)
            result = retriever.retrieve(**request)
        injector.plan = FaultPlan.never()
        _assert_consistent(retriever, blob, field, result)
        if kind == "error_bound":
            assert result.error_bound <= request[kind] * (1 + 1e-12)


def test_failed_call_then_retry_honours_the_bound():
    """The defect this module pins: a refine whose source raises once, then
    the caller retries.  The retry must return the planned fidelity — the
    rows that arrived before the failure are part of it, not forgotten."""
    field = _field((16, 14, 12), seed=11)
    blob = IPComp(error_bound=1e-6, relative=True).compress(field)
    clean = ProgressiveRetriever(blob)
    eb = clean.header.error_bound
    # One read per fetch op; the store's counter restarts with each call.
    first_reads = clean.retrieve(error_bound=eb * 4096) and clean.store.n_reads
    refine_reads = clean.retrieve(error_bound=eb) and clean.store.n_reads
    assert first_reads > 4 and refine_reads > 4
    retried = []
    for k in range(1, refine_reads + 1):  # the refine's k-th read fails
        injector, retriever = _flaky(blob)
        retriever.retrieve(error_bound=eb * 4096)
        _fail_read(injector, k)
        with pytest.raises(OSError):
            retriever.retrieve(error_bound=eb)
        result = retriever.retrieve(error_bound=eb)
        assert result.error_bound == eb and retriever.current_keep == clean.current_keep
        retried.append((retriever, result))
    # The delta-add refine forgot the levels that had advanced before the
    # failure and returned up to hundreds of times the bound it reported.
    worst = max(np.abs(field - result.data).max() / result.error_bound for _, result in retried)
    assert worst <= 1 + 1e-12
    for retriever, result in retried:
        _assert_consistent(retriever, blob, field, result)
    for k in range(1, first_reads + 1):  # the first request's k-th read fails
        injector, retriever = _flaky(blob)
        _fail_read(injector, k)
        with pytest.raises(OSError):
            retriever.retrieve(error_bound=eb * 4096)
        result = retriever.retrieve(error_bound=eb * 4096)
        # Nothing is read twice: the two calls together are one clean read.
        assert result.cumulative_bytes == ProgressiveRetriever(blob).retrieve(
            error_bound=eb * 4096
        ).bytes_loaded
        _assert_consistent(retriever, blob, field, result)


def test_failed_dataset_refine_then_retry_equals_read(tmp_path):
    """Dataset-level twin: ``ChunkedDataset.refine`` over a source that
    fails one read, retried, is bitwise ``read()`` at that bound."""
    path = tmp_path / "field.rprc"
    field = _field((20, 18, 14), seed=4)
    ChunkedDataset.write(path, field, error_bound=1e-6, relative=True, n_blocks=3)
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
        want = dataset.read()

    def flaky_dataset():
        injector = FaultInjector(FaultPlan.never())
        source = injector.wrap(BytesSource(path.read_bytes()))
        return injector, ChunkedDataset("flaky.rprc", source=source)

    injector, dataset = flaky_dataset()
    with dataset:
        dataset.refine(error_bound=stored * 1024)
        refine_reads = -injector.total_reads
        dataset.refine()
        refine_reads += injector.total_reads
    assert refine_reads > 3  # several ops per shard: a fault lands in every one
    worst, answers = 0.0, []
    for k in range(1, refine_reads + 1):
        injector, dataset = flaky_dataset()
        with dataset:
            dataset.refine(error_bound=stored * 1024)
            _fail_read(injector, k)
            with pytest.raises(OSError):
                dataset.refine()
            retried = dataset.refine()
        assert retried.error_bound == want.error_bound == stored
        worst = max(worst, np.abs(field - retried.data).max() / stored)
        answers.append(retried.data.tobytes())
    assert worst <= 1 + 1e-12
    assert set(answers) == {want.data.tobytes()}


def test_rebuilt_ladder_rungs_equal_fresh_reads(tmp_path):
    """Dataset-level: every rung the service refines in place is bitwise the
    fresh serial read of that bound."""
    path = tmp_path / "field.rprc"
    ChunkedDataset.write(
        path, _field((20, 18, 14), seed=3), error_bound=1e-5, relative=True,
        n_blocks=3,
    )
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
    with RetrievalService() as service:
        for rung, factor in enumerate((1024.0, 64.0, 8.0, 1.0)):
            served = service.get(path, error_bound=stored * factor)
            with ChunkedDataset(path) as dataset:
                fresh = dataset.read(error_bound=stored * factor)
            assert served.data.tobytes() == fresh.data.tobytes()
            assert served.trace.bytes_loaded == fresh.bytes_loaded
            if rung:  # refined from the resident coarser rung, not re-read
                assert served.trace.tier_hits.get("rung", 0) == len(served.trace.shards)
                assert served.trace.physical_bytes < served.trace.bytes_loaded


def test_stream_level_rebuilt_and_delta_ladders():
    """Stream-level twin: there is one ladder, and every rung of it is
    bitwise the fresh retrieval at that bound, with the same accounting."""
    field = _field((15, 12, 10), seed=5)
    blob = IPComp(error_bound=1e-6, relative=True).compress(field)
    eb = ProgressiveRetriever(blob).header.error_bound
    ladder = ProgressiveRetriever(blob)
    for factor in (4096.0, 256.0, 16.0, 1.0):
        fresh = ProgressiveRetriever(blob)
        want = fresh.retrieve(error_bound=eb * factor)
        got = ladder.retrieve(error_bound=eb * factor)
        assert ladder.current_keep == fresh.current_keep
        assert got.data.tobytes() == want.data.tobytes()
        assert got.error_bound == want.error_bound
        assert got.cumulative_bytes == want.bytes_loaded == want.cumulative_bytes
        _assert_consistent(ladder, blob, field, got)


# ------------------------------------------------------------- default path


def test_default_argument_streams_equal_the_reference_kernel(oracle, tmp_path):
    """Default arguments everywhere: the bytes are the loop oracle's."""
    field = _field((9, 10, 11), seed=7)
    paths = {name: tmp_path / f"{name}.rprc" for name in ("default", "reference")}
    blob = IPComp(error_bound=1e-4, relative=True).compress(field)
    ChunkedDataset.write(paths["default"], field, error_bound=1e-4, relative=True,
                         n_blocks=2)
    with ChunkedDataset(paths["default"]) as default:
        restored = default.read().data.tobytes()
    oracle()
    assert IPComp(error_bound=1e-4, relative=True).compress(field) == blob
    ChunkedDataset.write(paths["reference"], field, error_bound=1e-4, relative=True,
                         n_blocks=2)
    assert paths["default"].read_bytes() == paths["reference"].read_bytes()
    with ChunkedDataset(paths["default"]) as reference:
        assert reference.read().data.tobytes() == restored
