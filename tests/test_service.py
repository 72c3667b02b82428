"""Serving-layer byte-identity matrix and trace accounting.

Every answer a :class:`~repro.service.RetrievalService` produces — cold,
warm (slab hit), refined (rung hit), pooled, under eviction pressure, or
with caching effectively disabled — must be **bitwise-identical** to a
fresh serial read of the same request, with the *consumed* accounting
(``bytes_loaded`` / ``ranges``) identical to the synchronous path and the
*physical* accounting telling the truth about what hit the file (zero on a
warm repeat: the PR's acceptance criterion).

The matrix runs over {v1, v2} × {stream, container}, with the v1 leg
pinned to the checked-in ``tests/data/v1_stream.ipc`` golden bytes.

NB: module-local rng only (see ``conftest.local_rng``) — the session-scoped
``rng`` fixture is shared and consuming it here would shift other modules'
fixture draws.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_frozen, cumsum_field, write_v1_container

from repro import ChunkedDataset, CodecProfile, IPComp, ProgressiveRetriever
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.io.faults import FaultInjector, FaultPlan
from repro.io.remote import FINGERPRINT_TAIL_BYTES
from repro.service import DEFAULT_CACHE_BYTES, RetrievalService, TieredCache
from repro.service import service as service_mod


def _v2_container(directory: Path, shape=(24, 20, 18), seed=2) -> Path:
    path = directory / "v2.rprc"
    ChunkedDataset.write(
        path, cumsum_field(shape, seed), error_bound=1e-4, relative=True,
        n_blocks=4, workers=0,
    )
    return path


def _make_container(version: int, directory: Path) -> Path:
    if version == 1:
        return write_v1_container(directory / "v1.rprc")
    return _v2_container(directory)


def _serial(path: Path, error_bound, roi):
    """The synchronous oracle: one fresh ``ChunkedDataset.read``."""
    with ChunkedDataset(path) as dataset:
        return dataset.read(error_bound, roi=roi)


def _request_ladder(path: Path):
    """(roi, error_bound) pairs spanning full/partial ROI × bound ladder."""
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
        shape = dataset.shape
    roi = tuple(slice(s // 4, 3 * s // 4) for s in shape)
    one_shard = tuple(slice(0, max(1, s // 3)) for s in shape)
    return stored, [
        (None, stored * 64.0),
        (roi, stored * 8.0),
        (one_shard, None),
        (None, None),
    ]


# ------------------------------------------------------- identity: containers


@pytest.mark.parametrize("version", [1, 2])
def test_service_identity_matrix_containers(tmp_path, version):
    """Cold / warm / cache-rejecting answers all match the serial oracle."""
    path = _make_container(version, tmp_path)
    _, ladder = _request_ladder(path)
    with RetrievalService() as service, RetrievalService(cache_bytes=1) as tiny:
        for roi, bound in ladder:
            oracle = _serial(path, bound, roi)
            cold = service.get(path, error_bound=bound, roi=roi)
            assert np.array_equal(cold.data, oracle.data)
            assert cold.trace.bytes_loaded == oracle.bytes_loaded
            assert sorted(cold.trace.ranges) == sorted(oracle.ranges)
            assert cold.trace.achieved_bound == oracle.error_bound
            # Warm repeat: the cold receipt replayed exactly, no physical I/O.
            warm = service.get(path, error_bound=bound, roi=roi)
            assert np.array_equal(warm.data, oracle.data)
            assert warm.trace.bytes_loaded == oracle.bytes_loaded
            assert warm.trace.ranges == cold.trace.ranges
            assert warm.trace.physical_reads == 0
            assert warm.trace.physical_bytes == 0
            # A 1-byte budget rejects every entry: always cold, still right.
            rejecting = tiny.get(path, error_bound=bound, roi=roi)
            assert np.array_equal(rejecting.data, oracle.data)
            assert sorted(rejecting.trace.ranges) == sorted(oracle.ranges)
        assert tiny.cache.stats.rejected > 0
        assert tiny.cache.resident_bytes == 0


@pytest.mark.parametrize("version", [1, 2])
def test_service_identity_matrix_streams(tmp_path, v1_blob, version):
    """Bare ``.ipc`` streams serve through a single pseudo-shard session."""
    if version == 1:
        path = tmp_path / "v1_stream.ipc"
        path.write_bytes(v1_blob)
    else:
        path = tmp_path / "v2_stream.ipc"
        path.write_bytes(
            IPComp(error_bound=1e-4, relative=True).compress(cumsum_field((20, 16), 1))
        )
    stored = ProgressiveRetriever(path.read_bytes()).header.error_bound
    with RetrievalService() as service:
        for bound in (stored * 32.0, None):
            oracle = ProgressiveRetriever(path.read_bytes()).retrieve(
                error_bound=stored if bound is None else bound
            )
            cold = service.get(path, error_bound=bound)
            assert np.array_equal(cold.data, oracle.data)
            assert cold.trace.bytes_loaded == oracle.bytes_loaded
            assert cold.trace.shards == ["stream"]
            warm = service.get(path, error_bound=bound)
            assert np.array_equal(warm.data, oracle.data)
            assert warm.trace.physical_reads == 0
            assert warm.trace.bytes_loaded == oracle.bytes_loaded
            # ROI on a stream slices the decoded domain; cost is the full
            # pseudo-shard's (one shard, always fully consumed).
            roi = tuple(slice(1, max(2, s // 2)) for s in oracle.data.shape)
            sliced = service.get(path, error_bound=bound, roi=roi)
            assert np.array_equal(sliced.data, oracle.data[roi])


# ------------------------------------------------ acceptance: warm-zero reads


def test_warm_repeat_is_physically_free(tmp_path):
    """Acceptance: a warm repeat performs zero physical ``read_range`` calls
    while reporting bytes/ranges identical to the synchronous path."""
    path = _v2_container(tmp_path)
    roi = (slice(2, 19), slice(3, 17), slice(1, 15))
    bound = _serial(path, None, None).error_bound * 16.0
    oracle = _serial(path, bound, roi)
    with RetrievalService() as service:
        first = service.get(path, error_bound=bound, roi=roi)
        session = next(iter(service._sessions.values()))
        pinned_before = session.dataset.physical_reads
        second = service.get(path, error_bound=bound, roi=roi)
        # Zero physical reads: neither the trace nor the pinned container
        # reader's own counter moved.
        assert second.trace.physical_reads == 0
        assert second.trace.physical_bytes == 0
        assert session.dataset.physical_reads == pinned_before
        # ...while the consumed receipt is the synchronous one, untouched.
        assert second.trace.ranges == oracle.ranges == first.trace.ranges
        assert second.trace.bytes_loaded == oracle.bytes_loaded
        assert np.array_equal(second.data, oracle.data)
        assert second.trace.tier_hits.get("slab", 0) == len(second.trace.shards)
        assert first.trace.plan_delta == 0
        # Every slab is frozen at insert, which is why a hit needs no check.
        slabs = [entry for _, entry in service.cache.scan("slab", lambda key: True)]
        assert slabs
        for entry in slabs:
            assert_frozen(entry.data)
        assert service.get(path, error_bound=bound, roi=roi).data.tobytes() == (
            oracle.data.tobytes()
        )


# ----------------------------------------------------------- rung refinement


def test_rung_refinement_reads_only_the_delta(tmp_path):
    """A finer request over a resident rung reports full consumed bytes but
    physically reads only the new plane blocks — never from byte zero."""
    path = _v2_container(tmp_path)
    stored = _serial(path, None, None).error_bound
    coarse, fine = stored * 128.0, stored * 4.0
    with RetrievalService() as service:
        first = service.get(path, error_bound=coarse)
        refined = service.get(path, error_bound=fine)
        oracle = _serial(path, fine, None)
        assert np.array_equal(refined.data, oracle.data)
        assert refined.trace.bytes_loaded == oracle.bytes_loaded
        assert sorted(refined.trace.ranges) == sorted(oracle.ranges)
        assert refined.trace.tier_hits.get("rung", 0) == len(refined.trace.shards)
        # Physical I/O is exactly the fine-minus-coarse plane delta (headers
        # cancel: both consumed totals replay them, neither re-reads them).
        assert (
            refined.trace.physical_bytes
            == refined.trace.bytes_loaded - first.trace.bytes_loaded
        )
        assert 0 < refined.trace.physical_bytes < refined.trace.bytes_loaded
        # A coarser request after the fine one is *not* rung-servable (the
        # resident rung is finer) — it is answered cold, bitwise right.
        back = service.get(path, error_bound=coarse)
        assert np.array_equal(back.data, first.data)
        assert back.trace.ranges == first.trace.ranges


def test_the_caller_owns_what_it_receives(tmp_path):
    """No answer shares a buffer with state that answers again: every
    answer is mutated, and each re-ask — retriever, dataset, service cold,
    warm and rung-refined — is still bitwise the serial read, with no
    slab invalidated along the way."""
    path = _v2_container(tmp_path)
    stored = _serial(path, None, None).error_bound
    coarse, fine = stored * 128.0, stored * 4.0
    oracle = {bound: _serial(path, bound, None).data for bound in (coarse, fine)}

    def spoiled(data):
        want = data.copy()
        data.fill(np.nan)
        return want

    blob = IPComp(error_bound=1e-4, relative=True).compress(cumsum_field((20, 16, 12), 3))
    retriever = ProgressiveRetriever(blob)
    eb = retriever.header.error_bound
    for bound in (eb * 64, eb * 64, eb, eb):
        answer = spoiled(retriever.retrieve(error_bound=bound).data)
        assert answer.tobytes() == ProgressiveRetriever(blob).retrieve(
            error_bound=bound
        ).data.tobytes()
    with ChunkedDataset(path) as dataset:
        read, refine = dataset.read, dataset.refine
        for ask, bound in (
            (read, coarse), (read, coarse),
            (refine, coarse), (refine, coarse), (refine, fine), (refine, fine),
        ):
            assert spoiled(ask(bound).data).tobytes() == oracle[bound].tobytes()
    with RetrievalService() as service:
        tiers = []
        for bound in (coarse, coarse, fine, fine):
            response = service.get(path, error_bound=bound)
            tiers.append(sorted(response.trace.tier_hits))
            assert spoiled(response.data).tobytes() == oracle[bound].tobytes()
        assert tiers == [[], ["slab"], ["rung"], ["slab"]]
        assert sum(service.stats()["cache"]["invalidations"].values()) == 0


def test_a_cold_serve_charges_one_copy_of_the_decoded_shard(tmp_path):
    """The slab tier is the one home of decoded data: after one cold serve
    the cache holds each shard's answer once (its slab) and, per rung, the
    packed rows and the anchor only."""
    path = _v2_container(tmp_path)
    with RetrievalService() as service:
        service.get(path)
        slabs = [entry for _, entry in service.cache.scan("slab", lambda key: True)]
        rungs = [rung for _, rung in service.cache.scan("rung", lambda key: True)]
        assert len(slabs) == len(rungs) == 4
        rows = [
            sum(enc.nbits * ((enc.count + 7) // 8) for enc in rung.header.levels)
            for rung in rungs
        ]
        assert service.cache.resident_bytes == (
            sum(entry.data.nbytes for entry in slabs)
            + sum(rows)
            + sum(rung._anchor_values.nbytes for rung in rungs)
        )


def test_every_insert_freezes_its_slab_and_every_answer_is_the_callers(tmp_path):
    """Each insert path — a cold serve, a rung refine, a serve that succeeds
    after a source fault and a retry — leaves only read-only slabs, while
    every answer handed out (cold, hit, resident) is the caller's own
    writeable array: mutating it changes nothing the next get returns."""
    path = _v2_container(tmp_path)
    stored = _serial(path, None, None).error_bound
    coarse, fine = stored * 128.0, stored * 4.0
    oracle = {bound: _serial(path, bound, None).data for bound in (coarse, fine)}

    def frozen(service):
        slabs = [entry for _, entry in service.cache.scan("slab", lambda key: True)]
        return bool(slabs) and not any(entry.data.flags.writeable for entry in slabs)

    def owned(response, bound):
        assert response.data.flags.writeable
        response.data.fill(np.nan)
        again = service.get(path, error_bound=bound)
        assert again.data.tobytes() == oracle[bound].tobytes()

    injector = FaultInjector(FaultPlan.first(1))
    with RetrievalService(
        source_filter=injector.source_filter, sleep=lambda _: None
    ) as service:
        retried = service.get(path, error_bound=coarse)
        assert retried.trace.retries == 1 and frozen(service)
        owned(retried, coarse)
    with RetrievalService() as service:
        cold = service.get(path, error_bound=coarse)
        assert sorted(cold.trace.tier_misses) == ["slab"] and frozen(service)
        owned(cold, coarse)
        hit = service.get(path, error_bound=coarse)
        assert sorted(hit.trace.tier_hits) == ["slab"]
        owned(hit, coarse)
        refined = service.get(path, error_bound=fine)
        assert sorted(refined.trace.tier_hits) == ["rung"] and frozen(service)
        owned(refined, fine)
        owned(service.get_resident(path, fine), fine)


def test_a_warm_hit_hashes_no_payload(tmp_path, monkeypatch):
    """A warm slab hit is a lookup: over a 2-shard ROI the service hashes
    at most the file's freshness witness, never a slab."""
    path = _v2_container(tmp_path)
    roi = (slice(3, 10), slice(0, 20), slice(0, 18))
    hashed = []
    crc32 = service_mod.zlib.crc32

    def counting(data, *args):
        hashed.append(memoryview(data).nbytes)
        return crc32(data, *args)

    with RetrievalService() as service:
        service.get(path, roi=roi)
        monkeypatch.setattr(service_mod.zlib, "crc32", counting)
        warm = service.get(path, roi=roi)
    assert len(warm.trace.shards) == 2
    assert warm.trace.tier_hits == {"slab": 2}
    assert sum(hashed) <= FINGERPRINT_TAIL_BYTES


def test_a_shard_serve_plans_once(tmp_path, monkeypatch):
    """A session plans each (shard, target) once: ``cost`` runs one DP per
    shard, and the cold, rung-refined or warm ``get`` that follows — direct
    or through the scheduler — runs none; the retriever is handed that plan."""
    from repro.core.optimizer import OptimizedLoader
    from repro.service import RequestScheduler

    plans = []
    real = OptimizedLoader.plan_for_error_bound

    def counting(self, target_error):
        plans.append(target_error)
        return real(self, target_error)

    monkeypatch.setattr(OptimizedLoader, "plan_for_error_bound", counting)
    path = _v2_container(tmp_path)
    with ChunkedDataset(path) as dataset:
        stored, n = dataset.absolute_bound, dataset.n_shards
    with RetrievalService() as service:
        for bound, tier in ((stored * 128.0, "cold"), (stored * 4.0, "rung")):
            del plans[:]
            service.cost(path, error_bound=bound)
            assert len(plans) == n
            served = service.get(path, error_bound=bound)
            hits = served.trace.tier_hits if tier == "rung" else served.trace.tier_misses
            assert sum(hits.values()) == n
            warm = service.get(path, error_bound=bound)
            assert warm.trace.tier_hits == {"slab": n}
            with RequestScheduler(service, pacer=False) as scheduler:
                scheduler.request(path, bound)
            assert len(plans) == n


@pytest.mark.parametrize("route", ["cost_then_get", "scheduled"])
def test_every_header_parse_is_charged_to_one_served_request(tmp_path, route):
    """A header parse that ``cost()`` triggered — every scheduler submit
    does — is charged to the first serve of the shard: summed over the
    served traces, physical reads and bytes are exactly the reader's."""
    from repro.service import RequestScheduler

    path = _v2_container(tmp_path)
    stored = _serial(path, None, None).error_bound
    roi = (slice(0, 12), slice(None), slice(None))
    with RetrievalService() as service:
        # The session open reads the footer and manifest, charged to no
        # request: keep it out of the baseline.
        reader = service._session(path).dataset._reader
        reads, nbytes = reader.n_reads, reader.bytes_read
        if route == "cost_then_get":
            service.cost(path, error_bound=stored * 16)
            traces = [service.get(path, error_bound=stored * 16).trace]
        else:
            with RequestScheduler(service, pacer=False) as scheduler:
                traces = [scheduler.request(path, stored * 16).trace]
        # A later request on a shard the first one left cold still pays
        # nothing twice.
        traces.append(service.get(path, error_bound=stored, roi=roi).trace)
        assert sum(t.physical_reads for t in traces) == reader.n_reads - reads
        assert sum(t.physical_bytes for t in traces) == reader.bytes_read - nbytes


@pytest.fixture(scope="module")
def cost_files(tmp_path_factory):
    """One file of each kind a session opens: v1 and v2 containers and a
    bare stream."""
    root = tmp_path_factory.mktemp("cost")
    stream = root / "s.ipc"
    stream.write_bytes(
        IPComp(error_bound=1e-5, relative=True).compress(cumsum_field((20, 16, 12), 6))
    )
    return {
        "v1": write_v1_container(root / "v1.rprc"),
        "v2": _v2_container(root),
        "stream": stream,
    }


@pytest.mark.parametrize("factor", [None, 64.0, 1024.0])
@pytest.mark.parametrize("part", ["full", "roi"])
@pytest.mark.parametrize("kind", ["v1", "v2", "stream"])
def test_cost_equals_plan_equals_consumption(cost_files, kind, part, factor):
    """What the scheduler debits is what the plan predicts, what a fresh
    read consumes and what the served trace reports; the plan's largest
    predicted error is the bound the serve achieves."""
    path = cost_files[kind]
    with ChunkedDataset(path) as dataset:
        bound = None if factor is None else dataset.absolute_bound * factor
        roi = None if part == "full" else tuple(
            slice(s // 4, 3 * s // 4) for s in dataset.shape
        )
        plan = dataset.plan(bound, roi)
        fresh = dataset.read(bound, roi=roi)
    with RetrievalService() as service:
        cost = service.cost(path, error_bound=bound, roi=roi)
        served = service.get(path, error_bound=bound, roi=roi).trace
    loading = [shard.loading_plan for shard in plan.shards]
    assert (
        cost.predicted_bytes
        == plan.predicted_bytes
        == sum(p.total_bytes for p in loading)
        == fresh.bytes_loaded
        == served.bytes_loaded
    )
    assert max(p.predicted_error for p in loading) == served.achieved_bound
    assert cost.shards == [shard.shard for shard in plan.shards] == served.shards


# ------------------------------------------------------------ eviction churn


def test_eviction_pressure_stays_correct_and_bounded(tmp_path):
    path = _v2_container(tmp_path)
    stored = _serial(path, None, None).error_bound
    with ChunkedDataset(path) as dataset:
        shard_nbytes = max(
            s.shape[0] * s.shape[1] * s.shape[2] * 8 for s in dataset.shards
        )
    budget = shard_nbytes + shard_nbytes // 2  # ~1.5 slabs: constant churn
    ladder = [stored * 64.0, stored * 8.0, None, stored * 64.0, stored * 8.0]
    with RetrievalService(cache_bytes=budget) as service:
        for bound in ladder:
            oracle = _serial(path, bound, None)
            got = service.get(path, error_bound=bound)
            assert np.array_equal(got.data, oracle.data)
            assert got.trace.bytes_loaded == oracle.bytes_loaded
            assert sorted(got.trace.ranges) == sorted(oracle.ranges)
        assert service.cache.max_resident_bytes <= budget
        assert sum(service.cache.stats.evictions.values()) > 0


# --------------------------------------------------------- session lifecycle


def test_rewritten_file_gets_fresh_session_and_purged_cache(tmp_path):
    path = _v2_container(tmp_path, seed=3)
    with RetrievalService() as service:
        before = service.get(path)
        ChunkedDataset.write(
            path, cumsum_field((24, 20, 18), seed=4), error_bound=1e-4,
            relative=True, n_blocks=4, workers=0,
        )
        os.utime(path, ns=(1_700_000_000_000_000_000, 1_700_000_000_000_000_001))
        after = service.get(path)
        oracle = _serial(path, None, None)
        assert np.array_equal(after.data, oracle.data)
        assert not np.array_equal(after.data, before.data)
        assert service.stats()["sessions"] == 1
        # Nothing keyed to the dead session survives in the cache.
        dead_entries = [
            key for (tier, key) in service.cache._entries if key[0] == 0
        ]
        assert dead_entries == []


def test_closed_service_refuses_requests(tmp_path):
    path = _v2_container(tmp_path)
    service = RetrievalService()
    service.get(path)
    service.close()
    from repro.errors import RetrievalError

    with pytest.raises(RetrievalError):
        service.get(path)


# ------------------------------------------------------------ runtime knobs


def test_profile_cache_knobs_are_runtime_only(tmp_path):
    """The cache knobs are service keywords, not codec options: a profile
    file written before 9.0 that carries them loads (the keys are dropped),
    and a serve with any budget answers with the same bytes and receipt."""
    legacy = {**CodecProfile(error_bound=1e-4).to_json(),
              "cache_bytes": 777, "cache_verify": False}
    assert CodecProfile.from_json(legacy) == CodecProfile(error_bound=1e-4)
    assert set(CodecProfile().to_json()).isdisjoint({"cache_bytes", "cache_verify"})
    path = _v2_container(tmp_path)
    with RetrievalService() as default, RetrievalService(cache_bytes=1) as tiny:
        assert default.cache.budget_bytes == DEFAULT_CACHE_BYTES
        a, b = default.get(path), tiny.get(path)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.trace.ranges == b.trace.ranges


def test_profile_cache_knob_validation():
    """``cache_bytes`` is validated at its one home, the service; the
    profile no longer has the field, nor the service a profile."""
    for bad in (0, -5, 1.5, True, None):
        with pytest.raises(ConfigurationError, match="cache_bytes"):
            RetrievalService(cache_bytes=bad)
    with pytest.raises(ConfigurationError, match="cache_bytes"):
        CodecProfile.from_options(None, cache_bytes=1 << 20)
    for removed in ("profile", "cache_verify", "degrade_on_failure"):
        with pytest.raises(TypeError):
            RetrievalService(**{removed: None})


def test_cli_serve_rejects_bad_cache_bytes(tmp_path, capsys):
    path = _v2_container(tmp_path)
    requests = tmp_path / "r.jsonl"
    requests.write_text('{"error_bound": 1e-3}\n')
    for command in ("serve", "stats"):
        assert cli_main(
            [command, str(path), "--requests", str(requests), "--cache-bytes", "-5"]
        ) == 2
        assert "error: cache_bytes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, bad",
    [
        ("retries", -1),
        ("retries", 1.5),
        ("retry_backoff", -0.1),
        ("retry_backoff", float("nan")),
        ("retry_backoff_cap", -1.0),
    ],
)
def test_retry_knobs_rejected_not_clamped(name, bad):
    """The retry ladder has no keywords since 14.0: its limit is
    ``service.RETRIES`` and its schedule :mod:`repro.io.remote`'s, so any
    value — good or bad — is refused by the signature, never clamped."""
    with pytest.raises(TypeError, match=name):
        RetrievalService(**{name: bad})


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-inflight", "0"],
        ["--max-inflight", "-3"],
        ["--client-budget-bps", "-5"],
        ["--client-budget-bps", "vip=-5"],
    ],
)
def test_cli_serve_rejects_bad_serving_knobs(tmp_path, capsys, flags):
    """Each of these used to run with a clamped value and exit 0."""
    path = _v2_container(tmp_path)
    requests = tmp_path / "r.jsonl"
    requests.write_text('{"error_bound": 1e-3}\n')
    for command in ("serve", "stats"):
        assert cli_main([command, str(path), "--requests", str(requests), *flags]) == 2
        assert "error:" in capsys.readouterr().err


def test_invalid_error_bound_rejected(tmp_path):
    path = _v2_container(tmp_path)
    with RetrievalService() as service:
        with pytest.raises(ConfigurationError):
            service.get(path, error_bound=-1.0)
        with pytest.raises(ConfigurationError):
            service.get(path, error_bound=float("nan"))


# ----------------------------------------------------------- TieredCache unit


def test_tiered_cache_budget_is_a_hard_invariant():
    cache = TieredCache(100)
    assert cache.put("slab", "a", "A", 40)
    assert cache.put("slab", "b", "B", 40)
    assert cache.put("rung", "c", "C", 40)  # evicts "a" *before* inserting
    assert cache.max_resident_bytes <= 100
    assert cache.get("slab", "a") is None
    assert cache.get("slab", "b") == "B"
    assert cache.get("rung", "c") == "C"
    assert cache.stats.evictions == {"slab": 1}


def test_tiered_cache_lru_order_and_freshening():
    cache = TieredCache(100)
    cache.put("slab", "a", "A", 40)
    cache.put("slab", "b", "B", 40)
    assert cache.get("slab", "a") == "A"  # freshen "a": "b" is now LRU
    cache.put("slab", "c", "C", 40)
    assert cache.get("slab", "b") is None
    assert cache.get("slab", "a") == "A"


def test_tiered_cache_rejects_oversize_and_recharges_on_reput():
    cache = TieredCache(100)
    assert not cache.put("slab", "big", "X", 101)
    assert cache.stats.rejected == 1
    assert cache.resident_bytes == 0
    assert cache.put("rung", "r", "v1", 30)
    assert cache.put("rung", "r", "v2", 90)  # re-put re-charges the new size
    assert cache.resident_bytes == 90
    assert cache.get("rung", "r") == "v2"


def test_tiered_cache_invalidate_and_purge():
    cache = TieredCache(1000)
    cache.put("slab", (0, "s0"), "A", 10)
    cache.put("slab", (1, "s0"), "B", 10)
    cache.put("rung", (0, "s0"), "R", 10)
    assert cache.invalidate("slab", (0, "s0"))
    assert not cache.invalidate("slab", (0, "s0"))
    assert cache.purge(lambda tier, key: key[0] == 0) == 1
    assert len(cache) == 1
    assert cache.resident_bytes == 10
    assert cache.get("slab", (1, "s0")) == "B"
    with pytest.raises(ValueError):
        TieredCache(0)


# ---------------------------------------------------------------------- CLI


def test_cli_serve_prints_traces_and_writes_outputs(tmp_path, capsys):
    path = _v2_container(tmp_path)
    stored = _serial(path, None, None).error_bound
    bound = stored * 16.0
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        "# warm-repeat pair plus a refinement\n"
        "\n"
        f'{{"error_bound": {bound}, "roi": "2:18,3:17,:", "out": "a.raw"}}\n'
        f'{{"error_bound": {bound}, "roi": "2:18,3:17,:", "out": "b.raw"}}\n'
        f'{{"out": "full.raw"}}\n',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    stats_json = tmp_path / "stats.json"
    rc = cli_main([
        "serve", str(path), "--requests", str(requests),
        "--out-dir", str(out_dir), "--stats-json", str(stats_json),
    ])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 3
    roi = (slice(2, 18), slice(3, 17), slice(None))
    oracle = _serial(path, bound, roi)
    assert lines[0]["bytes_loaded"] == oracle.bytes_loaded
    assert lines[1]["bytes_loaded"] == oracle.bytes_loaded
    assert lines[1]["physical_reads"] == 0  # second identical request: warm
    assert lines[1]["tier_hits"].get("slab", 0) == len(lines[1]["shards"])
    a, b = (out_dir / "a.raw").read_bytes(), (out_dir / "b.raw").read_bytes()
    assert a == b == oracle.data.tobytes()
    full_oracle = _serial(path, None, None)
    assert (out_dir / "full.raw").read_bytes() == full_oracle.data.tobytes()
    stats = json.loads(stats_json.read_text())
    assert stats["requests"] == 3
    assert stats["cache"]["max_resident_bytes"] <= stats["cache"]["budget_bytes"]


def test_cli_stats_prints_aggregate_only(tmp_path, capsys):
    path = _v2_container(tmp_path)
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"roi": "0:8,:,:"}\n{"roi": "0:8,:,:"}\n')
    rc = cli_main([
        "stats", str(path), "--requests", str(requests), "--max-inflight", "2",
    ])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["requests"] == 2
    assert stats["tier_hits"].get("slab", 0) >= 1


def test_cli_serve_rejects_bad_request_batches(tmp_path, capsys):
    path = _v2_container(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert cli_main(["serve", str(path), "--requests", str(bad)]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("# nothing here\n")
    assert cli_main(["serve", str(path), "--requests", str(empty)]) == 2
    not_obj = tmp_path / "list.jsonl"
    not_obj.write_text("[1, 2]\n")
    assert cli_main(["serve", str(path), "--requests", str(not_obj)]) == 2
    capsys.readouterr()


def test_cli_serve_rejects_non_numeric_error_bound(tmp_path, capsys):
    """A request line whose ``error_bound`` is no number is a configuration
    error naming the line — not a traceback."""
    path = _v2_container(tmp_path)
    bad = tmp_path / "bad.jsonl"
    for value in ('"abc"', "[1]", "{}"):
        bad.write_text('{"error_bound": 1e-3}\n{"error_bound": %s}\n' % value)
        for command in ("serve", "stats"):
            assert cli_main([command, str(path), "--requests", str(bad)]) == 2
            assert "error: requests line 2: error_bound" in capsys.readouterr().err


# --------------------------------------------------- fingerprint content witness


def test_file_fingerprint_catches_same_size_same_mtime_rewrite(tmp_path):
    """Regression: ``(st_size, st_mtime_ns)`` alone cannot distinguish a
    same-size rewrite inside the mtime granularity; the tail-CRC witness
    folded into :func:`file_fingerprint` must."""
    from repro.service import file_fingerprint

    path = tmp_path / "blob.bin"
    path.write_bytes(b"a" * 8000 + b"FOOTER-ONE")
    stat_a = path.stat()
    before = file_fingerprint(path)
    path.write_bytes(b"a" * 8000 + b"FOOTER-TWO")  # same size, new meaning
    os.utime(path, ns=(stat_a.st_atime_ns, stat_a.st_mtime_ns))
    stat_b = path.stat()
    # The legacy 2-tuple is blind to the rewrite (the bug being fixed)...
    assert (stat_a.st_size, stat_a.st_mtime_ns) == (
        stat_b.st_size, stat_b.st_mtime_ns
    )
    # ...the witnessed fingerprint is not.
    after = file_fingerprint(path)
    assert before != after
    assert before[:2] == after[:2]  # only the witness differs


def test_same_size_same_mtime_rewrite_never_serves_stale_cache(tmp_path):
    """A container rewritten in place — same size, mtime pinned back — must
    get a fresh session and fresh reads, not the dead session's slabs."""
    path = _v2_container(tmp_path)
    with RetrievalService() as service:
        first = service.get(path)
        assert service.get(path).trace.physical_reads == 0  # warm baseline
        stat = path.stat()
        # Rewrite one manifest digit in place: the byte count is unchanged
        # and the JSON stays valid, but the stored bound — what the bytes
        # *mean* — moves.  The edit sits in the trailing manifest/footer
        # region the fingerprint witnesses.
        blob = bytearray(path.read_bytes())
        marker = b'"error_bound":'
        digit = blob.rindex(marker) + len(marker)
        assert digit >= len(blob) - 4096  # inside the witness window
        while not chr(blob[digit]).isdigit():
            digit += 1
        blob[digit] = ord("1") if chr(blob[digit]) != "1" else ord("2")
        path.write_bytes(bytes(blob))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        check = path.stat()
        assert (check.st_size, check.st_mtime_ns) == (
            stat.st_size, stat.st_mtime_ns
        )
        fresh = service.get(path)
        # New session, cold physical reads — the dead session's slabs were
        # purged, not replayed against the rewritten file.
        assert fresh.trace.physical_reads > 0
        assert fresh.trace.tier_hits == {}
        oracle = _serial(path, None, None)
        assert np.array_equal(fresh.data, oracle.data)
        assert first is not None  # the pre-rewrite serve stays intact


# -------------------------------------------------------- cache reconciliation


def _reconciles(cache: TieredCache) -> bool:
    stats = cache.to_json()
    departed = sum(
        sum(stats[key].values())
        for key in ("evictions", "invalidations", "replacements")
    )
    return stats["entries"] == sum(stats["inserts"].values()) - departed


def test_cache_counters_reconcile_across_every_exit_path():
    """Regression: ``invalidate``/``purge``/re-put dropped entries without
    bumping any counter, so ``inserts - evictions`` drifted from
    ``entries``.  Every exit path now has a counter and the identity
    ``entries == inserts - evictions - invalidations - replacements``
    holds at every step."""
    cache = TieredCache(budget_bytes=1000)
    assert cache.put("slab", "a", "A", 400)
    assert cache.put("rung", "b", "B", 400)
    assert _reconciles(cache)
    # Re-put (replacement): same key, new size.
    assert cache.put("slab", "a", "A2", 300)
    assert _reconciles(cache)
    # LRU eviction under pressure.
    assert cache.put("slab", "c", "C", 500)
    assert sum(cache.stats.evictions.values()) >= 1
    assert _reconciles(cache)
    # Explicit invalidation (poisoned entry).
    assert cache.invalidate("slab", "c")
    assert not cache.invalidate("slab", "missing")
    assert _reconciles(cache)
    # Oversize re-put of an existing key: the old entry is replaced away
    # and the new value rejected.
    assert cache.put("slab", "a", "A3", 100)
    assert _reconciles(cache)
    assert not cache.put("slab", "a", "huge", 5000)
    assert cache.stats.rejected == 1
    assert _reconciles(cache)
    # Purge by predicate (dead session).
    cache.put("slab", ("sid", 1), "S", 100)
    cache.put("rung", ("sid", 2), "R", 100)
    assert cache.purge(lambda tier, key: isinstance(key, tuple)) == 2
    assert _reconciles(cache)
    assert cache.resident_bytes == sum(
        nbytes for _, nbytes in cache._entries.values()
    )


def test_service_level_purge_reconciles(tmp_path):
    """The service's session-purge path keeps the cache identity intact."""
    path = _v2_container(tmp_path)
    with RetrievalService() as service:
        service.get(path)
        # Rewrite the dataset (different content, new fingerprint): the old
        # session's entries are purged, counted as invalidations.
        ChunkedDataset.write(
            path, cumsum_field((24, 20, 18), seed=9), error_bound=1e-4,
            relative=True, n_blocks=4, workers=0,
        )
        service.get(path)
        assert _reconciles(service.cache)
        assert sum(service.cache.stats.invalidations.values()) >= 1


# ------------------------------------------------------------- scheduled serve


def test_cli_serve_scheduled_batch_with_budgets(tmp_path, capsys):
    """`serve --max-inflight --client-budget-bps` routes through the QoS
    scheduler: finals stay bitwise-identical, traces carry the client and
    scheduling annotations, stats gain the scheduler section."""
    path = _v2_container(tmp_path)
    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
    coarse, fine = stored * 64.0, stored * 4.0
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        f'{{"error_bound": {coarse}, "client": "warm", "out": "w.raw"}}\n'
        f'{{"error_bound": {fine}, "client": "alice", "out": "a.raw"}}\n'
        f'{{"error_bound": {fine}, "client": "bob", "out": "b.raw"}}\n',
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    stats_json = tmp_path / "stats.json"
    rc = cli_main([
        "serve", str(path), "--requests", str(requests),
        "--out-dir", str(out_dir), "--stats-json", str(stats_json),
        "--max-inflight", "1",
        "--client-budget-bps", "1000000",
        "--client-budget-bps", "bob=500000",
    ])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 3
    for line, client in zip(lines, ("warm", "alice", "bob")):
        assert line["client"] == client
        assert line["queue_wait"] >= 0.0
        assert line["budget_debited"] > 0
        assert isinstance(line["degraded"], bool)
    fine_oracle = _serial(path, fine, None)
    assert (out_dir / "a.raw").read_bytes() == fine_oracle.data.tobytes()
    assert (out_dir / "b.raw").read_bytes() == fine_oracle.data.tobytes()
    coarse_oracle = _serial(path, coarse, None)
    assert (out_dir / "w.raw").read_bytes() == coarse_oracle.data.tobytes()
    stats = json.loads(stats_json.read_text())
    sched = stats["scheduler"]
    assert sched["submitted"] == 3
    assert sched["queued"] == 0
    assert sched["clients"]["bob"]["budget_bps"] == 500000
    assert sched["clients"]["alice"]["budget_bps"] == 1000000
    for client in sched["clients"].values():
        assert client["min_tokens"] >= 0.0
