"""The golden format corpus: every layout a reader accepts, decoded bitwise.

``tests/data`` holds one tiny archive of each readable layout beside the
decode recorded when it was written (``tests/data/make_corpus.py``, which
says how each was built): a bare v1 and a bare v2 stream, a manifest-v1
container, and a manifest-v2 container with and without the ``headers``
block.  Writers emit only the last-but-one of these today; the v1 layouts
and the archive without header copies are built by rewrite helpers
(``conftest.write_v1_container`` and ``conftest.legacy_layout``).  Every
path a reader can take — ``read``, ``refine``, the serving layer and a URL —
must return the recorded bytes at the stored bound and at the coarse rung.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import ChunkedDataset
from repro.io.rangeserver import RangeServer
from repro.service import RetrievalService

DATA = Path(__file__).parent / "data"

#: Archive → the stem of its recorded decodes.
CORPUS = {
    "v1_stream.ipc": "corpus_v1_stream",
    "corpus_v2_stream.ipc": "corpus_v2_stream",
    "corpus_v1_manifest.rprc": "corpus_v1_manifest",
    "corpus_v2_headers.rprc": "corpus_v2_headers",
    "corpus_v2_legacy.rprc": "corpus_v2_legacy",
}

#: The coarse rung, × the stored bound (``make_corpus.COARSE``).
COARSE = 64.0


def _expected(archive):
    stem = CORPUS[archive]
    return np.load(DATA / f"{stem}.npy"), np.load(DATA / f"{stem}.coarse.npy")


def _check(answers, archive):
    fine, coarse = _expected(archive)
    for label, answer, expected in zip(("coarse", "fine"), answers, (coarse, fine)):
        assert answer.dtype == expected.dtype, (archive, label)
        assert answer.shape == expected.shape, (archive, label)
        assert answer.tobytes() == expected.tobytes(), (archive, label)


def _ladder(dataset):
    """The coarse rung then the stored bound: a fresh read of each, then
    the same two as one refine ladder."""
    eb = dataset.absolute_bound
    reads = [dataset.read(COARSE * eb).data, dataset.read().data]
    rungs = [dataset.refine(COARSE * eb).data, dataset.refine(eb).data]
    return reads, rungs


def test_the_corpus_holds_every_layout():
    layouts = set()
    for archive in CORPUS:
        with ChunkedDataset(DATA / archive) as dataset:
            headers = dataset.manifest is not None and "headers" in dataset.manifest
            shard = dataset.pinned_shard(dataset.shards[0].name)
            layouts.add((dataset.version, shard.header.version, headers))
    assert layouts == {(0, 1, False), (0, 2, False), (1, 1, False), (2, 2, True), (2, 2, False)}
    # The bare v1 stream's decode is the one pinned since v1 was retired.
    assert _expected("v1_stream.ipc")[0].tobytes() == np.load(DATA / "v1_expected.npy").tobytes()


@pytest.mark.parametrize("archive", sorted(CORPUS))
def test_read_and_refine_return_the_recorded_decode(archive):
    with ChunkedDataset(DATA / archive) as dataset:
        reads, rungs = _ladder(dataset)
    _check(reads, archive)
    _check(rungs, archive)


@pytest.mark.parametrize("archive", sorted(CORPUS))
def test_the_service_returns_the_recorded_decode(archive):
    path = DATA / archive
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
    with RetrievalService() as service:
        # Cold, then warm from the slab tier, at both fidelities.
        answers = [service.get(path, COARSE * eb).data, service.get(path).data]
        again = [service.get(path, COARSE * eb).data, service.get(path).data]
    _check(answers, archive)
    _check(again, archive)


def test_a_url_returns_the_recorded_decode():
    with RangeServer(DATA) as server:
        for archive in sorted(CORPUS):
            for prefetch in (0, 4):
                with ChunkedDataset(server.url_for(archive), prefetch=prefetch) as dataset:
                    reads, rungs = _ladder(dataset)
                _check(reads, archive)
                _check(rungs, archive)
