"""The headers block: every shard's stream header, copied next to the manifest.

``ChunkedDataset.write`` appends a ``headers`` block holding each shard's
stream prefix (magic, version/length word, header), placed by the
manifest's ``"headers"`` key, and readers pin shards from it instead of
reading each shard's head.  Pinned here:

* **identity** — a new archive and the same archive in the legacy layout
  (:func:`conftest.legacy_layout`) answer every ``read``, ``refine``,
  ``plan`` and service ``get`` with the same data, ``ranges`` and
  ``bytes_loaded``;
* **a copy is checked, not trusted** — any one byte flipped inside the
  block, or two shards' copies swapped, makes each request either raise
  :class:`~repro.errors.StreamFormatError` or answer bitwise the clean
  archive's answer, never different data;
* **physical cost** — one read of the block per open dataset, none per
  shard, charged to one served request.

Randomness: module-local generators only (never the shared ``rng``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import cumsum_field, legacy_layout
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ChunkedDataset
from repro.errors import StreamFormatError
from repro.io import BlockContainerReader, BlockContainerWriter
from repro.service import RetrievalService

_ROI = (slice(0, 9), slice(None), slice(None))
_LADDER = (256.0, 16.0, 1.0)


@pytest.fixture(scope="module")
def archive(tmp_path_factory) -> Path:
    """Four shards of unequal length (so copies and shards differ in size)."""
    path = tmp_path_factory.mktemp("copies") / "field.rprc"
    ChunkedDataset.write(
        path, cumsum_field((26, 14, 12), 21), error_bound=1e-6, relative=True,
        n_blocks=4,
    )
    return path


def _receipt(result):
    return result.data.tobytes(), result.bytes_loaded, sorted(result.ranges)


def _answers(path: Path) -> dict:
    """Every request kind against ``path``; a ``StreamFormatError`` is an
    answer too.  The service serves ladder rung 0 on a fresh session."""
    answers = {}

    def record(key, call):
        try:
            answers[key] = call()
        except StreamFormatError:
            answers[key] = StreamFormatError

    with ChunkedDataset(path) as dataset:
        stored = dataset.absolute_bound
        record("read", lambda: _receipt(dataset.read()))
        record("roi", lambda: _receipt(dataset.read(stored * _LADDER[0], roi=_ROI)))
        record("plan", lambda: dataset.plan(stored * _LADDER[1]).to_json())
        for factor in _LADDER:
            record(("refine", factor), lambda: _receipt(dataset.refine(stored * factor)))
    with RetrievalService() as service:
        def get():
            response = service.get(path, error_bound=stored * _LADDER[0], roi=_ROI)
            trace = response.trace
            return response.data.tobytes(), trace.bytes_loaded, sorted(trace.ranges)

        record("get", get)
    return answers


@pytest.fixture(scope="module")
def clean(archive) -> dict:
    answers = _answers(archive)
    assert StreamFormatError not in answers.values()
    return answers


def test_new_and_legacy_layouts_answer_identically(archive, clean, tmp_path):
    legacy = legacy_layout(archive, tmp_path / "legacy.rprc")
    assert _answers(legacy) == clean
    with BlockContainerReader(archive) as new, BlockContainerReader(legacy) as old:
        assert set(new.block_names()) - set(old.block_names()) == {"headers"}
        copies = new.block_size("headers")
    # The copies cost the archive their own bytes plus the manifest key.
    assert 0 < archive.stat().st_size - legacy.stat().st_size - copies < 200


def _rewrite(archive: Path, out: Path, *, copies=None, placed=None) -> Path:
    """``archive`` with its headers block and/or manifest placement replaced."""
    with BlockContainerReader(archive) as reader, BlockContainerWriter(out) as writer:
        for name in reader.block_names():
            data = reader.read_block(name)
            if name == "headers" and copies is not None:
                data = copies
            elif name == "manifest" and placed is not None:
                manifest = json.loads(data)
                manifest["headers"] = placed
                data = json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode()
            writer.add_block(name, data, reader.metadata(name))
    return out


def _layout(archive: Path):
    with BlockContainerReader(archive) as reader:
        manifest = json.loads(reader.read_block("manifest"))
        sizes = {s["name"]: reader.block_size(s["name"]) for s in manifest["shards"]}
        return reader.read_block("headers"), manifest["headers"], sizes


@st.composite
def _corruptions(draw, block_size: int, swappable):
    if swappable and draw(st.booleans()):
        return "swap", draw(st.sampled_from(swappable))
    return "flip", (draw(st.integers(0, block_size - 1)), draw(st.integers(1, 255)))


def test_a_corrupt_copy_raises_or_answers_the_clean_bytes(archive, clean, tmp_path_factory):
    """One flipped byte anywhere in the headers block, or two shards' copies
    of different sizes swapped: every request raises ``StreamFormatError``
    or returns the clean answer, never other data."""
    copies, placed, sizes = _layout(archive)
    names = sorted(placed)
    swappable = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:] if sizes[a] != sizes[b]
    ]
    assert swappable
    root = tmp_path_factory.mktemp("corrupt")
    outcomes = {"raised": 0, "clean": 0}

    @given(corruption=_corruptions(len(copies), swappable))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(corruption):
        kind, where = corruption
        out = root / "corrupt.rprc"
        if kind == "flip":
            offset, mask = where
            flipped = bytearray(copies)
            flipped[offset] ^= mask
            _rewrite(archive, out, copies=bytes(flipped))
        else:
            a, b = where
            _rewrite(archive, out, placed={**placed, a: placed[b], b: placed[a]})
        for key, answer in _answers(out).items():
            assert answer is StreamFormatError or answer == clean[key], (corruption, key)
            outcomes["raised" if answer is StreamFormatError else "clean"] += 1

    check()
    assert outcomes["raised"] > 0 and outcomes["clean"] > 0


def test_a_copy_that_disagrees_with_its_shard_names_the_shard(archive, tmp_path):
    copies, placed, sizes = _layout(archive)
    a, b = sorted(placed)[:2]
    assert sizes[a] != sizes[b]
    swapped = _rewrite(archive, tmp_path / "s.rprc", placed={**placed, a: placed[b], b: placed[a]})
    with ChunkedDataset(swapped) as dataset:
        with pytest.raises(StreamFormatError, match=f"header copy of shard {a!r}"):
            dataset.plan(roi=(slice(0, 1),))
    # A copy placed past the block is refused at open, before any read.
    out = _rewrite(archive, tmp_path / "o.rprc", placed={**placed, a: [len(copies) - 4, 10]})
    with pytest.raises(StreamFormatError, match=f"shard {a!r}.*outside"):
        ChunkedDataset(out)


def test_one_copies_read_per_dataset_charged_to_one_serve(archive, tmp_path):
    """A local dataset reads the headers block once, on the first pin, and
    none of its shards' heads.  A service charges that one read, and the
    block's bytes, to the first serve; a later serve's newly cold shards pay
    no header read — where the legacy layout charges two reads and the
    header bytes per shard to the serve that first touches it."""
    with ChunkedDataset(archive) as dataset:
        opened = dataset.physical_reads
        dataset.plan(roi=_ROI)
        assert dataset.physical_reads - opened == 1
        dataset.plan()
        assert dataset.physical_reads - opened == 1
        header_bytes = {s.name: dataset.pinned_shard(s.name).header_bytes for s in dataset.shards}
    with BlockContainerReader(archive) as reader:
        block = reader.block_size("headers")

    def serve_twice(path):
        with RetrievalService() as service:
            reader = service._session(path).dataset._reader
            reads, nbytes = reader.n_reads, reader.bytes_read
            traces = [service.get(path, roi=_ROI).trace, service.get(path).trace]
            assert sum(t.physical_reads for t in traces) == reader.n_reads - reads
            assert sum(t.physical_bytes for t in traces) == reader.bytes_read - nbytes
        return [(t.physical_reads, t.physical_bytes) for t in traces], traces

    new, traces = serve_twice(archive)
    old, _ = serve_twice(legacy_layout(archive, tmp_path / "legacy.rprc"))
    first = set(traces[0].shards)
    later = set(traces[1].shards) - first
    assert first and later
    assert new[0] == (
        old[0][0] - 2 * len(first) + 1,
        old[0][1] - sum(header_bytes[name] for name in first) + block,
    )
    assert new[1] == (
        old[1][0] - 2 * len(later),
        old[1][1] - sum(header_bytes[name] for name in later),
    )
