"""A read decodes into its answer.

The interpolation writes into a caller's array (``reconstruct(out=)``) and
dequantizes the integer codes as it adds them, bitwise as the write's own
reconstruction; the engine hands each shard the ROI does not cut
its own slab of the answer, so a read costs about one answer of memory
beyond its packed rows.  Writing into an uninitialised answer is safe only
because a dataset proves at open that its slabs tile the domain, and that a
shard parsed from its own head has its slab's shape.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from conftest import cumsum_field, legacy_layout
from oracle_interpolation import OracleSweepPredictor, packed
from repro import ChunkedDataset, IPComp
from repro.core.interpolation import InterpolationPredictor
from repro.core.progressive import ProgressiveRetriever
from repro.core.quantizer import LinearQuantizer
from repro.errors import ConfigurationError, StreamFormatError
from repro.io import BlockContainerReader, BlockContainerWriter

SHAPES = [(17,), (100,), (33, 20), (1, 9), (13, 7, 5), (9, 1, 6), (5, 6, 3, 7)]


# -------------------------------------------------------------- reconstruct


def _decomposed(shape, method):
    data = cumsum_field(shape, 11)
    predictor = InterpolationPredictor(shape, method)
    quantizer = LinearQuantizer(1e-3)
    anchors, codes, xhat = predictor.decompose(data, quantizer)
    return predictor, quantizer, anchors, codes, xhat


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_reconstruct_into_out_and_from_codes_is_bitwise_the_fresh_one(shape, method):
    predictor, quantizer, anchors, codes, xhat = _decomposed(shape, method)
    anchor_values = quantizer.dequantize(anchors)
    w = quantizer.bin_width
    # The codes rebuild the write's own reconstruction, bit for bit.
    fresh = predictor.reconstruct(anchor_values, *packed(predictor, codes), w)
    assert fresh.tobytes() == xhat.tobytes()
    # ``out`` may hold anything: every point is written before it is read.
    out = np.full(shape, np.nan)
    into = predictor.reconstruct(anchor_values, *packed(predictor, codes), w, out=out)
    assert into is out
    assert out.tobytes() == fresh.tobytes()
    # A unit with no codes adds +0.0, as the numpy sweep does.
    partial = {unit: c for unit, c in codes.items() if unit % 2}
    out = np.full(shape, np.nan)
    predictor.reconstruct(anchor_values, *packed(predictor, partial), w, out=out)
    oracle = OracleSweepPredictor(shape, method)
    assert out.tobytes() == oracle.reconstruct(anchor_values, partial, w).tobytes()


def test_reconstruct_refuses_an_out_it_cannot_fill():
    predictor, quantizer, anchors, codes, _ = _decomposed((12, 10), "cubic")
    values = quantizer.dequantize(anchors)
    for out in (
        np.empty((12, 10), dtype=np.float32),
        np.empty((10, 12)),
        np.empty((12, 20))[:, ::2],
    ):
        with pytest.raises(ConfigurationError, match="out must be"):
            predictor.reconstruct(values, *packed(predictor, codes), quantizer.bin_width, out=out)


# ------------------------------------------------------------------- engine


def _stitched(path, target=None):
    """Each shard decoded on its own — ``IPComp.decompress`` at the stored
    bound, a fresh retriever at ``target`` — and placed into the field."""
    with ChunkedDataset(path) as dataset:
        shards = [(shard.name, shard.slices) for shard in dataset.shards]
        field = np.empty(dataset.shape, dtype=dataset.dtype)
    with BlockContainerReader(path) as reader:
        for name, slices in shards:
            blob = reader.read_block(name)
            if target is None:
                field[slices] = IPComp().decompress(blob)
            else:
                field[slices] = ProgressiveRetriever(blob).retrieve(error_bound=target).data
    return field


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    root = tmp_path_factory.mktemp("in_place")
    paths = {}
    for label, dtype in (("f64", np.float64), ("f32", np.float32)):
        paths[label] = root / f"{label}.rprc"
        ChunkedDataset.write(
            paths[label], cumsum_field((21, 14, 11), 12).astype(dtype),
            error_bound=1e-5, relative=True, n_blocks=4,
        )
    paths["stream"] = root / "s.ipc"
    paths["stream"].write_bytes(
        IPComp(error_bound=1e-5, relative=True).compress(cumsum_field((21, 14, 11), 13))
    )
    return paths


ROIS = [
    None,
    (slice(3, 17),),
    (slice(None), slice(2, 9)),
    (slice(None), slice(None), slice(4, 10)),
    (slice(5, 6), slice(0, 14), slice(10, 11)),
]


@pytest.mark.parametrize("label", ["f64", "f32", "stream"])
@pytest.mark.parametrize("roi", ROIS)
def test_engine_answers_are_the_shards_decoded_alone(archives, label, roi):
    path = archives[label]
    expected = _stitched(path)
    with ChunkedDataset(path) as dataset:
        answer = dataset.read(roi=roi).data
        region = dataset.select(roi)[0]
    assert answer.dtype == expected.dtype
    assert answer.tobytes() == expected[region].tobytes()


@pytest.mark.parametrize("label", ["f64", "f32", "stream"])
def test_every_refine_rung_is_the_shards_decoded_alone(archives, label):
    path = archives[label]
    with ChunkedDataset(path) as dataset:
        eb = dataset.absolute_bound
        rungs = [(1024 * eb, None), (64 * eb, (slice(2, 12),)), (8 * eb, None), (eb, None)]
        for target, roi in rungs:
            answer = dataset.refine(target, roi=roi).data
            region = dataset.select(roi)[0]
            assert answer.tobytes() == _stitched(path, target)[region].tobytes(), target


# ------------------------------------------------------------------- memory


def _peak_ratio(path, rungs):
    """tracemalloc's peak over an open and its reads, ÷ the answer's bytes.
    Each rung's answer is held while the next one is decoded, as a caller
    comparing rungs holds it."""
    tracemalloc.start()
    try:
        with ChunkedDataset(path) as dataset:
            eb = dataset.absolute_bound
            for factor in rungs:
                answer = dataset.refine(factor * eb).data
            assert answer.shape == dataset.shape
            nbytes = int(np.prod(dataset.shape)) * dataset.dtype.itemsize
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


def test_a_read_peaks_near_one_answer(tmp_path):
    """A read costs its answer, its packed rows and one shard's decode
    temporaries, not a second copy of the field: ≤ 2.0× the answer on a
    read, ≤ 3.0× over a 4-rung ladder (2.44× and 3.48× when each shard
    built its own output and ``assemble`` copied them in)."""
    path = tmp_path / "m.rprc"
    ChunkedDataset.write(
        path, cumsum_field((64, 68, 60), 14), error_bound=1e-5, relative=True,
        n_blocks=8,
    )
    _peak_ratio(path, [1])  # warm every cache a first open fills
    assert _peak_ratio(path, [1]) <= 2.0
    assert _peak_ratio(path, [1024, 64, 8, 1]) <= 3.0


# ------------------------------------------------------------- open checks


def _with_slabs(path, out, slabs):
    """``path`` rewritten with the manifest's shard slabs replaced."""
    with BlockContainerReader(path) as reader, BlockContainerWriter(out) as writer:
        for name in reader.block_names():
            data = reader.read_block(name)
            if name == "manifest":
                manifest = json.loads(data)
                for shard, slices in zip(manifest["shards"], slabs):
                    shard["slices"] = slices
                data = json.dumps(manifest).encode()
            writer.add_block(name, data, reader.metadata(name))
    return out


@pytest.mark.parametrize(
    "slabs, match",
    [
        # Shard 1 claims shard 0's rows: 16–31 would never be written.
        ([[[0, 16], [0, 16], [0, 16]], [[0, 16], [0, 16], [0, 16]]], "overlap"),
        ([[[0, 16], [0, 16], [0, 16]], [[17, 32], [0, 16], [0, 16]]], "cover"),
        ([[[0, 16], [0, 16], [0, 16]], [[16, 32], [0, 16], [8, 24]]], "outside"),
        ([[[0, 16], [0, 16], [0, 16]], [[16, 16], [0, 16], [0, 16]]], "empty"),
        ([[[0, 16], [0, 16], [0, 16]], [[16, 32], [0, 16]]], "axes"),
    ],
)
def test_slabs_that_do_not_tile_the_field_are_refused_at_open(tmp_path, slabs, match):
    path = tmp_path / "d.rprc"
    ChunkedDataset.write(
        path, cumsum_field((32, 16, 16), 15), error_bound=1e-4, n_blocks=2
    )
    bad = _with_slabs(path, tmp_path / "bad.rprc", slabs)
    with pytest.raises(StreamFormatError, match=match):
        ChunkedDataset(bad)
    with pytest.raises(StreamFormatError, match=match):
        ChunkedDataset(legacy_layout(bad, tmp_path / "legacy.rprc"))


def test_a_legacy_shard_whose_stream_is_not_its_slab_is_refused_before_its_payload(tmp_path):
    """Without header copies a shard is parsed from its own head; a stream
    of 16 rows claimed for a slab of 12 (or 20) raises before any payload
    read, not a broadcast error (or a write past its slot)."""
    path = tmp_path / "d.rprc"
    ChunkedDataset.write(
        path, cumsum_field((32, 16, 16), 16), error_bound=1e-4, n_blocks=2
    )
    slabs = [[[0, 12], [0, 16], [0, 16]], [[12, 32], [0, 16], [0, 16]]]
    legacy = legacy_layout(_with_slabs(path, tmp_path / "bad.rprc", slabs), tmp_path / "l.rprc")
    with ChunkedDataset(legacy) as dataset:
        opened = dataset.physical_reads
        with pytest.raises(StreamFormatError, match="shard 'shard-0000': shape"):
            dataset.read()
        assert dataset.physical_reads - opened == 2  # the head parse's two reads
        with pytest.raises(StreamFormatError, match="shape"):
            dataset.plan()
    # The archive with its header copies says the same, from the copies.
    with ChunkedDataset(_with_slabs(path, tmp_path / "c.rprc", slabs)) as dataset:
        with pytest.raises(StreamFormatError, match="shape"):
            dataset.read()
