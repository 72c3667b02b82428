"""Integration tests crossing module boundaries (workflow-level scenarios)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IPComp, ProgressiveRetriever
from repro.analysis import max_error, psnr, summarize
from repro.analysis.derived import laplacian
from repro.baselines import make_compressor
from repro.datasets import load_dataset
from repro.io import BlockContainerReader, ChunkedDataset


@pytest.fixture(scope="module")
def density():
    return load_dataset("density", shape=(32, 36, 36))


def test_scientist_workflow_coarse_to_fine(density):
    """The paper's motivating workflow: explore coarsely, refine the region of
    interest to full fidelity, never decompress twice."""
    comp = IPComp(error_bound=1e-6, relative=True)
    blob = comp.compress(density)
    eb = comp.absolute_bound(density)

    retriever = ProgressiveRetriever(blob)
    quicklook = retriever.retrieve(error_bound=eb * 4096)
    assert max_error(density, quicklook.data) <= eb * 4096 * (1 + 1e-9)

    # The coarse pass is enough to locate the maximum-density region.
    coarse_peak = np.unravel_index(np.argmax(quicklook.data), density.shape)
    true_peak = np.unravel_index(np.argmax(density), density.shape)
    assert np.linalg.norm(np.subtract(coarse_peak, true_peak)) <= 4.0

    refined = retriever.retrieve(error_bound=eb)
    assert max_error(density, refined.data) <= eb * (1 + 1e-12)
    assert retriever.cumulative_bytes <= len(blob) * 1.02


def test_bitrate_budgeted_campaign(density):
    """Fixed-rate mode: with a larger I/O budget the fidelity must improve."""
    comp = IPComp(error_bound=1e-7, relative=True)
    blob = comp.compress(density)
    psnrs = []
    for bitrate in (0.5, 1.0, 2.0, 4.0):
        result = ProgressiveRetriever(blob).retrieve(bitrate=bitrate)
        psnrs.append(psnr(density, result.data))
    assert psnrs == sorted(psnrs)
    assert psnrs[-1] - psnrs[0] > 10.0


def test_post_analysis_needs_more_precision_than_visual(density):
    """Figure 11's observation: derivative quantities need finer retrievals."""
    comp = IPComp(error_bound=1e-7, relative=True)
    blob = comp.compress(density)
    eb = comp.absolute_bound(density)
    coarse = ProgressiveRetriever(blob).retrieve(error_bound=eb * 2048).data
    fine = ProgressiveRetriever(blob).retrieve(error_bound=eb * 8).data

    def relative_error(a, b):
        scale = np.abs(a).max()
        return np.abs(a - b).max() / scale

    raw_coarse = relative_error(density, coarse)
    lap_coarse = relative_error(laplacian(density), laplacian(coarse))
    lap_fine = relative_error(laplacian(density), laplacian(fine))
    assert lap_coarse > raw_coarse          # derivatives amplify the loss
    assert lap_fine < lap_coarse            # refining fixes the analysis


def test_progressive_beats_residual_on_retrieval_volume(density):
    """Figure 6's qualitative claim on a mid-fidelity request."""
    ipcomp = make_compressor("ipcomp", error_bound=1e-6, relative=True)
    sz3r = make_compressor("sz3-r", error_bound=1e-6, relative=True, rungs=5)
    blob_ip = ipcomp.compress(density)
    blob_rz = sz3r.compress(density)
    eb = ipcomp.absolute_bound(density)
    # Compare at the tightest retrieval fidelity, where the residual ladder
    # has to load and decompress every rung.
    target = eb
    out_ip = ipcomp.retrieve(blob_ip, error_bound=target)
    out_rz = sz3r.retrieve(blob_rz, error_bound=target)
    assert max_error(density, out_ip.data) <= target * (1 + 1e-9)
    assert max_error(density, out_rz.data) <= target * (1 + 1e-9)
    assert out_ip.passes == 1 and out_rz.passes > 1
    assert out_ip.bytes_loaded < out_rz.bytes_loaded


def test_parallel_blocks_to_container_and_back(density, tmp_path):
    """HPC-style pipeline: decompose, compress per block, archive in a block
    container, then read back only what a coarse analysis needs.  Figure 6's
    headline: a region of at most ¼ of the volume loads less than half of
    the full read's bytes at the same bound, and is bitwise its region."""
    path = tmp_path / "density_blocks.rprc"
    manifest = ChunkedDataset.write(
        path, density, error_bound=1e-6, relative=True, n_blocks=4
    )
    coarse = manifest["error_bound"] * 64
    with BlockContainerReader(path) as reader:
        shards = [n for n in reader.block_names() if n.startswith("shard-")]
        assert len(shards) == 4
    with ChunkedDataset(path) as dataset:
        full = dataset.read(error_bound=coarse)
    with ChunkedDataset(path) as dataset:
        # Load only the first slab for a region-of-interest analysis.
        first = dataset.shards[0]
        slab = dataset.read(error_bound=coarse, roi=first.slices)
        assert slab.shards == [first.name]
        assert slab.data.shape == first.shape
        assert slab.bytes_loaded < path.stat().st_size / 2
    assert slab.data.size / density.size <= 0.25
    assert slab.bytes_loaded / full.bytes_loaded < 0.5
    assert slab.data.tobytes() == full.data[first.slices].tobytes()


def test_summarize_reports_are_consistent(density):
    comp = IPComp(error_bound=1e-5, relative=True)
    blob = comp.compress(density)
    restored = comp.decompress(blob)
    report = summarize(density, restored, blob)
    assert report["max_error"] <= comp.absolute_bound(density) * (1 + 1e-12)
    assert report["compression_ratio"] > 1.0
    assert report["psnr"] > 40.0
