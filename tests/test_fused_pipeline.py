"""Sweep byte identity.

The packed-domain shard sweep is a pure performance feature: it may not
change a single stream byte.  These tests pin that contract:

* a **byte-identity matrix** over synthetic fields (the sweep ≡ the loop
  oracle of ``tests/oracle_kernel.py``);
* the kernel hooks (`encode_planes` / `decode_planes`) agree with the oracle
  at the API level, including the edge shapes the stream layer never
  exercises.

Every test uses a module-local rng: the conftest ``rng`` fixture is
session-scoped and shared, so drawing from it here would shift downstream
fixtures' draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracle_kernel import OracleKernel, shard_rows
from repro.core.compressor import IPComp
from repro.core.kernels import get_kernel
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever


def _local_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(20260726 + offset)


def _field(rng: np.random.Generator, shape) -> np.ndarray:
    grids = np.meshgrid(*(np.linspace(0, 1, s) for s in shape), indexing="ij")
    smooth = sum(np.sin((3 + i) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.normal(size=shape)).astype(np.float64)


# ------------------------------------------------------------ identity matrix


@pytest.mark.parametrize("shape", [(257,), (31, 37), (14, 18, 22)])
def test_kernel_stream_identity_matrix(oracle, shape):
    """The sweep and the oracle emit byte-identical streams."""
    field = _field(_local_rng(100 * len(shape)), shape)
    profile = CodecProfile(error_bound=1e-4, relative=True)
    stream = IPComp(profile=profile).compress(field)
    oracle()
    assert IPComp(profile=profile).compress(field) == stream


def test_the_oracle_decodes_the_sweeps_stream(oracle):
    rng = _local_rng(3)
    field = _field(rng, (12, 16, 20))
    blob = IPComp(error_bound=1e-5, relative=True).compress(field)
    eb = CodecProfile(error_bound=1e-5, relative=True).absolute_bound(field)
    retriever = ProgressiveRetriever(blob)
    out = retriever.retrieve(error_bound=retriever.header.error_bound).data
    assert np.abs(out - field).max() <= eb * (1 + 1e-9)
    oracle()
    retriever = ProgressiveRetriever(blob)
    again = retriever.retrieve(error_bound=retriever.header.error_bound).data
    assert again.tobytes() == out.tobytes()


def test_encode_planes_hook_parity_across_kernels():
    rng = _local_rng(5)
    kernels = [get_kernel(), OracleKernel()]
    for n in (0, 1, 7, 64, 65, 1000):
        for spread in (1, 900, 2**40):
            codes = rng.integers(-spread, spread + 1, size=n, dtype=np.int64)
            for prefix_bits in range(4):
                outs = [k.encode_planes([codes], prefix_bits) for k in kernels]
                for other in outs[1:]:
                    assert other == outs[0], (n, spread, prefix_bits)
                [(nbits, blocks)] = outs[0]
                for keep in {0, 1, nbits // 2, nbits}:
                    decoded = [
                        k.decode_planes(*shard_rows([(blocks[:keep], n, nbits)]), prefix_bits)[0]
                        for k in kernels
                    ]
                    for other in decoded[1:]:
                        assert np.array_equal(decoded[0], other)
                    if keep == nbits:
                        assert np.array_equal(decoded[0], codes)


def test_back_to_back_encodes_of_different_shapes_do_not_leak():
    """Calls of different shapes one after another each return the oracle's
    bytes: a long wide shard, then short and narrow ones, then long again,
    so that nothing one call leaves behind shows in the next."""
    sweep = get_kernel()
    reference = OracleKernel()
    rng = _local_rng(8)
    previous = None
    for sizes, top, prefix_bits in (
        ((4096,), 20, 2), ((17, 3), 50, 1), ((900, 0, 5), 4, 3), ((4096, 1), 62, 0), ((1,), 1, 2)
    ):
        shard = [rng.integers(-(2**top), 2**top, size=n, dtype=np.int64) for n in sizes]
        want = [reference.encode_planes([codes], prefix_bits)[0] for codes in shard]
        assert sweep.encode_planes(shard, prefix_bits) == want
        if previous is not None:
            # Re-encoding the previous shard still matches.
            assert sweep.encode_planes(*previous[:2]) == previous[2]
        previous = (shard, prefix_bits, want)


# --------------------------------------------------------- executor


def test_compress_into_streaming_and_keep_blobs(tmp_path):
    """Shards reach the writer one by one, in slab order, each the stream
    ``IPComp`` makes of its slab; only the slab extents come back (no
    payload is kept)."""
    from repro.io import BlockContainerReader, BlockContainerWriter
    from repro.parallel.executor import BlockParallelCompressor
    from repro.parallel.partition import block_slices, slices_to_ranges

    rng = _local_rng(23)
    field = _field(rng, (16, 18, 20))
    resolved = CodecProfile(error_bound=1e-4, relative=True).resolve(field)
    comp = BlockParallelCompressor(resolved, 3)
    slabs = block_slices(field.shape, 3)

    order = []

    class RecordingWriter:
        def __init__(self, inner):
            self.inner = inner

        def add_block(self, name, payload, metadata=None):
            order.append(name)
            self.inner.add_block(name, payload, metadata)

    path = tmp_path / "streamed.rprc"
    with BlockContainerWriter(path) as writer:
        extents = comp.compress_into(RecordingWriter(writer), field)
    assert order == ["shard-0000", "shard-0001", "shard-0002"]
    assert extents == [slices_to_ranges(slc, field.shape) for slc in slabs]
    with BlockContainerReader(path) as reader:
        stored = [reader.read_block(n) for n in order]
        assert [reader.metadata(n)["slices"] for n in order] == extents
    assert stored == [IPComp(profile=resolved).compress(field[slc]) for slc in slabs]
