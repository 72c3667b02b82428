"""Differential tests: the production bit paths must match the loop oracle.

Every bit-level operation is checked for exact (bit/byte) equality between
the loops of ``tests/oracle_kernel.py`` and the NumPy code in ``src/`` — the
plane kernel's hooks (plane order, partial decode, XOR prediction, bit
packing), the :mod:`repro.core.negabinary` maps, the Huffman coder's bit
scatter and :class:`~repro.core.quantizer.LinearQuantizer` — across dtypes,
shapes (1-D/2-D/3-D), plane widths, and prefix-bit settings — and end to
end: with the oracle substituted for the one plane kernel, IPComp streams,
dataset files and Huffman symbol streams stay byte-identical.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from oracle_kernel import OracleKernel, plane_rows, shard_rows
from repro import CodecProfile, IPComp
from repro.coders import huffman
from repro.coders.huffman import decode_symbols, encode_symbols
from repro.core import negabinary
from repro.core.kernels import PlaneKernel, get_kernel
from repro.core.progressive import ProgressiveRetriever
from repro.core.quantizer import LinearQuantizer
from repro.datasets import load_dataset
from repro.errors import ConfigurationError

REF = OracleKernel()


@pytest.fixture
def rng() -> np.random.Generator:
    # Deliberately shadows the session-scoped conftest ``rng``: that fixture
    # is a single shared stream, and consuming it here would shift the draws
    # every later test module sees.
    return np.random.default_rng(714)


def _codes(rng, n=300, width=12):
    return rng.integers(0, 1 << width, size=n).astype(np.uint64)


# ------------------------------------------------------------------ one path


def test_get_kernel_is_the_one_process_wide_instance():
    assert get_kernel() is get_kernel()
    assert type(get_kernel()) is PlaneKernel
    with pytest.raises(TypeError):
        get_kernel("fused")  # no selector: the accessor takes no argument


def test_kernel_keyword_is_an_unknown_option():
    """``kernel=`` went with the registry: it fails like any other typo."""
    with pytest.raises(ConfigurationError, match="unknown codec option"):
        IPComp(error_bound=1e-4, kernel="fused")
    with pytest.raises(TypeError):
        CodecProfile(kernel="fused")
    with pytest.raises(TypeError):
        LinearQuantizer(1e-4, kernel="fused")
    with pytest.raises(TypeError):
        ProgressiveRetriever(b"", profile=CodecProfile())


# ---------------------------------------------------------------- bitplane ops


@pytest.mark.parametrize("width,nbits", [(1, 1), (5, 7), (12, 16), (31, 33), (60, 64)])
def test_extract_and_assemble_match(rng, width, nbits):
    codes = _codes(rng, width=width)
    codes[0] |= np.uint64(1 << (nbits - 1))  # the level is exactly nbits wide
    values = REF.from_negabinary(codes)
    ref_planes = REF.extract_bitplanes(codes, nbits)
    ((vec_nbits, blocks),) = get_kernel().encode_planes([values], 0)
    assert vec_nbits == nbits
    assert blocks == [REF.pack_bits(plane) for plane in ref_planes]
    rows = plane_rows(blocks, codes.size)
    for keep in (0, 1, nbits // 2, nbits):
        (decoded,) = get_kernel().decode_planes(*shard_rows([(rows[:keep], codes.size, nbits)]), 0)
        expected = REF.from_negabinary(REF.assemble_bitplanes(ref_planes[:keep], nbits))
        assert np.array_equal(decoded, expected)
    assert np.array_equal(decoded, values)


def test_extract_empty_and_invalid_nbits(rng):
    assert REF.extract_bitplanes(np.zeros(0, dtype=np.uint64), 5).shape == (5, 0)
    with pytest.raises(ConfigurationError):
        REF.extract_bitplanes(_codes(rng), 0)
    with pytest.raises(ConfigurationError):
        REF.extract_bitplanes(_codes(rng), 65)
    with pytest.raises(ConfigurationError):
        REF.assemble_bitplanes(np.zeros((4, 3), dtype=np.uint8), 3)
    # The kernel: an empty level is one empty plane, and more plane rows
    # than the level is wide are refused.
    empty = [np.zeros(0, dtype=np.int64)]
    assert get_kernel().encode_planes(empty, 0) == REF.encode_planes(empty, 0) == [(1, [b""])]
    with pytest.raises(ValueError):
        get_kernel().decode_planes(np.zeros(4, dtype=np.uint8), array("q", (0, 4, 3, 3)), 0)


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_predictive_coding_matches(rng, prefix_bits):
    values = REF.from_negabinary(_codes(rng, width=14))
    encoded = get_kernel().encode_planes([values], prefix_bits)
    assert encoded == REF.encode_planes([values], prefix_bits)
    ((nbits, blocks),) = encoded
    rows = plane_rows(blocks, values.size)
    (decoded,) = get_kernel().decode_planes(*shard_rows([(rows, values.size, nbits)]), prefix_bits)
    assert np.array_equal(decoded, values)
    # Prefix decodability: a prefix of the planes decodes without the rest.
    assert np.array_equal(
        get_kernel().decode_planes(*shard_rows([(rows[:5], values.size, nbits)]), prefix_bits)[0],
        REF.decode_planes(*shard_rows([(blocks[:5], values.size, nbits)]), prefix_bits)[0],
    )


def test_predictive_invalid_prefix_bits(rng):
    values = REF.from_negabinary(_codes(rng, width=8))
    for ops in (REF, get_kernel()):
        with pytest.raises(ConfigurationError):
            ops.encode_planes([values], 4)
        with pytest.raises(ConfigurationError):
            ops.decode_planes(*shard_rows([]), -1)


# ------------------------------------------------------------------- bit pack


@pytest.mark.parametrize("count", [0, 1, 3, 8, 17, 1000])
def test_pack_unpack_bits_match(rng, count):
    bits = (rng.random(count) > 0.6).astype(np.uint8)
    ref_packed = REF.pack_bits(bits)
    assert np.array_equal(REF.unpack_bits(ref_packed, count), bits)
    # A level of 0/1 values is one plane: its bits, packed.
    assert get_kernel().encode_planes([bits], 0) == [(1, [ref_packed])]
    rows = plane_rows([ref_packed], count)
    assert np.array_equal(get_kernel().decode_planes(*shard_rows([(rows, count, 1)]), 0)[0], bits)


def test_scatter_code_bits_match(rng):
    n = 200
    lengths = rng.integers(1, 17, size=n).astype(np.int64)
    codes = np.array(
        [int(rng.integers(0, 1 << int(l))) for l in lengths], dtype=np.uint64
    )
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    total = int(offsets[-1] + lengths[-1])
    assert np.array_equal(
        REF.scatter_code_bits(codes, lengths, offsets, total),
        huffman.scatter_code_bits(codes, lengths, offsets, total),
    )


# ----------------------------------------------------------------- negabinary


def test_negabinary_roundtrip_matches(rng):
    values = np.concatenate(
        [
            rng.integers(-(2**48), 2**48, size=400),
            np.array([0, 1, -1, 2, -2, 3, -3, 2**40, -(2**40)]),
        ]
    ).astype(np.int64)
    ref_codes = REF.to_negabinary(values)
    vec_codes = negabinary.to_negabinary(values)
    assert np.array_equal(ref_codes, vec_codes)
    assert np.array_equal(REF.from_negabinary(ref_codes), values)
    assert np.array_equal(negabinary.from_negabinary(vec_codes), values)


# --------------------------------------------------------------- quantization


@pytest.mark.parametrize("bin_width", [1e-6, 0.125, 3.0])
def test_quantize_dequantize_match(rng, bin_width):
    values = rng.normal(scale=10.0, size=500)
    # Include exact half-bin values to pin down the rounding convention.
    values[:8] = np.arange(8) * bin_width + bin_width / 2
    quantizer = LinearQuantizer(bin_width / 2)
    assert quantizer.bin_width == bin_width
    ref_q = REF.quantize(values, bin_width)
    vec_q = quantizer.quantize(values)
    assert np.array_equal(ref_q, vec_q)
    assert np.array_equal(REF.dequantize(ref_q, bin_width), quantizer.dequantize(vec_q))


# -------------------------------------------------------------------- huffman


def test_huffman_streams_byte_identical(rng, monkeypatch):
    symbols = rng.integers(-40, 40, size=2000)
    vec_stream = encode_symbols(symbols)
    assert np.array_equal(decode_symbols(vec_stream), symbols)
    # The coder resolves its bit scatter at call time.
    monkeypatch.setattr(huffman, "scatter_code_bits", REF.scatter_code_bits)
    ref_stream = encode_symbols(symbols)
    assert ref_stream == vec_stream
    assert np.array_equal(decode_symbols(ref_stream), symbols)


# ------------------------------------------------------------------ end to end


@pytest.mark.parametrize(
    "shape,dtype",
    [((200,), np.float64), ((17, 23), np.float32), ((10, 12, 14), np.float64)],
)
@pytest.mark.parametrize("prefix_bits", [0, 2])
def test_streams_byte_identical_across_kernels(oracle, shape, dtype, prefix_bits):
    field = load_dataset("density", shape=shape).astype(dtype)
    comp = IPComp(error_bound=1e-4, relative=True, prefix_bits=prefix_bits)
    blob = comp.compress(field)
    restored = ProgressiveRetriever(blob).retrieve(error_bound=1e-3).data
    oracle()
    assert comp.compress(field) == blob
    # Cross-decode: the oracle decodes the sweep's stream to identical output.
    assert np.array_equal(
        ProgressiveRetriever(blob).retrieve(error_bound=1e-3).data, restored
    )


def test_chunked_dataset_files_byte_identical_across_kernels(oracle, tmp_path):
    """The container path preserves the byte-identity contract.

    A sharded ``ChunkedDataset`` file written through the loop oracle must be
    byte-identical to one written by the sweep, and both must refine their
    (identical) file to identical output.
    """
    from repro.io import ChunkedDataset

    field = load_dataset("pressure", shape=(16, 12, 10)).astype(np.float64)

    def write_and_refine(name):
        path = tmp_path / f"field.{name}.rprc"
        ChunkedDataset.write(
            path, field, error_bound=1e-4, relative=True, n_blocks=3
        )
        with ChunkedDataset(path) as dataset:
            eb = dataset.absolute_bound
            steps = [
                dataset.refine(error_bound=eb * 64).data.copy(),
                dataset.refine(error_bound=eb).data.copy(),
            ]
        return path.read_bytes(), steps

    sweep_file, sweep_steps = write_and_refine("sweep")
    oracle()
    oracle_file, oracle_steps = write_and_refine("oracle")
    assert oracle_file == sweep_file
    for ref_step, vec_step in zip(oracle_steps, sweep_steps):
        assert np.array_equal(ref_step, vec_step)


def test_progressive_refinement_identical_across_kernels(oracle):
    field = load_dataset("wave", shape=(12, 14, 16))
    blob = IPComp(error_bound=1e-6, relative=True).compress(field)
    eb = ProgressiveRetriever(blob).header.error_bound

    def ladder():
        retriever = ProgressiveRetriever(blob)
        return [retriever.retrieve(error_bound=bound).data
                for bound in (512 * eb, 16 * eb, eb)]

    sweep_steps = ladder()
    oracle()
    for ref_step, vec_step in zip(ladder(), sweep_steps):
        assert np.array_equal(ref_step, vec_step)
