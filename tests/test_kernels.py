"""Differential tests: the vectorized kernel must match the reference oracle.

Every bit-level operation is checked for exact (bit/byte) equality between
the ``"reference"`` loop kernel and the ``"vectorized"`` NumPy kernel, across
dtypes, shapes (1-D/2-D/3-D), plane widths, and prefix-bit settings — and
end to end: both kernels must produce byte-identical IPComp streams and
byte-identical Huffman symbol streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CodecProfile, IPComp
from repro.coders.huffman import decode_symbols, encode_symbols
from repro.core.kernels import (
    DEFAULT_KERNEL,
    Kernel,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_auto_kernel,
)
from repro.core.kernels_compiled import numba_available
from repro.core.progressive import ProgressiveRetriever
from repro.core.quantizer import LinearQuantizer
from repro.datasets import load_dataset
from repro.errors import ConfigurationError

REF = get_kernel("reference")
VEC = get_kernel("vectorized")


@pytest.fixture
def rng() -> np.random.Generator:
    # Deliberately shadows the session-scoped conftest ``rng``: that fixture
    # is a single shared stream, and consuming it here would shift the draws
    # every later test module sees.
    return np.random.default_rng(714)


def _codes(rng, n=300, width=12):
    return rng.integers(0, 1 << width, size=n).astype(np.uint64)


# --------------------------------------------------------------------- registry


def test_registry_lists_builtin_kernels():
    names = available_kernels()
    assert "reference" in names and "vectorized" in names
    assert "fused" in names and "compiled" in names and "auto" in names
    assert DEFAULT_KERNEL == "auto" == CodecProfile().kernel


def test_get_kernel_default_and_passthrough():
    # The default resolves to the fastest backend this machine constructs.
    assert get_kernel() is get_kernel(resolve_auto_kernel())
    assert get_kernel(REF) is REF
    assert get_kernel("reference") is REF  # instances are cached


def test_unknown_kernel_rejected():
    with pytest.raises(ConfigurationError):
        get_kernel("no-such-kernel")
    with pytest.raises(ConfigurationError):
        IPComp(error_bound=1e-4, kernel="no-such-kernel")
    with pytest.raises(ConfigurationError):
        LinearQuantizer(1e-4, kernel="no-such-kernel")


def test_register_kernel_replaces_and_validates():
    class Probe(Kernel):
        name = "probe"

    register_kernel("probe", Probe)
    try:
        assert isinstance(get_kernel("probe"), Probe)
    finally:
        from repro.core import kernels as kernels_module

        kernels_module._REGISTRY.pop("probe", None)
        kernels_module._INSTANCES.pop("probe", None)
    with pytest.raises(ConfigurationError):
        register_kernel("", Probe)


# ---------------------------------------------------------------- bitplane ops


@pytest.mark.parametrize("width,nbits", [(1, 1), (5, 7), (12, 16), (31, 33), (60, 64)])
def test_extract_and_assemble_match(rng, width, nbits):
    codes = _codes(rng, width=width)
    ref_planes = REF.extract_bitplanes(codes, nbits)
    vec_planes = VEC.extract_bitplanes(codes, nbits)
    assert np.array_equal(ref_planes, vec_planes)
    for keep in (0, 1, nbits // 2, nbits):
        assert np.array_equal(
            REF.assemble_bitplanes(ref_planes[:keep], nbits),
            VEC.assemble_bitplanes(vec_planes[:keep], nbits),
        )
    assert np.array_equal(VEC.assemble_bitplanes(vec_planes, nbits), codes)


def test_extract_empty_and_invalid_nbits(rng):
    for kernel in (REF, VEC):
        assert kernel.extract_bitplanes(np.zeros(0, dtype=np.uint64), 5).shape == (5, 0)
        with pytest.raises(ConfigurationError):
            kernel.extract_bitplanes(_codes(rng), 0)
        with pytest.raises(ConfigurationError):
            kernel.extract_bitplanes(_codes(rng), 65)
        with pytest.raises(ConfigurationError):
            kernel.assemble_bitplanes(np.zeros((4, 3), dtype=np.uint8), 3)


@pytest.mark.parametrize("prefix_bits", [0, 1, 2, 3])
def test_predictive_coding_matches(rng, prefix_bits):
    planes = VEC.extract_bitplanes(_codes(rng), 14)
    ref_encoded = REF.predictive_encode(planes, prefix_bits)
    vec_encoded = VEC.predictive_encode(planes, prefix_bits)
    assert np.array_equal(ref_encoded, vec_encoded)
    assert np.array_equal(
        REF.predictive_decode(ref_encoded, prefix_bits),
        VEC.predictive_decode(vec_encoded, prefix_bits),
    )
    # Prefix decodability: a prefix of the planes decodes without the rest.
    assert np.array_equal(
        VEC.predictive_decode(vec_encoded[:5], prefix_bits), planes[:5]
    )


def test_predictive_invalid_prefix_bits(rng):
    planes = VEC.extract_bitplanes(_codes(rng), 8)
    for kernel in (REF, VEC):
        with pytest.raises(ConfigurationError):
            kernel.predictive_encode(planes, 4)
        with pytest.raises(ConfigurationError):
            kernel.predictive_decode(planes, -1)


# ------------------------------------------------------------------- bit pack


@pytest.mark.parametrize("count", [0, 1, 3, 8, 17, 1000])
def test_pack_unpack_bits_match(rng, count):
    bits = (rng.random(count) > 0.6).astype(np.uint8)
    ref_packed = REF.pack_bits(bits)
    vec_packed = VEC.pack_bits(bits)
    assert ref_packed == vec_packed
    assert np.array_equal(REF.unpack_bits(ref_packed, count), bits)
    assert np.array_equal(VEC.unpack_bits(vec_packed, count), bits)


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
        VEC.scatter_code_bits(codes, lengths, offsets, total),
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
    vec_codes = VEC.to_negabinary(values)
    assert np.array_equal(ref_codes, vec_codes)
    assert np.array_equal(REF.from_negabinary(ref_codes), values)
    assert np.array_equal(VEC.from_negabinary(vec_codes), values)


# --------------------------------------------------------------- quantization


@pytest.mark.parametrize("bin_width", [1e-6, 0.125, 3.0])
def test_quantize_dequantize_match(rng, bin_width):
    values = rng.normal(scale=10.0, size=500)
    # Include exact half-bin values to pin down the rounding convention.
    values[:8] = np.arange(8) * bin_width + bin_width / 2
    ref_q = REF.quantize(values, bin_width)
    vec_q = VEC.quantize(values, bin_width)
    assert np.array_equal(ref_q, vec_q)
    assert np.array_equal(REF.dequantize(ref_q, bin_width), VEC.dequantize(vec_q, bin_width))


# -------------------------------------------------------------------- huffman


def test_huffman_streams_byte_identical(rng):
    symbols = rng.integers(-40, 40, size=2000)
    ref_stream = encode_symbols(symbols, kernel="reference")
    vec_stream = encode_symbols(symbols, kernel="vectorized")
    assert ref_stream == vec_stream
    assert np.array_equal(decode_symbols(ref_stream, kernel="reference"), symbols)
    assert np.array_equal(decode_symbols(vec_stream, kernel="vectorized"), symbols)


# ------------------------------------------------------------------ end to end


@pytest.mark.parametrize(
    "kernel",
    [
        "fused",
        "auto",
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(
                not numba_available(),
                reason="numba not installed (the [compiled] extra)",
            ),
        ),
    ],
)
def test_extended_kernels_match_the_oracle_stream(kernel):
    """The arena/JIT/auto kernels emit the reference oracle's exact bytes."""
    field = load_dataset("density", shape=(11, 13, 17)).astype(np.float64)
    oracle = IPComp(error_bound=1e-4, relative=True, kernel="reference").compress(field)
    assert IPComp(error_bound=1e-4, relative=True, kernel=kernel).compress(field) == oracle


@pytest.mark.parametrize(
    "shape,dtype",
    [((200,), np.float64), ((17, 23), np.float32), ((10, 12, 14), np.float64)],
)
@pytest.mark.parametrize("prefix_bits", [0, 2])
def test_streams_byte_identical_across_kernels(shape, dtype, prefix_bits):
    field = load_dataset("density", shape=shape).astype(dtype)
    blobs = {}
    for kernel in ("reference", "vectorized"):
        comp = IPComp(error_bound=1e-4, relative=True, prefix_bits=prefix_bits,
                      kernel=kernel)
        blobs[kernel] = comp.compress(field)
    assert blobs["reference"] == blobs["vectorized"]

    # Cross-decode: each kernel decodes the shared stream to identical output.
    restored = {
        kernel: ProgressiveRetriever(blobs["vectorized"], profile=CodecProfile(kernel=kernel))
        .retrieve(error_bound=1e-3)
        .data
        for kernel in ("reference", "vectorized")
    }
    assert np.array_equal(restored["reference"], restored["vectorized"])


def test_chunked_dataset_files_byte_identical_across_kernels(tmp_path):
    """The container path preserves the kernel-independence invariant.

    Kernels are a runtime choice, never a stream property: a sharded
    ``ChunkedDataset`` file written with the reference kernel must be
    byte-identical to one written with the vectorized kernel (which is why
    the manifest records no kernel field), and either kernel must decode
    either file to identical output.
    """
    from repro.io import ChunkedDataset

    field = load_dataset("pressure", shape=(16, 12, 10)).astype(np.float64)
    paths = {}
    for kernel in ("reference", "vectorized"):
        paths[kernel] = tmp_path / f"field.{kernel}.rprc"
        ChunkedDataset.write(
            paths[kernel], field, error_bound=1e-4, relative=True,
            n_blocks=3, workers=0, kernel=kernel,
        )
    assert paths["reference"].read_bytes() == paths["vectorized"].read_bytes()

    outputs = {}
    for kernel in ("reference", "vectorized"):
        with ChunkedDataset(paths["vectorized"], profile=CodecProfile(kernel=kernel)) as dataset:
            eb = dataset.absolute_bound
            outputs[kernel] = [
                dataset.refine(error_bound=eb * 64).data.copy(),
                dataset.refine(error_bound=eb).data.copy(),
            ]
    for ref_step, vec_step in zip(outputs["reference"], outputs["vectorized"]):
        assert np.array_equal(ref_step, vec_step)


def test_progressive_refinement_identical_across_kernels():
    field = load_dataset("wave", shape=(12, 14, 16))
    blob = IPComp(error_bound=1e-6, relative=True).compress(field)
    eb = ProgressiveRetriever(blob).header.error_bound
    outputs = {}
    for kernel in ("reference", "vectorized"):
        retriever = ProgressiveRetriever(blob, profile=CodecProfile(kernel=kernel))
        steps = [retriever.retrieve(error_bound=bound).data
                 for bound in (512 * eb, 16 * eb, eb)]
        outputs[kernel] = steps
    for ref_step, vec_step in zip(outputs["reference"], outputs["vectorized"]):
        assert np.array_equal(ref_step, vec_step)
