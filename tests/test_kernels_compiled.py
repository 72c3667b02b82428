"""Compiled (numba-JIT) kernel backend: identity, guards, auto-selection.

The ``"compiled"`` kernel is a pure performance feature with an *optional*
dependency, which splits its contract in two:

* **Algorithm identity** must hold on every machine.  The nopython sweep
  functions in :mod:`repro.core.kernels_compiled` are importable (and run
  as plain Python) without numba, so the differential tests against the
  fused kernel — and the full-pipeline byte-identity tests through a
  pure-Python-mode :class:`CompiledKernel` — run unconditionally.
* **The JIT path itself** (real numba compilation, warm-JIT determinism,
  registry resolution of ``kernel="compiled"``) only exists with the
  ``[compiled]`` extra installed and is skipped with a reason otherwise.

Every test uses a module-local rng: the conftest ``rng`` fixture is
session-scoped and shared, so drawing from it here would shift downstream
fixtures' draws.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels as kernels_module
from repro.core import kernels_compiled as compiled_module
from repro.core.compressor import IPComp
from repro.core.kernels import (
    AUTO_KERNEL,
    available_kernels,
    get_kernel,
    resolve_auto_kernel,
)
from repro.core.negabinary import from_negabinary, to_negabinary
from repro.core.profile import CodecProfile
from repro.core.progressive import ProgressiveRetriever
from repro.errors import ConfigurationError

DATA = Path(__file__).parent / "data"

HAVE_NUMBA = compiled_module.numba_available()

requires_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba not installed (the [compiled] extra)"
)


def _local_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(20260807 + offset)


def _field(rng: np.random.Generator, shape) -> np.ndarray:
    grids = np.meshgrid(*(np.linspace(0, 1, s) for s in shape), indexing="ij")
    smooth = sum(np.sin((3 + i) * g) for i, g in enumerate(grids))
    return (smooth + 0.05 * rng.normal(size=shape)).astype(np.float64)


@pytest.fixture
def compiled_kernel(monkeypatch):
    """A working CompiledKernel on any machine.

    With numba installed this is the real registry instance (JIT sweeps);
    without it, the construction guard is lifted for the duration of the
    test so the *same* sweep functions run as plain Python — the bytes must
    be identical either way, which is exactly what these tests pin.  The
    registry's instance cache is purged afterwards so a pure-Python-mode
    instance can never leak into ``kernel="compiled"``/``"auto"`` requests
    made by later tests.
    """
    if HAVE_NUMBA:
        yield get_kernel("compiled")
        return
    monkeypatch.setattr(compiled_module, "_NUMBA_IMPORT_ERROR", None)
    for name in ("compiled", AUTO_KERNEL):
        kernels_module._INSTANCES.pop(name, None)
    try:
        yield get_kernel("compiled")
    finally:
        for name in ("compiled", AUTO_KERNEL):
            kernels_module._INSTANCES.pop(name, None)


# ----------------------------------------------------------- registry & guard


def test_compiled_and_auto_are_registered():
    names = available_kernels()
    assert "compiled" in names and AUTO_KERNEL in names


def test_auto_resolves_to_fastest_available_backend():
    resolved = resolve_auto_kernel()
    assert resolved == ("compiled" if HAVE_NUMBA else "fused")
    assert get_kernel(AUTO_KERNEL).name == resolved
    # Auto is usable everywhere a kernel name is: profile validation and the
    # coder construction path both resolve it without special-casing.
    assert CodecProfile(kernel=AUTO_KERNEL).kernel == AUTO_KERNEL


@pytest.mark.skipif(HAVE_NUMBA, reason="guard only fires without numba")
def test_missing_numba_raises_configuration_error_with_install_hint():
    with pytest.raises(ConfigurationError, match=r"\[compiled\]"):
        get_kernel("compiled")
    with pytest.raises(ConfigurationError, match=r"\[compiled\]"):
        CodecProfile(kernel="compiled")
    # The degradation is per-request: nothing broken is cached, and auto
    # still resolves (to fused) instead of propagating the error.
    assert "compiled" not in kernels_module._INSTANCES
    assert get_kernel(AUTO_KERNEL).name == "fused"


_FIRST_RESOLUTION_PROBE = """
import gc, weakref
import numpy as np
from repro.core.kernels import get_kernel

def first_resolver():
    field = np.zeros(1 << 18)  # stands for the array ChunkedDataset.write holds
    alive = weakref.ref(field)
    get_kernel("auto")  # first resolution: lazily imports kernels_compiled
    return alive

alive = first_resolver()
gc.collect()
raise SystemExit(0 if alive() is None else 3)
"""


def test_first_auto_resolution_does_not_pin_the_resolvers_frames():
    """Without numba the lazy import fails inside whoever first resolves
    ``auto``; keeping that ``ImportError`` (and its traceback) alive would
    keep every frame of that caller — and its field-sized locals — alive
    for the life of the process.  Needs a fresh interpreter: the import
    only ever happens once."""
    src = Path(compiled_module.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run(
        [sys.executable, "-c", _FIRST_RESOLUTION_PROBE], env=env, timeout=120
    )
    assert probe.returncode == 0, "the first resolver's array outlived its frame"


# ------------------------------------------------- sweep identity (always on)


def test_sweep_functions_match_fused_blocks():
    """The nopython sweeps emit the fused kernel's bytes, bit for bit."""
    fused = get_kernel("fused")
    rng = _local_rng(1)
    for n in (1, 7, 8, 9, 64, 65, 300):
        for spread in (1, 900, 2**40):
            codes = rng.integers(-spread, spread + 1, size=n, dtype=np.int64)
            negabinary = to_negabinary(codes)
            row_bytes = (n + 7) // 8
            for prefix_bits in range(4):
                [(nbits, blocks)] = fused.encode_planes([codes], prefix_bits)
                packed = np.empty((nbits, row_bytes), dtype=np.uint8)
                compiled_module._encode_planes_sweep(
                    negabinary, nbits, prefix_bits, packed
                )
                assert [packed[r].tobytes() for r in range(nbits)] == blocks
                for keep in {1, nbits // 2, nbits} - {0}:
                    loaded = np.empty((keep, row_bytes), dtype=np.uint8)
                    for row in range(keep):
                        loaded[row] = np.frombuffer(blocks[row], dtype=np.uint8)
                    out = np.empty(n, dtype=np.uint64)
                    compiled_module._decode_planes_sweep(
                        loaded, n, nbits, prefix_bits, out
                    )
                    assert np.array_equal(
                        from_negabinary(out),
                        fused.decode_planes([(blocks[:keep], n, nbits)], prefix_bits)[0],
                    ), (n, spread, prefix_bits, keep)


def test_compiled_kernel_hook_parity(compiled_kernel):
    """encode_planes/decode_planes parity at the API level, edges included."""
    fused = get_kernel("fused")
    rng = _local_rng(2)
    for n in (0, 1, 65, 1000):
        codes = rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)
        for prefix_bits in (0, 1, 2, 3):
            out = compiled_kernel.encode_planes([codes], prefix_bits)
            assert out == fused.encode_planes([codes], prefix_bits)
            [(nbits, blocks)] = out
            for keep in {0, 1, nbits // 2, nbits}:
                level = [(blocks[:keep], n, nbits)]
                assert np.array_equal(
                    compiled_kernel.decode_planes(level, prefix_bits)[0],
                    fused.decode_planes(level, prefix_bits)[0],
                )
    with pytest.raises(ConfigurationError):
        compiled_kernel.encode_planes([np.zeros(4, dtype=np.int64)], 4)
    # Short plane rows (a kernel-contract violation: the predictive coder
    # rejects them first) surface the canonical unpack error, like fused.
    [(nbits, blocks)] = compiled_kernel.encode_planes(
        [rng.integers(-900, 900, size=64, dtype=np.int64)], 2
    )
    for kernel in (compiled_kernel, fused):
        with pytest.raises(ValueError):
            kernel.decode_planes([([blocks[0][:-1]], 64, nbits)], 2)


def test_compiled_streams_byte_identical_and_cross_decode(compiled_kernel):
    """Full-pipeline identity: v2 streams and decode across kernels."""
    rng = _local_rng(3)
    field = _field(rng, (10, 12, 14))
    blobs = {}
    for kernel in ("fused", "compiled"):
        profile = CodecProfile(
            error_bound=1e-4,
            relative=True,
            kernel=kernel,
            plane_coders=("zlib", "raw"),
        )
        blobs[kernel] = IPComp(profile=profile).compress(field)
    assert blobs["compiled"] == blobs["fused"]
    restored = {}
    for kernel in ("vectorized", "compiled"):
        retriever = ProgressiveRetriever(
            blobs["fused"], profile=CodecProfile(kernel=kernel)
        )
        restored[kernel] = retriever.retrieve(
            error_bound=retriever.header.error_bound
        ).data
    assert np.array_equal(restored["compiled"], restored["vectorized"])


def test_compiled_decodes_pinned_v1_stream(compiled_kernel):
    """v1 streams (implicit single backend) decode identically under JIT."""
    blob = (DATA / "v1_stream.ipc").read_bytes()
    expected = np.load(DATA / "v1_expected.npy")
    retriever = ProgressiveRetriever(blob, profile=CodecProfile(kernel="compiled"))
    result = retriever.retrieve(error_bound=retriever.header.error_bound)
    assert result.data.tobytes() == expected.tobytes()


def test_compiled_retrieve_rebuilt_rung_merge_is_bitwise(compiled_kernel):
    """Algorithm-2 code merging under the compiled kernel stays bitwise.

    ``retrieve_rebuilt`` merges delta plane blocks into resident integer
    codes and runs one reconstruction pass; the serving layer relies on the
    result being bitwise what a fresh retrieval produces — under any
    kernel.
    """
    rng = _local_rng(4)
    field = _field(rng, (12, 14, 10))
    blob = IPComp(error_bound=1e-6, relative=True).compress(field)
    eb = ProgressiveRetriever(blob).header.error_bound
    stateful = ProgressiveRetriever(blob, profile=CodecProfile(kernel="compiled"))
    stateful.retrieve(error_bound=eb * 256)
    rebuilt = stateful.retrieve_rebuilt(error_bound=eb)
    fresh = ProgressiveRetriever(blob).retrieve(error_bound=eb)
    assert rebuilt.data.tobytes() == fresh.data.tobytes()


# ------------------------------------------------------ arena thread safety


@pytest.mark.parametrize("name", ["fused", "compiled"])
def test_arena_kernels_threaded_byte_identity(name, compiled_kernel):
    """One shared instance, many decoding threads, zero cross-talk.

    ``get_kernel`` caches a single instance per name and ``RetrievalService
    --threads`` decodes concurrently on it; the grow-only scratch arena is
    per thread (:class:`repro.core.kernels.ArenaKernel`), so concurrent
    levels of *different* sizes must reproduce the serial bytes exactly.
    """
    kernel = compiled_kernel if name == "compiled" else get_kernel(name)
    rng = _local_rng(5)
    jobs = []
    for i in range(24):
        n = int(rng.integers(1, 1200))
        codes = rng.integers(-(2**30), 2**30, size=n, dtype=np.int64)
        jobs.append((codes, 2))
    serial = [kernel.encode_planes([codes], pb)[0] for codes, pb in jobs]
    barrier = threading.Barrier(8)

    def worker(index: int):
        barrier.wait()  # maximise overlap
        out = []
        for j in range(index, len(jobs), 8):
            codes, pb = jobs[j]
            [(nbits, blocks)] = kernel.encode_planes([codes], pb)
            [decoded] = kernel.decode_planes([(blocks, codes.size, nbits)], pb)
            out.append((j, (nbits, blocks), decoded))
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = [item for chunk in pool.map(worker, range(8)) for item in chunk]
    for j, encoded, decoded in results:
        assert encoded == serial[j], f"job {j} encode diverged under threads"
        assert np.array_equal(decoded, np.asarray(jobs[j][0])), j


def test_arena_is_not_shared_across_threads(compiled_kernel):
    arenas = {}

    def grab(key):
        arenas[key] = compiled_kernel._arena

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    grab("main")
    assert len({id(a) for a in arenas.values()}) == len(arenas)


# --------------------------------------------------------------- JIT-only


@requires_numba
def test_warm_jit_determinism_fresh_instance():
    """First call compiles; the bytes before/after compilation are equal.

    A *fresh* (unwarmed) kernel instance must emit exactly the same stream
    bytes on its compiling first call as on every warm call after — JIT
    state is invisible in the output.
    """
    from repro.core.kernels_compiled import CompiledKernel

    fresh = CompiledKernel()
    rng = _local_rng(6)
    codes = rng.integers(-(2**33), 2**33, size=4096, dtype=np.int64)
    first = fresh.encode_planes([codes], 2)
    warm = fresh.encode_planes([codes], 2)
    assert first == warm == get_kernel("fused").encode_planes([codes], 2)
    [(nbits, blocks)] = first
    [cold_decode] = fresh.decode_planes([(blocks, codes.size, nbits)], 2)
    assert np.array_equal(cold_decode, codes)
    assert fresh.warmup() >= 0.0


@requires_numba
def test_numba_introspection_helpers():
    assert compiled_module.numba_version()
    assert compiled_module.threading_layer()
