"""Shared fixtures for the test suite.

The fields are intentionally small (a few thousand points) so the whole suite
runs in seconds; the benchmarks under ``benchmarks/`` use the realistic
(scaled-down Table 3) shapes instead.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-scoped shared RNG — **footgun, do not consume in new tests**.

    The generator is a single mutable stream shared by every session-scoped
    fixture below: any new consumer shifts the draws of every fixture (and
    test) that samples after it, silently changing data other test modules
    pinned expectations against.  It stays only because existing fixtures
    (``rough_3d``) already encode its draw order.  New tests should use the
    function-scoped :func:`local_rng` instead, which is independent per
    test.
    """
    return np.random.default_rng(20250615)


@pytest.fixture
def local_rng(request) -> np.random.Generator:
    """A per-test RNG seeded from the test's own node id.

    Every test gets an independent, reproducible stream: draws cannot shift
    when tests are added, removed, or reordered, and two tests never share
    generator state (unlike the session-scoped ``rng``).
    """
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture(scope="session")
def smooth_3d() -> np.ndarray:
    """A smooth 3-D field (sums of separable sinusoids plus a ramp)."""
    z, y, x = np.meshgrid(
        np.linspace(0, 1, 24), np.linspace(0, 1, 20), np.linspace(0, 1, 18), indexing="ij"
    )
    return (
        np.sin(4 * np.pi * x) * np.cos(3 * np.pi * y)
        + 0.5 * np.sin(2 * np.pi * z)
        + 2.0 * x
        + 0.3 * y * z
    ).astype(np.float64)


@pytest.fixture(scope="session")
def rough_3d(rng) -> np.ndarray:
    """A rougher 3-D field: smooth base plus correlated noise."""
    base = np.cumsum(rng.normal(size=(20, 16, 14)), axis=0)
    base = base + np.cumsum(rng.normal(size=(20, 16, 14)), axis=1) * 0.5
    return base.astype(np.float64)


@pytest.fixture(scope="session")
def smooth_2d() -> np.ndarray:
    y, x = np.meshgrid(np.linspace(0, 1, 40), np.linspace(0, 1, 37), indexing="ij")
    return (np.sin(5 * x) + np.cos(4 * y) + x * y).astype(np.float64)


@pytest.fixture(scope="session")
def signal_1d() -> np.ndarray:
    t = np.linspace(0, 8 * np.pi, 301)
    return (np.sin(t) + 0.1 * np.sin(13 * t) + 0.01 * t**2).astype(np.float64)


def cumsum_field(shape, seed=0) -> np.ndarray:
    """A smooth random field from its own generator (never the shared ``rng``)."""
    rng = np.random.default_rng(90210 + seed)
    base = rng.normal(size=shape)
    for axis in range(len(shape)):
        base = np.cumsum(base, axis=axis)
    return (base + 0.1 * rng.normal(size=shape)).astype(np.float64)


def assert_frozen(array: np.ndarray) -> None:
    """No write through numpy reaches ``array``: an in-place update, a
    slice assignment and ``np.copyto`` raise, and so does turning writes
    back on, on the array or on its base."""
    with pytest.raises(ValueError):
        array.flat[0] += 1.0
    with pytest.raises(ValueError):
        array[...] = 0
    with pytest.raises(ValueError):
        np.copyto(array, 0)
    for view in (array, array.base):
        with pytest.raises(ValueError):
            view.flags.writeable = True


@pytest.fixture(scope="session")
def v1_blob() -> bytes:
    """The pinned legacy (version-1) stream."""
    return (DATA / "v1_stream.ipc").read_bytes()


def write_v1_container(path: Path, n_shards: int = 2) -> Path:
    """A manifest-v1 container wrapping the pinned v1 stream ``n_shards`` times.

    Every shard decodes the same pinned payload; the field is their stack
    along axis 0 — enough structure to drive the multi-shard paths against
    genuine version-1 bytes.
    """
    from repro.io import BlockContainerWriter

    blob = (DATA / "v1_stream.ipc").read_bytes()
    n0, n1 = np.load(DATA / "v1_expected.npy").shape
    names = [f"shard-{index:04d}" for index in range(n_shards)]
    manifest = {
        "format": "repro-chunked-dataset",
        "version": 1,
        "shape": [n_shards * n0, n1],
        "dtype": "float64",
        "error_bound": 3.292730916654546e-05,
        "method": "cubic",
        "prefix_bits": 2,
        "backend": "zlib",
        "shards": [
            {"name": name, "slices": [[index * n0, (index + 1) * n0], [0, n1]]}
            for index, name in enumerate(names)
        ],
    }
    with BlockContainerWriter(path) as writer:
        for name in names:
            writer.add_block(name, blob)
        writer.add_block("manifest", json.dumps(manifest).encode())
    return path


def legacy_layout(path: Path, out: Path) -> Path:
    """Rewrite the dataset at ``path`` into ``out`` as written before the
    ``headers`` block existed: the same blocks and metadata, minus that
    block and the manifest's ``"headers"`` key — the layout whose readers
    parse each shard's own head."""
    from repro.io import BlockContainerReader, BlockContainerWriter

    with BlockContainerReader(path) as reader, BlockContainerWriter(out) as writer:
        for name in reader.block_names():
            if name == "headers":
                continue
            data = reader.read_block(name)
            if name == "manifest":
                manifest = json.loads(data)
                del manifest["headers"]
                data = json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode()
            writer.add_block(name, data, reader.metadata(name))
    return out


@pytest.fixture(scope="module")
def served_dir(tmp_path_factory, v1_blob) -> Path:
    """One directory holding the {v1, v2} × {stream, container} fixtures of
    the remote suites.

    Every fixture is well over one opening window long (48 copies of the v1
    blob, three windows of zero bytes after the bare v1 stream), so the
    streams' headers and most payload sit *outside* the window and reading
    them is real wire traffic (a fixture inside it would be read from memory
    and every fault leg would go vacuous).
    """
    from repro import ChunkedDataset, IPComp
    from repro.io.aio import OPENING_WINDOW

    root = tmp_path_factory.mktemp("served")
    # A stream is read from its head by its own directory; bytes after its
    # last block are never touched, locally or remotely.
    (root / "v1.ipc").write_bytes(v1_blob + bytes(3 * OPENING_WINDOW))
    v2_blob = IPComp(error_bound=1e-5, relative=True).compress(cumsum_field((400, 360), 3))
    (root / "v2.ipc").write_bytes(v2_blob)
    ChunkedDataset.write(
        root / "v2.rprc", cumsum_field((128, 48, 40), 4), error_bound=1e-5,
        relative=True, n_blocks=8,
    )
    write_v1_container(root / "v1.rprc", n_shards=48)
    for served in root.iterdir():
        assert served.stat().st_size > 3 * OPENING_WINDOW // 2, served
    return root


@pytest.fixture(scope="module")
def server(served_dir):
    from repro.io.rangeserver import RangeServer

    with RangeServer(served_dir) as srv:
        yield srv


@pytest.fixture
def patient(monkeypatch):
    """Remote stacks built in this test never sleep for real and never run
    out of retries (the fault legs' ladder): :mod:`repro.io.aio`'s
    ``RETRIES`` and :mod:`repro.io.remote`'s ``BACKOFF``, patched for the
    test."""
    from repro.io import aio, remote

    monkeypatch.setattr(aio, "RETRIES", 8)
    monkeypatch.setattr(remote, "BACKOFF", 0.0)


@pytest.fixture
def oracle(monkeypatch):
    """``oracle()`` swaps the loop oracle in for the one plane kernel.

    A test seam, not a production parameter: it patches the module's single
    instance (``repro.core.kernels._KERNEL``), which every ``get_kernel()``
    caller reads, for the rest of the test.  Calling it mid-test lets one
    test run the same code before (the sweep) and after (the oracle).
    """
    from oracle_kernel import OracleKernel
    from repro.core import kernels

    def install() -> None:
        monkeypatch.setattr(kernels, "_KERNEL", OracleKernel())

    return install


# -------------------------------------------------------------- leak ledger

#: Test modules that open sockets or run a service (a remote session owns an
#: event-loop prefetcher); the ledger below audits each of their tests.
_REMOTE_MODULES = (
    "test_remote",
    "test_aio",
    "test_service",
    "test_service_faults",
    "test_service_concurrency",
    "test_scheduler",
)

#: Test modules that run the write window.  Nothing in them should start a
#: process or create a shared-memory segment; the ledger checks both.
_WRITE_MODULES = (
    "test_parallel",
    "test_retrieval_engine",
    "test_properties_dataset",
    "test_fused_pipeline",
    "test_write_pipeline",
)


def _shm_segments() -> set:
    """Names of the ``multiprocessing.shared_memory`` segments that exist."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:  # no /dev/shm here: nothing can leak into it
        return set()


def _settles(predicate, timeout: float = 3.0) -> bool:
    """Poll ``predicate`` until true (peer-side socket closes, cancelled
    tasks and exiting threads are asynchronous by nature)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture
def settles():
    """The ledger's bounded poll, for tests that assert a close landed."""
    return _settles


async def _pending_tasks() -> int:
    return len(asyncio.all_tasks()) - 1  # minus this probe


@pytest.fixture(autouse=True)
def leak_ledger(request, monkeypatch):
    """After each audited test nothing it started is still running.

    Remote modules: no ``repro-hedge*`` / ``repro-prefetch*`` thread (neither
    can exist any more), no new non-daemon thread,
    no task on the shared event loop beyond the baseline, and every
    :class:`RangeServer` the test used (its own, plus the module's
    ``server`` / ``replica``) back at ``open_connections == 0`` — i.e.
    every stack got closed.  Write modules: no ``/dev/shm/psm_*`` segment,
    no child process the test created and no ``repro-write`` thread of the
    write window remains — error paths included (a slab that raises, a
    partial-coverage decode).
    """
    if request.module.__name__ in _WRITE_MODULES:
        segments = _shm_segments()
        children = set(multiprocessing.active_children())
        yield
        assert _settles(lambda: _shm_segments() <= segments), sorted(
            _shm_segments() - segments
        )
        assert _settles(
            lambda: set(multiprocessing.active_children()) <= children
        ), multiprocessing.active_children()
        # compress_into joins its threads before it returns: no settling.
        assert not [
            t.name for t in threading.enumerate() if t.name.startswith("repro-write")
        ]
        return
    if request.module.__name__ not in _REMOTE_MODULES:
        yield
        return
    from repro.io.aio import EventLoopThread
    from repro.io.rangeserver import RangeServer

    servers = [
        request.getfixturevalue(name)
        for name in ("server", "replica")
        if name in request.fixturenames
    ]
    init = RangeServer.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        servers.append(self)

    monkeypatch.setattr(RangeServer, "__init__", tracked_init)
    threads = set(threading.enumerate())
    tasks = EventLoopThread.shared().call(_pending_tasks())
    yield
    assert _settles(lambda: all(s.open_connections == 0 for s in servers)), [
        s.open_connections for s in servers
    ]
    assert _settles(
        lambda: EventLoopThread.shared().call(_pending_tasks()) <= tasks
    ), "tasks left pending on the shared event loop"

    def strays():
        return [
            t.name
            for t in threading.enumerate()
            if t.name.startswith(("repro-hedge", "repro-prefetch"))
            or not (t.daemon or t in threads)
        ]

    assert _settles(lambda: not strays()), strays()
