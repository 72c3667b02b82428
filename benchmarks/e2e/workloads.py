"""The five workloads: inputs built from the seed, one timed op, an oracle.

Every workload makes its inputs from ``--seed`` alone, in a fresh directory
(nothing on disk is reused between runs), times its ops from outside
through the library's public functions with default arguments, and checks
each op's output against an oracle *outside* the timed intervals.  Why each
workload exists is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import contextlib
import itertools
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets import load_dataset
from repro.io.aio import EventLoopThread
from repro.io.dataset import ChunkedDataset
from repro.io.faults import FaultPlan
from repro.retrieval.prefetch import DEFAULT_PREFETCH_DEPTH
from repro.service import RequestScheduler, RetrievalService

from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.spec import child_env

__all__ = ["FULL", "SMOKE", "SCALES", "WORKLOADS", "OpRecord", "Scale", "Workload", "at_reference_speed"]

#: Range-relative bound every archive is written with (paper's Fig. 5 range).
RELATIVE_BOUND = 1e-5
#: Fidelity ladder, as multiples of the stored bound (coarse to stored).
RUNGS = (1024, 64, 8, 1)
#: Slack on ``max|x - x^| <= eb``: the codec's bound is exact up to half an
#: ulp of the reconstruction.
BOUND_SLACK = 1 + 1e-9


@dataclass(frozen=True)
class Scale:
    """Field size and op counts.  ``ops`` are the timed ops of a run of
    ``ref_seconds``; ``--seconds`` scales them, so a run's op count is a pure
    function of its arguments (fixed counts, never fixed durations)."""

    shape: Tuple[int, int, int]
    n_blocks: int
    ref_seconds: int
    ops: Dict[str, int]
    #: Per-read latency the range server injects on ``remote_roi``.
    remote_latency_s: float


FULL = Scale(
    shape=(128, 136, 120),  # 16.7 MB of float64, non-power-of-two like the paper's fields
    n_blocks=16,
    ref_seconds=14,
    ops={"archive_write": 40, "full_read": 40, "refine_ladder": 12, "remote_roi": 40, "serve_mixed": 600},
    remote_latency_s=0.05,
)
SMOKE = Scale(
    shape=(16, 24, 24),
    n_blocks=4,
    ref_seconds=14,
    ops={"archive_write": 2, "full_read": 2, "refine_ladder": 2, "remote_roi": 2, "serve_mixed": 12},
    remote_latency_s=0.005,
)
SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass
class OpRecord:
    """What one op measured.  ``samples`` are its timed intervals (one,
    except on ``refine_ladder``: one per rung) and ``cpus`` the process CPU
    seconds inside each; ``loaded`` the consumed compressed bytes as a share
    of the archive file, per sample."""

    samples: List[float]
    cpus: List[float]
    first_answer: float
    delivered: int
    loaded: List[float]
    ok: bool

    @classmethod
    def single(cls, clock: "_Timed", delivered: int, loaded: float, ok: bool,
               first_answer: Optional[float] = None) -> "OpRecord":
        """An op that is one timed interval (and, by default, its own first answer)."""
        first = clock.wall if first_answer is None else first_answer
        return cls([clock.wall], [clock.cpu], first, delivered, [loaded], ok)

    def normalise(self, speed_index: float) -> None:
        """Express the timings at the reference machine speed."""
        walls = [at_reference_speed(w, c, speed_index) for w, c in zip(self.samples, self.cpus)]
        self.first_answer *= walls[0] / self.samples[0]
        self.samples = walls
        self.cpus = [cpu / speed_index for cpu in self.cpus]


def at_reference_speed(wall: float, cpu: float, speed_index: float) -> float:
    """``wall`` seconds as they would read at the reference machine speed:
    the seconds the process computed are divided by the index, the seconds it
    waited (for the range server's injected latency, say) are left alone."""
    return wall - min(cpu, wall) * (1.0 - 1.0 / speed_index)


class _Timed:
    """Wall + CPU stopwatch of one timed interval."""

    def __init__(self) -> None:
        self.start = self.wall = self.cpu = 0.0


class Workload:
    """Base: seeded inputs, a timed op, an oracle.  Subclasses fill in
    :meth:`build` and :meth:`op`."""

    name = ""
    #: Op counts are cut to a multiple of this (``remote_roi`` cycles 8 ROIs).
    op_quantum = 1

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        self.seed = int(seed)
        self.scale = scale
        count = max(1, round(scale.ops[self.name] * seconds / scale.ref_seconds))
        #: Timed ops of the run: a pure function of the arguments.
        self.ops = count - count % self.op_quantum if count >= self.op_quantum else count
        self.tracer: Optional[Tracer] = None
        self.field_bytes = 0
        self.file_bytes = 0

    def rng(self) -> np.random.Generator:
        """A fresh generator: op order is a pure function of the seed."""
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    @contextlib.contextmanager
    def timed(self) -> Iterator[_Timed]:
        """One timed interval; under a traced run also the root span whose
        self time is what no wrapped layer accounts for."""
        span = self.tracer.timed_interval() if self.tracer else contextlib.nullcontext()
        clock = _Timed()
        with span:
            clock.start, cpu0 = time.perf_counter(), time.process_time()
            try:
                yield clock
            finally:
                clock.wall = time.perf_counter() - clock.start
                clock.cpu = time.process_time() - cpu0

    # ------------------------------------------------------------- protocol

    def build(self, workdir: Path) -> None:
        """Make the inputs and the oracle in ``workdir`` (part of set-up)."""
        raise NotImplementedError

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def verify_end(self, records: List[Optional[OpRecord]]) -> None:
        """End-of-phase oracle checks; clears ``ok`` on records that fail."""

    def reset(self) -> None:
        """Forget state a phase left behind, so the next starts like the first."""

    def close(self) -> None:
        """Stop what :meth:`build` started."""

    def serving_counters(self) -> Dict[str, float]:
        """End-of-phase counters the serving stack keeps itself (0 without one)."""
        return {
            "service.cache.hit_ratio": 0.0,
            "service.cache.evictions": 0.0,
            "service.scheduler.queue_wait_ms": 0.0,
            "service.scheduler.degraded_served": 0.0,
        }

    # -------------------------------------------------------------- helpers

    def _field(self, dataset: str = "density") -> np.ndarray:
        return load_dataset(dataset, shape=self.scale.shape, seed=2025 + self.seed)

    def _write(self, path: Path, data: np.ndarray) -> None:
        ChunkedDataset.write(
            path, data, error_bound=RELATIVE_BOUND, relative=True,
            n_blocks=self.scale.n_blocks, workers=0,
        )

    def _archive(self, workdir: Path, dataset: str = "density") -> Tuple[np.ndarray, Path]:
        data = self._field(dataset)
        path = workdir / f"{dataset}.rprc"
        self._write(path, data)
        self.field_bytes += data.nbytes
        self.file_bytes += path.stat().st_size
        return data, path

    def _roi_grid(self, divisions: Tuple[int, int, int], keep: int) -> List[tuple]:
        """``keep`` seeded picks among the aligned equal-extent ROIs that
        ``divisions`` cuts the field into."""
        extent = [s // d for s, d in zip(self.scale.shape, divisions)]
        grid = [
            tuple((i * e, (i + 1) * e) for i, e in zip(corner, extent))
            for corner in itertools.product(*(range(d) for d in divisions))
        ]
        order = self.rng().permutation(len(grid))[:keep]
        return [grid[i] for i in order]


def _serial_read(path: Path, error_bound: Optional[float] = None, roi=None):
    """The oracle every read is compared with: a fresh serial local read."""
    with ChunkedDataset(path) as dataset:
        return dataset.read(error_bound=error_bound, roi=roi)


def _stored_bound(path: Path) -> float:
    with ChunkedDataset(path) as dataset:
        return dataset.absolute_bound


def _quota(weights: np.ndarray, total: int) -> np.ndarray:
    """``total`` category indices whose counts follow ``weights`` exactly
    (largest-remainder rounding)."""
    exact = weights / weights.sum() * total
    counts = np.floor(exact).astype(int)
    leftovers = np.argsort(-(exact - counts), kind="stable")[: total - counts.sum()]
    counts[leftovers] += 1
    return np.repeat(np.arange(len(weights)), counts)


def _within(data: np.ndarray, reference: np.ndarray, bound: float) -> bool:
    return float(np.abs(data - reference).max()) <= bound * BOUND_SLACK


class ArchiveWrite(Workload):
    """``ChunkedDataset.write`` of the field into a fresh file."""

    name = "archive_write"

    def build(self, workdir: Path) -> None:
        self.workdir = workdir
        self.data = self._field()
        self.field_bytes = self.data.nbytes
        self.first_crc: Optional[int] = None
        self.last: Optional[Path] = None

    def op(self, index: int) -> OpRecord:
        path = self.workdir / f"archive-{index}.rprc"
        with self.timed() as clock:
            self._write(path, self.data)
        blob = path.read_bytes()
        crc = zlib.crc32(blob)
        if self.first_crc is None:
            self.first_crc = crc
        if self.last is not None and self.last != path:
            self.last.unlink()
        self.last, self.file_bytes = path, len(blob)
        # The encoder is deterministic: every archive equals the first.
        return OpRecord.single(clock, self.data.nbytes, 1.0, crc == self.first_crc)

    def verify_end(self, records) -> None:
        readback = _serial_read(self.last).data
        if records[-1] is not None and not _within(readback, self.data, _stored_bound(self.last)):
            records[-1].ok = False


class FullRead(Workload):
    """Fresh open + one-shot ``read()`` at the stored bound + close."""

    name = "full_read"

    def build(self, workdir: Path) -> None:
        data, self.path = self._archive(workdir)
        oracle = _serial_read(self.path).data
        if not _within(oracle, data, _stored_bound(self.path)):
            raise RuntimeError("oracle read violates the stored error bound")
        self.oracle = oracle.tobytes()

    def op(self, index: int) -> OpRecord:
        with self.timed() as clock:
            with ChunkedDataset(self.path) as dataset:
                result = dataset.read()
        ok = result.data.tobytes() == self.oracle
        return OpRecord.single(clock, result.data.nbytes, result.bytes_loaded / self.file_bytes, ok)


class RefineLadder(Workload):
    """Fresh open, then ``refine()`` down the ladder (Algorithm 2)."""

    name = "refine_ladder"

    def build(self, workdir: Path) -> None:
        self.data, self.path = self._archive(workdir)
        self.bound = _stored_bound(self.path)
        self.full_read_bytes = _serial_read(self.path).bytes_loaded

    def op(self, index: int) -> OpRecord:
        samples, cpus, loaded, ranges = [], [], [], []
        delivered, ok = 0, True
        with contextlib.ExitStack() as cleanup:
            for rung, factor in enumerate(RUNGS):
                target = factor * self.bound
                with self.timed() as clock:
                    if rung == 0:
                        dataset = ChunkedDataset(self.path)
                        cleanup.callback(dataset.close)
                    result = dataset.refine(target)
                samples.append(clock.wall)
                cpus.append(clock.cpu)
                delivered += result.data.nbytes
                loaded.append(result.bytes_loaded / self.file_bytes)
                ranges.extend(result.ranges)
                ok = ok and _within(result.data, self.data, target)
        # Algorithm 2 never re-reads a byte range, and the rungs together
        # load exactly what one full read loads.
        ok = ok and len(set(ranges)) == len(ranges)
        ok = ok and sum(length for _, _, length in ranges) == self.full_read_bytes
        return OpRecord(samples, cpus, samples[0], delivered, loaded, ok)


class RemoteRoi(Workload):
    """Coarse ROI reads over HTTP from a range server in a child process."""

    name = "remote_roi"
    op_quantum = 8
    server: Optional[subprocess.Popen] = None

    def build(self, workdir: Path) -> None:
        _, self.path = self._archive(workdir)
        self.rois = self._roi_grid((4, 2, 2), keep=self.op_quantum)
        self.target = RUNGS[1] * _stored_bound(self.path)
        self.oracles = [
            _serial_read(self.path, self.target, roi).data.tobytes() for roi in self.rois
        ]
        plan = workdir / "latency-plan.json"
        FaultPlan.always("latency", seconds=self.scale.remote_latency_s).to_file(plan)
        # A child process, not a thread: the server must not share the GIL
        # with the client whose latency is being measured.
        self.server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.io.rangeserver", str(self.path),
             "--inject-faults", str(plan)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=child_env(),
        )
        banner = self.server.stdout.readline()  # "serving <file> at <url>"
        if " at http://" not in banner:
            self.close()
            raise RuntimeError(f"range server did not start: {banner!r}")
        self.url = banner.rsplit(" at ", 1)[1].strip()

    def op(self, index: int) -> OpRecord:
        which = index % len(self.rois)
        with self.timed() as clock:
            with ChunkedDataset(self.url, prefetch=DEFAULT_PREFETCH_DEPTH) as dataset:
                result = dataset.read(error_bound=self.target, roi=self.rois[which])
        ok = result.data.tobytes() == self.oracles[which]
        return OpRecord.single(clock, result.data.nbytes, result.bytes_loaded / self.file_bytes, ok)

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None
        # URL reads run on the library's process-wide event-loop thread;
        # it is re-created on demand, so stopping it here leaks nothing.
        EventLoopThread.shared().close()


class ServeMixed(Workload):
    """A seeded request stream through scheduler → service → cache."""

    name = "serve_mixed"
    datasets = ("density", "velocityx")
    cache_bytes = 24 << 20  # below the ~33 MB decoded working set: eviction happens
    n_rois = 24
    zipf_s = 1.1
    depth_p = (0.3, 0.3, 0.2, 0.2)
    repeats = 3  # each rung: one cold-or-refine ask, two warm
    sample_rate = 0.05
    service: Optional[RetrievalService] = None

    def build(self, workdir: Path) -> None:
        self.paths, self.bounds, self.sizes = [], [], []
        for dataset in self.datasets:
            before = self.file_bytes
            _, path = self._archive(workdir, dataset)
            self.paths.append(path)
            self.sizes.append(self.file_bytes - before)
            self.bounds.append(_stored_bound(path))
        self.rois = self._roi_grid((8, 2, 2), keep=self.n_rois)
        self.requests = self._request_stream()
        self.reset()

    def _request_stream(self) -> List[Tuple[int, int, int]]:
        """The run's ``(dataset, roi, rung factor)`` requests.

        Stratified: how many sessions go to each dataset, each ROI rank and
        each ladder depth follows the probabilities exactly (largest
        remainders), and the seed only decides how they are paired and in
        what order they arrive — so two seeds differ in cache behaviour, not
        in how much cold work the stream happens to hold.
        """
        rng = self.rng()
        popularity = 1.0 / np.arange(1, self.n_rois + 1) ** self.zipf_s
        mean_depth = float(np.dot(self.depth_p, np.arange(1, len(self.depth_p) + 1)))
        sessions = 1 + int(self.ops / (self.repeats * mean_depth))
        datasets = rng.permutation(_quota(np.ones(len(self.datasets)), sessions))
        rois = rng.permutation(_quota(popularity, sessions))
        depths = rng.permutation(_quota(np.asarray(self.depth_p), sessions)) + 1
        requests = [
            (int(dataset), int(roi), factor)
            for dataset, roi, depth in zip(datasets, rois, depths)
            for factor in RUNGS[:depth]
            for _ in range(self.repeats)
        ]
        # A short stream (few sessions, all shallow) is walked again from the start.
        return [requests[i % len(requests)] for i in range(self.ops)]

    def reset(self) -> None:
        self._stop_service()
        self.service = RetrievalService(cache_bytes=self.cache_bytes)
        self.scheduler = RequestScheduler(self.service, max_inflight=2)
        self.copies: Dict[int, np.ndarray] = {}

    def _sampled(self, index: int) -> bool:
        draw = zlib.crc32(f"{self.seed}:{index}".encode()) / 2**32
        return draw < self.sample_rate

    def op(self, index: int) -> OpRecord:
        dataset, roi, factor = self.requests[index]
        with self.timed() as clock:
            handle = self.scheduler.submit(
                self.paths[dataset], factor * self.bounds[dataset], self.rois[roi]
            )
            handle.result()
            first = time.perf_counter() - clock.start
            response = handle.refined()
        if self._sampled(index):
            self.copies[index] = response.data.copy()  # at response time
        return OpRecord.single(
            clock, response.data.nbytes, response.trace.bytes_loaded / self.sizes[dataset],
            ok=True, first_answer=first,
        )

    def verify_end(self, records) -> None:
        for index, copy in self.copies.items():
            dataset, roi, factor = self.requests[index]
            fresh = _serial_read(
                self.paths[dataset], factor * self.bounds[dataset], self.rois[roi]
            ).data
            if records[index] is not None and fresh.tobytes() != copy.tobytes():
                records[index].ok = False

    def serving_counters(self) -> Dict[str, float]:
        cache = self.service.stats()["cache"]
        hits, misses = sum(cache["hits"].values()), sum(cache["misses"].values())
        scheduler = self.scheduler.stats()
        return {
            "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.cache.evictions": float(sum(cache["evictions"].values())),
            "service.scheduler.queue_wait_ms": 1e3 * scheduler["queue_wait_mean"],
            "service.scheduler.degraded_served": float(scheduler["degraded_served"]),
        }

    def two_client_seconds(self, n_ops: int) -> Tuple[float, float]:
        """Wall and CPU seconds of the first ``n_ops`` requests split over
        two closed-loop client threads (a diagnostic, not an end-to-end
        metric: two clients convoy on the GIL and do not repeat)."""
        self.reset()
        failures: List[BaseException] = []

        def client(start: int) -> None:
            try:
                for index in range(start, n_ops, 2):
                    dataset, roi, factor = self.requests[index]
                    self.scheduler.request(
                        self.paths[dataset], factor * self.bounds[dataset], self.rois[roi],
                        client=f"client-{start}",
                    )
            except Exception as exc:  # reported by the caller's thread
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(start,)) for start in (0, 1)]
        with self.timed() as clock:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if failures:
            raise failures[0]
        return clock.wall, clock.cpu

    def _stop_service(self) -> None:
        if self.service is not None:
            self.scheduler.close()
            self.service.close()
            self.service = None

    def close(self) -> None:
        self._stop_service()


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ArchiveWrite, FullRead, RefineLadder, RemoteRoi, ServeMixed)
}
