"""Command line of the benchmark: one run, ``--list``, or ``--repeat``.

A run prints every metric by name with its unit, then — as the last line of
standard output — the JSON object the benchmark contract asks for.  End-to-end
metrics are measured with tracing off (``--trace 0``); a traced run
(``--trace 1``) measures a quarter of the ops untraced, the same ops again with
the span recorders installed, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import spec as specfile

__all__ = ["E2E_UNITS", "main", "run_once", "tail_percentile"]

#: Unit of every end-to-end metric (names must equal BENCHMARK.json's).
E2E_UNITS: Dict[str, str] = {
    "throughput_mbps": "MB/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "first_answer_ms": "ms",
    "cpu_s_per_gb": "s/GB",
    "bytes_loaded_fraction": "ratio",
    "compression_ratio": "ratio",
    "peak_rss_mb": "MB",
    "verified_fraction": "ratio",
    "setup_s": "s",
}

WARMUP_OPS = 2
#: Timed seconds between two readings of the machine-speed index.
PROBE_PERIOD_S = 0.25
#: Set-ups per run; ``setup_s`` reports the median build, so one slow build
#: (first-touch page faults, a cold allocator) does not move it.
SETUP_REPEATS = 3
#: A whole run (set-up + timed phase) has to fit the driver's time cap.
RUN_WALL_LIMIT_S = 30.0


def tail_percentile(n_samples: int) -> int:
    """The highest conventional percentile with >= 10 samples beyond it."""
    for percentile in (99, 95, 90, 75):
        if n_samples * (100 - percentile) >= 1000:
            return percentile
    return 50


def _percentile(samples: List[float], percentile: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[percentile - 1]


# ------------------------------------------------------------------ phases


def _run_phase(workload, indices, probe, tracer=None) -> Tuple[list, float]:
    """Run ops ``indices`` closed-loop from this one thread; returns the op
    records (``None`` for an op that raised) and the phase's timed seconds.

    The machine-speed index is read between ops, at least every
    ``PROBE_PERIOD_S`` of timed work, and each op's timings are divided by
    the mean of the readings around it (see :mod:`benchmarks.e2e.machine`).
    """
    records, window, since_probe = [], [], 0.0
    before = probe.sample()
    workload.tracer = tracer
    try:
        for position, index in enumerate(indices):
            if tracer is not None:
                tracer.op = index
            try:
                record = workload.op(index)
            except Exception:  # an op that raises is a failed op, not a crash
                traceback.print_exc()
                record = None
            records.append(record)
            if record is not None:
                window.append(record)
                since_probe += sum(record.samples)
            if since_probe >= PROBE_PERIOD_S or position == len(indices) - 1:
                gc.collect()  # garbage is collected between ops, not at random inside one
                after = probe.sample()
                for measured in window:
                    measured.normalise((before + after) / 2)
                window, since_probe, before = [], 0.0, after
    finally:
        workload.tracer = None
    workload.verify_end(records)
    return records, sum(sum(r.samples) for r in records if r is not None)


def _failed(records) -> int:
    return sum(1 for r in records if r is None or not r.ok)


def _set_up(cls, seed: int, scale, seconds: float, scratch: Path, repeats: int, probe):
    """Build the workload's inputs ``repeats`` times, each from scratch in a
    fresh directory, and keep the last; returns it with every build time."""
    durations = []
    for attempt in range(repeats):
        workdir = Path(tempfile.mkdtemp(prefix=f"setup{attempt}-", dir=scratch))
        workload = cls(seed, scale, seconds)
        begin = time.perf_counter()
        try:
            workload.build(workdir)
        except BaseException:
            workload.close()
            raise
        durations.append(time.perf_counter() - begin)
        probe.sample()
        if attempt < repeats - 1:
            workload.close()
            shutil.rmtree(workdir)
    return workload, durations


def _end_to_end(workload, records, timed_s: float, setup_s: float) -> Dict[str, float]:
    done = [r for r in records if r is not None]
    samples = [s for r in done for s in r.samples]
    delivered = sum(r.delivered for r in done)
    return {
        "throughput_mbps": delivered / 1e6 / timed_s,
        "latency_p50_ms": 1e3 * statistics.median(samples),
        "latency_tail_ms": 1e3 * _percentile(samples, tail_percentile(len(samples))),
        "first_answer_ms": 1e3 * statistics.median(r.first_answer for r in done),
        "cpu_s_per_gb": sum(sum(r.cpus) for r in done) / (delivered / 1e9),
        "bytes_loaded_fraction": statistics.fmean(x for r in done for x in r.loaded),
        "compression_ratio": workload.field_bytes / workload.file_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_fraction": 1.0 - _failed(records) / len(records),
        "setup_s": setup_s,
    }


def _per_layer(workload, n_ops: int, probe, import_s: float, out: Path) -> Tuple[Dict[str, float], list]:
    """The traced run: ``n_ops`` ops untraced, the same ops traced."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.spans import Tracer, installed
    from benchmarks.e2e.workloads import at_reference_speed

    indices = range(n_ops)
    plain, plain_s = _run_phase(workload, indices, probe)
    extra = {"harness.import_s": import_s, "harness.two_client_speedup": 0.0}
    if hasattr(workload, "two_client_seconds"):
        before = probe.sample()
        wall, cpu = workload.two_client_seconds(n_ops)
        index = (before + probe.sample()) / 2
        extra["harness.two_client_speedup"] = plain_s / at_reference_speed(wall, cpu, index)
    workload.reset()
    tracer = Tracer()
    with installed(tracer, layers.targets()):
        traced, _ = _run_phase(workload, indices, probe, tracer)
    # Paired per op and taken as a median: one slow spell in either phase
    # must not read as tracing overhead.
    extra["harness.trace_overhead_fraction"] = statistics.median(
        sum(t.samples) / sum(p.samples) for p, t in zip(plain, traced) if p and t
    ) - 1.0
    extra.update(workload.serving_counters())
    tracer.dump(out)
    return layers.per_layer_metrics(tracer, n_ops, extra), plain + traced


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale_name: str = "full",
    out: Optional[Path] = None,
    scratch_base: Optional[Path] = None,
) -> dict:
    """One run of one workload; returns the contract's result object."""
    run_begin = time.perf_counter()
    spec = specfile.load()
    specfile.check_names(spec, "end_to_end", E2E_UNITS)
    if not (specfile.SRC / "repro").is_dir():
        raise SystemExit(f"nothing to benchmark: {specfile.SRC / 'repro'} is missing")
    if "repro" not in sys.modules:
        # Byte-compilation and a cold page cache must never land in setup_s:
        # import the library once in a child that is thrown away.
        subprocess.run(
            [sys.executable, "-c", "import repro.service, repro.io.rangeserver"],
            env=specfile.child_env(), check=True,
        )
    from benchmarks.e2e.machine import SpeedProbe  # NumPy's import is not the library's set-up

    probe = SpeedProbe()
    probe.sample()
    setup_begin = time.perf_counter()
    from benchmarks.e2e import layers, workloads

    import_s = time.perf_counter() - setup_begin
    specfile.check_names(spec, "workloads", workloads.WORKLOADS)
    specfile.check_names(spec, "per_layer", layers.PER_LAYER_UNITS)
    scale = workloads.SCALES[scale_name]
    base = scratch_base or specfile.ROOT / ".bench_build"
    base.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"e2e-{name}-", dir=base))
    workload = None
    try:
        workload, builds = _set_up(
            workloads.WORKLOADS[name], seed, scale, seconds, scratch,
            1 if trace else SETUP_REPEATS, probe,
        )
        warm_begin = time.perf_counter()
        for index in range(WARMUP_OPS):
            workload.op(index)
        workload.reset()
        gc.collect()
        setup_s = import_s + statistics.median(builds) + time.perf_counter() - warm_begin
        probe.sample()
        setup_s /= probe.median()  # every reading so far was taken during set-up
        if trace:
            units = layers.PER_LAYER_UNITS
            trace_out = out or base / "e2e-traces" / f"{name}-seed{seed}.json"
            metrics, records = _per_layer(workload, max(1, workload.ops // 4), probe, import_s, trace_out)
            print(f"spans written to {trace_out}")
        else:
            units = E2E_UNITS
            records, timed_s = _run_phase(workload, range(workload.ops), probe)
            metrics = _end_to_end(workload, records, timed_s, setup_s)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    n_samples = sum(len(r.samples) for r in records if r is not None)
    wall = time.perf_counter() - run_begin
    cpus = os.cpu_count() or 1
    print(
        f"workload={name} seed={seed} scale={scale_name} trace={int(trace)} ops={len(records)} "
        f"samples={n_samples} tail=p{tail_percentile(n_samples)} "
        f"set-up builds={['%.3f' % b for b in builds]}"
    )
    for metric in units:
        print(f"  {metric:<44} {metrics[metric]:>14.6g} {units[metric]}")
    print(f"run wall {wall:.1f} s on {cpus} cpu(s); machine-speed index median {probe.median():.3f} "
          f"(min {min(probe.samples):.3f}, max {max(probe.samples):.3f}; timings are divided by it)")
    if wall > RUN_WALL_LIMIT_S:
        print(f"WARNING: run took {wall:.1f} s, over the {RUN_WALL_LIMIT_S:.0f} s cap", file=sys.stderr)
    if cpus < 2:
        print("WARNING: fewer than 2 cores: the range-server child shares the client's core",
              file=sys.stderr)
    failed = _failed(records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


# --------------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/e2e/run.py",
        description="The repo's end-to-end benchmark (see benchmarks/e2e/README.md).",
    )
    parser.add_argument("--list", action="store_true", help="print workload and metric names and exit")
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1, help="inputs and op order are a pure function of it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=None, help="where a traced run writes its spans (JSON)")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run K times in fresh processes and compare two alternating sets")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: run i uses seed+i (the driver's spread check)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    spec = specfile.load()
    if args.list:
        print(specfile.render(spec))
        return 0
    if args.workload not in specfile.names(spec, "workloads"):
        raise SystemExit(f"--workload must be one of {specfile.names(spec, 'workloads')}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.repeat:
        from benchmarks.e2e.repeat import repeat_check

        return repeat_check(spec, args.workload, args.seed, seconds, args.scale,
                            args.repeat, args.vary_seed)
    result = run_once(args.workload, args.seed, seconds, bool(args.trace), args.scale, args.out)
    print(json.dumps(result))
    return 0
