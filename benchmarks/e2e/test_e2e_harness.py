"""Self-test of the benchmark harness at ``--scale smoke`` (seconds, not minutes).

Checks the contract between ``BENCHMARK.json`` and the harness (names, every
metric emitted), that the outside-in spans account for the timed wall clock
on the single-threaded workloads, and that a run leaves nothing behind: no
tracer wrapper, thread, child process, socket or scratch file.
"""

from __future__ import annotations

import gc
import os
import re
import threading
import time
from pathlib import Path

import pytest

from benchmarks.e2e import cli, layers, spec as specfile
from benchmarks.e2e.spans import Tracer, installed
from benchmarks.e2e.workloads import SMOKE, WORKLOADS

SPEC = specfile.load()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SINGLE_THREADED = ("archive_write", "full_read", "refine_ladder")


def _sockets() -> set:
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if target.startswith("socket:"):
            found.add(target)
    return found


def _children() -> set:
    return {
        pid
        for listing in Path(f"/proc/{os.getpid()}/task").glob("*/children")
        for pid in listing.read_text().split()
    }


def _run(name: str, trace: bool, tmp_path: Path) -> dict:
    """One smoke run that must leave the process as it found it."""
    gc.collect()
    threads, sockets, children = set(threading.enumerate()), _sockets(), _children()
    out = tmp_path / "spans.json"
    result = cli.run_once(
        name, seed=1, seconds=SMOKE.ref_seconds * (4 if trace else 1), trace=trace,
        scale_name="smoke", out=out, scratch_base=tmp_path,
    )
    gc.collect()
    deadline = time.monotonic() + 5.0  # a stopped thread may take a tick to end
    while not set(threading.enumerate()) <= threads and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) <= threads
    assert _sockets() <= sockets
    assert _children() <= children
    assert sorted(p.name for p in tmp_path.iterdir()) == (["spans.json"] if trace else [])
    return result


def test_benchmark_json_is_the_one_list_of_names():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    specfile.check_names(SPEC, "workloads", WORKLOADS)
    specfile.check_names(SPEC, "end_to_end", cli.E2E_UNITS)
    specfile.check_names(SPEC, "per_layer", layers.PER_LAYER_UNITS)
    units = {**cli.E2E_UNITS, **layers.PER_LAYER_UNITS}
    for section in ("workloads", "end_to_end", "per_layer"):
        listed = specfile.names(SPEC, section)
        assert len(listed) == len(set(listed))
        assert all(NAME.fullmatch(name) for name in listed)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
        assert metric["better"] in ("higher", "lower")
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(name, tmp_path):
    result = _run(name, trace=False, tmp_path=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMOKE.ops[name]
    assert list(result["metrics"]) == specfile.names(SPEC, "end_to_end")
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == cli.E2E_UNITS[metric]
        assert entry["value"] > 0, metric
    assert result["metrics"]["verified_fraction"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_covers_the_wall_clock_and_leaves_no_wrapper(name, tmp_path):
    with installed(Tracer(), layers.targets()) as patched:
        assert all(vars(holder)[attr] is not original for holder, attr, original in patched)
    result = _run(name, trace=True, tmp_path=tmp_path)
    assert all(vars(holder)[attr] is original for holder, attr, original in patched)
    assert result["correct"]
    assert list(result["metrics"]) == specfile.names(SPEC, "per_layer")
    value = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    if name in SINGLE_THREADED:
        assert value["harness.span_coverage_fraction"] >= 0.95
    if name == "remote_roi":
        assert value["io.aio.requests"] > 0 and value["io.aio.retries"] == 0
    if name == "serve_mixed":
        assert value["service.cache.hit_ratio"] > 0
        assert value["harness.two_client_speedup"] > 0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert [cli.tail_percentile(n) for n in (28, 40, 48, 199, 200, 1000)] == [50, 75, 75, 90, 95, 99]
