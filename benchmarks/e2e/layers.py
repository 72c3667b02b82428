"""Which public functions each layer is timed through, and the per-layer
metrics made from their spans.

A layer is a ``repro`` module.  :func:`targets` lists the entry points the
traced run wraps (ISSUE 13's list, verbatim); :func:`per_layer_metrics`
turns the recorded spans and counters into the ``per_layer`` metrics of
``BENCHMARK.json``.  ``*_ms`` values are mean self time per traced op,
counts are per traced op, and a layer the workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coders.backend import available_backends, get_backend
from repro.core.kernels import get_kernel

from benchmarks.e2e.spans import ROOT_SPAN, Target, Tracer

__all__ = ["PER_LAYER_UNITS", "per_layer_metrics", "targets"]


# ------------------------------------------------------------------ probes


def _count_plan(tracer: Tracer, args, kwargs, ops) -> None:
    tracer.counters["plan.ops"] += len(ops)
    tracer.counters["plan.blocks"] += sum(len(op.blocks) for op in ops)


def _count_container_read(tracer: Tracer, args, kwargs, data) -> None:
    tracer.counters["container.bytes_read"] += len(data)


def _count_primed(tracer: Tracer, args, kwargs, scheduled) -> None:
    tracer.counters["prefetch.primed_bytes"] += scheduled


def _count_consumed(tracer: Tracer, args, kwargs, data) -> None:
    tracer.counters["prefetch.consumed_bytes"] += len(data)


def _count_remote(tracer: Tracer, args, kwargs, _result) -> None:
    # Runs *before* AsyncRangeSource.close(): the last moment the source's
    # own counters can be read through its public stats().
    stats = args[0].stats()
    for key in ("requests", "egress_bytes", "retries"):
        tracer.counters[f"aio.{key}"] += stats.get(key, 0)
    tracer.counters["aio.inflight_max"] = max(
        tracer.counters["aio.inflight_max"], stats.get("inflight_max", 0)
    )


def _count_served(tracer: Tracer, args, kwargs, response) -> None:
    tracer.counters["service.physical_reads"] += response.trace.physical_reads
    tracer.counters["service.retries"] += response.trace.retries


# ----------------------------------------------------------------- targets


def targets() -> List[Tuple[Target, Optional[type]]]:
    """Every wrapped entry point, paired with its class when that is only
    known at run time (the default kernel, the registered coders)."""
    T = Target
    static: List[Target] = [
        T("core.interpolation", "repro.core.interpolation", "InterpolationPredictor", "decompose"),
        T("core.interpolation", "repro.core.interpolation", "InterpolationPredictor", "reconstruct"),
        T("core.quantizer", "repro.core.quantizer", "LinearQuantizer", "quantize"),
        T("core.quantizer", "repro.core.quantizer", "LinearQuantizer", "dequantize"),
        T("core.quantizer", "repro.core.quantizer", "LinearQuantizer", "roundtrip"),
        T("core.negabinary", "repro.core.negabinary", None, "truncate_low_planes"),
        T("core.predictive_coder", "repro.core.predictive_coder", "PredictiveCoder", "encode_level"),
        T("core.predictive_coder", "repro.core.predictive_coder", "PredictiveCoder", "encode_anchor"),
        T("core.predictive_coder", "repro.core.predictive_coder", "PredictiveCoder", "decode_anchor"),
        T("core.predictive_coder", "repro.core.predictive_coder", "PredictiveCoder", "decode_level"),
        T("core.predictive_coder", "repro.core.predictive_coder", "PredictiveCoder", "decode_level_codes"),
        T("core.predictive_coder", "repro.core.predictive_coder", None, "negotiate_encode"),
        T("core.optimizer", "repro.core.optimizer", "OptimizedLoader", "plan_for_error_bound"),
        T("core.optimizer", "repro.core.optimizer", "OptimizedLoader", "plan_for_size"),
        T("core.optimizer", "repro.core.optimizer", "OptimizedLoader", "plan_for_bitrate"),
        T("core.stream", "repro.core.stream", "IPCompStream", "serialize"),
        T("core.stream", "repro.core.stream", "IPCompStream", "parse_header_source"),
        T("core.stream", "repro.core.stream", "CompressedStore", "read_block"),
        T("core.stream", "repro.core.stream", "CompressedStore", "read_anchor"),
        T("core.progressive", "repro.core.progressive", "ProgressiveRetriever", "__init__"),
        T("core.progressive", "repro.core.progressive", "ProgressiveRetriever", "retrieve"),
        T("core.compressor", "repro.core.compressor", "IPComp", "compress"),
        T("parallel.executor", "repro.parallel.executor", "BlockParallelCompressor", "compress_into"),
        T("io.container", "repro.io.container", "BlockContainerReader", "__init__", label="read_open"),
        T("io.container", "repro.io.container", "BlockContainerReader", "read_range", _count_container_read),
        T("io.container", "repro.io.container", "BlockContainerWriter", "add_block", label="write_add_block"),
        T("io.container", "repro.io.container", "BlockContainerWriter", "close", label="write_close"),
        T("retrieval.plan", "repro.retrieval.plan", None, "plan_stream_ops", _count_plan),
        T("retrieval.engine", "repro.retrieval.engine", "RetrievalEngine", "read"),
        T("retrieval.engine", "repro.retrieval.engine", "RetrievalEngine", "refine"),
        T("retrieval.engine", "repro.retrieval.engine", None, "assemble"),
        T("retrieval.prefetch", "repro.retrieval.prefetch", "PrefetchSource", "prime", _count_primed),
        T("retrieval.prefetch", "repro.retrieval.prefetch", "PrefetchSource", "read_range", _count_consumed),
        T("io.aio", "repro.io.aio", "AsyncRangeSource", "read_range"),
        T("io.aio", "repro.io.aio", "AsyncRangeSource", "read_tail"),
        T("io.aio", "repro.io.aio", "AsyncRangeSource", "close", _count_remote, before=True),
        T("io.dataset", "repro.io.dataset", "ChunkedDataset", "__init__", label="open"),
        T("io.dataset", "repro.io.dataset", "ChunkedDataset", "write"),
        T("io.dataset", "repro.io.dataset", "ChunkedDataset", "read"),
        T("io.dataset", "repro.io.dataset", "ChunkedDataset", "refine"),
        T("service.service", "repro.service.service", "RetrievalService", "get", _count_served),
        T("service.service", "repro.service.service", "RetrievalService", "cost"),
        T("service.service", "repro.service.service", "RetrievalService", "get_resident"),
        T("service.cache", "repro.service.cache", "TieredCache", "get"),
        T("service.cache", "repro.service.cache", "TieredCache", "put"),
        T("service.scheduler", "repro.service.scheduler", "RequestScheduler", "submit"),
    ]
    resolved: List[Tuple[Target, Optional[type]]] = [(t, None) for t in static]
    kernel = type(get_kernel())  # the kernel a default-argument call resolves to
    for attr in ("encode_planes", "decode_planes"):
        resolved.append((T("core.kernels", kernel.__module__, kernel.__name__, attr), kernel))
    for name in available_backends():
        coder = type(get_backend(name))
        for attr in ("encode", "decode"):
            resolved.append((T("coders", coder.__module__, coder.__name__, attr), coder))
    return resolved


# ----------------------------------------------------------------- metrics

#: Unit of every per-layer metric, keyed by name (the names BENCHMARK.json
#: must list — checked at start-up).
PER_LAYER_UNITS: Dict[str, str] = {
    "core.interpolation.self_ms": "ms",
    "core.interpolation.calls": "count",
    "core.negabinary.self_ms": "ms",
    "core.negabinary.calls": "count",
    "core.predictive_coder.self_ms": "ms",
    "core.predictive_coder.negotiate_self_ms": "ms",
    "core.predictive_coder.negotiate_trials": "count",
    "coders.encode_self_ms": "ms",
    "coders.decode_self_ms": "ms",
    "coders.calls": "count",
    "core.kernels.encode_self_ms": "ms",
    "core.kernels.decode_self_ms": "ms",
    "core.quantizer.self_ms": "ms",
    "core.progressive.self_ms": "ms",
    "core.optimizer.self_ms": "ms",
    "core.optimizer.plans": "count",
    "core.stream.self_ms": "ms",
    "core.stream.block_reads": "count",
    "io.container.read_self_ms": "ms",
    "io.container.read_calls": "count",
    "io.container.bytes_read": "bytes",
    "io.container.write_self_ms": "ms",
    "retrieval.plan.self_ms": "ms",
    "retrieval.plan.ops": "count",
    "retrieval.plan.blocks_per_op": "ratio",
    "retrieval.engine.self_ms": "ms",
    "retrieval.engine.assemble_self_ms": "ms",
    "retrieval.prefetch.wait_ms": "ms",
    "retrieval.prefetch.primed_bytes": "bytes",
    "retrieval.prefetch.consumed_fraction": "ratio",
    "io.aio.wait_ms": "ms",
    "io.aio.requests": "count",
    "io.aio.egress_bytes": "bytes",
    "io.aio.retries": "count",
    "io.aio.inflight_max": "count",
    "io.dataset.self_ms": "ms",
    "io.dataset.open_ms": "ms",
    "core.compressor.self_ms": "ms",
    "parallel.executor.self_ms": "ms",
    "service.service.self_ms": "ms",
    "service.service.physical_reads": "count",
    "service.service.retries": "count",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "service.cache.self_ms": "ms",
    "service.scheduler.self_ms": "ms",
    "service.scheduler.queue_wait_ms": "ms",
    "service.scheduler.degraded_served": "count",
    "harness.import_s": "s",
    "harness.trace_overhead_fraction": "ratio",
    "harness.span_coverage_fraction": "ratio",
    "harness.two_client_speedup": "ratio",
}


def per_layer_metrics(tracer: Tracer, n_ops: int, extra: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced phase of ``n_ops`` ops.

    ``extra`` carries what spans cannot see: the ``harness.*`` diagnostics
    and the serving stack's own end-of-run counters (cache hit ratio,
    evictions, queue wait, degraded serves).
    """
    self_s, calls, edges = tracer.aggregate()
    counters = tracer.counters

    def ms(*names: str) -> float:
        return 1e3 * sum(self_s.get(n, 0.0) for n in names) / n_ops

    def layer_ms(layer: str) -> float:
        return ms(*(n for n in self_s if n.startswith(layer + ":")))

    def per_op(*names: str) -> float:
        return sum(calls.get(n, 0) for n in names) / n_ops

    op_total = tracer.total(ROOT_SPAN)
    primed = counters["prefetch.primed_bytes"]
    plan_ops = counters["plan.ops"]
    values = {
        "core.interpolation.self_ms": layer_ms("core.interpolation"),
        "core.interpolation.calls": per_op("core.interpolation:decompose", "core.interpolation:reconstruct"),
        "core.negabinary.self_ms": layer_ms("core.negabinary"),
        "core.negabinary.calls": per_op("core.negabinary:truncate_low_planes"),
        "core.predictive_coder.self_ms": layer_ms("core.predictive_coder"),
        "core.predictive_coder.negotiate_self_ms": ms("core.predictive_coder:negotiate_encode"),
        "core.predictive_coder.negotiate_trials": edges.get(
            ("core.predictive_coder:negotiate_encode", "coders:encode"), 0
        ) / n_ops,
        "coders.encode_self_ms": ms("coders:encode"),
        "coders.decode_self_ms": ms("coders:decode"),
        "coders.calls": per_op("coders:encode", "coders:decode"),
        "core.kernels.encode_self_ms": ms("core.kernels:encode_planes"),
        "core.kernels.decode_self_ms": ms("core.kernels:decode_planes"),
        "core.quantizer.self_ms": layer_ms("core.quantizer"),
        "core.progressive.self_ms": layer_ms("core.progressive"),
        "core.optimizer.self_ms": layer_ms("core.optimizer"),
        "core.optimizer.plans": per_op(*(n for n in calls if n.startswith("core.optimizer:"))),
        "core.stream.self_ms": layer_ms("core.stream"),
        "core.stream.block_reads": per_op("core.stream:read_block", "core.stream:read_anchor"),
        "io.container.read_self_ms": ms("io.container:read_open", "io.container:read_range"),
        "io.container.read_calls": per_op("io.container:read_range"),
        "io.container.bytes_read": counters["container.bytes_read"] / n_ops,
        "io.container.write_self_ms": ms("io.container:write_add_block", "io.container:write_close"),
        "retrieval.plan.self_ms": layer_ms("retrieval.plan"),
        "retrieval.plan.ops": plan_ops / n_ops,
        "retrieval.plan.blocks_per_op": counters["plan.blocks"] / plan_ops if plan_ops else 0.0,
        "retrieval.engine.self_ms": layer_ms("retrieval.engine"),
        "retrieval.engine.assemble_self_ms": ms("retrieval.engine:assemble"),
        "retrieval.prefetch.wait_ms": ms("retrieval.prefetch:read_range"),
        "retrieval.prefetch.primed_bytes": primed / n_ops,
        "retrieval.prefetch.consumed_fraction": (
            min(1.0, counters["prefetch.consumed_bytes"] / primed) if primed else 0.0
        ),
        "io.aio.wait_ms": layer_ms("io.aio"),
        "io.aio.requests": counters["aio.requests"] / n_ops,
        "io.aio.egress_bytes": counters["aio.egress_bytes"] / n_ops,
        "io.aio.retries": counters["aio.retries"],
        "io.aio.inflight_max": counters["aio.inflight_max"],
        "io.dataset.self_ms": layer_ms("io.dataset"),
        "io.dataset.open_ms": 1e3 * tracer.total("io.dataset:open") / n_ops,
        "core.compressor.self_ms": layer_ms("core.compressor"),
        "parallel.executor.self_ms": layer_ms("parallel.executor"),
        "service.service.self_ms": layer_ms("service.service"),
        "service.service.physical_reads": counters["service.physical_reads"] / n_ops,
        "service.service.retries": counters["service.retries"],
        "service.cache.self_ms": layer_ms("service.cache"),
        "service.scheduler.self_ms": layer_ms("service.scheduler"),
        "harness.span_coverage_fraction": (
            1.0 - self_s.get(ROOT_SPAN, 0.0) / op_total if op_total else 0.0
        ),
    }
    values.update(extra)
    return values
