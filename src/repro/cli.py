"""Command line interface (the FZ-framework-style front end of §3.2).

Subcommands::

    ipcomp compress   INPUT.raw -o OUT.ipc --shape 64x96x96 --eb 1e-6 [--abs]
    ipcomp compress   INPUT.raw -o OUT.ipc --shape 64x96x96 --profile prof.json
    ipcomp compress   INPUT.raw -o OUT.rprc --shape 64x96x96 --blocks 4
    ipcomp decompress OUT.ipc  -o RESTORED.raw
    ipcomp retrieve   OUT.ipc  -o PARTIAL.raw (--error-bound 1e-3 | --bitrate 2.0)
    ipcomp retrieve   OUT.rprc -o ROI.raw --roi 0:16,:,: --error-bound 1e-3
    ipcomp info       OUT.ipc             # header: version, levels, per-plane codec
    ipcomp info       OUT.rprc            # manifest + per-shard header summary
    ipcomp info       OUT.rprc --roi 0:16,:,: --error-bound 1e-3  # + retrieval plan
    ipcomp serve      OUT.rprc --requests REQS.jsonl
    ipcomp serve      OUT.rprc --requests REQS.jsonl --max-inflight 2 \
                      --client-budget-bps 1000000 --client-budget-bps vip=8000000
    ipcomp stats      OUT.rprc --requests REQS.jsonl  # aggregate only
    ipcomp retrieve   http://host:8123/OUT.rprc -o ROI.raw --roi 0:16,:,: \
                      --error-bound 1e-3 --mirror http://replica:8123/OUT.rprc
    ipcomp serve      http://host:8123/OUT.rprc --requests REQS.jsonl
    ipcomp datasets                       # print the Table 3 inventory
    ipcomp demo       --dataset density   # synthetic end-to-end demo + metrics

Raw inputs follow the SDRBench layout (headerless little-endian binary); the
shape is passed as ``AxBxC``.  ``compress --blocks N`` writes a sharded
:class:`~repro.io.ChunkedDataset` container instead of a single stream;
every reading subcommand opens either kind through
:class:`~repro.io.ChunkedDataset` — a bare stream is a dataset of one shard
— so ``--roi START:STOP,...`` works on both (a container opens only the
intersecting shards) and ``--bitrate`` on any single-shard input.
Retrieval runs the plan → prefetch → decode pipeline of
:mod:`repro.retrieval`, decoding every shard in-process: over a URL the
planned ranges are multiplexed (``--prefetch 0`` reads one range at a time;
any positive value means the default) and a local file reads synchronously
whatever the flag says — a pure runtime choice with bitwise-identical
output and identical reported byte counts.  ``decompress`` is the
full-precision read.

``serve`` runs a batch of requests — one JSON object per line, e.g.
``{"roi": "0:16,:,:", "error_bound": 1e-3, "out": "roi.raw", "client":
"alice"}`` — through a single long-lived
:class:`~repro.service.RetrievalService` (pinned session, tiered slab/rung
cache; every shard decodes in-process), one request after another, and
prints one trace JSON line per request; ``stats`` serves the same batch
but prints only the aggregate statistics.  Concurrency is the QoS
:class:`~repro.service.RequestScheduler`'s: ``--max-inflight`` and/or
``--client-budget-bps`` route the batch through it — up to N requests
fetch/decode at once, overlapping ones share one fetch, each client is
byte-budgeted, and overload is answered from resident fidelity
(``"degraded": true`` in the trace) and refined in the background — the
written outputs are always the final refined answers.

``decompress``, ``retrieve``, ``info``, ``serve`` and ``stats`` also accept
``http(s)://`` URLs served with byte-range support
(``python -m repro.io.rangeserver PATH`` publishes a directory): reads go
through the resilient remote stack of
:mod:`repro.io.aio` — retries with jittered backoff, per-endpoint
circuit breakers, CRC verification, and with ``--mirror`` replica failover
— and stay bitwise-identical to a local read.  ``--inject-faults PLAN.json``
(a :mod:`repro.io.faults` plan) deterministically injects failures:
client-side below CRC verification for ``retrieve`` URLs, or around every
cold read's source for ``serve``/``stats``, exercising the healing paths
end-to-end.  ``retrieve --trace-json FILE`` writes a receipt with the
remote stack's request/egress/retry/breaker statistics.

The codec is configured on the write side only (``compress``, ``demo``),
by one :class:`~repro.core.profile.CodecProfile`: ``--profile FILE.json``
loads a profile, and the individual flags (``--eb``, ``--abs``,
``--method``) override single fields of it — flags always win over the
file.  Streams are self-describing, so no reading subcommand takes a
profile; each runtime knob is one flag of the subcommand it acts in
(``retrieve --prefetch``, ``serve --cache-bytes /
--max-inflight``), validated by the library object it configures: a bad
value is an ``error:`` exit, never a clamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import ChunkedDataset, CodecProfile, IPComp
from repro.analysis import summarize
from repro.datasets import dataset_table, load_dataset, load_raw, save_raw
from repro.errors import ConfigurationError, ReproError
from repro.io.faults import FaultInjector, FaultPlan
from repro.io.aio import open_remote_source
from repro.io.remote import is_url
from repro.service import DEFAULT_CACHE_BYTES, RetrievalService


def _input_path(text: str):
    """Input argument type: a local path, or an ``http(s)://`` URL kept as
    a verbatim string (``Path`` would collapse the ``//``)."""
    return text if is_url(text) else Path(text)


def _parse_shape(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.lower().replace(",", "x").split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse shape {text!r}") from None


def _parse_roi(text: str) -> tuple:
    """Parse ``start:stop,start:stop,...`` (``:`` keeps an axis whole)."""
    axes = []
    try:
        for part in text.split(","):
            bounds = part.strip().split(":")
            if len(bounds) != 2:
                raise ValueError(part)
            start = int(bounds[0]) if bounds[0] else None
            stop = int(bounds[1]) if bounds[1] else None
            axes.append(slice(start, stop))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse roi {text!r} (expected start:stop,start:stop,...)"
        ) from None
    return tuple(axes)


def _add_profile_arguments(subparser: argparse.ArgumentParser) -> None:
    """Codec-profile options of a writing subcommand: a JSON file plus
    per-field override flags."""
    subparser.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="FILE.json",
        help="codec profile JSON file; individual flags override its fields",
    )
    subparser.add_argument("--eb", type=float, default=None, help="error bound")
    subparser.add_argument(
        "--abs", action=argparse.BooleanOptionalAction, default=None,
        help="treat the error bound as absolute instead of range-relative "
        "(--no-abs restores range-relative over a profile file)",
    )
    subparser.add_argument("--method", choices=("cubic", "linear"), default=None)


def _profile_from_args(args) -> CodecProfile:
    """Resolve the effective profile: file (or defaults) + flag overrides."""
    base = CodecProfile.from_file(args.profile) if args.profile else None
    overrides = {}
    if args.eb is not None:
        overrides["error_bound"] = args.eb
    if args.abs is not None:
        overrides["relative"] = not args.abs
    if args.method is not None:
        overrides["method"] = args.method
    return CodecProfile.from_options(base, **overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipcomp", description="IPComp progressive lossy compressor (reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a raw binary field")
    compress.add_argument("input", type=Path)
    compress.add_argument("-o", "--output", type=Path, required=True)
    compress.add_argument("--shape", type=_parse_shape, required=True)
    compress.add_argument("--dtype", default="float64")
    compress.add_argument(
        "--blocks",
        type=int,
        default=None,
        metavar="N",
        help="write a sharded ChunkedDataset container with N slabs "
        "instead of a single stream (enables ROI retrieval)",
    )
    _add_profile_arguments(compress)

    decompress = sub.add_parser("decompress", help="full-precision decompression")
    decompress.add_argument(
        "input",
        type=_input_path,
        help="stream/container file, or an http(s):// URL",
    )
    decompress.add_argument("-o", "--output", type=Path, required=True)

    retrieve = sub.add_parser("retrieve", help="partial retrieval at a fidelity target")
    retrieve.add_argument(
        "input",
        type=_input_path,
        help="stream/container file, or an http(s):// URL served with "
        "Range support (e.g. by python -m repro.io.rangeserver)",
    )
    retrieve.add_argument("-o", "--output", type=Path, required=True)
    retrieve.add_argument(
        "--mirror",
        action="append",
        default=None,
        metavar="URL",
        help="replica URL of the same bytes (repeatable; URL inputs only) "
        "— reads fail over between mirrors by health",
    )
    retrieve.add_argument(
        "--inject-faults",
        type=Path,
        default=None,
        metavar="PLAN.json",
        help="deterministic fault plan (repro.io.faults JSON) injected "
        "client-side below CRC verification (URL inputs only)",
    )
    retrieve.add_argument(
        "--trace-json",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a retrieval receipt JSON (bytes, and for URL inputs "
        "the remote stack's requests/egress/retries/breaker stats)",
    )
    group = retrieve.add_mutually_exclusive_group(required=True)
    group.add_argument("--error-bound", type=float)
    group.add_argument("--bitrate", type=float)
    retrieve.add_argument(
        "--roi",
        type=_parse_roi,
        default=None,
        metavar="S:E,S:E,...",
        help="region of interest: per-axis start:stop, ':' keeps an axis "
        "whole (a container opens only the intersecting shards)",
    )
    retrieve.add_argument(
        "--prefetch",
        type=int,
        default=None,
        metavar="N",
        help="URL inputs: 0 reads one range at a time, any positive value "
        "multiplexes the planned ranges (default: multiplexed); a local "
        "file reads synchronously whatever it says; reported bytes are "
        "unchanged",
    )

    info = sub.add_parser(
        "info", help="print the parsed stream header / dataset manifest"
    )
    info.add_argument("input", type=_input_path)
    info.add_argument(
        "--roi",
        type=_parse_roi,
        default=None,
        metavar="S:E,S:E,...",
        help="also print the retrieval plan (fetch ops, coalesced ranges, "
        "predicted bytes) for this region",
    )
    info.add_argument(
        "--error-bound",
        type=float,
        default=None,
        help="fidelity target of the printed retrieval plan "
        "(default: the stored bound, i.e. full precision)",
    )

    def _add_serve_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "input",
            type=_input_path,
            help="container/stream file, or an http(s):// URL (served "
            "through the resilient remote stack)",
        )
        subparser.add_argument(
            "--mirror",
            action="append",
            default=None,
            metavar="URL",
            help="replica URL for URL inputs (repeatable): reads fail "
            "over between mirrors by health",
        )
        subparser.add_argument(
            "--inject-faults",
            type=Path,
            default=None,
            metavar="PLAN.json",
            help="deterministic fault plan (repro.io.faults JSON) wrapped "
            "around every cold read's source — the service's retry "
            "ladder must heal the injected failures",
        )
        subparser.add_argument(
            "--requests",
            type=Path,
            required=True,
            metavar="FILE.jsonl",
            help="request batch: one JSON object per line with optional "
            "'roi' (start:stop,...), 'error_bound', 'client' (tenant name "
            "for QoS scheduling), and 'out' (raw output file name); "
            "'-' reads from stdin",
        )
        subparser.add_argument(
            "--max-inflight",
            type=int,
            default=None,
            metavar="N",
            help="QoS scheduler admission window: at most N requests "
            "fetch/decode concurrently; the rest queue or degrade to a "
            "resident fidelity (enables the scheduler)",
        )
        subparser.add_argument(
            "--client-budget-bps",
            action="append",
            default=None,
            metavar="[CLIENT=]BPS",
            help="byte-budget token bucket rate; plain BPS sets the "
            "default for every client, CLIENT=BPS one tenant's rate "
            "(repeatable; enables the scheduler)",
        )
        subparser.add_argument(
            "--cache-bytes",
            type=int,
            default=DEFAULT_CACHE_BYTES,
            metavar="B",
            help="tiered slab/rung cache budget in bytes (default 256 MiB)",
        )
        subparser.add_argument(
            "--out-dir",
            type=Path,
            default=Path("."),
            help="directory for requests' 'out' files (default: cwd)",
        )
        subparser.add_argument(
            "--stats-json",
            type=Path,
            default=None,
            metavar="FILE",
            help="also write the aggregate service stats to FILE",
        )

    serve = sub.add_parser(
        "serve",
        help="serve a request batch through one cached retrieval service",
    )
    _add_serve_arguments(serve)

    stats = sub.add_parser(
        "stats", help="serve a request batch, print aggregate stats only"
    )
    _add_serve_arguments(stats)

    sub.add_parser("datasets", help="list the Table 3 dataset inventory")

    demo = sub.add_parser("demo", help="synthetic end-to-end demo")
    demo.add_argument("--dataset", default="density")
    demo.add_argument("--shape", type=_parse_shape, default=None)
    _add_profile_arguments(demo)
    return parser


def _cmd_compress(args) -> int:
    data = load_raw(args.input, args.shape, args.dtype)
    profile = _profile_from_args(args)
    if args.blocks is not None:
        manifest = ChunkedDataset.write(
            args.output,
            data,
            profile=profile,
            n_blocks=args.blocks,
        )
        size = args.output.stat().st_size
        print(
            f"compressed {data.nbytes} B -> {size} B container "
            f"(CR {data.nbytes / size:.2f}, {len(manifest['shards'])} shards, "
            f"eb {manifest['error_bound']:.3e})"
        )
        return 0
    comp = IPComp(profile=profile)
    blob = comp.compress(data)
    args.output.write_bytes(blob)
    print(
        f"compressed {data.nbytes} B -> {len(blob)} B "
        f"(CR {data.nbytes / len(blob):.2f}, eb {comp.absolute_bound(data):.3e})"
    )
    return 0


def _cmd_decompress(args) -> int:
    with ChunkedDataset(args.input) as dataset:
        result = dataset.read()
    save_raw(args.output, result.data)
    print(f"decompressed to {args.output} shape={result.data.shape}")
    return 0


def _fault_injector_from_args(args) -> "FaultInjector | None":
    if getattr(args, "inject_faults", None) is None:
        return None
    return FaultInjector(FaultPlan.from_file(args.inject_faults))


def _write_retrieve_trace(args, result, remote_stats) -> None:
    """``retrieve --trace-json``: one receipt object, remote stats included."""
    if args.trace_json is None:
        return
    receipt = {
        "input": str(args.input),
        "error_bound": result.error_bound,
        "bytes_loaded": result.bytes_loaded,
        "bitrate": result.bitrate(),
        "remote": remote_stats,
    }
    args.trace_json.write_text(json.dumps(receipt, indent=2), encoding="utf-8")


def _cmd_retrieve(args) -> int:
    """``retrieve``: one path for files and URLs, containers and bare
    streams — :class:`ChunkedDataset` opens them all.  Over an
    ``http(s)://`` URL the resilient remote stack (retries, CRC, optional
    mirrors / injected faults) feeds the same plan → prefetch → decode
    pipeline; output is bitwise-identical to a local read of the file."""
    stack = injector = None
    if is_url(args.input):
        injector = _fault_injector_from_args(args)
        stack = open_remote_source(
            args.input,
            tuple(args.mirror or ()),
            tamper=injector.tamper if injector is not None else None,
        )
    elif args.mirror or args.inject_faults is not None:
        raise ConfigurationError(
            "--mirror and --inject-faults apply to http(s):// inputs "
            "(use 'serve --inject-faults' for local files)"
        )
    # The dataset's reader owns (and closes) the stack.
    with ChunkedDataset(args.input, prefetch=args.prefetch, source=stack) as dataset:
        result = dataset.read(
            error_bound=args.error_bound, roi=args.roi, bitrate=args.bitrate
        )
        save_raw(args.output, result.data)
        summary = (
            f"retrieved {result.bytes_loaded} B of {dataset.file_bytes} B "
            f"({len(result.shards)}/{dataset.n_shards} shards, "
            f"{result.bitrate():.3f} bits/value"
        )
    stats = None
    if stack is not None:
        stats = stack.stats()
        summary += (
            f", {stats['egress_bytes']} B egress over HTTP, "
            f"{stats.get('retries', 0)} retries"
        )
        if injector is not None:
            stats = {**stats, "faults": injector.stats()}
    print(f"{summary}), guaranteed error <= {result.error_bound:.3e}")
    _write_retrieve_trace(args, result, stats)
    return 0


def _header_summary(header) -> dict:
    """The inspection view of a parsed stream header (``info`` subcommand)."""
    summary = header.to_json()
    summary["version"] = header.version
    summary["payload_bytes"] = header.payload_bytes()
    # to_json emits codec indices (the compact wire form); resolve them back
    # to names so the inspection output is directly readable.
    codecs = summary["codecs"]
    summary["anchor_coder"] = codecs[summary["anchor_coder"]]
    for level in summary["levels"]:
        level["plane_codecs"] = [codecs[i] for i in level["plane_codecs"]]
        del level["delta_table"]  # planning detail, noise for inspection
    return summary


def _cmd_info(args) -> int:
    """``info``: a container prints its manifest plus every shard's header
    summary, a bare stream its header summary — the two output formats;
    everything else (files and URLs, the optional retrieval plan) is one
    path through :class:`ChunkedDataset`."""
    with ChunkedDataset(args.input) as dataset:
        headers = {
            shard.name: _header_summary(dataset.pinned_shard(shard.name).header)
            for shard in sorted(dataset.shards, key=lambda s: s.name)
        }
        if dataset.manifest is None:
            (report,) = headers.values()
        else:
            report = dict(dataset.manifest)
            report["file_bytes"] = dataset.file_bytes
            report["shard_headers"] = headers
        if args.roi is not None or args.error_bound is not None:
            # Stage-1 planning only: the fetch ops, coalesced ranges and
            # predicted bytes a stateless read of this region would run.
            plan = dataset.plan(error_bound=args.error_bound, roi=args.roi)
            report["retrieval_plan"] = plan.to_json()
    print(json.dumps(report, indent=2))
    return 0


def _load_requests(path: Path) -> list:
    """Parse a JSONL batch into ``(roi, error_bound, out, client)`` tuples."""
    if str(path) == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read requests file: {exc}") from None
    requests = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ConfigurationError(
                f"requests line {lineno} is not valid JSON: {exc}"
            ) from None
        if not isinstance(obj, dict):
            raise ConfigurationError(f"requests line {lineno} must be an object")
        try:
            roi = _parse_roi(str(obj["roi"])) if obj.get("roi") is not None else None
        except argparse.ArgumentTypeError as exc:
            raise ConfigurationError(f"requests line {lineno}: {exc}") from None
        bound = obj.get("error_bound")
        if bound is not None:
            try:
                bound = float(bound)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"requests line {lineno}: error_bound must be a number, "
                    f"got {bound!r}"
                ) from None
        requests.append(
            (roi, bound, obj.get("out"), str(obj.get("client") or "default"))
        )
    if not requests:
        raise ConfigurationError("requests file contains no requests")
    return requests


def _parse_client_budgets(values) -> tuple:
    """Split ``--client-budget-bps`` values into (default_bps, {client: bps})."""
    default_bps = 0
    per_client = {}
    for value in values or []:
        name, sep, rate = str(value).rpartition("=")
        try:
            bps = int(rate)
        except ValueError:
            raise ConfigurationError(
                f"invalid --client-budget-bps value: {value!r}"
            ) from None
        if sep:
            per_client[name] = bps
        else:
            default_bps = bps
    return default_bps, per_client


def _serve_batch(args) -> tuple:
    """Run the request batch through one service; returns (traces, stats).

    With ``--max-inflight`` or ``--client-budget-bps`` the batch goes
    through the QoS :class:`~repro.service.scheduler.RequestScheduler`
    (admission window, per-client byte budgets, degradation with
    background refinement); outputs are always the *refined* final
    answers, with the trace's ``degraded`` flag recording whether a
    coarser answer was load-shed first.
    """
    requests = _load_requests(args.requests)
    scheduled = args.max_inflight is not None or args.client_budget_bps
    injector = _fault_injector_from_args(args)
    remote_options = {"mirrors": tuple(args.mirror)} if args.mirror else {}
    with RetrievalService(
        cache_bytes=args.cache_bytes,
        source_filter=injector.source_filter if injector is not None else None,
        remote_options=remote_options,
    ) as service:
        if scheduled:
            default_bps, per_client = _parse_client_budgets(args.client_budget_bps)
            from repro.service.scheduler import DEFAULT_MAX_INFLIGHT, RequestScheduler

            with RequestScheduler(
                service,
                max_inflight=(
                    DEFAULT_MAX_INFLIGHT
                    if args.max_inflight is None
                    else args.max_inflight
                ),
                budget_bps=default_bps,
                client_budgets=per_client,
            ) as scheduler:
                handles = [
                    scheduler.submit(
                        args.input, error_bound=error_bound, roi=roi, client=client
                    )
                    for roi, error_bound, _out, client in requests
                ]
                traces = []
                for handle, (_roi, _eb, out, _client) in zip(handles, requests):
                    response = handle.refined()
                    if out is not None:
                        save_raw(args.out_dir / out, response.data)
                    traces.append(response.trace)
                stats = {**service.stats(), "scheduler": scheduler.stats()}
        else:
            traces = []
            for roi, error_bound, out, client in requests:
                response = service.get(args.input, error_bound=error_bound, roi=roi)
                response.trace.client = client
                if out is not None:
                    save_raw(args.out_dir / out, response.data)
                traces.append(response.trace)
            stats = service.stats()
    if injector is not None:
        stats = {**stats, "faults": injector.stats()}
    if args.stats_json is not None:
        args.stats_json.write_text(json.dumps(stats, indent=2), encoding="utf-8")
    return traces, stats


def _cmd_serve(args) -> int:
    traces, _ = _serve_batch(args)
    for trace in traces:
        print(json.dumps(trace.to_json()))
    return 0


def _cmd_stats(args) -> int:
    _, stats = _serve_batch(args)
    print(json.dumps(stats, indent=2))
    return 0


def _cmd_datasets(_args) -> int:
    print(dataset_table())
    return 0


def _cmd_demo(args) -> int:
    field = load_dataset(args.dataset, shape=args.shape)
    comp = IPComp(profile=_profile_from_args(args))
    blob = comp.compress(field)
    restored = comp.decompress(blob)
    report = summarize(field, restored, blob)
    print(
        f"dataset={args.dataset} shape={field.shape} "
        f"eb({'abs' if not comp.profile.relative else 'rel'})={comp.profile.error_bound}"
    )
    for key, value in report.items():
        print(f"  {key:18s} {value:.6g}")
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "retrieve": _cmd_retrieve,
    "info": _cmd_info,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "datasets": _cmd_datasets,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    """CLI entry point (installed as the ``ipcomp`` console script)."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
