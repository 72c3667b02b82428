"""The configuration surface, pinned.

Every codec field, CLI option and constructor keyword of the reading and
serving stack is listed here.  Adding a knob means editing this file — a
deliberate, reviewable diff — and a removed one cannot come back
unnoticed: the profile's runtime fields, the read-side ``--profile``,
``--no-prefetch``, the service's ``cache_verify`` / ``degrade_on_failure``
and retry keywords, the scheduler's ``quantum_bytes``, ``serve`` /
``stats --threads``, the ``RequestCost`` fields no caller read, the read's
``workers`` (``ChunkedDataset(workers=)``, ``retrieve --workers``), the
write's with the pool write (``compress --workers`` and
``BlockParallelCompressor``'s ``workers``: every write runs one in-process
path; ``ChunkedDataset.write`` still accepts a validated ``workers`` that
does nothing, because the benchmark harness passes it), and the
remote stack's knobs, now module constants: the wire's in
:mod:`repro.io.aio` (``CONNECTIONS``, ``TIMEOUT``, ``RETRIES``,
``MAX_BATCH``), the backoff schedule and the breaker's threshold and
cooldown in :mod:`repro.io.remote`, the service's ``RETRIES`` in
:mod:`repro.service.service`, and the range server's ``HANDLER_TIMEOUT``
(its CRC header, connection cap and listen backlog are gone).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import pytest

from repro import ChunkedDataset, CodecProfile, RetrievalService
from repro.cli import _build_parser, main
from repro.io import rangeserver
from repro.io.aio import coalesce_burst, coalesce_ops, open_remote_source
from repro.io.rangeserver import RangeServer
from repro.io.remote import CircuitBreaker
from repro.parallel import BlockParallelCompressor
from repro.service import RequestCost, RequestScheduler

_WRITE_PROFILE = ["--abs", "--eb", "--method", "--no-abs", "--profile"]
_SERVE = [
    "--cache-bytes", "--client-budget-bps", "--inject-faults", "--max-inflight",
    "--mirror", "--out-dir", "--requests", "--stats-json",
]

CLI_OPTIONS = {
    "compress": sorted(
        _WRITE_PROFILE + ["--blocks", "--dtype", "--output", "--shape", "-o"]
    ),
    "decompress": ["--output", "-o"],
    "retrieve": [
        "--bitrate", "--error-bound", "--inject-faults", "--mirror", "--output",
        "--prefetch", "--roi", "--trace-json", "-o",
    ],
    "info": ["--error-bound", "--roi"],
    "serve": _SERVE,
    "stats": _SERVE,
    "datasets": [],
    "demo": sorted(_WRITE_PROFILE + ["--dataset", "--shape"]),
}

KEYWORDS = {
    ChunkedDataset.__init__: ["path", "prefetch", "source"],
    ChunkedDataset.write: [
        "path", "data", "profile", "n_blocks", "workers", "profile_overrides",
    ],
    BlockParallelCompressor.__init__: ["profile", "n_blocks"],
    RetrievalService.__init__: [
        "cache_bytes", "sleep", "source_filter", "remote_options",
    ],
    RequestScheduler.__init__: [
        "service", "max_inflight", "budget_bps", "client_budgets", "clock", "pacer",
    ],
    open_remote_source: ["url", "mirrors", "tamper", "clock", "loop"],
    CircuitBreaker.__init__: ["clock"],
    coalesce_ops: ["ops"],
    coalesce_burst: ["op_groups", "max_requests"],
    RangeServer.__init__: ["root", "host", "port", "plan", "ignore_range"],
}

#: ``python -m repro.io.rangeserver``'s options (besides the positional PATH).
RANGESERVER_OPTIONS = ["--host", "--inject-faults", "--port"]


def test_codec_profile_fields():
    assert [f.name for f in dataclasses.fields(CodecProfile)] == [
        "error_bound", "relative", "method", "prefix_bits",
    ]


def test_request_cost_fields():
    assert [f.name for f in dataclasses.fields(RequestCost)] == [
        "dataset", "error_bound", "shards", "predicted_bytes",
    ]


def _options(parser: argparse.ArgumentParser) -> list:
    return sorted(
        option
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    )


def test_cli_option_strings():
    parser = _build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {name: _options(sub) for name, sub in subparsers.choices.items()}
    assert surface == CLI_OPTIONS


def test_rangeserver_option_strings():
    assert _options(rangeserver._build_parser()) == RANGESERVER_OPTIONS


def test_constructor_keywords():
    for function, expected in KEYWORDS.items():
        names = [n for n in inspect.signature(function).parameters if n != "self"]
        assert names == expected, function.__qualname__


def test_a_read_takes_no_workers(tmp_path, capsys):
    """The pool read is gone with its knob: a read decodes in-process only."""
    with pytest.raises(TypeError):
        ChunkedDataset(tmp_path / "f.rprc", workers=2)
    with pytest.raises(SystemExit) as exc:
        main(["retrieve", str(tmp_path / "f.rprc"), "-o", str(tmp_path / "o.raw"),
              "--error-bound", "1e-3", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
