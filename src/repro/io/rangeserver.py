"""Loopback HTTP Range server for tests, benchmarks, and quickstarts.

A minimal threaded ``http.server`` that serves the files under one
directory with proper byte-range semantics — ``Accept-Ranges``, ``206`` +
``Content-Range`` replies, ``HEAD`` sizing — plus the knobs the
robustness suite needs:

* every ranged reply carries :data:`~repro.io.remote.CRC_HEADER`, the
  CRC32 of the payload the server *intended* to send, computed **before**
  any server-side corruption is applied — so an injected ``corrupt``
  fault looks exactly like in-flight corruption and the client's CRC
  gate can catch it;
* a server-side :class:`~repro.io.faults.FaultPlan` (``plan=``) applied
  per ranged read: ``raise``/``stall`` → HTTP 500 (after the stall's
  delay), ``short`` → a body shorter than the declared ``Content-Length``
  (the client surfaces ``IncompleteRead``), ``corrupt`` → a bit-flipped
  payload under a truthful CRC header, ``latency`` → a slow but correct
  reply;
* ``ignore_range=True`` answers ranged GETs with a plain ``200`` full
  body, exercising the client's slice-the-200 fallback;
* connection hygiene: every connection has its own handler thread, so a
  ``stall`` fault on one never wedges the others, and
  :data:`HANDLER_TIMEOUT` reaps idle keep-alive sockets (a dead or stalled
  client cannot pin a handler thread forever).

Intended for loopback use only (tests, CI smokes, the README's
"serve a container over HTTP" quickstart via ``python -m
repro.io.rangeserver``) — there is no TLS, auth, or path hardening beyond
refusing to escape the served directory.
"""

from __future__ import annotations

import argparse
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple

from repro.io.faults import FaultPlan
from repro.io.remote import CRC_HEADER

__all__ = ["RangeServer"]

#: Seconds an idle keep-alive connection may hold its handler thread.
HANDLER_TIMEOUT = 30.0


def _parse_range(header: str, size: int) -> Optional[Tuple[int, int]]:
    """``bytes=a-b`` / ``bytes=a-`` / ``bytes=-n`` → inclusive (start, end)."""
    if not header.startswith("bytes="):
        return None
    span = header[len("bytes=") :].strip()
    if "," in span:  # multi-range: not supported, serve full body
        return None
    start_text, _, end_text = span.partition("-")
    try:
        if start_text == "":
            suffix = int(end_text)
            if suffix <= 0:
                return None
            return max(0, size - suffix), size - 1
        start = int(start_text)
        end = int(end_text) if end_text else size - 1
    except ValueError:
        return None
    if start > end or start >= size:
        return None
    return start, min(end, size - 1)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body land in separate send()s; without TCP_NODELAY the
    # second waits out the peer's delayed ACK (~40 ms per loopback request).
    disable_nagle_algorithm = True
    server: "_Server"

    def setup(self) -> None:
        # Socket-level timeout: an idle keep-alive peer (or one that went
        # away without FIN) trips it, handle_one_request marks the
        # connection closed, and the handler thread is reaped instead of
        # pinned forever.
        self.timeout = HANDLER_TIMEOUT
        super().setup()

    def log_message(self, *args) -> None:  # noqa: D102 - silence test noise
        pass

    def _resolve(self) -> Optional[Path]:
        name = self.path.lstrip("/").split("?", 1)[0]
        candidate = (self.server.root / name).resolve()
        root = self.server.root.resolve()
        if root not in candidate.parents and candidate != root:
            return None
        return candidate if candidate.is_file() else None

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        target = self._resolve()
        if target is None:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(target.stat().st_size))
        self.send_header("Accept-Ranges", "bytes")
        self.end_headers()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        target = self._resolve()
        if target is None:
            self.send_error(404)
            return
        data = target.read_bytes()
        srv = self.server
        span = None
        if not srv.ignore_range:
            header = self.headers.get("Range")
            if header is not None:
                span = _parse_range(header, len(data))
        if span is None:
            self._reply(200, data, content_range=None)
            return
        start, end = span
        payload = data[start : end + 1]
        self._reply(206, payload, content_range=f"bytes {start}-{end}/{len(data)}")

    def _reply(self, status: int, payload: bytes, *, content_range: Optional[str]) -> None:
        srv = self.server
        fault = None
        if status == 206:  # faults are scheduled against ranged reads only
            with srv.lock:
                srv.range_requests += 1
                if srv.plan is not None:
                    fault = srv.plan.fault_for(srv.range_requests)
                    if fault is not None:
                        srv.faults_served += 1
        crc = zlib.crc32(payload)  # the *intended* payload, pre-corruption
        if fault is not None:
            if fault.kind in ("raise", "stall"):
                if fault.kind == "stall" and fault.seconds:
                    time.sleep(fault.seconds)
                self.send_error(500, "injected server fault")
                # A faulted connection's wire state is suspect; dropping it
                # keeps the stall confined to this one connection instead of
                # wedging a keep-alive pipeline behind it.
                self.close_connection = True
                return
            if fault.kind == "latency" and fault.seconds:
                time.sleep(fault.seconds)
            if fault.kind == "corrupt" and payload:
                payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
        declared = len(payload)
        if fault is not None and fault.kind == "short" and payload:
            payload = payload[:-1]  # body under-runs Content-Length
        self.send_response(status)
        self.send_header("Content-Length", str(declared))
        self.send_header("Accept-Ranges", "bytes")
        if content_range is not None:
            self.send_header("Content-Range", content_range)
        if status == 206:
            self.send_header(CRC_HEADER, str(crc))
        if declared != len(payload):
            self.send_header("Connection", "close")  # don't wedge keep-alive
        self.end_headers()
        self.wfile.write(payload)
        with srv.lock:
            srv.bytes_sent += len(payload)
        if declared != len(payload):
            self.close_connection = True


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, root: Path, plan, ignore_range: bool):
        super().__init__(address, _Handler)
        self.root = root
        self.plan = plan
        self.ignore_range = ignore_range
        self.lock = threading.Lock()
        self.range_requests = 0
        self.faults_served = 0
        self.bytes_sent = 0
        #: Accepted sockets whose handler thread is alive (idle ones too).
        self.open_connections = 0

    def process_request_thread(self, request, client_address):
        # Each accepted connection gets its own thread (ThreadingMixIn), so
        # a stalled handler only ever blocks its own connection.
        with self.lock:
            self.open_connections += 1
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self.lock:
                self.open_connections -= 1


class RangeServer:
    """Serve ``root``'s files over loopback HTTP with Range support.

    Context-managed: binds an ephemeral port on ``host`` at construction,
    serves from a daemon thread, and :meth:`close` shuts it down.  See the
    module docstring for the fault-injection and Range-handling knobs.
    """

    def __init__(
        self,
        root,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        plan: Optional[FaultPlan] = None,
        ignore_range: bool = False,
    ) -> None:
        self.root = Path(root)
        self._server = _Server((host, port), self.root, plan, ignore_range)
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-rangeserver", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def url_for(self, name: str) -> str:
        """URL of one file under the served root (e.g. ``field.rprc``)."""
        return f"{self.url}/{name}"

    @property
    def range_requests(self) -> int:
        with self._server.lock:
            return self._server.range_requests

    @property
    def faults_served(self) -> int:
        with self._server.lock:
            return self._server.faults_served

    @property
    def bytes_sent(self) -> int:
        with self._server.lock:
            return self._server.bytes_sent

    @property
    def open_connections(self) -> int:
        with self._server.lock:
            return self._server.open_connections

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=5.0)
        self._server.server_close()

    def __enter__(self) -> "RangeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.io.rangeserver",
        description="Serve files over loopback HTTP with byte-range support.",
    )
    parser.add_argument("path", type=Path, help="file or directory to serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--inject-faults", type=Path, default=None, metavar="PLAN.json",
        help="apply a repro.io.faults.FaultPlan to every ranged read",
    )
    return parser


def main(argv=None) -> int:
    """``python -m repro.io.rangeserver PATH`` — serve a file or directory."""
    args = _build_parser().parse_args(argv)
    target = args.path
    root = target if target.is_dir() else target.parent
    plan = FaultPlan.from_file(args.inject_faults) if args.inject_faults else None
    server = RangeServer(root, host=args.host, port=args.port, plan=plan)
    try:
        if target.is_dir():
            print(f"serving {root}/ at {server.url}")
        else:
            print(f"serving {target} at {server.url_for(target.name)}")
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
