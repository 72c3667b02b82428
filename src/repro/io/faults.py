"""First-class fault injection for byte-range sources.

The robustness suite used to hand-roll ad-hoc flaky wrappers inside each
test file; this module promotes them into one shared, deterministic
vocabulary that tests, the CLI (``serve/retrieve --inject-faults
PLAN.json``) and the CI remote-retrieval smoke all consume:

* a :class:`Fault` is one injected misbehaviour — ``raise`` (transport
  error), ``short`` (truncated payload), ``corrupt`` (bit-flipped
  payload), ``latency`` (slow but correct), ``stall`` (hang, then fail
  like a read timeout);
* a :class:`FaultPlan` decides, per global 1-based read number, which
  fault (if any) fires.  Plans are built from simple rules —
  :meth:`~FaultPlan.every` k-th read, an explicit :meth:`~FaultPlan.at`
  set, the :meth:`~FaultPlan.first` n reads, :meth:`~FaultPlan.always`,
  or CRC-seeded per-read :meth:`~FaultPlan.seeded` rates — all
  deterministic (same plan + same read sequence → same faults, no RNG
  state) and JSON round-trippable for the CLI flag;
* a :class:`FaultInjector` owns the global read counter (one policy spans
  every source the serving layer wraps, exactly like the old shared-list
  idiom) and wraps sources via :meth:`~FaultInjector.wrap` or the
  :class:`~repro.service.RetrievalService` ``source_filter`` hook
  (:meth:`~FaultInjector.source_filter`);
* a :class:`FaultInjectingSource` applies the drawn fault to one
  ``read_range`` while delegating everything else (``close``…) to the
  wrapped source; :class:`AsyncFaultInjectingSource` does the same to the
  remote transport's ``aget``, *between* the HTTP transport and the CRC
  gate, where injected corruption is caught exactly like wire corruption.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, RemoteSourceError

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultInjectingSource",
    "FaultInjector",
    "FaultPlan",
]

#: Recognised misbehaviours, in the order seeded draws consider them.
FAULT_KINDS = ("raise", "short", "corrupt", "latency", "stall")


class Fault:
    """One injected misbehaviour: a ``kind`` plus its delay, if any."""

    __slots__ = ("kind", "seconds")

    def __init__(self, kind: str, seconds: float = 0.0) -> None:
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        self.kind = kind
        self.seconds = float(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fault({self.kind!r}, seconds={self.seconds})"

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.seconds:
            payload["seconds"] = self.seconds
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "Fault":
        return cls(payload["kind"], float(payload.get("seconds", 0.0)))


class _Rule:
    """One (matcher, fault) pair; matchers are data, never callables, so a
    plan serialises losslessly.  ``at`` keeps the caller's container by
    reference — tests mutate the set mid-run to poison one future read."""

    __slots__ = ("match", "fault")

    def __init__(self, match: Tuple, fault: Fault) -> None:
        self.match = match
        self.fault = fault

    def applies(self, read_number: int) -> bool:
        kind = self.match[0]
        if kind == "every":
            return read_number % self.match[1] == 0
        if kind == "at":
            return read_number in self.match[1]
        if kind == "first":
            return read_number <= self.match[1]
        if kind == "always":
            return True
        if kind == "rate":
            rate, seed = self.match[1], self.match[2]
            draw = zlib.crc32(
                f"{seed}:{self.fault.kind}:{read_number}".encode("utf-8")
            )
            return (draw & 0xFFFFFFFF) / float(1 << 32) < rate
        raise AssertionError(f"unknown matcher {kind!r}")  # pragma: no cover

    def to_json(self) -> dict:
        kind = self.match[0]
        if kind == "every":
            match: dict = {"type": "every", "k": self.match[1]}
        elif kind == "at":
            match = {"type": "at", "reads": sorted(self.match[1])}
        elif kind == "first":
            match = {"type": "first", "n": self.match[1]}
        elif kind == "always":
            match = {"type": "always"}
        else:
            match = {"type": "rate", "rate": self.match[1], "seed": self.match[2]}
        return {"match": match, "fault": self.fault.to_json()}

    @classmethod
    def from_json(cls, payload: dict) -> "_Rule":
        match = payload["match"]
        kind = match["type"]
        if kind == "every":
            parsed: Tuple = ("every", int(match["k"]))
        elif kind == "at":
            parsed = ("at", set(int(n) for n in match["reads"]))
        elif kind == "first":
            parsed = ("first", int(match["n"]))
        elif kind == "always":
            parsed = ("always",)
        elif kind == "rate":
            parsed = ("rate", float(match["rate"]), str(match.get("seed", "")))
        else:
            raise ConfigurationError(f"unknown fault matcher type {kind!r}")
        return cls(parsed, Fault.from_json(payload["fault"]))


class FaultPlan:
    """A deterministic schedule mapping read numbers to faults.

    The first rule matching a read wins; a plan with no matching rule
    leaves the read untouched.  Plans compose with ``+``.  Everything is
    pure data: :meth:`fault_for` is a function of the read number alone,
    so identical runs inject identically — the property every
    byte-identity-under-faults test leans on.
    """

    def __init__(self, rules: Sequence[_Rule] = ()) -> None:
        self.rules: List[_Rule] = list(rules)

    # ------------------------------------------------------------- builders

    @classmethod
    def never(cls) -> "FaultPlan":
        """A plan that injects nothing (pure read counting)."""
        return cls()

    @classmethod
    def every(cls, k: int, kind: str = "raise", seconds: float = 0.0) -> "FaultPlan":
        """Fault every ``k``-th global read (k, 2k, 3k, …)."""
        if k < 1:
            raise ConfigurationError(f"every() needs k >= 1, got {k}")
        return cls([_Rule(("every", int(k)), Fault(kind, seconds))])

    @classmethod
    def at(
        cls, reads: Iterable[int], kind: str = "raise", seconds: float = 0.0
    ) -> "FaultPlan":
        """Fault exactly the given global read numbers.  A ``set`` is kept
        by reference, so callers may poison future reads mid-run."""
        container = reads if isinstance(reads, set) else set(int(n) for n in reads)
        return cls([_Rule(("at", container), Fault(kind, seconds))])

    @classmethod
    def first(cls, n: int, kind: str = "raise", seconds: float = 0.0) -> "FaultPlan":
        """Fault the first ``n`` global reads."""
        return cls([_Rule(("first", int(n)), Fault(kind, seconds))])

    @classmethod
    def always(cls, kind: str = "raise", seconds: float = 0.0) -> "FaultPlan":
        """Fault every read."""
        return cls([_Rule(("always",), Fault(kind, seconds))])

    @classmethod
    def seeded(
        cls, seed: str, rates: Dict[str, float], seconds: float = 0.0
    ) -> "FaultPlan":
        """Independent per-read draws: each ``kind -> rate`` rule fires when
        ``crc32(seed:kind:n) / 2^32 < rate`` (first kind in
        :data:`FAULT_KINDS` order wins).  Deterministic across runs and
        processes — a seeded plan in a JSON file reproduces exactly."""
        rules = []
        for kind in FAULT_KINDS:
            if kind in rates:
                rate = float(rates[kind])
                if not 0.0 <= rate <= 1.0:
                    raise ConfigurationError(
                        f"rate for {kind!r} must be in [0, 1], got {rate}"
                    )
                rules.append(_Rule(("rate", rate, seed), Fault(kind, seconds)))
        return cls(rules)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.rules + other.rules)

    # ------------------------------------------------------------ evaluation

    def fault_for(self, read_number: int) -> Optional[Fault]:
        for rule in self.rules:
            if rule.applies(read_number):
                return rule.fault
        return None

    # ----------------------------------------------------------------- (de)ser

    def to_json(self) -> dict:
        return {"rules": [rule.to_json() for rule in self.rules]}

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        return cls([_Rule.from_json(entry) for entry in payload.get("rules", [])])

    def to_file(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load fault plan {path}: {exc}") from exc
        return cls.from_json(payload)


class FaultInjector:
    """Applies one :class:`FaultPlan` across every source it wraps.

    The read counter is global and 1-based — one policy spans all shards
    of a container, matching how the serving layer's ``source_filter``
    wraps each block source separately but failures are scheduled against
    the request's whole read sequence.  Thread-safe; ``sleep`` is
    injectable so latency/stall faults stay instant in tests.
    """

    def __init__(self, plan: FaultPlan, *, sleep=time.sleep) -> None:
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self.total_reads = 0
        #: Number of injected faults per kind.
        self.injected: Dict[str, int] = {}
        #: Every source this injector wrapped (per-source ``reads`` counters
        #: survive here for calibration).
        self.sources: List["FaultInjectingSource"] = []

    def _draw(self) -> Tuple[int, Optional[Fault]]:
        with self._lock:
            self.total_reads += 1
            number = self.total_reads
            fault = self.plan.fault_for(number)
            if fault is not None:
                self.injected[fault.kind] = self.injected.get(fault.kind, 0) + 1
        return number, fault

    @property
    def faults_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def wrap(self, source, name: str = "") -> "FaultInjectingSource":
        wrapped = FaultInjectingSource(source, self, name=name)
        with self._lock:
            self.sources.append(wrapped)
        return wrapped

    def source_filter(self, name: str, source):
        """The :class:`~repro.service.RetrievalService` ``source_filter``
        hook: ``RetrievalService(source_filter=injector.source_filter)``."""
        return self.wrap(source, name=name)

    def tamper(self, url: str, source) -> "AsyncFaultInjectingSource":
        """The :func:`~repro.io.aio.open_remote_source` ``tamper`` hook:
        wraps the transport's ``aget`` *below* CRC verification, under the
        same plan and global read counter as :meth:`wrap`."""
        wrapped = AsyncFaultInjectingSource(source, self, name=url)
        with self._lock:
            self.sources.append(wrapped)
        return wrapped

    def stats(self) -> dict:
        with self._lock:
            return {
                "total_reads": self.total_reads,
                "faults_injected": sum(self.injected.values()),
                "injected": dict(self.injected),
            }


def _before_read(
    fault: Fault, number: int, name: str
) -> Tuple[float, Optional[RemoteSourceError]]:
    """What global read ``number`` does before touching the wrapped source:
    the seconds to wait, then the error to raise instead of reading
    (``None`` reads).  One vocabulary for both injecting wrappers."""
    where = f" ({name})" if name else ""
    if fault.kind == "raise":
        return 0.0, RemoteSourceError(f"injected failure on read #{number}{where}")
    if fault.kind == "stall":
        return fault.seconds, RemoteSourceError(
            f"injected stall timed out on read #{number}{where}"
        )
    if fault.kind == "latency":
        return fault.seconds, None
    return 0.0, None


def _mangle(fault: Fault, data: bytes) -> bytes:
    """The payload a ``short`` / ``corrupt`` fault hands back instead."""
    if fault.kind == "short":
        return data[:-1]
    if fault.kind == "corrupt" and data:
        return bytes([data[0] ^ 0xFF]) + data[1:]
    return data


class FaultInjectingSource:
    """One wrapped byte-range source; applies the injector's drawn fault.

    * ``raise``/``stall`` raise :class:`~repro.errors.RemoteSourceError`
      (an :class:`OSError`, so every retry ladder treats it as transient);
      ``stall`` sleeps its delay first, like a read that hung until a
      timeout;
    * ``short`` truncates the real payload by one byte (stricter layers
      convert that into a ``StreamFormatError``);
    * ``corrupt`` flips every bit of the payload's first byte;
    * ``latency`` sleeps, then serves correctly.

    Unknown attributes delegate to the wrapped source so the wrapper is
    transparent wherever it sits in a stack.
    """

    #: Faults are drawn on the synchronous ``read_range`` only: a coroutine
    #: read delegated to the wrapped source would slip past the injector,
    #: so nothing above may multiplex through this wrapper.
    supports_async = False

    def __init__(self, inner, injector: FaultInjector, name: str = "") -> None:
        self._inner = inner
        self._injector = injector
        self.name = name
        self.size = inner.size
        #: Reads served by *this* source (the injector counts globally).
        self.reads = 0

    def read_range(self, offset: int, length: int) -> bytes:
        self.reads += 1
        number, fault = self._injector._draw()
        if fault is None:
            return self._inner.read_range(offset, length)
        delay, error = _before_read(fault, number, self.name)
        if delay:
            self._injector._sleep(delay)
        if error is not None:
            raise error
        return _mangle(fault, self._inner.read_range(offset, length))

    def __getattr__(self, attribute: str):
        return getattr(self._inner, attribute)


class AsyncFaultInjectingSource:
    """:class:`FaultInjectingSource` for the remote transport.

    Wraps ``aget(offset, length) -> (bytes, crc)`` with the same fault
    vocabulary and the same injector-global 1-based read counter, so a
    fault plan means the same thing around a block source and on the wire.
    The opening read is an ``aget`` like any other, so it is global read #1.
    ``latency``/``stall`` delays are ``await asyncio.sleep`` — an injected
    slow read never blocks the other in-flight ranges.  ``corrupt`` flips
    the payload's first byte while forwarding the server-declared CRC
    untouched, which is exactly what the CRC gate exists to catch.
    """

    def __init__(self, inner, injector: FaultInjector, name: str = "") -> None:
        self._inner = inner
        self._injector = injector
        self.name = name
        #: Reads served by *this* source (the injector counts globally).
        self.reads = 0

    async def aget(self, offset: int, length: int):
        self.reads += 1
        number, fault = self._injector._draw()
        if fault is None:
            return await self._inner.aget(offset, length)
        delay, error = _before_read(fault, number, self.name)
        if delay:
            await asyncio.sleep(delay)
        if error is not None:
            raise error
        data, crc = await self._inner.aget(offset, length)
        return _mangle(fault, data), crc
