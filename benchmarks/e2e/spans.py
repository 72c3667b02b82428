"""Outside-in span tracing: wrap a layer's public entry points, time them.

The benchmark may not edit ``src/repro``, so the per-layer breakdown comes
from *wrapping* each layer's public functions for the duration of a traced
run and removing the wrappers afterwards (:func:`installed`).  A span has a
name (``"<layer>:<function>"``), a start, an end, the span that caused it
(its parent on the same thread's stack) and the id of the benchmark op it
belongs to.  Spans stay in memory; :meth:`Tracer.dump` writes them as JSON
when the run ends.  A layer's self time is its spans' duration minus the
part their child spans cover (:meth:`Tracer.aggregate`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Target", "Tracer", "installed"]

#: Name of the span the harness opens around each timed interval; its self
#: time is the wall time no wrapped layer accounts for.
ROOT_SPAN = "harness:op"

# Span record layout (a plain list: cheapest thing to create per call).
_NAME, _START, _END, _PARENT, _OP, _THREAD = range(6)

#: ``probe(tracer, args, kwargs, result)`` — reads counts at a span boundary.
Probe = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``owner`` is a class name inside ``module`` (``attr`` is then a method,
    classmethod or staticmethod) or ``None`` for a module-level function —
    which is re-bound in every ``repro`` module that imported it by name.
    ``probe`` runs after the call returns (``before=True``: before it
    starts) and feeds :attr:`Tracer.counters`.
    """

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    probe: Optional[Probe] = None
    before: bool = False
    label: Optional[str] = None

    @property
    def span_name(self) -> str:
        return f"{self.layer}:{self.label or self.attr.strip('_')}"


class Tracer:
    """In-memory span recorder with thread-local stacks."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Id of the op being run; the closed-loop client runs one op at a
        #: time, so worker-thread spans inherit it too.
        self.op = -1
        #: Spans are recorded only inside a timed interval: oracle checks and
        #: set-up call the same wrapped functions and must not count.
        self.active = False
        self._local = threading.local()

    # ---------------------------------------------------------------- spans

    def enter(self, name: str) -> list:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        record = [
            name, perf_counter(), 0.0, stack[-1] if stack else None,
            self.op, threading.get_ident(),
        ]
        stack.append(record)
        self.spans.append(record)
        return record

    def exit(self, record: list) -> None:
        record[_END] = perf_counter()
        self._local.stack.pop()

    @contextmanager
    def timed_interval(self) -> Iterator[None]:
        """The root span of one timed interval; switches recording on."""
        self.active = True
        record = self.enter(ROOT_SPAN)
        try:
            yield
        finally:
            self.exit(record)
            self.active = False

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` with a span (and ``target.probe``) around every call."""
        enter, leave, name = self.enter, self.exit, target.span_name
        probe, before = target.probe, target.before

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if probe is not None and before:
                probe(self, args, kwargs, None)
            record = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(record)
            if probe is not None and not before:
                probe(self, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ reporting

    def aggregate(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[Tuple[str, str], int]]:
        """Self seconds and call counts per span name, plus (parent, child)
        call counts — everything the per-layer metrics are made of."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        edges: Dict[Tuple[str, str], int] = defaultdict(int)
        for record in self.spans:
            duration = record[_END] - record[_START]
            self_s[record[_NAME]] += duration
            calls[record[_NAME]] += 1
            parent = record[_PARENT]
            if parent is not None:
                self_s[parent[_NAME]] -= duration
                edges[(parent[_NAME], record[_NAME])] += 1
        return self_s, calls, edges

    def total(self, name: str) -> float:
        """Summed (inclusive) duration of every span called ``name``."""
        return sum(r[_END] - r[_START] for r in self.spans if r[_NAME] == name)

    def dump(self, path: Path) -> None:
        """Write every span as JSON: name, start, end, parent, op, thread."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            {
                "id": i,
                "name": r[_NAME],
                "start": r[_START],
                "end": r[_END],
                "parent": None if r[_PARENT] is None else index[id(r[_PARENT])],
                "op": r[_OP],
                "thread": r[_THREAD],
            }
            for i, r in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counters": dict(self.counters)}))


# ------------------------------------------------------------ installation


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def _patch_method(tracer: Tracer, cls: type, target: Target) -> Tuple[object, str, object]:
    klass = _defining_class(cls, target.attr)
    original = vars(klass)[target.attr]
    if isinstance(original, (classmethod, staticmethod)):
        wrapped = type(original)(tracer.wrap(original.__func__, target))
    else:
        wrapped = tracer.wrap(original, target)
    setattr(klass, target.attr, wrapped)
    return klass, target.attr, original


def _patch_function(tracer: Tracer, target: Target) -> List[Tuple[object, str, object]]:
    original = getattr(importlib.import_module(target.module), target.attr)
    wrapped = tracer.wrap(original, target)
    patched = []
    # ``from x import f`` binds f in the importer: re-bind every such name.
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                patched.append((module, attr, original))
    return patched


@contextmanager
def installed(tracer: Tracer, targets: List[Tuple[Target, Optional[type]]]) -> Iterator[List[Tuple[object, str, object]]]:
    """Wrap every target for the ``with`` block, then put the originals back.

    ``targets`` pairs each :class:`Target` with an already-resolved class
    (for owners only known at run time, e.g. the default kernel's class) or
    ``None`` to look ``target.owner`` up in ``target.module``.  Yields the
    ``(holder, attribute, original)`` triples so a test can assert the
    restoration.
    """
    patched: List[Tuple[object, str, object]] = []
    seen = set()
    try:
        for target, cls in targets:
            if target.owner is None and cls is None:
                patched.extend(_patch_function(tracer, target))
                continue
            if cls is None:
                cls = getattr(importlib.import_module(target.module), target.owner)
            key = (_defining_class(cls, target.attr), target.attr)
            if key in seen:  # two subclasses sharing one inherited method
                continue
            seen.add(key)
            patched.append(_patch_method(tracer, cls, target))
        yield patched
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)
