"""Phase spans: monotonic-clock timing that nests, records, and streams.

The one instrumentation verb the rest of the stack uses::

    with span("compile.search", variables=cnf.num_variables):
        ...

A finished span does three things, each only when someone is listening:

* **observes** its duration into the default registry's histogram of the
  same name (always, while the layer is enabled) — this is what makes
  ``repro stats`` and the harness phase breakdowns possible without any
  caller bookkeeping;
* **attaches** itself to the enclosing span, building a tree; a
  :func:`capture` context collects the finished root trees (and every
  counter bumped meanwhile), which is how ``repro count --trace`` prints
  a nested phase tree and how the engine builds per-job metrics;
* **streams** one event to every attached sink (``batch
  --metrics-jsonl``, the harness's CI artifact) — a JSON record per span,
  with its path in the tree, its wall seconds, and the caller's fields.

Span state is thread-local, so concurrent threads trace independently;
worker *processes* start fresh and ship their capture home in
``JobResult.meta['metrics']`` (see :mod:`repro.engine.jobs`).

The whole layer can be switched off (:func:`set_enabled`): every entry
point then returns a shared no-op — one global check, no allocation, no
clock read — which is the fast path the overhead guard test measures.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Iterator, Mapping

from repro.obs.metrics import Metrics, default_registry

_perf_counter = time.perf_counter

#: Process-wide switch; flipped by :func:`set_enabled`.
_ENABLED = True

_TLS = threading.local()

_SINKS: list["Callable[[dict], None] | JsonlSink"] = []
_SINK_LOCK = threading.Lock()


def enabled() -> bool:
    """Whether the observability layer is live in this process."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Switch the layer on or off; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def _stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


def _captures() -> list:
    captures = getattr(_TLS, "captures", None)
    if captures is None:
        captures = _TLS.captures = []
    return captures


def reset_thread_state() -> None:
    """Forget this thread's active spans and captures.

    A forked worker starts with a copy of the forking thread's state — if
    the parent forked mid-span (the batch engine always does), new spans
    in the worker would attach to that phantom parent instead of the
    worker's own capture.  Worker entry points call this first.
    """
    _TLS.stack = []
    _TLS.captures = []


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Span:
    """One finished (or running) phase: name, wall seconds, children."""

    __slots__ = ("name", "seconds", "fields", "children")

    def __init__(self, name: str, fields: dict[str, Any]) -> None:
        self.name = name
        self.seconds = 0.0
        self.fields = fields
        self.children: list["Span"] = []

    @property
    def self_seconds(self) -> float:
        """Wall time not covered by child spans (non-negative)."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self, depth: int = 0) -> "Iterator[tuple[Span, int]]":
        """Every span of the subtree with its depth, parents first."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready nested form (the ``--json`` trace payload)."""
        record: dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.seconds, 6),
        }
        if self.fields:
            record.update(self.fields)
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    def __repr__(self) -> str:
        return "Span(%r, %.6fs, %d children)" % (
            self.name, self.seconds, len(self.children),
        )


class _NullSpan:
    """The disabled fast path: a shared, stateless context manager."""

    __slots__ = ()

    @property
    def fields(self) -> dict[str, Any]:
        """A fresh dict per access, so annotating a disabled span is a no-op."""
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """The live span context manager (class-based: cheaper than a
    generator, and exception-safe by construction — ``__exit__`` always
    pops what ``__enter__`` pushed)."""

    __slots__ = ("_span", "_registry", "_started")

    def __init__(
        self, name: str, registry: Metrics | None, fields: dict[str, Any]
    ) -> None:
        self._span = Span(name, fields)
        self._registry = registry

    def __enter__(self) -> Span:
        _stack().append(self._span)
        self._started = _perf_counter()
        return self._span

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        seconds = _perf_counter() - self._started
        span_record = self._span
        span_record.seconds = seconds
        if exc_type is not None:
            span_record.fields["error"] = exc_type.__name__
        stack = _stack()
        stack.pop()
        if stack:
            stack[-1].children.append(span_record)
        else:
            for active in _captures():
                active.roots.append(span_record)
        registry = self._registry
        if registry is None:
            registry = default_registry()
        registry.histogram(span_record.name).observe(seconds)
        if _SINKS:
            record = {
                "type": "span",
                "name": span_record.name,
                "path": "/".join(
                    [frame.name for frame in stack] + [span_record.name]
                ),
                "depth": len(stack),
                "seconds": round(seconds, 9),
            }
            if span_record.fields:
                record.update(span_record.fields)
            _emit(record)
        return False


def span(name: str, registry: Metrics | None = None, **fields: Any):
    """Time a phase: a context manager yielding the live :class:`Span`.

    ``fields`` annotate the span (and its sink event); ``registry``
    overrides the default registry the duration is observed into.  When
    the layer is disabled this returns a shared no-op.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _SpanContext(name, registry, fields)


# ---------------------------------------------------------------------------
# counters and events through the same gate
# ---------------------------------------------------------------------------


def incr(name: str, amount: int | float = 1) -> None:
    """Bump a counter on the default registry and every active capture."""
    if not _ENABLED:
        return
    default_registry().counter(name).inc(amount)
    for active in _captures():
        active.counters[name] = active.counters.get(name, 0) + amount


def observe(name: str, value: Any) -> None:
    """Observe a value into the default registry's histogram ``name``."""
    if not _ENABLED:
        return
    default_registry().histogram(name).observe(value)


def event(name: str, **fields: Any) -> None:
    """A structured, non-timing occurrence (e.g. one planner decision):
    counted on the default registry, streamed to sinks with its fields."""
    if not _ENABLED:
        return
    default_registry().counter(name).inc()
    for active in _captures():
        active.counters[name] = active.counters.get(name, 0) + 1
    if _SINKS:
        record = {"type": "event", "name": name}
        record.update(fields)
        _emit(record)


# ---------------------------------------------------------------------------
# captures
# ---------------------------------------------------------------------------


class capture:
    """Collect every root span tree and counter bump of a scope.

    The engine wraps each job solve in one of these to build the job's
    ``meta['metrics']``; the CLI wraps a whole solve to print ``--trace``
    trees; the harness wraps each tracked path for its phase breakdown.
    Captures nest (each sees everything inside its own scope) and are
    thread-local.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.counters: dict[str, int | float] = {}

    def __enter__(self) -> "capture":
        _captures().append(self)
        return self

    def __exit__(self, *_exc_info: object) -> bool:
        active = _captures()
        if self in active:
            active.remove(self)
        return False

    def phase_totals(self) -> dict[str, float]:
        """Total *inclusive* seconds per span name across all trees."""
        totals: dict[str, float] = {}
        for root in self.roots:
            for node, _depth in root.walk():
                totals[node.name] = totals.get(node.name, 0.0) + node.seconds
        return totals

    def self_totals(self) -> dict[str, float]:
        """Total *exclusive* seconds per span name (children subtracted) —
        sums across names reconcile with the roots' wall time."""
        totals: dict[str, float] = {}
        for root in self.roots:
            for node, _depth in root.walk():
                totals[node.name] = (
                    totals.get(node.name, 0.0) + node.self_seconds
                )
        return totals

    def digest(self) -> dict[str, Any]:
        """The compact, picklable digest of the scope: inclusive seconds
        per phase plus counters, ``{"phases": {name: seconds},
        "counters": {name: n}}`` — either key omitted when empty, ``{}``
        when nothing was captured (observability disabled).

        This is ``Answer.stats`` and an engine job's ``meta['metrics']``
        (the schema the JSONL result format round-trips).
        """
        digest: dict[str, Any] = {}
        phases = self.phase_totals()
        if phases:
            digest["phases"] = {
                name: round(seconds, 6)
                for name, seconds in sorted(phases.items())
            }
        if self.counters:
            digest["counters"] = dict(sorted(self.counters.items()))
        return digest

    @property
    def seconds(self) -> float:
        """Total wall time of the captured root spans."""
        return sum(root.seconds for root in self.roots)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


def _emit(record: dict) -> None:
    with _SINK_LOCK:
        sinks = list(_SINKS)
    for sink in sinks:
        sink(record) if callable(sink) else sink.emit(record)


def emit_record(record: Mapping[str, Any]) -> None:
    """Deliver one raw record to the attached sinks.

    For spans that finished somewhere the sinks could not see — a worker
    process ships its capture home and the parent re-emits it here, so a
    ``--metrics-jsonl`` stream covers pool jobs too."""
    if not _ENABLED or not _SINKS:
        return
    _emit(dict(record))


def add_sink(sink: "Callable[[dict], None] | JsonlSink") -> None:
    """Attach a sink; every finished span / event is delivered to it."""
    with _SINK_LOCK:
        _SINKS.append(sink)


def remove_sink(sink: "Callable[[dict], None] | JsonlSink") -> None:
    """Detach a sink (idempotent)."""
    with _SINK_LOCK:
        if sink in _SINKS:
            _SINKS.remove(sink)


class JsonlSink:
    """A sink writing one JSON line per record (``--metrics-jsonl``)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.records = 0

    def emit(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, default=str)
        with self._lock:
            self._handle.write(line + "\n")
            self.records += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "JsonlSink":
        add_sink(self)
        return self

    def __exit__(self, *_exc_info: object) -> None:
        remove_sink(self)
        self.close()
