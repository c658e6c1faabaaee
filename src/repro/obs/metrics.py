"""The metrics registry: named counters, gauges, exact-quantile histograms.

A :class:`Metrics` registry is a flat namespace of instruments created on
first use (``registry.counter("sharpsat.decisions")``), so instrumented
code never declares anything up front.  Design constraints, in order:

* **cheap** — instruments are ``__slots__`` objects; a counter bump is a
  lock-guarded int add, a histogram observation a list append.  The
  instrumentation points sit at phase boundaries (per search, per job,
  per circuit pass), so even the lock is paid thousands of times per
  second at most, never per literal;
* **exact** — histograms keep every observation, so :func:`quantile` is
  the true order statistic (nearest-rank), not a bucket approximation.
  The workloads observed (per-job latencies, per-phase timings) are
  bounded by job counts, so exactness costs memory proportional to work
  already done;
* **compact** — :meth:`Metrics.snapshot` is the JSON-ready summary
  (counts, sums, p50/p90/p99) for reports.  Worker processes do not ship
  registries: each engine job returns its capture's
  :meth:`~repro.obs.spans.capture.digest` (phase seconds and counters) in
  ``JobResult.meta``.

The process-wide default registry (:func:`default_registry`) is what the
:func:`repro.obs.spans.span` API records into; tests that need isolation
construct their own :class:`Metrics` and pass it explicitly.
"""

from __future__ import annotations

import math
import threading
from typing import Any


def quantile(values: "list | tuple", q: float) -> Any:
    """Exact nearest-rank quantile of ``values`` (which must be sorted).

    ``q`` in ``[0, 1]``; ``q=0`` is the minimum, ``q=1`` the maximum, and
    generally the smallest element whose rank covers a ``q`` fraction of
    the data — the classic nearest-rank definition, exact by construction.
    """
    if not values:
        raise ValueError("quantile of no observations")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile fraction must be in [0, 1]")
    rank = max(1, math.ceil(q * len(values)))
    return values[rank - 1]


class Counter:
    """A monotonically increasing named total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """A named last-written value (pool size, warm time, hit rate)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Any = None

    def set(self, value: Any) -> None:
        self._value = value

    @property
    def value(self) -> Any:
        return self._value


class Histogram:
    """Every observation, kept — quantiles are exact order statistics."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list = []
        self._lock = threading.Lock()

    def observe(self, value: Any) -> None:
        with self._lock:
            self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self):
        return sum(self._values)

    def values(self) -> list:
        """A copy of the raw observations, in arrival order."""
        return list(self._values)

    def quantile(self, q: float):
        """Exact nearest-rank quantile over everything observed so far."""
        return quantile(sorted(self._values), q)

    def summary(self) -> dict[str, Any]:
        """Compact JSON-ready digest: count, sum, min/max, p50/p90/p99."""
        ordered = sorted(self._values)
        if not ordered:
            return {"count": 0, "sum": 0}
        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": quantile(ordered, 0.50),
            "p90": quantile(ordered, 0.90),
            "p99": quantile(ordered, 0.99),
        }


class Metrics:
    """A registry of instruments, created on first use by name.

    A name identifies exactly one instrument; asking for an existing name
    as a different kind raises (one vocabulary, no shadowing).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------

    def _claim(self, name: str, table: dict) -> None:
        for kind, other in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other is not table and name in other:
                raise ValueError(
                    "metric name %r already registered as a %s" % (name, kind)
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    self._claim(name, self._counters)
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    self._claim(name, self._gauges)
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    self._claim(name, self._histograms)
                    instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Compact JSON-ready summary of every instrument."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide registry the span API and the flush helpers feed.
_DEFAULT = Metrics()


def default_registry() -> Metrics:
    """The process-wide default registry (always the same object)."""
    return _DEFAULT
