"""Text reports over captures, results and streams: the human side of
`repro.obs`.

Everything here is pure aggregation and formatting over data the caller
already holds: span trees and counters from :func:`repro.obs.spans.capture`,
the results a batch just returned, and JSONL streams written by
:class:`repro.obs.spans.JsonlSink`.  One exact statistic,
:func:`summarize` (count, sum, min/max and nearest-rank p50/p90/p99),
serves all three.  The CLI (``repro stats``, ``count --trace``,
``batch``) and the benchmark harness render through these helpers so the
vocabulary stays in one place.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping

from repro.obs.spans import Span, capture

#: The stages of the per-job latency summary, in display order.
JOB_LATENCY_STAGES = ("queue", "execute", "total")


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


def summarize(values: Iterable[Any]) -> dict[str, Any]:
    """Exact digest of ``values``: count, sum, min/max, p50/p90/p99
    (``{"count": 0, "sum": 0}`` when there are none)."""
    ordered = sorted(values)
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


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return "%.2fs" % seconds
    if seconds >= 0.001:
        return "%.1fms" % (seconds * 1e3)
    return "%.0fus" % (seconds * 1e6)


def render_span_tree(
    roots: "Span | Iterable[Span]",
    min_fraction: float = 0.0,
) -> str:
    """Render span trees as an indented phase tree with timings.

    Each line shows the span name, its wall seconds, and its share of the
    root's wall time; ``fields`` the instrumentation attached (decision
    counts, node counts, ...) trail the line.  Spans below
    ``min_fraction`` of the root are elided (their time still shows in
    the parent).
    """
    if isinstance(roots, Span):
        roots = [roots]
    lines: list[str] = []
    for root in roots:
        total = root.seconds or 1e-12
        for node, depth in root.walk():
            if node.seconds < min_fraction * total and depth > 0:
                continue
            share = 100.0 * node.seconds / total
            extras = " ".join(
                "%s=%s" % (key, value) for key, value in node.fields.items()
            )
            lines.append(
                "%s%-*s %9s %5.1f%%%s"
                % (
                    "  " * depth,
                    max(1, 36 - 2 * depth),
                    node.name,
                    _fmt_seconds(node.seconds),
                    share,
                    "  [%s]" % extras if extras else "",
                )
            )
    return "\n".join(lines)


def summarize_latencies(results: Iterable[Any]) -> dict[str, Any]:
    """Per-job latency of one batch's results, per stage.

    Returns ``{"queue": summary, "execute": summary, "total": summary}``
    of :func:`summarize` digests over every result: *execute* is the
    job's own ``seconds``, *queue* its ``meta['metrics']['queue_seconds']``
    (0 for a job the parent solved or served from the memo), *total*
    their sum.
    """
    execute, queue = [], []
    for result in results:
        execute.append(result.seconds)
        queue.append(
            (result.meta.get("metrics") or {}).get("queue_seconds", 0.0)
        )
    return {
        "queue": summarize(queue),
        "execute": summarize(execute),
        "total": summarize(q + e for q, e in zip(queue, execute)),
    }


def summarize_capture(captured: capture) -> dict[str, Any]:
    """A capture as ``{"counters": {name: n}, "spans": {name: summary}}``:
    its counters, and a :func:`summarize` of each span name's durations
    across every captured tree (the ``repro stats --db`` report)."""
    durations: dict[str, list[float]] = {}
    for root in captured.roots:
        for node, _depth in root.walk():
            durations.setdefault(node.name, []).append(node.seconds)
    return {
        "counters": dict(sorted(captured.counters.items())),
        "spans": {
            name: summarize(values)
            for name, values in sorted(durations.items())
        },
    }


def format_latency_summary(
    latencies: Mapping[str, Mapping[str, Any]],
    cache_stats: Mapping[str, Any] | None = None,
) -> str:
    """The ``repro batch`` closing table: per-job latency percentiles per
    stage plus cache hit rates, as aligned plain text."""
    lines = [
        "%-8s %6s %9s %9s %9s %9s"
        % ("stage", "jobs", "p50", "p90", "p99", "total")
    ]
    for stage in JOB_LATENCY_STAGES:
        summary = latencies.get(stage) or {}
        count = summary.get("count", 0)
        if not count:
            lines.append("%-8s %6d %9s %9s %9s %9s" % (stage, 0, "-", "-", "-", "-"))
            continue
        lines.append(
            "%-8s %6d %9s %9s %9s %9s"
            % (
                stage,
                count,
                _fmt_seconds(summary["p50"]),
                _fmt_seconds(summary["p90"]),
                _fmt_seconds(summary["p99"]),
                _fmt_seconds(summary["sum"]),
            )
        )
    if cache_stats:
        lines.append(
            "cache: memo %d hit / %d miss (rate %.2f), "
            "circuits %d stored / %d B, %d hit / %d miss, %d evicted"
            % (
                cache_stats.get("hits", 0),
                cache_stats.get("misses", 0),
                cache_stats.get("hit_rate", 0.0),
                cache_stats.get("circuits", 0),
                cache_stats.get("circuit_bytes", 0),
                cache_stats.get("circuit_hits", 0),
                cache_stats.get("circuit_misses", 0),
                cache_stats.get("circuit_evictions", 0),
            )
        )
    return "\n".join(lines)


def format_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Render ``{"counters": {name: n}, "spans": {name: summary}}`` (a
    :func:`summarize_capture`, or an aggregated stream's events and
    spans) as a sectioned text report."""
    lines: list[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append("  %-*s %s" % (width, name, value))
    spans = {
        name: summary
        for name, summary in (snapshot.get("spans") or {}).items()
        if summary.get("count")
    }
    if spans:
        lines.append("spans:")
        width = max(len(name) for name in spans)
        for name, summary in spans.items():
            lines.append(
                "  %-*s n=%-6d sum=%-9s p50=%-9s p99=%s"
                % (
                    width,
                    name,
                    summary["count"],
                    _fmt_seconds(summary["sum"]),
                    _fmt_seconds(summary["p50"]),
                    _fmt_seconds(summary["p99"]),
                )
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def aggregate_metrics_jsonl(path: str) -> dict[str, Any]:
    """Aggregate a :class:`JsonlSink` stream back into summary form.

    Reads one JSON record per line and returns::

        {"records": N,
         "spans": {name: {count, sum, min, max, p50, p90, p99}},
         "events": {name: count}}

    Span summaries are exact: :func:`summarize` over every record's
    seconds.
    """
    span_values: dict[str, list[float]] = {}
    events: dict[str, int] = {}
    records = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            records += 1
            kind = record.get("type")
            name = record.get("name", "?")
            if kind == "span":
                span_values.setdefault(name, []).append(
                    float(record.get("seconds", 0.0))
                )
            elif kind == "event":
                events[name] = events.get(name, 0) + 1
    return {
        "records": records,
        "spans": {
            name: summarize(values)
            for name, values in sorted(span_values.items())
        },
        "events": dict(sorted(events.items())),
    }
