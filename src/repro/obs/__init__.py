"""Observability: structured metrics, phase tracing, solver introspection.

A zero-dependency instrumentation layer threaded through every hot layer
of the stack — the trail core, the compile pipeline, the planner, the
batch engine, the circuit passes — and surfaced by the CLI (``repro
stats``, ``count --trace``, ``batch --metrics-jsonl``) and the benchmark
harness.  Three cooperating pieces:

* a :class:`~repro.obs.metrics.Metrics` **registry** — named counters,
  gauges and histograms (exact quantiles), with a process-wide default
  (:func:`default_registry`) and a compact :meth:`~Metrics.snapshot`;
  worker processes ship each job's :meth:`capture.digest` instead;
* a :func:`~repro.obs.spans.span` / :func:`~repro.obs.spans.capture`
  **tracing API** — monotonic-clock phase spans that nest into trees,
  feed their durations into the registry's histograms, and stream one
  event per span to attached sinks (:class:`~repro.obs.spans.JsonlSink`);
* **report** helpers (:mod:`repro.obs.report`) rendering span trees,
  registry snapshots and batch latency summaries as text.

The layer is cheap enough to leave always-on: instrumentation points sit
at *phase* boundaries (one span per search, per circuit pass, per job),
never inside inner loops, and when disabled (:func:`set_enabled`) every
entry point degrades to a shared no-op — a guard test asserts the
end-to-end overhead on the counter's hot path stays within tolerance.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    default_registry,
    quantile,
)
from repro.obs.report import (
    aggregate_metrics_jsonl,
    format_latency_summary,
    format_snapshot,
    render_span_tree,
    summarize_latencies,
)
from repro.obs.spans import (
    JsonlSink,
    Span,
    add_sink,
    capture,
    emit_record,
    enabled,
    event,
    incr,
    observe,
    remove_sink,
    reset_thread_state,
    set_enabled,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "default_registry",
    "quantile",
    "JsonlSink",
    "Span",
    "add_sink",
    "capture",
    "emit_record",
    "enabled",
    "event",
    "incr",
    "observe",
    "remove_sink",
    "reset_thread_state",
    "set_enabled",
    "span",
    "aggregate_metrics_jsonl",
    "format_latency_summary",
    "format_snapshot",
    "render_span_tree",
    "summarize_latencies",
]
