"""Observability: phase tracing, per-scope counters, solver introspection.

A zero-dependency instrumentation layer threaded through every hot layer
of the stack — the trail core, the compile pipeline, the planner, the
batch engine, the circuit passes, the FPRAS — and surfaced by the CLI
(``repro stats``, ``count --trace``, ``batch --metrics-jsonl``) and the
benchmark harness.  Two primitives and their reports:

* a :func:`~repro.obs.spans.span` / :func:`~repro.obs.spans.capture`
  **tracing API** — monotonic-clock phase spans that nest into trees;
  a capture collects the trees and the :func:`incr` / :func:`event`
  counters of its scope, and is the one record of what ran
  (``Answer.stats`` and an engine job's ``meta['metrics']`` are its
  :meth:`~repro.obs.spans.capture.digest`; worker processes ship that
  digest home);
* **sinks** (:class:`~repro.obs.spans.JsonlSink`, or any callable) —
  every finished span and event streams to them as one JSON record;
* **report** helpers (:mod:`repro.obs.report`) rendering span trees,
  captures, a batch's per-job latencies and aggregated JSONL streams as
  text, all through one exact :func:`summarize`.

Nothing is kept process-wide, so two runs in one process never see each
other's numbers.  The layer is cheap enough to leave always-on:
instrumentation points sit at *phase* boundaries (one span per search,
per circuit pass, per job), never inside inner loops, and when disabled
(:func:`set_enabled`) every entry point degrades to a shared no-op — a
guard test asserts the end-to-end overhead on the counter's hot path
stays within tolerance.
"""

from repro.obs.report import (
    aggregate_metrics_jsonl,
    format_latency_summary,
    format_snapshot,
    quantile,
    render_span_tree,
    summarize,
    summarize_capture,
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
    remove_sink,
    reset_thread_state,
    set_enabled,
    span,
)

__all__ = [
    "JsonlSink",
    "Span",
    "add_sink",
    "capture",
    "emit_record",
    "enabled",
    "event",
    "incr",
    "remove_sink",
    "reset_thread_state",
    "set_enabled",
    "span",
    "aggregate_metrics_jsonl",
    "format_latency_summary",
    "format_snapshot",
    "quantile",
    "render_span_tree",
    "summarize",
    "summarize_capture",
    "summarize_latencies",
]
