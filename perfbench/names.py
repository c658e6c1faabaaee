"""Metric names and units: the vocabulary of ``BENCHMARK.json``.

End-to-end metrics are measured with tracing off; per-layer metrics come
from the separate traced pass.  A per-layer metric whose layer a workload
never reaches (the engine on the ``solve_*`` streams, say) reads 0.
"""

END_TO_END = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Methods the planner can choose, one ``planner.chosen.<method>`` count each.
METHODS = (
    "single-occurrence", "codd", "uniform", "uniform-unary", "delta",
    "dpdb", "lineage", "circuit", "brute",
)

PER_LAYER = {
    # exact.planner
    "planner.plan_ms_p50": "ms",
    "planner.plan_share": "frac",
    **{"planner.chosen.%s" % method: "count" for method in METHODS},
    "planner.misroute_count": "count",
    # the split of a solve: plan + run + other
    "split.run_share": "frac",
    "split.other_share": "frac",
    "split.max_residual_frac": "frac",
    # exact closed forms and exact.brute
    "closed_form.run_ms_p50": "ms",
    "brute.valuations_per_s": "1/s",
    # compile.encode / compile.lineage
    "encode.ms": "ms",
    "encode.clauses": "count",
    "encode.variables": "count",
    # compile.ordering / dpdb probe
    "ordering.ms": "ms",
    "dpdb.probe_ms": "ms",
    "dpdb.width": "count",
    # compile.sharpsat / trail / preprocess
    "search.ms": "ms",
    "search.decisions": "count",
    "search.decisions_per_s": "1/s",
    "search.cache_hit_rate": "frac",
    # compile.dpdb
    "dpdb.run_ms": "ms",
    "dpdb.rows": "count",
    # compile.circuit / ddnnf_trace
    "circuit.compile_ms": "ms",
    "circuit.nodes": "count",
    "circuit.pass_ms_p50": "ms",
    "circuit.sweep_rows_per_s": "1/s",
    "circuit.condition_ms_p50": "ms",
    # compile.serialize
    "artifact.bytes": "count",
    "artifact.install_ms": "ms",
    # engine.fingerprint / cache / incremental
    "fingerprint.ms_p50": "ms",
    "engine.overhead_ms_p50": "ms",
    "cache.hit_rate": "frac",
    "cache.circuit_hits": "count",
    "cache.parent_chain_hits": "count",
    # engine.pool / jobs
    "pool.warm_s": "s",
    "pool.queue_ms_p50": "ms",
    "pool.execute_s_sum": "s",
    # approx.fpras / events
    "approx.samples_per_s": "1/s",
    "approx.run_s": "s",
    # circuit_session reads and updates
    "session.read_p50_ms": "ms",
    "session.update_p50_ms": "ms",
    # failures, by kind
    "failed_frac": "frac",
    "failed.errors": "count",
    "failed.timeouts": "count",
    "failed.mismatches": "count",
    # cost of tracing itself
    "trace.overhead_s": "s",
}
