"""The traced pass: each question split by layer, timed from outside ``src/``.

The ``solve_*`` streams call :func:`repro.exact.planner.plan`, then
:func:`repro.exact.planner.run` — the two calls ``solve()`` makes — so
each question splits into plan + run + ``other``, where ``other`` is the
driver's own time between and around the two calls.  The run is
attributed to the module of the chosen method.  The engine workloads
replay their jobs through a fresh engine and read its public ``stats()``.

For deeper numbers, the first :data:`LAYER_SAMPLE` instances of the run
(a fixed choice, so work counts repeat exactly) go through each layer's
public entry point on a relabelled twin — a fresh database value, so no
memo from the measured calls is reused.  Those numbers are reported
beside the split, never added into it.  Times are medians per call;
work counts are sums over the sample.
"""

from __future__ import annotations

import random
import statistics
import time

from session import LIMITS, QuestionTimeout, limit

#: Instances per workload that go through every layer's entry point.
LAYER_SAMPLE = {
    "solve_tractable": 8, "solve_hard": 16, "batch_mixed": 8,
    "circuit_session": 3,
}
#: Limit on one deep layer call; a call past it is left out.
LAYER_LIMIT = 1.0
SWEEP_ROWS = 200
APPROX_SAMPLES = 500
BRUTE_LIMIT = 20_000
#: A choice is a misroute when another applicable method runs more than
#: this many times faster; choices faster than ``MISROUTE_FLOOR`` seconds
#: are not examined.
MISROUTE_FACTOR = 10.0
MISROUTE_FLOOR = 0.01

METHOD_MODULE = {
    "single-occurrence": "exact.val_nonuniform",
    "codd": "exact.val_codd",
    "uniform": "exact.val_uniform",
    "uniform-unary": "exact.comp_uniform",
    "brute": "exact.brute",
    "lineage": "compile.sharpsat",
    "dpdb": "compile.dpdb",
    "circuit": "compile.circuit",
    "delta": "compile.circuit",
}
CLOSED_FORMS = ("single-occurrence", "codd", "uniform", "uniform-unary")


def median(values, default=0.0):
    return statistics.median(values) if values else default


def timed(function, *args):
    started = time.perf_counter()
    value = function(*args)
    return value, time.perf_counter() - started


# ---------------------------------------------------------------------------
# the solve streams: plan + run + other
# ---------------------------------------------------------------------------


def split_question(question, chosen_counts, module_ms, rows):
    """Answer one question as ``solve()`` does, timing each call."""
    from repro.exact import planner
    from repro.obs import capture

    t0 = time.perf_counter()
    with limit(LIMITS["solve_hard"]):
        t1 = time.perf_counter()
        built = planner.plan(question.problem, question.db, question.query)
        t2 = time.perf_counter()
        # What solve() wraps around the run: a capture and its digest.
        with capture() as captured:
            t3 = time.perf_counter()
            answer = planner.run(
                question.problem, built.chosen, question.db, question.query,
                budget=2_000_000,
            )
            t4 = time.perf_counter()
        captured.phase_totals()
        dict(captured.counters)
    t5 = time.perf_counter()
    plan_s, run_s = t2 - t1, t4 - t3
    other_s = (t1 - t0) + (t3 - t2) + (t5 - t4)
    wall = t5 - t0
    chosen_counts[built.chosen] = chosen_counts.get(built.chosen, 0) + 1
    module = METHOD_MODULE.get(built.chosen, built.chosen)
    module_ms.setdefault(module, []).append(run_s * 1e3)
    rows.append({
        "plan": plan_s, "run": run_s, "other": other_s, "wall": wall,
        "method": built.chosen,
    })
    return built, answer, run_s


def misrouted(problem, db, query, built, run_s) -> bool:
    """True when another applicable method answers more than
    :data:`MISROUTE_FACTOR` times faster than the chosen one."""
    from repro.exact import planner

    if run_s < MISROUTE_FLOOR:
        return False
    for item in built.considered:
        if not item.applicable or item.method == built.chosen:
            continue
        try:
            with limit(run_s / MISROUTE_FACTOR):
                planner.run(problem, item.method, db, query, budget=2_000_000)
            return True
        except QuestionTimeout:
            continue
        except Exception:  # noqa: BLE001 - a method that cannot answer is no route
            continue
    return False


def traced_solve(workload, state, count):
    """Split the first ``count`` questions; answers were checked by the
    measured pass, so only the split's self-check can fail here."""
    questions = state["questions"][:count]
    chosen, module_ms, rows = {}, {}, []
    misroutes = 0
    traced_wall = 0.0
    for question in questions:
        try:
            built, _answer, run_s = split_question(question, chosen, module_ms, rows)
        except QuestionTimeout:
            traced_wall += LIMITS[workload]
            continue
        traced_wall += rows[-1]["wall"]
        misroutes += misrouted(
            question.problem, question.db, question.query, built, run_s
        )
    plan_total = sum(row["plan"] for row in rows)
    run_total = sum(row["run"] for row in rows)
    other_total = sum(row["other"] for row in rows)
    wall_total = sum(row["wall"] for row in rows)
    residual = max(
        (abs(row["wall"] - row["plan"] - row["run"] - row["other"]) / row["wall"]
         for row in rows),
        default=0.0,
    )
    metrics = {
        "planner.plan_ms_p50": median([row["plan"] * 1e3 for row in rows]),
        "planner.plan_share": plan_total / wall_total,
        "planner.misroute_count": misroutes,
        "split.run_share": run_total / wall_total,
        "split.other_share": other_total / wall_total,
        "split.max_residual_frac": residual,
        "closed_form.run_ms_p50": median(
            [row["run"] * 1e3 for row in rows if row["method"] in CLOSED_FORMS]
        ),
    }
    for method, number in chosen.items():
        metrics["planner.chosen.%s" % method] = number
    lines = [
        "# split %s: %d questions, wall %.3f s = plan %.3f s (%.1f%%) + run "
        "%.3f s (%.1f%%) + other %.4f s (%.2f%%); max residual %.2f%% (limit 5%%)"
        % (
            workload, len(rows), wall_total, plan_total,
            100 * plan_total / wall_total, run_total,
            100 * run_total / wall_total, other_total,
            100 * other_total / wall_total, 100 * residual,
        )
    ]
    for module, values in sorted(module_ms.items()):
        lines.append(
            "#   run[%s]: %d questions, %.3f s, p50 %.3f ms"
            % (module, len(values), sum(values) / 1e3, median(values))
        )
    return metrics, lines, traced_wall, residual <= 0.05


# ---------------------------------------------------------------------------
# the engine workloads
# ---------------------------------------------------------------------------


def traced_session(state, count):
    from repro.engine import BatchEngine
    from repro.engine.fingerprint import fingerprint_job
    from repro.obs import capture

    questions = state["questions"][:count]
    engine = BatchEngine(workers=0)
    overhead, fingerprint_ms = [], []
    chosen: dict = {}
    wall = 0.0
    for question in questions:
        _key, seconds = timed(fingerprint_job, question.job)
        fingerprint_ms.append(seconds * 1e3)
        with capture() as captured:
            started = time.perf_counter()
            result = engine.run([question.job])[0]
            elapsed = time.perf_counter() - started
        wall += elapsed
        overhead.append((elapsed - result.seconds) * 1e3)
        for name, value in captured.counters.items():
            if name.startswith("planner.chosen."):
                chosen[name] = chosen.get(name, 0) + value
    stats = engine.cache.stats()
    metrics = {
        "fingerprint.ms_p50": median(fingerprint_ms),
        "engine.overhead_ms_p50": median(overhead),
        "cache.hit_rate": stats["hit_rate"],
        "cache.circuit_hits": stats["circuit_hits"],
        "cache.parent_chain_hits": stats["parent_chain_hits"],
        **chosen,
    }
    lines = [
        "# engine circuit_session: %d single-job runs, %.3f s; overhead p50 "
        "%.3f ms; fingerprint p50 %.3f ms; cache %s"
        % (len(questions), wall, metrics["engine.overhead_ms_p50"],
           metrics["fingerprint.ms_p50"], stats)
    ]
    return metrics, lines, wall


def traced_batch(state, count):
    from repro.engine import CountCache
    from repro.engine.fingerprint import fingerprint_job
    from repro.obs import capture

    engine = state["engine"]
    batches = [items[0] for items in state["passes"][0]][:count]
    wall = 0.0
    queue_ms, pool_execute = [], 0.0
    hits = circuit_hits = chain_hits = lookups = 0
    chosen: dict = {}
    fingerprint_ms = [timed(fingerprint_job, job)[1] * 1e3 for job in batches[0]]
    for batch in batches:
        engine.cache = CountCache()
        with capture() as captured:
            results, seconds = timed(engine.run, batch)
        wall += seconds
        for result in results:
            queue = (result.meta.get("metrics") or {}).get("queue_seconds")
            if queue is not None:
                queue_ms.append(queue * 1e3)
                pool_execute += result.seconds
        stats = engine.cache.stats()
        hits += stats["hits"]
        lookups += stats["hits"] + stats["misses"]
        circuit_hits += stats["circuit_hits"]
        chain_hits += stats["parent_chain_hits"]
        for name, value in captured.counters.items():
            if name.startswith("planner.chosen."):
                chosen[name] = chosen.get(name, 0) + value
    engine.close()
    metrics = {
        "fingerprint.ms_p50": median(fingerprint_ms),
        "cache.hit_rate": hits / max(lookups, 1),
        "cache.circuit_hits": circuit_hits,
        "cache.parent_chain_hits": chain_hits,
        "pool.warm_s": state["warm_s"],
        "pool.queue_ms_p50": median(queue_ms),
        "pool.execute_s_sum": pool_execute,
        **chosen,
    }
    lines = [
        "# engine batch_mixed: %d batches, %.3f s; pool warm %.4f s, queue "
        "p50 %.3f ms over %d pool jobs, execute sum %.3f s; memo hit rate %.3f"
        % (len(batches), wall, state["warm_s"], metrics["pool.queue_ms_p50"],
           len(queue_ms), pool_execute, metrics["cache.hit_rate"])
    ]
    return metrics, lines, wall


# ---------------------------------------------------------------------------
# deep calls: each layer's public entry point on a relabelled twin
# ---------------------------------------------------------------------------


def sample_instances(workload, state):
    """The fixed deep-call sample: ``(problem, db, query)`` triples."""
    from repro.engine.fingerprint import fingerprint_job

    size = LAYER_SAMPLE[workload]
    if workload in ("solve_tractable", "solve_hard"):
        return [(q.problem, q.db, q.query) for q in state["questions"][:size]]
    if workload == "circuit_session":
        compiles = [q for q in state["questions"] if q.category == "compile"]
        return [(q.problem, q.db, q.query) for q in compiles[:size]]
    picked, seen = [], set()
    for job in state["passes"][0][0][0]:
        if job.problem not in ("val", "comp"):
            continue
        key = fingerprint_job(job)
        if key not in seen:
            seen.add(key)
            picked.append((job.problem, job.db, job.query))
    # Spread the sample over every family of the batch.
    step = max(1, len(picked) // size)
    return picked[::step][:size]


class Deep:
    """Collects the deep-call numbers of one workload."""

    def __init__(self):
        self.ms: dict[str, list] = {}
        self.sums: dict[str, float] = {}
        self.widths: list[int] = []
        self.skipped = 0

    def add_ms(self, name, seconds):
        self.ms.setdefault(name, []).append(seconds * 1e3)

    def add(self, name, amount):
        self.sums[name] = self.sums.get(name, 0) + amount

    def call(self, function, *args):
        """Run one deep call under :data:`LAYER_LIMIT`; ``None`` if it failed."""
        try:
            with limit(LAYER_LIMIT):
                return timed(function, *args)
        except (QuestionTimeout, Exception):  # noqa: BLE001 - left out, counted
            self.skipped += 1
            return None


def deep_calls(problem, db, query, deep: Deep, rng) -> None:
    from repro.approx.fpras import KarpLubyEstimator
    from repro.compile.backend import (
        CompletionCircuit,
        ValuationCircuit,
        artifact_from_bytes,
    )
    from repro.compile.dpdb import DPDB_HARD_WIDTH_CAP, count_models_dpdb, dpdb_probe
    from repro.compile.encode import compile_completion_cnf, compile_valuation_cnf
    from repro.compile.ordering import branching_order
    from repro.compile.sharpsat import ModelCounter
    from repro.db.deltas import ResolveNull
    from repro.db.valuation import count_total_valuations
    from repro.engine import BatchEngine, CountJob
    from repro.exact import brute

    from workloads import relabel

    twin, _mapping = relabel(db, "layer")
    val = problem == "val"

    done = deep.call(
        compile_valuation_cnf if val else compile_completion_cnf, twin, query
    )
    if done:
        encoding, seconds = done
        deep.add_ms("encode.ms", seconds)
        deep.add("encode.clauses", len(encoding.cnf))
        deep.add("encode.variables", encoding.cnf.num_variables)
        done = deep.call(branching_order, encoding.cnf)
        if done:
            deep.add_ms("ordering.ms", done[1])

        def search():
            counter = ModelCounter(
                encoding.cnf, projection=None if val else encoding.projection
            )
            counter.count()
            return counter.stats()

        done = deep.call(search)
        if done:
            stats, seconds = done
            deep.add_ms("search.ms", seconds)
            deep.add("search.seconds", seconds)
            deep.add("search.decisions", stats["decisions"])
            deep.add("search.cache_hits", stats["cache_hits"])
            deep.add("search.cache_entries", stats["cache_entries"])

    done = deep.call(dpdb_probe, "val" if val else "comp", twin, query)
    if done:
        probe, seconds = done
        deep.add_ms("dpdb.probe_ms", seconds)
        if probe.width is not None:
            deep.widths.append(probe.width)
        # Above the hard cap the DP's 2^width tables would not fit; the
        # program hands those instances to the trail search instead.
        if probe.ok and probe.width is not None and probe.width <= DPDB_HARD_WIDTH_CAP:
            stats: dict = {}
            done = deep.call(
                count_models_dpdb, probe.encoding.cnf,
                probe.encoding.projection if not val else None, None, None, stats,
            )
            if done:
                deep.add_ms("dpdb.run_ms", done[1])
                deep.add("dpdb.rows", stats.get("rows", 0))

    done = deep.call(
        ValuationCircuit if val else CompletionCircuit, twin, query
    )
    if done:
        compiled, seconds = done
        deep.add_ms("circuit.compile_ms", seconds)
        deep.add("circuit.nodes", compiled.circuit.num_nodes)
        nulls = list(twin.nulls)
        if val:
            weights = {
                null: {v: rng.randint(1, 3) for v in sorted(twin.domain_of(null))}
                for null in nulls
            }
            done = deep.call(compiled.weighted_count, weights)
            swept = nulls[:4]
            rows = [
                {null: {v: rng.randint(1, 3) for v in sorted(twin.domain_of(null))}
                 for null in swept}
                for _ in range(SWEEP_ROWS)
            ]
            swept_done = deep.call(compiled.weighted_count_many, rows)
            if swept_done:
                deep.add("sweep.rows", SWEEP_ROWS)
                deep.add("sweep.seconds", swept_done[1])
            if nulls:
                first = nulls[0]
                value = sorted(twin.domain_of(first))[0]
                conditioned = deep.call(compiled.condition, ResolveNull(first, value))
                if conditioned:
                    deep.add_ms("circuit.condition_ms", conditioned[1])
        else:
            done = deep.call(compiled.weighted_count)
        if done:
            deep.add_ms("circuit.pass_ms", done[1])
        payload = compiled.to_bytes()
        deep.add("artifact.bytes", len(payload))
        installed = deep.call(artifact_from_bytes, payload, twin)
        if installed:
            deep.add_ms("artifact.install_ms", installed[1])

    if val and query is not None:
        def approximate():
            estimator = KarpLubyEstimator(twin, query, seed=0)
            return estimator.estimate_with_samples(APPROX_SAMPLES)

        done = deep.call(approximate)
        if done:
            deep.add("approx.samples", APPROX_SAMPLES)
            deep.add("approx.seconds", done[1])

    if count_total_valuations(twin) <= BRUTE_LIMIT:
        function = brute.count_valuations_brute if val else brute.count_completions_brute
        done = deep.call(function, twin, query)
        if done:
            deep.add("brute.valuations", count_total_valuations(twin))
            deep.add("brute.seconds", done[1])

    # Engine bookkeeping on a second fresh twin.
    from repro.engine.fingerprint import fingerprint_job

    other, _mapping = relabel(db, "layer-engine")
    job = CountJob(problem, other, query)
    done = deep.call(fingerprint_job, job)
    if done:
        deep.add_ms("fingerprint.ms", done[1])
    engine = BatchEngine(workers=0)
    done = deep.call(engine.run, [job])
    if done:
        deep.add_ms("engine.overhead_ms", done[1] - done[0][0].seconds)


def deep_metrics(deep: Deep) -> dict:
    sums = deep.sums

    def rate(work, seconds):
        return sums.get(work, 0) / sums[seconds] if sums.get(seconds) else 0.0

    metrics = {
        "encode.ms": median(deep.ms.get("encode.ms", [])),
        "encode.clauses": sums.get("encode.clauses", 0),
        "encode.variables": sums.get("encode.variables", 0),
        "ordering.ms": median(deep.ms.get("ordering.ms", [])),
        "dpdb.probe_ms": median(deep.ms.get("dpdb.probe_ms", [])),
        "dpdb.width": max(deep.widths, default=0),
        "search.ms": median(deep.ms.get("search.ms", [])),
        "search.decisions": sums.get("search.decisions", 0),
        "search.decisions_per_s": rate("search.decisions", "search.seconds"),
        "search.cache_hit_rate": sums.get("search.cache_hits", 0)
        / max(sums.get("search.cache_hits", 0) + sums.get("search.cache_entries", 0), 1),
        "dpdb.run_ms": median(deep.ms.get("dpdb.run_ms", [])),
        "dpdb.rows": sums.get("dpdb.rows", 0),
        "circuit.compile_ms": median(deep.ms.get("circuit.compile_ms", [])),
        "circuit.nodes": sums.get("circuit.nodes", 0),
        "circuit.pass_ms_p50": median(deep.ms.get("circuit.pass_ms", [])),
        "circuit.sweep_rows_per_s": rate("sweep.rows", "sweep.seconds"),
        "circuit.condition_ms_p50": median(deep.ms.get("circuit.condition_ms", [])),
        "artifact.bytes": sums.get("artifact.bytes", 0),
        "artifact.install_ms": median(deep.ms.get("artifact.install_ms", [])),
        "approx.samples_per_s": rate("approx.samples", "approx.seconds"),
        "approx.run_s": sums.get("approx.seconds", 0.0),
        "brute.valuations_per_s": rate("brute.valuations", "brute.seconds"),
    }
    return metrics


LAYER_ROWS = (
    ("exact.planner", ("planner.plan_ms_p50", "planner.plan_share", "planner.misroute_count")),
    ("exact closed forms / exact.brute", ("closed_form.run_ms_p50", "brute.valuations_per_s")),
    ("compile.encode, compile.lineage", ("encode.ms", "encode.clauses", "encode.variables")),
    ("compile.ordering, dpdb probe", ("ordering.ms", "dpdb.probe_ms", "dpdb.width")),
    ("compile.sharpsat/trail/preprocess", (
        "search.ms", "search.decisions", "search.decisions_per_s", "search.cache_hit_rate")),
    ("compile.dpdb", ("dpdb.run_ms", "dpdb.rows")),
    ("compile.circuit, ddnnf_trace", (
        "circuit.compile_ms", "circuit.nodes", "circuit.pass_ms_p50",
        "circuit.sweep_rows_per_s", "circuit.condition_ms_p50")),
    ("compile.serialize", ("artifact.bytes", "artifact.install_ms")),
    ("engine.fingerprint/cache/incremental", (
        "fingerprint.ms_p50", "engine.overhead_ms_p50", "cache.hit_rate",
        "cache.circuit_hits", "cache.parent_chain_hits")),
    ("engine.pool, engine.jobs", ("pool.warm_s", "pool.queue_ms_p50", "pool.execute_s_sum")),
    ("approx.fpras, approx.events", ("approx.samples_per_s", "approx.run_s")),
)


def table(workload, metrics) -> list[str]:
    lines = ["# per-layer table, workload %s" % workload]
    for layer, names in LAYER_ROWS:
        lines.append(
            "#   %-38s %s"
            % (layer, "  ".join("%s=%.6g" % (n, metrics.get(n, 0)) for n in names))
        )
    return lines


def traced(workload: str, seed: int, count: int, state: dict) -> dict:
    """The traced pass over the first ``count`` questions (or batches)."""
    passed = True
    if workload in ("solve_tractable", "solve_hard"):
        metrics, lines, wall, passed = traced_solve(workload, state, count)
    elif workload == "circuit_session":
        metrics, lines, wall = traced_session(state, count)
    else:
        metrics, lines, wall = traced_batch(state, count)

    from repro.exact import planner

    from workloads import relabel

    deep = Deep()
    rng = random.Random(seed)
    misroutes = 0
    plan_ms = []
    for problem, db, query in sample_instances(workload, state):
        deep_calls(problem, db, query, deep, rng)
        if workload not in ("solve_tractable", "solve_hard"):
            # The engine plans inside its jobs; plan the sample here, on a
            # fresh twin, for the planner's figures.
            twin, _mapping = relabel(db, "layer-plan")
            built, plan_s = timed(planner.plan, problem, twin, query)
            plan_ms.append(plan_s * 1e3)
            try:
                with limit(LIMITS[workload]):
                    _answer, run_s = timed(planner.run, problem, built.chosen, twin, query)
                misroutes += misrouted(problem, twin, query, built, run_s)
            except QuestionTimeout:
                pass
    found = deep_metrics(deep)
    found.setdefault("fingerprint.ms_p50", median(deep.ms.get("fingerprint.ms", [])))
    found["engine.overhead_ms_p50"] = metrics.get(
        "engine.overhead_ms_p50", median(deep.ms.get("engine.overhead_ms", []))
    )
    if workload not in ("solve_tractable", "solve_hard"):
        found["planner.plan_ms_p50"] = median(plan_ms)
        found["planner.misroute_count"] = misroutes
    found.update(metrics)
    lines.extend(table(workload, found))
    lines.append(
        "# deep calls: %d instances, %d calls left out past %.1f s"
        % (len(sample_instances(workload, state)), deep.skipped, LAYER_LIMIT)
    )
    for line in lines:
        print(line)
    return {"metrics": found, "wall_s": wall, "correct": passed}
