"""Observability across the stack: solver stats, job metrics, pool
aggregation, result round-trips, and the always-on overhead guard."""

import io
import time

from repro.complexity.cnf import CNF
from repro.compile.sharpsat import ModelCounter
from repro.engine import BatchEngine, CountJob, execute_job
from repro.engine.jsonl import RESULT_KEYS, read_results, write_results
from repro.obs import capture, set_enabled
from repro.workloads.generators import scaling_hard_val_instance

STATS_KEYS = {
    "core", "decisions", "propagations", "conflicts", "max_trail_depth",
    "cache_hits", "cache_entries", "sat_cache_entries", "components_split",
    "width", "preprocessing",
}


def _hard_cnf(num_variables=30, seed=7):
    import random

    rng = random.Random(seed)
    cnf = CNF(num_variables)
    for _ in range(int(num_variables * 3.5)):
        chosen = rng.sample(range(1, num_variables + 1), 3)
        cnf.add_clause(
            tuple(v if rng.random() < 0.5 else -v for v in chosen)
        )
    return cnf


class TestCounterStats:
    def test_both_cores_expose_the_same_vocabulary(self):
        cnf = CNF(4, [(1, 2), (3, 4)])
        trail = ModelCounter(cnf)
        reference = ModelCounter(cnf, reference=True)
        assert trail.count() == reference.count() == 9
        trail_stats = trail.stats()
        reference_stats = reference.stats()
        assert set(trail_stats) == STATS_KEYS
        assert set(reference_stats) == STATS_KEYS
        assert trail_stats["core"] == "trail"
        assert reference_stats["core"] == "reference"

    def test_trail_core_counts_work(self):
        counter = ModelCounter(_hard_cnf())
        counter.count()
        stats = counter.stats()
        assert stats["decisions"] > 0
        assert stats["propagations"] > 0
        assert stats["max_trail_depth"] > 0

    def test_reference_core_reports_untracked_as_none(self):
        counter = ModelCounter(CNF(3, [(1, 2)]), reference=True)
        counter.count()
        stats = counter.stats()
        assert stats["propagations"] is None
        assert stats["conflicts"] is None
        assert stats["max_trail_depth"] is None
        assert stats["preprocessing"] is None

    def test_search_counters_reach_an_active_capture(self):
        with capture() as captured:
            ModelCounter(_hard_cnf()).count()
        assert captured.counters.get("sharpsat.decisions", 0) > 0
        assert "compile.search" in captured.phase_totals()


class TestJobMetrics:
    def test_execute_job_attaches_phases_and_counters(self):
        db, query = scaling_hard_val_instance(6, seed=6)
        result = execute_job(CountJob("val", db, query, label="hard"))
        assert result.ok
        metrics = result.meta["metrics"]
        assert "planner.run" in metrics["phases"]
        # The hard cell runs the trail search or (at low width) the dpdb
        # DP; either way the solver layer contributes phases.
        assert any(
            name.startswith(("compile.", "dpdb."))
            for name in metrics["phases"]
        )
        assert metrics["counters"].get("planner.decision", 0) >= 1

    def test_answer_stats_and_job_metrics_share_one_digest(self):
        # solve() and an engine job report the same digest of plan + run,
        # so a planning phase (the dpdb width probe) shows in both.
        from repro.compile.dpdb import probe_cache_clear
        from repro.exact.dispatch import solve

        db, query = scaling_hard_val_instance(6, seed=6)
        probe_cache_clear()
        answer = solve("val", db, query)
        probe_cache_clear()
        result = execute_job(CountJob("val", db, query))
        assert answer.method == result.method == "dpdb"
        assert "dpdb.probe" in answer.stats["phases"]
        assert set(answer.stats["phases"]) == set(result.meta["metrics"]["phases"])
        assert set(answer.stats["counters"]) == set(
            result.meta["metrics"]["counters"]
        )

    def test_job_solved_in_the_parent_keeps_its_phases(self):
        # The job runs inside the engine.batch span; its capture still
        # takes the spans closing at its own depth as roots.
        from repro.compile.dpdb import probe_cache_clear

        job = CountJob("val", *scaling_hard_val_instance(8, seed=3))
        probe_cache_clear()
        with capture() as outer:
            (result,) = BatchEngine(workers=0).run([job])
        phases = result.meta["metrics"]["phases"]
        assert {"planner.run", "dpdb.probe"} <= set(phases)
        assert [root.name for root in outer.roots] == ["engine.batch"]
        assert round(outer.phase_totals()["planner.run"], 6) == phases["planner.run"]

    def test_solve_spans_its_encoding(self):
        from repro.compile.dpdb import probe_cache_clear
        from repro.exact.dispatch import solve

        db, query = scaling_hard_val_instance(
            10, chord_probability=0.3, seed=4
        )
        probe_cache_clear()
        with capture() as captured:
            answer = solve("val", db, query)
        assert "compile.encode" in answer.stats["phases"]
        encodes = [
            node for root in captured.roots for node, _depth in root.walk()
            if node.name == "compile.encode"
        ]
        assert encodes
        for encode in encodes:
            assert encode.fields["mode"] == "val"
            assert encode.fields["variables"] == 30  # 10 nulls x 3 colors
            assert encode.fields["clauses"] > 0

    def test_solve_inside_a_callers_span_keeps_its_phases(self):
        from repro.compile.dpdb import probe_cache_clear
        from repro.exact.dispatch import solve
        from repro.obs import span

        db, query = scaling_hard_val_instance(8, seed=3)
        probe_cache_clear()
        bare = solve("val", db, query)
        probe_cache_clear()
        with span("caller"):
            nested = solve("val", db, query)
        assert "planner.run" in nested.stats["phases"]
        assert set(nested.stats["phases"]) == set(bare.stats["phases"])

    def test_approx_job_reports_its_estimate_span(self):
        db, query = scaling_hard_val_instance(5, seed=5)
        result = execute_job(
            CountJob("approx-val", db, query, epsilon=0.5, seed=3)
        )
        assert result.ok and result.method == "karp-luby"
        assert {"approx.events", "approx.estimate"} <= set(
            result.meta["metrics"]["phases"]
        )

    def test_metrics_absent_when_disabled(self):
        db, query = scaling_hard_val_instance(5, seed=5)
        previous = set_enabled(False)
        try:
            result = execute_job(CountJob("val", db, query))
        finally:
            set_enabled(previous)
        assert result.ok
        assert "metrics" not in result.meta


class TestPoolAggregation:
    def test_worker_metrics_come_home_and_merge_into_parent(self):
        jobs = [
            CountJob("val", *scaling_hard_val_instance(size, seed=size),
                     label="s%d" % size)
            for size in (5, 6, 7)
        ]
        with capture() as captured:
            results = BatchEngine(workers=2).run(jobs)

        assert all(result.ok for result in results)
        for result in results:
            metrics = result.meta["metrics"]
            assert any(
                name.startswith(("compile.", "dpdb."))
                for name in metrics["phases"]
            ), result.label
            assert metrics["counters"], result.label
        # Pooled results carry their queue share.
        pooled = [
            result for result in results
            if "queue_seconds" in result.meta["metrics"]
        ]
        assert pooled, "expected at least one pool-executed job"
        for result in pooled:
            assert result.meta["metrics"]["queue_seconds"] >= 0.0
        # Every counter a worker shipped home reached the parent's capture.
        shipped: dict[str, int] = {}
        for result in pooled:
            for name, value in result.meta["metrics"]["counters"].items():
                shipped[name] = shipped.get(name, 0) + value
        assert shipped
        for name, value in shipped.items():
            assert captured.counters.get(name, 0) >= value, name
        assert captured.counters["engine.jobs"] == len(jobs)

    def test_fingerprinting_is_one_span_per_batch(self):
        db, query = scaling_hard_val_instance(5, seed=5)
        jobs = [CountJob("val", db, query), CountJob("comp", db, query)]
        with capture() as captured:
            BatchEngine(workers=0).run(jobs)
        (batch,) = captured.roots
        fingerprint = [
            node for node, _depth in batch.walk()
            if node.name == "engine.fingerprint"
        ]
        assert len(fingerprint) == 1
        assert fingerprint[0].fields["jobs"] == 2


class TestResultRoundTrip:
    def test_schema_is_stable(self):
        # The JSONL result contract other tooling parses: exactly these
        # top-level keys, metrics under meta with this shape.  Changing
        # either is a breaking format change — update consumers first.
        assert RESULT_KEYS == (
            "label", "problem", "count", "method", "seconds", "cache_hit",
            "error",
        )
        db, query = scaling_hard_val_instance(5, seed=5)
        result = execute_job(CountJob("val", db, query, label="pin"))
        record = result.to_dict()
        assert set(record) == set(RESULT_KEYS) | {"meta"}
        metrics = record["meta"]["metrics"]
        assert set(metrics) <= {"phases", "counters", "queue_seconds"}
        assert all(
            isinstance(seconds, float)
            for seconds in metrics["phases"].values()
        )

    def test_write_read_round_trips_metrics(self):
        db, query = scaling_hard_val_instance(5, seed=5)
        results = [
            execute_job(CountJob("val", db, query, label="a")),
            execute_job(CountJob("val", db, query, label="b")),
        ]
        results[1].meta.setdefault("metrics", {})["queue_seconds"] = 0.25
        buffer = io.StringIO()
        assert write_results(buffer, results) == 2
        buffer.seek(0)
        recovered = list(read_results(buffer))
        assert [r.label for r in recovered] == ["a", "b"]
        for original, restored in zip(results, recovered):
            assert restored.count == original.count
            assert restored.meta["metrics"] == original.meta["metrics"]
        assert recovered[1].meta["metrics"]["queue_seconds"] == 0.25


class TestOverheadGuard:
    def test_always_on_instrumentation_stays_within_tolerance(self):
        # The acceptance bar: the enabled layer costs <= 5% on the sharpsat
        # path.  Spans sit at phase boundaries (a handful per count), so
        # real overhead is microseconds; best-of-N interleaved runs plus a
        # small absolute slack keep the assertion robust to CI noise.
        cnf = _hard_cnf(num_variables=36, seed=11)

        def once() -> float:
            started = time.perf_counter()
            ModelCounter(cnf).count()
            return time.perf_counter() - started

        once()  # warm caches and code paths outside the measurement
        enabled_best = disabled_best = float("inf")
        for _ in range(5):
            enabled_best = min(enabled_best, once())
            previous = set_enabled(False)
            try:
                disabled_best = min(disabled_best, once())
            finally:
                set_enabled(previous)
        assert enabled_best <= disabled_best * 1.05 + 0.005, (
            "observability overhead too high: enabled %.6fs vs disabled %.6fs"
            % (enabled_best, disabled_best)
        )
