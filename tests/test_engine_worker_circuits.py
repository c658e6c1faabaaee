"""Circuits stay in the worker that compiled them.

In a pool run every question about one circuit family (an instance and
the children that condition from it) travels to one worker as one task.
The worker compiles each circuit once against a private store, answers
in batch order and sends back only answers, so distinct instances
compile in parallel, the parent's store stays empty, and a repeated
question is served from the parent's answer memo.
"""

from __future__ import annotations

import threading

from repro.compile.backend import ValuationCircuit
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import BatchEngine, CountCache, CountJob
from repro.engine.jobs import instance_fingerprint_of, marginals_record
from repro.workloads.generators import scaling_hard_val_instance


def _weights_for(db):
    return {
        null: {
            value: 1 + (index + position) % 3
            for position, value in enumerate(
                sorted(db.domain_of(null), key=repr)
            )
        }
        for index, null in enumerate(db.nulls)
    }


def _distinct_circuit_jobs(sizes=(8, 9, 10, 11)):
    jobs = []
    for size in sizes:
        db, query = scaling_hard_val_instance(size, seed=size)
        jobs.append(
            CountJob("val", db, query, method="circuit",
                     label="val-%d" % size)
        )
        jobs.append(
            CountJob("val-weighted", db, query, weights=_weights_for(db),
                     label="weighted-%d" % size)
        )
        jobs.append(
            CountJob("marginals", db, query, label="marginals-%d" % size)
        )
    return jobs


def _compiled(results):
    """Labels of the results whose solve built a circuit."""
    return [
        result.label for result in results
        if "compile.trace_build" in result.meta["metrics"].get("phases", {})
    ]


def _in_worker(result):
    """Whether a pool worker answered: only those results carry a queue
    time."""
    return "queue_seconds" in result.meta.get("metrics", {})


class TestWorkerCompiledCircuits:
    def test_answers_bit_identical_to_serial_in_parent(self):
        jobs = _distinct_circuit_jobs()
        serial = BatchEngine(workers=0).run(jobs)
        parallel = BatchEngine(workers=2).run(jobs)
        assert all(result.ok for result in serial)
        assert all(result.ok for result in parallel)
        for serial_result, parallel_result in zip(serial, parallel):
            assert serial_result.count == parallel_result.count, (
                serial_result.label
            )

    def test_each_circuit_compiles_once_in_its_worker(self):
        jobs = _distinct_circuit_jobs()
        engine = BatchEngine(workers=2)
        results = engine.run(jobs)
        assert all(result.ok for result in results)
        # One compile per unique instance: the first of its three
        # questions builds the circuit, the other two are passes over it.
        assert _compiled(results) == ["val-8", "val-9", "val-10", "val-11"]
        # Every answer came from a worker, and no circuit came home.
        assert all(_in_worker(result) for result in results)
        assert engine.cache.stats()["circuits"] == 0

    def test_second_batch_served_from_memo(self):
        jobs = _distinct_circuit_jobs(sizes=(8, 9))
        engine = BatchEngine(workers=2)
        engine.run(jobs)
        again = engine.run(jobs)
        assert all(result.cache_hit for result in again)

    def test_worker_answer_matches_parent_compile(self):
        """A worker's answers equal those of a circuit compiled here, not
        only those of another engine run."""
        db, query = scaling_hard_val_instance(9, seed=9)
        # Two distinct circuits so the pool path actually engages.
        other_db, other_query = scaling_hard_val_instance(10, seed=10)
        results = BatchEngine(workers=2).run([
            CountJob("val", db, query, method="circuit", label="v"),
            CountJob("marginals", db, query, label="m"),
            CountJob("marginals", other_db, other_query),
        ])
        assert all(_in_worker(result) for result in results)
        reference = ValuationCircuit(db, query)
        assert results[0].count == reference.count()
        assert results[1].count == marginals_record(reference.marginals())

    def test_duplicate_instances_compile_once(self):
        db, query = scaling_hard_val_instance(9, seed=3)
        jobs = [
            CountJob("val", db, query, method="circuit", label="a"),
            CountJob("val-weighted", db, query,
                     weights=_weights_for(db), label="b"),
            CountJob("marginals", db, query, label="c"),
        ]
        # A second distinct instance keeps the pool path engaged.
        other_db, other_query = scaling_hard_val_instance(10, seed=4)
        jobs.append(CountJob("marginals", other_db, other_query, label="d"))
        engine = BatchEngine(workers=4)
        results = engine.run(jobs)
        assert all(result.ok for result in results)
        # Two unique instances -> exactly two compiles, both in workers.
        assert _compiled(results) == ["a", "d"]
        assert all(_in_worker(result) for result in results)
        assert engine.cache.stats()["circuits"] == 0

    def test_persistent_pool_serves_repeats_from_the_memo(self):
        """Batch 2 repeats batch 1's questions and adds one new question
        about each circuit: the repeats are memo hits, the new questions
        compile their circuits again in a worker, and every answer
        matches an in-process engine."""
        first = _distinct_circuit_jobs(sizes=(8, 9))
        fresh = []
        for size in (8, 9):
            db, query = scaling_hard_val_instance(size, seed=size)
            doubled = {
                null: {value: 2 * weight for value, weight in table.items()}
                for null, table in _weights_for(db).items()
            }
            fresh.append(
                CountJob("sweep", db, query,
                         weights=[_weights_for(db), doubled],
                         label="sweep-%d" % size)
            )
        with BatchEngine(workers=2, persistent_pool=True) as engine:
            engine.run(first)
            again = engine.run(first + fresh)
        expected = BatchEngine(workers=0).run(first + fresh)
        assert [result.cache_hit for result in again] == (
            [True] * len(first) + [False] * len(fresh)
        )
        assert all(_in_worker(result) for result in again[len(first):])
        assert [(result.count, result.method, result.error) for result in again] == [
            (result.count, result.method, result.error) for result in expected
        ]

    def test_cold_update_answers_in_its_worker(self):
        from repro.db.deltas import ResolveNull
        from repro.engine.fingerprint import fingerprint_instance

        db, query = scaling_hard_val_instance(9, seed=5)
        null = sorted(db.nulls, key=repr)[0]
        delta = ResolveNull(null, sorted(db.domain_of(null), key=repr)[0])
        child = db.apply(delta)
        other_db, other_query = scaling_hard_val_instance(10, seed=6)
        engine = BatchEngine(workers=2)
        update, _other = engine.run([
            CountJob("update", db, query, deltas=[delta], label="u"),
            CountJob("marginals", other_db, other_query, label="m"),
        ])
        assert update.ok and update.method == "delta"
        assert _in_worker(update)
        assert update.count == ValuationCircuit(child, query).count()
        assert engine.cache.stats()["circuits"] == 0
        # A later read of the child compiles it where it runs (here the
        # parent: a one-job batch starts no pool).
        [read] = engine.run([
            CountJob("val-weighted", child, query, weights=_weights_for(child))
        ])
        assert read.ok and read.method == "circuit"
        assert engine.cache.has_circuit(fingerprint_instance(child, query, "val"))
        assert read.count == ValuationCircuit(child, query).weighted_count(
            _weights_for(child)
        )

    def test_bounded_parent_store_decides_where_a_question_runs(self):
        """Under a ``--cache-mb`` bound the parent keeps the circuits its
        own solves compiled, least recently used out first.  A new
        question about a kept circuit is a pass in the parent; one about
        an evicted circuit travels to a worker and compiles there, and
        that circuit never comes home."""
        sizes = (8, 9, 10)
        instances = [scaling_hard_val_instance(size, seed=size) for size in sizes]
        footprints = [
            ValuationCircuit(db, query).memory_bytes() for db, query in instances
        ]
        # Each circuit fits alone, no two fit together.
        bound = max(footprints)
        assert min(a + b for a in footprints for b in footprints) > bound
        cache = CountCache(max_circuit_bytes=bound)
        engine = BatchEngine(workers=2, cache=cache)
        # One-job batches solve in the parent and fill its store.
        for size, (db, query) in zip(sizes, instances):
            [result] = engine.run([
                CountJob("val", db, query, method="circuit",
                         label="val-%d" % size)
            ])
            assert result.ok and not _in_worker(result)
        assert cache.stats()["circuits"] == 1
        assert cache.circuit_evictions == 2
        jobs = [
            CountJob("val-weighted", db, query, weights=_weights_for(db),
                     label="weighted-%d" % size)
            for size, (db, query) in zip(sizes, instances)
        ]
        results = engine.run(jobs)
        assert [_in_worker(result) for result in results] == [
            True, True, False,
        ]
        assert _compiled(results) == ["weighted-8", "weighted-9"]
        stats = cache.stats()
        assert stats["circuits"] == 1 and stats["circuit_bytes"] <= bound
        assert cache.circuit_evictions == 2
        expected = BatchEngine(workers=0).run(jobs)
        assert [result.count for result in results] == [
            result.count for result in expected
        ]


class _RecordingPool:
    """Stands in for the engine's pool: logs each ``imap`` call's tasks
    (each a list of jobs) and chunk size, and solves the tasks in a
    thread of this process (a thread, so the task body's reset of the
    span stack leaves the caller's open spans alone)."""

    def __init__(self) -> None:
        self.calls: list[tuple[list[list[CountJob]], int]] = []

    def imap(self, func, tasks, chunksize=1):
        tasks = list(tasks)
        self.calls.append((tasks, chunksize))
        results: list = []
        worker = threading.Thread(target=lambda: results.extend(map(func, tasks)))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        return iter(results)

    def terminate(self) -> None:
        pass

    def join(self) -> None:
        pass


class TestDispatch:
    def test_no_pool_task_holds_two_compiles(self):
        """40 plain jobs chunk by 40 // (2 * 4) = 5; the 3 questions about
        each of the 3 circuits travel together as one task, alone in its
        chunk, so no worker compiles two circuits back to back."""
        # Distinct domain sizes: 40 distinct fingerprints, 40 pool tasks.
        plain = [
            CountJob(
                "val",
                IncompleteDatabase.uniform(
                    [Fact("R", [Null(1), Null(2)])],
                    ["c%d" % value for value in range(size)],
                ),
                BCQ([Atom("R", ["x", "x"])]),
                label="plain-%d" % size,
            )
            for size in range(2, 42)
        ]
        jobs = plain + _distinct_circuit_jobs(sizes=(8, 9, 10))
        engine = BatchEngine(workers=2, persistent_pool=True)
        engine._pool = recorder = _RecordingPool()
        results = engine.run(jobs)

        (plain_tasks, plain_chunk), (circuit_tasks, circuit_chunk) = (
            recorder.calls
        )
        assert plain_chunk == 5 and circuit_chunk == 1
        assert [[job.label for job in task] for task in plain_tasks] == [
            [job.label] for job in plain
        ]
        assert [[job.label for job in task] for task in circuit_tasks] == [
            ["val-%d" % size, "weighted-%d" % size, "marginals-%d" % size]
            for size in (8, 9, 10)
        ]
        for task in circuit_tasks:
            assert len({instance_fingerprint_of(job) for job in task}) == 1
        assert [result.label for result in results] == [job.label for job in jobs]
        expected = BatchEngine(workers=0).run(jobs)
        assert [result.count for result in results] == [
            result.count for result in expected
        ]
        assert _compiled(results) == ["val-8", "val-9", "val-10"]


    def test_children_travel_with_an_asked_ancestor(self):
        """Two update children of an instance no job asks about compile in
        tasks of their own, in parallel; a child of an instance the batch
        does ask about travels with it and, answered after it, conditions
        from its circuit instead of compiling."""
        from repro.db.deltas import ResolveNull

        def resolve(db, position):
            null = sorted(db.nulls, key=repr)[position]
            return ResolveNull(null, sorted(db.domain_of(null), key=repr)[0])

        db_a, query_a = scaling_hard_val_instance(8, seed=8)
        db_b, query_b = scaling_hard_val_instance(9, seed=9)
        jobs = [
            CountJob("update", db_a, query_a, deltas=[resolve(db_a, 0)],
                     label="a-child-0"),
            CountJob("update", db_a, query_a, deltas=[resolve(db_a, 1)],
                     label="a-child-1"),
            CountJob("update", db_b, query_b, deltas=[resolve(db_b, 0)],
                     label="b-child"),
            CountJob("val", db_b, query_b, method="circuit", label="b"),
        ]
        engine = BatchEngine(workers=2, persistent_pool=True)
        engine._pool = recorder = _RecordingPool()
        results = engine.run(jobs)

        (_plain, _chunk), (circuit_tasks, _one) = recorder.calls
        assert [[job.label for job in task] for task in circuit_tasks] == [
            ["a-child-0"], ["a-child-1"], ["b", "b-child"],
        ]
        assert _compiled(results) == ["a-child-0", "a-child-1", "b"]
        assert [result.method for result in results] == [
            "delta", "delta", "delta", "circuit",
        ]
        expected = BatchEngine(workers=0).run(jobs)
        assert [result.count for result in results] == [
            result.count for result in expected
        ]


class TestSerialFallbackMetadata:
    def test_unpicklable_job_records_fallback_reason(self):
        from repro.core.query import CustomQuery

        db, query = scaling_hard_val_instance(8, seed=1)
        opaque = CustomQuery("tiny", ["R"], lambda database: True)
        db2, query2 = scaling_hard_val_instance(9, seed=2)
        jobs = [
            CountJob("val", db, opaque, budget=None, label="opaque"),
            CountJob("val", db, query, label="plain-1"),
            CountJob("val", db2, query2, label="plain-2"),
        ]
        engine = BatchEngine(workers=2)
        results = engine.run(jobs)
        assert all(result.ok for result in results)
        by_label = {result.label: result for result in results}
        assert "fallback" in by_label["opaque"].meta
        assert "parent" in by_label["opaque"].meta["fallback"]
        assert "fallback" not in by_label["plain-1"].meta
        # The fallback reason survives into the JSONL record.
        assert by_label["opaque"].to_dict()["meta"]["fallback"]

    def test_meta_of_clean_results_carries_only_metrics(self):
        db, query = scaling_hard_val_instance(8, seed=1)
        engine = BatchEngine(workers=0)
        (result,) = engine.run([CountJob("val", db, query)])
        # No fallback/artifact provenance on a clean serial solve; the
        # observability payload is the only meta key.
        assert set(result.meta) <= {"metrics"}
        assert "fallback" not in result.meta
