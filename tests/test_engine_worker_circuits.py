"""Worker-compiled circuit artifacts in the batch engine.

PR 3 ran every circuit-backed job serially in the parent so the jobs could
share one circuit store.  Now the first job of each unique, not-yet-cached
instance compiles in a worker, ships its serialized circuit home, and the
parent installs the artifact — so distinct instances compile in parallel
while follow-up questions still amortize over the installed circuits, and
``--cache-mb`` eviction still drops a circuit together with its linked
memo entries.
"""

from __future__ import annotations

import threading

from repro.compile.backend import ValuationCircuit
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import BatchEngine, CountCache, CountJob
from repro.engine.jobs import instance_fingerprint_of
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

    def test_artifacts_installed_and_amortized(self):
        jobs = _distinct_circuit_jobs()
        engine = BatchEngine(workers=2)
        results = engine.run(jobs)
        stats = engine.cache.stats()
        # One circuit per unique instance, every one compiled in a worker.
        assert stats["circuits"] == 4
        assert stats["worker_circuits"] == 4
        # The first job of each instance records the worker compile...
        compiled_in_worker = [
            result for result in results
            if result.meta.get("compiled_in_worker")
        ]
        assert len(compiled_in_worker) == 4
        # ...and no artifact bytes linger once installed.
        assert all(result.artifact is None for result in results)
        # Follow-up questions ran in the parent against the installed
        # circuits instead of recompiling.
        assert stats["circuit_hits"] >= 8

    def test_second_batch_served_from_memo(self):
        jobs = _distinct_circuit_jobs(sizes=(8, 9))
        engine = BatchEngine(workers=2)
        engine.run(jobs)
        again = engine.run(jobs)
        assert all(result.cache_hit for result in again)

    def test_worker_artifact_matches_parent_compile(self):
        db, query = scaling_hard_val_instance(9, seed=9)
        job = CountJob("marginals", db, query, label="m")
        engine = BatchEngine(workers=2)
        # Two distinct circuit jobs so the pool path actually engages.
        other_db, other_query = scaling_hard_val_instance(10, seed=10)
        engine.run([job, CountJob("marginals", other_db, other_query)])
        installed = engine.cache.get_circuit(instance_fingerprint_of(job))
        assert installed is not None
        reference = ValuationCircuit(db, query)
        assert installed.count() == reference.count()
        assert installed.marginals() == reference.marginals()
        # The installed artifact is accounted at its exact wire size.
        assert installed.memory_bytes() > 0

    def test_eviction_drops_worker_circuit_with_linked_memo(self):
        jobs = _distinct_circuit_jobs()
        # Tight bound: each circuit fits alone (structural estimates run
        # ~15-23 KiB here) but no two fit together.
        bound = 25_000
        cache = CountCache(max_circuit_bytes=bound)
        engine = BatchEngine(workers=2, cache=cache)
        results = engine.run(jobs)
        assert all(result.ok for result in results)
        stats = cache.stats()
        assert stats["circuit_bytes"] <= bound
        assert stats["circuit_evictions"] > 0
        # The coherence invariant: every linked memo entry's circuit is
        # still resident — an evicted circuit took its answers with it.
        for fingerprint, instance in cache._entry_instance.items():
            assert cache.has_circuit(instance)
            assert fingerprint in cache._entries

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
        assert engine.cache.stats()["worker_circuits"] == 2


    def test_cold_update_ships_and_installs_the_child_circuit(self):
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
        assert update.meta.get("compiled_in_worker")
        child_key = fingerprint_instance(child, query, "val")
        assert engine.cache.has_circuit(child_key)
        assert not engine.cache.has_circuit(fingerprint_instance(db, query, "val"))
        hits = engine.cache.circuit_hits
        [read] = engine.run([
            CountJob("val-weighted", child, query, weights=_weights_for(child))
        ])
        assert read.ok and read.method == "circuit"
        assert engine.cache.circuit_hits == hits + 1
        assert read.count == ValuationCircuit(child, query).weighted_count(
            _weights_for(child)
        )


class _RecordingPool:
    """Stands in for the engine's pool: logs each ``imap`` call's task
    kinds (``True`` for a compile) and chunk size, and solves the tasks
    in a thread of this process (a thread, so the task body's reset of
    the span stack leaves the caller's open spans alone)."""

    def __init__(self) -> None:
        self.calls: list[tuple[list[bool], int]] = []

    def imap(self, func, tasks, chunksize=1):
        tasks = list(tasks)
        self.calls.append(([capture for _job, capture in tasks], chunksize))
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
        """40 plain jobs chunk by 40 // (2 * 4) = 5; each of the 3 compiles
        travels alone, so no worker compiles two circuits back to back."""
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

        chunks = [
            kinds[start:start + chunksize]
            for kinds, chunksize in recorder.calls
            for start in range(0, len(kinds), chunksize)
        ]
        assert sum(chunk.count(False) for chunk in chunks) == 40
        assert [chunk for chunk in chunks if True in chunk] == [[True]] * 3
        assert [result.label for result in results] == [job.label for job in jobs]
        expected = BatchEngine(workers=0).run(jobs)
        assert [result.count for result in results] == [
            result.count for result in expected
        ]
        compiled = [
            result.label for result in results
            if result.meta.get("compiled_in_worker")
        ]
        assert compiled == ["val-8", "val-9", "val-10"]


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
