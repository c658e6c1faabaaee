"""The batch engine: dedup, caching, fan-out, and the batch CLI."""

import json

import pytest

from repro.core.query import Atom, BCQ, CustomQuery
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import BatchEngine, CountCache, CountJob, execute_job, run_batch
from repro.engine.jsonl import JobSyntaxError, read_jobs
from repro.exact.dispatch import count_completions, count_valuations
from repro.workloads.generators import (
    scaling_codd_instance,
    scaling_hard_val_instance,
)


def _mixed_jobs():
    jobs = []
    for size in (4, 5, 6):
        db, query = scaling_hard_val_instance(size, seed=size)
        jobs.append(CountJob("val", db, query, label="hard-%d" % size))
    db, query = scaling_codd_instance(3, seed=1)
    jobs.append(CountJob("val", db, query, label="codd"))
    jobs.append(CountJob("comp", db, None, label="comp-all"))
    jobs.append(
        CountJob("approx-val", db, query, seed=3, epsilon=0.4, label="approx")
    )
    return jobs


class TestBatchEngine:
    def test_matches_per_instance_api(self):
        jobs = _mixed_jobs()
        results = BatchEngine(workers=0).run(jobs)
        assert all(result.ok for result in results)
        for job, result in zip(jobs, results):
            if job.problem == "val":
                assert result.count == count_valuations(job.db, job.query)
            elif job.problem == "comp":
                assert result.count == count_completions(job.db, job.query)

    def test_duplicates_hit_the_cache(self):
        jobs = _mixed_jobs()
        engine = BatchEngine(workers=0)
        results = engine.run(jobs + jobs + jobs)
        assert [r.count for r in results[: len(jobs)]] == [
            r.count for r in results[len(jobs) : 2 * len(jobs)]
        ]
        # Every job beyond the first occurrence is served from memo.
        assert sum(r.cache_hit for r in results) == 2 * len(jobs)
        assert engine.cache.misses == len(jobs)

    def test_cache_persists_across_batches(self):
        jobs = _mixed_jobs()
        engine = BatchEngine(workers=0)
        first = engine.run(jobs)
        second = engine.run(jobs)
        assert all(result.cache_hit for result in second)
        assert [r.count for r in first] == [r.count for r in second]

    def test_isomorphic_instances_are_solved_once(self):
        def build(label_prefix):
            a = Null("%s-1" % label_prefix)
            b = Null("%s-2" % label_prefix)
            db = IncompleteDatabase(
                [Fact("R", [a, b]), Fact("R", [b, a])],
                dom={a: ["x", "y"], b: ["x", "y"]},
            )
            return CountJob("val", db, BCQ([Atom("R", ["z", "z"])]))

        engine = BatchEngine(workers=0)
        results = engine.run([build("left"), build("right")])
        assert results[1].cache_hit
        assert results[0].count == results[1].count

    def test_errors_are_isolated(self):
        db, query = scaling_hard_val_instance(8, seed=0)
        poisoned = CountJob(
            "val", db, query, method="brute", budget=1, label="too-big"
        )
        fine = CountJob("val", db, query, label="fine")
        results = BatchEngine(workers=0).run([poisoned, fine])
        assert not results[0].ok
        assert "Budget" in results[0].error
        assert results[1].ok

    def test_failed_jobs_are_not_cached(self):
        db, query = scaling_hard_val_instance(8, seed=0)
        poisoned = CountJob("val", db, query, method="brute", budget=1)
        engine = BatchEngine(workers=0)
        assert not engine.run([poisoned])[0].ok
        assert len(engine.cache) == 0
        # A later identical job with a workable method still runs.
        fixed = CountJob("val", db, query, method="lineage")
        assert engine.run([fixed])[0].ok

    def test_multiprocess_results_match_serial(self):
        jobs = _mixed_jobs()
        serial = BatchEngine(workers=0).run(jobs)
        parallel = BatchEngine(workers=2).run(jobs)
        assert [r.count for r in serial] == [r.count for r in parallel]

    def test_unpicklable_jobs_fall_back_to_serial(self):
        db, query = scaling_hard_val_instance(5, seed=0)
        opaque = CustomQuery(
            "lambda-query", ["R"], lambda database: len(database) > 0
        )
        jobs = [
            CountJob("val", db, query, label="ok-1"),
            CountJob("val", db, opaque, method="brute", label="opaque"),
            CountJob("comp", db, None, label="ok-2"),
        ]
        results = BatchEngine(workers=2).run(jobs)
        assert all(result.ok for result in results)
        assert results[1].method == "brute"

    def test_run_batch_convenience(self):
        jobs = _mixed_jobs()
        results = run_batch(jobs, workers=0)
        assert len(results) == len(jobs)
        assert all(result.ok for result in results)

    def test_dispatch_batch_wrapper(self):
        instances = []
        for size in (4, 5, 4):
            db, query = scaling_hard_val_instance(size, seed=size)
            instances.append((db, query))
        results = run_batch(
            [CountJob("val", db, query) for db, query in instances],
            workers=0,
        )
        assert [result.count for result in results] == [
            count_valuations(db, query) for db, query in instances
        ]

    def test_execute_job_reports_resolved_method(self):
        db, query = scaling_codd_instance(3, seed=1)
        result = execute_job(CountJob("val", db, query))
        assert result.ok
        assert result.method == "codd"


class TestPersistentPool:
    def test_pool_survives_batches_and_closes_idempotently(self):
        jobs = _mixed_jobs()
        serial = [execute_job(job) for job in jobs]
        with BatchEngine(workers=2, persistent_pool=True) as engine:
            engine.warm()
            pool = engine._pool
            assert pool is not None
            first = engine.run(jobs)
            second = engine.run(jobs)
            assert engine._pool is pool  # reused, not rebuilt
            for reference, result in zip(serial, first):
                assert result.count == reference.count
            assert all(result.cache_hit for result in second
                       if result.fingerprint is not None)
        assert engine._pool is None
        engine.close()  # idempotent

    def test_warm_is_a_noop_without_persistence(self):
        engine = BatchEngine(workers=2)
        engine.warm()
        assert engine._pool is None
        engine.close()


class TestCountCache:
    def test_hit_rate(self):
        cache = CountCache()
        assert cache.hit_rate == 0.0
        cache.put("a", 1, "brute")
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(0.5)


class TestJsonl:
    def test_read_jobs(self, tmp_path):
        db_file = tmp_path / "d.idb"
        db_file.write_text("domain a b\nR(?n1, ?n2)\n")
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            "# comment\n"
            '{"problem": "val", "db": "d.idb", "query": "R(x,x)"}\n'
            "\n"
            '{"problem": "comp", "db": "d.idb", "label": "named"}\n'
            '{"db_text": "null m: a\\nS(?m)", "query": "S(x)"}\n'
        )
        with open(jobs_file) as handle:
            jobs = list(read_jobs(handle, base_dir=str(tmp_path)))
        assert [job.problem for job in jobs] == ["val", "comp", "val"]
        assert jobs[0].label == "job-2"
        assert jobs[1].label == "named"
        # Both path-based jobs share one parsed database object.
        assert jobs[0].db is jobs[1].db

    def test_bad_json_is_rejected_with_line_number(self, tmp_path):
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text('{"problem": "val"\n')
        with open(jobs_file) as handle:
            with pytest.raises(JobSyntaxError, match="line 1"):
                list(read_jobs(handle))

    def test_db_and_db_text_are_exclusive(self, tmp_path):
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            '{"db": "x.idb", "db_text": "domain a\\nR(?n)", "query": "R(x)"}\n'
        )
        with open(jobs_file) as handle:
            with pytest.raises(JobSyntaxError, match="exactly one"):
                list(read_jobs(handle))


class TestBatchCli:
    def _write_inputs(self, tmp_path):
        (tmp_path / "d.idb").write_text("domain a b c\nR(?n1, ?n2)\nR(?n2, ?n1)\n")
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            '{"problem": "val", "db": "d.idb", "query": "R(x,x)"}\n'
            '{"problem": "val", "db": "d.idb", "query": "R(y,y)", "label": "dup"}\n'
            '{"problem": "comp", "db": "d.idb"}\n'
        )
        return jobs_file

    def test_batch_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        jobs_file = self._write_inputs(tmp_path)
        assert main(["batch", "--jobs", str(jobs_file), "--workers", "0"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 3
        assert records[0]["count"] == records[1]["count"] == 3
        assert records[1]["cache_hit"] is True
        assert "cache hit rate" in captured.err

    def test_batch_out_file(self, tmp_path, capsys):
        from repro.cli import main

        jobs_file = self._write_inputs(tmp_path)
        out_file = tmp_path / "results.jsonl"
        code = main(
            [
                "batch",
                "--jobs", str(jobs_file),
                "--workers", "0",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in out_file.read_text().splitlines()
        ]
        assert [record["problem"] for record in records] == [
            "val", "val", "comp",
        ]

    def test_batch_reports_errors_in_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "d.idb").write_text("domain a b\nR(?n1)\n")
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            '{"problem": "val", "db": "d.idb", "query": "R(x)", '
            '"method": "brute", "budget": 1}\n'
        )
        assert main(["batch", "--jobs", str(jobs_file), "--workers", "0"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out.splitlines()[0])
        assert record["error"] is not None


class TestOnePlanPerJob:
    """Every executed job is planned exactly once (inside its own solve);
    scheduling and memo hits plan nothing."""

    @staticmethod
    def _jobs():
        from repro.db.deltas import ResolveNull

        db, query = scaling_hard_val_instance(6, seed=2)
        other_db, other_query = scaling_hard_val_instance(7, seed=3)
        null = sorted(db.nulls, key=repr)[0]
        weights = {null: {value: 2 for value in db.domain_of(null)}}
        return [
            CountJob("val", db, query, label="val"),
            CountJob("comp", db, query, label="comp"),
            CountJob("val-weighted", db, query, weights=weights, label="w"),
            CountJob("marginals", db, query, label="marginals"),
            CountJob("sweep", db, query, weights=[weights, None], label="sweep"),
            CountJob(
                "update", db, query, deltas=[ResolveNull(null, "c0")],
                label="update",
            ),
            CountJob("marginals", other_db, other_query, label="other"),
            CountJob("val", db, query, label="val-again"),
        ]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_each_executed_job_plans_once(self, workers):
        from repro.obs import capture

        def plans(counters):
            return sum(
                value for name, value in counters.items()
                if name.startswith("planner.chosen.")
            )

        engine = BatchEngine(workers=workers)
        jobs = self._jobs()
        with capture() as captured:
            results = engine.run(jobs)
        assert all(result.ok for result in results), [r.error for r in results]
        executed = [result for result in results if not result.cache_hit]
        assert {result.problem for result in executed} == {
            "val", "comp", "val-weighted", "marginals", "sweep", "update",
        }
        for result in executed:
            assert plans(result.meta["metrics"]["counters"]) == 1, result.label
        assert results[-1].cache_hit
        assert plans(captured.counters) == len(executed)
        with capture() as again:
            repeated = engine.run(jobs)
        assert all(result.cache_hit for result in repeated)
        assert plans(again.counters) == 0
