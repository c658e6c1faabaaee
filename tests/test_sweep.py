"""The vectorized sweep surface: batched circuit passes, the ``sweep``
planner problem, engine jobs, and the ``solve`` facade.

The load-bearing contract: every batched pass is a *drop-in* for looping
its scalar counterpart — bit-identical for int weights (the int64 and
object columns both produce Python ints), exactly value-equal for
Fraction weights.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from repro.compile.backend import CompletionCircuit, ValuationCircuit
from repro.core.query import Atom, BCQ
from repro.engine import BatchEngine, CountJob, execute_job
from repro.engine.fingerprint import fingerprint_job
from repro.engine.jsonl import (
    JobSyntaxError,
    read_jobs,
    read_results,
    write_results,
)
from repro.exact.dispatch import (
    Answer,
    count_completions,
    count_valuations,
    count_valuations_sweep,
    count_valuations_weighted,
    solve,
)
from repro.exact import planner
from repro.io.databases import parse_database
from repro.io.queries import parse_query
from repro.obs import add_sink, remove_sink
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_hard_val_instance,
    scaling_single_occurrence_instance,
)

QUERY = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])


def _random_instance(seed):
    db = random_incomplete_db(
        {"R": 2, "S": 1}, seed=seed, num_nulls=4, domain_size=3
    )
    return db, QUERY


def _int_rows(db, rng, count, low=-3, high=6):
    """Weight rows covering negatives, zeros, None and {} rows."""
    rows = []
    for position in range(count):
        if position % 7 == 5:
            rows.append(None)
            continue
        if position % 7 == 6:
            rows.append({})
            continue
        rows.append({
            null: {
                value: rng.randrange(low, high)
                for value in sorted(db.domain_of(null), key=repr)
            }
            for null in db.nulls
        })
    return rows


class TestBatchedValuationPasses:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_naming_some_nulls_match_brute_force(self, seed):
        # Each row names its own subset of nulls (int or Fraction
        # weights); the nulls a row leaves out weigh 1 per value and fold
        # into one constant factor of its total.
        from repro.exact.brute import count_valuations_weighted_brute

        db, query = _random_instance(seed)
        compiled = ValuationCircuit(db, query)
        rng = random.Random(seed)
        rows = []
        for position in range(8):
            named = [null for null in db.nulls if rng.random() < 0.5]
            rows.append({
                null: {
                    value: Fraction(rng.randrange(0, 5), rng.randrange(1, 4))
                    if position % 2 else rng.randrange(0, 5)
                    for value in db.domain_of(null)
                }
                for null in named
            })
        assert compiled.weighted_count_many(rows) == [
            count_valuations_weighted_brute(db, query, row) for row in rows
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_int_weights_bit_identical(self, seed):
        db, query = _random_instance(seed)
        compiled = ValuationCircuit(db, query)
        rows = _int_rows(db, random.Random(seed), 12)
        batched = compiled.weighted_count_many(rows)
        looped = [compiled.weighted_count(row) for row in rows]
        assert batched == looped
        for value in batched:
            assert isinstance(value, int)

    def test_big_int_weights_use_exact_columns(self):
        db, query = _random_instance(9)
        compiled = ValuationCircuit(db, query)
        rng = random.Random(9)
        # Magnitudes far past int64: the object-column path must carry
        # exact Python ints end to end.
        rows = [
            {
                null: {
                    value: rng.randrange(1, 10) << 40
                    for value in sorted(db.domain_of(null), key=repr)
                }
                for null in db.nulls
            }
            for _ in range(6)
        ]
        batched = compiled.weighted_count_many(rows)
        looped = [compiled.weighted_count(row) for row in rows]
        assert batched == looped
        for value in batched:
            assert isinstance(value, int)

    def test_fraction_weights_exactly_rational(self):
        db, query = _random_instance(4)
        compiled = ValuationCircuit(db, query)
        rng = random.Random(4)
        rows = [
            {
                null: {
                    value: Fraction(rng.randrange(0, 9), rng.randrange(1, 7))
                    for value in sorted(db.domain_of(null), key=repr)
                }
                for null in db.nulls
            }
            for _ in range(8)
        ]
        batched = compiled.weighted_count_many(rows)
        looped = [compiled.weighted_count(row) for row in rows]
        # Exact rational equality; a scalar-side zero may be int 0 where
        # the batched column holds Fraction(0, 1), so compare by value.
        assert len(batched) == len(looped)
        for left, right in zip(batched, looped):
            assert left == right

    def test_marginals_many_matches_scalar(self):
        db, query = _random_instance(5)
        compiled = ValuationCircuit(db, query)
        rng = random.Random(5)
        rows = [None] + [
            {
                null: {
                    value: rng.randrange(1, 5)
                    for value in sorted(db.domain_of(null), key=repr)
                }
                for null in db.nulls
            }
            for _ in range(4)
        ]
        batched = compiled.marginals_many(rows)
        looped = [compiled.marginals(row) for row in rows]
        assert batched == looped

    def test_empty_batch(self):
        db, query = _random_instance(6)
        compiled = ValuationCircuit(db, query)
        assert compiled.weighted_count_many([]) == []
        assert compiled.marginals_many([]) == []


class TestBatchedCompletionPasses:
    """The projected (#Comp) circuit's batched passes."""

    @pytest.mark.parametrize("seed", [0, 2])
    def test_weighted_count_many_matches_scalar(self, seed):
        db, query = _random_instance(seed)
        compiled = CompletionCircuit(db, query)
        rng = random.Random(seed)
        facts = list(compiled._variables.facts())
        rows = [None, {}] + [
            {fact: rng.randrange(-2, 5) for fact in facts[::2]}
            for _ in range(6)
        ]
        batched = compiled.weighted_count_many(rows)
        looped = [compiled.weighted_count(row) for row in rows]
        assert batched == looped
        assert batched[0] == compiled.count()

    def test_fact_marginals_many_matches_scalar(self):
        db, query = _random_instance(3)
        compiled = CompletionCircuit(db, query)
        rng = random.Random(3)
        facts = list(compiled._variables.facts())
        rows = [None] + [
            {fact: rng.randrange(1, 4) for fact in facts}
            for _ in range(4)
        ]
        batched = compiled.fact_marginals_many(rows)
        assert batched[0] == compiled.fact_marginals()
        for row, table in zip(rows, batched):
            # Scalar reference: one weighted downward pass per row.
            weights = compiled._fact_variable_weights(row)
            counts = compiled.circuit.literal_counts(weights)
            anchor = compiled._variables.var(facts[0])
            total = counts[anchor] + counts[-anchor]
            for fact in facts:
                expected = Fraction(
                    counts[compiled._variables.var(fact)]
                ) / Fraction(total)
                assert table[fact] == expected


class TestSolveFacade:
    def test_wrappers_delegate_to_solve(self):
        db, query = _random_instance(7)
        assert count_valuations(db, query) == solve("val", db, query).count
        assert count_completions(db, query) == solve("comp", db, query).count
        weights = {
            null: {value: 2 for value in db.domain_of(null)}
            for null in db.nulls
        }
        assert (
            count_valuations_weighted(db, query, weights=weights)
            == solve("val-weighted", db, query, weights=weights).count
        )

    def test_answer_structure(self):
        db, query = _random_instance(8)
        answer = solve("val", db, query)
        assert isinstance(answer, Answer)
        assert answer.problem == "val"
        assert answer.plan.chosen == answer.method
        assert answer.seconds >= 0.0
        assert set(answer.stats) <= {"phases", "counters"}

    def test_sweep_matches_looped_weighted_counts(self):
        db, query = scaling_hard_val_instance(7, seed=7)
        rng = random.Random(7)
        rows = [None] + [
            {
                null: {
                    value: rng.randrange(1, 5)
                    for value in sorted(db.domain_of(null), key=repr)
                }
                for null in db.nulls
            }
            for _ in range(5)
        ]
        looped = [
            count_valuations_weighted(db, query, weights=row) for row in rows
        ]
        for method in ("auto", "circuit", "brute"):
            assert count_valuations_sweep(
                db, query, rows, method=method
            ) == looped

    def test_sweep_single_occurrence_cell(self):
        db = parse_database("domain a b c\nR(?n1, a)\nS(?n2)")
        query = parse_query("R(x, y), S(z)")
        assert planner.plan("sweep", db, query, "auto").chosen == "single-occurrence"
        rows = [
            None,
            {
                null: {
                    value: 1 + position
                    for position, value in enumerate(
                        sorted(db.domain_of(null), key=repr)
                    )
                }
                for null in db.nulls
            },
        ]
        looped = [
            count_valuations_weighted(db, query, weights=row) for row in rows
        ]
        assert count_valuations_sweep(db, query, rows) == looped
        assert count_valuations_sweep(
            db, query, rows, method="circuit"
        ) == looped

    @pytest.mark.parametrize("table", ["none", "int", "fraction"])
    @pytest.mark.parametrize("cell, method", [
        ("single-occurrence", "auto"),
        ("single-occurrence", "single-occurrence"),
        ("single-occurrence", "circuit"),
        ("single-occurrence", "brute"),
        ("hard", "auto"),
        ("hard", "circuit"),
        ("hard", "brute"),
    ])
    def test_val_weighted_is_the_one_row_sweep(self, cell, method, table):
        db, query = (
            scaling_single_occurrence_instance(3, seed=1)
            if cell == "single-occurrence"
            else scaling_hard_val_instance(6, seed=1)
        )
        rng = random.Random(5)
        weights = None if table == "none" else {
            null: {
                value: (
                    rng.randrange(1, 7) if table == "int"
                    else Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
                )
                for value in sorted(db.domain_of(null), key=repr)
            }
            for null in db.nulls
        }
        records: list = []
        add_sink(records.append)
        try:
            single = solve(
                "val-weighted", db, query, method=method, weights=weights
            )
        finally:
            remove_sink(records.append)
        swept = solve("sweep", db, query, method=method, weights=[weights])
        assert single.count == swept.count[0]
        assert single.method == swept.method
        if weights is None:
            assert single.count == count_valuations(db, query)
        # The plan, event and span report the problem asked, not ``sweep``.
        assert single.plan.problem == "val-weighted"
        assert {
            (record["name"], record["problem"])
            for record in records
            if record["name"] in ("planner.decision", "planner.run")
        } == {
            ("planner.decision", "val-weighted"),
            ("planner.run", "val-weighted"),
        }

    @pytest.mark.parametrize("cell, problem, shape, message", [
        ("single-occurrence", "val", "table", "weights only apply"),
        ("single-occurrence", "comp", "table", "weights only apply"),
        ("single-occurrence", "sweep", "table", "a sequence"),
        ("single-occurrence", "sweep", "none", "a sequence"),
        ("hard", "sweep", "partial", "a sequence"),
    ])
    def test_weights_the_problem_cannot_use_are_rejected(
        self, cell, problem, shape, message
    ):
        """``solve`` rejects weights its problem cannot use, as an engine
        job does: a ``val`` table is not silently ignored, and a lone
        table is not read as ``sweep`` rows (one per null)."""
        if cell == "single-occurrence":
            db, query = scaling_single_occurrence_instance(3, seed=1)
        else:
            db, _ = scaling_hard_val_instance(6, seed=1)
            query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        nulls = list(db.nulls)[:3] if shape == "partial" else db.nulls
        table = {null: {value: 2 for value in db.domain_of(null)} for null in nulls}
        weights = None if shape == "none" else table
        with pytest.raises(ValueError, match=message):
            solve(problem, db, query, weights=weights)
        with pytest.raises(ValueError, match=message):
            CountJob(problem, db, query, weights=weights)

    def test_plan_sweep_reports_problem(self):
        db, query = _random_instance(1)
        built = planner.plan("sweep", db, query)
        assert built.problem == "sweep"
        assert built.chosen is not None


class TestEngineSweepJobs:
    def test_job_validation(self):
        db, query = _random_instance(0)
        with pytest.raises(ValueError):
            CountJob("sweep", db, query, weights=None)
        with pytest.raises(ValueError):
            CountJob(
                "sweep", db, query,
                weights={db.nulls[0]: {next(iter(db.domain_of(db.nulls[0]))): 1}},
            )
        job = CountJob("sweep", db, query, weights=[None, {}])
        assert isinstance(job.weights, tuple)

    def test_execute_and_dedup(self):
        db, query = _random_instance(2)
        rng = random.Random(2)
        rows = _int_rows(db, rng, 5, low=1, high=4)
        job = CountJob("sweep", db, query, weights=rows, label="a")
        twin = CountJob("sweep", db, query, weights=list(rows), label="b")
        assert fingerprint_job(job) == fingerprint_job(twin)
        result = execute_job(job)
        assert result.ok
        assert result.method == planner.plan("sweep", db, query).chosen
        assert result.count == [
            count_valuations_weighted(db, query, weights=row) for row in rows
        ]
        results = BatchEngine(workers=0).run([job, twin])
        assert results[0].count == results[1].count == result.count
        assert results[1].cache_hit

    def test_empty_sweep_compiles_nothing(self):
        """A sweep of no rows is ``[]`` without fetching or compiling the
        circuit its plan names."""
        from repro.engine import CountCache

        db, query = scaling_hard_val_instance(10)
        assert planner.plan("sweep", db, query).chosen == "circuit"
        store = CountCache()
        answer = solve("sweep", db, query, weights=[], store=store)
        assert (answer.count, answer.method) == ([], "circuit")
        engine = BatchEngine(workers=0)
        result = engine.run([CountJob("sweep", db, query, weights=())])[0]
        assert (result.count, result.method, result.error) == (
            [], "circuit", None
        )
        for cache in (store, engine.cache):
            stats = cache.stats()
            assert (stats["circuits"], stats["circuit_misses"]) == (0, 0)

    def test_jsonl_round_trip(self):
        line = json.dumps({
            "problem": "sweep",
            "db_text": "domain a b\nR(?n1, a)\nS(?n1)",
            "query": "R(x, y), S(x)",
            "weights": [{"n1": {"a": 3, "b": 1}}, None, {}],
            "label": "sweep-job",
        })
        jobs = list(read_jobs(io.StringIO(line)))
        assert jobs[0].problem == "sweep"
        assert len(jobs[0].weights) == 3
        result = execute_job(jobs[0])
        assert result.ok
        buffer = io.StringIO()
        write_results(buffer, [result])
        buffer.seek(0)
        restored = list(read_results(buffer))
        assert restored[0].count == result.count
        assert restored[0].problem == "sweep"

    def test_jsonl_rejects_non_array_sweep_weights(self):
        line = json.dumps({
            "problem": "sweep",
            "db_text": "domain a b\nR(?n1, a)",
            "query": "R(x, y)",
            "weights": {"n1": {"a": 1, "b": 1}},
        })
        with pytest.raises(JobSyntaxError):
            list(read_jobs(io.StringIO(line)))


class TestSweepCli:
    DB_TEXT = "domain a b\nR(?n1, a)\nS(?n1)\n"

    def _db_file(self, tmp_path):
        path = tmp_path / "sweep.idb"
        path.write_text(self.DB_TEXT, encoding="utf-8")
        return str(path)

    def test_inline_weights_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--db", self._db_file(tmp_path),
            "--query", "R(x, y), S(x)",
            "--weights", '[{"n1": {"a": 3, "b": 1}}, null]',
            "--json",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        db = parse_database(self.DB_TEXT)
        query = parse_query("R(x, y), S(x)")
        null = db.nulls[0]
        by_text = {str(v): v for v in db.domain_of(null)}
        expected = [
            count_valuations_weighted(
                db, query,
                weights={null: {by_text["a"]: 3, by_text["b"]: 1}},
            ),
            count_valuations_weighted(db, query),
        ]
        assert record["counts"] == expected
        assert record["rows"] == 2

    def test_weights_jsonl_file(self, tmp_path, capsys):
        from repro.cli import main

        rows_path = tmp_path / "rows.jsonl"
        rows_path.write_text(
            '{"n1": {"a": 2, "b": 1}}\nnull\n{}\n', encoding="utf-8"
        )
        code = main([
            "sweep", "--db", self._db_file(tmp_path),
            "--query", "R(x, y), S(x)",
            "--weights-jsonl", str(rows_path),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_rejects_unknown_null(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--db", self._db_file(tmp_path),
            "--query", "R(x, y), S(x)",
            "--weights", '[{"nope": {"a": 1}}]',
        ])
        assert code == 2
