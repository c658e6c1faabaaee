"""The d-DNNF circuit layer: trace recording, passes, store, CLI surface.

Circuit-level properties are checked against brute-force enumeration of
random CNFs (the circuit must reproduce the exact model count of the
search it recorded, bit for bit); the engine tests pin the amortization
contract — one instance, many question modes, one compilation — and the
cache-bound semantics (evicting a circuit drops the answers derived from
it).  Instance-level cross-validation lives in
``test_circuit_crossval.py``.
"""

import json
import random
from fractions import Fraction

import pytest

from repro.cli import main
from repro.complexity.cnf import CNF, count_models_brute
from repro.compile import ValuationCircuit
from repro.compile.circuit import DDNNF, draw_index
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.sharpsat import ModelCounter
from repro.engine import BatchEngine, CountCache, CountJob
from repro.workloads.generators import scaling_hard_val_instance


def random_cnf(rng, max_variables=9, max_clauses=12):
    n = rng.randint(1, max_variables)
    cnf = CNF(n)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        cnf.add_clause(
            v if rng.random() < 0.5 else -v for v in variables
        )
    return cnf


def traced_circuit(cnf, projection=None):
    trace = TraceBuilder()
    counter = ModelCounter(cnf, projection=projection, trace=trace)
    count = counter.count()
    assert counter.trace_root is not None
    circuit = trace.build(
        counter.trace_root, cnf.num_variables, countable=projection
    )
    return count, circuit


class TestTraceEqualsSearch:
    """The recorded circuit reproduces the search count bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    def test_full_counting(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng)
        brute = count_models_brute(cnf)
        plain = ModelCounter(cnf).count()
        traced, circuit = traced_circuit(cnf)
        assert plain == brute
        assert traced == brute
        assert circuit.count() == brute

    @pytest.mark.parametrize("seed", range(40, 70))
    def test_projected_counting(self, seed):
        rng = random.Random(seed)
        cnf = random_cnf(rng)
        if cnf.num_variables < 2:
            return
        projection = rng.sample(
            range(1, cnf.num_variables + 1),
            rng.randint(1, cnf.num_variables),
        )
        brute = count_models_brute(cnf, projection=projection)
        traced, circuit = traced_circuit(cnf, projection=projection)
        assert traced == brute
        assert circuit.count() == brute

    def test_unsatisfiable_formula(self):
        cnf = CNF(2, [(1,), (-1,)])
        count, circuit = traced_circuit(cnf)
        assert count == 0 == circuit.count()

    def test_empty_formula_counts_free_space(self):
        count, circuit = traced_circuit(CNF(5))
        assert count == 32 == circuit.count()

    def test_cache_hits_become_shared_nodes(self):
        # The cycle instance re-derives the same residual components from
        # both sides; every cache hit reuses a node, so the DAG is
        # smaller than a hit-free tree would be.
        from repro.compile.encode import compile_valuation_cnf

        encoding = compile_valuation_cnf(*scaling_hard_val_instance(10))
        trace = TraceBuilder()
        counter = ModelCounter(encoding.cnf, trace=trace)
        count = counter.count()
        assert counter.cache_hits > 10
        circuit = trace.build(
            counter.trace_root, encoding.cnf.num_variables
        )
        assert circuit.count() == count
        assert circuit.num_nodes <= len(counter._cache) * 4


class TestPasses:
    """Weighted evaluation, literal counts and sampling on one circuit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_literal_counts_match_brute(self, seed):
        rng = random.Random(100 + seed)
        cnf = random_cnf(rng, max_variables=7)
        count, circuit = traced_circuit(cnf)
        counts = circuit.literal_counts()
        models = [
            bits
            for bits in _assignments(cnf.num_variables)
            if cnf.satisfied_by(bits)
        ]
        for variable in range(1, cnf.num_variables + 1):
            expected = sum(1 for bits in models if bits[variable - 1])
            assert counts[variable] == expected
            assert counts[-variable] == count - expected

    @pytest.mark.parametrize("seed", range(12))
    def test_weighted_evaluation_matches_brute(self, seed):
        rng = random.Random(200 + seed)
        cnf = random_cnf(rng, max_variables=7)
        _count, circuit = traced_circuit(cnf)
        weights = {
            v: (rng.randint(0, 3), rng.randint(1, 3))
            for v in range(1, cnf.num_variables + 1)
        }
        expected = 0
        for bits in _assignments(cnf.num_variables):
            if cnf.satisfied_by(bits):
                product = 1
                for v in range(1, cnf.num_variables + 1):
                    product *= weights[v][0] if bits[v - 1] else weights[v][1]
                expected += product
        assert circuit.evaluate(weights) == expected

    def test_smoothness_invariant(self):
        rng = random.Random(7)
        cnf = random_cnf(rng, max_variables=8)
        count, circuit = traced_circuit(cnf)
        counts = circuit.literal_counts()
        for variable in circuit.countable:
            assert counts[variable] + counts[-variable] == count

    def test_weight_outside_countable_rejected(self):
        cnf = CNF(3, [(1, 2)])
        _count, circuit = traced_circuit(cnf, projection=[1, 2])
        with pytest.raises(ValueError):
            circuit.evaluate({3: (2, 1)})

    def test_sampler_covers_exactly_the_models(self):
        cnf = CNF(4, [(1, 2), (-2, 3)])
        count, circuit = traced_circuit(cnf)
        models = {
            bits
            for bits in _assignments(4)
            if cnf.satisfied_by(bits)
        }
        sampler = circuit.sampler()
        rng = random.Random(99)
        seen = set()
        for _ in range(600):
            assignment = sampler.sample(rng)
            bits = tuple(assignment[v] for v in range(1, 5))
            assert bits in models
            seen.add(bits)
        assert seen == models

    def test_sampler_refuses_unsatisfiable(self):
        cnf = CNF(1, [(1,), (-1,)])
        _count, circuit = traced_circuit(cnf)
        with pytest.raises(ValueError):
            circuit.sampler()

    def test_draw_index_exact_for_fractions(self):
        rng = random.Random(5)
        weights = [Fraction(1, 3), Fraction(2, 3), 0]
        draws = [draw_index(rng, weights) for _ in range(300)]
        assert set(draws) <= {0, 1}
        assert 60 < draws.count(0) < 140  # expectation 100

    def test_structure_and_memory_accounting(self):
        db, query = scaling_hard_val_instance(8)
        compiled = ValuationCircuit(db, query)
        circuit = compiled.circuit
        assert isinstance(circuit, DDNNF)
        assert circuit.num_nodes > 2
        assert circuit.num_edges > 0
        assert circuit.memory_bytes() > 0
        assert compiled.memory_bytes() > circuit.memory_bytes()
        assert repr(circuit).startswith("DDNNF(")


class TestEngineCircuitStore:
    """One instance, many modes, one compilation — and bounded memory."""

    def setup_method(self):
        self.db, self.query = scaling_hard_val_instance(7)
        null = self.db.nulls[0]
        self.weights = {
            null: {
                value: 2 if position == 0 else 1
                for position, value in enumerate(
                    sorted(self.db.domain_of(null), key=repr)
                )
            }
        }

    def modes(self):
        return [
            CountJob("val", self.db, self.query, method="circuit", label="c"),
            CountJob(
                "val-weighted", self.db, self.query,
                weights=self.weights, label="w",
            ),
            CountJob("marginals", self.db, self.query, label="m"),
        ]

    def test_three_modes_compile_once(self):
        cache = CountCache()
        engine = BatchEngine(workers=0, cache=cache)
        results = engine.run(self.modes())
        assert all(result.ok for result in results)
        stats = cache.stats()
        assert stats["circuits"] == 1
        assert stats["circuit_misses"] == 1
        assert stats["circuit_hits"] == 2

    def test_circuit_problems_bypass_worker_pool(self):
        # Circuit jobs must amortize through the parent's store even when
        # a pool is configured.
        cache = CountCache()
        engine = BatchEngine(workers=4, cache=cache)
        results = engine.run(self.modes())
        assert all(result.ok for result in results)
        assert cache.stats()["circuits"] == 1

    def test_weighted_job_reports_circuit_method(self):
        engine = BatchEngine(workers=0)
        [result] = engine.run([self.modes()[1]])
        assert result.method == "circuit"
        assert result.count == ValuationCircuit(
            self.db, self.query
        ).weighted_count(self.weights)

    def test_marginals_job_record_is_json_ready(self):
        engine = BatchEngine(workers=0)
        [result] = engine.run([self.modes()[2]])
        assert result.ok
        json.dumps(result.to_dict())
        exact = ValuationCircuit(self.db, self.query).marginals()
        null = self.db.nulls[0]
        value = sorted(self.db.domain_of(null), key=repr)[0]
        assert result.count[repr(null)][repr(value)] == pytest.approx(
            float(exact[null][value])
        )

    def test_answers_outlive_their_evicted_circuit(self):
        other_db, other_query = scaling_hard_val_instance(
            7, seed=4, chord_probability=0.2
        )
        size = max(
            ValuationCircuit(self.db, self.query).memory_bytes(),
            ValuationCircuit(other_db, other_query).memory_bytes(),
        )
        cache = CountCache(max_circuit_bytes=size + 100)
        engine = BatchEngine(workers=0, cache=cache)
        results = engine.run(
            [
                CountJob("marginals", self.db, self.query, label="a"),
                CountJob("marginals", other_db, other_query, label="b"),
            ]
        )
        assert all(result.ok for result in results)
        stats = cache.stats()
        assert stats["circuits"] == 1
        assert stats["circuit_evictions"] == 1
        # The bound covers circuits only: both answers stay memoized,
        # instance a's too, though its circuit is gone.
        assert len(cache) == 2
        again = engine.run(
            [
                CountJob("marginals", self.db, self.query, label="a2"),
                CountJob("marginals", other_db, other_query, label="b2"),
            ]
        )
        assert [result.cache_hit for result in again] == [True, True]
        assert [result.count for result in again] == [
            result.count for result in results
        ]
        assert cache.stats()["circuit_evictions"] == 1

    def test_oversized_circuit_is_not_stored(self):
        cache = CountCache(max_circuit_bytes=1)
        engine = BatchEngine(workers=0, cache=cache)
        # A duplicate of each mode: served from its representative's
        # result, it is a memo hit even though the bounded cache refused
        # to keep an answer whose circuit it did not store.
        results = engine.run(self.modes() + self.modes())
        assert all(result.ok for result in results)
        assert cache.stats()["circuits"] == 0
        assert [result.cache_hit for result in results] == [False] * 3 + [True] * 3
        assert sum(result.cache_hit for result in results) == cache.hits
        assert cache.misses == len(self.modes())

    def test_weights_rejected_on_plain_problems(self):
        with pytest.raises(ValueError):
            CountJob("val", self.db, self.query, weights=self.weights)

    def test_non_circuit_resolutions_stay_memoizable(self):
        # A weighted job on the Theorem 3.6 cell resolves to the closed
        # form — no circuit is compiled, so the memo entry must not be
        # instance-linked (a link to an absent circuit would make the
        # cache refuse to store the answer).
        from repro.core.query import Atom, BCQ
        from repro.workloads.generators import (
            scaling_single_occurrence_instance,
        )

        db, query = scaling_single_occurrence_instance(3, seed=1)
        job = CountJob("val-weighted", db, query, label="w")
        cache = CountCache()
        engine = BatchEngine(workers=0, cache=cache)
        [first] = engine.run([job])
        assert first.ok and first.method == "single-occurrence"
        [second] = engine.run([CountJob("val-weighted", db, query)])
        assert second.cache_hit
        # method='circuit' on an opaque query degrades to brute: same rule.
        from repro.core.query import CustomQuery

        opaque = CountJob(
            "val", db, CustomQuery("t", ["R"], lambda database: True),
            method="circuit",
        )
        [degraded] = engine.run([opaque])
        assert degraded.ok and degraded.method == "brute"
        assert cache.stats()["circuits"] == 0

    def test_poisoned_jobs_stay_per_job_errors(self):
        # Batch isolation: a weights table naming an unknown null, or a
        # method invalid for the weighted problem, must surface in that
        # job's result record — never crash the whole batch (fingerprint
        # and partition paths both run before the solver catches).
        from repro.db.terms import Null

        bogus_weights = CountJob(
            "val-weighted", self.db, self.query,
            weights={Null("not-a-null"): {"c0": 1}}, label="bad-null",
        )
        bogus_method = CountJob(
            "val-weighted", self.db, self.query,
            method="lineage", label="bad-method",
        )
        good = CountJob("val", self.db, self.query, label="good")
        for workers in (0, 2):
            engine = BatchEngine(workers=workers)
            results = engine.run([bogus_weights, bogus_method, good])
            assert not results[0].ok and "not-a-null" in results[0].error
            assert not results[1].ok and "lineage" in results[1].error
            assert results[2].ok

    def test_stats_shape(self):
        stats = CountCache().stats()
        for key in (
            "entries", "hits", "misses", "hit_rate", "circuits",
            "circuit_bytes", "circuit_hits", "circuit_misses",
            "circuit_evictions", "max_circuit_bytes",
        ):
            assert key in stats


class TestCliSurface:
    @pytest.fixture
    def db_file(self, tmp_path):
        path = tmp_path / "instance.idb"
        path.write_text(
            "domain a b c\nR(?x, ?y)\nR(?y, ?x)\n", encoding="utf-8"
        )
        return str(path)

    def test_count_method_circuit(self, db_file, capsys):
        assert main(
            [
                "count", "--mode", "val", "--db", db_file,
                "--query", "R(u,u)", "--method", "circuit", "--json",
            ]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["count"] == 3
        assert record["method"] == "circuit"

    def test_explain_marginals(self, db_file, capsys):
        assert main(
            [
                "explain", "--db", db_file, "--query", "R(u,u)",
                "--marginals", "--json",
            ]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["count"] == 3
        assert record["circuit_nodes"] > 0
        for table in record["marginals"].values():
            assert sum(table.values()) == pytest.approx(1.0)

    def test_explain_weighted_marginals(self, db_file, capsys):
        assert main(
            [
                "explain", "--db", db_file, "--query", "R(u,u)",
                "--marginals", "--json",
                "--weights", '{"x": {"a": 3, "b": 1, "c": 1}}',
            ]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        table = record["marginals"]["⊥x"]
        assert table["'a'"] == pytest.approx(0.6)

    def test_explain_text_output(self, db_file, capsys):
        assert main(
            ["explain", "--db", db_file, "--query", "R(u,u)"]
        ) == 0
        out = capsys.readouterr().out
        assert "circuit:" in out
        assert "count:" in out

    def test_explain_comp_rejects_marginals(self, db_file, capsys):
        assert main(
            ["explain", "--db", db_file, "--mode", "comp", "--marginals"]
        ) == 2

    def test_explain_weights_require_marginals(self, db_file, capsys):
        assert main(
            [
                "explain", "--db", db_file, "--query", "R(u,u)",
                "--weights", '{"x": {"a": 2, "b": 1, "c": 1}}',
            ]
        ) == 2
        assert "--marginals" in capsys.readouterr().err

    def test_explain_zero_weight_marginals_fail_cleanly(self, db_file, capsys):
        assert main(
            [
                "explain", "--db", db_file, "--query", "R(u,u)",
                "--marginals",
                "--weights", '{"x": {"a": 0, "b": 0, "c": 0}}',
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "nonzero weight" in err

    def test_batch_cache_mb_and_mixed_modes(self, db_file, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "\n".join(
                [
                    json.dumps(
                        {
                            "problem": "val", "db": "instance.idb",
                            "query": "R(u,u)", "method": "circuit",
                            "label": "count",
                        }
                    ),
                    json.dumps(
                        {
                            "problem": "val-weighted", "db": "instance.idb",
                            "query": "R(u,u)",
                            "weights": {"x": {"a": 2, "b": 1, "c": 1}},
                            "label": "weighted",
                        }
                    ),
                    json.dumps(
                        {
                            "problem": "marginals", "db": "instance.idb",
                            "query": "R(u,u)", "label": "marginals",
                        }
                    ),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(
            [
                "batch", "--jobs", str(jobs), "--workers", "0",
                "--cache-mb", "16",
            ]
        ) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert [line["count"] for line in lines[:2]] == [3, 4]
        assert lines[2]["count"]["⊥x"]["'a'"] == pytest.approx(1 / 3)
        assert "circuits" in captured.err


def _assignments(num_variables):
    from itertools import product

    return product((False, True), repeat=num_variables)
