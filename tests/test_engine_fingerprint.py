"""Canonical-fingerprint soundness and invariance (repro.engine.fingerprint)."""

import pytest

from repro.core.query import Atom, BCQ, Const, CustomQuery, Negation, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import (
    BatchEngine,
    CountJob,
    fingerprint_db,
    fingerprint_job,
    fingerprint_jobs,
    fingerprint_query,
)


def _db(null_a="n1", null_b="n2"):
    a, b = Null(null_a), Null(null_b)
    return IncompleteDatabase(
        [Fact("R", [a, b]), Fact("R", [b, a]), Fact("S", [a])],
        dom={a: ["x", "y"], b: ["y", "z"]},
    )


class TestQueryFingerprint:
    def test_variable_renaming_invariant(self):
        original = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        renamed = BCQ([Atom("R", ["u", "v"]), Atom("S", ["v"])])
        assert fingerprint_query(original) == fingerprint_query(renamed)

    def test_atom_order_invariant(self):
        one = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        two = BCQ([Atom("S", ["a"]), Atom("R", ["b", "a"])])
        assert fingerprint_query(one) == fingerprint_query(two)

    def test_equality_pattern_distinguished(self):
        repeated = BCQ([Atom("R", ["x", "x"])])
        distinct = BCQ([Atom("R", ["x", "y"])])
        assert fingerprint_query(repeated) != fingerprint_query(distinct)

    def test_constants_distinguished_by_type(self):
        as_int = BCQ([Atom("R", ["x", Const(1)])])
        as_str = BCQ([Atom("R", ["x", Const("1")])])
        assert fingerprint_query(as_int) != fingerprint_query(as_str)

    def test_ucq_disjunct_order_invariant(self):
        p = BCQ([Atom("R", ["x", "y"])])
        q = BCQ([Atom("S", ["x"])])
        assert fingerprint_query(UCQ([p, q])) == fingerprint_query(UCQ([q, p]))

    def test_negation_wraps_inner(self):
        inner = BCQ([Atom("R", ["x", "y"])])
        assert fingerprint_query(Negation(inner)) != fingerprint_query(inner)

    def test_custom_query_has_no_fingerprint(self):
        opaque = CustomQuery("opaque", ["R"], lambda db: True)
        assert fingerprint_query(opaque) is None
        assert fingerprint_query(Negation(opaque)) is None

    def test_none_is_the_trivial_query(self):
        assert fingerprint_query(None) == ("none",)


class TestDatabaseFingerprint:
    def test_null_renaming_invariant(self):
        assert fingerprint_db(_db("n1", "n2")) == fingerprint_db(_db("a", "b"))

    def test_swapped_labels_invariant(self):
        # Same structure with the two null labels exchanged.
        assert fingerprint_db(_db("n1", "n2")) == fingerprint_db(_db("n2", "n1"))

    def test_domains_matter(self):
        a = Null("n")
        small = IncompleteDatabase([Fact("R", [a])], dom={a: ["x"]})
        large = IncompleteDatabase([Fact("R", [a])], dom={a: ["x", "y"]})
        assert fingerprint_db(small) != fingerprint_db(large)

    def test_uniform_flag_matters(self):
        a = Null("n")
        facts = [Fact("R", [a])]
        uniform = IncompleteDatabase.uniform(facts, ["x", "y"])
        non_uniform = IncompleteDatabase(facts, dom={a: ["x", "y"]})
        assert fingerprint_db(uniform) != fingerprint_db(non_uniform)

    def test_structure_matters(self):
        a, b = Null("n1"), Null("n2")
        shared = IncompleteDatabase(
            [Fact("R", [a, a])], dom={a: ["x", "y"]}
        )
        split = IncompleteDatabase(
            [Fact("R", [a, b])], dom={a: ["x", "y"], b: ["x", "y"]}
        )
        assert fingerprint_db(shared) != fingerprint_db(split)


class TestJobFingerprint:
    def test_exact_methods_share_the_key(self):
        query = BCQ([Atom("R", ["x", "x"])])
        auto = CountJob("val", _db(), query, method="auto")
        lineage = CountJob("val", _db(), query, method="lineage")
        assert fingerprint_job(auto) == fingerprint_job(lineage)

    def test_problems_are_disjoint(self):
        query = BCQ([Atom("R", ["x", "x"])])
        val = CountJob("val", _db(), query)
        comp = CountJob("comp", _db(), query)
        assert fingerprint_job(val) != fingerprint_job(comp)

    def test_approx_parameters_are_part_of_the_key(self):
        query = BCQ([Atom("R", ["x", "y"])])
        base = CountJob("approx-val", _db(), query, seed=1, epsilon=0.2)
        other_seed = CountJob("approx-val", _db(), query, seed=2, epsilon=0.2)
        other_eps = CountJob("approx-val", _db(), query, seed=1, epsilon=0.3)
        assert fingerprint_job(base) != fingerprint_job(other_seed)
        assert fingerprint_job(base) != fingerprint_job(other_eps)

    def test_unseeded_approx_is_uncacheable(self):
        query = BCQ([Atom("R", ["x", "y"])])
        job = CountJob("approx-val", _db(), query, seed=None)
        assert fingerprint_job(job) is None

    def test_custom_query_job_is_uncacheable(self):
        opaque = CustomQuery("opaque", ["R"], lambda db: True)
        job = CountJob("val", _db(), opaque)
        assert fingerprint_job(job) is None

    def test_label_does_not_affect_the_key(self):
        query = BCQ([Atom("R", ["x", "y"])])
        assert fingerprint_job(
            CountJob("val", _db(), query, label="a")
        ) == fingerprint_job(CountJob("val", _db(), query, label="b"))


class TestValidation:
    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            CountJob("nope", _db(), BCQ([Atom("R", ["x", "y"])]))

    def test_val_requires_query(self):
        with pytest.raises(ValueError):
            CountJob("val", _db(), None)


class TestBatchFingerprint:
    """One canonical form per database object per ``fingerprint_jobs``."""

    @staticmethod
    def _every_kind():
        from repro.db.deltas import ResolveNull

        db, twin = _db("n1", "n2"), _db("a", "b")
        query = BCQ([Atom("R", ["x", "y"])])
        table = {Null("n1"): {"x": 2, "y": 1}}
        return [
            CountJob("val", db, query),
            CountJob("comp", db, query),
            CountJob("comp", db, None),
            CountJob("approx-val", db, query, seed=3, epsilon=0.2),
            CountJob("approx-val", db, query, seed=None),
            CountJob("val-weighted", db, query, weights=table),
            CountJob("val-weighted", twin, query, weights={Null("a"): {"x": 2, "y": 1}}),
            CountJob("sweep", db, query, weights=[table, {Null("n2"): {"z": 5}}]),
            CountJob("marginals", db, query, weights=table),
            CountJob("update", db, query, deltas=[ResolveNull(Null("n1"), "x")]),
            CountJob("val", db, CustomQuery("opaque", ["R"], lambda d: True)),
            CountJob("val", twin, query),
        ]

    def test_batch_matches_one_job_at_a_time(self):
        jobs = self._every_kind()
        digests = fingerprint_jobs(jobs)
        assert digests == [fingerprint_job(job) for job in jobs]
        assert digests[4] is None and digests[10] is None
        assert digests[5] == digests[6]  # the renamed twin, weights carried
        assert digests[0] == digests[11]
        assert len(set(digests) - {None}) == 8

    def test_engine_canonicalizes_each_database_once(self, monkeypatch):
        from repro.engine import fingerprint
        from repro.workloads.generators import scaling_hard_val_instance

        calls = []
        canonical_db = fingerprint._canonical_db

        def counted(db):
            calls.append(id(db))
            return canonical_db(db)

        monkeypatch.setattr(fingerprint, "_canonical_db", counted)
        jobs = []
        for size in (5, 6):
            db, query = scaling_hard_val_instance(size)
            null = db.nulls[0]
            weights = {null: {value: 2 for value in db.domain_of(null)}}
            jobs += [
                CountJob("val", db, query),
                CountJob("comp", db, query),
                CountJob("val-weighted", db, query, weights=weights),
            ]
        results = BatchEngine(workers=0).run(jobs)
        assert all(result.ok for result in results)
        assert sorted(calls) == sorted({id(job.db) for job in jobs})
