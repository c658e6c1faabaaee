"""Canonical-fingerprint soundness and invariance (repro.engine.fingerprint)."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.core.query import Atom, BCQ, Const, CustomQuery, Negation, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import (
    BatchEngine,
    CountJob,
    fingerprint,
    fingerprint_db,
    fingerprint_instance,
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

    def test_engine_canonicalizes_each_database_once(self):
        """One canonical form per database content: across the jobs of a
        batch, across batches, and across equal copies of a database."""
        from repro.engine import fingerprint
        from repro.workloads.generators import scaling_hard_val_instance

        def batch():
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
            return jobs

        fingerprint._canonical_text.cache_clear()
        engine = BatchEngine(workers=0)
        results = engine.run(batch())
        assert all(result.ok for result in results)
        assert fingerprint._canonical_text.cache_info().misses == 2
        again = engine.run(batch())
        assert all(result.cache_hit for result in again)
        assert fingerprint._canonical_text.cache_info().misses == 2


# ---------------------------------------------------------------------------
# weight tables written as text, against the form-then-repr oracle
# ---------------------------------------------------------------------------


def _weights_form(weights, index):
    """The weight-table form the fingerprints were first defined by (the
    oracle): ``repr`` of it is the text ``fingerprint._weights_text``
    writes directly."""
    if not weights:
        return ()
    items = []
    for null, table in weights.items():
        if index is None:
            key: object = repr(null.label)
        elif null in index:
            key = index[null]
        else:
            key = ("unknown", repr(null.label))
        inner = tuple(
            sorted(
                (fingerprint._constant_key(value), repr(weight))
                for value, weight in dict(table).items()
            )
        )
        items.append((key, inner))
    return tuple(sorted(items, key=repr))


def _oracle_fingerprint(job):
    """``fingerprint_job`` of a weighted job by the form-then-repr route."""
    import hashlib

    if job.problem == "marginals":
        form = fingerprint._exact_db_form(job.db)
        extras: tuple = (_weights_form(job.weights, None),)
    else:
        form, index = fingerprint._canonical_db(job.db)
        if job.problem == "val-weighted":
            extras = (_weights_form(job.weights, index),)
        else:
            extras = (tuple(_weights_form(row, index) for row in job.weights),)
    payload = repr((job.problem, extras, fingerprint_query(job.query), form))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _weight(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(0, 4)
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    if kind == 2:
        return round(rng.uniform(-3, 3), rng.randint(0, 4))
    if kind == 3:
        return -rng.randint(1, 9)
    # Equal weights spelled differently must keep their own text.
    return rng.choice([1, 1.0, True, Fraction(1), 0, 0.0, -0.0, False])


def _table(rng, db):
    """A partial table over ``db``'s nulls, sometimes naming a null the
    database does not have."""
    table = {}
    for null in db.nulls:
        if rng.random() < 0.3:
            continue
        values = sorted(db.domain_of(null), key=repr)
        table[null] = {value: _weight(rng) for value in values if rng.random() < 0.8}
    if rng.random() < 0.3:
        table[Null("zz%d" % rng.randrange(3))] = {"a": rng.randint(1, 3)}
    return table


def _weighted_jobs(seed, count):
    rng = random.Random(seed)
    query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
    jobs = []
    while len(jobs) < count:
        nulls = [Null("n%d" % i if rng.random() < 0.7 else i) for i in range(rng.randint(2, 5))]
        terms = nulls + ["a", "b", 1, 2.5]
        facts = [
            Fact("R", [rng.choice(terms), rng.choice(terms)])
            for _ in range(rng.randint(2, 6))
        ] + [Fact("S", [rng.choice(nulls)])]
        occurring = {t for fact in facts for t in fact.terms if isinstance(t, Null)}
        dom = {
            null: rng.sample(["a", "b", "c", 1, 2, 1.0, Fraction(1, 2)], rng.randint(1, 4))
            for null in occurring
        }
        db = IncompleteDatabase(facts, dom=dom)
        for problem in ("val-weighted", "marginals"):
            weights = None if rng.random() < 0.1 else _table(rng, db)
            jobs.append(CountJob(problem, db, query, weights=weights))
        rows = [
            None if rng.random() < 0.15 else _table(rng, db)
            for _ in range(rng.choice([0, 1, 1, 2, 3, 5]))
        ]
        jobs.append(CountJob("sweep", db, query, weights=rows))
    return jobs


class TestWeightsText:
    """The written text is byte for byte the ``repr`` of the form: int,
    Fraction, float and negative weights, equal weights of other types,
    partial tables, unknown nulls, ``None`` rows, one-row and empty
    sweeps."""

    @pytest.mark.parametrize("seed", range(3))
    def test_fingerprints_match_the_oracle(self, seed):
        jobs = _weighted_jobs(seed, 300)
        kinds = Counter(job.problem for job in jobs)
        assert min(kinds.values()) >= 100
        sizes = Counter(len(job.weights) for job in jobs if job.problem == "sweep")
        assert sizes[0] and sizes[1]
        for job in jobs:
            assert fingerprint_job(job) == _oracle_fingerprint(job)

    @pytest.mark.parametrize("seed", range(3))
    def test_tables_match_the_oracle_in_both_coordinates(self, seed):
        for job in _weighted_jobs(seed + 10, 150):
            _form, index = fingerprint._canonical_db(job.db)
            rows = job.weights if job.problem == "sweep" else [job.weights]
            for row in rows:
                for coordinates in (None, index):
                    assert fingerprint._weights_text(row, coordinates) == repr(
                        _weights_form(row, coordinates)
                    )

    def test_equal_tables_keep_their_spelling(self):
        null = Null("n")
        spellings = [{"a": 1}, {"a": 1.0}, {"a": True}, {"a": Fraction(1)},
                     {"a": 0.0}, {"a": -0.0}, {1: 2}, {1.0: 2}, {True: 2}]
        for _round in range(2):  # the second round reads the memo
            texts = [fingerprint._weights_text({null: t}, None) for t in spellings]
            assert texts == [repr(_weights_form({null: t}, None)) for t in spellings]
            assert len(set(texts)) == len(spellings)


class TestExactTextMemo:
    """Label-exact texts are memoized per database object: never shared
    between equal databases, never keeping one alive, bounded."""

    def test_equal_databases_keep_their_own_spelling(self):
        query = BCQ([Atom("R", ["x", "y"])])
        a = Null("n")
        ints = IncompleteDatabase([Fact("R", [a, 1])], dom={a: [1, 2]})
        floats = IncompleteDatabase([Fact("R", [a, 1.0])], dom={a: [1.0, 2]})
        assert ints == floats
        for _round in range(2):
            for db in (ints, floats, ints):
                assert fingerprint._exact_text(db) == repr(fingerprint._exact_db_form(db))
        assert fingerprint_instance(ints, query) != fingerprint_instance(floats, query)

    def test_memo_keeps_no_database_alive(self):
        import gc
        import weakref

        db = _db("gone1", "gone2")
        fingerprint_instance(db, BCQ([Atom("R", ["x", "y"])]))
        ref = weakref.ref(db)
        del db
        gc.collect()
        assert ref() is None

    def test_memo_is_bounded(self):
        databases = [_db("b%d" % i, "c%d" % i) for i in range(300)]
        for db in databases:
            fingerprint._exact_text(db)
        assert len(fingerprint._EXACT_TEXTS) == 256
        # The most recent entries survive; the oldest were evicted.
        assert id(databases[-1]) in fingerprint._EXACT_TEXTS
        assert id(databases[0]) not in fingerprint._EXACT_TEXTS


class TestMalformedWeightKeys:
    """A weight table keyed by a bare label, not a null, fails its own job
    with the solve's error; the batch and the other jobs run."""

    @pytest.mark.parametrize("problem", ["val-weighted", "marginals"])
    def test_a_label_key_fails_only_its_job(self, problem):
        db = _db("n1", "n2")
        query = BCQ([Atom("R", ["x", "y"])])
        bad = CountJob(problem, db, query, weights={"n1": {"x": 2, "y": 1}})
        results = BatchEngine(workers=0).run([CountJob("val", db, query), bad])
        assert results[0].ok
        assert not results[1].ok
        assert results[1].error == (
            "ValueError: weights given for nulls not in the database: 'n1'"
        )
        twin = CountJob(problem, db, query, weights={Null("n1"): {"x": 2, "y": 1}})
        assert fingerprint_job(bad) == fingerprint_job(bad) != fingerprint_job(twin)
