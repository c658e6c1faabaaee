"""Tests for query evaluation, certainty and the Prop. 5.2 hypotheses."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from repro.core.query import Atom, BCQ, Const, CustomQuery, Negation, UCQ
from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.eval.certainty import (
    completion_support,
    is_certain,
    is_possible,
    valuation_support,
)
from repro.eval.evaluate import evaluate
from repro.eval.homomorphism import (
    count_homomorphisms,
    find_homomorphism,
    satisfies_bcq,
)
from repro.eval.minimal_models import (
    has_bounded_minimal_models,
    is_monotone_on,
    minimal_models,
)

from tests.conftest import small_incomplete_dbs


def _brute_force_count(query: BCQ, database: Database) -> int:
    """Independent evaluator: try every variable assignment."""
    domain = sorted(database.active_domain(), key=repr)
    variables = query.variables()
    count = 0
    for values in product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        count += all(
            Fact(atom.relation, [
                assignment[t] if t in assignment else t.value for t in atom.terms
            ]) in database
            for atom in query.atoms
        )
    return count


class TestHomomorphism:
    def test_simple_match(self):
        db = Database([Fact("R", ["a", "b"]), Fact("S", ["b"])])
        query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        hom = find_homomorphism(query, db)
        assert hom is not None
        assert hom[Atom("R", ["x", "y"]).terms[1]] == "b"
        assert satisfies_bcq(db, query)

    def test_join_failure(self):
        db = Database([Fact("R", ["a", "b"]), Fact("S", ["c"])])
        query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        assert not satisfies_bcq(db, query)

    def test_repeated_variable(self):
        query = BCQ([Atom("R", ["x", "x"])])
        assert not satisfies_bcq(db := Database([Fact("R", ["a", "b"])]), query)
        assert satisfies_bcq(Database([Fact("R", ["a", "a"])]), query)

    def test_constants_in_atoms(self):
        query = BCQ([Atom("R", [Const("a"), "y"])])
        assert satisfies_bcq(Database([Fact("R", ["a", "b"])]), query)
        assert not satisfies_bcq(Database([Fact("R", ["b", "a"])]), query)

    def test_empty_relation(self):
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        assert not satisfies_bcq(Database([Fact("R", ["a"])]), query)

    def test_count_homomorphisms(self):
        db = Database([Fact("R", ["a"]), Fact("R", ["b"]), Fact("S", ["a"])])
        assert count_homomorphisms(BCQ([Atom("R", ["x"])]), db) == 2
        assert (
            count_homomorphisms(
                BCQ([Atom("R", ["x"]), Atom("S", ["y"])]), db
            )
            == 2
        )
        assert (
            count_homomorphisms(
                BCQ([Atom("R", ["x"]), Atom("S", ["x"])]), db
            )
            == 1
        )

    @given(small_incomplete_dbs())
    @settings(max_examples=40, deadline=None)
    def test_matches_assignment_enumeration(self, db):
        from repro.db.valuation import apply_valuation, iter_valuations

        queries = [
            BCQ([Atom(r, ["x"] * a) for r, a in sorted(db.schema().items())])
        ] if db.schema() else []
        for query in queries:
            for valuation in iter_valuations(db):
                complete = apply_valuation(db, valuation)
                assert satisfies_bcq(complete, query) == (
                    _brute_force_count(query, complete) > 0
                )
                break  # one valuation per db keeps the test fast

    def test_random_queries_match_assignment_enumeration(self):
        """Counts, existence and the found homomorphism on random complete
        databases, with query constants and self-joins."""
        rng = random.Random(21)
        for _ in range(300):
            schema = {"R": rng.randint(1, 3), "S": rng.randint(1, 3)}
            database = Database(
                Fact(relation, [rng.choice("abc") for _ in range(arity)])
                for relation, arity in schema.items()
                for _ in range(rng.randint(0, 5))
            )
            atoms = []
            for _ in range(rng.randint(1, 3)):
                relation = rng.choice("RS")
                atoms.append(Atom(relation, [
                    Const(rng.choice("abd")) if rng.random() < 0.15 else rng.choice("xyz")
                    for _ in range(schema[relation])
                ]))
            query = BCQ(atoms)
            expected = _brute_force_count(query, database)
            assert count_homomorphisms(query, database) == expected
            assert satisfies_bcq(database, query) == (expected > 0)
            found = find_homomorphism(query, database)
            assert (found is not None) == (expected > 0)
            for atom in query.atoms if found is not None else ():
                image = [found[t] if t in found else t.value for t in atom.terms]
                assert Fact(atom.relation, image) in database

    def test_arity_mismatch_has_no_homomorphism(self):
        database = Database([Fact("R", ["a", "b"])])
        assert count_homomorphisms(BCQ([Atom("R", ["x"])]), database) == 0


class TestEvaluateDispatch:
    def test_ucq_and_negation(self):
        db = Database([Fact("R", ["a"])])
        r = BCQ([Atom("R", ["x"])])
        s = BCQ([Atom("S", ["x"])])
        assert evaluate(UCQ([s, r]), db)
        assert not evaluate(UCQ([s]), db)
        assert evaluate(Negation(s), db)
        assert not evaluate(Negation(r), db)

    def test_custom(self):
        query = CustomQuery("even", ("R",), lambda db: len(db) % 2 == 0)
        assert evaluate(query, Database())
        assert not evaluate(query, Database([Fact("R", ["a"])]))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            evaluate(object(), Database())


class TestCertainty:
    @pytest.fixture
    def db(self):
        return IncompleteDatabase(
            [Fact("R", [Null(1)])], dom={Null(1): ["a", "b"]}
        )

    def test_certain_vs_possible(self, db):
        anything = BCQ([Atom("R", ["x"])])
        specific = BCQ([Atom("R", [Const("a")])])
        impossible = BCQ([Atom("R", [Const("z")])])
        assert is_certain(anything, db)
        assert not is_certain(specific, db)
        assert is_possible(specific, db)
        assert not is_possible(impossible, db)

    def test_supports(self, db):
        specific = BCQ([Atom("R", [Const("a")])])
        assert valuation_support(specific, db) == Fraction(1, 2)
        assert completion_support(specific, db) == Fraction(1, 2)

    def test_support_of_certain_query_is_one(self, figure1_db):
        anything = BCQ([Atom("S", ["x", "y"])])
        assert valuation_support(anything, figure1_db) == 1
        assert completion_support(anything, figure1_db) == 1

    def test_figure1_supports(self, figure1_db, figure1_query):
        """Figure 1: 4 of 6 valuations, 3 of 5 completions satisfy q."""
        assert valuation_support(figure1_query, figure1_db) == Fraction(4, 6)
        assert completion_support(figure1_query, figure1_db) == Fraction(3, 5)


class TestMinimalModels:
    def test_minimal_models_of_bcq(self):
        db = Database(
            [Fact("R", ["a"]), Fact("R", ["b"]), Fact("S", ["a"])]
        )
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        models = minimal_models(query, db)
        assert models == [Database([Fact("R", ["a"]), Fact("S", ["a"])])]

    def test_bound_check(self):
        db = Database([Fact("R", ["a"]), Fact("S", ["a"])])
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        assert has_bounded_minimal_models(query, db, bound=2)
        assert not has_bounded_minimal_models(query, db, bound=1)

    def test_bcqs_report_monotone(self):
        dbs = [
            Database(),
            Database([Fact("R", ["a"])]),
            Database([Fact("R", ["a"]), Fact("R", ["b"])]),
        ]
        assert is_monotone_on(BCQ([Atom("R", ["x"])]), dbs)
        assert not is_monotone_on(
            Negation(BCQ([Atom("R", ["x"])])), dbs
        )
