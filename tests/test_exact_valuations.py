"""The three tractable #Val algorithms vs. brute force (Thms 3.6/3.7/3.9)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classify import tractable
from repro.core.problems import VAL, VAL_CODD, VAL_UNIFORM
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_valuations_brute
from repro.exact.val_codd import count_valuations_codd
from repro.exact.val_nonuniform import count_valuations_single_occurrence
from repro.exact.val_uniform import (
    basic_singleton_components,
    count_valuations_uniform,
    shared_variables,
)

from tests.conftest import (
    pattern_free_uniform_queries,
    small_incomplete_dbs,
)


class TestSingleOccurrence:
    """Theorem 3.6: all variables occur once -> count is 0 or total."""

    QUERY = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])

    def test_applicability(self):
        assert tractable(self.QUERY, VAL)[0]
        assert not tractable(BCQ([Atom("R", ["x", "x"])]), VAL)[0]
        assert not tractable(BCQ([Atom("R", ["x"]), Atom("S", ["x"])]), VAL)[0]

    def test_empty_relation_gives_zero(self):
        db = IncompleteDatabase.uniform([Fact("R", [Null(1), "a"])], ["a"])
        assert count_valuations_single_occurrence(db, self.QUERY) == 0

    def test_rejects_hard_queries(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a", "a"])], ["a"])
        with pytest.raises(ValueError):
            count_valuations_single_occurrence(
                db, BCQ([Atom("R", ["x", "x"])])
            )

    @given(
        small_incomplete_dbs(schema={"R": 2, "S": 1})
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, db):
        assert count_valuations_single_occurrence(
            db, self.QUERY
        ) == count_valuations_brute(db, self.QUERY)


class TestCodd:
    """Theorem 3.7: atoms pairwise variable-disjoint, Codd tables."""

    QUERIES = [
        BCQ([Atom("R", ["x", "x"])]),
        BCQ([Atom("R", ["x", "y"])]),
        BCQ([Atom("R", ["x", "x"]), Atom("S", ["y"])]),
        BCQ([Atom("R", ["x", "x", "y"]), Atom("S", ["z", "z"])]),
    ]

    def test_applicability(self):
        for query in self.QUERIES:
            assert tractable(query, VAL_CODD)[0]
        assert not tractable(BCQ([Atom("R", ["x"]), Atom("S", ["x"])]), VAL_CODD)[0]

    def test_requires_codd_table(self):
        shared = Null(1)
        db = IncompleteDatabase.uniform(
            [Fact("R", [shared, shared])], ["a", "b"]
        )
        with pytest.raises(ValueError):
            count_valuations_codd(db, self.QUERIES[0])

    def test_repeat_query_on_codd_is_easy(self):
        """The Section 3.2 closing remark: #ValCd(R(x,x)) is FP."""
        db = IncompleteDatabase(
            [Fact("R", [Null(1), Null(2)]), Fact("R", [Null(3), "a"])],
            dom={
                Null(1): ["a", "b"],
                Null(2): ["b", "c"],
                Null(3): ["a", "c"],
            },
        )
        # match fact1: values equal in {b} => 1; fact2: Null(3) = a => 1
        # total = 2*2*2 = 8; non-match = (4-1)*(2-1) = 3; result 5.
        assert count_valuations_codd(db, self.QUERIES[0]) == 5
        assert count_valuations_brute(db, self.QUERIES[0]) == 5

    @given(
        st.sampled_from(QUERIES),
        small_incomplete_dbs(schema={"R": 3, "S": 2}, codd=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, query, db):
        query_arities = {a.relation: a.arity for a in query.atoms}
        facts = [
            f
            for f in db.facts
            if f.arity == query_arities.get(f.relation, f.arity)
        ]
        db = db.with_facts(facts)
        assert count_valuations_codd(db, query) == count_valuations_brute(
            db, query
        )


class TestUniform:
    """Theorem 3.9: inclusion-exclusion over basic singletons."""

    def test_applicability(self):
        assert tractable(BCQ([Atom("R", ["x"]), Atom("S", ["x"])]), VAL_UNIFORM)[0]
        assert not tractable(BCQ([Atom("R", ["x", "x"])]), VAL_UNIFORM)[0]
        assert not tractable(
            BCQ([Atom("R", ["x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])]),
            VAL_UNIFORM,
        )[0]
        assert not tractable(
            BCQ([Atom("R", ["x", "y"]), Atom("S", ["x", "y"])]), VAL_UNIFORM
        )[0]

    def test_requires_uniform(self):
        db = IncompleteDatabase(
            [Fact("R", [Null(1)]), Fact("S", ["a"])], dom={Null(1): ["a"]}
        )
        with pytest.raises(ValueError):
            count_valuations_uniform(
                db, BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
            )

    def test_components(self):
        query = BCQ(
            [
                Atom("R", ["x", "u"]),
                Atom("S", ["x"]),
                Atom("T", ["y"]),
                Atom("U", ["y"]),
                Atom("V", ["z"]),
            ]
        )
        shared = shared_variables(query)
        assert [v.name for v in shared] == ["x", "y"]
        components = basic_singleton_components(query)
        groups = sorted(sorted(g) for g in components.values())
        assert groups == [["R", "S"], ["T", "U"]]

    def test_example_310_shape(self):
        """Example 3.10's setting: R(x) ∧ S(x), disjoint constants, shared
        domain — cross-checked against brute force."""
        db = IncompleteDatabase.uniform(
            [
                Fact("R", ["r1"]),
                Fact("R", [Null("n1")]),
                Fact("R", [Null("n2")]),
                Fact("S", ["s1"]),
                Fact("S", [Null("m1")]),
            ],
            ["r1", "s1", "u1", "u2"],
        )
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        assert count_valuations_uniform(db, query) == count_valuations_brute(
            db, query
        )

    @given(pattern_free_uniform_queries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, query, data):
        schema = {a.relation: a.arity for a in query.atoms}
        db = data.draw(small_incomplete_dbs(schema=schema, uniform=True))
        assert count_valuations_uniform(db, query) == count_valuations_brute(
            db, query
        )
