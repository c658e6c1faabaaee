"""Cross-cutting integration properties tying the paper's claims together."""

from hypothesis import given, settings, strategies as st

from repro.core.classify import Tractability, classify
from repro.core.problems import Mode, ProblemVariant
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_completions_brute, count_valuations_brute
from repro.exact import planner
from repro.exact.dispatch import count_completions, count_valuations
from repro.workloads.generators import random_incomplete_db

from tests.conftest import random_sjf_queries, small_incomplete_dbs


QUERIES = [
    BCQ([Atom("R", ["x", "x"])]),
    BCQ([Atom("R", ["x", "y"])]),
    BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])]),
    BCQ([Atom("R", ["x", "x"]), Atom("S", ["y"])]),
]

UNARY_QUERIES = [
    BCQ([Atom("R", ["x"])]),
    BCQ([Atom("R", ["x"]), Atom("S", ["x"])]),
    BCQ([Atom("R", ["x"]), Atom("S", ["y"])]),
]


class TestUniformIsSpecialCaseOfNonUniform:
    """The paper treats uniform databases as non-uniform ones with equal
    domains; counts must agree under the embedding."""

    @given(st.sampled_from(QUERIES), st.data())
    @settings(max_examples=30, deadline=None)
    def test_val_counts_agree(self, query, data):
        schema = {a.relation: a.arity for a in query.atoms}
        db = data.draw(small_incomplete_dbs(schema=schema, uniform=True))
        view = db.as_non_uniform()
        assert count_valuations_brute(db, query) == count_valuations_brute(
            view, query
        )

    @given(st.sampled_from(UNARY_QUERIES), st.data())
    @settings(max_examples=20, deadline=None)
    def test_comp_counts_agree(self, query, data):
        schema = {a.relation: a.arity for a in query.atoms}
        db = data.draw(small_incomplete_dbs(schema=schema, uniform=True))
        view = db.as_non_uniform()
        assert count_completions_brute(db, query) == count_completions_brute(
            view, query
        )


class TestClassifierConsistentWithDispatcher:
    """``poly`` finds a polynomial algorithm exactly where the classifier
    puts the instance's variant in an FP cell (an open cell is not FP), and
    the dispatcher never disagrees with brute force."""

    @given(random_sjf_queries(max_arity=2), st.integers(0, 50))
    @settings(max_examples=150, deadline=None)
    def test_fp_cells_have_algorithms(self, query, seed):
        schema = {a.relation: a.arity for a in query.atoms}
        report = classify(query)
        for uniform in (True, False):
            for codd in (True, False):
                db = random_incomplete_db(
                    schema, seed=seed, uniform=uniform, codd=codd, domain_size=2
                )
                for mode, problem in (
                    (Mode.VALUATIONS, "val"),
                    (Mode.COMPLETIONS, "comp"),
                ):
                    if mode is Mode.COMPLETIONS and any(
                        fact.arity != 1 for fact in db.facts
                    ):
                        continue  # the #Comp FP cells need a unary schema
                    variant = ProblemVariant(mode, db.is_codd, db.is_uniform)
                    fp = report.entry(variant).tractability is Tractability.FP
                    plan = planner.plan(problem, db, query, "poly")
                    assert (plan.chosen is not None) == fp, (variant, plan.error)

    @given(st.sampled_from(QUERIES + UNARY_QUERIES), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_dispatcher_matches_brute(self, query, seed):
        schema = {a.relation: a.arity for a in query.atoms}
        for uniform in (True, False):
            for codd in (True, False):
                db = random_incomplete_db(
                    schema,
                    seed=seed,
                    uniform=uniform,
                    codd=codd,
                    domain_size=2,
                    num_nulls=2,
                )
                assert count_valuations(db, query) == (
                    count_valuations_brute(db, query)
                )
                if all(f.arity == 1 for f in db.facts):
                    assert count_completions(db, query) == (
                        count_completions_brute(db, query)
                    )


class TestValCompRelationship:
    """#Comp(q) <= #Val(q), with equality exactly when no two satisfying
    valuations collide — the Example 2.2 phenomenon."""

    @given(st.sampled_from(QUERIES), st.data())
    @settings(max_examples=25, deadline=None)
    def test_inequality(self, query, data):
        schema = {a.relation: a.arity for a in query.atoms}
        db = data.draw(small_incomplete_dbs(schema=schema))
        assert count_completions_brute(db, query) <= count_valuations_brute(
            db, query
        )

    def test_codd_with_distinct_constants_collapses_nothing(self):
        """On a Codd table whose facts all carry a distinguishing constant,
        valuations are injective on completions: #Val = #Comp."""
        db = IncompleteDatabase.uniform(
            [
                Fact("R", ["row1", Null(1)]),
                Fact("R", ["row2", Null(2)]),
            ],
            ["a", "b"],
        )
        query = BCQ([Atom("R", ["x", "y"])])
        assert count_valuations_brute(db, query) == count_completions_brute(
            db, query
        ) == 4
