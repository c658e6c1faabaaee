"""Dispatch edge cases the batch engine meets in real workloads.

Empty databases, singleton domains, atomless queries, and forced methods
that do not apply — each must resolve to a clean answer or a clean error,
never a crash deep inside a solver.
"""

import pytest

from repro.core.query import Atom, BCQ, CustomQuery, Negation
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import BatchEngine, CountJob
from repro.exact.brute import count_valuations_brute
from repro.exact import planner
from repro.exact.dispatch import count_completions, count_valuations


def _empty_db():
    return IncompleteDatabase([], dom={})


def _singleton_db():
    a = Null("only")
    return IncompleteDatabase(
        [Fact("R", [a, a]), Fact("R", [a, "c"])], dom={a: ["c"]}
    )


class TestEmptyDatabase:
    def test_val_is_zero(self):
        query = BCQ([Atom("R", ["x", "y"])])
        for method in ("auto", "brute", "lineage"):
            assert count_valuations(_empty_db(), query, method=method) == 0

    def test_comp_counts_the_empty_completion(self):
        # A ground (here: empty) table has exactly one completion.
        for method in ("auto", "brute", "lineage"):
            assert count_completions(_empty_db(), method=method) == 1

    def test_comp_with_query_on_empty_db(self):
        query = BCQ([Atom("R", ["x", "y"])])
        assert count_completions(_empty_db(), query) == 0


class TestSingletonDomain:
    """A null with |dom| = 1 admits exactly one valuation choice."""

    def test_val_all_methods_agree(self):
        query = BCQ([Atom("R", ["x", "x"])])
        expected = count_valuations_brute(_singleton_db(), query)
        for method in ("auto", "brute", "lineage"):
            assert (
                count_valuations(_singleton_db(), query, method=method)
                == expected
            )

    def test_comp_is_one(self):
        assert count_completions(_singleton_db()) == 1

    def test_engine_handles_it(self):
        query = BCQ([Atom("R", ["x", "x"])])
        results = BatchEngine(workers=0).run(
            [CountJob("val", _singleton_db(), query)]
        )
        assert results[0].ok
        assert results[0].count == count_valuations_brute(
            _singleton_db(), query
        )


class TestAtomlessQuery:
    """The paper assumes queries have at least one atom; the constructors
    enforce it, so an atomless query can never reach the dispatcher."""

    def test_bcq_requires_an_atom(self):
        with pytest.raises(ValueError, match="at least one atom"):
            BCQ([])

    def test_atom_requires_a_term(self):
        with pytest.raises(ValueError, match="arity >= 1"):
            Atom("R", [])

    def test_comp_accepts_no_query_instead(self):
        # The supported way to ask an unconstrained count.
        db = _singleton_db()
        assert count_completions(db, None) == 1


class TestLineageOnNonUCQ:
    """``method='lineage'`` on queries the compiler cannot encode must
    fall back to ``brute`` cleanly (same count, no compiler crash)."""

    def _db(self):
        a = Null("n")
        return IncompleteDatabase(
            [Fact("R", [a]), Fact("S", ["c"])], dom={a: ["b", "c"]}
        )

    def test_negation_falls_back(self):
        negated = Negation(BCQ([Atom("R", ["x"]), Atom("S", ["x"])]))
        assert (
            planner.plan("val", self._db(), negated, "lineage").chosen
            == "brute"
        )
        assert count_valuations(
            self._db(), negated, method="lineage"
        ) == count_valuations_brute(self._db(), negated)

    def test_custom_query_falls_back(self):
        opaque = CustomQuery(
            "nonempty", ["R", "S"], lambda database: len(database) >= 2
        )
        assert (
            planner.plan("val", self._db(), opaque, "lineage").chosen
            == "brute"
        )
        assert count_valuations(self._db(), opaque, method="lineage") == (
            count_valuations_brute(self._db(), opaque)
        )

    def test_comp_negation_falls_back(self):
        negated = Negation(BCQ([Atom("R", ["x"]), Atom("S", ["x"])]))
        assert (
            planner.plan("comp", self._db(), negated, "lineage").chosen
            == "brute"
        )
        assert count_completions(self._db(), negated, method="lineage") == (
            count_completions(self._db(), negated, method="brute")
        )

    def test_ucq_still_uses_lineage(self):
        query = BCQ([Atom("R", ["x"])])
        assert (
            planner.plan("val", self._db(), query, "lineage").chosen
            == "lineage"
        )

    def test_engine_batch_with_mixed_support(self):
        negated = Negation(BCQ([Atom("R", ["x"])]))
        plain = BCQ([Atom("R", ["x"])])
        jobs = [
            CountJob("val", self._db(), negated, method="lineage"),
            CountJob("val", self._db(), plain, method="lineage"),
        ]
        results = BatchEngine(workers=0).run(jobs)
        assert all(result.ok for result in results)
        assert results[0].method == "brute"
        assert results[1].method == "lineage"
        total = 2  # |dom(n)| valuations in all
        assert results[0].count + results[1].count == total
