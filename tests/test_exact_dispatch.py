"""Tests for the front-door dispatcher (algorithm selection)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_completions_brute, count_valuations_brute
from repro.exact import planner
from repro.compile.dpdb import dpdb_probe
from repro.exact.dispatch import (
    NoPolynomialAlgorithm,
    count_completions,
    count_valuations,
    solve,
)

from tests.conftest import small_incomplete_dbs


def _codd_db():
    return IncompleteDatabase(
        [Fact("R", [Null(1), Null(2)])],
        dom={Null(1): ["a", "b"], Null(2): ["a"]},
    )


def _uniform_db():
    return IncompleteDatabase.uniform(
        [Fact("R", [Null(1)]), Fact("S", [Null(1)]), Fact("S", ["a"])],
        ["a", "b"],
    )


class TestSelection:
    def test_single_occurrence_selected_anywhere(self):
        query = BCQ([Atom("R", ["x", "y"])])
        assert planner.plan("val", _codd_db(), query, "poly").chosen == (
            "single-occurrence"
        )

    def test_codd_selected(self):
        query = BCQ([Atom("R", ["x", "x"])])
        assert planner.plan("val", _codd_db(), query, "poly").chosen == "codd"

    def test_uniform_selected(self):
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        assert planner.plan("val", _uniform_db(), query, "poly").chosen == "uniform"

    def test_hard_cell_has_no_algorithm(self):
        query = BCQ([Atom("R", ["x", "x"])])
        naive_nonuniform = IncompleteDatabase(
            [Fact("R", [Null(1), Null(1)])], dom={Null(1): ["a", "b"]}
        )
        assert planner.plan("val", naive_nonuniform, query, "poly").chosen is None

    def test_completion_selection(self):
        assert planner.plan("comp", _uniform_db(), None, "poly").chosen == (
            "uniform-unary"
        )
        binary = IncompleteDatabase.uniform([Fact("R", ["a", "b"])], ["a"])
        assert planner.plan("comp", binary, None, "poly").chosen is None
        assert planner.plan("comp", _codd_db(), None, "poly").chosen is None


class TestCountValuations:
    def test_poly_raises_on_hard_cell(self):
        query = BCQ([Atom("R", ["x", "x"])])
        db = IncompleteDatabase(
            [Fact("R", [Null(1), Null(1)])], dom={Null(1): ["a", "b"]}
        )
        with pytest.raises(NoPolynomialAlgorithm):
            count_valuations(db, query, method="poly")
        # but auto falls back to brute force
        assert count_valuations(db, query) == count_valuations_brute(db, query)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            count_valuations(_codd_db(), BCQ([Atom("R", ["x", "y"])]),
                             method="warp")

    def test_forced_methods_agree(self):
        query = BCQ([Atom("R", ["x", "x"])])
        db = _codd_db()
        brute = count_valuations(db, query, method="brute")
        codd = count_valuations(db, query, method="codd")
        assert brute == codd

    @given(small_incomplete_dbs())
    @settings(max_examples=40, deadline=None)
    def test_auto_always_matches_brute(self, db):
        queries = [
            BCQ([Atom(r, ["x"] * a) for r, a in sorted(db.schema().items())])
        ] if db.schema() else []
        for query in queries:
            if not query.is_self_join_free:
                continue
            assert count_valuations(db, query) == count_valuations_brute(
                db, query
            )


class TestCountCompletions:
    def test_auto_uses_poly_on_uniform_unary(self):
        db = _uniform_db()
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        assert count_completions(db, query) == count_completions_brute(
            db, query
        )
        assert count_completions(db, None) == count_completions_brute(db, None)

    def test_poly_raises_on_hard_cell(self):
        db = _codd_db()
        with pytest.raises(NoPolynomialAlgorithm):
            count_completions(db, None, method="poly")

    def test_poly_succeeds_on_tractable_cell(self):
        db = _uniform_db()
        assert count_completions(db, None, method="poly") == (
            count_completions_brute(db, None)
        )

    def test_method_validation(self):
        with pytest.raises(ValueError):
            count_completions(_uniform_db(), None, method="nope")


class TestMissingQuery:
    """Every problem but ``comp`` refuses ``query=None`` up front, with one
    error naming the problem, whatever method was asked for."""

    @pytest.mark.parametrize("method", ["auto", "brute", "lineage", "circuit"])
    @pytest.mark.parametrize(
        "problem", ["val", "val-weighted", "sweep", "marginals"]
    )
    def test_solve_refuses_a_missing_query(self, problem, method):
        weights = [{}] if problem == "sweep" else None
        with pytest.raises(
            ValueError, match="problem '%s' needs a query" % problem
        ):
            solve(problem, _uniform_db(), None, method=method, weights=weights)

    def test_the_probe_raises_the_same_error(self):
        with pytest.raises(ValueError, match="problem 'val' needs a query"):
            dpdb_probe("val", _uniform_db(), None)

    def test_comp_counts_every_completion(self):
        assert solve("comp", _uniform_db(), None).count == (
            count_completions_brute(_uniform_db(), None)
        )
