"""Tests for valuations and completions (the paper's Section 2 examples)."""

import pytest
from hypothesis import given, settings

from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.db.valuation import (
    apply_valuation,
    completions_with_multiplicity,
    count_total_valuations,
    iter_completions,
    iter_valuations,
    named_null_weights,
    resolve_null_weights,
)

from tests.conftest import small_incomplete_dbs


class TestExample21:
    """Example 2.1 of the paper, verbatim."""

    @pytest.fixture
    def db(self):
        facts = [Fact("S", [Null(1), Null(1)]), Fact("S", ["a", Null(2)])]
        return IncompleteDatabase(
            facts, dom={Null(1): ["a", "b"], Null(2): ["a", "c"]}
        )

    def test_valuation_nu1(self, db):
        completion = apply_valuation(db, {Null(1): "b", Null(2): "c"})
        assert completion == Database(
            [Fact("S", ["b", "b"]), Fact("S", ["a", "c"])]
        )

    def test_valuation_nu2_collapses(self, db):
        completion = apply_valuation(db, {Null(1): "a", Null(2): "a"})
        assert completion == Database([Fact("S", ["a", "a"])])
        assert len(completion) == 1

    def test_out_of_domain_map_is_not_a_valuation(self, db):
        with pytest.raises(ValueError):
            apply_valuation(db, {Null(1): "b", Null(2): "b"})

    def test_missing_null_rejected(self, db):
        with pytest.raises(ValueError):
            apply_valuation(db, {Null(1): "a"})


class TestFigure1:
    """Figure 1 / Example 2.2: all six valuations and their completions."""

    def test_six_valuations(self, figure1_db):
        assert count_total_valuations(figure1_db) == 6
        assert sum(1 for _ in iter_valuations(figure1_db)) == 6

    def test_five_distinct_completions(self, figure1_db):
        # Reading Figure 1's completion row: the valuations (a,a) and (a,b)
        # collapse to the same completion {S(a,b), S(a,a)}; the other four
        # are pairwise distinct, so 5 distinct completions in total.
        completions = list(iter_completions(figure1_db))
        assert len(completions) == 5
        histogram = completions_with_multiplicity(figure1_db)
        assert sum(histogram.values()) == 6
        assert sorted(histogram.values(), reverse=True) == [2, 1, 1, 1, 1]

    def test_multiplicity_identity(self, figure1_db):
        histogram = completions_with_multiplicity(figure1_db)
        assert sum(histogram.values()) == count_total_valuations(figure1_db)


class TestGeneralProperties:
    def test_ground_table_has_one_valuation(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a"])], ["a", "b"])
        assert count_total_valuations(db) == 1
        assert list(iter_valuations(db)) == [{}]
        assert list(iter_completions(db)) == [Database([Fact("R", ["a"])])]

    def test_empty_domain_kills_valuations(self):
        db = IncompleteDatabase([Fact("R", [Null(1)])], dom={Null(1): []})
        assert count_total_valuations(db) == 0
        assert list(iter_valuations(db)) == []

    @given(small_incomplete_dbs())
    @settings(max_examples=30, deadline=None)
    def test_enumeration_matches_product(self, db):
        assert sum(1 for _ in iter_valuations(db)) == count_total_valuations(db)

    @given(small_incomplete_dbs())
    @settings(max_examples=30, deadline=None)
    def test_completions_are_deduplicated(self, db):
        completions = list(iter_completions(db))
        assert len(completions) == len(set(completions))
        assert len(completions) <= max(count_total_valuations(db), 1)

    @given(small_incomplete_dbs())
    @settings(max_examples=30, deadline=None)
    def test_completion_sizes_bounded_by_table(self, db):
        """Set semantics can only shrink the fact count."""
        for completion in iter_completions(db):
            assert len(completion) <= len(db.facts)


class TestNamedWeights:
    """``named_null_weights`` keeps only the tables a row names, and
    rejects a faulty row with exactly the error ``resolve_null_weights``
    raises: an unknown null first, then the first faulty table in
    database order, whatever order the row lists them in."""

    @pytest.fixture
    def db(self):
        nulls = [Null(i) for i in range(3)]
        return IncompleteDatabase(
            [Fact("R", [null, "a"]) for null in nulls],
            dom={null: ["a", "b"] for null in nulls},
        )

    def test_only_named_tables_are_kept(self, db):
        first, _second, third = db.nulls
        row = {third: {"a": 2, "b": 3}, first: None}
        assert named_null_weights(db, row) == {third: {"a": 2, "b": 3}}
        assert resolve_null_weights(db, row) == {
            null: {"a": 2, "b": 3} if null == third else {"a": 1, "b": 1}
            for null in db.nulls
        }
        assert named_null_weights(db, None) == {}

    @pytest.mark.parametrize("case", ["unknown", "order", "extra", "missing"])
    def test_faulty_rows_raise_the_resolved_error(self, db, case):
        first, second, third = db.nulls
        row = {
            "unknown": {third: {"a": 1}, Null(9): {"a": 1}},
            "order": {third: {"a": 1}, second: {"a": 1, "c": 1}},
            "extra": {first: {"a": 1, "b": 1, "c": 2}},
            "missing": {second: {"b": 1}},
        }[case]
        with pytest.raises(ValueError) as resolved:
            resolve_null_weights(db, row)
        with pytest.raises(ValueError) as named:
            named_null_weights(db, row)
        assert str(named.value) == str(resolved.value)
        if case == "order":
            assert repr(second) in str(named.value)
