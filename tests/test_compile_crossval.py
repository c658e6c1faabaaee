"""Randomized cross-validation: lineage == brute (== poly) on small instances.

Every instance is small enough for the brute-force ground truth, drawn
with fixed seeds from :mod:`repro.workloads.generators` across the four
Table 1 table-flavors (uniform/non-uniform × Codd/naive).  Where a
polynomial algorithm applies, it must agree too — three independent
implementations of the same count.
"""

import pytest

from repro.core.query import Atom, BCQ, Const, UCQ
from repro.exact.brute import count_completions_brute, count_valuations_brute
from repro.exact import planner
from repro.exact.dispatch import (
    NoPolynomialAlgorithm,
    count_completions,
    count_valuations,
)
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
)

QUERIES = [
    BCQ([Atom("R", ["x", "y"])]),
    BCQ([Atom("R", ["x", "x"])]),
    BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])]),
    BCQ([Atom("R", ["x", "x"]), Atom("S", ["x"])]),
    BCQ([Atom("R", ["x", "y"]), Atom("R", ["y", "z"])]),  # self-join
    BCQ([Atom("R", [Const("v0"), "y"]), Atom("S", ["y"])]),  # constant
    UCQ([BCQ([Atom("R", ["x", "x"])]), BCQ([Atom("S", ["z"])])]),
]

FLAVORS = [
    ("uniform-naive", True, False),
    ("uniform-codd", True, True),
    ("nonuniform-naive", False, False),
    ("nonuniform-codd", False, True),
]


@pytest.mark.parametrize("flavor,uniform,codd", FLAVORS)
@pytest.mark.parametrize("seed", range(8))
def test_valuations_lineage_matches_brute_and_poly(seed, flavor, uniform, codd):
    db = random_incomplete_db(
        {"R": 2, "S": 1},
        seed=seed,
        num_nulls=3,
        domain_size=3,
        uniform=uniform,
        codd=codd,
    )
    for query in QUERIES:
        expected = count_valuations_brute(db, query)
        assert count_valuations(db, query, method="lineage") == expected
        try:
            poly = count_valuations(db, query, method="poly")
        except NoPolynomialAlgorithm:
            pass
        else:
            assert poly == expected


@pytest.mark.parametrize("flavor,uniform,codd", FLAVORS)
@pytest.mark.parametrize("seed", range(8))
def test_completions_lineage_matches_brute_and_poly(seed, flavor, uniform, codd):
    db = random_incomplete_db(
        {"R": 2, "S": 1},
        seed=seed,
        num_nulls=3,
        domain_size=3,
        uniform=uniform,
        codd=codd,
    )
    for query in list(QUERIES) + [None]:
        expected = count_completions_brute(db, query)
        assert count_completions(db, query, method="lineage") == expected
        try:
            poly = count_completions(db, query, method="poly")
        except NoPolynomialAlgorithm:
            pass
        else:
            assert poly == expected


@pytest.mark.parametrize("size", [3, 5, 7])
def test_hard_val_family_small_sizes(size):
    db, query = scaling_hard_val_instance(size, chord_probability=0.3, seed=size)
    # Small cycles keep the lineage treewidth low, so auto now routes the
    # hard cell to the tree-decomposition DP instead of the trail search.
    assert planner.plan("val", db, query).chosen == "dpdb"
    assert count_valuations(db, query) == count_valuations_brute(db, query)


@pytest.mark.parametrize("size", [3, 5, 7])
def test_hard_comp_family_small_sizes(size):
    db, query = scaling_hard_comp_instance(size, seed=size)
    for q in (None, query):
        # At these sizes the projection-constrained width is still small,
        # so auto picks the projected DP over the trail search.
        assert planner.plan("comp", db, q).chosen == "dpdb"
        assert count_completions(db, q) == count_completions_brute(db, q)


class TestAutoSelection:
    def test_auto_prefers_poly_then_lineage(self):
        # Hard cell (R(x,x), naive non-uniform): auto resolves to the
        # width-bounded DP (the instance's elimination width is tiny).
        from repro.db.fact import Fact
        from repro.db.incomplete import IncompleteDatabase
        from repro.db.terms import Null

        db = IncompleteDatabase(
            [Fact("R", [Null(1), Null(1)])], dom={Null(1): ["a", "b"]}
        )
        assert planner.plan("val", db, BCQ([Atom("R", ["x", "x"])])).chosen == (
            "dpdb"
        )
        # Tractable cell: auto keeps the polynomial algorithm.
        assert planner.plan("val", db, BCQ([Atom("R", ["x", "y"])])).chosen == (
            "single-occurrence"
        )

    def test_auto_falls_back_to_brute_for_opaque_queries(self):
        from repro.core.query import CustomQuery
        from repro.db.fact import Fact
        from repro.db.incomplete import IncompleteDatabase
        from repro.db.terms import Null

        db = IncompleteDatabase(
            [Fact("R", [Null(1)])], dom={Null(1): ["a", "b"]}
        )
        opaque = CustomQuery("nonempty", ["R"], lambda d: len(d) > 0)
        assert planner.plan("val", db, opaque).chosen == "brute"
        assert planner.plan("comp", db, opaque).chosen == "brute"
        assert count_valuations(db, opaque) == 2
