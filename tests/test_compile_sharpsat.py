"""Tests for the exact model counter and its ordering heuristic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.complexity.cnf import CNF, CNF3, count_models_brute, count_sat
from repro.compile import ordering
from repro.compile.ordering import (
    branching_order,
    primal_masks,
    refined_elimination_masks,
)
from repro.compile.sharpsat import ModelCounter, count_models


@st.composite
def small_cnfs(draw, max_variables: int = 6, max_clauses: int = 8) -> CNF:
    num_variables = draw(st.integers(min_value=1, max_value=max_variables))
    cnf = CNF(num_variables)
    for _ in range(draw(st.integers(min_value=0, max_value=max_clauses))):
        width = draw(st.integers(min_value=1, max_value=3))
        literals = [
            draw(st.integers(min_value=1, max_value=num_variables))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        cnf.add_clause(literals)
    return cnf


class TestCountModels:
    def test_empty_formula_counts_assignments(self):
        assert count_models(CNF(0)) == 1
        assert count_models(CNF(3)) == 8  # three unconstrained variables

    def test_empty_clause_is_unsatisfiable(self):
        cnf = CNF(2)
        cnf.add_clause([])
        assert count_models(cnf) == 0

    def test_unit_clauses(self):
        cnf = CNF(3, [(1,), (-2,)])
        assert count_models(cnf) == 2  # variable 3 free

    def test_exactly_one_block(self):
        cnf = CNF(4)
        cnf.add_exactly_one([1, 2, 3, 4])
        assert count_models(cnf) == 4

    def test_disconnected_components_multiply(self):
        cnf = CNF(4, [(1, 2), (3, 4)])
        assert count_models(cnf) == 9

    def test_xor_chain(self):
        # (x1 xor x2)(x2 xor x3): 2 models
        cnf = CNF(3, [(1, 2), (-1, -2), (2, 3), (-2, -3)])
        assert count_models(cnf) == 2

    @given(small_cnfs())
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_enumeration(self, cnf):
        assert count_models(cnf) == count_models_brute(cnf)

    @given(small_cnfs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_projected_matches_brute_enumeration(self, cnf, data):
        projection = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=cnf.num_variables),
            )
        )
        assert count_models(cnf, projection=projection) == (
            count_models_brute(cnf, projection=projection)
        )

    def test_projection_counts_distinct_restrictions(self):
        # x1 -> x2: models (F,F),(F,T),(T,T); projections on x1: {F,T}
        cnf = CNF(2, [(-1, 2)])
        assert count_models(cnf) == 3
        assert count_models(cnf, projection=[1]) == 2
        assert count_models(cnf, projection=[2]) == 2
        assert count_models(cnf, projection=[]) == 1

    def test_projection_of_unsatisfiable_is_zero(self):
        cnf = CNF(2, [(1,), (-1,)])
        assert count_models(cnf, projection=[2]) == 0

    def test_projection_validation(self):
        with pytest.raises(ValueError):
            count_models(CNF(2), projection=[5])

    def test_agrees_with_3cnf_counter(self):
        formula = CNF3.from_literals(
            4, [(1, -2, 3), (-1, 2, -4), (2, 3, 4), (-2, -3, -4)]
        )
        assert count_models(formula.to_cnf()) == count_sat(formula)

    def test_component_statistics_exposed(self):
        counter = ModelCounter(CNF(4, [(1, 2), (3, 4)]))
        assert counter.count() == 9
        assert counter.components_split >= 1

    def test_large_bounded_width_instance(self):
        # A 60-variable chain: brute would enumerate 2^60 assignments.
        cnf = CNF(60)
        for v in range(1, 60):
            cnf.add_clause((-v, -(v + 1)))
        # Independent sets of a 60-path: Fibonacci(62).
        assert count_models(cnf) == 4052739537881


class TestReferenceParity:
    """The trail core agrees bit for bit with the retained tuple core."""

    @given(small_cnfs())
    @settings(max_examples=120, deadline=None)
    def test_full_counts_match_reference(self, cnf):
        assert count_models(cnf) == count_models(cnf, reference=True)

    @given(small_cnfs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_projected_counts_match_reference(self, cnf, data):
        projection = data.draw(
            st.sets(st.integers(min_value=1, max_value=cnf.num_variables))
        )
        assert count_models(cnf, projection=projection) == count_models(
            cnf, projection=projection, reference=True
        )

    def test_reference_flag_surfaces_statistics(self):
        cnf = CNF(4, [(1, 2), (3, 4)])
        counter = ModelCounter(cnf, reference=True)
        assert counter.count() == 9
        assert counter.components_split >= 1
        assert counter.width is not None


class TestOrdering:
    def test_primal_masks_of_chain(self):
        cnf = CNF(3, [(1, 2), (2, 3)])
        assert primal_masks(cnf) == {1: 1 << 2, 2: (1 << 1) | (1 << 3), 3: 1 << 2}

    def test_path_has_width_one(self):
        cnf = CNF(5, [(v, v + 1) for v in range(1, 5)])
        _order, width, _bags = refined_elimination_masks(primal_masks(cnf))
        assert width == 1

    def test_cycle_has_width_two(self):
        cnf = CNF(5, [(v, v + 1) for v in range(1, 5)] + [(5, 1)])
        _order, width, _bags = refined_elimination_masks(primal_masks(cnf))
        assert width == 2

    def test_branching_order_covers_constrained_variables(self):
        cnf = CNF(6, [(1, 2), (2, 3), (5, 6)])  # variable 4 unconstrained
        order, _width = branching_order(cnf)
        assert sorted(order) == [1, 2, 3, 5, 6]

    def test_min_degree_fallback_same_width_on_path(self, monkeypatch):
        # With no width small enough to refine, the min-degree pass stands.
        monkeypatch.setattr(ordering, "MIN_FILL_REFINE_WIDTH", 0)
        cnf = CNF(5, [(v, v + 1) for v in range(1, 5)])
        _order, width, _bags = refined_elimination_masks(primal_masks(cnf))
        assert width == 1

    @given(small_cnfs(max_variables=8, max_clauses=12))
    @settings(max_examples=60, deadline=None)
    def test_counter_orders_by_branching_order(self, cnf):
        order, width = branching_order(cnf)
        counter = ModelCounter(cnf)
        assert counter.width == width
        assert [counter._rank[variable] for variable in order] == list(
            range(len(order))
        )
