"""End-to-end tests for the #Comp hardness reductions (Sections 4-5)."""

import pytest
from hypothesis import given, settings

from repro.exact.brute import count_completions_brute
from repro.exact.dispatch import solve
from repro.graphs.counting import (
    count_colorings,
    count_independent_sets,
    count_vertex_covers,
)
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.pseudoforest import count_induced_pseudoforests
from repro.reductions.gap3col import (
    build_gap_db,
    decide_three_colorability_via_approximation,
    is_three_colorable_via_completions,
)
from repro.reductions.independent_set import (
    build_is_completion_db,
    count_independent_sets_via_completions,
)
from repro.reductions.pseudoforest import (
    build_pseudoforest_db,
    count_pseudoforests_via_completions,
)
from repro.reductions.vertex_cover import (
    build_vertex_cover_db,
    count_vertex_covers_via_completions,
)

from tests.conftest import small_bipartite_graphs, small_graphs


class TestProp42VertexCovers:
    @given(small_graphs(max_nodes=5))
    @settings(max_examples=20, deadline=None)
    def test_parsimonious_identity(self, graph):
        assert count_vertex_covers_via_completions(
            graph
        ) == count_vertex_covers(graph)

    def test_database_is_unary_codd_nonuniform(self):
        db = build_vertex_cover_db(complete_graph(3))
        assert db.is_codd
        assert not db.is_uniform
        assert db.schema() == {"R": 1}

    def test_matches_independent_sets_too(self):
        """Theorem 5.5's bridge: #VC = #IS via complementation."""
        graph = cycle_graph(5)
        assert count_vertex_covers_via_completions(
            graph
        ) == count_independent_sets(graph)


class TestProp45aIndependentSets:
    @given(small_graphs(max_nodes=4))
    @settings(max_examples=15, deadline=None)
    def test_count_identity(self, graph):
        assert count_independent_sets_via_completions(
            graph
        ) == count_independent_sets(graph)

    def test_all_completions_satisfy_loop_query(self):
        from repro.core.query import Atom, BCQ
        from repro.db.valuation import iter_completions
        from repro.eval.evaluate import evaluate

        db = build_is_completion_db(path_graph(3))
        query = BCQ([Atom("R", ["x", "x"])])
        for completion in iter_completions(db):
            assert evaluate(query, completion)

    def test_fixed_domain_01(self):
        db = build_is_completion_db(path_graph(2))
        assert db.uniform_domain == frozenset({0, 1})


class TestProp45bPseudoforests:
    @given(small_bipartite_graphs(max_side=2))
    @settings(max_examples=10, deadline=None)
    def test_parsimonious_identity(self, graph):
        assert count_pseudoforests_via_completions(
            graph
        ) == count_induced_pseudoforests(graph)

    def test_k22(self):
        graph = complete_bipartite_graph(2, 2)
        assert count_pseudoforests_via_completions(
            graph
        ) == count_induced_pseudoforests(graph)

    def test_database_is_uniform_codd(self):
        db = build_pseudoforest_db(complete_bipartite_graph(2, 2))
        assert db.is_codd
        assert db.is_uniform

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            build_pseudoforest_db(cycle_graph(3))


class TestProp56GapGadget:
    @given(small_graphs(max_nodes=4))
    @settings(max_examples=10, deadline=None)
    def test_gap_is_exactly_8_or_7(self, graph):
        db = build_gap_db(graph)
        completions = solve("comp", db).count
        if len(graph.nodes) <= 2:  # brute cross-check while it stays cheap
            assert count_completions_brute(db, None, budget=None) == completions
        colorable = count_colorings(graph, 3) > 0
        assert completions == (8 if colorable else 7)

    def test_decision_via_exact_count(self):
        assert is_three_colorable_via_completions(cycle_graph(5))
        assert not is_three_colorable_via_completions(complete_graph(4))

    def test_decision_via_good_approximation(self):
        """A genuine 1/16-approximation decides 3-colorability — the BPP
        algorithm of Prop. 5.6 run with an exact oracle playing the FPRAS."""

        def exact_as_approximator(db, query, epsilon):
            return float(solve("comp", db, query).count)

        assert decide_three_colorability_via_approximation(
            cycle_graph(4), exact_as_approximator
        )
        assert not decide_three_colorability_via_approximation(
            complete_graph(4), exact_as_approximator
        )

    def test_oracle_sanity_guard(self):
        with pytest.raises(ArithmeticError):
            is_three_colorable_via_completions(
                cycle_graph(3), oracle=lambda db, q: 99
            )

    def test_triangle_with_loops_reachable(self):
        """7 completions even for the empty graph: the self-loop patterns."""
        empty = Graph()
        db = build_gap_db(empty)
        # empty graph is 3-colorable, so 8
        assert count_completions_brute(db, None, budget=None) == 8
