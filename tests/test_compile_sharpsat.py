"""Tests for the exact model counter and its ordering heuristic."""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.complexity.cnf import CNF, CNF3, count_models_brute, count_sat
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.compile import ordering
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.encode import compile_completion_cnf, compile_valuation_cnf
from repro.compile.ordering import (
    branching_order,
    exactly_one_blocks,
    primal_masks,
    refined_elimination_masks,
)
from repro.compile.sharpsat import ModelCounter, count_models
from repro.compile.sharpsat_reference import ReferenceModelCounter
from repro.workloads.generators import (
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
)


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
        assert count_models(cnf) == ReferenceModelCounter(cnf).count()

    @given(small_cnfs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_projected_counts_match_reference(self, cnf, data):
        projection = data.draw(
            st.sets(st.integers(min_value=1, max_value=cnf.num_variables))
        )
        assert count_models(cnf, projection=projection) == (
            ReferenceModelCounter(cnf, projection=projection).count()
        )

    def test_reference_core_surfaces_statistics(self):
        cnf = CNF(4, [(1, 2), (3, 4)])
        counter = ReferenceModelCounter(cnf)
        assert counter.count() == 9
        assert counter.components_split >= 1
        assert counter.width is not None


def random_cnf(rng, max_variables=8, max_clauses=14):
    n = rng.randint(1, max_variables)
    cnf = CNF(n)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        cnf.add_clause(
            v if rng.random() < 0.5 else -v for v in variables
        )
    return cnf


class TestRandomizedSoundness:
    def test_full_counts_unchanged(self):
        # Full-count mode runs root unit propagation only; the count and
        # the circuit the search records must still match the reference.
        rng = random.Random(20250730)
        for _ in range(120):
            cnf = random_cnf(rng)
            reference = ReferenceModelCounter(cnf).count()
            trace = TraceBuilder()
            counter = ModelCounter(cnf, trace=trace)
            assert counter.count() == reference
            circuit = trace.build(counter.trace_root, cnf.num_variables)
            assert circuit.count() == reference

    def test_projected_counts_unchanged(self):
        rng = random.Random(73)
        for _ in range(120):
            cnf = random_cnf(rng)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(0, cnf.num_variables),
            )
            reference = ReferenceModelCounter(cnf, projection=projection).count()
            assert count_models(cnf, projection=projection) == reference

    def test_traced_projected_counts_unchanged(self):
        rng = random.Random(97)
        for _ in range(60):
            cnf = random_cnf(rng, max_variables=6)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(1, cnf.num_variables),
            )
            reference = ReferenceModelCounter(cnf, projection=projection).count()
            trace = TraceBuilder()
            counter = ModelCounter(cnf, projection=projection, trace=trace)
            assert counter.count() == reference
            circuit = trace.build(
                counter.trace_root, cnf.num_variables, countable=projection
            )
            assert circuit.count() == reference


@pytest.mark.parametrize(
    "num_variables,clauses,projection,expected",
    [
        # x1 <-> x2 <-> x3: the chain's non-projection end follows x1.
        pytest.param(3, [(-1, 2), (1, -2), (-1, 3), (1, -3)], [1, 2], 2,
                     id="equivalence-chain"),
        # x1 <-> x2 with x2 outside the projection: (x1, x3) != (F, F).
        pytest.param(3, [(-1, 2), (1, -2), (2, 3)], [1, 3], 3,
                     id="equivalence-outside-projection"),
        # x3 occurs only positively and is outside the projection.
        pytest.param(3, [(1, 3), (2, 3)], [1, 2], 4,
                     id="pure-non-projection-literal"),
        # x1 forces x2 and -x2, so x1 is false and x3 true.
        pytest.param(3, [(-1, 2), (-1, -2), (1, 3)], [1, 2, 3], 2,
                     id="failed-literal"),
        pytest.param(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)], [1, 2], 0,
                     id="unsatisfiable-pair"),
        pytest.param(1, [(1,), (-1,)], [1], 0, id="contradicting-units"),
    ],
)
def test_directed_projected_counts(num_variables, clauses, projection, expected):
    """Counted, traced, against the reference core and the circuit."""
    cnf = CNF(num_variables, clauses)
    assert ReferenceModelCounter(cnf, projection=projection).count() == expected
    assert count_models(cnf, projection=projection) == expected
    trace = TraceBuilder()
    counter = ModelCounter(cnf, projection=projection, trace=trace)
    assert counter.count() == expected
    circuit = trace.build(
        counter.trace_root, num_variables, countable=projection
    )
    assert circuit.count() == expected


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
        # A full count orders by the formula's exactly-one blocks.
        order, width = branching_order(cnf, exactly_one_blocks(cnf))
        counter = ModelCounter(cnf)
        assert counter.width == width
        # Rank bits: the order first, then the variables it omits.
        assert counter._variables[:len(order)] == order
        assert counter._variables[len(order):] == sorted(
            set(range(1, cnf.num_variables + 1)) - set(order)
        )


class TestExactlyOneBlocks:
    """Blocks are all-positive clauses whose members are pairwise
    excluded; the null-level order lists each block's variables together."""

    def test_choice_variable_blocks_are_found(self):
        a, b, c, d = (Null(label) for label in "abcd")
        db = IncompleteDatabase(
            [Fact("R", [a, b]), Fact("R", [c, d]), Fact("S", [b])],
            dom={a: ["x"], b: ["x", "y"], c: ["x", "y", "z"],
                 d: ["w", "x", "y", "z"]},
        )
        encoding = compile_valuation_cnf(db, BCQ([Atom("R", ["u", "u"])]))
        choices = encoding.choices
        # The one-value null is a unit clause, not a block.
        assert exactly_one_blocks(encoding.cnf) == [
            tuple(choices.var(null, value) for value in sorted(db.domain_of(null)))
            for null in (b, c, d)
        ]

    def test_size_two_blocks_are_found(self):
        cnf = CNF(4, [(1, 2), (-1, -2), (3, 4)])
        assert exactly_one_blocks(cnf) == [(1, 2)]

    def test_a_clause_without_pairwise_exclusion_is_no_block(self):
        cnf = CNF(3, [(1, 2, 3), (-1, -2), (-2, -3)])  # 1 and 3 may both hold
        assert exactly_one_blocks(cnf) == []
        cnf.add_clause((-1, -3))
        assert exactly_one_blocks(cnf) == [(1, 2, 3)]
        assert exactly_one_blocks(CNF(3, [(1, -2, 3), (-1, -3)])) == []

    def test_of_two_overlapping_blocks_the_first_wins(self):
        first, second = CNF(4), CNF(4)
        first.add_exactly_one([2, 3, 4])
        first.add_exactly_one([1, 2])
        second.add_exactly_one([1, 2])
        second.add_exactly_one([2, 3, 4])
        assert exactly_one_blocks(first) == [(2, 3, 4)]
        assert exactly_one_blocks(second) == [(1, 2)]

    def test_the_null_level_order_keeps_each_block_together(self):
        db, query = scaling_hard_val_instance(10, chord_probability=0.2, seed=3)
        cnf = compile_valuation_cnf(db, query).cnf
        blocks = exactly_one_blocks(cnf)
        assert len(blocks) == len(db.nulls)
        order, _width = branching_order(cnf, blocks)
        assert sorted(order) == sorted(branching_order(cnf)[0])
        position = {variable: rank for rank, variable in enumerate(order)}
        for block in blocks:
            start = position[block[0]]
            assert tuple(order[start:start + len(block)]) == block

    def test_width_counts_expanded_bags(self):
        # Two three-variable blocks joined by one binary clause: the first
        # block's bag holds both, six variables.
        cnf = CNF(6)
        cnf.add_exactly_one([1, 2, 3])
        cnf.add_exactly_one([4, 5, 6])
        cnf.add_clause((-1, -4))
        assert branching_order(cnf, exactly_one_blocks(cnf)) == (
            [4, 5, 6, 1, 2, 3], 5,
        )
        lone = CNF(3)
        lone.add_exactly_one([1, 2, 3])
        assert branching_order(lone, exactly_one_blocks(lone)) == ([1, 2, 3], 2)

    @pytest.mark.parametrize("size", [3, 4])
    def test_branches_once_per_value(self, size):
        # One null of three or four values: one decision node, one branch
        # per value.
        members = list(range(1, size + 1))
        cnf = CNF(size)
        cnf.add_exactly_one(members)
        trace = TraceBuilder()
        counter = ModelCounter(cnf, trace=trace)
        assert counter.count() == size
        assert counter.stats()["decisions"] == size
        circuit = trace.build(counter.trace_root, size)
        assert circuit.count() == size
        assert circuit._plan().branch_node.tolist() == [circuit.root] * size
        # The projected search keeps the variable-at-a-time branching.
        projected = ModelCounter(cnf, projection=members)
        assert projected.count() == size
        assert projected.stats()["decisions"] == 2 * (size - 1)


def _rescan_eliminate(masks, use_min_fill, delay):
    """The elimination oracle: ``ordering._greedy_eliminate``'s contract
    computed the plain way, rescanning every live vertex at every step
    (min-fill or min-degree score, ties broken by vertex index, ``delay``
    vertices only once no other vertex is left)."""
    adjacency = dict(masks)

    alive = 0
    for vertex in adjacency:
        alive |= 1 << vertex

    order = []
    bags = []
    width = 0
    while adjacency:
        eager_only = bool(alive & ~delay)
        best_vertex = -1
        best_score = None
        for vertex in adjacency:
            if eager_only and (delay >> vertex) & 1:
                continue
            neighbors = adjacency[vertex] & alive
            if use_min_fill:
                score = 0
                remaining = neighbors
                while remaining:
                    low = remaining & -remaining
                    u = low.bit_length() - 1
                    remaining ^= low
                    score += (remaining & ~adjacency[u]).bit_count()
            else:
                score = neighbors.bit_count()
            if best_score is None or (score, vertex) < (best_score, best_vertex):
                best_score, best_vertex = score, vertex
        neighbors = adjacency.pop(best_vertex) & alive
        alive &= ~(1 << best_vertex)
        order.append(best_vertex)
        bags.append(neighbors | (1 << best_vertex))
        width = max(width, neighbors.bit_count())
        remaining = neighbors
        while remaining:
            low = remaining & -remaining
            u = low.bit_length() - 1
            remaining ^= low
            adjacency[u] = (adjacency[u] | neighbors) & ~low
    return order, width, bags


@st.composite
def graphs(
    draw, min_vertices: int = 0, max_vertices: int = 30, min_percent: int = 0,
    max_percent: int = 100,
) -> tuple[dict[int, int], int]:
    """An undirected graph as ``{vertex: neighbor mask}`` over vertices
    ``1..n``, some of them isolated, each other pair joined with a drawn
    ``percent`` chance, and a random ``delay`` mask."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    isolated = draw(st.sets(st.integers(min_value=1, max_value=max(n, 1))))
    percent = draw(st.integers(min_value=min_percent, max_value=max_percent))
    rng = draw(st.randoms(use_true_random=False))
    masks = {vertex: 0 for vertex in range(1, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if u in isolated or v in isolated or rng.randrange(100) >= percent:
                continue
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    delay = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) << 1
    return masks, delay


def _grid_masks(rows: int, cols: int) -> dict[int, int]:
    masks = {}
    for r in range(rows):
        for c in range(cols):
            vertex = 1 + r * cols + c
            masks[vertex] = 0
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    masks[vertex] |= 1 << (1 + (r + dr) * cols + c + dc)
    return masks


class TestIncrementalElimination:
    """The heap loop returns the rescan loop's ``(order, width, bags)``."""

    @staticmethod
    def _assert_same_as_rescan(masks, delay):
        for use_min_fill in (False, True):
            assert ordering._greedy_eliminate(
                masks, use_min_fill, delay
            ) == _rescan_eliminate(masks, use_min_fill, delay), use_min_fill

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs_match_rescan(self, graph):
        masks, delay = graph
        self._assert_same_as_rescan(masks, delay)

    @given(graphs(min_vertices=40, max_vertices=60, min_percent=10, max_percent=40))
    @settings(max_examples=15, deadline=None)
    def test_dense_graphs_match_rescan(self, graph):
        # An elimination here adds several fill edges on average, so the
        # triangle counts take long runs of updates between two pops.
        masks, delay = graph
        self._assert_same_as_rescan(masks, delay)

    def test_projected_comp_probe_matches_rescan(self):
        # The dpdb probe on #Comp delays the projection (fact) variables.
        encoding = compile_completion_cnf(*scaling_hard_comp_instance(10))
        delay = 0
        for variable in encoding.projection:
            delay |= 1 << variable
        masks = primal_masks(encoding.cnf)
        self._assert_same_as_rescan(masks, delay)
        order, _width, _bags = ordering._greedy_eliminate(masks, True, delay)
        delayed = [(delay >> vertex) & 1 for vertex in order]
        assert delayed == sorted(delayed) and any(delayed)

    def test_grid_matches_rescan(self):
        masks = _grid_masks(3, 8)
        self._assert_same_as_rescan(masks, 0)
        assert refined_elimination_masks(masks)[1] == 3


def _unbounded_refined(masks, delay):
    """The two-phase rule with both passes run in full: min-fill only under
    the width and size limits, and kept only when strictly narrower."""
    degree = _rescan_eliminate(masks, False, delay)
    if (
        degree[1] <= ordering.MIN_FILL_REFINE_WIDTH
        and len(masks) <= ordering.MIN_FILL_VERTEX_LIMIT
    ):
        fill = _rescan_eliminate(masks, True, delay)
        if fill[1] < degree[1]:
            return fill
    return degree


def _masks_of(edges):
    masks = {vertex: 0 for edge in edges for vertex in edge}
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


#: Min-degree width 4, min-fill width 3.
_FILL_WINS = _masks_of(
    [(1, 2), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
)
#: A triangle with a pendant: both widths 2, different orders.
_TIE = _masks_of([(1, 2), (1, 3), (2, 3), (2, 4)])


class TestRefinedElimination:
    """``refined_elimination_masks`` stops its min-fill pass once it cannot
    win; the triple is still the one the unbounded rule picks."""

    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs_match_unbounded_rule(self, graph):
        masks, delay = graph
        assert refined_elimination_masks(masks, delay) == _unbounded_refined(
            masks, delay
        )

    def test_fill_wins_when_narrower(self):
        fill = _rescan_eliminate(_FILL_WINS, True, 0)
        assert _rescan_eliminate(_FILL_WINS, False, 0)[1] == 4 and fill[1] == 3
        assert refined_elimination_masks(_FILL_WINS) == fill

    def test_tie_keeps_min_degree(self):
        degree = _rescan_eliminate(_TIE, False, 0)
        fill = _rescan_eliminate(_TIE, True, 0)
        assert degree[1] == fill[1] == 2 and degree != fill
        assert refined_elimination_masks(_TIE) == degree

    @pytest.mark.parametrize(
        "name, value",
        [("MIN_FILL_REFINE_WIDTH", 3), ("MIN_FILL_VERTEX_LIMIT", 5)],
    )
    def test_limits_keep_min_degree(self, monkeypatch, name, value):
        monkeypatch.setattr(ordering, name, value)
        degree = _rescan_eliminate(_FILL_WINS, False, 0)
        assert refined_elimination_masks(_FILL_WINS) == degree
        assert _unbounded_refined(_FILL_WINS, 0) == degree

    @given(graphs(max_vertices=12))
    @settings(max_examples=100, deadline=None)
    def test_low_limits_match_unbounded_rule(self, graph):
        masks, delay = graph
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ordering, "MIN_FILL_REFINE_WIDTH", 3)
            patch.setattr(ordering, "MIN_FILL_VERTEX_LIMIT", 8)
            assert refined_elimination_masks(masks, delay) == _unbounded_refined(
                masks, delay
            )


#: Each instance's dpdb probe: ``(kind, generator call, min-fill wins,
#: digest)``, the digest being the first 16 hex digits of the SHA-256 of
#: ``repr((order, width, bags))``.  No answer shows a changed triple (every
#: decomposition gives the same DP count); plans, widths and speed do.
PINNED_PROBES = (
    ("val", "scaling_hard_val_instance(16, chord_probability=0.1, seed=3)",
     False, "63196b2fc45700bf"),
    ("val", "scaling_hard_val_instance(20, chord_probability=0.1, seed=5)",
     True, "030072751eb95c02"),
    ("val", "scaling_grid_val_instance(3, 8, num_colors=3)",
     True, "0ea1a677cfec59f8"),
    ("val", "scaling_long_cycle_val_instance(40, 1, num_colors=3)",
     False, "575e7159f8014956"),
    ("comp", "scaling_hard_comp_instance(8, seed=2)",
     False, "f640d0e8ff0a18aa"),
    ("comp", "scaling_block_comp_instance(5, seed=2)",
     False, "12a5fc87fb541e26"),
)

_PINNED_PROBE_SCRIPT = """
import hashlib
from repro.compile import ordering
from repro.compile.dpdb import dpdb_probe
from repro.workloads import generators
for kind, call in %r:
    probe = dpdb_probe(kind, *eval(call, vars(generators)))
    triple = (probe.order, probe.width, probe.bags)
    degree = ordering._greedy_eliminate(
        ordering.primal_masks(probe.encoding.cnf), False, probe.projection_mask
    )
    wins = probe.width < degree[1]
    assert wins or triple == degree
    print(hashlib.sha256(repr(triple).encode()).hexdigest()[:16], wins)
"""


class TestPinnedProbeEliminations:
    """The probe's elimination triples on a fixed instance list match their
    pinned digests under two hash seeds, and min-fill wins exactly where
    the list says (elsewhere the probe returns the min-degree triple)."""

    def test_digests_and_outcomes_hold(self):
        script = _PINNED_PROBE_SCRIPT % ([entry[:2] for entry in PINNED_PROBES],)
        root = Path(__file__).resolve().parent.parent
        expected = "".join(
            "%s %s\n" % (digest, wins) for _kind, _call, wins, digest in PINNED_PROBES
        )
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            ).stdout
            assert output == expected, seed


def _load(name, relative):
    """A module of the repository's ``perfbench/`` or ``benchmarks/``."""
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


#: ``(decisions, cache entries, circuit nodes)`` of the trail search, under
#: the null-level order with one decision per null, on the chorded-cycle
#: ``#Val`` instances of perfbench's ``SESSION_INSTANCES`` and of the
#: harness's quick circuit batch, in their order.
PINNED_SESSION_SHAPES = [(2550, 1099, 2832), (1272, 580, 1041), (1893, 868, 2067)]
PINNED_HARNESS_SHAPES = [
    (831, 394, 810), (2550, 1099, 2832), (2043, 937, 1698),
    (1893, 868, 2067), (2319, 1153, 2349), (1449, 664, 1338),
]


class TestPinnedCompileShapes:
    """The search's shape on the benchmarked compiles.  A change that moves
    it restates the pinned triples on purpose, and says so."""

    def test_the_benchmarked_compiles_hold_their_shape(self):
        workloads = _load("_perfbench_workloads", "perfbench/workloads.py")
        harness = _load("_benchmarks_harness", "benchmarks/harness.py")
        instances = [
            scaling_hard_val_instance(size, chord_probability=chords, seed=seed)
            for size, chords, seed in workloads.SESSION_INSTANCES
        ] + [(job.db, job.query) for job in harness.circuit_workload(True)]
        shapes = {}
        found = []
        for db, query in instances:
            cnf = compile_valuation_cnf(db, query).cnf
            key = (cnf.num_variables, cnf.clauses)
            if key not in shapes:
                trace = TraceBuilder()
                counter = ModelCounter(cnf, trace=trace)
                counter.count()
                stats = counter.stats()
                shapes[key] = (
                    stats["decisions"],
                    stats["cache_entries"],
                    trace.build(counter.trace_root, cnf.num_variables).num_nodes,
                )
            found.append(shapes[key])
        assert found == PINNED_SESSION_SHAPES + PINNED_HARNESS_SHAPES


def _merge_split(counter, indices):
    """The split oracle: ``ModelCounter._split``'s contract computed by a
    merge loop.  Clauses are taken highest index first; a clause joins the
    group its bitset meets, merging every other group it also meets, and
    opens a group of its own when it meets none."""
    store = counter._store
    value = store.value
    base = 2 * store.num_variables + 2
    group_masks = []
    group_members = []
    group_packed = []
    for ci in reversed(indices):
        mask = 0
        packed = 0
        for literal in store.clauses[ci]:
            variable = abs(literal)
            if not value[variable]:
                mask |= 1 << variable
                packed = packed * base + (
                    2 * literal if literal > 0 else 1 - 2 * literal
                )
        hit = -1
        for gi, gm in enumerate(group_masks):
            if gm and gm & mask:
                if hit < 0:
                    hit = gi
                    group_masks[gi] = gm | mask
                    group_members[gi].append(ci)
                    group_packed[gi].append(packed)
                else:
                    group_masks[hit] |= gm
                    group_masks[gi] = 0
                    group_members[hit].extend(group_members[gi])
                    group_members[gi] = []
                    group_packed[hit].extend(group_packed[gi])
                    group_packed[gi] = []
        if hit < 0:
            group_masks.append(mask)
            group_members.append([ci])
            group_packed.append([packed])
    components = [
        (sorted(members), mask, tuple(sorted(packed)))
        for mask, members, packed in zip(
            group_masks, group_members, group_packed
        )
        if mask  # a merged group's tombstone
    ]
    components.sort(key=lambda component: component[0][0])
    return components


def _chorded_cycle_val_cnf():
    db, query = scaling_hard_val_instance(14, chord_probability=0.1, seed=1)
    return compile_valuation_cnf(db, query).cnf, None


def _projected_comp_cnf():
    encoding = compile_completion_cnf(*scaling_hard_comp_instance(10, seed=1))
    return encoding.cnf, encoding.projection


def _variables_of(counter, mask):
    """The variables of a rank-bit ``mask`` as an ordinary bitset."""
    return sum(1 << variable for variable in counter._mask_variables(mask))


def _binary_inside(counter, variables):
    """The stored binary clauses over two variables of ``variables``."""
    store = counter._store
    inside = set(counter._mask_variables(variables))
    return [
        ci for ci in store.binary
        if all(abs(literal) in inside for literal in store.clauses[ci])
    ]


def _all_live(counter, indices, variables):
    """Every live clause of the residual formula the split sees: the live
    long clauses among ``indices`` and the binary clauses inside
    ``variables`` (rank bits), ascending; the oracle's input."""
    live = [ci for ci in indices if not counter._store.sat[ci]]
    return sorted(live + _binary_inside(counter, variables))


def _assert_split_matches_merge(counter, indices, variables, keys=None):
    """``counter._split(indices, variables)`` against the merge loop: each
    component's long members plus the binary clauses inside its
    variables are the oracle's clauses, its variables are the oracle's,
    and the order is the oracle's.  With ``keys``, also record which
    split key went with which all-clause key."""
    components = counter._split(indices, variables)
    _assert_matches_merge(counter, indices, variables, components, keys)
    return components


def _assert_matches_merge(counter, indices, variables, components, keys=None):
    store = counter._store
    oracle = _merge_split(counter, _all_live(counter, indices, variables))
    assert len(components) == len(oracle)
    for (members, mask, key), (clauses, union, packed) in zip(components, oracle):
        assert sorted(members + _binary_inside(counter, mask)) == clauses
        assert set(members) <= set(store.long)
        assert _variables_of(counter, mask) == union
        if keys is not None:
            keys.append((key, packed))


def _unassigned(counter):
    store = counter._store
    return sum(
        counter._bits[variable]
        for variable in range(1, store.num_variables + 1)
        if not store.value[variable]
    )


def _checked_counter(cnf, projection=None, order=None):
    """A counter whose every split is checked against the oracle."""
    counter = ModelCounter(cnf, projection=projection, order=order)
    split = counter._split
    calls = []

    def checked(indices, variables):
        components = split(indices, variables)
        _assert_matches_merge(counter, indices, variables, components)
        calls.append(len(components))
        return components

    counter._split = checked
    return counter, calls


def _assert_keys_exact(keys):
    """Two components share a split key exactly when they share an
    all-clause packed key."""
    by_key: dict = {}
    by_packed: dict = {}
    for key, packed in keys:
        assert by_key.setdefault(key, packed) == packed
        assert by_packed.setdefault(packed, key) == key


class TestVariableSplit:
    """The variable split returns the merge loop's components, in order,
    under keys that are equal exactly when the all-clause keys are."""

    @staticmethod
    def _assert_same_as_merge(counter, keys):
        _assert_split_matches_merge(
            counter, counter._store.long, _unassigned(counter), keys
        )

    def _walk(self, cnf, projection, data):
        counter = ModelCounter(cnf, projection=projection)
        store = counter._store
        keys = []
        self._assert_same_as_merge(counter, keys)
        marks = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            unassigned = [
                variable
                for variable in range(1, cnf.num_variables + 1)
                if not store.value[variable]
            ]
            if marks and (not unassigned or data.draw(st.booleans())):
                store.backtrack(marks.pop())
            elif unassigned:
                variable = data.draw(st.sampled_from(unassigned))
                mark = store.mark()
                if store.propagate((variable * data.draw(st.sampled_from((1, -1))),)):
                    marks.append(mark)
                else:
                    store.backtrack(mark)
            self._assert_same_as_merge(counter, keys)
        _assert_keys_exact(keys)

    @given(small_cnfs(max_variables=8, max_clauses=12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_cnf_walks_match_merge_loop(self, cnf, data):
        self._walk(cnf, None, data)

    @given(
        st.sampled_from((_chorded_cycle_val_cnf, _projected_comp_cnf)),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_encoder_cnf_walks_match_merge_loop(self, build, data):
        cnf, projection = build()
        self._walk(cnf, projection, data)

    def test_chorded_cycle_count_checks_every_split(self):
        # Under the null-level order no split of this instance returns
        # more than one component; the variable-level order still does.
        cnf, _projection = _chorded_cycle_val_cnf()
        counter, calls = _checked_counter(cnf, order=branching_order(cnf)[0])
        assert counter.count() == count_models(cnf)
        assert calls and max(calls) > 1

    def test_projected_comp_count_checks_satisfiability_splits(self):
        # Once a component holds no projection variable, the search asks
        # _satisfiable, which splits the residual formula too.
        cnf, projection = _projected_comp_cnf()
        counter, calls = _checked_counter(cnf, projection)
        assert counter.count() == count_models(cnf, projection=projection)
        assert counter.stats()["sat_cache_entries"] > 0
        assert calls and max(calls) > 1

    @staticmethod
    def _root_split(clauses, num_variables, order=None):
        """The root split of a fresh counter, as ``(clauses, variables)``
        pairs in the oracle's terms."""
        counter = ModelCounter(CNF(num_variables, clauses), order=order)
        store = counter._store
        components = _assert_split_matches_merge(
            counter, store.long, _unassigned(counter)
        )
        return [
            (_all_live(counter, members, mask), _variables_of(counter, mask))
            for members, mask, _key in components
        ]

    def test_keys_tell_negative_literals_apart(self):
        # Two states leave the same variables and residual long clauses
        # with the same positive literals, (1, -2, 3) and (1, 3, -4): only
        # their negative literals tell the components apart.
        cnf = CNF(6, [(1, -2, 3, 5), (1, 3, -4, 6), (-3, -4), (-2, -3)])
        counter = ModelCounter(cnf)
        store = counter._store
        keys = []
        for literals in ((-5, 6), (5, -6)):
            mark = store.mark()
            assert store.propagate(literals)
            _assert_split_matches_merge(
                counter, store.long, _unassigned(counter), keys
            )
            store.backtrack(mark)
        _assert_keys_exact(keys)
        (first, _), (second, _) = keys  # one component each
        assert first[0] == second[0]  # over the same variables
        assert first != second

    def test_path_links_in_ascending_order(self):
        links = [(v, v + 1) for v in range(1, 12)]
        [(members, mask)] = self._root_split(links, 12)
        assert members == list(range(11))
        assert mask == (1 << 13) - 2

    def test_path_links_in_descending_order(self):
        links = [(v, v + 1) for v in range(11, 0, -1)]
        [(members, _mask)] = self._root_split(links, 12)
        assert members == list(range(11))

    def test_path_grown_from_its_middle(self):
        # The lowest rank bit sits mid-path, so the closure grows the
        # component outward in both directions, one link per level.
        links = [(v, v + 1) for v in range(1, 12)]
        order = [6, 1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 7]
        [(members, mask)] = self._root_split(links, 12, order=order)
        assert members == list(range(11))
        assert mask == (1 << 13) - 2

    def test_interleaved_components_come_out_by_smallest_clause(self):
        # Three paths over variables 1-4, 5-8 and 9-12, their links
        # interleaved in store order.
        paths = [[(v, v + 1) for v in range(start, start + 3)] for start in (1, 5, 9)]
        links = [link for triple in zip(*paths) for link in triple]
        components = self._root_split(links, 12)
        assert [members for members, _mask in components] == [
            [0, 3, 6], [1, 4, 7], [2, 5, 8],
        ]
        assert [mask for _members, mask in components] == [
            0b11110, 0b111100000, 0b1111000000000,
        ]

    def test_long_clauses_bridge_binary_groups(self):
        # Two binary paths (1-2-3, 4-5-6) joined only by a ternary clause,
        # a ternary clause over variables no binary clause holds (7-9),
        # and a ternary clause that reaches one of those into a path.
        clauses = [(1, 2), (2, 3), (4, 5), (5, 6), (3, 4, 7), (8, 9, 10)]
        [(members, mask)] = self._root_split(clauses[:5], 7)
        assert members == [0, 1, 2, 3, 4] and mask == 0b11111110
        components = self._root_split(clauses, 10)
        assert [members for members, _mask in components] == [
            [0, 1, 2, 3, 4], [5],
        ]
        assert components[1][1] == 0b11100000000
        # A component's smallest clause can be a binary clause below its
        # long ones: 1-2-3-4 comes first by (1, 2), not by (2, 3, 4).
        components = self._root_split([(1, 2), (5, 6, 7), (2, 3, 4)], 7)
        assert [members for members, _mask in components] == [[0, 2], [1]]
