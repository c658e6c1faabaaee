"""The tree-decomposition DP backend: differential, structural, planner.

Three layers of coverage for ``method='dpdb'``:

* randomized differential — dpdb == trail core == reference core,
  bit-identically, on full *and* projected counts, plus exact weighted
  evaluation (negative ints and Fractions) against brute enumeration;
* directed structure — the decomposition's join/introduce/forget shape,
  bag invariants and the per-node int64/object table lanes;
* the planner seam — the width probe, the width-threshold fallback, and
  the width detail surfaced in plans.
"""

import random
from fractions import Fraction

import pytest

from repro.compile.backend import (
    count_completions_lineage,
    count_valuations_lineage,
)
from repro.compile.decompose import decompose
from repro.compile.dpdb import (
    DPDB_HARD_WIDTH_CAP,
    DPDB_WIDTH_LIMIT,
    count_completions_dpdb,
    count_models_dpdb,
    count_valuations_dpdb,
    dpdb_probe,
    memoized_probe,
    probe_cache_clear,
)
from repro.compile.ordering import primal_masks, refined_elimination_masks
from repro.compile.sharpsat import count_models
from repro.compile.sharpsat_reference import ReferenceModelCounter
from repro.complexity.cnf import CNF, count_models_brute
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.dispatch import solve
from repro.exact.planner import plan
from repro.obs import capture
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_block_comp_instance,
    scaling_grid_val_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
    scaling_long_cycle_val_instance,
)


def _random_cnf(rng, max_variables=9, max_clauses=14):
    num_variables = rng.randint(1, max_variables)
    cnf = CNF(num_variables)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, num_variables))
        chosen = rng.sample(range(1, num_variables + 1), width)
        cnf.add_clause(
            variable if rng.random() < 0.5 else -variable
            for variable in chosen
        )
    return cnf


def _weighted_brute(cnf, weights):
    """Exact weighted model 'count' by full enumeration (tiny CNFs only)."""
    total = 0
    for assignment in range(1 << cnf.num_variables):
        satisfied = all(
            any(
                (assignment >> (literal - 1)) & 1
                if literal > 0
                else not (assignment >> (-literal - 1)) & 1
                for literal in clause
            )
            for clause in cnf.clauses
        )
        if not satisfied:
            continue
        product = 1
        for variable in range(1, cnf.num_variables + 1):
            w_pos, w_neg = weights.get(variable, (1, 1))
            product *= w_pos if (assignment >> (variable - 1)) & 1 else w_neg
        total += product
    return total


class TestDifferentialSolver:
    """dpdb == trail core == reference core, bit for bit."""

    def test_full_and_projected_counts_match_both_cores(self):
        rng = random.Random(20260807)
        for _ in range(60):
            cnf = _random_cnf(rng)
            projection = frozenset(
                rng.sample(
                    range(1, cnf.num_variables + 1),
                    rng.randint(0, cnf.num_variables),
                )
            )
            full = count_models_dpdb(cnf)
            assert full == count_models(cnf)
            assert full == ReferenceModelCounter(cnf).count()
            projected = count_models_dpdb(cnf, projection=projection)
            assert projected == count_models(cnf, projection=projection)
            assert projected == ReferenceModelCounter(
                cnf, projection=projection
            ).count()

    def test_weighted_counts_match_brute_enumeration(self):
        rng = random.Random(42)
        for _ in range(40):
            cnf = _random_cnf(rng, max_variables=7, max_clauses=10)
            weights = {}
            for variable in range(1, cnf.num_variables + 1):
                if rng.random() < 0.7:
                    if rng.random() < 0.5:
                        weights[variable] = (
                            rng.randint(-3, 5),
                            rng.randint(-2, 4),
                        )
                    else:
                        weights[variable] = (
                            Fraction(rng.randint(-3, 5), rng.randint(1, 4)),
                            Fraction(rng.randint(-2, 4), rng.randint(1, 3)),
                        )
            assert count_models_dpdb(cnf, weights=weights) == (
                _weighted_brute(cnf, weights)
            )

    def test_empty_clause_short_circuits_to_zero(self):
        cnf = CNF(3, [(1, 2), ()])
        stats = {}
        assert count_models_dpdb(cnf, stats=stats) == 0
        assert stats["path"] == "empty-clause"

    def test_empty_clause_fills_every_stats_key(self):
        """The short circuit reports the decomposition's numbers and zero
        rows, under the same keys as a run that fills tables."""
        cnf = CNF(3, [(1, 2), (), (-3,)])
        stats, normal = {}, {}
        assert count_models_dpdb(cnf, stats=stats) == 0
        count_models_dpdb(CNF(3, [(1, 2), (-3,)]), stats=normal)
        assert set(stats) == set(normal)
        assert stats["rows"] == 0
        assert {key: stats[key] for key in ("nodes", "width")} == (
            {"nodes": 3, "width": 1}
        )

    def test_weights_and_projection_are_mutually_exclusive(self):
        cnf = CNF(2, [(1, 2)])
        with pytest.raises(ValueError):
            count_models_dpdb(cnf, projection=[1], weights={1: (2, 1)})


class TestDifferentialFrontDoors:
    """The #Val / #Comp front doors against the trail core."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_val_and_comp(self, seed):
        db = random_incomplete_db(
            {"R": 2, "S": 1}, seed=seed, num_nulls=3, domain_size=3
        )
        query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        assert count_valuations_dpdb(db, query) == (
            count_valuations_lineage(db, query)
        )
        for q in (query, None):
            assert count_completions_dpdb(db, q) == (
                count_completions_lineage(db, q)
            )

    @pytest.mark.parametrize(
        "instance",
        [
            scaling_hard_val_instance(8),
            scaling_grid_val_instance(3, 5),
            scaling_grid_val_instance(2, 6, num_colors=3),
            scaling_long_cycle_val_instance(10, 2),
        ],
        ids=["cycle", "grid", "grid3", "ring"],
    )
    def test_low_width_val_workloads(self, instance):
        db, query = instance
        assert count_valuations_dpdb(db, query) == (
            count_valuations_lineage(db, query)
        )

    def test_block_comp_workload_projected(self):
        db, query = scaling_block_comp_instance(6, seed=3)
        probe = dpdb_probe("comp", db, query)
        assert probe.ok and probe.width <= DPDB_WIDTH_LIMIT
        assert count_completions_dpdb(db, query) == (
            count_completions_lineage(db, query)
        )


class TestTableDtypes:
    """The per-node int64 / object table lanes of the one DP pass."""

    def test_small_int_counts_take_the_int64_path(self):
        stats = {}
        count_models_dpdb(CNF(4, [(1, 2), (-2, 3)]), stats=stats)
        assert stats["path"] == "int64"

    def test_huge_counts_cross_the_int64_boundary_exactly(self):
        # 40 independent triangles: count 7^40 > 2^62, but every DP
        # intermediate is small — every node stays in int64 and the root
        # factors and free factors combine in Python ints.
        cnf = CNF(120)
        for triangle in range(40):
            base = 3 * triangle
            cnf.add_clause((base + 1, base + 2, base + 3))
        stats = {}
        assert count_models_dpdb(cnf, stats=stats) == 7**40
        assert stats["path"] == "int64"

    def test_huge_weights_fall_back_to_object_tables(self):
        # The leaves (bound 2^41) run int64; their parents (bound 2^82)
        # run exact.
        cnf = CNF(4, [(1, 2), (3, 4)])
        big = 1 << 40
        weights = {v: (big, big) for v in range(1, 5)}
        stats = {}
        result = count_models_dpdb(cnf, weights=weights, stats=stats)
        assert stats["path"] == "mixed"
        assert result == _weighted_brute(cnf, weights)

    def test_zero_weight_node_over_a_huge_child_goes_exact(self):
        # Chain 1-2-3-4: the message node 2 passes up exceeds 2^62, and
        # variable 3 weighs (0, 0).  Without the weight clamp node 3's
        # bound would be 0 and the huge message would be cast to int64.
        cnf = CNF(4, [(1, 2), (2, 3), (3, 4)])
        big = 1 << 40
        weights = {1: (big, big), 2: (big, big), 3: (0, 0)}
        assert decompose(cnf).order == [1, 2, 3, 4]
        stats = {}
        result = count_models_dpdb(cnf, weights=weights, stats=stats)
        assert stats["path"] == "mixed"
        assert result == _weighted_brute(cnf, weights) == 0

    def test_all_zero_child_beside_a_huge_one_goes_exact(self):
        # Node 5 joins the all-zero message of variable 1 (weight (0, 0))
        # with the chain 2-3-4, whose message exceeds 2^62.  Without the
        # peak clamp the join's bound would be 0.
        cnf = CNF(5, [(1, 5), (2, 3), (3, 4), (4, 5)])
        big = 1 << 40
        weights = {1: (0, 0), 2: (big, big), 3: (big, -big), 4: (big, big)}
        decomposition = decompose(cnf)
        root = decomposition.roots[0]
        joined = [
            decomposition.order[child]
            for child in decomposition.children[root]
        ]
        assert decomposition.order[root] == 5 and sorted(joined) == [1, 4]
        stats = {}
        result = count_models_dpdb(cnf, weights=weights, stats=stats)
        assert stats["path"] == "mixed"
        assert result == _weighted_brute(cnf, weights)

    def test_signed_weight_fuzz_matches_brute_enumeration(self):
        rng = random.Random(20261017)
        paths = {}
        for scale in (1, 1 << 20, 1 << 31, 1 << 40):
            for _ in range(75):
                cnf = _random_cnf(rng, max_variables=8, max_clauses=12)
                weights = {
                    variable: (
                        rng.randint(-scale, scale),
                        rng.randint(-scale, scale),
                    )
                    for variable in range(1, cnf.num_variables + 1)
                    if rng.random() < 0.8
                }
                stats = {}
                result = count_models_dpdb(cnf, weights=weights, stats=stats)
                assert result == _weighted_brute(cnf, weights)
                paths[stats["path"]] = paths.get(stats["path"], 0) + 1
        # Leaves never need object columns at these scales (one weight
        # pair is below 2^41), so the runs split into all-int64 and mixed.
        assert set(paths) == {"int64", "mixed"}

    def test_fraction_weights_take_the_object_path(self):
        cnf = CNF(3, [(1, -2), (2, 3)])
        weights = {1: (Fraction(1, 3), Fraction(2, 3))}
        stats = {}
        result = count_models_dpdb(cnf, weights=weights, stats=stats)
        assert stats["path"] == "object"
        assert result == _weighted_brute(cnf, weights)


class TestDecompositionStructure:
    """Directed checks of bags, parents, clause homes, and node kinds."""

    def _check_invariants(self, cnf, decomposition):
        order = decomposition.order
        for node in range(len(decomposition)):
            bag = decomposition.bags[node]
            assert (bag >> order[node]) & 1  # own vertex in own bag
            parent = decomposition.parent[node]
            if parent >= 0:
                assert parent > node  # parents later: ascending schedule
                separator = decomposition.separator(node)
                assert separator & ~decomposition.bags[parent] == 0
            else:
                assert node in decomposition.roots
        homed = 0
        for node, clauses in enumerate(decomposition.node_clauses):
            for clause in clauses:
                homed += 1
                for literal in clause:
                    assert (decomposition.bags[node] >> abs(literal)) & 1
        assert homed == sum(1 for clause in cnf.clauses if clause)

    def test_chain_is_a_width_one_path(self):
        cnf = CNF(6, [(-v, v + 1) for v in range(1, 6)])
        decomposition = decompose(cnf)
        assert decomposition.width == 1
        self._check_invariants(cnf, decomposition)
        assert all(len(kids) <= 1 for kids in decomposition.children)

    def test_star_of_chains_has_a_join_node(self):
        # Three chains meeting at variable 1: the shared endpoint joins.
        cnf = CNF(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
        decomposition = decompose(cnf)
        self._check_invariants(cnf, decomposition)
        assert any(len(kids) >= 2 for kids in decomposition.children)
        assert count_models_dpdb(cnf) == count_models_brute(cnf)

    def test_disconnected_formula_yields_a_forest(self):
        cnf = CNF(6, [(1, 2), (3, 4), (5, 6)])
        decomposition = decompose(cnf)
        assert len(decomposition.roots) == 3
        self._check_invariants(cnf, decomposition)

    def test_free_variables_never_enter_bags(self):
        cnf = CNF(5, [(1, 2)])  # 3, 4, 5 occur in no clause
        decomposition = decompose(cnf)
        assert set(decomposition.free_variables) == {3, 4, 5}
        assert count_models_dpdb(cnf) == count_models_brute(cnf)

    def test_projected_decomposition_delays_projection_variables(self):
        cnf = CNF(4, [(1, 2), (2, 3), (3, 4)])
        projection = (2, 4)
        decomposition = decompose(cnf, projection=projection)
        positions = {
            variable: index
            for index, variable in enumerate(decomposition.order)
        }
        assert max(positions[1], positions[3]) < min(
            positions[2], positions[4]
        )
        stats = decomposition.stats()
        assert stats["width"] == decomposition.width
        assert stats["nodes"] == len(decomposition)


def _width(cnf):
    return refined_elimination_masks(primal_masks(cnf))[1]


class TestWidthProbe:
    def test_elimination_width_on_known_graphs(self):
        chain = CNF(5, [(v, v + 1) for v in range(1, 5)])
        assert _width(chain) == 1
        triangle = CNF(3, [(1, 2), (2, 3), (1, 3)])
        assert _width(triangle) == 2
        clique = CNF(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
        assert _width(clique) == 4

    def test_primal_masks_are_cached_per_cnf(self):
        cnf = CNF(4, [(1, 2), (3, 4)])
        first = primal_masks(cnf)
        assert primal_masks(cnf) is first  # same build returned
        cnf.add_clause((2, 3))  # the builder grew: cache must invalidate
        second = primal_masks(cnf)
        assert second is not first
        assert second[2] & (1 << 3)

    def test_probe_is_memoized_and_carries_detail(self):
        probe_cache_clear()
        db, query = scaling_hard_val_instance(6)
        first = dpdb_probe("val", db, query)
        assert dpdb_probe("val", db, query) is first
        detail = first.detail()
        assert detail["width"] == first.width
        assert detail["width_limit"] == DPDB_WIDTH_LIMIT

    @pytest.mark.parametrize(
        "instance",
        [
            scaling_block_comp_instance(6, seed=3),
            scaling_hard_comp_instance(6, seed=6),
        ],
        ids=["block", "hard"],
    )
    def test_projected_probe_and_decompose_share_one_elimination(
        self, instance
    ):
        db, query = instance
        probe_cache_clear()
        probe = dpdb_probe("comp", db, query)
        encoding = probe.encoding
        decomposition = decompose(
            encoding.cnf, projection=encoding.projection
        )
        assert (decomposition.order, decomposition.width, decomposition.bags) == (
            probe.order, probe.width, probe.bags
        )
        assert decomposition.projection_mask == probe.projection_mask

    def test_probe_rejects_other_kinds(self):
        db, query = scaling_hard_val_instance(4)
        with pytest.raises(ValueError):
            dpdb_probe("sweep", db, query)

    def test_probe_budget_overrun_reports_itself(self):
        domain = ["a", "b"]
        facts = [Fact("R", [Null(i)]) for i in range(2_100)]
        db = IncompleteDatabase(facts, uniform_domain=domain)
        probe = dpdb_probe("val", db, BCQ([Atom("R", ["x"])]))
        assert not probe.ok
        assert "over budget" in probe.reason


class TestWidthThresholdFallback:
    def test_high_width_comp_delegates_to_the_trail_core(self):
        # The projection-constrained width of this family grows linearly;
        # at size 20 it exceeds the hard cap, so the runner must delegate
        # (and say so in the obs stream) while staying bit-identical.
        db, query = scaling_hard_comp_instance(20)
        probe = dpdb_probe("comp", db, query)
        assert probe.ok and probe.width > DPDB_HARD_WIDTH_CAP
        with capture() as captured:
            result = count_completions_dpdb(db, query)
        assert result == count_completions_lineage(db, query)
        assert captured.counters.get("dpdb.fallback", 0) >= 1

    def test_planner_prefers_dpdb_only_below_the_width_limit(self):
        low_db, low_query = scaling_long_cycle_val_instance(12, 1)
        low = plan("val", low_db, low_query, "auto")
        assert low.chosen == "dpdb"
        assert "width" in low.explain()

        high_db, high_query = scaling_hard_comp_instance(20)
        high = plan("comp", high_db, high_query, "auto")
        assert high.chosen == "lineage"
        dpdb_row = next(
            item for item in high.considered if item.method == "dpdb"
        )
        assert dpdb_row.applicable  # forced dpdb stays honorable
        assert dpdb_row.verdict == "passed over"  # the gate sent auto on
        assert dpdb_row.detail["width"] > DPDB_WIDTH_LIMIT

    def test_forced_dpdb_above_the_cap_still_answers_correctly(self):
        db, query = scaling_hard_comp_instance(20)
        built = plan("comp", db, query, "dpdb")
        assert built.chosen == "dpdb"
        assert count_completions_dpdb(db, query) == (
            count_completions_lineage(db, query)
        )

    def test_plan_json_carries_the_width_detail(self):
        db, query = scaling_grid_val_instance(3, 4)
        record = plan("val", db, query, "auto").to_dict()
        row = next(
            item for item in record["considered"] if item["method"] == "dpdb"
        )
        assert row["detail"]["width"] <= row["detail"]["width_limit"]


def _spans(captured):
    """How many spans of each name a capture holds, at any depth."""
    names = {}
    for root in captured.roots:
        for node, _depth in root.walk():
            names[node.name] = names.get(node.name, 0) + 1
    return names


class TestOneEncoding:
    """A question the probe already encoded is not encoded again."""

    def test_lineage_routed_val_encodes_and_eliminates_once(self):
        # A perfbench chorded cycle whose width (13) sends auto past dpdb.
        db, query = scaling_hard_val_instance(
            16, chord_probability=0.1, seed=1
        )
        # Both runs search in the null-level order, one compile.ordering
        # span each; the routed one reuses only the probe's encoding.
        probe_cache_clear()
        with capture() as routed:
            answer = solve("val", db, query)
        assert answer.method == "lineage"
        assert _spans(routed).get("compile.encode") == 1
        assert _spans(routed).get("compile.ordering") == 1

        probe_cache_clear()
        with capture() as forced:
            fresh = solve("val", db, query, method="lineage")
        assert _spans(forced)["compile.encode"] == 1
        assert _spans(forced)["compile.ordering"] == 1
        assert "dpdb.probe" not in _spans(forced)
        assert fresh.count == answer.count
        assert (
            routed.counters["sharpsat.decisions"]
            == forced.counters["sharpsat.decisions"]
        )

    def test_the_memoized_order_is_not_reversed(self):
        db, query = scaling_hard_val_instance(
            16, chord_probability=0.1, seed=1
        )
        probe_cache_clear()
        probe = dpdb_probe("val", db, query)
        order = list(probe.order)
        count_valuations_lineage(db, query)
        assert probe.order == order
        assert order == refined_elimination_masks(
            primal_masks(probe.encoding.cnf)
        )[0]

    def test_lineage_routed_comp_reuses_the_encoding_only(self):
        # Width 13 > 12: auto passes dpdb over.  The search still runs the
        # undelayed elimination, since the probe's delays the projection.
        db, query = scaling_hard_comp_instance(12, seed=1)
        probe_cache_clear()
        with capture() as routed:
            answer = solve("comp", db, query)
        assert answer.method == "lineage"
        assert _spans(routed).get("compile.encode") == 1
        assert _spans(routed).get("compile.ordering") == 1

        probe_cache_clear()
        with capture() as forced:
            fresh = solve("comp", db, query, method="lineage")
        assert _spans(forced)["compile.encode"] == 1
        assert "dpdb.probe" not in _spans(forced)
        assert fresh.count == answer.count
        assert (
            routed.counters["sharpsat.decisions"]
            == forced.counters["sharpsat.decisions"]
        )

    def test_forced_lineage_makes_no_probe(self):
        db, query = scaling_hard_comp_instance(12, seed=1)
        probe_cache_clear()
        solve("comp", db, query, method="lineage")
        assert memoized_probe("comp", db, query) is None

    def test_fallback_above_the_cap_encodes_once(self):
        db, query = scaling_hard_comp_instance(20)
        probe_cache_clear()
        with capture() as captured:
            result = count_completions_dpdb(db, query)
        assert captured.counters["dpdb.fallback"] == 1
        assert _spans(captured)["compile.encode"] == 1
        probe_cache_clear()
        assert result == count_completions_lineage(db, query)
