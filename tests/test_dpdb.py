"""The tree-decomposition DP backend: differential, structural, planner.

Three layers of coverage for ``method='dpdb'``:

* randomized differential — dpdb == trail core == reference core,
  bit-identically, on full *and* projected counts;
* directed structure — the tree the DP reads off its elimination (bag
  invariants, join nodes, forests), the per-node int64/object table
  lanes, and the probe's elimination as the one the DP counts off;
* the planner seam — the width probe, the width-threshold fallback, the
  width detail surfaced in plans, and one encoding per question.
"""

import random
from collections import Counter

import pytest

from repro.compile import dpdb
from repro.compile.backend import (
    count_completions_lineage,
    count_valuations_lineage,
)
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


def _trees(call):
    """Run ``call()`` and return ``(order, bags, parent, homes)`` for each
    tree the DP built meanwhile: the elimination it counted off and the
    tree it read from it."""
    built = []
    tree = dpdb._tree

    def spy(cnf, order, bags):
        parent, homes = tree(cnf, order, bags)
        built.append((order, bags, parent, homes))
        return parent, homes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dpdb, "_tree", spy)
        call()
    return built


def _own_tree(cnf, projection=None):
    """The elimination and tree ``count_models_dpdb`` builds for ``cnf``
    by itself, and the run's stats."""
    stats = {}
    (own,) = _trees(
        lambda: count_models_dpdb(cnf, projection=projection, stats=stats)
    )
    return own, stats


def _chain(cnf, variables):
    """``a ∨ b`` for each consecutive pair: a length-``n`` chain has
    ``F(n + 2)`` models (no two adjacent variables false)."""
    for left, right in zip(variables, variables[1:]):
        cnf.add_clause((left, right))
    return cnf


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


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

    def test_empty_clause_short_circuits_to_zero(self):
        cnf = CNF(3, [(1, 2), ()])
        stats = {}
        assert count_models_dpdb(cnf, stats=stats) == 0
        assert stats["path"] == "empty-clause"

    def test_empty_clause_fills_every_stats_key(self):
        """The short circuit reports the tree's numbers and zero
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

    def test_order_and_bags_come_together(self):
        cnf = CNF(3, [(1, 2), (2, 3)])
        order, _width, bags = refined_elimination_masks(primal_masks(cnf))
        assert count_models_dpdb(cnf, order=order, bags=bags) == 5
        with pytest.raises(ValueError):
            count_models_dpdb(cnf, order=order)
        with pytest.raises(ValueError):
            count_models_dpdb(cnf, bags=bags)

    def test_projected_count_refuses_an_order_without_zones(self):
        # The free elimination takes 1, 2, 3, 4 in turn: projected 2
        # before auxiliary 3, so no boundary separates the zones.
        cnf = CNF(4, [(1, 2), (2, 3), (3, 4)])
        order, _width, bags = refined_elimination_masks(primal_masks(cnf))
        assert order == [1, 2, 3, 4]
        assert count_models_dpdb(cnf, order=order, bags=bags) == 8
        with pytest.raises(ValueError, match="auxiliary"):
            count_models_dpdb(cnf, (2, 4), order, bags)
        assert count_models_dpdb(cnf, (2, 4)) == count_models(
            cnf, projection=(2, 4)
        )


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

    def test_a_long_chain_goes_exact_above_2_62(self):
        # The chain's messages grow like F(k); past 2^62 the nodes above
        # run exact, while the leaves stay int64.
        cnf = _chain(CNF(100), range(1, 101))
        stats = {}
        assert count_models_dpdb(cnf, stats=stats) == _fibonacci(102)
        assert stats["path"] == "mixed"
        assert _fibonacci(102) == count_models(cnf)

    def test_unsatisfiable_child_beside_a_huge_one_goes_exact(self):
        # Node 97 joins the all-zero message of variable 1 (all four
        # clauses over 1 and 97) with the chain 2..96, whose message
        # exceeds 2^62.  Without the peak clamp the join's bound would be
        # 0 and the chain's message would be cast to int64.
        cnf = _chain(CNF(97), range(2, 98))
        for clause in ((1, 97), (1, -97), (-1, 97), (-1, -97)):
            cnf.add_clause(clause)
        (order, _bags, parent, _homes), stats = _own_tree(cnf)
        root = order.index(97)
        joined = sorted(
            order[node] for node, up in enumerate(parent) if up == root
        )
        assert parent[root] == -1 and joined == [1, 96]
        assert stats["path"] == "mixed"
        assert count_models_dpdb(cnf) == count_models(cnf) == 0


class TestDecompositionStructure:
    """Directed checks of bags, parents, clause homes, and node kinds, on
    the tree the DP itself reads off its elimination."""

    def _check_invariants(self, cnf, order, bags, parent, homes):
        for node, variable in enumerate(order):
            bag = bags[node]
            assert (bag >> variable) & 1  # own vertex in own bag
            separator = bag & ~(1 << variable)
            up = parent[node]
            if up >= 0:
                assert up > node  # parents later: ascending schedule
                assert separator & ~bags[up] == 0
                # The parent is the first-eliminated separator vertex.
                assert (separator >> order[up]) & 1
                assert all(
                    not (separator >> order[before]) & 1
                    for before in range(node + 1, up)
                )
            else:
                assert separator == 0  # a root ends its component
        homed = 0
        for node, clauses in enumerate(homes):
            for clause in clauses:
                homed += 1
                for literal in clause:
                    assert (bags[node] >> abs(literal)) & 1
        assert homed == sum(1 for clause in cnf.clauses if clause)

    def test_chain_is_a_width_one_path(self):
        cnf = CNF(6, [(-v, v + 1) for v in range(1, 6)])
        own, stats = _own_tree(cnf)
        assert stats["width"] == 1
        self._check_invariants(cnf, *own)
        parent = own[2]
        assert max(Counter(up for up in parent if up >= 0).values()) == 1

    def test_star_of_chains_has_a_join_node(self):
        # Three chains meeting at variable 1: the shared endpoint joins.
        cnf = CNF(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
        own, _stats = _own_tree(cnf)
        self._check_invariants(cnf, *own)
        parent = own[2]
        assert max(Counter(up for up in parent if up >= 0).values()) >= 2
        assert count_models_dpdb(cnf) == count_models_brute(cnf)

    def test_disconnected_formula_yields_a_forest(self):
        cnf = CNF(6, [(1, 2), (3, 4), (5, 6)])
        own, stats = _own_tree(cnf)
        assert own[2].count(-1) == stats["roots"] == 3
        self._check_invariants(cnf, *own)

    def test_free_variables_never_enter_bags(self):
        cnf = CNF(5, [(1, 2)])  # 3, 4, 5 occur in no clause
        (order, bags, _parent, _homes), stats = _own_tree(cnf)
        assert stats["free_variables"] == 3
        assert sorted(order) == [1, 2]
        assert all(bag & 0b111000 == 0 for bag in bags)
        assert count_models_dpdb(cnf) == count_models_brute(cnf)

    def test_random_trees_keep_the_invariants(self):
        rng = random.Random(20261021)
        for _ in range(40):
            cnf = _random_cnf(rng, max_variables=12, max_clauses=18)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(0, cnf.num_variables),
            )
            for chosen in (None, projection):
                own, _stats = _own_tree(cnf, chosen)
                self._check_invariants(cnf, *own)

    def test_projected_elimination_delays_projection_variables(self):
        cnf = CNF(4, [(1, 2), (2, 3), (3, 4)])
        projection = (2, 4)
        (order, bags, _parent, _homes), stats = _own_tree(
            cnf, projection
        )
        positions = {variable: index for index, variable in enumerate(order)}
        assert max(positions[1], positions[3]) < min(
            positions[2], positions[4]
        )
        assert stats["width"] == max(bag.bit_count() for bag in bags) - 1
        assert stats["nodes"] == len(order)


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
        "kind, instance",
        [
            ("val", scaling_hard_val_instance(8, seed=1)),
            ("comp", scaling_block_comp_instance(6, seed=3)),
            ("comp", scaling_hard_comp_instance(6, seed=6)),
        ],
        ids=["cycle", "block", "hard"],
    )
    def test_probe_and_the_dp_share_one_elimination(self, kind, instance):
        db, query = instance
        probe_cache_clear()
        probe = dpdb_probe(kind, db, query)
        encoding = probe.encoding
        projection = encoding.projection if kind == "comp" else None
        # The DP left to itself eliminates as the probe did ...
        (order, bags, _parent, _homes), stats = _own_tree(
            encoding.cnf, projection
        )
        assert (order, stats["width"], bags) == (
            probe.order, probe.width, probe.bags
        )
        # ... and the runner hands it the probe's elimination itself.
        runner = count_valuations_dpdb if kind == "val" else count_completions_dpdb
        (handed,) = _trees(lambda: runner(db, query))
        assert handed[0] is probe.order and handed[1] is probe.bags

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

    @pytest.mark.parametrize("method", ["auto", "dpdb"])
    @pytest.mark.parametrize("kind", ["val", "comp"])
    def test_over_budget_probe_keeps_its_encoding(
        self, monkeypatch, kind, method
    ):
        # Past the clause budget the probe measures no width, and the
        # trail core answers from the encoding the probe made.
        monkeypatch.setattr(dpdb, "DPDB_PROBE_CLAUSE_LIMIT", 10)
        if kind == "val":
            db, query = scaling_hard_val_instance(8, seed=1)
        else:
            db, query = scaling_hard_comp_instance(6, seed=1)
        probe_cache_clear()
        with capture() as captured:
            answer = solve(kind, db, query, method=method)
        assert _spans(captured)["compile.encode"] == 1
        probe = memoized_probe(kind, db, query)
        assert not probe.ok and "over budget" in probe.reason
        probe_cache_clear()
        assert answer.count == solve(kind, db, query, method="lineage").count

    def test_fallback_above_the_cap_encodes_once(self):
        db, query = scaling_hard_comp_instance(20)
        probe_cache_clear()
        with capture() as captured:
            result = count_completions_dpdb(db, query)
        assert captured.counters["dpdb.fallback"] == 1
        assert _spans(captured)["compile.encode"] == 1
        probe_cache_clear()
        assert result == count_completions_lineage(db, query)
