"""The solver planner: registry coverage, plan explanations, dispatch parity.

``repro.exact.dispatch`` contains no per-method conditionals — every
question is planned once by :mod:`repro.exact.planner`.  These tests pin the
registry's behavior to the dispatch semantics the rest of the suite (and
three PRs of callers) rely on.
"""

from __future__ import annotations

import pytest

from repro.compile.dpdb import probe_cache_clear
from repro.core.query import Atom, BCQ, CustomQuery, Negation
from repro.db.deltas import InsertFacts, ResolveNull
from repro.db.incomplete import IncompleteDatabase
from repro.db.fact import Fact
from repro.db.terms import Null
from repro.exact import planner
from repro.exact.dispatch import (
    NoPolynomialAlgorithm,
    count_valuations,
    count_valuations_weighted,
    solve,
)
from repro.obs import capture
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_codd_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
    scaling_single_occurrence_instance,
    scaling_uniform_unary_comp_instance,
    scaling_uniform_val_instance,
)


def _uniform_unary_db():
    n1, n2 = Null("u1"), Null("u2")
    return IncompleteDatabase(
        [Fact("R", [n1]), Fact("S", [n2]), Fact("S", ["a"])],
        uniform_domain=["a", "b"],
    )


class TestRegistry:
    def test_every_problem_has_methods(self):
        for problem in planner.PROBLEMS:
            assert planner.methods_for(problem), problem

    def test_method_vocabulary_matches_pre_registry_dispatch(self):
        assert set(planner.method_names("val")) == {
            "auto", "poly", "brute", "delta", "dpdb", "lineage", "circuit",
            "single-occurrence", "codd", "uniform",
        }
        assert set(planner.method_names("comp")) == {
            "auto", "poly", "brute", "delta", "dpdb", "lineage", "circuit",
            "uniform-unary",
        }
        assert set(planner.method_names("val-weighted")) == {
            "auto", "brute", "circuit", "single-occurrence",
        }
        assert "poly" not in planner.method_names("val-weighted")

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            planner.methods_for("nope")

    def test_capability_flags(self):
        by_name = {m.name: m for m in planner.methods_for("val")}
        assert by_name["circuit"].supports_weights
        assert by_name["circuit"].supports_marginals
        assert not by_name["lineage"].supports_weights
        assert by_name["single-occurrence"].polynomial
        assert not by_name["brute"].polynomial


class TestPlans:
    def test_plan_reports_rejections_with_reasons(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query)
        # The low-width hard cell now routes to the tree-decomposition DP.
        assert plan.chosen == "dpdb"
        rejected = {
            item.method: item.reason
            for item in plan.considered
            if not item.applicable
        }
        assert "single-occurrence" in rejected
        assert rejected["single-occurrence"]  # a human-readable reason
        text = plan.explain()
        assert "lineage" in text and "single-occurrence" in text
        assert "width" in text  # the dpdb probe's cost detail surfaces

    def test_plan_costs_order_applicable_methods(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query)
        costs = {
            item.method: item.cost
            for item in plan.considered
            if item.applicable
        }
        assert costs["dpdb"] < costs["lineage"] < costs["circuit"]
        assert costs["circuit"] < costs["brute"]

    def test_poly_plan_on_hard_cell_carries_error(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query, "poly")
        assert plan.chosen is None
        assert "#P-hard" in plan.error

    def test_forced_fallback_is_noted(self):
        db, _ = scaling_hard_val_instance(6, seed=1)
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        plan = planner.plan("val", db, opaque, "circuit")
        assert plan.chosen == "brute"
        assert any("degrading" in note for note in plan.notes)

    def test_forced_inapplicable_method_is_honored_with_note(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query, "codd")
        assert plan.chosen == "codd"
        assert any("forced" in note for note in plan.notes)

    def test_unknown_method_raises(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        with pytest.raises(ValueError, match="unknown method"):
            planner.plan("val", db, query, "warp")

    def test_weighted_plan_prefers_closed_form_then_circuit(self):
        free = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.plan("val-weighted", db, free).chosen == "single-occurrence"
        assert planner.plan("val-weighted", db, query).chosen == "circuit"

    def test_marginals_plan(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("marginals", db, query)
        assert plan.chosen == "circuit"
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        no_plan = planner.plan("marginals", db, opaque)
        assert no_plan.chosen is None
        assert no_plan.error

    def test_to_dict_is_json_shaped(self):
        import json

        db, query = scaling_hard_val_instance(6, seed=1)
        record = planner.plan("val", db, query).to_dict()
        json.dumps(record)
        assert record["chosen"] == "dpdb"
        assert all("reason" in item for item in record["considered"])
        dpdb_row = next(
            item for item in record["considered"] if item["method"] == "dpdb"
        )
        assert dpdb_row["detail"]["width"] <= dpdb_row["detail"]["width_limit"]


class TestDispatchParity:
    """The planner resolves exactly as the pre-registry ``if`` chains did."""

    def test_auto_prefers_closed_forms_in_order(self):
        db, query = scaling_codd_instance(4, seed=1)
        assert planner.plan("val", db, query).chosen == "codd"
        db, query = scaling_uniform_val_instance(6, seed=1)
        assert planner.plan("val", db, query).chosen == "uniform"
        free = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        db, _ = scaling_hard_val_instance(6, seed=1)
        assert planner.plan("val", db, free).chosen == "single-occurrence"

    def test_auto_on_hard_cell_is_lineage(self):
        # A low-width hard cell goes to the DP; lineage is the choice as
        # soon as the width probe reports more than the dpdb limit.
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.plan("val", db, query).chosen == "dpdb"

    def test_resolution_survives_astronomical_valuation_totals(self):
        # 5000 nulls of domain 10: the total has ~5000 decimal digits,
        # past CPython's int-to-str conversion limit — cost estimation
        # must never stringify it.
        domain = ["v%d" % i for i in range(10)]
        facts = [Fact("R", [Null(i)]) for i in range(5000)]
        db = IncompleteDatabase(facts, uniform_domain=domain)
        query = BCQ([Atom("R", ["x"])])
        assert planner.plan("val", db, query, "lineage").chosen == "lineage"
        plan = planner.plan("val", db, query)
        assert plan.chosen is not None

    def test_poly_raises_through_resolve(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        with pytest.raises(NoPolynomialAlgorithm):
            solve("val", db, query, method="poly")
        with pytest.raises(NoPolynomialAlgorithm):
            solve("comp", db, query, method="poly")

    def test_completion_auto(self):
        assert planner.plan("comp", _uniform_unary_db(), None).chosen == (
            "uniform-unary"
        )
        # The completion encoding's projection-constrained width is large
        # on this family, so #Comp stays with the trail search.
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.plan("comp", db, query).chosen == "lineage"

    def test_weighted_resolution(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        assert planner.plan("val-weighted", db, query).chosen == "circuit"
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        assert planner.plan("val-weighted", db, opaque, "circuit").chosen == "brute"

    def test_counts_agree_across_registry_methods(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        auto = count_valuations(db, query)
        assert count_valuations(db, query, method="lineage") == auto
        assert count_valuations(db, query, method="circuit") == auto
        assert count_valuations(db, query, method="brute") == auto
        weights = {
            null: {value: 2 for value in db.domain_of(null)}
            for null in db.nulls
        }
        weighted_circuit = count_valuations_weighted(db, query, weights)
        weighted_brute = count_valuations_weighted(
            db, query, weights, method="brute"
        )
        assert weighted_circuit == weighted_brute

    def test_registration_extends_auto_without_dispatch_edits(self):
        """Adding a method is one register() call: auto picks it up."""
        db, query = scaling_hard_val_instance(6, seed=1)
        name = "test-shortcut"
        try:
            planner.register(planner.Method(
                name=name,
                problem="val",
                description="test-only constant-time method",
                polynomial=True,
                supports_weights=False,
                supports_marginals=False,
                applies=lambda d, q: (True, "always (test)"),
                cost=lambda d, q: 0.5,
                run=lambda d, q, budget=None, weights=None: 42,
            ))
            assert planner.plan("val", db, query).chosen == name
            assert count_valuations(db, query) == 42
        finally:
            del planner._REGISTRY["val"][name]
        assert planner.plan("val", db, query).chosen == "dpdb"


def _corpus():
    """Tractable, hard, small random ``#Comp``, non-(U)CQ and delta-child
    instances, by name."""
    hard_db, hard_query = scaling_hard_val_instance(6, seed=1)
    null = sorted(hard_db.nulls, key=repr)[0]
    value = sorted(hard_db.domain_of(null), key=repr)[0]
    random_db = random_incomplete_db(
        {"R": 2, "S": 1}, seed=3, num_nulls=3, domain_size=4
    )
    return {
        "single-occurrence": scaling_single_occurrence_instance(3, seed=1),
        "codd": scaling_codd_instance(4, seed=1),
        "uniform": scaling_uniform_val_instance(6, seed=1),
        "hard-val": (hard_db, hard_query),
        "hard-comp": scaling_hard_comp_instance(6, seed=6),
        "uniform-unary": scaling_uniform_unary_comp_instance(4, seed=1),
        "random-comp": (
            random_db, BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        ),
        "negation": (hard_db, Negation(hard_query)),
        "opaque": (hard_db, CustomQuery("any", ["R"], lambda database: True)),
        "resolved-child": (hard_db.apply(ResolveNull(null, value)), hard_query),
        "inserted-child": (
            hard_db.apply(InsertFacts([Fact("R", ["c0", "c0"])])), hard_query
        ),
    }


#: The non-empty ``poly`` choices on the corpus (every other one is None).
_POLY_CHOICES = {
    ("codd", "val"): "codd",
    ("random-comp", "val"): "uniform",
    ("single-occurrence", "val"): "single-occurrence",
    ("uniform", "val"): "uniform",
    ("uniform", "comp"): "uniform-unary",
    ("uniform-unary", "val"): "uniform",
    ("uniform-unary", "comp"): "uniform-unary",
}


def _expected_choice(name, problem, method):
    """What a forced or ``poly`` request chose before plans stopped
    costing rows the request cannot choose."""
    if method == "poly":
        return _POLY_CHOICES.get((name, problem))
    if method == "delta" and not name.endswith("-child"):
        return "circuit"
    if (
        name in ("negation", "opaque")
        and method in ("lineage", "dpdb", "circuit")
        and problem != "marginals"  # no fallback: the solver raises
    ):
        return "brute"
    return method


class TestPlanCosting:
    """A plan costs only what its request can choose; ``auto`` still
    compares every applicable method at its full cost."""

    def test_forced_and_poly_plans_choose_as_before_without_probing(self):
        for name, (db, query) in _corpus().items():
            for problem in planner.PROBLEMS:
                for method in planner.method_names(problem):
                    if method == "auto":
                        continue
                    probe_cache_clear()
                    with capture() as captured:
                        built = planner.plan(problem, db, query, method)
                    case = (name, problem, method)
                    assert built.chosen == _expected_choice(*case), case
                    if built.chosen != "dpdb":
                        assert "dpdb.probe" not in captured.phase_totals(), case
                    costed = [c.method for c in built.considered if c.cost is not None]
                    assert len(costed) <= (3 if method == "poly" else 1), case

    def test_auto_picks_the_argmin_of_full_costs(self):
        for name, (db, query) in _corpus().items():
            for problem in ("val", "comp", "val-weighted", "sweep"):
                full = {
                    entry.name: entry.cost(db, query)
                    for entry in planner.methods_for(problem)
                    if entry.applies(db, query)[0]
                }
                built = planner.plan(problem, db, query)
                assert built.chosen == min(full, key=full.__getitem__), name
                assert {
                    c.method: c.cost for c in built.considered if c.applicable
                } == full, name

    def test_explain_marks_rows_a_forced_request_skipped(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        forced = planner.plan("val", db, query, "circuit")
        lineage = next(c for c in forced.considered if c.method == "lineage")
        assert lineage.applicable and lineage.cost is None
        assert "lineage            not costed" in forced.explain()
        assert "not costed" not in planner.plan("val", db, query).explain()
