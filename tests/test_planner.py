"""The solver planner: registry coverage, plan explanations, dispatch parity.

``repro.exact.dispatch`` contains no per-method conditionals — every
question is planned once by :mod:`repro.exact.planner`.  These tests pin the
registry's behavior to the dispatch semantics the rest of the suite (and
three PRs of callers) rely on.
"""

from __future__ import annotations

import pytest

from repro.compile.dpdb import DPDB_WIDTH_LIMIT, dpdb_probe, probe_cache_clear
from repro.core.query import Atom, BCQ, UCQ, CustomQuery, Negation
from repro.db.deltas import InsertFacts, ResolveNull, RestrictDomain
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
from repro.obs import add_sink, capture, remove_sink
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


#: The problem kinds each method registers a runner for, in the one
#: preference order.
_KINDS_SERVED = {
    "single-occurrence": {"val", "sweep"},
    "codd": {"val"},
    "uniform": {"val"},
    "uniform-unary": {"comp"},
    "delta": {"val", "comp"},
    "dpdb": {"val", "comp"},
    "lineage": {"val", "comp"},
    "circuit": {"val", "comp", "marginals", "sweep"},
    "brute": {"val", "comp", "sweep"},
}

#: Each problem's rows, as the per-problem registrations ordered them.
_ROWS = {
    "val": [
        "single-occurrence", "codd", "uniform", "delta", "dpdb", "lineage",
        "circuit", "brute",
    ],
    "comp": ["uniform-unary", "delta", "dpdb", "lineage", "circuit", "brute"],
    "val-weighted": ["single-occurrence", "circuit", "brute"],
    "marginals": ["circuit"],
    "sweep": ["single-occurrence", "circuit", "brute"],
}


class TestRegistry:
    def test_each_method_is_registered_once_in_one_order(self):
        assert list(planner._REGISTRY) == list(_KINDS_SERVED)
        for name, entry in planner._REGISTRY.items():
            assert entry.name == name
            assert set(entry.runs) == _KINDS_SERVED[name], name

    def test_each_problem_walks_the_order_filtered_by_kind(self):
        assert set(_ROWS) == set(planner.PROBLEMS)
        for problem, rows in _ROWS.items():
            kind = "sweep" if problem == "val-weighted" else problem
            assert rows == [
                name for name, kinds in _KINDS_SERVED.items() if kind in kinds
            ], problem
            assert [m.name for m in planner.methods_for(problem)] == rows

    def test_flags_are_the_kinds_served(self):
        for name, entry in planner._REGISTRY.items():
            assert entry.supports_weights == ("sweep" in _KINDS_SERVED[name])
            assert entry.supports_marginals == (
                "marginals" in _KINDS_SERVED[name]
            )
        # The flags are per method, so the comp rows of circuit and brute
        # carry ``w`` like their val rows.
        db, query = scaling_hard_val_instance(6, seed=1)
        for problem in planner.PROBLEMS:
            for row in planner.plan(problem, db, query).considered:
                entry = planner._REGISTRY[row.method]
                assert row.supports_weights == entry.supports_weights
                assert row.supports_marginals == entry.supports_marginals

    @pytest.mark.parametrize("kind", ["val-weighted", "approx-val"])
    def test_register_rejects_kinds_without_runners(self, kind):
        with pytest.raises(ValueError, match=repr(kind)):
            planner.register(planner.Method(
                name="test-rejected",
                description="test-only method for an unregistrable kind",
                polynomial=False,
                runs={kind: lambda d, q, budget, weights, store: 0},
                applies=lambda kind, d, q: (True, "always (test)"),
            ))
        assert "test-rejected" not in planner._REGISTRY

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
        assert "width" in text  # the dpdb gate's probe detail surfaces

    def test_plan_marks_rows_by_verdict(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query)
        verdicts = {item.method: item.verdict for item in plan.considered}
        assert verdicts == {
            "single-occurrence": "n/a",
            "codd": "n/a",
            "uniform": "n/a",
            "delta": "n/a",
            "dpdb": "chosen",
            "lineage": "not reached",
            "circuit": "not reached",
            "brute": "not reached",
        }
        details = {item.method: item.detail for item in plan.considered}
        assert details.pop("dpdb")["width"] <= DPDB_WIDTH_LIMIT
        assert set(details.values()) == {None}

    def test_poly_plan_on_hard_cell_carries_error(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        plan = planner.plan("val", db, query, "poly")
        assert plan.chosen is None
        assert "#P-hard" in plan.error

    @pytest.mark.parametrize(
        "problem, query, reason",
        [
            (
                "val",
                BCQ([Atom("R", ["x"]), Atom("R", ["y"])]),
                "query has self-joins",
            ),
            (
                "val",
                UCQ([BCQ([Atom("R", ["x"])]), BCQ([Atom("S", ["x"])])]),
                "query is not a BCQ",
            ),
            ("comp", BCQ([Atom("R", ["x"])]), "schema is not unary"),
        ],
        ids=["self-join", "ucq", "comp-on-non-unary-table"],
    )
    def test_poly_error_gives_the_closed_forms_reasons(
        self, problem, query, reason
    ):
        """Outside Table 1, or in an FP cell whose closed form lacks its
        table shape, ``poly`` says why rather than claim a hard cell."""
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(1)]), Fact("S", ["a"]), Fact("T", [Null(1), "a"])],
            ["a", "b"],
        )
        plan = planner.plan(problem, db, query, "poly")
        assert plan.chosen is None
        assert reason in plan.error
        assert "#P-hard" not in plan.error
        with pytest.raises(NoPolynomialAlgorithm, match=reason):
            solve(problem, db, query, method="poly")

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
        # past CPython's int-to-str conversion limit — planning must
        # never stringify it.
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
        """Adding a method is one register() call: auto reaches it where
        no earlier row applies."""
        db, query = scaling_hard_val_instance(6, seed=1)
        opaque = CustomQuery("nonempty", ["R"], lambda database: True)
        name = "test-shortcut"
        try:
            planner.register(planner.Method(
                name=name,
                description="test-only constant-time method",
                polynomial=True,
                runs={"marginals": lambda d, q, budget, weights, store: 42},
                applies=lambda kind, d, q: (True, "always (test)"),
            ))
            assert planner.plan("marginals", db, opaque).chosen == name
            assert solve("marginals", db, opaque).count == 42
            # Where the circuit row applies, the order reaches it first.
            assert planner.plan("marginals", db, query).chosen == "circuit"
        finally:
            del planner._REGISTRY[name]
        assert planner.plan("marginals", db, opaque).chosen is None

    def test_a_registered_val_row_lands_after_brute(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        name = "test-late"
        try:
            planner.register(planner.Method(
                name=name,
                description="test-only method behind the fixed order",
                polynomial=False,
                runs={"val": lambda d, q, budget, weights, store: 42},
                applies=lambda kind, d, q: (True, "always (test)"),
            ))
            names = [entry.name for entry in planner.methods_for("val")]
            assert names[-2:] == ["brute", name]
            built = planner.plan("val", db, query)
            assert built.chosen == "dpdb"
            late = next(c for c in built.considered if c.method == name)
            assert late.verdict == "not reached"
            assert planner.plan("val", db, query, name).chosen == name
        finally:
            del planner._REGISTRY[name]


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


#: The ``auto`` choice per corpus case, in :data:`planner.PROBLEMS` order
#: (val, comp, val-weighted, marginals, sweep), as the tier-cost planner
#: made it; the preference order must reproduce every one.
_AUTO_CHOICES = {
    "single-occurrence": (
        "single-occurrence", "lineage", "single-occurrence", "circuit",
        "single-occurrence",
    ),
    "codd": ("codd", "dpdb", "circuit", "circuit", "circuit"),
    "uniform": ("uniform", "uniform-unary", "circuit", "circuit", "circuit"),
    "hard-val": ("dpdb", "lineage", "circuit", "circuit", "circuit"),
    "hard-comp": ("dpdb", "dpdb", "circuit", "circuit", "circuit"),
    "uniform-unary": (
        "uniform", "uniform-unary", "circuit", "circuit", "circuit",
    ),
    "random-comp": ("uniform", "dpdb", "circuit", "circuit", "circuit"),
    "negation": ("brute", "brute", "brute", None, "brute"),
    "opaque": ("brute", "brute", "brute", None, "brute"),
    "resolved-child": ("delta", "lineage", "circuit", "circuit", "circuit"),
    "inserted-child": ("dpdb", "lineage", "circuit", "circuit", "circuit"),
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
    """What a forced or ``poly`` request chooses: the method itself, or
    the first applicable one down its fallback chain."""
    if method == "poly":
        return _POLY_CHOICES.get((name, problem))
    if name in ("negation", "opaque"):
        if method in ("delta", "lineage", "dpdb", "circuit") and (
            problem != "marginals"  # no fallback: the solver raises
        ):
            return "brute"
        return method
    # delta applies only to #Val along a resolve/restrict chain.
    if method == "delta" and (name, problem) != ("resolved-child", "val"):
        return "circuit"
    return method


class TestPreferenceOrder:
    """``auto`` takes the first applicable row whose gate passes; ``poly``
    the first applicable polynomial row; a forced request its method or
    the first applicable fallback.  Gates run only where the walk
    reaches them."""

    def test_auto_and_poly_choices_are_pinned(self):
        for name, (db, query) in _corpus().items():
            for problem, expected in zip(planner.PROBLEMS, _AUTO_CHOICES[name]):
                case = (name, problem)
                assert planner.plan(problem, db, query).chosen == expected, case
                if "poly" in planner.method_names(problem):
                    assert planner.plan(problem, db, query, "poly").chosen == (
                        _POLY_CHOICES.get(case)
                    ), case

    def test_auto_takes_the_first_row_whose_gate_passes(self):
        for name, (db, query) in _corpus().items():
            for problem in planner.PROBLEMS:
                built = planner.plan(problem, db, query)
                rows = {c.method: c for c in built.considered}
                reached = True
                for entry in planner.methods_for(problem):
                    row = rows[entry.name]
                    case = (name, problem, entry.name)
                    if not row.applicable:
                        assert row.verdict == "n/a" and row.detail is None, case
                        continue
                    if not reached:
                        assert row.verdict == "not reached", case
                        assert row.detail is None, case
                        continue
                    gate = (
                        (True, None) if entry.prefer is None
                        else entry.prefer(problem, db, query)
                    )
                    assert row.detail == gate[1], case
                    assert row.verdict == (
                        "chosen" if gate[0] else "passed over"
                    ), case
                    reached = not gate[0]
                assert reached == (built.chosen is None), (name, problem)

    def test_auto_on_closed_form_cells_never_probes_or_encodes(self, monkeypatch):
        def no_probe(*args):
            raise AssertionError("auto probed a closed-form cell")

        monkeypatch.setattr(planner, "dpdb_probe", no_probe)
        for name, (db, query) in _corpus().items():
            for problem, expected in zip(planner.PROBLEMS, _AUTO_CHOICES[name]):
                closed = {e.name for e in planner.methods_for(problem) if e.polynomial}
                if expected not in closed:
                    continue
                probe_cache_clear()
                with capture() as captured:
                    built = planner.plan(problem, db, query)
                case = (name, problem)
                assert built.chosen == expected, case
                phases = captured.phase_totals()
                assert "dpdb.probe" not in phases, case
                assert "compile.encode" not in phases, case

    def test_width_zero_restrict_chain_now_conditions(self):
        """The one corpus choice the order changed on purpose: the tier
        costs took dpdb here (9.00 against delta's 9.17, an artifact of
        their size terms).  Both answers are exact."""
        n1, n2 = Null("w1"), Null("w2")
        db = IncompleteDatabase(
            [Fact("R", [n1, n1]), Fact("S", [n1, n2]), Fact("S", [n2, n2])],
            uniform_domain=["a", "b", "c"],
        )
        query = BCQ([Atom("R", ["x", "x"])])
        child = db.apply(RestrictDomain(n1, frozenset({"a"}))).apply(
            RestrictDomain(n2, frozenset({"b"}))
        )
        built = planner.plan("val", child, query)
        assert built.chosen == "delta"
        rows = {c.method: c for c in built.considered}
        assert rows["dpdb"].verdict == "not reached"
        assert dpdb_probe("val", child, query).width == 0
        expected = count_valuations(child, query, method="brute")
        assert solve("val", child, query).count == expected
        assert count_valuations(child, query, method="dpdb") == expected

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
                    # Only the chosen row's gate runs, for its detail.
                    assert all(
                        c.detail is None
                        for c in built.considered
                        if c.method != built.chosen
                    ), case
                    if method != "poly":
                        assert "passed over" not in {
                            c.verdict for c in built.considered
                        }, case

    def test_val_weighted_plans_the_sweep_rows(self):
        assert planner.method_names("val-weighted") == planner.method_names(
            "sweep"
        )

        def rows(built):
            return [
                (c.method, c.applicable, c.reason, c.verdict)
                for c in built.considered
            ]

        for name, (db, query) in _corpus().items():
            for method in planner.method_names("sweep"):
                single = planner.plan("val-weighted", db, query, method)
                swept = planner.plan("sweep", db, query, method)
                case = (name, method)
                assert single.problem == "val-weighted", case
                assert rows(single) == rows(swept), case
                assert single.chosen == swept.chosen, case
                assert single.notes == swept.notes, case

    def test_forced_fallbacks_follow_the_chain_with_one_note_per_hop(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        built = planner.plan("val", db, Negation(query), "delta")
        assert built.chosen == "brute"
        assert len(built.notes) == 2
        assert "'delta'" in built.notes[0] and "'circuit'" in built.notes[0]
        assert "'circuit'" in built.notes[1] and "'brute'" in built.notes[1]
        assert solve("val", db, Negation(query), method="delta").method == "brute"

    def test_explain_marks_rows_a_forced_request_skipped(self):
        db, query = scaling_hard_val_instance(6, seed=1)
        forced = planner.plan("val", db, query, "circuit")
        lineage = next(c for c in forced.considered if c.method == "lineage")
        assert lineage.applicable and lineage.verdict == "not reached"
        assert lineage.detail is None
        assert "lineage            not reached" in forced.explain()
        assert "* circuit            chosen" in forced.explain()
        auto = planner.plan("val", db, query).explain()
        assert "* dpdb               chosen" in auto
        assert "detail: width_limit=" in auto
        assert "lineage            not reached" in auto

    def test_rows_passed_over_carry_their_gate_detail(self):
        db, query = scaling_hard_comp_instance(20)
        records = []
        add_sink(records.append)
        try:
            built = planner.plan("comp", db, query)
        finally:
            remove_sink(records.append)
        assert built.chosen == "lineage"
        dpdb_row = next(c for c in built.considered if c.method == "dpdb")
        assert dpdb_row.verdict == "passed over"
        width = dpdb_row.detail["width"]
        assert width > DPDB_WIDTH_LIMIT
        text = built.explain()
        assert "dpdb               passed over" in text
        assert "width=%d" % width in text
        record = built.to_dict()
        assert "cost" not in record["considered"][0]
        assert [item["verdict"] for item in record["considered"]] == [
            c.verdict for c in built.considered
        ]
        (decision,) = [
            record for record in records
            if record["name"] == "planner.decision"
        ]
        assert "costs" not in decision
        assert decision["passed_over"] == {"dpdb": dpdb_row.detail}
