"""Tests for lineage compilation and the CNF encodings of #Val / #Comp."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile import (
    LineageUnsupportedQuery,
    compile_completion_cnf,
    compile_valuation_cnf,
    count_completions_lineage,
    count_valuations_lineage,
    enumerate_valuation_matches,
    explain,
)
from repro.compile import lineage
from repro.compile.lineage import _absorb
from repro.compile.variables import instantiations
from repro.core.query import Atom, BCQ, Const, CustomQuery, Negation, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_completions_brute, count_valuations_brute

ROOT = Path(__file__).resolve().parent.parent


def _figure1_db():
    n1, n2 = Null(1), Null(2)
    facts = [Fact("S", ["a", "b"]), Fact("S", [n1, "a"]), Fact("S", ["a", n2])]
    return IncompleteDatabase(facts, dom={n1: ["a", "b", "c"], n2: ["a", "b"]})


class TestValuationMatches:
    def test_single_atom_matches(self):
        n1 = Null(1)
        db = IncompleteDatabase([Fact("R", [n1])], dom={n1: ["a", "b"]})
        matches = enumerate_valuation_matches(db, BCQ([Atom("R", ["x"])]))
        assert set(matches) == {
            frozenset({(n1, "a")}),
            frozenset({(n1, "b")}),
        }

    def test_ground_witness_collapses_to_true(self):
        n1 = Null(1)
        db = IncompleteDatabase(
            [Fact("R", ["a"]), Fact("R", [n1])], dom={n1: ["a", "b"]}
        )
        # R(x) is witnessed by the ground fact under every valuation.
        assert enumerate_valuation_matches(db, BCQ([Atom("R", ["x"])])) == [
            frozenset()
        ]

    def test_repeated_variable_requires_equal_values(self):
        n1, n2 = Null(1), Null(2)
        db = IncompleteDatabase(
            [Fact("R", [n1, n2])], dom={n1: ["a", "b"], n2: ["b", "c"]}
        )
        matches = enumerate_valuation_matches(db, BCQ([Atom("R", ["x", "x"])]))
        assert matches == [frozenset({(n1, "b"), (n2, "b")})]

    def test_constant_in_query_restricts_domain(self):
        n1 = Null(1)
        db = IncompleteDatabase([Fact("R", [n1])], dom={n1: ["a", "b"]})
        matches = enumerate_valuation_matches(
            db, BCQ([Atom("R", [Const("a")])])
        )
        assert matches == [frozenset({(n1, "a")})]

    def test_out_of_domain_constant_has_no_match(self):
        n1 = Null(1)
        db = IncompleteDatabase([Fact("R", [n1])], dom={n1: ["a", "b"]})
        assert enumerate_valuation_matches(
            db, BCQ([Atom("R", [Const("z")])])
        ) == []

    def test_absorption_drops_redundant_matches(self):
        n1, n2 = Null(1), Null(2)
        db = IncompleteDatabase(
            [Fact("R", [n1]), Fact("R", [n2]), Fact("S", [n1])],
            dom={n1: ["a"], n2: ["a", "b"]},
        )
        # R(x) matches via n1 with the single condition n1=a, which absorbs
        # every larger match; S(y) adds nothing new (n1=a again).
        matches = enumerate_valuation_matches(
            db, BCQ([Atom("R", ["x"]), Atom("S", ["y"])])
        )
        assert matches == [frozenset({(n1, "a")})]

    def test_unsupported_queries_raise(self):
        db = _figure1_db()
        with pytest.raises(LineageUnsupportedQuery):
            enumerate_valuation_matches(db, Negation(BCQ([Atom("S", ["x", "y"])])))
        with pytest.raises(LineageUnsupportedQuery):
            count_valuations_lineage(
                db, CustomQuery("always", ["S"], lambda _db: True)
            )


def _repr_key(match):
    """The order absorption takes matches in: by size, then by the sorted
    ``repr`` of the members, each taken afresh."""
    return len(match), sorted(map(repr, match))


def _quadratic_absorb(matches):
    """The absorption oracle: each match, smallest first, against every
    kept match."""
    ordered = sorted(matches, key=_repr_key)
    kept = []
    for match in ordered:
        if not any(other <= match for other in kept):
            kept.append(match)
    return kept


@st.composite
def set_families(draw):
    """Sets over a small universe (so equal and nested sets recur), with
    some drawn sets repeated, some widened into supersets, and maybe the
    empty set, shuffled."""
    members = st.one_of(st.integers(0, 6), st.tuples(st.integers(0, 2), st.sampled_from("ab")))
    family = draw(st.lists(st.frozensets(members, max_size=4), max_size=30))
    rng = draw(st.randoms(use_true_random=False))
    for base in list(family):
        if rng.random() < 0.3:
            family.append(base)
        if rng.random() < 0.3:
            family.append(base | {rng.randrange(7), (rng.randrange(3), "a")})
    if rng.random() < 0.5:
        family.append(frozenset())
    rng.shuffle(family)
    return family


class TestAbsorption:
    @given(set_families())
    @settings(max_examples=100, deadline=None)
    def test_matches_quadratic_oracle(self, family):
        assert _absorb(family) == _quadratic_absorb(family)
        assert _absorb(set(family)) == _quadratic_absorb(set(family))

    @given(set_families())
    @settings(max_examples=100, deadline=None)
    def test_order_is_the_repr_key(self, family):
        """With absorption off (a limit below any family's size) the
        matches come back in their order, which must be the one the
        per-match ``repr`` key gives, although each member's ``repr`` is
        taken once per call."""
        with mock.patch.object(lineage, "ABSORPTION_LIMIT", -1):
            assert _absorb(family) == sorted(family, key=_repr_key)
            assert _absorb(set(family)) == sorted(set(family), key=_repr_key)

    def test_empty_match_absorbs_everything(self):
        family = [frozenset({1, 2}), frozenset(), frozenset({3}), frozenset()]
        assert _absorb(family) == [frozenset()]


class TestValuationEncoding:
    def test_figure1_example(self):
        db = _figure1_db()
        query = BCQ([Atom("S", ["x", "x"])])
        assert count_valuations_lineage(db, query) == (
            count_valuations_brute(db, query)
        )

    def test_trivially_true_query(self):
        n1 = Null(1)
        db = IncompleteDatabase(
            [Fact("R", ["a", "b"]), Fact("R", [n1, "c"])],
            dom={n1: ["a", "b"]},
        )
        query = BCQ([Atom("R", ["x", "y"])])
        encoding = compile_valuation_cnf(db, query)
        assert encoding.trivially_true
        assert count_valuations_lineage(db, query) == 2

    def test_unsatisfiable_query_counts_zero(self):
        n1 = Null(1)
        db = IncompleteDatabase([Fact("R", [n1])], dom={n1: ["a"]})
        assert count_valuations_lineage(db, BCQ([Atom("T", ["x"])])) == 0
        # arity mismatch can never match either
        assert count_valuations_lineage(db, BCQ([Atom("R", ["x", "y"])])) == 0

    def test_ground_database(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a"])], ["a", "b"])
        assert count_valuations_lineage(db, BCQ([Atom("R", ["x"])])) == 1
        assert count_valuations_lineage(db, BCQ([Atom("S", ["x"])])) == 0

    def test_empty_domain_counts_zero(self):
        n1 = Null(1)
        db = IncompleteDatabase([Fact("R", [n1])], dom={n1: []})
        assert count_valuations_lineage(db, BCQ([Atom("R", ["x"])])) == 0

    def test_ucq_and_self_join(self):
        n1, n2 = Null(1), Null(2)
        db = IncompleteDatabase(
            [Fact("R", [n1, n2]), Fact("R", [n2, "a"])],
            dom={n1: ["a", "b"], n2: ["a", "b", "c"]},
        )
        for query in (
            UCQ([BCQ([Atom("R", ["x", "x"])]), BCQ([Atom("R", ["x", "a"])])]),
            BCQ([Atom("R", ["x", "y"]), Atom("R", ["y", "z"])]),
        ):
            assert count_valuations_lineage(db, query) == (
                count_valuations_brute(db, query)
            )

    def test_explain_reports_sizes(self):
        db = _figure1_db()
        report, _compiled = explain("val", db, BCQ([Atom("S", ["x", "x"])]))
        assert report.mode == "val"
        assert report.count == count_valuations_brute(
            db, BCQ([Atom("S", ["x", "x"])])
        )
        assert report.num_variables == 5  # |dom(n1)| + |dom(n2)|
        assert report.num_clauses > 0
        assert report.circuit_nodes > 0


class TestCompletionEncoding:
    def test_potential_fact_instantiations(self):
        n1 = Null(1)
        fact = Fact("R", [n1, n1, "c"])
        db = IncompleteDatabase([fact], dom={n1: ["a", "b"]})
        grounded = dict(instantiations(fact, db))
        # The repeated null is substituted consistently.
        assert set(grounded) == {
            Fact("R", ["a", "a", "c"]),
            Fact("R", ["b", "b", "c"]),
        }

    def test_figure1_completions(self):
        db = _figure1_db()
        query = BCQ([Atom("S", ["x", "x"])])
        assert count_completions_lineage(db, None) == (
            count_completions_brute(db, None)
        )
        assert count_completions_lineage(db, query) == (
            count_completions_brute(db, query)
        )

    def test_collapsing_valuations_counted_once(self):
        # Two nulls over the same unary relation and domain: 4 valuations
        # but only 3 distinct completions ({a}, {b}, {a,b}).
        n1, n2 = Null(1), Null(2)
        db = IncompleteDatabase(
            [Fact("R", [n1]), Fact("R", [n2])],
            dom={n1: ["a", "b"], n2: ["a", "b"]},
        )
        assert count_completions_lineage(db, None) == 3

    def test_ground_database_has_one_completion(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a"])], ["a", "b"])
        assert count_completions_lineage(db, None) == 1
        assert count_completions_lineage(db, BCQ([Atom("R", ["x"])])) == 1
        assert count_completions_lineage(db, BCQ([Atom("S", ["x"])])) == 0

    def test_projection_is_over_fact_variables(self):
        db = _figure1_db()
        encoding = compile_completion_cnf(db, None)
        assert encoding.projection == frozenset(encoding.facts.variables())
        assert len(encoding.facts) > 0

    def test_clause_order_does_not_follow_the_hash_seed(self):
        # Each match of R(x) ∧ S(x) uses two facts, and a fact with two
        # nulls has two-null producers; witness and commander clauses
        # come in key order, not in a frozenset's hash order.
        probe = (
            "from repro.compile.encode import compile_completion_cnf\n"
            "from repro.db.fact import Fact\n"
            "from repro.db.incomplete import IncompleteDatabase\n"
            "from repro.db.terms import Null\n"
            "from repro.workloads.generators import scaling_hard_comp_instance\n"
            "db, query = scaling_hard_comp_instance(8, seed=6)\n"
            "print(compile_completion_cnf(db, query).cnf.clauses)\n"
            "nulls = [Null(i) for i in range(4)]\n"
            "facts = [Fact('R', nulls[:2]), Fact('R', nulls[2:]), Fact('R', ['a', 'b'])]\n"
            "db = IncompleteDatabase.uniform(facts, ['a', 'b', 'c'])\n"
            "print(compile_completion_cnf(db, None).cnf.clauses)\n"
        )
        outputs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            outputs.append(subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            ).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("(") > 20

    def test_explain_reports_projected_mode(self):
        db = _figure1_db()
        report, _compiled = explain("comp", db, None)
        assert report.mode == "comp"
        assert report.count == count_completions_brute(db, None)
        assert report.circuit_nodes > 0
