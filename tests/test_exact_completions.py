"""Theorem 4.6 completion counting + Lemma B.2 certificates + warm-ups."""

from itertools import combinations, product
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classify import tractable
from repro.core.problems import COMP_UNIFORM
from repro.core.query import Atom, BCQ
from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.db.valuation import iter_completions
from repro.exact.brute import count_completions_brute
from repro.exact import comp_uniform
from repro.exact.comp_uniform import (
    count_completions_single_unary,
    count_completions_uniform_unary,
)
from repro.exact.completion_check import is_completion_of_codd
from repro.util.combinatorics import binomial

from tests.conftest import small_incomplete_dbs


class TestApplicability:
    def test_unary_only(self):
        assert tractable(BCQ([Atom("R", ["x"]), Atom("S", ["x"])]), COMP_UNIFORM)[0]
        assert not tractable(BCQ([Atom("R", ["x", "y"])]), COMP_UNIFORM)[0]
        assert not tractable(BCQ([Atom("R", ["x", "x"])]), COMP_UNIFORM)[0]


class TestWarmUps:
    """The worked warm-up examples of Appendix B.6."""

    def test_warmup1_no_constants(self):
        """B.6.1: D = {R(⊥1..⊥n)}: sum_{1<=i<=n} C(d, i) completions."""
        d, n = 5, 3
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(i)]) for i in range(n)], range(d)
        )
        expected = sum(binomial(d, i) for i in range(1, n + 1))
        assert count_completions_single_unary(db) == expected
        assert count_completions_uniform_unary(db, None) == expected
        assert count_completions_brute(db, None) == expected

    def test_warmup1_empty_table(self):
        db = IncompleteDatabase.uniform([], ["a", "b"])
        assert count_completions_uniform_unary(db, None) == 1

    def test_warmup2_with_constants(self):
        """B.6.2: c in-domain constants shift the sum to start at 0."""
        d, c, n = 5, 2, 2
        facts = [Fact("R", ["k%d" % i]) for i in range(c)]
        facts += [Fact("R", [Null(i)]) for i in range(n)]
        db = IncompleteDatabase.uniform(
            facts, ["k0", "k1", "x0", "x1", "x2"]
        )
        expected = sum(binomial(d - c, i) for i in range(0, n + 1))
        assert count_completions_single_unary(db) == expected
        assert count_completions_brute(db, None) == expected

    def test_out_of_domain_constants_dont_change_count(self):
        base = IncompleteDatabase.uniform(
            [Fact("R", [Null(0)])], ["a", "b"]
        )
        extended = IncompleteDatabase.uniform(
            [Fact("R", [Null(0)]), Fact("R", ["zzz"])], ["a", "b"]
        )
        assert count_completions_single_unary(
            base
        ) == count_completions_single_unary(extended)

    def test_single_unary_guards(self):
        with pytest.raises(ValueError):
            count_completions_single_unary(
                IncompleteDatabase(
                    [Fact("R", [Null(0)])], dom={Null(0): ["a"]}
                )
            )
        with pytest.raises(ValueError):
            count_completions_single_unary(
                IncompleteDatabase.uniform(
                    [Fact("R", ["a"]), Fact("S", ["a"])], ["a"]
                )
            )


class TestUniformUnary:
    QUERY = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])

    def test_rejects_binary_schema(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a", "b"])], ["a"])
        with pytest.raises(ValueError):
            count_completions_uniform_unary(db, None)

    def test_rejects_hard_query(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a"])], ["a"])
        with pytest.raises(ValueError):
            count_completions_uniform_unary(
                db, BCQ([Atom("R", ["x", "y"])])
            )

    def test_empty_query_relation_gives_zero(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a"])], ["a"])
        assert count_completions_uniform_unary(db, self.QUERY) == 0

    def test_refuses_a_non_uniform_table_whatever_its_relations(self):
        # S has no facts, yet the table is outside Theorem 4.6: the
        # refusal depends on the table, not on which relations are empty.
        null = Null("n")
        db = IncompleteDatabase([Fact("R", [null])], dom={null: ["a", "b"]})
        assert not comp_uniform.applies(db, self.QUERY)[0]
        with pytest.raises(ValueError, match="not uniform"):
            count_completions_uniform_unary(db, self.QUERY)
        with pytest.raises(ValueError, match="not uniform"):
            count_completions_uniform_unary(db, BCQ([Atom("R", ["x"])]))

    @given(
        st.one_of(
            st.tuples(
                small_incomplete_dbs(schema={"R": 1, "S": 1}, uniform=True),
                st.sampled_from(
                    [
                        None,
                        BCQ([Atom("R", ["x"]), Atom("S", ["x"])]),
                        BCQ([Atom("R", ["x"]), Atom("S", ["y"])]),
                        BCQ([Atom("R", ["x"])]),
                    ]
                ),
            ),
            # Three relations: a deficit can need a two- or three-block cover.
            st.tuples(
                small_incomplete_dbs(
                    schema={"R": 1, "S": 1, "T": 1}, uniform=True, max_facts=2
                ),
                st.sampled_from(
                    [
                        None,
                        BCQ([Atom("R", ["x"]), Atom("S", ["x"]), Atom("T", ["x"])]),
                        BCQ([Atom("R", ["x"]), Atom("S", ["x"]), Atom("T", ["y"])]),
                        BCQ([Atom("R", ["x"]), Atom("S", ["y"]), Atom("T", ["z"])]),
                    ]
                ),
            ),
        )
    )
    @settings(max_examples=160, deadline=None)
    def test_matches_brute_force(self, case):
        db, query = case
        assert count_completions_uniform_unary(
            db, query
        ) == count_completions_brute(db, query)

    def test_shared_nulls_across_relations(self):
        """Naive-table case: one null occurring in both R and S."""
        shared = Null("shared")
        db = IncompleteDatabase.uniform(
            [Fact("R", [shared]), Fact("S", [shared]), Fact("S", [Null(2)])],
            ["a", "b", "c"],
        )
        assert count_completions_uniform_unary(
            db, self.QUERY
        ) == count_completions_brute(db, self.QUERY)

    def test_four_relation_schema_matches_brute_force(self):
        """Four relations, nulls shared across pairs of them, and one
        constant in each of two relations."""
        facts = [Fact("R", ["a"]), Fact("U", ["b"])]
        for index, (first, second) in enumerate(
            [("R", "S"), ("S", None), ("T", "R"), ("U", "T")], start=1
        ):
            facts.append(Fact(first, [Null(index)]))
            if second is not None:
                facts.append(Fact(second, [Null(index)]))
        db = IncompleteDatabase.uniform(facts, ["a", "b", "c", "d"])
        queries = [
            None,
            BCQ([Atom("R", ["x"]), Atom("U", ["x"])]),
            BCQ([Atom("S", ["x"]), Atom("T", ["x"]), Atom("U", ["x"])]),
            BCQ([Atom(r, ["x"]) for r in "RSTU"]),
        ]
        counts = [count_completions_uniform_unary(db, q) for q in queries]
        assert counts == [count_completions_brute(db, q) for q in queries]
        assert counts == [244, 180, 119, 94]


def _feasible_by_enumeration(bounds, constraints) -> bool:
    """Does some integer point within ``bounds`` (inclusive ``(low, high)``
    per variable) satisfy every ``(coeffs, sense, rhs)`` row?  Exhaustive."""
    ranges = [range(low, high + 1) for low, high in bounds]
    for point in product(*ranges):
        ok = True
        for coeffs, sense, rhs in constraints:
            value = sum(c * x for c, x in zip(coeffs, point))
            if sense == "<=" and not value <= rhs:
                ok = False
            elif sense == "==" and value != rhs:
                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def _lemma_b19_program(demands, budgets):
    """Lemma B.19 as an integer program: a variable per class and cover in
    ``[0, count]``, one equality per class, one ``<= budget`` row per block."""
    owners = [
        (index, cover)
        for index, (_, covers) in enumerate(demands)
        for cover in covers
    ]
    bounds = [(0, demands[index][0]) for index, _ in owners]
    rows = [
        ([int(owner == index) for owner, _ in owners], "==", count)
        for index, (count, _) in enumerate(demands)
    ]
    rows += [
        ([int(block in cover) for _, cover in owners], "<=", budget)
        for block, budget in budgets.items()
    ]
    return bounds, rows


def _minimal_covers_by_enumeration(deficit, usable):
    covering = [
        chosen
        for size in range(1, len(usable) + 1)
        for chosen in combinations(usable, size)
        if deficit <= frozenset().union(*chosen)
    ]
    return [
        cover
        for cover in covering
        if not any(set(other) < set(cover) for other in covering)
    ]


def _shape_feasible_by_enumeration(instance, upgrades, fresh, present):
    """One shape's Lemma B.19 verdict: every block lands in a present type,
    and the program over its unmerged deficit classes has a solution."""
    if not all(
        any(block <= final for final in present) for block in instance.blocks
    ):
        return False
    moves = [
        (source, target, count)
        for source, targets in upgrades.items()
        for target, count in targets.items()
    ]
    moves += [(frozenset(), target, count) for target, count in fresh.items()]
    demands = [
        (
            count,
            _minimal_covers_by_enumeration(
                target - source,
                [block for block in instance.blocks if block <= target],
            ),
        )
        for source, target, count in moves
    ]
    return _feasible_by_enumeration(*_lemma_b19_program(demands, instance.blocks))


_BLOCKS = [frozenset({"B%d" % i}) for i in range(4)]


@st.composite
def demand_systems(draw):
    """1-4 classes of 1-4 values, each with 1-3 distinct covers drawn from
    the non-empty sets of at most 4 blocks (6 covers in all, so enumeration
    stays small), and block budgets of 0-5."""
    blocks = _BLOCKS[: draw(st.integers(1, 4))]
    subsets = [
        chosen
        for size in range(1, len(blocks) + 1)
        for chosen in combinations(blocks, size)
    ]
    classes = draw(st.integers(1, 4))
    demands, variables = [], 0
    for index in range(classes):
        covers = draw(
            st.lists(
                st.sampled_from(subsets),
                min_size=1,
                max_size=min(3, 6 - variables - (classes - index - 1)),
                unique=True,
            )
        )
        variables += len(covers)
        demands.append((draw(st.integers(1, 4)), covers))
    budgets = {block: draw(st.integers(0, 5)) for block in blocks}
    return demands, budgets


class TestBudgetedCovers:
    """The Lemma B.19 search against exhaustive enumeration of the integer
    program it replaces."""

    @given(demand_systems())
    @settings(max_examples=200, deadline=None)
    def test_search_matches_enumeration(self, system):
        demands, budgets = system
        before = dict(budgets)
        expected = _feasible_by_enumeration(*_lemma_b19_program(demands, before))
        assert comp_uniform._covers_fit(demands, budgets) == expected
        assert budgets == before

    def test_class_without_cover_fails(self):
        block = _BLOCKS[0]
        assert not comp_uniform._covers_fit(
            [(2, [(block,)]), (1, [])], {block: 5}
        )

    def test_no_demand_fits(self):
        b0 = _BLOCKS[0]
        assert comp_uniform._covers_fit([], {})
        assert comp_uniform._covers_fit([], {b0: 0})
        # A class with no values needs no cover.
        assert comp_uniform._covers_fit([(0, [])], {b0: 0})

    def test_budget_caps_a_single_cover(self):
        b0 = _BLOCKS[0]
        assert comp_uniform._covers_fit([(3, [(b0,)])], {b0: 3})
        assert not comp_uniform._covers_fit([(3, [(b0,)])], {b0: 2})

    def test_cover_spends_every_block(self):
        """A value placed on a cover takes one null from each of its
        blocks, so the scarcest block bounds the cover."""
        b0, b1 = _BLOCKS[:2]
        pair = [(b0, b1)]
        assert comp_uniform._covers_fit([(1, pair)], {b0: 2, b1: 1})
        assert not comp_uniform._covers_fit([(2, pair)], {b0: 2, b1: 1})
        assert comp_uniform._covers_fit([(2, pair)], {b0: 2, b1: 2})
        # A second cover absorbs what the pair cannot.
        assert comp_uniform._covers_fit(
            [(2, pair + [(b0,)])], {b0: 2, b1: 1}
        )

    def test_classes_share_block_budgets(self):
        b0, b1 = _BLOCKS[:2]
        alone = [(b0,)]
        assert not comp_uniform._covers_fit(
            [(1, alone), (1, alone)], {b0: 1, b1: 1}
        )
        assert comp_uniform._covers_fit([(1, alone), (1, alone)], {b0: 2})
        assert comp_uniform._covers_fit(
            [(1, alone), (1, alone + [(b1,)])], {b0: 1, b1: 1}
        )

    @given(demand_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_splitting_a_class_keeps_the_verdict(self, system, data):
        """``_shape_feasible`` merges classes with the same covers; that is
        exact only if splitting a class never changes the verdict."""
        demands, budgets = system
        split = []
        for count, covers in demands:
            part = data.draw(st.integers(0, count))
            split += [(part, covers), (count - part, covers)]
        assert comp_uniform._covers_fit(
            split, budgets
        ) == comp_uniform._covers_fit(demands, budgets)

    def test_backs_out_of_a_greedy_choice(self):
        """Each system fits only if a cover takes fewer values than its
        blocks allow."""
        b0, b1, b2, b3 = _BLOCKS
        # The first class must leave b1 to the second.
        assert comp_uniform._covers_fit(
            [(1, [(b1,), (b2,)]), (1, [(b1,), (b3,)])], {b1: 1, b2: 1, b3: 0}
        )
        # (b1, b2, b3) must take nothing, so that (b1, b3) takes one value.
        assert comp_uniform._covers_fit(
            [(4, [(b1, b2, b3), (b1, b3), (b0, b2)])],
            {b0: 3, b1: 1, b2: 3, b3: 1},
        )

    @given(
        st.one_of(
            small_incomplete_dbs(schema={"R": 1, "S": 1}, uniform=True),
            small_incomplete_dbs(
                schema={"R": 1, "S": 1, "T": 1}, uniform=True, max_facts=2
            ),
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_shape_verdict_matches_enumeration(self, db, with_query):
        query = (
            BCQ([Atom(r, ["x"]) for r in sorted(db.relations)])
            if with_query and db.relations
            else None
        )
        search = comp_uniform._shape_feasible

        def compare(instance, upgrades, fresh, present):
            verdict = search(instance, upgrades, fresh, present)
            assert verdict == _shape_feasible_by_enumeration(
                instance, upgrades, fresh, present
            )
            return verdict

        with mock.patch.object(comp_uniform, "_shape_feasible", compare):
            count_completions_uniform_unary(db, query)


_RELATION_SETS = [
    frozenset(chosen)
    for size in range(1, 5)
    for chosen in combinations("RSTU", size)
]


class TestMinimalCovers:
    @given(
        st.sampled_from(_RELATION_SETS),
        st.lists(st.sampled_from(_RELATION_SETS), max_size=5, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_match_enumeration(self, deficit, usable):
        """One pass, smallest first, finds exactly the minimal covers."""
        assert list(
            comp_uniform._minimal_covers(deficit, usable)
        ) == _minimal_covers_by_enumeration(deficit, usable)

    def test_uncoverable_deficit_has_none(self):
        r, s = frozenset("R"), frozenset("S")
        assert comp_uniform._minimal_covers(r | s, [s]) == ()
        assert comp_uniform._minimal_covers(r, []) == ()

    def test_found_once_per_call(self):
        """Covers are computed per (source type, target type) pair, not per
        shape: here once for each of {R}, {S}, {R, S} from nothing and
        once for {R} -> {R, S}."""
        db = IncompleteDatabase.uniform(
            [
                Fact("R", ["a"]),
                Fact("R", [Null(1)]),
                Fact("S", [Null(1)]),
                Fact("S", [Null(2)]),
            ],
            ["a", "b", "c"],
        )
        with mock.patch.object(
            comp_uniform,
            "_minimal_covers",
            wraps=comp_uniform._minimal_covers,
        ) as covers, mock.patch.object(
            comp_uniform,
            "_shape_feasible",
            wraps=comp_uniform._shape_feasible,
        ) as shapes:
            count = count_completions_uniform_unary(db, None)
        assert count == count_completions_brute(db, None)
        assert covers.call_count == 4
        assert shapes.call_count > covers.call_count


def _multinomial(available, counts):
    """Ways to pick disjoint labelled groups of ``counts`` from
    ``available`` items."""
    if sum(counts) > available:
        return 0
    ways = factorial(available) // factorial(available - sum(counts))
    for count in counts:
        ways //= factorial(count)
    return ways


class TestShapeWeight:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_a_multinomial_in_any_order(self, data):
        """Domain of 6 with constants of types {R} (two) and {S} (one), so
        3 fresh values; target types are taken in a drawn order."""
        db = IncompleteDatabase.uniform(
            [
                Fact("R", ["a"]),
                Fact("R", ["b"]),
                Fact("S", ["c"]),
                Fact("T", [Null(1)]),
            ],
            ["a", "b", "c", "d", "e", "f"],
        )
        instance = comp_uniform._Instance(db, [])

        def draw_moves(source, capacity):
            targets = data.draw(
                st.permutations(
                    [t for t in instance.nonempty_types if source < t]
                )
            )
            counts = data.draw(
                st.lists(
                    st.integers(1, capacity + 1),
                    max_size=len(targets),
                )
            )
            return dict(zip(targets, counts))

        upgrades = {
            source: draw_moves(source, size)
            for source, size in instance.constant_classes.items()
        }
        fresh = draw_moves(frozenset(), instance.free_pool)
        expected = _multinomial(instance.free_pool, list(fresh.values()))
        for source, moves in upgrades.items():
            expected *= _multinomial(
                instance.constant_classes[source], list(moves.values())
            )
        assert comp_uniform._shape_weight(instance, upgrades, fresh) == expected


class TestLemmaB2:
    """Completion recognition for Codd tables via bipartite matching."""

    @pytest.fixture
    def db(self):
        return IncompleteDatabase(
            [Fact("R", [Null(1), "a"]), Fact("R", ["b", Null(2)])],
            dom={Null(1): ["a", "b"], Null(2): ["a", "c"]},
        )

    def test_accepts_actual_completions(self, db):
        for completion in iter_completions(db):
            assert is_completion_of_codd(db, completion)

    def test_rejects_non_completions(self, db):
        # wrong fact entirely
        assert not is_completion_of_codd(
            db, Database([Fact("R", ["z", "z"])])
        )
        # subset of a completion is not a completion (facts can only merge)
        assert not is_completion_of_codd(db, Database())
        # superset with an unreachable fact
        assert not is_completion_of_codd(
            db,
            Database(
                [
                    Fact("R", ["a", "a"]),
                    Fact("R", ["b", "a"]),
                    Fact("R", ["b", "c"]),
                ]
            ),
        )

    def test_requires_codd(self):
        shared = Null(1)
        naive = IncompleteDatabase.uniform(
            [Fact("R", [shared]), Fact("S", [shared])], ["a"]
        )
        with pytest.raises(ValueError):
            is_completion_of_codd(naive, Database())

    @given(small_incomplete_dbs(codd=True))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_enumeration(self, db):
        """The matching-based check accepts exactly the enumerated
        completions (and rejects mutations of them)."""
        completions = set(iter_completions(db))
        for completion in completions:
            assert is_completion_of_codd(db, completion)
        # mutate: drop one fact from some completion
        for completion in list(completions)[:3]:
            facts = sorted(completion.facts)
            if len(facts) >= 1:
                mutated = Database(facts[1:])
                assert is_completion_of_codd(db, mutated) == (
                    mutated in completions
                )
