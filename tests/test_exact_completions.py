"""Theorem 4.6 completion counting + Lemma B.2 certificates + warm-ups."""

import random
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
from repro.util.combinatorics import binomial, compositions

from tests import comp_uniform_oracle as oracle
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

    def test_four_relation_file(self):
        """Domain a-f, one constant and five nulls shared by pairs of R, S,
        T, U: 7,776 valuations, and far more composition shapes than the
        two-relation streams have (brute force agrees, in the paper-row
        suite)."""
        assert count_completions_uniform_unary(*_four_relation_file()) == 6441


def _four_relation_file():
    facts = [Fact("R", ["a"])]
    for index, relations in enumerate(["RS", "S", "TR", "UT", "SU"], start=1):
        facts += [Fact(relation, [Null(index)]) for relation in relations]
    db = IncompleteDatabase.uniform(facts, list("abcdef"))
    return db, BCQ([Atom("R", ["x"]), Atom("S", ["x"])])


def _draw_uniform_unary(rng, relations, max_domain):
    """A uniform table over ``relations`` unary relations: a domain of 1 to
    ``max_domain`` values, 0-4 constants (in or out of the domain) and 1-8
    nulls, each in a drawn set of relations, and half the time a query."""
    schema = list("RSTU"[:relations])
    domain = ["v%d" % index for index in range(rng.randint(1, max_domain))]
    facts = []
    for constant in rng.sample(domain + ["out0", "out1", "out2"], rng.randint(0, 4)):
        for relation in rng.sample(schema, rng.randint(1, relations)):
            facts.append(Fact(relation, [constant]))
    for index in range(rng.randint(1, 8)):
        for relation in rng.sample(schema, rng.randint(1, relations)):
            facts.append(Fact(relation, [Null(index)]))
    query = None
    if rng.random() < 0.5:
        chosen = rng.sample(schema, rng.randint(1, relations))
        query = BCQ([Atom(relation, [rng.choice("xy")]) for relation in chosen])
    return IncompleteDatabase.uniform(facts, domain), query


class TestAgainstShapeEnumeration:
    """The folded closed form against the shape-at-a-time enumeration it
    replaced (:mod:`tests.comp_uniform_oracle`)."""

    def test_drawn_instances_in_both_regimes(self):
        """1-4 relations, with and without a query.  The oracle lists every
        shape, so four-relation draws keep to domains of at most 4.  Both
        regimes occur: on some instances the cover search runs, on others
        every demand vector is decided without it."""
        rng = random.Random(46)
        searched = skipped = 0
        for index in range(240):
            relations = 1 + index % 4
            db, query = _draw_uniform_unary(rng, relations, 4 if relations == 4 else 6)
            with mock.patch.object(
                comp_uniform, "_covers_fit", wraps=comp_uniform._covers_fit
            ) as search:
                count = count_completions_uniform_unary(db, query)
            assert count == oracle.count_completions(db, query), (db, query)
            if search.call_count:
                searched += 1
            elif count:
                skipped += 1
        assert searched >= 20 and skipped >= 20


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


@st.composite
def demand_systems(draw):
    """1-4 classes of 1-4 values, each with 1-3 distinct covers drawn from
    the non-empty sets of at most 4 block slots (6 covers in all, so
    enumeration stays small), and block budgets of 0-5."""
    blocks = range(draw(st.integers(1, 4)))
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
    budgets = [draw(st.integers(0, 5)) for _ in blocks]
    return demands, budgets


class TestBudgetedCovers:
    """The Lemma B.19 search, over block slots, against exhaustive
    enumeration of the integer program it replaces."""

    @given(demand_systems())
    @settings(max_examples=200, deadline=None)
    def test_search_matches_enumeration(self, system):
        demands, budgets = system
        before = list(budgets)
        expected = _feasible_by_enumeration(
            *_lemma_b19_program(demands, dict(enumerate(before)))
        )
        assert comp_uniform._covers_fit(demands, budgets) == expected
        assert budgets == before

    def test_class_without_cover_fails(self):
        assert not comp_uniform._covers_fit([(2, [(0,)]), (1, [])], [5])

    def test_no_demand_fits(self):
        assert comp_uniform._covers_fit([], [])
        assert comp_uniform._covers_fit([], [0])
        # A class with no values needs no cover.
        assert comp_uniform._covers_fit([(0, [])], [0])

    def test_budget_caps_a_single_cover(self):
        assert comp_uniform._covers_fit([(3, [(0,)])], [3])
        assert not comp_uniform._covers_fit([(3, [(0,)])], [2])

    def test_cover_spends_every_block(self):
        """A value placed on a cover takes one null from each of its
        blocks, so the scarcest block bounds the cover."""
        pair = [(0, 1)]
        assert comp_uniform._covers_fit([(1, pair)], [2, 1])
        assert not comp_uniform._covers_fit([(2, pair)], [2, 1])
        assert comp_uniform._covers_fit([(2, pair)], [2, 2])
        # A second cover absorbs what the pair cannot.
        assert comp_uniform._covers_fit([(2, pair + [(0,)])], [2, 1])

    def test_classes_share_block_budgets(self):
        alone = [(0,)]
        assert not comp_uniform._covers_fit([(1, alone), (1, alone)], [1, 1])
        assert comp_uniform._covers_fit([(1, alone), (1, alone)], [2])
        assert comp_uniform._covers_fit([(1, alone), (1, alone + [(1,)])], [1, 1])

    @given(demand_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_splitting_a_class_keeps_the_verdict(self, system, data):
        """A demand vector merges the values of classes with the same
        covers; that is exact only if splitting a class never changes the
        verdict."""
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
        # The first class must leave block 1 to the second.
        assert comp_uniform._covers_fit([(1, [(1,), (2,)]), (1, [(1,), (3,)])], [0, 1, 1, 0])
        # (1, 2, 3) must take nothing, so that (1, 3) takes one value.
        assert comp_uniform._covers_fit([(4, [(1, 2, 3), (1, 3), (0, 2)])], [3, 1, 3, 1])

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
        """Each shape the oracle lists maps to one state: the mask of its
        present types and its demands per class.  The state's verdict is
        the shape's (its query check, then enumeration of the Lemma B.19
        program over its unmerged classes), and the shapes' weights sum to
        the fold's.  A shape that sends a value where no cover reaches has
        no state, and enumeration finds it unrealizable."""
        query = (
            BCQ([Atom(r, ["x"]) for r in sorted(db.relations)])
            if with_query and db.relations
            else None
        )
        relations = sorted(query.relations) if query is not None else []
        instance = comp_uniform._Instance(db, relations)
        components = comp_uniform._query_components(query) if query is not None else []
        states = comp_uniform._States(instance, components)
        folded = {}
        for upgrades, fresh in oracle.iter_shapes(instance):
            present = oracle.present_types(instance, upgrades, fresh)
            verdict = oracle.query_holds(
                instance, components, present
            ) and _shape_feasible_by_enumeration(instance, upgrades, fresh, present)
            moves = [(frozenset(), target, count) for target, count in fresh.items()]
            moves += [
                (source, target, count)
                for source, targets in upgrades.items()
                for target, count in targets.items()
            ]
            if not all(instance.covers[source, target] for source, target, _ in moves):
                assert not verdict
                continue
            demand = [0] * len(states.classes)
            for source, target, count in moves:
                demand[states.classes[instance.covers[source, target]]] += count
            state = (sum(states.bits[final] for final in present), tuple(demand))
            assert states.feasible(*state) == verdict
            weight = oracle.shape_weight(instance, upgrades, fresh)
            folded[state] = folded.get(state, 0) + weight
        assert folded == states.fold()


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
        once for {R} -> {R, S}.  Each distinct demand vector is judged
        once, and runs the cover search at most once."""
        db = IncompleteDatabase.uniform(
            [
                Fact("R", ["a"]),
                Fact("R", [Null(1)]),
                Fact("S", [Null(1)]),
                Fact("S", [Null(2)]),
            ],
            ["a", "b", "c"],
        )
        judged, searches = [], []
        fits, search = comp_uniform._States._fits, comp_uniform._covers_fit

        def record_fits(self, demand):
            before = len(searches)
            verdict = fits(self, demand)
            judged.append((demand, len(searches) - before))
            return verdict

        def record_search(demands, budgets):
            searches.append(demands)
            return search(demands, budgets)

        with mock.patch.object(
            comp_uniform,
            "_minimal_covers",
            wraps=comp_uniform._minimal_covers,
        ) as covers, mock.patch.object(
            comp_uniform._States, "_fits", record_fits
        ), mock.patch.object(comp_uniform, "_covers_fit", record_search):
            count = count_completions_uniform_unary(db, None)
        assert count == count_completions_brute(db, None)
        assert covers.call_count == 4
        demands = [demand for demand, _ in judged]
        assert len(demands) == len(set(demands))
        assert all(runs <= 1 for _, runs in judged)
        assert searches

    def test_search_skipped_when_no_block_can_bind(self):
        """Every block has as many nulls as the domain has values, so no
        block can run out: every demand vector is decided without the
        search."""
        facts = [Fact("R", ["a"])]
        for index, relations in enumerate(["R", "R", "S", "S", "RS", "RS"]):
            facts += [Fact(relation, [Null(index)]) for relation in relations]
        db = IncompleteDatabase.uniform(facts, ["a", "b"])
        query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
        with mock.patch.object(
            comp_uniform, "_covers_fit", wraps=comp_uniform._covers_fit
        ) as search:
            counts = [count_completions_uniform_unary(db, q) for q in (None, query)]
        assert counts == [count_completions_brute(db, q) for q in (None, query)]
        assert search.call_count == 0


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
    DB = IncompleteDatabase.uniform(
        [
            Fact("R", ["a"]),
            Fact("R", ["b"]),
            Fact("S", ["c"]),
            Fact("R", [Null(1)]),
            Fact("S", [Null(2)]),
            Fact("T", [Null(3)]),
        ],
        ["a", "b", "c", "d", "e", "f"],
    )

    def test_option_weights_are_multinomials(self):
        """Domain of 6 with constants of types {R} (two) and {S} (one), so
        3 fresh values; a null in each of R, S and T, so every type above a
        group's own is a target.  Each option's weight is the multinomial
        of its counts, its mask holds the targets it fills (and the group's
        own type while values stay), and its demand vector counts them by
        class; a table's weights sum to (targets + 1) ** size."""
        instance = comp_uniform._Instance(self.DB, [])
        states = comp_uniform._States(instance, [])
        for (source, size, targets), table in zip(states.groups, states.tables):
            assert targets == [t for t in instance.nonempty_types if source < t]
            options = list(compositions(size, len(targets) + 1))
            assert len(table) == len(options)
            for (*counts, left), (weight, mask, demand) in zip(options, table):
                assert weight == _multinomial(size, counts)
                present = {t for t, count in zip(targets, counts) if count}
                if source and left:
                    present.add(source)
                assert mask == sum(states.bits[t] for t in present)
                expected = [0] * len(states.classes)
                for target, count in zip(targets, counts):
                    expected[states.classes[instance.covers[source, target]]] += count
                assert demand == tuple(expected)
            assert sum(weight for weight, _, _ in table) == (len(targets) + 1) ** size

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_a_multinomial_in_any_order(self, data):
        """The oracle's shape weight, target types taken in a drawn order."""
        instance = comp_uniform._Instance(self.DB, [])

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
        assert oracle.shape_weight(instance, upgrades, fresh) == expected


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
