"""Randomized cross-validation of the circuit backend.

Every instance is small enough for brute-force ground truth, drawn with
fixed seeds across the four table flavors of Table 1.  The checks cover
the ISSUE-3 acceptance matrix:

* circuit counts equal ``ModelCounter`` (same search, one is recorded)
  *and* brute enumeration, on well over 200 ``(D, q)`` instances —
  including the projected witness encoding and projected ``#Comp``;
* weighted counts equal a brute weighted enumerator, through both the
  :class:`ValuationCircuit` pass and the dispatch front door;
* marginals equal both the brute per-pair ratio and the
  condition-and-recount reference;
* samplers are *exact*: over a small instance every satisfying valuation
  (and only those) appears, with fixed-seed frequencies inside generous
  deterministic bounds — no chi-squared machinery, just exhaustive
  comparison against the enumerated support.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.compile import (
    CompletionCircuit,
    ValuationCircuit,
    count_models,
    valuation_marginals_recount,
)
from repro.compile.lineage import enumerate_valuation_matches
from repro.compile.variables import ChoiceVariables
from repro.complexity.cnf import CNF
from repro.core.query import Atom, BCQ, Const, CustomQuery, UCQ
from repro.db.deltas import ResolveNull, RestrictDomain
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.db.valuation import (
    apply_valuation,
    iter_valuations,
    resolve_null_weights,
    weighted_total_valuations,
)
from repro.engine import BatchEngine, CountJob
from repro.eval.evaluate import evaluate
from repro.exact.brute import (
    count_completions_brute,
    count_valuations_brute,
    count_valuations_weighted_brute,
)
from repro.exact import planner
from repro.exact.dispatch import (
    count_valuations,
    count_valuations_weighted,
    solve,
)
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_hard_val_instance,
)

QUERIES = [
    BCQ([Atom("R", ["x", "y"])]),
    BCQ([Atom("R", ["x", "x"])]),
    BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])]),
    BCQ([Atom("R", ["x", "x"]), Atom("S", ["x"])]),
    BCQ([Atom("R", ["x", "y"]), Atom("R", ["y", "z"])]),  # self-join
    BCQ([Atom("R", [Const("v0"), "y"]), Atom("S", ["y"])]),  # constant
    UCQ([BCQ([Atom("R", ["x", "x"])]), BCQ([Atom("S", ["z"])])]),
]

FLAVORS = [
    ("uniform-naive", True, False),
    ("uniform-codd", True, True),
    ("nonuniform-naive", False, False),
    ("nonuniform-codd", False, True),
]


def _db(seed, uniform, codd):
    return random_incomplete_db(
        {"R": 2, "S": 1},
        seed=seed,
        num_nulls=3,
        domain_size=3,
        uniform=uniform,
        codd=codd,
    )


def _satisfying(db, query):
    return [
        valuation
        for valuation in iter_valuations(db)
        if evaluate(query, apply_valuation(db, valuation))
    ]


def _weight_product(resolved, valuation):
    return math.prod(
        resolved[null][value] for null, value in valuation.items()
    )


#: Widest clause :func:`_assert_disjunction` emits.  Matches arrive
#: roughly grouped by locality in the database, so grouping neighbours
#: keeps tree parents local too.
_DISJUNCTION_FANIN = 4


def _witness_cnf(db, query):
    """The witness encoding of ``#Val(q)(D)``: ``(cnf, projection)``.

    The positive counterpart of the complement encoding the backends
    compile.  The lineage DNF is folded into CNF with one witness
    (commander) variable per multi-condition match, and the projected
    model count onto the choice variables is ``#Val``: a choice
    assignment extends to a model exactly when some match is fully
    chosen.  Its global "some witness holds" disjunction couples the
    whole formula, so it serves as an oracle on small instances only.
    """
    cnf = CNF()
    choices = ChoiceVariables(cnf, db)
    matches = enumerate_valuation_matches(db, query)
    trivially_true = bool(matches) and not matches[0]
    if not trivially_true:
        witnesses = []
        for conditions in matches:
            if len(conditions) == 1:
                ((null, value),) = conditions
                witnesses.append(choices.var(null, value))
            else:
                commander = cnf.new_variable()
                for null, value in conditions:
                    cnf.add_clause((-commander, choices.var(null, value)))
                witnesses.append(commander)
        # Empty DNF compiles to the empty clause: no valuation satisfies q.
        _assert_disjunction(cnf, witnesses)
    return cnf, frozenset(choices.variables())


def _assert_disjunction(cnf, literals):
    """Assert ``l1 ∨ ... ∨ lk`` via a balanced OR-tree of short clauses.

    Each tree parent ``p`` gets the one-sided Tseitin clause
    ``p → (child1 ∨ ... ∨ childF)`` and the root level is asserted
    directly, so a projected model restricted to the original variables
    exists iff the plain disjunction is satisfiable, while no clause
    exceeds ``_DISJUNCTION_FANIN + 1`` literals (a single wide clause
    would hand the treewidth heuristic an m-clique).
    """
    while len(literals) > _DISJUNCTION_FANIN:
        grouped = []
        for start in range(0, len(literals), _DISJUNCTION_FANIN):
            group = literals[start:start + _DISJUNCTION_FANIN]
            if len(group) == 1:
                grouped.append(group[0])
                continue
            parent = cnf.new_variable()
            cnf.add_clause([-parent] + group)
            grouped.append(parent)
        literals = grouped
    cnf.add_clause(literals)


@pytest.mark.parametrize("flavor,uniform,codd", FLAVORS)
@pytest.mark.parametrize("seed", range(8))
def test_circuit_counts_match_counter_and_brute(seed, flavor, uniform, codd):
    """224 (db, query) instances: circuit == ModelCounter == brute,
    with the projected witness encoding as an independent oracle."""
    db = _db(seed, uniform, codd)
    for query in QUERIES:
        expected = count_valuations_brute(db, query)
        compiled = ValuationCircuit(db, query)
        assert compiled.count() == expected
        # The complement circuit replays the exact search arithmetic:
        # its count matches the non-traced counter bit for bit.
        assert compiled.count() == count_valuations(
            db, query, method="lineage"
        )
        assert compiled.count() == count_valuations(
            db, query, method="circuit"
        )
        # Projected counting cross-check: the witness encoding counts the
        # satisfying side directly, as a projected model count.
        cnf, projection = _witness_cnf(db, query)
        assert count_models(cnf, projection=projection) == expected


@pytest.mark.parametrize("flavor,uniform,codd", FLAVORS)
@pytest.mark.parametrize("seed", range(6))
def test_completion_circuit_matches_brute(seed, flavor, uniform, codd):
    """Projected #Comp: circuit == brute, with and without a query."""
    db = _db(seed, uniform, codd)
    for query in (None, QUERIES[2], QUERIES[6]):
        expected = count_completions_brute(db, query, budget=None)
        assert CompletionCircuit(db, query).count() == expected


@pytest.mark.parametrize("flavor,uniform,codd", FLAVORS)
@pytest.mark.parametrize("seed", range(6))
def test_completion_circuit_weights_match_enumeration(
    seed, flavor, uniform, codd
):
    """Projected #Comp: the circuit's per-fact weighted counts (int and
    Fraction weights) and fact marginals equal enumeration of the
    distinct completions, with and without a query."""
    db = _db(seed, uniform, codd)
    rng = random.Random(2000 + seed)
    for query in (None, QUERIES[2], QUERIES[6]):
        completions = {
            frozenset(completed.facts)
            for completed in (
                apply_valuation(db, valuation)
                for valuation in iter_valuations(db)
            )
            if query is None or evaluate(query, completed)
        }
        compiled = CompletionCircuit(db, query)
        assert compiled.count() == len(completions)
        facts = compiled._variables.facts()
        rows = [
            {fact: rng.randint(0, 4) for fact in facts},
            {fact: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for fact in facts},
        ]
        assert compiled.weighted_count_many(rows) == [
            sum(
                math.prod(row[fact] for fact in completion)
                for completion in completions
            )
            for row in rows
        ]
        if not completions:
            with pytest.raises(ValueError):
                compiled.fact_marginals()
            continue
        assert compiled.fact_marginals() == {
            fact: Fraction(
                sum(fact in completion for completion in completions),
                len(completions),
            )
            for fact in facts
        }


@pytest.mark.parametrize("flavor,uniform,codd", FLAVORS[:2] + FLAVORS[2:3])
@pytest.mark.parametrize("seed", range(5))
def test_weighted_counts_match_brute_enumerator(seed, flavor, uniform, codd):
    db = _db(seed, uniform, codd)
    rng = random.Random(1000 + seed)
    weights = {
        null: {
            value: rng.randint(0, 4) for value in db.domain_of(null)
        }
        for null in db.nulls
    }
    for query in QUERIES[:5]:
        expected = count_valuations_weighted_brute(
            db, query, weights, budget=None
        )
        assert ValuationCircuit(db, query).weighted_count(weights) == expected
        assert count_valuations_weighted(db, query, weights) == expected
        # all-ones degenerates to the plain count
        assert ValuationCircuit(db, query).weighted_count(None) == (
            count_valuations_brute(db, query)
        )


def test_weighted_fraction_weights_stay_exact():
    db = _db(3, True, False)
    query = QUERIES[1]
    weights = {
        null: {
            value: Fraction(1, 1 + position)
            for position, value in enumerate(
                sorted(db.domain_of(null), key=repr)
            )
        }
        for null in db.nulls
    }
    resolved = resolve_null_weights(db, weights)
    expected = sum(
        _weight_product(resolved, valuation)
        for valuation in _satisfying(db, query)
    )
    got = ValuationCircuit(db, query).weighted_count(weights)
    assert isinstance(got, Fraction) or got == expected
    assert got == expected


@pytest.mark.parametrize("seed", range(5))
def test_marginals_match_brute_and_recount(seed):
    db = _db(seed, seed % 2 == 0, False)
    for query in (QUERIES[1], QUERIES[3], QUERIES[6]):
        satisfying = _satisfying(db, query)
        if not satisfying or not db.nulls:
            continue
        compiled = ValuationCircuit(db, query)
        marginals = compiled.marginals()
        recounted = valuation_marginals_recount(db, query)
        for null in db.nulls:
            for value in db.domain_of(null):
                expected = Fraction(
                    sum(1 for v in satisfying if v[null] == value),
                    len(satisfying),
                )
                assert marginals[null][value] == expected
                assert recounted[null][value] == expected
            assert sum(marginals[null].values()) == 1


def test_weighted_marginals_match_brute():
    db = _db(6, False, False)  # seed 6: five satisfying valuations
    query = QUERIES[3]
    rng = random.Random(17)
    weights = {
        null: {value: rng.randint(1, 3) for value in db.domain_of(null)}
        for null in db.nulls
    }
    resolved = resolve_null_weights(db, weights)
    satisfying = _satisfying(db, query)
    total = sum(_weight_product(resolved, v) for v in satisfying)
    if not total:
        pytest.skip("seed produced an unsatisfiable instance")
    marginals = ValuationCircuit(db, query).marginals(weights)
    for null in db.nulls:
        for value in db.domain_of(null):
            expected = Fraction(
                sum(
                    _weight_product(resolved, v)
                    for v in satisfying
                    if v[null] == value
                ),
                total,
            )
            assert marginals[null][value] == expected


def test_signed_weights_summing_to_zero():
    # n0's weights sum to 0, so the product of every null's total is 0
    # while the pinned weighted counts are not: the marginals and an
    # engine job still answer, matching brute enumeration.  Sampling
    # refuses the negative weight: no probability law has one.
    n0, n1 = Null("n0"), Null("n1")
    db = IncompleteDatabase.uniform(
        [Fact("R", [n0, "a"]), Fact("S", [n1])], ["a", "b"]
    )
    query = BCQ([Atom("R", ["x", "x"])])
    weights = {n0: {"a": 1, "b": -1}}
    total = count_valuations_weighted_brute(db, query, weights, budget=None)
    assert total == 2
    resolved = resolve_null_weights(db, weights)
    expected = {
        null: {
            value: Fraction(
                count_valuations_weighted_brute(
                    db, query,
                    {**resolved, null: {
                        other: weight if other == value else 0
                        for other, weight in resolved[null].items()
                    }},
                    budget=None,
                ),
                total,
            )
            for value in db.domain_of(null)
        }
        for null in db.nulls
    }
    assert expected == {
        n0: {"a": 1, "b": 0}, n1: {"a": Fraction(1, 2), "b": Fraction(1, 2)},
    }
    compiled = ValuationCircuit(db, query)
    assert compiled.marginals(weights) == expected
    assert solve("marginals", db, query, weights=weights).count == expected
    with pytest.raises(ValueError, match="negative weight"):
        compiled.sample_valuation(seed=0, weights=weights)
    [result] = BatchEngine(workers=0).run(
        [CountJob("marginals", db, query, weights=weights)]
    )
    assert result.ok, result.error
    assert result.count == {
        repr(null): {repr(value): float(p) for value, p in table.items()}
        for null, table in expected.items()
    }


def test_marginals_undefined_when_unsatisfiable():
    db = _db(0, True, False)
    impossible = BCQ([Atom("T", ["x"])])  # relation absent from the db
    with pytest.raises(ValueError):
        ValuationCircuit(db, impossible).marginals()


class TestSamplerExactness:
    """Exhaustive small-domain frequency checks with fixed seeds."""

    def _support_and_draws(self, db, query, draws, seed, weights=None):
        support = {
            tuple(sorted(v.items(), key=repr))
            for v in _satisfying(db, query)
        }
        compiled = ValuationCircuit(db, query)
        rng = random.Random(seed)
        frequencies = Counter(
            tuple(
                sorted(
                    compiled.sample_valuation(rng=rng, weights=weights).items(),
                    key=repr,
                )
            )
            for _ in range(draws)
        )
        return support, frequencies

    def test_uniform_sampler_is_exhaustive_and_flat(self):
        db, query = scaling_hard_val_instance(4, num_colors=2)
        support, frequencies = self._support_and_draws(db, query, 2800, 42)
        assert set(frequencies) == support  # every valuation, only those
        expected = 2800 / len(support)
        for count in frequencies.values():
            assert 0.6 * expected < count < 1.4 * expected

    def test_weighted_sampler_tracks_the_weights(self):
        db = _db(1, True, False)
        query = QUERIES[0]
        null = db.nulls[0]
        values = sorted(db.domain_of(null), key=repr)
        weights = {null: {value: 1 for value in values}}
        weights[null][values[0]] = 5
        support, frequencies = self._support_and_draws(
            db, query, 2500, 7, weights=weights
        )
        assert set(frequencies) <= support
        resolved = resolve_null_weights(db, weights)
        satisfying = _satisfying(db, query)
        total = sum(_weight_product(resolved, v) for v in satisfying)
        for valuation, count in frequencies.items():
            probability = Fraction(
                _weight_product(resolved, dict(valuation)), total
            )
            expected = float(probability) * 2500
            assert abs(count - expected) < max(0.5 * expected, 25)

    def test_circuit_sampler_front_door(self):
        db, query = scaling_hard_val_instance(5, num_colors=2)
        compiled = ValuationCircuit(db, query)
        assert compiled.count() == count_valuations_brute(db, query)
        support = {
            tuple(sorted(v.items(), key=repr))
            for v in _satisfying(db, query)
        }
        rng = random.Random(11)
        for _ in range(200):
            valuation = compiled.sample_valuation(rng=rng)
            assert tuple(sorted(valuation.items(), key=repr)) in support

    def test_circuit_sampler_reproducible_by_seed(self):
        db, query = scaling_hard_val_instance(5, num_colors=2)
        first, second = random.Random(3), random.Random(3)
        assert [
            ValuationCircuit(db, query).sample_valuation(rng=first)
            for _ in range(20)
        ] == [
            ValuationCircuit(db, query).sample_valuation(rng=second)
            for _ in range(20)
        ]

    def test_circuit_sampler_unsatisfiable(self):
        db = _db(0, True, False)
        impossible = BCQ([Atom("T", ["x"])])
        with pytest.raises(ValueError, match="nonzero weight"):
            ValuationCircuit(db, impossible).sample_valuation(seed=0)

    def test_circuit_sampler_zero_weight_mass(self):
        # Satisfiable query, but the weights zero out every valuation:
        # under the sampling distribution that is "nothing to sample".
        db = _db(1, True, False)
        query = QUERIES[0]
        assert _satisfying(db, query)
        null = db.nulls[0]
        weights = {null: {value: 0 for value in db.domain_of(null)}}
        with pytest.raises(ValueError, match="nonzero weight"):
            ValuationCircuit(db, query).sample_valuation(
                seed=0, weights=weights
            )

    def test_circuit_sampler_rejects_malformed_weights(self):
        db = _db(1, True, False)
        null = db.nulls[0]
        compiled = ValuationCircuit(db, QUERIES[0])
        with pytest.raises(ValueError, match="domain"):
            compiled.sample_valuation(
                seed=0, weights={null: {"not-a-domain-value": 1}}
            )

    def test_circuit_samplers_reject_seed_with_rng(self):
        # One explicit generator, as everywhere else: seed and rng together
        # are an error, not a silent preference for rng.
        db = _db(4, False, False)
        with pytest.raises(ValueError, match="not both"):
            ValuationCircuit(db, QUERIES[0]).sample_valuation(
                rng=random.Random(1), seed=2
            )
        with pytest.raises(ValueError, match="not both"):
            CompletionCircuit(db, None).sample_completion(
                rng=random.Random(1), seed=2
            )

    def test_completion_sampler_hits_only_completions(self):
        db = _db(4, False, False)
        compiled = CompletionCircuit(db, None)
        completions = {
            frozenset(apply_valuation(db, valuation).facts)
            for valuation in iter_valuations(db)
        }
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            sample = compiled.sample_completion(rng=rng)
            assert sample in completions
            seen.add(sample)
        if len(completions) <= 12:
            assert seen == completions

    def test_completion_fact_marginals_match_brute(self):
        db = _db(4, False, False)
        compiled = CompletionCircuit(db, None)
        completions = list(
            {
                frozenset(apply_valuation(db, valuation).facts)
                for valuation in iter_valuations(db)
            }
        )
        marginals = compiled.fact_marginals()
        for fact, probability in marginals.items():
            expected = Fraction(
                sum(1 for completion in completions if fact in completion),
                len(completions),
            )
            assert probability == expected


class TestDispatchRouting:
    def test_circuit_method_resolves_and_falls_back(self):
        db = _db(0, True, False)
        query = QUERIES[1]
        assert planner.plan("val", db, query, "circuit").chosen == "circuit"
        opaque = CustomQuery("opaque", ["R"], lambda database: True)
        assert planner.plan("val", db, opaque, "circuit").chosen == "brute"

    def test_weighted_routing(self):
        db = _db(0, True, False)
        free = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        assert planner.plan("val-weighted", db, free).chosen == "single-occurrence"
        assert planner.plan("val-weighted", db, QUERIES[1]).chosen == "circuit"
        opaque = CustomQuery("opaque", ["R"], lambda database: True)
        assert planner.plan("val-weighted", db, opaque).chosen == "brute"

    def test_weighted_single_occurrence_matches_brute(self):
        db = _db(5, False, False)
        free = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
        rng = random.Random(9)
        weights = {
            null: {value: rng.randint(1, 3) for value in db.domain_of(null)}
            for null in db.nulls
        }
        expected = count_valuations_weighted_brute(
            db, free, weights, budget=None
        )
        assert count_valuations_weighted(db, free, weights) == expected
        if expected:
            assert expected == weighted_total_valuations(db, weights)

    def test_weight_table_validation(self):
        db = _db(0, True, False)
        null = db.nulls[0]
        with pytest.raises(ValueError):
            resolve_null_weights(db, {null: {"not-in-domain": 1}})
        partial = {null: {sorted(db.domain_of(null), key=repr)[0]: 1}}
        with pytest.raises(ValueError):
            resolve_null_weights(db, partial)


class TestNullLevelSearch:
    """The trail core searches ``#Val`` by nulls: a null-level branching
    order and one decision per null of three or more values.  Its circuit
    answers every question as the reference core's circuit (the old order,
    one variable per decision) does, on seeded non-uniform instances with
    domains of one to four values, Codd and naive, with and without
    matches: counts, int and Fraction weighted counts, marginals, the
    resolve and restrict children, and seeded samples."""

    @staticmethod
    def _tables(rng, db, fractions):
        return {
            null: {
                value: (
                    Fraction(rng.randint(0, 4), rng.randint(1, 3))
                    if fractions else rng.randint(0, 3)
                )
                for value in sorted(db.domain_of(null))
            }
            for null in db.nulls
        }

    def _assert_same_answers(self, rng, trail, reference, db):
        assert trail.count() == reference.count()
        for fractions in (False, True):
            weights = self._tables(rng, db, fractions)
            assert trail.weighted_count(weights) == reference.weighted_count(weights)
        for weights in (None, self._tables(rng, db, True)):
            try:
                expected = reference.marginals(weights)
            except ValueError:
                with pytest.raises(ValueError):
                    trail.marginals(weights)
            else:
                assert trail.marginals(weights) == expected
        if trail.count():
            for seed in range(3):
                assert trail.sample_valuation(seed=seed) == (
                    reference.sample_valuation(seed=seed)
                )

    def test_answers_match_the_reference_circuit(self):
        rng = random.Random(37)
        queries = QUERIES[:4] + [BCQ([Atom("T", ["x"])])]  # T: no matches
        widest = []
        matched = []
        for trial in range(40):
            db = random_incomplete_db(
                {"R": 2, "S": 1}, seed=1000 + trial, num_nulls=4,
                domain_size=4, uniform=False, codd=trial % 2 == 1,
            )
            query = queries[trial % len(queries)]
            trail = ValuationCircuit(db, query)
            reference = ValuationCircuit(db, query, reference=True)
            branches = trail.circuit._plan().branch_node
            widest.append(int(max(Counter(branches.tolist()).values(), default=0)))
            matched.append(trail.num_matches > 0)
            self._assert_same_answers(rng, trail, reference, db)
            null = rng.choice(db.nulls)
            values = sorted(db.domain_of(null))
            deltas = [ResolveNull(null, rng.choice(values))]
            if len(values) > 1:
                deltas.append(RestrictDomain(null, frozenset(values[1:])))
            for delta in deltas:
                child = db.apply(delta)
                self._assert_same_answers(
                    rng, trail.condition(delta), reference.condition(delta), child
                )
        assert max(widest) >= 3  # some decisions branch once per value
        assert any(matched) and not all(matched)
