"""The plan-descent sampler against the program walker it replaced, and
against the exact law.

:class:`~repro.compile.circuit.CircuitSampler` descends a circuit's
level plan.  Its seeded draws must equal those of the walker kept in
:class:`tests.circuit_oracles.Sampler` on full, projected, pinned and
chain-pinned circuits under int, Fraction and zero weights, and through
``CompletionCircuit.sample_completion`` on the ``#Comp`` generators.
On tiny circuits every outcome of the sampler's ``randrange`` calls is
enumerated, so each assignment's probability is known exactly and must
be its weight over the total.  A negative weight has no law: both
samplers and ``draw_index`` refuse it before any draw.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from repro.compile import CompletionCircuit, ValuationCircuit
from repro.compile.circuit import draw_index
from repro.complexity.cnf import CNF
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.workloads.generators import (
    scaling_block_comp_instance,
    scaling_hard_comp_instance,
)
from tests import circuit_oracles as oracles
from tests.test_circuit_arrays import (
    draw_cnf,
    draw_pins,
    random_cnf,
    random_weights,
    traced_circuit,
)

#: Circuit kinds: a full or projected compile, then pinned once or twice.
KINDS = ("full", "projected", "pinned", "chained")
#: Weight kinds: none, ints 0-4, Fractions, and ints 0-2 (many zeros).
WEIGHTS = ("none", "int", "fraction", "zero")


def sampler_case(seed, kind, weighting, max_variables=8):
    """``(cnf, projection, pins, circuit, weights)`` for one drawn case;
    ``pins`` lists every round's ``(variable, value)`` pins.  Pinned
    kinds draw three-component CNFs (up to 12 variables); below 6
    variables every kind draws a CNF of at most as many clauses."""
    rng = random.Random(seed)
    if max_variables < 6:
        cnf = random_cnf(rng, max_variables, max_clauses=max_variables)
    else:
        cnf = draw_cnf(
            rng, "conditioned" if kind in ("pinned", "chained") else None
        )
    projection = None
    if kind in ("projected", "chained") and cnf.num_variables > 1:
        projection = rng.sample(
            range(1, cnf.num_variables + 1),
            rng.randint(1, cnf.num_variables - 1),
        )
    _count, circuit, _view = traced_circuit(cnf, projection=projection)
    pins: list = []
    for _round in range({"pinned": 1, "chained": 2}.get(kind, 0)):
        round_pins = draw_pins(rng, cnf, "conditioned", projection)
        circuit = circuit.condition(round_pins)
        pins.extend(round_pins.items())
    if weighting == "zero":
        weights = {
            variable: (rng.randint(0, 2), rng.randint(0, 2))
            for variable in sorted(circuit.countable)
            if rng.random() < 0.7
        }
    else:
        weights = None if weighting == "none" else random_weights(
            rng, circuit, fractions=weighting == "fraction"
        )
    return cnf, projection, pins, circuit, weights


class TestDrawsMatchTheWalker:
    @pytest.mark.parametrize("weighting", WEIGHTS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_draws_equal_the_walkers(self, kind, weighting):
        sampled = 0
        for seed in range(40):
            _cnf, _p, _pins, circuit, weights = sampler_case(
                7000 + seed, kind, weighting
            )
            try:
                walker = oracles.Sampler(circuit, weights)
            except ValueError:
                with pytest.raises(ValueError, match="no .*models"):
                    circuit.sampler(weights)
                continue
            sampler = circuit.sampler(weights)
            assert sampler.total == walker.total
            for index in range(10):
                assert sampler.sample(random.Random(index)) == (
                    walker.sample(random.Random(index))
                )
            sampled += 1
        assert sampled >= 5

    @pytest.mark.parametrize("instance", [
        pytest.param(lambda: scaling_hard_comp_instance(6, seed=1), id="hard-6"),
        pytest.param(lambda: scaling_hard_comp_instance(8, seed=2), id="hard-8"),
        pytest.param(
            lambda: (scaling_hard_comp_instance(7, seed=3)[0], None),
            id="hard-7-all",
        ),
        pytest.param(lambda: scaling_block_comp_instance(4, seed=1), id="block-4"),
        pytest.param(lambda: scaling_block_comp_instance(6, seed=2), id="block-6"),
    ])
    def test_completion_samples_equal_the_walkers(self, instance):
        db, query = instance()
        compiled = CompletionCircuit(db, query)
        walker = oracles.Sampler(compiled.circuit)
        facts = compiled._variables
        for seed in range(30):
            assignment = walker.sample(random.Random(seed))
            assert compiled.sample_completion(seed=seed) == frozenset(
                fact for fact in facts.facts()
                if assignment.get(facts.var(fact))
            )


class _Outcome(int):
    """A ``randrange`` outcome that records, per comparison, the least
    value above it at which the comparison's answer could change."""

    def __new__(cls, value, thresholds):
        outcome = super().__new__(cls, value)
        outcome.thresholds = thresholds
        return outcome

    def _note(self, threshold):
        self.thresholds.append(threshold)

    def __lt__(self, other):
        self._note(other)
        return int(self) < other

    def __ge__(self, other):
        self._note(other)
        return int(self) >= other

    def __le__(self, other):
        self._note(other + 1)
        return int(self) <= other

    def __gt__(self, other):
        self._note(other + 1)
        return int(self) > other


class _Script:
    """A random source answering ``randrange`` from a script of outcomes
    (0 past its end), recording each call's size and thresholds."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def randrange(self, size):
        index = len(self.calls)
        thresholds: list = []
        self.calls.append((size, thresholds))
        value = self.script[index] if index < len(self.script) else 0
        return _Outcome(value, thresholds)


def exact_law(sampler) -> dict:
    """``assignment items -> probability`` over every outcome of the
    sampler's ``randrange`` calls.  Outcomes of one call that answer
    every comparison alike lead to the same draw, so each such run of
    outcomes is followed once and weighed by its length."""
    law: dict = {}

    def follow(prefix, probability):
        source = _Script(prefix)
        assignment = sampler.sample(source)
        if len(source.calls) == len(prefix):
            key = frozenset(assignment.items())
            law[key] = law.get(key, 0) + probability
            return
        size = source.calls[len(prefix)][0]
        value = 0
        while value < size:
            source = _Script(prefix + (value,))
            sampler.sample(source)
            end = min(
                (t for t in source.calls[len(prefix)][1] if t > value),
                default=size,
            )
            end = min(end, size)
            follow(prefix + (value,), probability * Fraction(end - value, size))
            value = end

    follow((), Fraction(1))
    return law


def expected_law(cnf, projection, pins, weights) -> dict:
    """``assignment items -> weight / total`` by enumerating the
    countable variables' assignments that extend to a model."""
    countable = sorted(projection or range(1, cnf.num_variables + 1))
    hidden = [v for v in range(1, cnf.num_variables + 1) if v not in countable]
    masses = {}
    for values in product((True, False), repeat=len(countable)):
        assignment = dict(zip(countable, values))
        if any(assignment[v] != value for v, value in pins):
            continue
        if not any(
            cnf.satisfied_by([
                {**assignment, **dict(zip(hidden, extra))}[v]
                for v in range(1, cnf.num_variables + 1)
            ])
            for extra in product((True, False), repeat=len(hidden))
        ):
            continue
        mass = 1
        for variable, value in assignment.items():
            pair = (weights or {}).get(variable, (1, 1))
            mass *= pair[0] if value else pair[1]
        if mass:
            masses[frozenset(assignment.items())] = mass
    total = sum(masses.values())
    return {key: Fraction(mass, total) for key, mass in masses.items()}


class TestExactLaw:
    def test_every_assignment_draws_with_its_weight_over_the_total(self):
        checked = []
        for seed in range(120):
            kind = KINDS[seed % len(KINDS)]
            cnf, projection, pins, circuit, weights = sampler_case(
                8000 + seed, kind, "zero" if seed % 3 else "none",
                max_variables=4,
            )
            expected = expected_law(cnf, projection, pins, weights)
            if not expected:
                with pytest.raises(ValueError):
                    circuit.sampler(weights)
                continue
            assert exact_law(circuit.sampler(weights)) == expected
            checked.append(kind)
        assert set(checked) == set(KINDS) and len(checked) >= 60

    def test_the_law_tells_weightings_apart(self):
        # x1 ∨ x2 has three models; weighing x1 (2, 1) moves the law.
        cnf = CNF(2, [(1, 2)])
        _count, circuit, _view = traced_circuit(cnf)
        weights = {1: (2, 1)}
        weighted = expected_law(cnf, None, [], weights)
        uniform = expected_law(cnf, None, [], None)
        assert exact_law(circuit.sampler(weights)) == weighted
        assert exact_law(circuit.sampler()) == uniform != weighted
        assert set(uniform.values()) == {Fraction(1, 3)}


class TestNegativeWeights:
    def test_circuit_sampler_refuses_a_negative_weight(self):
        _count, circuit, _view = traced_circuit(CNF(2, [(1, 2)]))
        with pytest.raises(ValueError, match="negative weight"):
            circuit.sampler({1: (3, -1)})
        with pytest.raises(ValueError, match="negative weight"):
            circuit.condition({2: True}).sampler({1: (Fraction(-1, 2), 1)})

    def test_valuation_sampler_refuses_a_negative_weight(self):
        n0, n1 = Null("n0"), Null("n1")
        db = IncompleteDatabase.uniform(
            [Fact("R", [n0, "a"]), Fact("S", [n1])], ["a", "b"]
        )
        compiled = ValuationCircuit(db, BCQ([Atom("R", ["x", "x"])]))
        weights = {n1: {"a": 3, "b": -1}}
        assert compiled.marginals(weights)[n1]["b"] == Fraction(-1, 2)
        with pytest.raises(ValueError, match="negative weight"):
            compiled.sample_valuation(seed=0, weights=weights)

    def test_draw_index_refuses_a_negative_entry(self):
        with pytest.raises(ValueError, match="negative weight"):
            draw_index(random.Random(0), [3, -1])
        with pytest.raises(ValueError, match="negative weight"):
            draw_index(random.Random(0), [Fraction(1, 2), Fraction(-1, 3), 1])
        with pytest.raises(ValueError, match="zero total"):
            draw_index(random.Random(0), [0, 0])
