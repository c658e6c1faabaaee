"""Array-compiled circuit passes vs a direct dict-recursion evaluator.

:class:`DDNNF` executes every pass over a flat int program.  These tests
re-implement the passes the *old* way — recursive descent over the
per-node tuple view with dict-based weights — and assert the array
sweeps reproduce them exactly: ``count``, ``evaluate`` under int and
Fraction weights, ``literal_counts`` for both polarities, and sampler
determinism (same circuit, same seed, same draws — through a serialize
round trip too).  Every parity case runs on all three lanes (one row,
int64 columns, object columns), and again with negative weights and on a
conditioned circuit whose products may keep a false child.
"""

import random
from fractions import Fraction

import pytest

from repro.compile.circuit import DDNNF, DECISION, FALSE, PRODUCT, TRUE
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.sharpsat import ModelCounter
from repro.complexity.cnf import CNF
from repro.obs import capture

LANES = ("scalar", "int64", "object")


def random_cnf(rng, max_variables=8, max_clauses=12):
    n = rng.randint(1, max_variables)
    cnf = CNF(n)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        cnf.add_clause(
            v if rng.random() < 0.5 else -v for v in variables
        )
    return cnf


def traced_circuit(cnf, projection=None, seed=None, pins=None):
    """``(count, circuit)``; with ``pins`` the circuit is conditioned on
    them and the count is that of ``cnf`` plus the matching unit clauses."""
    trace = TraceBuilder()
    counter = ModelCounter(cnf, projection=projection, trace=trace)
    count = counter.count()
    circuit = trace.build(
        counter.trace_root, cnf.num_variables, countable=projection
    )
    if pins:
        restricted = CNF(cnf.num_variables, list(cnf.clauses))
        for variable, value in pins.items():
            restricted.add_clause([variable if value else -variable])
        count = ModelCounter(restricted, projection=projection).count()
        circuit = circuit.condition(pins)
    return count, circuit


def with_variants(seeds, extra=()):
    """``(seed, variant)`` cases: each seed as drawn (keeping its plain
    id), then with weights down to -4 (``negative``), on a conditioned
    circuit (``conditioned``: see :func:`draw_cnf`, weights down to -4
    too) and with each ``extra`` variant."""
    cases = [pytest.param(seed, None, id=str(seed)) for seed in seeds]
    for variant in ("negative", "conditioned") + tuple(extra):
        cases.extend(
            pytest.param(seed, variant, id="%d-%s" % (seed, variant))
            for seed in seeds
        )
    return cases


def draw_cnf(rng, variant, max_variables=8):
    """``random_cnf``, except that the ``conditioned`` variant draws three
    variable-disjoint components of width-2/3 clauses, so the circuit has
    products for conditioning to leave a false child in."""
    if variant != "conditioned":
        return random_cnf(rng, max_variables=max_variables)
    clauses = []
    base = 0
    for _ in range(3):
        size = rng.randint(2, 4)
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(
                range(1, size + 1), rng.randint(2, min(3, size))
            )
            clauses.append([
                base + v if rng.random() < 0.5 else -(base + v)
                for v in chosen
            ])
        base += size
    return CNF(base, clauses)


def lowest_weight(variant):
    return 0 if variant is None else -4


def draw_pins(rng, cnf, variant, projection=None):
    """Pins for the ``conditioned`` variant (else None): a random
    polarity for about half of the countable variables."""
    if variant != "conditioned":
        return None
    countable = projection or range(1, cnf.num_variables + 1)
    return {
        variable: rng.random() < 0.5
        for variable in sorted(countable)
        if rng.random() < 0.5
    }


def lane_answers(many, circuit, weights):
    """``many(rows)[0]`` for ``rows`` led by ``weights`` and padded onto
    each lane, keyed by the lane recorded on the pass's span: one row, a
    default row (int64 columns for machine-int weights) and a row past
    the int64 bound (object columns)."""
    variable = min(circuit.countable)
    answers = {}
    for padding in ([], [None], [{variable: (1 << 62, 1)}]):
        with capture() as captured:
            answer = many([weights] + padding)[0]
        answers[captured.roots[0].fields["lane"]] = answer
    return answers


def recursive_values(circuit, weights):
    """The upward pass as plain recursion over the tuple node view."""
    nodes = list(circuit.nodes())
    table = {variable: (1, 1) for variable in circuit.countable}
    for variable, pair in (weights or {}).items():
        table[variable] = tuple(pair)
    memo = {}

    def value(index):
        if index in memo:
            return memo[index]
        node = nodes[index]
        kind = node[0]
        if kind == TRUE:
            result = 1
        elif kind == PRODUCT:
            result = 1
            for child in node[1]:
                result *= value(child)
        elif kind == DECISION:
            result = 0
            for literals, free, child in node[1]:
                term = value(child)
                for literal in literals:
                    pair = table.get(abs(literal))
                    if pair is not None:
                        term *= pair[0] if literal > 0 else pair[1]
                for variable in free:
                    pair = table.get(variable)
                    if pair is not None:
                        term *= pair[0] + pair[1]
                result += term
        else:  # FALSE
            result = 0
        memo[index] = result
        return result

    return value(circuit.root), table, nodes


def random_weights(rng, circuit, fractions=False, low=0):
    weights = {}
    for variable in circuit.countable:
        if rng.random() < 0.6:
            if fractions:
                weights[variable] = (
                    Fraction(rng.randint(low, 5), rng.randint(1, 4)),
                    Fraction(rng.randint(low, 5), rng.randint(1, 4)),
                )
            else:
                weights[variable] = (
                    rng.randint(low, 4), rng.randint(low, 4)
                )
    return weights


class TestUpwardParity:
    @pytest.mark.parametrize("seed, variant", with_variants(range(25)))
    def test_count_and_weighted_evaluate(self, seed, variant):
        rng = random.Random(1000 + seed)
        cnf = draw_cnf(rng, variant)
        count, circuit = traced_circuit(
            cnf, pins=draw_pins(rng, cnf, variant)
        )
        recursive, _table, _nodes = recursive_values(circuit, None)
        assert circuit.count() == count == recursive
        weights = random_weights(rng, circuit, low=lowest_weight(variant))
        recursive_weighted, _t, _n = recursive_values(circuit, weights)
        assert circuit.evaluate(weights) == recursive_weighted
        assert lane_answers(
            circuit.evaluate_many, circuit, weights
        ) == dict.fromkeys(LANES, recursive_weighted)

    @pytest.mark.parametrize("seed, variant", with_variants(range(25, 40)))
    def test_fraction_weights(self, seed, variant):
        rng = random.Random(1000 + seed)
        cnf = draw_cnf(rng, variant)
        _count, circuit = traced_circuit(
            cnf, pins=draw_pins(rng, cnf, variant)
        )
        weights = random_weights(
            rng, circuit, fractions=True, low=lowest_weight(variant)
        )
        recursive, _t, _n = recursive_values(circuit, weights)
        result = circuit.evaluate(weights)
        assert result == recursive
        assert isinstance(result, (int, Fraction))
        answers = lane_answers(circuit.evaluate_many, circuit, weights)
        assert answers == dict.fromkeys(answers, recursive)
        assert {"scalar", "object"} <= set(answers)

    @pytest.mark.parametrize("seed, variant", with_variants(range(40, 55)))
    def test_projected_circuits(self, seed, variant):
        rng = random.Random(1000 + seed)
        cnf = draw_cnf(rng, variant)
        if cnf.num_variables < 2:
            return
        projection = rng.sample(
            range(1, cnf.num_variables + 1),
            rng.randint(1, cnf.num_variables),
        )
        count, circuit = traced_circuit(
            cnf, projection=projection,
            pins=draw_pins(rng, cnf, variant, projection),
        )
        recursive, _t, _n = recursive_values(circuit, None)
        assert circuit.count() == count == recursive
        weights = random_weights(rng, circuit, low=lowest_weight(variant))
        recursive_weighted, _t, _n = recursive_values(circuit, weights)
        assert lane_answers(
            circuit.evaluate_many, circuit, weights
        ) == dict.fromkeys(LANES, recursive_weighted)


class TestLiteralCountParity:
    @pytest.mark.parametrize(
        "seed, variant", with_variants(range(20), extra=("projected",))
    )
    def test_both_polarities_match_conditioned_recursion(self, seed, variant):
        rng = random.Random(2000 + seed)
        cnf = draw_cnf(rng, variant, max_variables=6)
        projection = None
        if variant == "projected":
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(1, cnf.num_variables),
            )
        _count, circuit = traced_circuit(
            cnf, projection=projection,
            pins=draw_pins(rng, cnf, variant),
        )
        weights = (
            random_weights(rng, circuit, low=lowest_weight(variant))
            if seed % 2 else None
        )
        counts = circuit.literal_counts(weights)
        expected = {}
        # Reference: condition each literal by zeroing the opposite
        # polarity's weight, then evaluate recursively.
        base = {variable: (1, 1) for variable in circuit.countable}
        for variable, pair in (weights or {}).items():
            base[variable] = tuple(pair)
        for variable in circuit.countable:
            true_weight, false_weight = base[variable]
            conditioned = dict(base)
            conditioned[variable] = (true_weight, 0)
            expected_true, _t, _n = recursive_values(circuit, conditioned)
            conditioned[variable] = (0, false_weight)
            expected_false, _t, _n = recursive_values(circuit, conditioned)
            assert counts[variable] == expected_true
            assert counts[-variable] == expected_false
            expected[variable] = expected_true
            expected[-variable] = expected_false
        assert lane_answers(
            circuit.literal_counts_many, circuit, weights
        ) == dict.fromkeys(LANES, expected)


class TestLaneChoice:
    def test_row_count_and_magnitude_bound_pick_the_lane(self):
        # One decision on variable 1 over two true leaves: its magnitude
        # bound is max|w+| + max|w-| over the rows, so ``under`` sits one
        # below 2^62 and ``over`` exactly at it.
        circuit = DDNNF(
            [(FALSE,), (TRUE,), (DECISION, (((1,), (), 1), ((-1,), (), 1)))],
            root=2, num_variables=1, countable=[1],
        )
        half = 1 << 61
        under = [{1: (half, half - 1)}, {1: (3, -2)}]
        over = [{1: (half, half)}, {1: (3, -2)}]
        for rows, lane in (
            (under[:1], "scalar"), (under, "int64"), (over, "object")
        ):
            with capture() as captured:
                counts = circuit.evaluate_many(rows)
                literals = circuit.literal_counts_many(rows)
            assert [span.fields["lane"] for span in captured.roots] == [
                lane, lane,
            ]
            assert counts == [sum(row[1]) for row in rows]
            assert literals == [{1: row[1][0], -1: row[1][1]} for row in rows]
            assert counts == [circuit.evaluate(row) for row in rows]
            assert literals == [circuit.literal_counts(row) for row in rows]
            assert all(type(count) is int for count in counts)


class TestSamplerDeterminism:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_seed_same_draws_across_rebuilds(self, seed):
        rng = random.Random(3000 + seed)
        cnf = random_cnf(rng)
        count, first = traced_circuit(cnf)
        if not count:
            return
        _count, second = traced_circuit(cnf)
        draws_first = [
            first.sampler().sample(random.Random(seed * 7 + i))
            for i in range(20)
        ]
        draws_second = [
            second.sampler().sample(random.Random(seed * 7 + i))
            for i in range(20)
        ]
        assert draws_first == draws_second

    @pytest.mark.parametrize("seed", range(10, 16))
    def test_serialize_round_trip_preserves_draws(self, seed):
        rng = random.Random(3000 + seed)
        cnf = random_cnf(rng)
        count, circuit = traced_circuit(cnf)
        if not count:
            return
        restored = DDNNF.from_bytes(circuit.to_bytes())
        draws = [
            circuit.sampler().sample(random.Random(100 + i))
            for i in range(20)
        ]
        restored_draws = [
            restored.sampler().sample(random.Random(100 + i))
            for i in range(20)
        ]
        assert draws == restored_draws

    def test_samples_are_models(self):
        rng = random.Random(4)
        cnf = random_cnf(rng, max_variables=6)
        count, circuit = traced_circuit(cnf)
        if not count:
            return
        sampler = circuit.sampler()
        draw_rng = random.Random(11)
        for _ in range(30):
            assignment = sampler.sample(draw_rng)
            assert set(assignment) == set(circuit.countable)
            bits = [
                assignment.get(v, False)
                for v in range(1, cnf.num_variables + 1)
            ]
            assert cnf.satisfied_by(bits)
