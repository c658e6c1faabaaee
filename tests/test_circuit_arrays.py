"""Level-by-level circuit passes vs the node-at-a-time walkers they replaced.

:class:`DDNNF` evaluates a compiled level plan, and conditioning pins
weights on the parent's shared program.  These tests hold both to the
old way: the walkers, weight tables and program rewrite kept in
:mod:`tests.circuit_oracles`, and recursive descent over the per-node
tuple view with dict-based weights.  ``count``, ``evaluate`` under int,
negative and Fraction weights, ``literal_counts`` for both polarities
and the lane each pass picks must agree on all three lanes (one row,
int64 columns, object columns), on projected circuits with freed and
non-countable variables, rehydrated circuits and pinned ones (a chain of
pins, a product left with a false child); seeded draws must agree too,
through a serialize round trip and on pinned circuits, with the
rewritten circuit's.  A pinned circuit shares its parent's plan, and
cannot be serialized or listed as if the program were its own.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.compile.circuit import DDNNF, _Runs
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.backend import ValuationCircuit
from repro.compile.sharpsat import ModelCounter
from repro.complexity.cnf import CNF
from repro.db.deltas import ResolveNull, RestrictDomain
from repro.obs import capture
from repro.workloads.generators import scaling_hard_val_instance
from tests import circuit_oracles as oracles
from tests.circuit_oracles import DECISION, FALSE, PRODUCT, TRUE

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
    """``(count, circuit, view)``; with ``pins`` the circuit is conditioned
    on them, the count is that of ``cnf`` plus the matching unit clauses,
    and ``view`` is the rewritten circuit (whose node list the pinned one
    does not expose); otherwise ``view`` is the circuit itself."""
    trace = TraceBuilder()
    counter = ModelCounter(cnf, projection=projection, trace=trace)
    count = counter.count()
    circuit = trace.build(
        counter.trace_root, cnf.num_variables, countable=projection
    )
    if not pins:
        return count, circuit, circuit
    restricted = CNF(cnf.num_variables, list(cnf.clauses))
    for variable, value in pins.items():
        restricted.add_clause([variable if value else -variable])
    count = ModelCounter(restricted, projection=projection).count()
    return count, circuit.condition(pins), oracles.rewrite(circuit, pins)


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
    nodes = oracles.decode(circuit)
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
        count, circuit, view = traced_circuit(
            cnf, pins=draw_pins(rng, cnf, variant)
        )
        recursive, _table, _nodes = recursive_values(view, None)
        assert circuit.count() == count == recursive
        weights = random_weights(rng, circuit, low=lowest_weight(variant))
        recursive_weighted, _t, _n = recursive_values(view, weights)
        assert circuit.evaluate(weights) == recursive_weighted
        assert lane_answers(
            circuit.evaluate_many, circuit, weights
        ) == dict.fromkeys(LANES, recursive_weighted)

    @pytest.mark.parametrize("seed, variant", with_variants(range(25, 40)))
    def test_fraction_weights(self, seed, variant):
        rng = random.Random(1000 + seed)
        cnf = draw_cnf(rng, variant)
        _count, circuit, view = traced_circuit(
            cnf, pins=draw_pins(rng, cnf, variant)
        )
        weights = random_weights(
            rng, circuit, fractions=True, low=lowest_weight(variant)
        )
        recursive, _t, _n = recursive_values(view, weights)
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
        count, circuit, view = traced_circuit(
            cnf, projection=projection,
            pins=draw_pins(rng, cnf, variant, projection),
        )
        recursive, _t, _n = recursive_values(view, None)
        assert circuit.count() == count == recursive
        weights = random_weights(rng, circuit, low=lowest_weight(variant))
        recursive_weighted, _t, _n = recursive_values(view, weights)
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
        _count, circuit, view = traced_circuit(
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
            expected_true, _t, _n = recursive_values(view, conditioned)
            conditioned[variable] = (0, false_weight)
            expected_false, _t, _n = recursive_values(view, conditioned)
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
        circuit = oracles.encode(
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
        count, first, _view = traced_circuit(cnf)
        if not count:
            return
        _count, second, _view = traced_circuit(cnf)
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
        count, circuit, _view = traced_circuit(cnf)
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
        count, circuit, _view = traced_circuit(cnf)
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


# -- the level passes against the walkers they replaced ---------------------

#: Circuit variants of the walker parity: ``projected`` circuits carry
#: freed and non-countable variables, ``pinned`` ones conditioning (of
#: three-component circuits, whose products pins can leave with a false
#: child) and ``chained`` two rounds of it on a projected circuit.
VARIANTS = (
    "plain", "negative", "fraction", "projected", "rehydrated", "pinned",
    "chained",
)


def variant_circuit(seed, variant):
    """``(rng, circuit, oracle)``: the circuit under test and the unpinned
    circuit the walkers run on (the rewrite, for a pinned one)."""
    rng = random.Random(5000 + seed)
    pinned = variant in ("pinned", "chained")
    cnf = draw_cnf(rng, "conditioned" if variant == "pinned" else None)
    projection = None
    if variant in ("projected", "chained") and cnf.num_variables > 1:
        projection = rng.sample(
            range(1, cnf.num_variables + 1),
            rng.randint(1, cnf.num_variables - 1),
        )
    _count, circuit, oracle = traced_circuit(cnf, projection=projection)
    if variant == "rehydrated":
        circuit = DDNNF.from_bytes(circuit.to_bytes())
    for _round in range(2 if variant == "chained" else int(pinned)):
        pins = draw_pins(rng, cnf, "conditioned", projection)
        circuit = circuit.condition(pins)
        oracle = oracles.rewrite(oracle, pins)
    return rng, circuit, oracle


def variant_rows(rng, circuit, variant):
    """A weight row for the variant, then paddings onto every lane."""
    fractions = variant == "fraction"
    low = -4 if variant in ("negative", "chained") else 0
    first = random_weights(rng, circuit, fractions=fractions, low=low)
    variable = min(circuit.countable)
    return [
        [first],
        [first, None],
        [first, {variable: (1 << 62, 1)}],
        [first] + [
            random_weights(rng, circuit, fractions=fractions, low=low)
            for _ in range(4)
        ],
    ]


def lane_and(many, rows):
    with capture() as captured:
        answer = many(rows)
    return captured.roots[0].fields["lane"], answer


class TestLevelPassesMatchWalkers:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(15))
    def test_every_lane_answers_like_the_walkers(self, seed, variant):
        rng, circuit, oracle = variant_circuit(seed, variant)
        lanes = set()
        for rows in variant_rows(rng, circuit, variant):
            lane, counts = lane_and(circuit.evaluate_many, rows)
            assert (lane, counts) == oracles.evaluate_many(oracle, rows)
            assert lane_and(circuit.literal_counts_many, rows) == (
                oracles.literal_counts_many(oracle, rows)
            )
            lanes.add(lane)
        assert {"scalar", "object"} <= lanes
        assert variant == "fraction" or "int64" in lanes

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_magnitude_bound_is_the_walkers(self, variant):
        # The lane rule reads the bound against 2^62, so it must be the
        # old figure exactly, not just an upper bound of it.
        for seed in range(60):
            rng, circuit, oracle = variant_circuit(seed, variant)
            rows = [random_weights(rng, circuit, low=-6) for _ in range(3)]
            size = circuit.num_variables + 1
            columns = [
                [[(row.get(v) or (1, 1))[side] for row in rows] for v in range(size)]
                for side in (0, 1)
            ]
            assert circuit._magnitude_bound(circuit._columns(rows)) == (
                oracles.magnitude_bound(oracle, *columns)
            )

    def test_projected_variants_cover_freed_and_uncountable_variables(self):
        freed = uncountable = 0
        for seed in range(15):
            _rng, circuit, _oracle = variant_circuit(seed, "projected")
            plan = circuit._plan()
            freed += plan.free_vars.size
            uncountable += plan.loose.size
        assert freed and uncountable

    def test_a_pin_can_leave_a_product_with_a_false_child(self):
        # The product's right child decides variable 2 and frees 3; the
        # pin 2 = false kills its one branch.
        circuit = oracles.encode(
            [
                (FALSE,), (TRUE,),
                (DECISION, (((1,), (), 1), ((-1,), (), 1))),
                (DECISION, (((2,), (3,), 1),)),
                (PRODUCT, (2, 3)),
            ],
            root=4, num_variables=3, countable=[1, 2, 3],
        )
        pinned = circuit.condition({2: False})
        oracle = oracles.rewrite(circuit, {2: False})
        assert oracles.decode(oracle)[3] == (FALSE,)
        assert pinned.count() == 0 and circuit.count() == 4
        rows = [{1: (2, 3), 3: (5, 7)}, {1: (1, 1)}, None]
        for batch in (rows[:1], rows, [rows[0], {3: (1 << 62, 1)}]):
            assert lane_and(pinned.evaluate_many, batch) == (
                oracles.evaluate_many(oracle, batch)
            )
            assert lane_and(pinned.literal_counts_many, batch) == (
                oracles.literal_counts_many(oracle, batch)
            )


class TestPinnedCircuits:
    def test_a_pinned_child_reuses_the_parent_plan(self):
        db, query = scaling_hard_val_instance(8, seed=1)
        null = db.nulls[0]
        parent = ValuationCircuit(db, query)
        parent.weighted_count()
        plan = parent.circuit._plan()
        child = parent.condition(ResolveNull(null, sorted(db.domain_of(null))[0]))
        grandchild = child.condition(
            RestrictDomain(db.nulls[1], frozenset(sorted(db.domain_of(db.nulls[1]))[:2]))
        )
        for derived in (child, grandchild):
            assert derived.circuit._program is parent.circuit._program
            derived.weighted_count()
            assert derived.circuit._plan() is plan

    def test_a_pinned_circuit_cannot_be_read_as_its_parent(self):
        rng = random.Random(17)
        _count, circuit, _view = traced_circuit(draw_cnf(rng, "conditioned"))
        figure = circuit.memory_bytes()
        pinned = circuit.condition({1: True})
        with pytest.raises(ValueError, match="pinned"):
            pinned.to_bytes()
        with pytest.raises(ValueError, match="pinned"):
            oracles.decode(pinned)
        # The figure is the shared program's, cached there: the child
        # returns that very object rather than walking the program again.
        assert pinned.memory_bytes() is figure
        assert circuit.to_bytes() == DDNNF.from_bytes(circuit.to_bytes()).to_bytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_draws_equal_the_rewritten_circuits(self, seed):
        rng = random.Random(6000 + seed)
        cnf = draw_cnf(rng, "conditioned" if seed % 2 else None)
        projection = None
        if seed % 3 == 0 and cnf.num_variables > 1:
            projection = rng.sample(
                range(1, cnf.num_variables + 1), cnf.num_variables - 1
            )
        _count, circuit, rewritten = traced_circuit(cnf, projection=projection)
        for _round in range(1 + seed % 2):
            pins = draw_pins(rng, cnf, "conditioned", projection)
            circuit = circuit.condition(pins)
            rewritten = oracles.rewrite(rewritten, pins)
        if not rewritten.count():
            with pytest.raises(ValueError):
                circuit.sampler()
            return
        weights = random_weights(rng, circuit) if seed % 4 else None
        if weights is not None and not rewritten.evaluate(weights):
            return
        pinned_draws = circuit.sampler(weights)
        rewritten_draws = rewritten.sampler(weights)
        for index in range(25):
            assert pinned_draws.sample(random.Random(index)) == (
                rewritten_draws.sample(random.Random(index))
            )


class TestRunsReduce:
    """A wide reduction, position by position, equals ``reduceat`` run on
    each column alone (the one-wide lane): int64 and exact object columns,
    and object floats bit for bit, since both associate left to right."""

    @staticmethod
    def _layout(rng):
        lengths = [rng.randint(1, 6) for _ in range(rng.randint(1, 24))]
        starts = [sum(lengths[:i]) for i in range(len(lengths))]
        cuts = sorted(rng.sample(range(1, len(lengths)), rng.randint(0, len(lengths) - 1)))
        return lengths, starts, [0, *cuts, len(lengths)]

    @staticmethod
    def _column(rng, kind, size):
        if kind == "int64":
            return np.array([rng.randint(-9, 9) for _ in range(size)], dtype=np.int64)
        if kind == "object":
            return np.array(
                [rng.choice([rng.randint(-9, 9) << 70, Fraction(rng.randint(-5, 5), 3)])
                 for _ in range(size)],
                dtype=object,
            )
        return np.array([rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
                         for _ in range(size)], dtype=object)

    @pytest.mark.parametrize("kind", ["int64", "object", "float"])
    def test_wide_reductions_equal_the_one_wide_lane(self, kind):
        rng = random.Random(kind)
        seen = set()
        for _trial in range(60):
            lengths, starts, blocks = self._layout(rng)
            total = sum(lengths)
            runs = _Runs(np.array(starts), total, blocks)
            bounds = [*starts, total]
            width = rng.randint(2, 5)
            for block in range(len(blocks) - 1):
                lo, hi = bounds[blocks[block]], bounds[blocks[block + 1]]
                seen.update(lengths[blocks[block]:blocks[block + 1]])
                items = np.stack(
                    [self._column(rng, kind, hi - lo) for _ in range(width)], axis=1
                )
                for op in (np.add, np.multiply):
                    wide = runs.reduce(op, items.copy(), block)
                    for column in range(width):
                        narrow = runs.reduce(op, items[:, column:column + 1], block)
                        got, want = wide[:, column].tolist(), narrow[:, 0].tolist()
                        if kind == "float":
                            got = [value.hex() for value in got]
                            want = [value.hex() for value in want]
                        assert got == want
        assert seen == set(range(1, 7))
