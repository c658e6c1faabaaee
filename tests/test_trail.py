"""Trail invariants of the in-place clause store.

The trail core's whole soundness argument is that ``propagate`` and
``backtrack`` are exact inverses over the long clauses' counters, and that
keeping binary clauses implicit changes no propagation result.  These
tests pin both down: every propagate/backtrack round trip (with or without
conflicts, nested to arbitrary depth) must restore the store's full live
state bit for bit; the counters must agree at all times with a
from-scratch recount; and on random formulas the store must assign the
same literals and reach the same conflict verdict as :class:`CounterStore`,
the store that kept a ``sat``/``free`` counter pair for every clause.
"""

import random

import pytest

from repro.compile.trail import ClauseStore


class CounterStore:
    """The propagation oracle: every clause, binary ones included, keeps
    occurrence-list entries and a satisfied/free counter pair, and a
    clause turns unit or conflicting by its counters alone."""

    def __init__(self, num_variables, clauses):
        self.clauses = [tuple(clause) for clause in clauses]
        size = num_variables + 1
        self.occ_pos = [[] for _ in range(size)]
        self.occ_neg = [[] for _ in range(size)]
        self.free = [len(clause) for clause in self.clauses]
        self.sat = [0] * len(self.clauses)
        self.value = [0] * size
        self.trail = []
        for index, clause in enumerate(self.clauses):
            for literal in clause:
                if literal > 0:
                    self.occ_pos[literal].append(index)
                else:
                    self.occ_neg[-literal].append(index)

    def mark(self):
        return len(self.trail)

    def propagate(self, literals):
        value, free, sat = self.value, self.free, self.sat
        queue = list(literals)
        cursor = 0
        conflict = False
        while cursor < len(queue):
            literal = queue[cursor]
            cursor += 1
            variable = abs(literal)
            current = value[variable]
            if current:
                if (current > 0) != (literal > 0):
                    return False
                continue
            value[variable] = 1 if literal > 0 else -1
            self.trail.append(literal)
            if literal > 0:
                satisfied, touched = self.occ_pos[variable], self.occ_neg[variable]
            else:
                satisfied, touched = self.occ_neg[variable], self.occ_pos[variable]
            for ci in satisfied:
                sat[ci] += 1
                free[ci] -= 1
            for ci in touched:
                free[ci] -= 1
                if not conflict and not sat[ci]:
                    if free[ci] == 0:
                        conflict = True
                    elif free[ci] == 1:
                        for unit in self.clauses[ci]:
                            if not value[abs(unit)]:
                                queue.append(unit)
                                break
            if conflict:
                return False
        return True

    def backtrack(self, mark):
        while len(self.trail) > mark:
            literal = self.trail.pop()
            variable = abs(literal)
            self.value[variable] = 0
            if literal > 0:
                satisfied, touched = self.occ_pos[variable], self.occ_neg[variable]
            else:
                satisfied, touched = self.occ_neg[variable], self.occ_pos[variable]
            for ci in satisfied:
                self.sat[ci] -= 1
                self.free[ci] += 1
            for ci in touched:
                self.free[ci] += 1


def random_clauses(rng, num_variables, max_clauses=16):
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, num_variables))
        variables = rng.sample(range(1, num_variables + 1), width)
        clauses.append(tuple(
            v if rng.random() < 0.5 else -v for v in variables
        ))
    return clauses


def recount(store):
    """Per long clause (satisfied, free) recomputed from scratch; a binary
    clause's entries never move from (0, 2)."""
    expected = []
    binary = set(store.binary)
    for index, clause in enumerate(store.clauses):
        satisfied = 0
        free = 0
        for literal in clause:
            value = store.value[abs(literal)]
            if value == 0:
                free += 1
            elif (value > 0) == (literal > 0):
                satisfied += 1
        expected.append((0, 2) if index in binary else (satisfied, free))
    return expected


def assert_consistent(store):
    expected = recount(store)
    actual = list(zip(store.sat, store.free))
    assert actual == expected


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(30))
    def test_propagate_backtrack_restores_exact_state(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        store = ClauseStore(n, random_clauses(rng, n))
        baseline = store.snapshot()
        for _ in range(20):
            mark = store.mark()
            snapshot = store.snapshot()
            literals = [
                rng.choice([1, -1]) * rng.randint(1, n)
                for _ in range(rng.randint(1, 3))
            ]
            ok = store.propagate(literals)
            if ok:
                assert_consistent(store)
            store.backtrack(mark)
            assert store.snapshot() == snapshot
        assert store.snapshot() == baseline

    @pytest.mark.parametrize("seed", range(30, 50))
    def test_nested_marks_unwind_level_by_level(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        store = ClauseStore(n, random_clauses(rng, n))
        stack = []
        for _ in range(6):
            stack.append((store.mark(), store.snapshot()))
            store.propagate([rng.choice([1, -1]) * rng.randint(1, n)])
        while stack:
            mark, snapshot = stack.pop()
            store.backtrack(mark)
            assert store.snapshot() == snapshot

    def test_conflict_state_is_fully_restorable(self):
        # x1 and the implication chain x1 -> x2 -> -x1 conflict.
        store = ClauseStore(2, [(-1, 2), (-2, -1)])
        snapshot = store.snapshot()
        mark = store.mark()
        assert not store.propagate([1])
        store.backtrack(mark)
        assert store.snapshot() == snapshot
        # the other polarity is fine, and propagation reports it
        assert store.propagate([-1])
        assert store.value[1] == -1


class TestImplicitBinaries:
    """The store assigns what the all-counters store assigns."""

    @pytest.mark.parametrize("seed", range(60))
    def test_same_assignments_and_verdicts_as_counter_store(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 12)
        # Mostly binary clauses, as the lineage encoders emit.
        clauses = []
        for _ in range(rng.randint(0, 30)):
            width = rng.choice((1, 2, 2, 2, 2, 3, 4))
            variables = rng.sample(range(1, n + 1), min(width, n))
            clauses.append(tuple(
                v if rng.random() < 0.5 else -v for v in variables
            ))
        store = ClauseStore(n, clauses)
        oracle = CounterStore(n, clauses)
        stack = []
        for _ in range(25):
            if stack and rng.random() < 0.4:
                mark, oracle_mark, snapshot = stack.pop()
                store.backtrack(mark)
                oracle.backtrack(oracle_mark)
                assert store.snapshot() == snapshot
                continue
            mark, oracle_mark = store.mark(), oracle.mark()
            snapshot = store.snapshot()
            literals = [
                rng.choice([1, -1]) * rng.randint(1, n)
                for _ in range(rng.randint(1, 2))
            ]
            ok = store.propagate(literals)
            assert ok == oracle.propagate(literals)
            if ok:
                assert set(store.trail) == set(oracle.trail)
                assert store.value == oracle.value
                assert_consistent(store)
                stack.append((mark, oracle_mark, snapshot))
            else:
                store.backtrack(mark)
                oracle.backtrack(oracle_mark)
                assert store.snapshot() == snapshot
        while stack:
            mark, oracle_mark, snapshot = stack.pop()
            store.backtrack(mark)
            oracle.backtrack(oracle_mark)
            assert store.snapshot() == snapshot

    def test_clause_kinds(self):
        # A 2-clause over one variable (a repeat or a tautology) stays long.
        store = ClauseStore(3, [(1, 2), (-1, 3), (2, 2), (3, -3), (1, 2, 3), (1,)])
        assert store.binary == [0, 1]
        assert store.long == [2, 3, 4, 5]
        assert store.implied_neg[1] == [2] and store.implied_neg[2] == [1]
        assert store.implied_pos[1] == [3] and store.implied_neg[3] == [-1]
        assert store.occ_pos[1] == [4, 5] and store.occ_neg[1] == []
        assert store.units == [1]

    def test_binary_conflict_surfaces_through_the_queue(self):
        # x1 forces x2 and -x2 through two binary clauses.
        store = ClauseStore(2, [(-1, 2), (-1, -2)])
        assert not store.propagate([1])
        assert store.conflicts == 1
        store.backtrack(0)
        assert store.propagate([-1]) and store.trail == [-1]


class TestPropagation:
    def test_unit_chain_propagates_to_fixpoint(self):
        store = ClauseStore(4, [(1,), (-1, 2), (-2, 3), (-3, 4)])
        assert store.propagate(store.units)
        assert store.trail == [1, 2, 3, 4]
        assert all(
            any(store.value[abs(literal)] * literal > 0 for literal in clause)
            for clause in store.clauses
        )

    def test_contradicting_inputs_conflict(self):
        store = ClauseStore(1, [])
        mark = store.mark()
        assert not store.propagate([1, -1])
        store.backtrack(mark)
        assert store.value[1] == 0

    def test_empty_clause_flagged(self):
        store = ClauseStore(2, [(), (1, 2)])
        assert store.has_empty

