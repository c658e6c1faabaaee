"""The DP's ``(2,)*w`` tables against the flat-index tables they replaced.

``_flat_solve`` is ``compile/dpdb.py``'s ``_solve`` as it stood before its
tables became one axis per bag variable: each table is a flat vector over
the ``2^w`` bag assignments (bit ``b`` of a cell's index is the ``b``-th
lowest bag variable), a child message joins through a selector gathered
bit by bit, and a clause zeroes the cells a mask test flags.  The tensor
DP must return the same ``(path, root factors, rows)`` on every tree the
DP reads off an elimination: full and projected random CNFs, long chains
whose messages pass ``2^62`` (so both lanes, int64 and mixed, run), and
the probe eliminations of the perfbench ``solve_hard`` families.
"""

import random
from typing import Any, Iterator

import numpy as np
import pytest

from repro.compile import dpdb
from repro.compile.circuit import _INT64_SAFE
from repro.compile.ordering import primal_masks, refined_elimination_masks
from repro.complexity.cnf import CNF
from repro.core.query import Atom, BCQ
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_block_comp_instance,
    scaling_grid_val_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
    scaling_long_cycle_val_instance,
)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _zero_of(dtype: Any) -> Any:
    return 0 if dtype is object else dtype(0)


def _flat_indicator(message: Any, dtype: Any) -> Any:
    if dtype is object:
        clamped = np.zeros(message.shape, dtype=object)
        clamped[message > 0] = 1
        return clamped
    return (message > 0).astype(dtype)


def _flat_solve(order, bags, parent, homes, clamps):
    """The flat-index DP pass: ``(path, root_factors, cells_processed)``."""
    children: list[list[int]] = [[] for _ in order]
    for node, up in enumerate(parent):
        if up >= 0:
            children[up].append(node)
    messages: list[Any] = [None] * len(order)
    peaks = [0] * len(order)
    factors: list[Any] = []
    rows = 0
    exact_nodes = 0

    for node, eliminated in enumerate(order):
        bound = 2
        for child in children[node]:
            bound *= max(peaks[child], 1)
        dtype: Any = np.int64 if bound < _INT64_SAFE else object
        if dtype is object:
            exact_nodes += 1

        bag_vars = list(_bits(bags[node]))
        width = len(bag_vars)
        at = {variable: bit for bit, variable in enumerate(bag_vars)}
        size = 1 << width
        table = np.ones(size, dtype=dtype)
        index = None

        for child in children[node]:
            message = messages[child]
            messages[child] = None
            if message.dtype != dtype:
                message = message.astype(dtype)
            if index is None:
                index = np.arange(size, dtype=np.int64)
            selector = np.zeros(size, dtype=np.int64)
            separator = bags[child] & ~(1 << order[child])
            for bit, variable in enumerate(_bits(separator)):
                selector |= ((index >> at[variable]) & 1) << bit
            table = table * message[selector]
            rows += size

        for clause in homes[node]:
            pos_mask = 0
            neg_mask = 0
            for literal in clause:
                if literal > 0:
                    pos_mask |= 1 << at[literal]
                else:
                    neg_mask |= 1 << at[-literal]
            if index is None:
                index = np.arange(size, dtype=np.int64)
            violated = ((index & pos_mask) == 0) & (
                (index & neg_mask) == neg_mask
            )
            table = np.where(violated, _zero_of(dtype), table)
            rows += size

        bit = at[eliminated]
        split = table.reshape(1 << (width - 1 - bit), 2, 1 << bit)
        message = (split[:, 0, :] + split[:, 1, :]).reshape(-1)
        if clamps[node]:
            message = _flat_indicator(message, dtype)
        if parent[node] < 0:
            factors.append(message[0] if dtype is object else int(message[0]))
        else:
            messages[node] = message
            peaks[node] = int(abs(message).max())

    if not exact_nodes:
        return "int64", factors, rows
    if exact_nodes == len(order):
        return "object", factors, rows
    return "mixed", factors, rows


def _both(cnf, projection=None, order=None, bags=None):
    """Run both DPs on the tree the DP reads off ``cnf``'s elimination
    (its own, or the one handed in); assert they agree; return the
    tensor DP's path."""
    delay = sum(1 << variable for variable in projection or ())
    if order is None:
        order, _width, bags = refined_elimination_masks(
            primal_masks(cnf), delay=delay
        )
    parent, homes = dpdb._tree(cnf, order, bags)
    clamps = (
        [False] * len(order)
        if projection is None
        else dpdb._clamps(order, parent, delay)
    )
    got = dpdb._solve(order, bags, parent, homes, clamps)
    expected = _flat_solve(order, bags, parent, homes, clamps)
    assert got == expected
    return got[0]


def _random_cnf(rng, max_variables=10, max_clauses=16):
    num_variables = rng.randint(1, max_variables)
    cnf = CNF(num_variables)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(4, num_variables))
        chosen = rng.sample(range(1, num_variables + 1), width)
        cnf.add_clause(
            variable if rng.random() < 0.5 else -variable
            for variable in chosen
        )
    return cnf


def _with_chain(rng, cnf, length):
    """``cnf`` plus a chain of ``length`` fresh variables (``a ∨ b`` per
    consecutive pair, a random literal of ``cnf`` tying on its first), so
    messages up the chain grow like Fibonacci numbers."""
    base = cnf.num_variables
    chained = CNF(base + length, list(cnf.clauses))
    anchor = rng.randint(1, base)
    chained.add_clause((anchor if rng.random() < 0.5 else -anchor, base + 1))
    for variable in range(base + 1, base + length):
        chained.add_clause((variable, variable + 1))
    return chained


class TestRandomCnfs:
    def test_full_and_projected(self):
        rng = random.Random(20261018)
        for _ in range(200):
            cnf = _random_cnf(rng)
            _both(cnf)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(0, cnf.num_variables),
            )
            _both(cnf, projection)

    @pytest.mark.parametrize("kind", ["full", "projected", "unsatisfiable"])
    def test_both_lanes_occur(self, kind):
        # A chain of 100 carries messages past 2^62, so the nodes above
        # its 90th or so run exact while the rest of the forest stays
        # int64; a short one keeps every node int64.
        rng = random.Random("lanes-" + kind)
        paths = set()
        for round_index in range(40):
            cnf = _random_cnf(rng, max_variables=9, max_clauses=12)
            if kind == "unsatisfiable":
                # Clauses that no value of the anchor satisfies, so the
                # chain's huge message joins an all-zero one.
                anchor = rng.randint(1, cnf.num_variables)
                cnf.add_clause((anchor,))
                cnf.add_clause((-anchor,))
            cnf = _with_chain(rng, cnf, 100 if round_index % 2 else 20)
            projection = None
            if kind == "projected":
                projection = rng.sample(
                    range(1, cnf.num_variables + 1),
                    rng.randint(0, cnf.num_variables),
                )
            paths.add(_both(cnf, projection))
        assert paths == {"int64", "mixed"}


RANDOM_COMP_QUERY = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])


def _hard_families():
    """One instance per perfbench ``solve_hard`` family and size band."""
    for size in (14, 18, 22):
        yield "val", scaling_hard_val_instance(
            size, chord_probability=0.1, seed=size
        )
    for columns in (6, 10, 14):
        yield "val", scaling_grid_val_instance(3, columns, num_colors=3)
    for length in (30, 70):
        yield "val", scaling_long_cycle_val_instance(length, 1, num_colors=3)
    for size in (6, 11):
        db, query = scaling_hard_comp_instance(size, seed=size)
        yield "comp", (db, query)
        yield "comp", (db, None)
    for size in (3, 8):
        yield "comp", scaling_block_comp_instance(size, seed=size)
    for seed in (1, 2, 3):
        db = random_incomplete_db(
            {"R": 2, "S": 1}, seed=seed, num_nulls=3, domain_size=3
        )
        yield "comp", (db, RANDOM_COMP_QUERY)
        yield "comp", (db, None)


class TestHardFamilies:
    def test_probe_eliminations_match(self):
        dpdb.probe_cache_clear()
        checked = 0
        for kind, (db, query) in _hard_families():
            probe = dpdb.dpdb_probe(kind, db, query)
            if not probe.ok or probe.width > dpdb.DPDB_HARD_WIDTH_CAP:
                continue
            encoding = probe.encoding
            projection = encoding.projection if kind == "comp" else None
            _both(encoding.cnf, projection, probe.order, probe.bags)
            checked += 1
        dpdb.probe_cache_clear()
        assert checked >= 15
