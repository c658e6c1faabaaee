"""The DP's ``(2,)*w`` tables against the flat-index tables they replaced.

``_flat_solve`` is ``compile/dpdb.py``'s ``_solve`` as it stood before its
tables became one axis per bag variable: each table is a flat vector over
the ``2^w`` bag assignments (bit ``b`` of a cell's index is the ``b``-th
lowest bag variable), a child message joins through a selector gathered
bit by bit, and a clause zeroes the cells a mask test flags.  The tensor
DP must return the same ``(path, root factors, rows)`` on every
decomposition: full and projected random CNFs, weights that drive every
lane mix, and the decompositions of the perfbench ``solve_hard``
families.
"""

import random
from fractions import Fraction
from typing import Any, Iterator

import numpy as np
import pytest

from repro.compile import dpdb
from repro.compile.circuit import _INT64_SAFE
from repro.compile.decompose import decompose, decompose_from_elimination
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


def _flat_solve(decomposition, positive, negative, all_int, projected):
    """The flat-index DP pass: ``(path, root_factors, cells_processed)``."""
    messages: list[Any] = [None] * len(decomposition)
    peaks = [0] * len(decomposition)
    factors: list[Any] = []
    rows = 0
    exact_nodes = 0

    for node in range(len(decomposition)):
        eliminated = decomposition.order[node]
        w_pos, w_neg = positive[eliminated], negative[eliminated]
        bound = max(abs(w_pos) + abs(w_neg), 1)
        for child in decomposition.children[node]:
            bound *= max(peaks[child], 1)
        dtype: Any = np.int64 if all_int and bound < _INT64_SAFE else object
        if dtype is object:
            exact_nodes += 1

        bag_vars = list(_bits(decomposition.bags[node]))
        width = len(bag_vars)
        at = {variable: bit for bit, variable in enumerate(bag_vars)}
        size = 1 << width
        table = np.ones(size, dtype=dtype)
        index = None

        for child in decomposition.children[node]:
            message = messages[child]
            messages[child] = None
            if message.dtype != dtype:
                message = message.astype(dtype)
            if index is None:
                index = np.arange(size, dtype=np.int64)
            selector = np.zeros(size, dtype=np.int64)
            for bit, variable in enumerate(
                _bits(decomposition.separator(child))
            ):
                selector |= ((index >> at[variable]) & 1) << bit
            table = table * message[selector]
            rows += size

        for clause in decomposition.node_clauses[node]:
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
        message = (w_neg * split[:, 0, :] + w_pos * split[:, 1, :]).reshape(-1)
        if dpdb._clamp_message(decomposition, node, projected):
            message = _flat_indicator(message, dtype)
        if decomposition.parent[node] < 0:
            factors.append(message[0] if dtype is object else int(message[0]))
        else:
            messages[node] = message
            peaks[node] = int(abs(message).max())

    if not exact_nodes:
        return "int64", factors, rows
    if exact_nodes == len(decomposition):
        return "object", factors, rows
    return "mixed", factors, rows


def _both(decomposition, num_variables, weights=None, projected=False):
    """Run both DPs on one decomposition; assert they agree; return the
    tensor DP's path."""
    columns = dpdb._weight_columns(num_variables, weights)
    got = dpdb._solve(decomposition, *columns, projected)
    expected = _flat_solve(decomposition, *columns, projected)
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


class TestRandomCnfs:
    def test_full_and_projected(self):
        rng = random.Random(20261018)
        for _ in range(200):
            cnf = _random_cnf(rng)
            _both(decompose(cnf), cnf.num_variables)
            projection = rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(0, cnf.num_variables),
            )
            _both(
                decompose(cnf, projection=projection),
                cnf.num_variables,
                projected=True,
            )

    @pytest.mark.parametrize(
        "kind", ["unit", "small", "zero", "negative", "near-2^62", "fraction"]
    )
    def test_weighted(self, kind):
        rng = random.Random("weights-" + kind)
        paths = set()
        for _ in range(60):
            cnf = _random_cnf(rng, max_variables=9, max_clauses=12)
            weights = {
                variable: _weight(rng, kind)
                for variable in range(1, cnf.num_variables + 1)
                if rng.random() < 0.8
            }
            paths.add(_both(decompose(cnf), cnf.num_variables, weights))
        if kind == "fraction":
            assert "object" in paths
        if kind == "near-2^62":
            assert {"mixed", "object"} <= paths

    def test_every_lane_mix_occurs(self):
        # One big-weighted variable sends the nodes at and above it exact
        # while the rest of the forest stays int64; one Fraction sends
        # every node exact.
        rng = random.Random(7)
        paths = set()
        for round_index in range(120):
            cnf = _random_cnf(rng, max_variables=9, max_clauses=12)
            variable = rng.randint(1, cnf.num_variables)
            weights = [
                {},
                {variable: ((1 << 61) + rng.randint(0, 9), rng.randint(-3, 3))},
                {variable: (Fraction(1, 3), 2)},
            ][round_index % 3]
            paths.add(_both(decompose(cnf), cnf.num_variables, weights))
        assert paths == {"int64", "mixed", "object"}


def _weight(rng, kind):
    if kind == "unit":
        return (1, 1)
    if kind == "small":
        return (rng.randint(0, 4), rng.randint(0, 4))
    if kind == "zero":
        return rng.choice([(0, 0), (0, 1), (1, 0)])
    if kind == "negative":
        return (rng.randint(-5, 5), rng.randint(-5, -1))
    if kind == "near-2^62":
        near = (1 << 62) - rng.randint(1, 1 << 20)
        return (rng.choice([near, -near, 1]), rng.choice([near, 0, 1]))
    return (
        Fraction(rng.randint(-3, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-2, 4), rng.randint(1, 3)),
    )


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
    def test_probe_decompositions_match(self):
        dpdb.probe_cache_clear()
        rng = random.Random(3)
        checked = 0
        for kind, (db, query) in _hard_families():
            probe = dpdb.dpdb_probe(kind, db, query)
            if not probe.ok or probe.width > dpdb.DPDB_HARD_WIDTH_CAP:
                continue
            cnf = probe.encoding.cnf
            decomposition = decompose_from_elimination(
                cnf,
                probe.order,
                probe.width,
                probe.bags,
                projection_mask=probe.projection_mask,
            )
            projected = kind == "comp"
            _both(decomposition, cnf.num_variables, projected=projected)
            if not projected:
                weights = {
                    variable: (rng.randint(-3, 3), rng.randint(0, 4))
                    for variable in range(1, cnf.num_variables + 1)
                }
                _both(decomposition, cnf.num_variables, weights)
            checked += 1
        dpdb.probe_cache_clear()
        assert checked >= 15
