"""Node-at-a-time reference passes for :class:`~repro.compile.circuit.DDNNF`.

The circuit's passes run level by level over a compiled plan, and
conditioning pins weights on a shared program.  This module keeps the
straightforward versions they replaced, as oracles: one interpreter step
per node and per literal over the flat program (:func:`upward`,
:func:`downward`), the per-variable weight tables and lane choice they
ran on (:func:`tables`), and conditioning as a rewrite of the program
(:func:`rewrite`), whose result is an ordinary, unpinned circuit.
"""

from __future__ import annotations

import numpy as np

from repro.compile.circuit import (
    _INT64_SAFE,
    DDNNF,
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
)


def _program(circuit):
    return circuit._own_program("walk")


def rewrite(circuit, assignments):
    """``circuit`` conditioned by rewriting its program: a branch whose
    literal contradicts a pin is dropped, a pinned freed variable moves
    into the branch's literals, and a decision losing every branch
    becomes the false constant.  Node ids are kept."""
    program = _program(circuit)
    if not assignments:
        return circuit
    polarity = bytearray(program.num_variables + 1)  # 0 / +1 / 2 (= -1)
    for variable, value in assignments.items():
        if not 1 <= variable <= program.num_variables:
            raise ValueError("cannot condition on unknown variable %d" % variable)
        if not program.is_countable[variable]:
            raise ValueError("cannot condition on non-countable variable %d" % variable)
        polarity[variable] = 1 if value else 2
    code = program.code
    new_code: list[int] = []
    new_offsets: list[int] = []
    for offset in program.offsets:
        new_offsets.append(len(new_code))
        kind = code[offset]
        if kind == KIND_FALSE or kind == KIND_TRUE:
            new_code.append(kind)
            continue
        if kind == KIND_PRODUCT:
            new_code.extend(code[offset:offset + 2 + code[offset + 1]])
            continue
        branches = []
        cursor = offset + 2
        for _ in range(code[offset + 1]):
            nlits = code[cursor]
            literals = code[cursor + 1:cursor + 1 + nlits]
            cursor += 1 + nlits
            nfree = code[cursor]
            freed = code[cursor + 1:cursor + 1 + nfree]
            cursor += 1 + nfree
            child = code[cursor]
            cursor += 1
            if any(
                polarity[abs(literal)]
                and (polarity[abs(literal)] == 1) != (literal > 0)
                for literal in literals
            ):
                continue
            forced = list(literals)
            kept = []
            for variable in freed:
                pin = polarity[variable]
                if pin:
                    forced.append(variable if pin == 1 else -variable)
                else:
                    kept.append(variable)
            branches.append((forced, kept, child))
        if not branches:
            new_code.append(KIND_FALSE)
            continue
        new_code.extend((KIND_DECISION, len(branches)))
        for forced, kept, child in branches:
            new_code.append(len(forced))
            new_code.extend(forced)
            new_code.append(len(kept))
            new_code.extend(kept)
            new_code.append(child)
    return DDNNF.from_program(
        new_code, new_offsets, program.root, program.num_variables,
        program.countable,
    )


def upward(circuit, positive, negative, free_sum, false, true) -> list:
    """Value of every node, children first, one step per literal."""
    program = _program(circuit)
    code = program.code
    leaves = (false, true)
    zero = false * 0
    values: list = [None] * len(program.offsets)
    for index, offset in enumerate(program.offsets):
        kind = code[offset]
        if kind == KIND_PRODUCT:
            start = offset + 2
            end = start + code[offset + 1]
            value = values[code[start]] if end > start else true
            for cursor in range(start + 1, end):
                value = value * values[code[cursor]]
        elif kind == KIND_DECISION:
            value = zero
            cursor = offset + 2
            for _ in range(code[offset + 1]):
                nlits = code[cursor]
                cursor += 1
                literals_end = cursor + nlits
                free_end = literals_end + 1 + code[literals_end]
                term = values[code[free_end]]
                for position in range(cursor, literals_end):
                    literal = code[position]
                    term = term * (
                        positive[literal] if literal > 0 else negative[-literal]
                    )
                for position in range(literals_end + 1, free_end):
                    term = term * free_sum[code[position]]
                value = value + term
                cursor = free_end + 1
        else:
            value = leaves[kind]
        values[index] = value
    return values


def downward(circuit, positive, negative, free_sum, values, zero, one):
    """``(count_positive, count_negative)`` per variable, parents first."""
    program = _program(circuit)
    code = program.code
    offsets = program.offsets
    is_countable = program.is_countable
    derivative: list = [zero] * len(offsets)
    derivative[program.root] = one
    size = program.num_variables + 1
    count_positive: list = [zero] * size
    count_negative: list = [zero] * size
    for index in range(len(offsets) - 1, -1, -1):
        outer = derivative[index]
        offset = offsets[index]
        kind = code[offset]
        if kind == KIND_PRODUCT:
            length = code[offset + 1]
            start = offset + 2
            suffixes: list = [1] * (length + 1)
            for position in range(length - 1, -1, -1):
                suffixes[position] = suffixes[position + 1] * values[code[start + position]]
            prefix = 1
            for position in range(length):
                child = code[start + position]
                derivative[child] = derivative[child] + outer * prefix * suffixes[position + 1]
                prefix = prefix * values[child]
        elif kind == KIND_DECISION:
            cursor = offset + 2
            for _ in range(code[offset + 1]):
                nlits = code[cursor]
                cursor += 1
                literals_start, literals_end = cursor, cursor + nlits
                free_start = literals_end + 1
                free_end = free_start + code[literals_end]
                child = code[free_end]
                cursor = free_end + 1
                literal_weight = 1
                for position in range(literals_start, literals_end):
                    literal = code[position]
                    literal_weight = literal_weight * (
                        positive[literal] if literal > 0 else negative[-literal]
                    )
                free_factor = 1
                for position in range(free_start, free_end):
                    free_factor = free_factor * free_sum[code[position]]
                down = outer * literal_weight * free_factor
                derivative[child] = derivative[child] + down
                contribution = down * values[child]
                for position in range(literals_start, literals_end):
                    literal = code[position]
                    if literal > 0 and is_countable[literal]:
                        count_positive[literal] = count_positive[literal] + contribution
                    elif literal < 0 and is_countable[-literal]:
                        count_negative[-literal] = count_negative[-literal] + contribution
                nfree = free_end - free_start
                base = outer * literal_weight * values[child]
                suffixes = [1] * (nfree + 1)
                for position in range(nfree - 1, -1, -1):
                    suffixes[position] = suffixes[position + 1] * free_sum[
                        code[free_start + position]
                    ]
                prefix = 1
                for position in range(nfree):
                    variable = code[free_start + position]
                    if is_countable[variable]:
                        others = base * prefix * suffixes[position + 1]
                        count_positive[variable] = (
                            count_positive[variable] + others * positive[variable]
                        )
                        count_negative[variable] = (
                            count_negative[variable] + others * negative[variable]
                        )
                    prefix = prefix * free_sum[variable]
    return count_positive, count_negative


def tables(circuit, rows):
    """``(lane, (positive, negative, free_sum), (zero, one))`` of ``rows``:
    Python scalars for one row, else per-variable numpy columns, int64
    when the clamped-magnitude upward pass fits, object otherwise."""
    program = _program(circuit)
    size = program.num_variables + 1
    default_free = [2 if flag else 1 for flag in program.is_countable]
    per_row = []
    all_int = True
    for row in rows:
        positive, negative, free_sum = [1] * size, [1] * size, list(default_free)
        for variable, (w_pos, w_neg) in (row or {}).items():
            positive[variable], negative[variable] = w_pos, w_neg
            free_sum[variable] = w_pos + w_neg
            all_int = all_int and isinstance(w_pos, int) and isinstance(w_neg, int)
        per_row.append((positive, negative, free_sum))
    if len(per_row) == 1:
        return "scalar", per_row[0], (0, 1)
    columns = [list(zip(*table)) for table in zip(*per_row)]
    lane = "object"
    if all_int and magnitude_bound(circuit, columns[0], columns[1]) < _INT64_SAFE:
        lane = "int64"
    dtype = np.int64 if lane == "int64" else object
    zero = np.zeros(len(per_row), dtype=dtype)
    arrays = tuple(np.array(column, dtype=dtype) for column in columns)
    return lane, arrays, (zero, zero + 1)


def magnitude_bound(circuit, positive, negative) -> int:
    """The clamped-magnitude upward pass, leaves 1, free factors summed."""
    bound_pos = [max(1, max(map(abs, column))) for column in positive]
    bound_neg = [max(1, max(map(abs, column))) for column in negative]
    bound_free = [p + q for p, q in zip(bound_pos, bound_neg)]
    values = upward(circuit, bound_pos, bound_neg, bound_free, 1, 1)
    return max(max(values), max(bound_free))


def _rows(lane, value):
    return [value] if lane == "scalar" else value.tolist()


def evaluate_many(circuit, rows):
    """``(lane, [weighted count per row])``."""
    lane, weights, leaves = tables(circuit, rows)
    root = _program(circuit).root
    return lane, _rows(lane, upward(circuit, *weights, *leaves)[root])


def literal_counts_many(circuit, rows):
    """``(lane, [literal -> weighted count, per row])``."""
    lane, weights, leaves = tables(circuit, rows)
    values = upward(circuit, *weights, *leaves)
    positive, negative = downward(circuit, *weights, values, *leaves)
    counts = [{} for _ in rows]
    for variable in circuit.countable:
        for row, pos, neg in zip(
            counts, _rows(lane, positive[variable]), _rows(lane, negative[variable])
        ):
            row[variable] = pos
            row[-variable] = neg
    return lane, counts


__all__ = [
    "downward",
    "evaluate_many",
    "literal_counts_many",
    "magnitude_bound",
    "rewrite",
    "tables",
    "upward",
]
