"""Node-at-a-time reference passes for :class:`~repro.compile.circuit.DDNNF`.

The circuit's passes and its sampler run level by level over a compiled
plan, and conditioning pins weights on a shared program.  This module
keeps the straightforward versions they replaced, as oracles: one
interpreter step per node and per literal over the flat program
(:func:`upward`, :func:`downward`), the per-variable weight tables and
lane choice they ran on (:func:`tables`), conditioning as a rewrite of
the program (:func:`rewrite`), whose result is an ordinary, unpinned
circuit, and the sampler that walked the program node by node
(:class:`Sampler`).  :func:`encode` and :func:`decode` translate between
a circuit and the node-tuple view: ``(FALSE,)``, ``(TRUE,)``,
``(PRODUCT, children)`` and ``(DECISION, branches)``, a branch being
``(literals, freed variables, child)``.  The marginals the circuit's
downward pass reads off at once are recounted the way they were before
circuits, one search per ``(null, value)`` pair
(:func:`valuation_marginals_recount`); the benchmark harness's
``amortized`` path times that loop as its baseline.
:func:`program_digest` names a circuit's program independently of any
wire format, for comparing circuits across checkouts.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np

from repro.compile.circuit import (
    _INT64_SAFE,
    DDNNF,
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
    draw_index,
)
from repro.compile.encode import compile_valuation_cnf
from repro.compile.sharpsat import count_models
from repro.complexity.cnf import CNF
from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term

#: Node kinds of the tuple view.
FALSE, TRUE, DECISION, PRODUCT = "F", "T", "D", "P"


def _program(circuit):
    if circuit._pins is not None:
        raise ValueError("cannot walk a pinned circuit as its own program")
    return circuit._program


def program_digest(circuit) -> str:
    """SHA-256 of an unpinned circuit's program: its ``code``, ``root``,
    ``num_variables`` and sorted ``countable`` variables."""
    program = _program(circuit)
    text = repr((
        program.code, program.root, program.num_variables,
        sorted(program.countable),
    ))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def encode(nodes, root, num_variables, countable) -> DDNNF:
    """The circuit of a node-tuple list (children before parents)."""
    code: list[int] = []
    offsets: list[int] = []
    for node in nodes:
        offsets.append(len(code))
        kind = node[0]
        if kind == FALSE:
            code.append(KIND_FALSE)
        elif kind == TRUE:
            code.append(KIND_TRUE)
        elif kind == PRODUCT:
            code.extend((KIND_PRODUCT, len(node[1]), *node[1]))
        elif kind == DECISION:
            code.extend((KIND_DECISION, len(node[1])))
            for literals, free, child in node[1]:
                code.extend((len(literals), *literals, len(free), *free, child))
        else:
            raise ValueError("unknown node kind %r" % (kind,))
    return DDNNF(code, offsets, root, num_variables, countable)


def decode(circuit) -> list[tuple]:
    """The node-tuple list of an unpinned circuit, children first."""
    program = _program(circuit)
    code = program.code
    nodes: list[tuple] = []
    for offset in program.offsets:
        kind = code[offset]
        if kind == KIND_FALSE or kind == KIND_TRUE:
            nodes.append((FALSE if kind == KIND_FALSE else TRUE,))
        elif kind == KIND_PRODUCT:
            length = code[offset + 1]
            nodes.append((PRODUCT, tuple(code[offset + 2:offset + 2 + length])))
        else:
            branches = []
            cursor = offset + 2
            for _ in range(code[offset + 1]):
                nlits = code[cursor]
                literals = tuple(code[cursor + 1:cursor + 1 + nlits])
                cursor += 1 + nlits
                nfree = code[cursor]
                free = tuple(code[cursor + 1:cursor + 1 + nfree])
                cursor += 1 + nfree
                branches.append((literals, free, code[cursor]))
                cursor += 1
            nodes.append((DECISION, tuple(branches)))
    return nodes


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
    return DDNNF(
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


class Sampler:
    """The sampler that walked the flat program: node values from one
    upward pass, then per sample a stack descent that parses each visited
    decision's branches and multiplies their weights literal by literal.
    On a pinned circuit a branch is live unless a literal contradicts a
    pin or a freed variable is pinned both ways (:meth:`_live`); a
    decision with one live branch, and a pinned freed variable, take no
    draw."""

    def __init__(self, circuit: DDNNF, weights=None) -> None:
        self._circuit = circuit
        _lane, tables = circuit._tables(1, circuit._columns([weights]))
        plan = circuit._plan()
        values = plan.upward(tables, plan.branch_weights(tables))
        self._values = values[:circuit.num_nodes, 0].tolist()
        n = circuit.num_variables
        slots = tables.base.tolist()
        positive = slots[:n + 1]
        negative = [1] + slots[n + 1:]
        is_countable = circuit._program.is_countable
        free_sum = [
            positive[v] + negative[v] if is_countable[v] else 1
            for v in range(n + 1)
        ]
        self._weights = (positive, negative, free_sum)
        self._pins = None if circuit._pins is None else circuit._pins.tolist()
        if not self._values[circuit.root]:
            raise ValueError(
                "circuit has no (weighted) models; nothing to sample"
            )

    @property
    def total(self):
        return self._values[self._circuit.root]

    def _live(self, branch: tuple) -> bool:
        code = self._circuit._program.code
        pins = self._pins
        n = self._circuit.num_variables
        literals_start, literals_end, free_start, free_end, _child = branch
        for position in range(literals_start, literals_end):
            literal = code[position]
            if pins[literal if literal > 0 else n - literal]:
                return False
        return not any(
            pins[code[position]] and pins[n + code[position]]
            for position in range(free_start, free_end)
        )

    def sample(self, rng: random.Random) -> dict[int, bool]:
        program = self._circuit._program
        code = program.code
        offsets = program.offsets
        is_countable = program.is_countable
        n = program.num_variables
        pins = self._pins
        positive, negative, free_sum = self._weights
        values = self._values
        assignment: dict[int, bool] = {}
        stack = [program.root]
        while stack:
            offset = offsets[stack.pop()]
            kind = code[offset]
            if kind == KIND_PRODUCT:
                stack.extend(code[offset + 2:offset + 2 + code[offset + 1]])
            elif kind == KIND_DECISION:
                spans = []  # (literals start/end, free start/end, child)
                cursor = offset + 2
                for _ in range(code[offset + 1]):
                    nlits = code[cursor]
                    cursor += 1
                    literals_end = cursor + nlits
                    free_start = literals_end + 1
                    free_end = free_start + code[literals_end]
                    spans.append(
                        (cursor, literals_end, free_start, free_end,
                         code[free_end])
                    )
                    cursor = free_end + 1
                live = (
                    spans if pins is None
                    else [branch for branch in spans if self._live(branch)]
                )
                if len(live) == 1:
                    chosen = live[0]
                else:
                    branch_weights = []
                    for start, end, free_start, free_end, child in spans:
                        term = values[child]
                        if term:
                            for position in range(start, end):
                                literal = code[position]
                                term *= (
                                    positive[literal] if literal > 0
                                    else negative[-literal]
                                )
                            for position in range(free_start, free_end):
                                term *= free_sum[code[position]]
                        branch_weights.append(term)
                    chosen = spans[draw_index(rng, branch_weights)]
                literals_start, literals_end, free_start, free_end, child = chosen
                for position in range(literals_start, literals_end):
                    literal = code[position]
                    variable = literal if literal > 0 else -literal
                    if is_countable[variable]:
                        assignment[variable] = literal > 0
                for position in range(free_start, free_end):
                    variable = code[position]
                    if not is_countable[variable]:
                        continue
                    if pins is not None and (pins[variable] or pins[n + variable]):
                        assignment[variable] = pins[n + variable]
                    else:
                        pair = (positive[variable], negative[variable])
                        assignment[variable] = draw_index(rng, pair) == 0
                stack.append(child)
        return assignment


def valuation_marginals_recount(
    db: IncompleteDatabase, query: BooleanQuery
) -> dict[Null, dict[Term, Fraction]]:
    """Reference marginals by conditioning and re-counting, per value.

    One full model-counting search per ``(null, value)`` pair — the loop
    the circuit passes replace.  Kept as the cross-validation oracle and
    the honest baseline for the amortization benchmark.
    """
    encoding = compile_valuation_cnf(db, query)
    total = encoding.total_valuations
    satisfying = total - count_models(encoding.cnf)
    if not satisfying:
        raise ValueError(
            "no valuation satisfies the query; marginals are undefined"
        )
    result: dict[Null, dict[Term, Fraction]] = {}
    for null in db.nulls:
        domain = sorted(db.domain_of(null), key=repr)
        pinned_total = total // len(domain)
        for value in domain:
            variable = encoding.choices.var(null, value)
            pinned = CNF(
                encoding.cnf.num_variables,
                list(encoding.cnf.clauses) + [(variable,)],
            )
            satisfying_pinned = pinned_total - count_models(pinned)
            result.setdefault(null, {})[value] = Fraction(
                satisfying_pinned, satisfying
            )
    return result


__all__ = [
    "DECISION",
    "FALSE",
    "PRODUCT",
    "Sampler",
    "TRUE",
    "decode",
    "downward",
    "encode",
    "evaluate_many",
    "literal_counts_many",
    "magnitude_bound",
    "rewrite",
    "tables",
    "upward",
    "valuation_marginals_recount",
]
