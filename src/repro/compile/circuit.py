"""d-DNNF arithmetic circuits: compile once, count forever.

A :class:`DDNNF` is the trace of one exact model-counting search
(:mod:`repro.compile.sharpsat`), recorded as a rooted DAG in
**deterministic, decomposable negation normal form**:

* **decision nodes** are deterministic disjunctions: each branch fixes a
  set of literals (the decision plus everything unit propagation forced),
  lists the variables the branch *freed* (eliminated without assigning —
  both values extend), and points at a sub-circuit.  Branches of one node
  assign the decision variable opposite values, so no assignment is
  counted twice;
* **product nodes** are decomposable conjunctions: the children are the
  variable-disjoint components the residual formula split into;
* **cache hits** of the search become shared sub-circuits — the circuit
  is a DAG whose size is the number of *distinct* components explored,
  not the size of the search tree.

Recording free variables on branches keeps the circuit *smooth* along
every path (each variable in a node's scope is decided, propagated, or
freed exactly once before the leaves), which is what makes the linear
passes below correct:

====================== ==================================================
:meth:`DDNNF.count`     exact model count — reproduces the search's
                        arithmetic operation for operation, so it equals
                        :class:`~repro.compile.sharpsat.ModelCounter`
                        bit for bit (projected counting included)
:meth:`~DDNNF.evaluate` weighted model count for arbitrary per-literal
                        weights (ints, :class:`~fractions.Fraction`,
                        floats) — one upward pass
:meth:`~DDNNF.literal_counts` the (weighted) count of models containing
                        each literal, for *all* literals at once — one
                        upward plus one downward pass, replacing the
                        condition-and-recount loop
:meth:`~DDNNF.sampler`  exact model sampling by top-down descent —
                        each sample costs one root-to-leaves walk, no
                        rejection
====================== ==================================================

**Representation.**  The circuit is stored as one flat, topologically
ordered **array of ints** (:attr:`DDNNF._code`) plus a per-node offset
table: each node is ``[kind, …]`` with kind codes ``0``/``1`` for the
false/true constants, ``2`` for decisions (branch count, then per branch
``nlits, lits…, nfree, freed…, child``) and ``3`` for products
(child count, children…).  Children precede parents by construction, so
every pass is a single non-recursive sweep over the array with direct
list indexing — no per-node tuples to unpack, no dict probes for weights
(weights resolve to flat per-variable arrays first), and no recursion
limit to hit.  :class:`~repro.compile.ddnnf_trace.TraceBuilder` emits
this layout directly while the search runs, and the binary codec
(:mod:`repro.compile.serialize`) parses straight into it, so rehydrated
artifacts never materialize an intermediate node-tuple forest.

**Lanes.**  Every pass is one of two walkers over that program:
:meth:`DDNNF._upward` computes node values children-first and
:meth:`DDNNF._downward` derivatives and literal counts parents-first.
Both touch node values only through ``*`` and ``+``, so one body runs on
whatever the weight tables hold, and the row count picks the *lane*: one
weight row runs on Python scalars (``scalar``); N > 1 rows run on
length-N numpy columns, ``int64`` when a magnitude bound proves no
intermediate can overflow and exact ``object`` columns otherwise.  All
arithmetic is exact for int/Fraction weights.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as _np

from repro.obs import span as _span

#: Largest clamped-magnitude bound for which int64 columns cannot overflow.
_INT64_SAFE = 1 << 62

#: One decision branch: (forced literals, freed variables, child node id).
Branch = tuple[tuple[int, ...], tuple[int, ...], int]

#: Symbolic node kinds (first element of a node *tuple* view).
FALSE, TRUE, DECISION, PRODUCT = "F", "T", "D", "P"

#: Flat-array kind codes (first int of a node's code segment).
KIND_FALSE, KIND_TRUE, KIND_DECISION, KIND_PRODUCT = 0, 1, 2, 3

_KIND_NAMES = {
    KIND_FALSE: FALSE,
    KIND_TRUE: TRUE,
    KIND_DECISION: DECISION,
    KIND_PRODUCT: PRODUCT,
}

#: ``variable -> (weight of v true, weight of v false)``.
WeightMap = Mapping[int, tuple]


class DDNNF:
    """A smooth deterministic d-DNNF circuit over CNF variables.

    ``nodes`` is a node-tuple array in topological order (children before
    parents) — it is compiled into the flat int program on construction;
    :meth:`from_program` builds a circuit from an already-flat program
    (the trace builder and the binary codec both do).  ``root`` is the
    root node id; ``countable`` the variables the counting passes see
    (the projection set, or all variables).
    """

    __slots__ = (
        "_code", "_offsets", "_root", "_num_variables",
        "_countable", "_is_countable", "_count", "_memory",
    )

    def __init__(
        self,
        nodes: Sequence[tuple],
        root: int,
        num_variables: int,
        countable: Iterable[int],
    ) -> None:
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
                children = node[1]
                code.append(KIND_PRODUCT)
                code.append(len(children))
                code.extend(children)
            elif kind == DECISION:
                branches = node[1]
                code.append(KIND_DECISION)
                code.append(len(branches))
                for literals, free, child in branches:
                    code.append(len(literals))
                    code.extend(literals)
                    code.append(len(free))
                    code.extend(free)
                    code.append(child)
            else:
                raise ValueError("unknown node kind %r" % (kind,))
        self._init_program(code, offsets, root, num_variables, countable)

    @classmethod
    def from_program(
        cls,
        code: Sequence[int],
        offsets: Sequence[int],
        root: int,
        num_variables: int,
        countable: Iterable[int],
    ) -> "DDNNF":
        """Wrap an already-flat node program (no per-node tuples built)."""
        circuit = cls.__new__(cls)
        circuit._init_program(
            list(code), list(offsets), root, num_variables, countable
        )
        return circuit

    def _init_program(
        self,
        code: list[int],
        offsets: list[int],
        root: int,
        num_variables: int,
        countable: Iterable[int],
    ) -> None:
        self._code = code
        self._offsets = offsets
        if not 0 <= root < len(offsets):
            raise ValueError("root %d outside the node array" % root)
        self._root = root
        self._num_variables = num_variables
        self._countable = frozenset(countable)
        flags = bytearray(num_variables + 1)
        for variable in self._countable:
            flags[variable] = 1
        self._is_countable = flags
        self._count: int | None = None
        self._memory: int | None = None

    # -- inspection --------------------------------------------------------

    @property
    def root(self) -> int:
        return self._root

    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def countable(self) -> frozenset[int]:
        """Variables the counting passes range over (projection or all)."""
        return self._countable

    @property
    def num_nodes(self) -> int:
        return len(self._offsets)

    @property
    def num_edges(self) -> int:
        code = self._code
        edges = 0
        for offset in self._offsets:
            kind = code[offset]
            if kind >= KIND_DECISION:  # decision or product
                edges += code[offset + 1]
        return edges

    def nodes(self) -> Iterator[tuple]:
        """The node array as the classic tuple view, children-first.

        Materialized on demand (tests, debugging); the passes never use
        it — they walk the flat program directly.
        """
        code = self._code
        for offset in self._offsets:
            kind = code[offset]
            if kind == KIND_FALSE or kind == KIND_TRUE:
                yield (_KIND_NAMES[kind],)
            elif kind == KIND_PRODUCT:
                length = code[offset + 1]
                yield (
                    PRODUCT,
                    tuple(code[offset + 2:offset + 2 + length]),
                )
            else:
                branches = []
                cursor = offset + 2
                for _ in range(code[offset + 1]):
                    nlits = code[cursor]
                    cursor += 1
                    literals = tuple(code[cursor:cursor + nlits])
                    cursor += nlits
                    nfree = code[cursor]
                    cursor += 1
                    free = tuple(code[cursor:cursor + nfree])
                    cursor += nfree
                    branches.append((literals, free, code[cursor]))
                    cursor += 1
                yield (DECISION, tuple(branches))

    def memory_bytes(self) -> int:
        """Deterministic estimate of the circuit's resident size.

        Used by the engine cache for its memory bound; counts nodes,
        branch records and literal/free slots at CPython container rates
        rather than chasing ``sys.getsizeof`` through the DAG.  (The
        figures intentionally match the historical tuple representation,
        so cache bounds calibrated against it keep their meaning.)
        """
        if self._memory is None:
            code = self._code
            total = 64 * len(self._offsets)
            for offset in self._offsets:
                kind = code[offset]
                if kind == KIND_PRODUCT:
                    total += 8 * code[offset + 1]
                elif kind == KIND_DECISION:
                    cursor = offset + 2
                    for _ in range(code[offset + 1]):
                        nlits = code[cursor]
                        cursor += 1 + nlits
                        nfree = code[cursor]
                        cursor += 1 + nfree + 1
                        total += 64 + 8 * (nlits + nfree)
            self._memory = total
        return self._memory

    def __repr__(self) -> str:
        return "DDNNF(%d nodes, %d edges, %d countable vars)" % (
            self.num_nodes, self.num_edges, len(self._countable),
        )

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The circuit as a compact, versioned, checksummed binary payload.

        The node table is written in its native topological order, so
        ``from_bytes`` rehydrates an identical circuit in any process —
        see :mod:`repro.compile.serialize` for the format.
        """
        from repro.compile.serialize import dumps_circuit

        return dumps_circuit(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DDNNF":
        """Rehydrate a circuit serialized by :meth:`to_bytes`.

        Raises :class:`~repro.compile.serialize.CircuitFormatError` on a
        version mismatch, checksum failure, or malformed node table.
        """
        from repro.compile.serialize import loads_circuit

        return loads_circuit(data)

    # -- conditioning ------------------------------------------------------

    def condition(self, assignments: Mapping[int, bool]) -> "DDNNF":
        """Pin variables to fixed values: one linear rewrite, no research.

        ``assignments`` maps variables to polarities.  The result is a
        smooth d-DNNF over the *same* variable universe whose models are
        exactly this circuit's models consistent with the pins, with each
        pinned variable appearing as a forced literal on every surviving
        path — so every downstream pass (count, weighted evaluate,
        literal counts, sampling) stays a plain linear sweep and agrees
        bit for bit with recompiling the restricted formula.

        Per decision branch: a kept literal contradicting a pin drops the
        branch; a pinned variable listed as *freed* moves into the branch
        literals with the pinned polarity (preserving smoothness).  A
        decision node losing every branch becomes the false constant.
        Product nodes and node ids are untouched, so shared sub-DAGs stay
        shared.

        Only countable variables may be pinned: non-countable (projected
        or auxiliary) variables are summed out by the compiler and may no
        longer appear explicitly on every path, so pinning them here
        would silently under-restrict.  ``ValueError`` otherwise.
        """
        if not assignments:
            return self
        polarity = bytearray(self._num_variables + 1)  # 0 / +1 / 2 (= -1)
        for variable, value in assignments.items():
            if not 1 <= variable <= self._num_variables:
                raise ValueError(
                    "cannot condition on unknown variable %d" % variable
                )
            if not self._is_countable[variable]:
                raise ValueError(
                    "cannot condition on non-countable variable %d "
                    "(projected/auxiliary variables are summed out)"
                    % variable
                )
            polarity[variable] = 1 if value else 2
        code = self._code
        new_code: list[int] = []
        new_offsets: list[int] = []
        with _span("circuit.condition", pinned=len(assignments),
                   nodes=self.num_nodes):
            for offset in self._offsets:
                new_offsets.append(len(new_code))
                kind = code[offset]
                if kind == KIND_FALSE or kind == KIND_TRUE:
                    new_code.append(kind)
                    continue
                if kind == KIND_PRODUCT:
                    length = 2 + code[offset + 1]
                    new_code.extend(code[offset:offset + length])
                    continue
                branches: list[tuple[list[int], list[int], int]] = []
                cursor = offset + 2
                for _ in range(code[offset + 1]):
                    nlits = code[cursor]
                    cursor += 1
                    literals_end = cursor + nlits
                    literals = code[cursor:literals_end]
                    nfree = code[literals_end]
                    free_end = literals_end + 1 + nfree
                    freed = code[literals_end + 1:free_end]
                    child = code[free_end]
                    cursor = free_end + 1
                    alive = True
                    for literal in literals:
                        pin = polarity[abs(literal)]
                        if pin and (pin == 1) != (literal > 0):
                            alive = False
                            break
                    if not alive:
                        continue
                    kept_free: list[int] = []
                    forced = list(literals)
                    for variable in freed:
                        pin = polarity[variable]
                        if pin:
                            forced.append(
                                variable if pin == 1 else -variable
                            )
                        else:
                            kept_free.append(variable)
                    branches.append((forced, kept_free, child))
                if not branches:
                    new_code.append(KIND_FALSE)
                    continue
                new_code.append(KIND_DECISION)
                new_code.append(len(branches))
                for forced, kept_free, child in branches:
                    new_code.append(len(forced))
                    new_code.extend(forced)
                    new_code.append(len(kept_free))
                    new_code.extend(kept_free)
                    new_code.append(child)
        return DDNNF.from_program(
            new_code, new_offsets, self._root,
            self._num_variables, self._countable,
        )

    # -- weight tables -----------------------------------------------------

    def _weight_tables(self, rows: list) -> tuple:
        """The weight tables of ``rows`` and the lane they run on.

        Returns ``(lane, (positive, negative, free_sum), (zero, one))``.
        ``positive[v]``/``negative[v]`` weigh the two literal polarities
        (``1`` for unweighted and non-countable variables alike — a
        non-countable literal must act as a unit factor).
        ``free_sum[v]`` is the both-values-extend factor of a freed
        variable: ``w⁺ + w⁻`` for countable variables (``2`` unweighted)
        and ``1`` for non-countable ones, which in a projected circuit are
        collapsed and must not contribute.  Variables outside the
        countable set must not carry weights.

        One row gives tables of Python scalars, the ``scalar`` lane.  For
        N > 1 rows every entry is a length-N numpy column: ``int64`` when
        every weight is a machine int and :meth:`_magnitude_bound` proves
        no intermediate can overflow, exact ``object`` columns otherwise.
        ``zero``/``one`` are the lane's constants.
        """
        size = self._num_variables + 1
        default_free = [2 if flag else 1 for flag in self._is_countable]
        tables = []
        all_int = True
        for row in rows:
            table = ([1] * size, [1] * size, list(default_free))
            positive, negative, free_sum = table
            for variable, pair in (row or {}).items():
                if variable not in self._countable:
                    raise ValueError(
                        "variable %r is not countable in this circuit"
                        % (variable,)
                    )
                w_pos, w_neg = pair[0], pair[1]
                positive[variable] = w_pos
                negative[variable] = w_neg
                free_sum[variable] = w_pos + w_neg
                if all_int and not (
                    isinstance(w_pos, int) and isinstance(w_neg, int)
                ):
                    all_int = False
            tables.append(table)
        if len(tables) == 1:
            return "scalar", tables[0], (0, 1)
        # One column per variable out of the per-row tables.
        columns = [list(zip(*per_row)) for per_row in zip(*tables)]
        lane = "object"
        if all_int and self._magnitude_bound(columns[0], columns[1]) < _INT64_SAFE:
            lane = "int64"
        dtype = _np.int64 if lane == "int64" else object
        zero = _np.zeros(len(tables), dtype=dtype)
        arrays = tuple(_np.array(column, dtype=dtype) for column in columns)
        return lane, arrays, (zero, zero + 1)

    def _magnitude_bound(self, positive: list, negative: list) -> int:
        """Upper bound on |any intermediate| of the batched int passes.

        ``positive``/``negative`` hold one weight column per variable.
        The bound is :meth:`_upward` run on clamped magnitude tables —
        each weight replaced by its per-variable magnitude
        ``max(max_rows |w|, 1)``, each free factor by the *sum* of the two
        polarity bounds — with both leaf constants set to 1.  Every factor
        is then ``>= 1``, so each partial product and sum of a pass stays
        below its node's value here; determinism bounds each
        downward-pass derivative and count contribution by the root's
        value.  If the returned bound fits int64, so does every number the
        batched passes touch.
        """
        bound_pos = [max(1, max(map(abs, column))) for column in positive]
        bound_neg = [max(1, max(map(abs, column))) for column in negative]
        bound_free = [p + q for p, q in zip(bound_pos, bound_neg)]
        values = self._upward(bound_pos, bound_neg, bound_free, 1, 1)
        return max(max(values), max(bound_free))

    # -- the two walkers ---------------------------------------------------

    def _upward(self, positive, negative, free_sum, false, true) -> list:
        """Value of every node, children first: one sweep over the program.

        Node values meet only ``*`` and ``+``, so this one body serves
        every lane — Python scalars, numpy columns, and the clamped
        magnitudes of :meth:`_magnitude_bound` — with ``false``/``true``
        the values of the two leaf constants.
        """
        code = self._code
        leaves = (false, true)
        zero = false * 0  # the lane's zero, whatever the leaf values are
        values: list = [None] * len(self._offsets)
        with _span("circuit.upward", nodes=len(self._offsets)):
            for index, offset in enumerate(self._offsets):
                kind = code[offset]
                if kind == KIND_PRODUCT:
                    # Start from the first child: on the column lanes a
                    # product costs one vector op per child after it.
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
                        nfree = code[literals_end]
                        free_end = literals_end + 1 + nfree
                        term = values[code[free_end]]
                        for position in range(cursor, literals_end):
                            literal = code[position]
                            term = term * (
                                positive[literal]
                                if literal > 0
                                else negative[-literal]
                            )
                        for position in range(literals_end + 1, free_end):
                            term = term * free_sum[code[position]]
                        value = value + term
                        cursor = free_end + 1
                else:
                    value = leaves[kind]  # the kind codes 0/1 index them
                values[index] = value
        return values

    def _downward(
        self, positive, negative, free_sum, values: list, zero, one
    ) -> tuple[list, list]:
        """Per-variable weighted literal counts ``(count_positive,
        count_negative)`` from the node ``values`` of :meth:`_upward`: one
        sweep over the program, parents first.

        ``derivative[node]`` accumulates the partial derivative of the
        root's value in the node's value — the derivative trick of
        arithmetic-circuit inference — and every decision branch credits
        its derivative-weighted value to the countable literals it forces
        or frees.  Like :meth:`_upward` it meets node values only through
        ``*`` and ``+``, so it serves every lane (``zero``/``one`` are the
        lane's constants).
        """
        code = self._code
        offsets = self._offsets
        is_countable = self._is_countable
        derivative: list = [zero] * len(offsets)
        derivative[self._root] = one
        size = self._num_variables + 1
        count_positive: list = [zero] * size
        count_negative: list = [zero] * size
        with _span("circuit.literal_counts", nodes=len(offsets)):
            for index in range(len(offsets) - 1, -1, -1):
                outer = derivative[index]
                offset = offsets[index]
                kind = code[offset]
                if kind == KIND_PRODUCT:
                    length = code[offset + 1]
                    start = offset + 2
                    # prefix/suffix products avoid dividing by a zero child
                    suffixes: list = [1] * (length + 1)
                    for position in range(length - 1, -1, -1):
                        suffixes[position] = (
                            suffixes[position + 1]
                            * values[code[start + position]]
                        )
                    prefix = 1
                    for position in range(length):
                        child = code[start + position]
                        derivative[child] = (
                            derivative[child]
                            + outer * prefix * suffixes[position + 1]
                        )
                        prefix = prefix * values[child]
                elif kind == KIND_DECISION:
                    cursor = offset + 2
                    for _ in range(code[offset + 1]):
                        nlits = code[cursor]
                        cursor += 1
                        literals_end = cursor + nlits
                        nfree = code[literals_end]
                        free_start = literals_end + 1
                        free_end = free_start + nfree
                        child = code[free_end]
                        literal_weight = 1
                        for position in range(cursor, literals_end):
                            literal = code[position]
                            literal_weight = literal_weight * (
                                positive[literal]
                                if literal > 0
                                else negative[-literal]
                            )
                        literals_start = cursor
                        cursor = free_end + 1
                        free_factor = 1
                        any_countable_free = False
                        for position in range(free_start, free_end):
                            variable = code[position]
                            free_factor = free_factor * free_sum[variable]
                            if is_countable[variable]:
                                any_countable_free = True
                        down = outer * literal_weight * free_factor
                        derivative[child] = derivative[child] + down
                        contribution = down * values[child]
                        for position in range(literals_start, literals_end):
                            literal = code[position]
                            if literal > 0:
                                if is_countable[literal]:
                                    count_positive[literal] = (
                                        count_positive[literal] + contribution
                                    )
                            elif is_countable[-literal]:
                                count_negative[-literal] = (
                                    count_negative[-literal] + contribution
                                )
                        if any_countable_free:
                            base = outer * literal_weight * values[child]
                            suffixes = [1] * (nfree + 1)
                            for position in range(nfree - 1, -1, -1):
                                suffixes[position] = (
                                    suffixes[position + 1]
                                    * free_sum[code[free_start + position]]
                                )
                            prefix = 1
                            for position in range(nfree):
                                variable = code[free_start + position]
                                if is_countable[variable]:
                                    others = (
                                        base * prefix * suffixes[position + 1]
                                    )
                                    count_positive[variable] = (
                                        count_positive[variable]
                                        + others * positive[variable]
                                    )
                                    count_negative[variable] = (
                                        count_negative[variable]
                                        + others * negative[variable]
                                    )
                                prefix = prefix * free_sum[variable]
        return count_positive, count_negative

    # -- the passes --------------------------------------------------------

    def evaluate(self, weights: WeightMap | None = None):
        """The (weighted) model count of the circuit.

        With ``weights=None`` every countable variable weighs ``(1, 1)``
        and the result is the exact model count; otherwise it is
        ``sum over models of prod over countable v of w(v, model(v))``,
        exact whenever the weights are ints or Fractions.  The one-row
        case of :meth:`evaluate_many`.
        """
        return self.evaluate_many([weights])[0]

    def count(self) -> int:
        """Exact (projected) model count — cached after the first pass."""
        if self._count is None:
            self._count = self.evaluate(None)
        return self._count

    def evaluate_many(self, weight_rows: Sequence[WeightMap | None]) -> list:
        """The weighted model count under each of N weight rows at once.

        Exactly ``[self.evaluate(row) for row in weight_rows]`` — bit
        identical for int weights, exactly rational for Fractions — from
        one upward sweep over the program.  The row count picks the lane,
        recorded on the span: Python scalars for one row; for N > 1 rows
        numpy columns, int64 when the rows are machine ints whose
        intermediates provably fit, exact object columns otherwise.
        """
        rows = list(weight_rows)
        if not rows:
            return []
        with _span(
            "circuit.evaluate_many",
            nodes=len(self._offsets),
            rows=len(rows),
        ) as span:
            lane, tables, leaves = self._weight_tables(rows)
            span.fields["lane"] = lane
            return _rows_of(lane, self._upward(*tables, *leaves)[self._root])

    def literal_counts(self, weights: WeightMap | None = None) -> dict:
        """``literal -> (weighted) count of models containing it``.

        Both polarities of every countable variable are reported, all in
        one upward plus one downward pass — this is the derivative trick
        of arithmetic-circuit inference, and what replaces the per-value
        condition-and-recount loop: ``counts[v] + counts[-v]`` equals the
        total count for every countable variable (smoothness).  The
        one-row case of :meth:`literal_counts_many`.
        """
        return self.literal_counts_many([weights])[0]

    def literal_counts_many(
        self, weight_rows: Sequence[WeightMap | None]
    ) -> list[dict]:
        """:meth:`literal_counts` for N weight rows in one batched pass.

        Returns one ``literal -> weighted count`` dict per row, exactly
        equal to the looped results; the upward and downward sweeps each
        run once over the program, on the lane :meth:`evaluate_many`
        would pick.
        """
        rows = list(weight_rows)
        if not rows:
            return []
        with _span(
            "circuit.literal_counts_many",
            nodes=len(self._offsets),
            rows=len(rows),
        ) as span:
            lane, tables, leaves = self._weight_tables(rows)
            span.fields["lane"] = lane
            values = self._upward(*tables, *leaves)
            count_positive, count_negative = self._downward(
                *tables, values, *leaves
            )
            counts_rows: list[dict] = [{} for _ in rows]
            for variable in self._countable:
                for counts, positive, negative in zip(
                    counts_rows,
                    _rows_of(lane, count_positive[variable]),
                    _rows_of(lane, count_negative[variable]),
                ):
                    counts[variable] = positive
                    counts[-variable] = negative
            return counts_rows

    # -- exact sampling ----------------------------------------------------

    def sampler(self, weights: WeightMap | None = None) -> "CircuitSampler":
        """A reusable exact sampler over the circuit's (weighted) models."""
        return CircuitSampler(self, weights)


class CircuitSampler:
    """Draws countable-variable assignments with probability proportional
    to their weight, by one top-down descent per sample.

    Node values under the sampling weights are computed once at
    construction; each :meth:`sample` is then linear in the depth of the
    visited sub-DAG.  Draws are exact (integer arithmetic) for int and
    Fraction weights.
    """

    def __init__(self, circuit: DDNNF, weights: WeightMap | None = None) -> None:
        self._circuit = circuit
        _lane, self._weights, leaves = circuit._weight_tables([weights])
        self._values = circuit._upward(*self._weights, *leaves)
        if not self._values[circuit.root]:
            raise ValueError(
                "circuit has no (weighted) models; nothing to sample"
            )

    @property
    def total(self):
        """The (weighted) model count the draws are normalized by."""
        return self._values[self._circuit.root]

    def sample(self, rng: random.Random) -> dict[int, bool]:
        """One assignment of every countable variable, drawn exactly."""
        circuit = self._circuit
        code = circuit._code
        offsets = circuit._offsets
        is_countable = circuit._is_countable
        positive, negative, free_sum = self._weights
        values = self._values
        assignment: dict[int, bool] = {}
        stack = [circuit.root]
        while stack:
            offset = offsets[stack.pop()]
            kind = code[offset]
            if kind == KIND_PRODUCT:
                stack.extend(
                    code[offset + 2:offset + 2 + code[offset + 1]]
                )
            elif kind == KIND_DECISION:
                nbranches = code[offset + 1]
                spans = []  # (literals start/end, free start/end, child)
                branch_weights = []
                cursor = offset + 2
                for _ in range(nbranches):
                    nlits = code[cursor]
                    cursor += 1
                    literals_end = cursor + nlits
                    nfree = code[literals_end]
                    free_start = literals_end + 1
                    free_end = free_start + nfree
                    child = code[free_end]
                    spans.append(
                        (cursor, literals_end, free_start, free_end, child)
                    )
                    if nbranches > 1:
                        term = values[child]
                        if term:
                            for position in range(cursor, literals_end):
                                literal = code[position]
                                term *= (
                                    positive[literal]
                                    if literal > 0
                                    else negative[-literal]
                                )
                            for position in range(free_start, free_end):
                                term *= free_sum[code[position]]
                        branch_weights.append(term)
                    cursor = free_end + 1
                chosen = (
                    spans[0]
                    if nbranches == 1
                    else spans[draw_index(rng, branch_weights)]
                )
                literals_start, literals_end, free_start, free_end, child = chosen
                for position in range(literals_start, literals_end):
                    literal = code[position]
                    variable = literal if literal > 0 else -literal
                    if is_countable[variable]:
                        assignment[variable] = literal > 0
                for position in range(free_start, free_end):
                    variable = code[position]
                    if is_countable[variable]:
                        pair = (positive[variable], negative[variable])
                        assignment[variable] = draw_index(rng, pair) == 0
                stack.append(child)
            # TRUE leaves contribute nothing; FALSE is unreachable (value 0)
        return assignment


def _rows_of(lane: str, value) -> list:
    """A pass result as one entry per weight row: the scalar itself on the
    ``scalar`` lane, the numpy column's Python values otherwise."""
    return [value] if lane == "scalar" else value.tolist()


def draw_index(rng: random.Random, weights_seq: Sequence) -> int:
    """Index drawn with probability ``weights_seq[i] / sum``, exactly.

    Integer weights use ``randrange`` directly; Fractions (and floats,
    through their exact Fraction form) are scaled to a common denominator
    first, so the draw stays a single exact ``randrange``.
    """
    if not all(isinstance(weight, int) for weight in weights_seq):
        fractions = [Fraction(weight) for weight in weights_seq]
        common = 1
        for fraction in fractions:
            common = common * fraction.denominator // gcd(
                common, fraction.denominator
            )
        weights_seq = [
            int(fraction * common) for fraction in fractions
        ]
    total = sum(weights_seq)
    if total <= 0:
        raise ValueError("cannot draw from nonpositive total weight")
    target = rng.randrange(total)
    accumulated = 0
    for index, weight in enumerate(weights_seq):
        accumulated += weight
        if target < accumulated:
            return index
    raise AssertionError("unreachable: cumulative walk exhausted")
