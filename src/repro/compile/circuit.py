"""d-DNNF arithmetic circuits: compile once, count forever.

A :class:`DDNNF` is the trace of one exact model-counting search
(:mod:`repro.compile.sharpsat`), recorded as a rooted DAG in
**deterministic, decomposable negation normal form**:

* **decision nodes** are deterministic disjunctions: each branch fixes a
  set of literals (the decision plus everything unit propagation forced),
  lists the variables the branch *freed* (eliminated without assigning —
  both values extend), and points at a sub-circuit.  Branches of one node
  exclude each other: a two-way decision sets one variable true in one
  branch and false in the other, and a k-way decision (one per null of a
  ``#Val`` search) sets a different member of an exactly-one block true
  in each, which sets the others false — so no assignment is counted
  twice;
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
:meth:`~DDNNF.sampler`  exact model sampling, one descent of the level
                        plan per sample, no rejection
====================== ==================================================

**Representation.**  The circuit is stored as one flat, topologically
ordered **array of ints** plus a per-node offset table (a
:class:`_Program`): each node is ``[kind, …]`` with kind codes
``0``/``1`` for the false/true constants, ``2`` for decisions (branch
count, then per branch ``nlits, lits…, nfree, freed…, child``) and ``3``
for products (child count, children…).  Children precede parents by
construction.  :class:`~repro.compile.ddnnf_trace.TraceBuilder` emits
this layout directly while the search runs, and the binary codec
(:mod:`repro.compile.serialize`) parses straight into it.

**Levels.**  The passes do not walk that program node by node.  The first
pass builds a compact int32 :class:`_Plan` of it, once per program: the
nodes grouped by height (children before parents), and every decision
branch's countable literals as one flat index array into a per-pass
weight vector ``[1, w⁺(1..n), w⁻(1..n)]``.  A countable variable a branch
*frees* becomes a shared *free leaf* of value ``w⁺ + w⁻``, multiplied into
the branch's child by a virtual product node, so no pass special-cases
freed variables; a non-countable literal or freed variable weighs 1 and
drops out.  :meth:`_Plan.upward` then computes every branch weight with
one ``multiply.reduceat``, and each level with a gather and a
``multiply.reduceat`` (products) and a gather, a multiply by the branch
weights and an ``add.reduceat`` (decisions): O(depth) vector operations
per pass, not one interpreter step per literal (a wide column gathers
and combines each run position in turn instead, in the same order; see
:class:`_Runs`).  :meth:`_Plan.downward`
walks the same levels parents-first with segmented sibling products (no
division, so a zero child stays exact) and sorted scatter-adds, and
writes all literal counts with one scatter-add of per-branch masses.
:class:`CircuitSampler` descends the plan from the root, drawing each
decision's branch by its mass from one upward pass.

**Pins.**  :meth:`DDNNF.condition` rewrites nothing: the conditioned
circuit shares its parent's program and plan and carries *pins*, which
enter the weight vector — a literal contradicting a pin weighs 0, so a
pinned freed variable contributes only its pinned weight.  Conditioning
touches no node: it copies the parent's pin vector (one bool per weight
slot) and sets the new pins.  A pinned circuit cannot be serialized (it
holds its parent's program, unpinned).

**Lanes.**  Both passes touch node values only through ``*`` and ``+``,
so one body runs on whatever the weight vector holds, and the row count
picks the *lane*: one weight row runs exact Python numbers in an
``object`` column (``scalar``); N > 1 rows run on N-wide numpy columns,
``int64`` when a magnitude bound proves no intermediate can overflow and
exact ``object`` columns otherwise.  Weights no row varies are multiplied
once, not per row.  All arithmetic is exact for int/Fraction weights.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

import numpy as _np

from repro.obs import span as _span

#: Largest clamped-magnitude bound for which int64 columns cannot overflow.
_INT64_SAFE = 1 << 62

#: Flat-array kind codes (first int of a node's code segment).
KIND_FALSE, KIND_TRUE, KIND_DECISION, KIND_PRODUCT = 0, 1, 2, 3

#: ``variable -> (weight of v true, weight of v false)``.
WeightMap = Mapping[int, tuple]

#: ``variable -> (w⁺ column, w⁻ column)``, one entry per weight row.
Columns = Mapping[int, tuple[Sequence, Sequence]]


class _Program:
    """The flat node program: shared by a circuit and every circuit
    conditioned from it, with its level plan built on first use."""

    __slots__ = (
        "code", "offsets", "root", "num_variables", "countable",
        "is_countable", "memory", "plan",
    )

    def __init__(
        self,
        code: list[int],
        offsets: list[int],
        root: int,
        num_variables: int,
        countable: Iterable[int],
    ) -> None:
        if not 0 <= root < len(offsets):
            raise ValueError("root %d outside the node array" % root)
        self.code = code
        self.offsets = offsets
        self.root = root
        self.num_variables = num_variables
        self.countable = frozenset(countable)
        flags = bytearray(num_variables + 1)
        for variable in self.countable:
            flags[variable] = 1
        self.is_countable = flags
        self.memory: int | None = None
        self.plan: _Plan | None = None


def _ids(values) -> _np.ndarray:
    return _np.asarray(values, dtype=_np.int32)


def _heads(keys: _np.ndarray) -> _np.ndarray:
    """Start of every run of equal entries in the sorted ``keys``."""
    if not keys.size:
        return _ids([])
    return _ids(_np.flatnonzero(
        _np.concatenate(([True], keys[1:] != keys[:-1]))
    ))


class _Tables:
    """One pass's weights over the slots ``[1, w⁺(1..n), w⁻(1..n)]``.

    ``base`` holds each slot's value shared by every row (1 on a slot that
    varies); ``row_of[slot]`` indexes the slot's per-row values in
    ``vary`` when it varies, else is -1.  ``width`` is the node-value
    column width: the row count when any slot varies, otherwise 1.
    """

    __slots__ = ("base", "row_of", "vary", "width")

    def __init__(self, base, row_of=None, vary=None) -> None:
        self.base = base
        self.row_of = row_of
        self.vary = vary
        self.width = 1 if vary is None else vary.shape[1]

    def values(self, slots: _np.ndarray) -> _np.ndarray:
        """The ``(len(slots), width)`` weights of ``slots``."""
        out = _np.repeat(self.base[slots][:, None], self.width, axis=1)
        if self.vary is not None:
            rows = self.row_of[slots]
            varying = rows >= 0
            out[varying] = self.vary[rows[varying]]
        return out


def _within(lengths: _np.ndarray) -> _np.ndarray:
    """Each item's index inside its run, for runs of ``lengths``."""
    return _np.arange(lengths.sum(), dtype=lengths.dtype) - _np.repeat(
        _np.cumsum(lengths) - lengths, lengths
    )


class _Runs:
    """Runs of a flat array, grouped into consecutive blocks (the levels),
    each run reduced to one item by :meth:`reduce` on one block's items.

    A one-wide column reduces with ``reduceat``; a wider one position by
    position, since a 2-D ``reduceat`` pays per run and row: each run's
    first item, then its k-th item combined in for k = 1, 2, … over the
    runs longer than k.  That is ``reduceat``'s left-to-right order, so
    both widths associate alike.  :meth:`reduce_from` takes the items from
    a gather, so a wide reduction reads each item once, at its position,
    and builds no column of every item.  The positions of every block are
    laid out together, on the first wide reduction.
    """

    __slots__ = ("starts", "total", "blocks", "local", "steps")

    def __init__(self, starts: _np.ndarray, total: int, blocks=None) -> None:
        self.starts = _np.asarray(starts, dtype=_np.int64)
        self.total = total
        #: Run bounds of each block (one block unless given).
        self.blocks = (
            _np.array([0, self.starts.size]) if blocks is None
            else _np.asarray(blocks, dtype=_np.int64)
        )
        bounds = _np.append(self.starts, total)[self.blocks]
        local = self.starts - _np.repeat(bounds[:-1], _np.diff(self.blocks))
        #: Each block's run starts, relative to its first item.
        self.local = [
            _ids(local[lo:hi])
            for lo, hi in zip(self.blocks[:-1], self.blocks[1:])
        ]
        self.steps: list | None = None

    def _positions(self) -> list:
        """Per block, per position k >= 1: the runs longer than k
        (``None``: all) and their k-th items, relative to the block."""
        lengths = _np.diff(_np.append(self.starts, self.total))
        steps = []
        for local, lo, hi in zip(self.local, self.blocks[:-1], self.blocks[1:]):
            runs = lengths[lo:hi]
            positions = []
            for k in range(1, int(runs.max(initial=1))):
                longer = _np.flatnonzero(runs > k)
                positions.append((
                    None if longer.size == runs.size else _ids(longer),
                    local[longer] + k,
                ))
            steps.append(positions)
        return steps

    def reduce(
        self, op: _np.ufunc, items: _np.ndarray, block: int = 0
    ) -> _np.ndarray:
        return self.reduce_from(op, items.__getitem__, items.shape[1], block)

    def reduce_from(
        self,
        op: _np.ufunc,
        take: Callable[..., _np.ndarray],
        width: int,
        block: int = 0,
    ) -> _np.ndarray:
        """:meth:`reduce` of the ``width``-wide items ``take(index)``
        returns for an index into the block (``slice(None)``: all)."""
        local = self.local[block]
        if width == 1:
            return op.reduceat(take(slice(None)), local, axis=0)
        if self.steps is None:
            self.steps = self._positions()
        result = take(local)
        for longer, at in self.steps[block]:
            if longer is None:
                op(result, take(at), out=result)
            else:
                result[longer] = op(result[longer], take(at))
        return result


class _Plan:
    """The level schedule of one program (see the module docstring).

    Plan node ids are the program's, followed by one free leaf per
    countable freed variable and one virtual product per branch freeing
    any.  Branches are numbered by level, then node, so each level's
    decisions own one contiguous branch range; every branch's factor run
    in ``factor_slot`` is non-empty (a branch with no countable literal
    holds the constant slot 0), because ``reduceat`` answers an empty run
    with its first element rather than the identity.
    """

    __slots__ = (
        "size", "num_variables", "false_nodes", "true_nodes", "free_vars",
        "free_nodes", "factor_slot", "factor_start", "factor_branch",
        "branch_node", "branch_child", "loose", "loose_factor", "levels",
        "product_runs", "branch_runs", "product_node", "product_child",
        "prefix_ranks", "suffix_ranks", "down_levels", "edge_runs",
        "count_slot", "count_branch", "count_runs",
    )

    def __init__(self, program: _Program) -> None:
        self.num_variables = program.num_variables
        code = _np.fromiter(
            program.code, dtype=_np.int32, count=len(program.code)
        )
        offsets = _ids(program.offsets)
        num_nodes = offsets.size
        kind = code[offsets]
        width = _np.where(
            kind >= KIND_DECISION,
            code[_np.minimum(offsets + 1, code.size - 1)], 0,
        )
        # An empty product is the true constant, a branchless decision
        # the false one.
        self.false_nodes = _ids(_np.flatnonzero(
            (kind == KIND_FALSE) | ((kind == KIND_DECISION) & (width == 0))
        ))
        self.true_nodes = _ids(_np.flatnonzero(
            (kind == KIND_TRUE) | ((kind == KIND_PRODUCT) & (width == 0))
        ))
        products = _np.flatnonzero((kind == KIND_PRODUCT) & (width > 0))
        arity = width[products]
        kids = code[_np.repeat(offsets[products] + 2, arity) + _within(arity)]
        # Walk every decision's branches in step: the k-th at once.
        deciders = _np.flatnonzero((kind == KIND_DECISION) & (width > 0))
        runs = width[deciders]
        first = _np.cumsum(runs) - runs
        at = _np.empty(runs.sum(), dtype=_np.int32)
        cursor = offsets[deciders] + 2
        live = _np.arange(deciders.size)
        step = 0
        while live.size:
            here = cursor[live]
            at[first[live] + step] = here
            after = here + 1 + code[here]
            cursor[live] = after + 2 + code[after]
            step += 1
            live = live[runs[live] > step]
        nlits = code[at]
        owners = _ids(_np.arange(at.size))
        lit_owner = _np.repeat(owners, nlits)
        lits = code[_np.repeat(at + 1, nlits) + _within(nlits)]
        free_at = at + 1 + nlits
        nfree = code[free_at]
        freed = code[_np.repeat(free_at + 1, nfree) + _within(nfree)]
        child = code[free_at + 1 + nfree]
        # Countable freed variables become free leaves, multiplied into
        # their branch's child by a virtual product.
        countable = _np.frombuffer(bytes(program.is_countable), dtype=bool)
        kept = countable[freed]
        free_owner = _np.repeat(owners, nfree)[kept]
        freed = freed[kept]
        freeing_count = _np.bincount(free_owner, minlength=at.size)
        loose = nfree - freeing_count
        free_vars = _np.flatnonzero(_np.bincount(freed))
        freeing = _np.flatnonzero(freeing_count)
        virtual = num_nodes + free_vars.size + _np.arange(freeing.size)
        self.size = int(num_nodes + free_vars.size + freeing.size)
        self.free_vars = _ids(free_vars)
        self.free_nodes = _ids(num_nodes + _np.arange(free_vars.size))
        virtual_of = _np.full(at.size, -1, dtype=_np.int32)
        virtual_of[freeing] = virtual
        entries = _np.concatenate((
            virtual, virtual_of[free_owner],
        ))
        members = _np.concatenate((
            child[freeing],
            num_nodes + _np.searchsorted(free_vars, freed),
        ))
        by_virtual = _np.argsort(entries, kind="stable")
        product_node = _np.concatenate((products, virtual))
        product_arity = _np.concatenate((arity, freeing_count[freeing] + 1))
        product_kids = _np.concatenate((kids, members[by_virtual]))
        branch_child = _np.where(virtual_of >= 0, virtual_of, child)
        branch_node = _np.repeat(deciders, runs)
        height = self._heights(
            self.size,
            _np.concatenate((
                _np.repeat(product_node, product_arity), branch_node,
            )),
            _np.concatenate((product_kids, branch_child)),
        )
        # Products and decisions by (height, node); branches follow.
        by_product = _np.lexsort((product_node, height[product_node]))
        starts = _np.cumsum(product_arity) - product_arity
        picks = (
            _np.repeat(starts[by_product], product_arity[by_product])
            + _within(product_arity[by_product])
        )
        by_decision = _np.lexsort((deciders, height[deciders]))
        order = (
            _np.repeat(first[by_decision], runs[by_decision])
            + _within(runs[by_decision])
        )
        self._branches(
            order, branch_node, branch_child, loose, lits, lit_owner,
            countable,
        )
        self._levels(
            product_node[by_product], product_arity[by_product],
            product_kids[picks], height[product_node[by_product]],
            deciders[by_decision], runs[by_decision],
            height[deciders[by_decision]],
        )

    @staticmethod
    def _heights(
        size: int, parents: _np.ndarray, children: _np.ndarray
    ) -> _np.ndarray:
        """Each node's height over the ``parents[i] -> children[i]`` edges:
        0 at a leaf, else one more than its highest child (relaxed once
        per level)."""
        height = _np.zeros(size, dtype=_np.int32)
        if not parents.size:
            return height
        by_parent = _np.argsort(parents, kind="stable")
        children = children[by_parent]
        heads = _heads(parents[by_parent])
        tops = parents[by_parent][heads]
        while True:
            raised = _np.maximum.reduceat(height[children], heads) + 1
            if _np.array_equal(raised, height[tops]):
                return height
            height[tops] = raised

    def _branches(
        self, order, branch_node, branch_child, loose, lits, lit_owner,
        countable,
    ) -> None:
        """Number the branches by level (``order`` lists them) and lay out
        their factors and the literal counts' scatter."""
        total = order.size
        n = self.num_variables
        rank = _np.empty(total, dtype=_np.int32)
        rank[order] = _np.arange(total)
        self.branch_node = _ids(branch_node[order])
        self.branch_child = _ids(branch_child[order])
        spare = loose[order]
        self.loose = _ids(_np.flatnonzero(spare))
        self.loose_factor = _np.array(
            [1 << int(k) for k in spare[self.loose]], dtype=object
        ).reshape(-1, 1)
        keep = countable[_np.abs(lits)]
        slots = _np.where(lits > 0, lits, n - lits)[keep]
        owner = rank[lit_owner[keep]]
        bare = _np.flatnonzero(_np.bincount(owner, minlength=total) == 0)
        slots = _np.concatenate((slots, _np.zeros(bare.size, dtype=slots.dtype)))
        owner = _np.concatenate((owner, bare))
        by_branch = _np.argsort(owner, kind="stable")
        self.factor_slot = _ids(slots[by_branch])
        self.factor_branch = _ids(owner[by_branch])
        self.factor_start = _ids(
            _np.searchsorted(self.factor_branch, _np.arange(total))
        )
        real = _np.flatnonzero(self.factor_slot)
        real = real[_np.argsort(self.factor_slot[real], kind="stable")]
        heads = _heads(self.factor_slot[real])
        self.count_slot = self.factor_slot[real][heads]
        self.count_branch = self.factor_branch[real]
        self.count_runs = _Runs(heads, real.size)

    def _levels(
        self, p_node, arity, product_child, p_height, d_node, runs, d_height,
    ) -> None:
        """Per height: the upward steps and the downward edges."""
        occurrences = product_child.size
        first = _np.cumsum(arity) - arity
        start = _np.cumsum(runs) - runs
        self.product_node = _ids(p_node)
        self.product_child = _ids(product_child)
        owner = _np.repeat(p_node, arity)
        rank = _within(arity)
        back = _np.repeat(arity - 1, arity) - rank
        self.prefix_ranks = [
            _ids(_np.flatnonzero(rank == r))
            for r in range(1, int(arity.max(initial=0)))
        ]
        self.suffix_ranks = [_ids(_np.flatnonzero(back == r)) for r in
                             range(1, len(self.prefix_ranks) + 1)]
        top = int(max(p_height.max(initial=0), d_height.max(initial=0)))
        heights = _np.arange(1, top + 2)
        p_bounds = _np.searchsorted(p_height, heights)
        d_bounds = _np.searchsorted(d_height, heights)
        occurrence_bounds = _np.append(first, occurrences)[p_bounds]
        branch_bounds = _np.append(start, self.branch_child.size)[d_bounds]
        self.product_runs = _Runs(first, occurrences, p_bounds)
        self.branch_runs = _Runs(start, self.branch_child.size, d_bounds)
        p_node, d_node = self.product_node, _ids(d_node)
        self.levels = [
            (
                p_node[p_bounds[level]:p_bounds[level + 1]]
                if p_bounds[level + 1] > p_bounds[level] else None,
                self.product_child[
                    occurrence_bounds[level]:occurrence_bounds[level + 1]
                ],
                d_node[d_bounds[level]:d_bounds[level + 1]]
                if d_bounds[level + 1] > d_bounds[level] else None,
                int(branch_bounds[level]),
                int(branch_bounds[level + 1]),
            )
            for level in range(top)
        ]
        # The downward edges of every level, grouped by child.
        edge_level = _np.concatenate((
            _np.repeat(_np.arange(top), _np.diff(occurrence_bounds)),
            _np.repeat(_np.arange(top), _np.diff(branch_bounds)),
        ))
        child = _np.concatenate((product_child, self.branch_child))
        order = _np.lexsort((child, edge_level))
        parent = _ids(_np.concatenate((owner, self.branch_node))[order])
        coef = _ids(order)  # the coefficients: occurrences, then branches
        child = child[order]
        edge_level = edge_level[order]
        heads = _np.flatnonzero(_np.concatenate((
            [True], (child[1:] != child[:-1])
            | (edge_level[1:] != edge_level[:-1]),
        ))) if child.size else _np.zeros(0, dtype=_np.int64)
        edge_bounds = _np.searchsorted(edge_level, heights - 1)
        run_bounds = _np.searchsorted(heads, edge_bounds)
        tops = _ids(child[heads])
        self.edge_runs = _Runs(heads, child.size, run_bounds)
        self.down_levels = [
            (
                level,
                parent[edge_bounds[level]:edge_bounds[level + 1]],
                coef[edge_bounds[level]:edge_bounds[level + 1]],
                tops[run_bounds[level]:run_bounds[level + 1]],
            )
            for level in range(top - 1, -1, -1)  # parents first
        ]

    # -- passes --------------------------------------------------------------

    def branch_weights(self, tables: _Tables) -> _np.ndarray:
        """``(branches, width)``: each branch's product of literal weights.

        Slots no row varies multiply once for all rows; only the factors
        on varying slots are gathered row by row.
        """
        if not self.factor_start.size:
            return _np.ones((0, tables.width), dtype=tables.base.dtype)
        weights = _np.multiply.reduceat(
            tables.base[self.factor_slot], self.factor_start
        )[:, None]
        if tables.vary is None:
            return weights
        weights = _np.repeat(weights, tables.width, axis=1)
        rows = tables.row_of[self.factor_slot]
        hits = _np.flatnonzero(rows >= 0)
        if hits.size:
            owners = self.factor_branch[hits]
            heads = _heads(owners)
            weights[owners[heads]] *= _Runs(heads, hits.size).reduce(
                _np.multiply, tables.vary[rows[hits]]
            )
        return weights

    def upward(
        self, tables: _Tables, weights, leaves=(0, 1), clamp: bool = False
    ) -> _np.ndarray:
        """Every plan node's value, one level at a time: ``(size, width)``.

        ``leaves`` are the false/true constants' values; ``clamp`` raises
        each decision's value to at least 1 (the magnitude bound's rule
        for a decision whose every branch a pin killed).
        """
        values = _np.empty((self.size, tables.width), dtype=tables.base.dtype)
        values[self.false_nodes] = leaves[0]
        values[self.true_nodes] = leaves[1]
        if self.free_vars.size:
            values[self.free_nodes] = tables.values(self.free_vars) + (
                tables.values(self.free_vars + self.num_variables)
            )
        width = tables.width
        with _span("circuit.upward", nodes=self.size):
            for level, (nodes, kids, deciders, lo, hi) in enumerate(self.levels):
                if nodes is not None:
                    values[nodes] = self.product_runs.reduce_from(
                        _np.multiply, lambda at: values[kids[at]], width, level
                    )
                if deciders is not None:
                    child = self.branch_child[lo:hi]
                    weight = weights[lo:hi]
                    sums = self.branch_runs.reduce_from(
                        _np.add,
                        lambda at: values[child[at]] * weight[at],
                        width,
                        level,
                    )
                    values[deciders] = _np.maximum(sums, 1) if clamp else sums
        return values

    def downward(
        self, tables: _Tables, weights, values: _np.ndarray, root: int
    ) -> _np.ndarray:
        """``(slots, width)`` weighted literal counts from :meth:`upward`.

        ``derivative[node]`` accumulates the partial derivative of the
        root's value in the node's value, parents first; a product passes
        each child the product of its siblings (prefix times suffix, no
        division), a decision each branch its weight.  The mass through a
        branch credits each of its literals, a free leaf's derivative its
        variable's two polarities.
        """
        with _span("circuit.literal_counts", nodes=self.size):
            siblings = values[self.product_child]
            prefix = _np.ones_like(siblings)
            suffix = _np.ones_like(siblings)
            for at in self.prefix_ranks:
                prefix[at] = prefix[at - 1] * siblings[at - 1]
            for at in self.suffix_ranks:
                suffix[at] = suffix[at + 1] * siblings[at + 1]
            coefficients = _np.concatenate((prefix * suffix, weights))
            derivative = _np.zeros_like(values)
            derivative[root] = 1
            for level, parents, coefs, children in self.down_levels:
                derivative[children] += self.edge_runs.reduce(
                    _np.add, derivative[parents] * coefficients[coefs], level
                )
            through = (
                derivative[self.branch_node] * weights
                * values[self.branch_child]
            )
            counts = _np.zeros(
                (2 * self.num_variables + 1, tables.width), dtype=values.dtype
            )
            if self.count_slot.size:
                counts[self.count_slot] = self.count_runs.reduce(
                    _np.add, through[self.count_branch]
                )
            if self.free_vars.size:
                mass = derivative[self.free_nodes]
                counts[self.free_vars] += mass * tables.values(self.free_vars)
                negative = self.free_vars + self.num_variables
                counts[negative] += mass * tables.values(negative)
        return counts


class DDNNF:
    """A smooth deterministic d-DNNF circuit over CNF variables.

    ``code`` and ``offsets`` are the flat node program (see the module
    docstring), children before parents; the trace builder and the binary
    codec both emit it.  ``root`` is the root node id; ``countable`` the
    variables the counting passes see (the projection set, or all
    variables).
    """

    __slots__ = ("_program", "_pins", "_count")

    def __init__(
        self,
        code: Sequence[int],
        offsets: Sequence[int],
        root: int,
        num_variables: int,
        countable: Iterable[int],
    ) -> None:
        self._bind(_Program(
            list(code), list(offsets), root, num_variables, countable
        ))

    def _bind(self, program: _Program, pins=None) -> None:
        self._program = program
        #: None, or one bool per weight slot: True where a pin zeroes
        #: that literal's weight.
        self._pins = pins
        self._count: int | None = None

    def _plan(self) -> _Plan:
        program = self._program
        if program.plan is None:
            with _span("circuit.plan", nodes=len(program.offsets)):
                program.plan = _Plan(program)
        return program.plan

    # -- inspection --------------------------------------------------------

    @property
    def root(self) -> int:
        return self._program.root

    @property
    def num_variables(self) -> int:
        return self._program.num_variables

    @property
    def countable(self) -> frozenset[int]:
        """Variables the counting passes range over (projection or all)."""
        return self._program.countable

    @property
    def num_nodes(self) -> int:
        return len(self._program.offsets)

    @property
    def num_edges(self) -> int:
        code = self._program.code
        edges = 0
        for offset in self._program.offsets:
            kind = code[offset]
            if kind >= KIND_DECISION:  # decision or product
                edges += code[offset + 1]
        return edges

    def memory_bytes(self) -> int:
        """Deterministic estimate of the circuit's resident size.

        Used by the engine cache for its memory bound; counts nodes,
        branch records and literal/free slots at CPython container rates
        rather than chasing ``sys.getsizeof`` through the DAG.  (The
        figures intentionally match the historical tuple representation,
        so cache bounds calibrated against it keep their meaning.)  A
        pinned circuit reports its shared program's figure, computed
        once: it keeps that program alive.
        """
        program = self._program
        if program.memory is None:
            code = program.code
            total = 64 * len(program.offsets)
            for offset in program.offsets:
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
            program.memory = total
        return program.memory

    def __repr__(self) -> str:
        return "DDNNF(%d nodes, %d edges, %d countable vars%s)" % (
            self.num_nodes, self.num_edges, len(self.countable),
            "" if self._pins is None else ", pinned",
        )

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The circuit as a compact, versioned, checksummed binary payload.

        The node table is written in its native topological order, so
        ``from_bytes`` rehydrates an identical circuit in any process —
        see :mod:`repro.compile.serialize` for the format.  ``ValueError``
        on a pinned circuit.
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
        """Pin variables to fixed values: no rewrite, no search.

        ``assignments`` maps variables to polarities.  The result shares
        this circuit's program and plan; its models are exactly this
        circuit's models consistent with the pins (and its earlier pins,
        along a chain), because each pin zeroes the weight of the literal
        it contradicts.  A branch forcing such a literal weighs 0, and a
        pinned freed variable contributes only its pinned weight — so
        every downstream pass (count, weighted evaluate, literal counts,
        sampling) agrees bit for bit with recompiling the restricted
        formula.

        Only countable variables may be pinned: non-countable (projected
        or auxiliary) variables are summed out by the compiler and may no
        longer appear explicitly on every path, so pinning them here
        would silently under-restrict.  ``ValueError`` otherwise.
        """
        if not assignments:
            return self
        program = self._program
        n = program.num_variables
        pins = (
            _np.zeros(2 * n + 1, dtype=bool)
            if self._pins is None else self._pins.copy()
        )
        for variable, value in assignments.items():
            if not 1 <= variable <= n:
                raise ValueError(
                    "cannot condition on unknown variable %d" % variable
                )
            if not program.is_countable[variable]:
                raise ValueError(
                    "cannot condition on non-countable variable %d "
                    "(projected/auxiliary variables are summed out)"
                    % variable
                )
            pins[n + variable if value else variable] = True
        with _span("circuit.condition", pinned=len(assignments),
                   nodes=self.num_nodes):
            child = DDNNF.__new__(DDNNF)
            child._bind(program, pins)
        return child

    # -- weight tables -----------------------------------------------------

    def _columns(self, rows: list) -> dict:
        """The weight columns of ``rows`` (per-variable ``(w⁺, w⁻)`` maps):
        one ``(w⁺ column, w⁻ column)`` per variable any row weighs, 1 in
        the rows that do not.  Variables outside the countable set must
        not carry weights."""
        countable = self._program.countable
        rows = [row or {} for row in rows]
        named: dict = {}
        for row in rows:
            for variable in row:
                if variable not in named:
                    if variable not in countable:
                        raise ValueError(
                            "variable %r is not countable in this circuit"
                            % (variable,)
                        )
                    named[variable] = None
        unit = (1, 1)
        columns = {}
        for variable in named:
            pairs = [row.get(variable, unit) for row in rows]
            columns[variable] = (
                [pair[0] for pair in pairs], [pair[1] for pair in pairs]
            )
        return columns

    def _tables(self, count: int, columns: Columns) -> tuple[str, _Tables]:
        """The lane and weight vector of ``count`` rows given as columns.

        Slot ``v`` weighs literal ``v`` and slot ``n + v`` literal ``-v``
        (1 for a variable no column names); the pins zero their slots.  One
        row is the ``scalar`` lane; N > 1 rows run ``int64`` when every
        weight is a machine int and :meth:`_magnitude_bound` proves no
        intermediate can overflow, exact ``object`` columns otherwise.
        """
        n = self._program.num_variables
        if count == 1:
            lane = "scalar"
        elif all(
            issubclass(kind, int)
            for pair in columns.values() for column in pair
            for kind in set(map(type, column))
        ) and self._magnitude_bound(columns) < _INT64_SAFE:
            lane = "int64"
        else:
            lane = "object"
        dtype = _np.int64 if lane == "int64" else object
        base = _np.ones(2 * n + 1, dtype=dtype)
        slots: list[int] = []
        rows: list = []
        for variable, pair in columns.items():
            for slot, column in ((variable, pair[0]), (n + variable, pair[1])):
                if count == 1 or _uniform(column):
                    base[slot] = column[0]
                else:
                    slots.append(slot)
                    rows.append(column)
        pins = self._pins
        if pins is not None:
            base[pins] = 0
        if not slots:
            return lane, _Tables(base)
        vary = _np.array(rows, dtype=dtype)
        if pins is not None:
            vary[pins[slots]] = 0
        row_of = _np.full(2 * n + 1, -1, dtype=_np.int64)
        row_of[slots] = _np.arange(len(slots))
        return lane, _Tables(base, row_of, vary)

    def _magnitude_bound(self, columns: Columns) -> int:
        """Upper bound on |any intermediate| of the batched int passes.

        The bound is the upward pass run on clamped magnitude tables —
        each literal weight replaced by its per-variable magnitude
        ``max(max_rows |w|, 1)``, so each free leaf weighs the *sum* of
        the two polarity bounds and each non-countable freed variable 2 —
        with both leaf constants set to 1.  Every factor is then ``>= 1``,
        so each partial product and sum of a pass stays below its node's
        value here; determinism bounds each downward-pass derivative and
        count contribution by the root's value.  If the returned bound
        fits int64, so does every number the batched passes touch.  A
        pin zeroes its slot here too, and a decision whose every branch
        it kills counts 1, as the false constant it stands for.  The
        maximum skips the virtual products: one in a live branch stays
        below its decision's value, and one in a branch a pin killed may
        wrap in int64 but only ever meets that branch's weight, an exact
        0.
        """
        n = self._program.num_variables
        bound = [1] * (2 * n + 1)
        widest = 2  # the free factor of a variable no row weighs
        for variable, (positive, negative) in columns.items():
            high = max(1, max(map(abs, positive)))
            low = max(1, max(map(abs, negative)))
            bound[variable] = high
            bound[n + variable] = low
            widest = max(widest, high + low)
        base = _np.array(bound, dtype=object)
        if self._pins is not None:
            base[self._pins] = 0
        tables = _Tables(base)
        plan = self._plan()
        weights = plan.branch_weights(tables)
        if plan.loose.size:
            weights[plan.loose] *= plan.loose_factor
        values = plan.upward(tables, weights, leaves=(1, 1), clamp=True)
        return max(widest, values[:self.num_nodes].max())

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
        one upward pass (:meth:`evaluate_columns`).
        """
        rows = list(weight_rows)
        if not rows:
            return []
        return self.evaluate_columns(len(rows), self._columns(rows))

    def evaluate_columns(self, count: int, columns: Columns) -> list:
        """:meth:`evaluate_many` for ``count`` rows given as weight columns.

        ``columns`` maps a countable variable to its ``(w⁺, w⁻)`` columns
        of ``count`` entries each; an unnamed variable weighs ``(1, 1)``
        in every row.  The row count picks the lane, recorded on the
        span: Python numbers for one row; for N > 1 rows numpy columns,
        int64 when the rows are machine ints whose intermediates provably
        fit, exact object columns otherwise.
        """
        with _span(
            "circuit.evaluate_many", nodes=self.num_nodes, rows=count,
        ) as span:
            lane, tables = self._tables(count, columns)
            span.fields["lane"] = lane
            plan = self._plan()
            values = plan.upward(tables, plan.branch_weights(tables))
            return _rows_of(values[self._program.root], count)

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
        equal to the looped results; the upward and downward passes each
        run once, on the lane :meth:`evaluate_many` would pick.
        """
        rows = list(weight_rows)
        if not rows:
            return []
        with _span(
            "circuit.literal_counts_many",
            nodes=self.num_nodes,
            rows=len(rows),
        ) as span:
            lane, tables = self._tables(len(rows), self._columns(rows))
            span.fields["lane"] = lane
            plan = self._plan()
            weights = plan.branch_weights(tables)
            values = plan.upward(tables, weights)
            counts = plan.downward(
                tables, weights, values, self._program.root
            )
            n = self._program.num_variables
            countable = self._program.countable
            per_row = counts.T.tolist()
            if len(per_row) < len(rows):  # no weight varies across rows
                per_row = per_row * len(rows)
            return [
                {
                    key: row[slot]
                    for variable in countable
                    for key, slot in ((variable, variable),
                                      (-variable, n + variable))
                }
                for row in per_row
            ]

    # -- exact sampling ----------------------------------------------------

    def sampler(self, weights: WeightMap | None = None) -> "CircuitSampler":
        """A reusable exact sampler over the circuit's (weighted) models."""
        return CircuitSampler(self, weights)


class CircuitSampler:
    """Draws countable-variable assignments with probability proportional
    to their weight, by one descent of the circuit's plan per sample.

    Construction runs one upward pass under the sampling weights and keeps
    each branch's mass, its weight times its child's value.  A sample
    starts at the root: a decision draws one of its branches by mass and
    sets the branch's literals, a product descends into every child, and
    a free leaf draws its variable by its two weights.  Draws are exact
    for int and Fraction weights; a negative weight is refused, since no
    probability law has it.

    Pins enter as the zeroed slots of one unit weight vector: a branch
    whose unit weight is 0, or that frees a variable pinned both ways, is
    dead, and a freed variable pinned one way is forced.  A decision with
    one live branch takes it without a draw, and a forced variable takes
    its pin, where the restricted formula's circuit has one branch or a
    forced literal, so seeded draws equal a fresh compile's.
    """

    def __init__(
        self, circuit: DDNNF, weights: WeightMap | None = None
    ) -> None:
        columns = circuit._columns([weights])
        if any(
            weight < 0 for pair in columns.values() for column in pair
            for weight in column
        ):
            raise ValueError("cannot sample under a negative weight")
        _lane, tables = circuit._tables(1, columns)
        plan = circuit._plan()
        branch_weights = plan.branch_weights(tables)
        values = plan.upward(tables, branch_weights)
        #: The (weighted) model count the draws are normalized by.
        self.total = values[circuit.root, 0]
        if not self.total:
            raise ValueError(
                "circuit has no (weighted) models; nothing to sample"
            )
        # Liveness: the same passes over the unit vector in booleans, every
        # decision clamped true, so a branch is live unless a pin
        # contradicts one of its literals or pins a freed variable both
        # ways; a free leaf with one live slot is forced.
        n = plan.num_variables
        pins = circuit._pins
        unit = _Tables(
            _np.ones(2 * n + 1, dtype=bool) if pins is None else ~pins
        )
        unit_weights = plan.branch_weights(unit)
        reach = plan.upward(unit, unit_weights, (True, True), clamp=True)
        live = (unit_weights & reach[plan.branch_child])[:, 0]
        # Each decision's branch range, and its one live branch (-1 when
        # it has more, and draws).
        heads = _heads(plan.branch_node)
        ends = _np.append(heads[1:], live.size)
        last_live = _np.maximum.reduceat(
            _np.where(live, _np.arange(live.size), -1), heads
        )
        only = _np.where(
            _np.add.reduceat(live, heads, dtype=_np.int64) == 1, last_live, -1
        )
        self._decisions = dict(zip(
            plan.branch_node[heads].tolist(),
            zip(heads.tolist(), ends.tolist(), only.tolist()),
        ))
        # A product pushes its children; a branch's virtual product pushes
        # the branch's child and draws its free leaves in order.
        first_leaf = circuit.num_nodes
        free_vars = plan.free_vars.tolist()
        kids = plan.product_child.tolist()
        bounds = _np.append(plan.product_runs.starts, len(kids)).tolist()
        self._products = {
            node: (kids[lo:hi], []) if node < first_leaf else (
                kids[lo:lo + 1],
                [free_vars[leaf - first_leaf] for leaf in kids[lo + 1:hi]],
            )
            for node, lo, hi in zip(
                plan.product_node.tolist(), bounds, bounds[1:]
            )
        }
        self._masses = (
            branch_weights[:, 0] * values[plan.branch_child, 0]
        ).tolist()
        self._children = plan.branch_child.tolist()
        slots = plan.factor_slot.tolist()
        starts = plan.factor_start.tolist() + [len(slots)]
        self._literals = [
            [
                (s, True) if s <= n else (s - n, False)
                for s in slots[lo:hi] if s
            ]
            for lo, hi in zip(starts, starts[1:])
        ]
        # A freed variable's pinned value, or the two weights it draws by.
        base, allowed = tables.base.tolist(), unit.base.tolist()
        self._free: dict[int, bool | tuple] = {
            v: allowed[v] if allowed[v] != allowed[n + v]
            else (base[v], base[n + v])
            for v in free_vars
        }
        self._root = circuit.root

    def sample(self, rng: random.Random) -> dict[int, bool]:
        """One assignment of every countable variable, drawn exactly."""
        decisions, products = self._decisions, self._products
        masses, literals = self._masses, self._literals
        children, free = self._children, self._free
        assignment: dict[int, bool] = {}
        stack = [self._root]
        while stack:
            node = stack.pop()
            decision = decisions.get(node)
            if decision is not None:
                lo, hi, only = decision
                branch = (
                    only if only >= 0
                    else lo + draw_index(rng, masses[lo:hi])
                )
                assignment.update(literals[branch])
                stack.append(children[branch])
            elif node in products:
                pushed, freed = products[node]
                stack.extend(pushed)
                for variable in freed:
                    pick = free[variable]
                    assignment[variable] = (
                        pick if isinstance(pick, bool)
                        else draw_index(rng, pick) == 0
                    )
            # A constant assigns nothing; the false one is never reached.
        return assignment


def _uniform(column: Sequence) -> bool:
    """Whether every row holds the same weight (equal value, same type)."""
    return (
        column.count(column[0]) == len(column)
        and len(set(map(type, column))) == 1
    )


def _rows_of(column: _np.ndarray, count: int) -> list:
    """A node's values as one Python number per row (a width-1 column
    serves every row)."""
    values = column.tolist()
    return values * count if len(values) < count else values


def draw_index(rng: random.Random, weights_seq: Sequence) -> int:
    """Index drawn with probability ``weights_seq[i] / sum``, exactly.

    Integer weights use ``randrange`` directly; Fractions (and floats,
    through their exact Fraction form) are scaled to a common denominator
    first, so the draw stays a single exact ``randrange``.  ``ValueError``
    on a negative weight or a zero total.
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
    if any(weight < 0 for weight in weights_seq):
        raise ValueError("cannot draw under a negative weight")
    total = sum(weights_seq)
    if not total:
        raise ValueError("cannot draw from zero total weight")
    target = rng.randrange(total)
    accumulated = 0
    for index, weight in enumerate(weights_seq):
        accumulated += weight
        if target < accumulated:
            return index
    raise AssertionError("unreachable: cumulative walk exhausted")
