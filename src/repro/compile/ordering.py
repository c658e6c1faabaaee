"""Treewidth-style variable orderings for the model counter.

Decomposition-based counters are fast exactly when their branching order
follows a good tree decomposition of the formula's primal graph — this is
the driving idea of ``dpdb`` (Fichte, Hecher, Thier, Woltran: *Exploiting
Database Management Systems and Treewidth for Counting*), which feeds a
tree decomposition of the CNF into a dynamic program.  Two consumers sit
on top of the greedy eliminations computed here:

* the **trail core** branches in *reverse* elimination order, so the
  residual formula falls apart into the decomposition's subtrees, which
  the component cache then conquers independently;
* the **dpdb backend** (:mod:`repro.compile.decompose` /
  :mod:`repro.compile.dpdb`) turns the elimination *bags* — the
  neighborhoods each vertex had at elimination time — directly into a
  rooted tree decomposition and runs the join/project/sum DP over it.

Internally the greedy loop runs over **integer bitsets**: each vertex's
neighborhood is one Python int with bit ``v`` set for neighbor ``v``, so a
fill count is a handful of word-wide ``&``/``~`` operations plus
``int.bit_count`` instead of a quadratic pair loop over Python sets.  On
the formulas the lineage compiler emits this is the difference between the
ordering dominating a count and the ordering being noise next to the
search.

The module has one primal-graph build and one elimination.
:func:`primal_masks` memoizes the bitset graph per CNF object, so the
planner's width probe, the decomposer and the model counter share one
build; :func:`refined_elimination_masks` is the one two-phase greedy
elimination all of them run, and :func:`branching_order` is its reverse
for the search.
"""

from __future__ import annotations

import weakref
from typing import Mapping

from repro.complexity.cnf import CNF

#: Above this many vertices min-fill's quadratic inner loop starts to hurt;
#: greedy min-degree is a standard cheaper surrogate.
MIN_FILL_VERTEX_LIMIT = 2_000

#: The two-phase orderings run cheap min-degree first and refine with
#: min-fill only when the min-degree width lands at or below this bound.
#: Both consumers are exponential in width (the search in its branching
#: width, the DP in its bag size), so where the width is small the
#: quadratic refinement is worth its price (a width shaved there can halve
#: the search or halve every DP table); where min-degree already reports a
#: large width the formula is either propagation-dominated or intractable
#: and min-fill is the bottleneck, not the width.
MIN_FILL_REFINE_WIDTH = 24


#: Per-CNF memo of :func:`primal_masks`: ``cnf -> (num_clauses,
#: num_variables, masks)``.  The CNF class is an incremental builder, so
#: the entry is validated against the formula's current shape and rebuilt
#: when clauses were added since it was cached.  Weak keys keep the memo
#: from pinning formulas alive.
_PRIMAL_CACHE: "weakref.WeakKeyDictionary[CNF, tuple[int, int, dict[int, int]]]"
_PRIMAL_CACHE = weakref.WeakKeyDictionary()


def primal_masks(cnf: CNF) -> dict[int, int]:
    """The primal graph as ``variable -> neighborhood bitset``.

    Vertices are the variables occurring in at least one clause; two are
    adjacent when they co-occur in a clause.  One pass over the clause
    list: every clause contributes its variable bitset to each member's
    adjacency mask (self-bits cleared at the end).

    The result is memoized per CNF object (invalidated when the clause or
    variable count changes), so the planner's width probe,
    :func:`branching_order` and the dpdb decomposer all share one build.
    Callers must treat the returned dict as read-only.
    """
    cached = _PRIMAL_CACHE.get(cnf)
    if cached is not None:
        num_clauses, num_variables, masks = cached
        if num_clauses == len(cnf) and num_variables == cnf.num_variables:
            return masks
    masks = _primal_masks_uncached(cnf)
    try:
        _PRIMAL_CACHE[cnf] = (len(cnf), cnf.num_variables, masks)
    except TypeError:  # pragma: no cover - CNF subclasses without weakrefs
        pass
    return masks


def _primal_masks_uncached(cnf: CNF) -> dict[int, int]:
    masks: dict[int, int] = {}
    for clause in cnf.clauses:
        clause_mask = 0
        for literal in clause:
            clause_mask |= 1 << (literal if literal > 0 else -literal)
        for literal in clause:
            variable = literal if literal > 0 else -literal
            masks[variable] = masks.get(variable, 0) | clause_mask
    for variable in masks:
        masks[variable] &= ~(1 << variable)
    return masks


def _greedy_eliminate(
    masks: Mapping[int, int], use_min_fill: bool, delay: int
) -> tuple[list[int], int, list[int]]:
    """One greedy elimination pass: min-fill or min-degree score, ties
    broken by vertex index, neighborhoods turned into cliques on
    elimination.

    Returns ``(order, width, bags)`` where ``bags[i]`` is the bitset of
    ``order[i]`` plus its (fill-graph) neighbors alive at elimination time
    — exactly the bag the elimination induces in the tree decomposition.
    Vertices whose bit is set in ``delay`` are only eligible once no other
    vertex remains, which forces them into the *late* (root-side) bags;
    the projected DP uses this to keep the projection variables above
    every auxiliary variable.
    """
    adjacency = dict(masks)

    alive = 0
    for vertex in adjacency:
        alive |= 1 << vertex

    order: list[int] = []
    bags: list[int] = []
    width = 0
    while adjacency:
        eager_only = bool(alive & ~delay)
        best_vertex = -1
        best_score = None
        for vertex in adjacency:
            if eager_only and (delay >> vertex) & 1:
                continue
            neighbors = adjacency[vertex] & alive
            if use_min_fill:
                score = 0
                remaining = neighbors
                while remaining:
                    low = remaining & -remaining
                    u = low.bit_length() - 1
                    remaining ^= low
                    # neighbors of `vertex` that u is not adjacent to
                    # (counted once per unordered pair: only bits above u)
                    score += (remaining & ~adjacency[u]).bit_count()
            else:
                score = neighbors.bit_count()
            if best_score is None or (score, vertex) < (best_score, best_vertex):
                best_score, best_vertex = score, vertex
        neighbors = adjacency.pop(best_vertex) & alive
        alive &= ~(1 << best_vertex)
        order.append(best_vertex)
        bags.append(neighbors | (1 << best_vertex))
        width = max(width, neighbors.bit_count())
        remaining = neighbors
        while remaining:
            low = remaining & -remaining
            u = low.bit_length() - 1
            remaining ^= low
            adjacency[u] = (adjacency[u] | neighbors) & ~low
    return order, width, bags


def refined_elimination_masks(
    masks: Mapping[int, int], delay: int = 0
) -> tuple[list[int], int, list[int]]:
    """The one elimination: two-phase greedy over adjacency bitsets.

    Min-degree first (linear-ish, and its width is a usable difficulty
    estimate), then a min-fill refinement only where the width is small
    enough for the refinement to matter (:data:`MIN_FILL_REFINE_WIDTH`)
    and the graph small enough for its quadratic loop
    (:data:`MIN_FILL_VERTEX_LIMIT`); the better of the two widths wins.
    Returns ``(order, width, bags)``; ``width`` — the largest neighborhood
    at elimination time — is the width of the tree decomposition the
    order induces, an upper bound on the treewidth.  The dpdb width probe,
    the decomposer and :func:`branching_order` all run this, so the width
    the planner quotes is the width the decomposition actually gets.
    """
    order, width, bags = _greedy_eliminate(masks, use_min_fill=False, delay=delay)
    if width <= MIN_FILL_REFINE_WIDTH and len(masks) <= MIN_FILL_VERTEX_LIMIT:
        fill_order, fill_width, fill_bags = _greedy_eliminate(
            masks, use_min_fill=True, delay=delay
        )
        if fill_width < width:
            order, width, bags = fill_order, fill_width, fill_bags
    return order, width, bags


def branching_order(cnf: CNF) -> tuple[list[int], int]:
    """Static branching order for the counter: reverse elimination order.

    The last vertex eliminated corresponds to the root bag of the induced
    tree decomposition; assigning it first disconnects the decomposition's
    subtrees, so component splitting fires as early as possible.  Variables
    absent from every clause are unconstrained and omitted.  Also returns
    the induced width as a difficulty estimate.  (The counter turns the
    order into a flat positional rank table itself.)
    """
    order, width, _ = refined_elimination_masks(primal_masks(cnf))
    order.reverse()
    return order, width
