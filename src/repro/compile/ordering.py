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

The loop is also **incremental**: scores sit in a heap, and an elimination
rescores only its neighbors and, for min-fill, the vertices with two or
more of them as neighbors, the only scores it can change.  The result is
exactly a full rescan's, tie-break and delay included; the rescan loop
lives on in ``tests/test_compile_sharpsat.py`` as the oracle.

The module has one primal-graph build and one elimination.
:func:`primal_masks` memoizes the bitset graph per CNF object, so the
planner's width probe, the decomposer and the model counter share one
build; :func:`refined_elimination_masks` is the one two-phase greedy
elimination all of them run, and :func:`branching_order` is its reverse
for the search.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Mapping

from repro.complexity.cnf import CNF

#: Above this many vertices only the min-degree pass runs: min-fill also
#: rescores the neighbors' neighbors, and each fill count walks a whole
#: neighborhood where a degree is one popcount.
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


def _fill_count(neighbors: int, adjacency: Mapping[int, int]) -> int:
    """The min-fill score: pairs of ``neighbors`` not yet adjacent, each
    counted once (from its lower end, against the bits above it)."""
    score = 0
    remaining = neighbors
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        score += (remaining & ~adjacency[low.bit_length() - 1]).bit_count()
    return score


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

    ``masks`` is an undirected graph (``u`` in ``v``'s mask iff ``v`` in
    ``u``'s), as :func:`primal_masks` builds it.  The live scores sit in
    a heap keyed ``(delayed, score, vertex)``, so each step pops the
    vertex a full rescan would pick; an entry whose score has changed
    since it was pushed is skipped when it surfaces.  The adjacency masks
    hold live vertices only.  Eliminating ``v`` changes the graph only
    inside ``v``'s neighborhood ``N``: each member loses ``v`` and gains
    the rest of ``N``.  So a degree can change only in ``N``.  A fill
    count can change only in ``N`` or at a vertex with two or more
    neighbors in ``N``, since every fill edge joins two members of ``N``.
    Only those vertices are rescored; every other score is still exact.
    """
    adjacency = dict(masks)
    scores = {
        vertex: _fill_count(mask, adjacency) if use_min_fill else mask.bit_count()
        for vertex, mask in adjacency.items()
    }
    heap = [((delay >> vertex) & 1, score, vertex) for vertex, score in scores.items()]
    heapq.heapify(heap)

    order: list[int] = []
    bags: list[int] = []
    width = 0
    while heap:
        _delayed, score, vertex = heapq.heappop(heap)
        if scores.get(vertex) != score:
            continue  # eliminated, or rescored since this entry was pushed
        del scores[vertex]
        neighbors = adjacency.pop(vertex)
        bit = 1 << vertex
        order.append(vertex)
        bags.append(neighbors | bit)
        width = max(width, neighbors.bit_count())
        rescore = neighbors
        remaining = neighbors
        while remaining:
            low = remaining & -remaining
            u = low.bit_length() - 1
            remaining ^= low
            adjacency[u] = (adjacency[u] | neighbors) & ~(low | bit)
            if use_min_fill:
                rescore |= adjacency[u]
        while rescore:
            low = rescore & -rescore
            u = low.bit_length() - 1
            rescore ^= low
            mask = adjacency[u]
            if not low & neighbors and (mask & neighbors).bit_count() < 2:
                continue  # no fill edge joined two of its neighbors
            new = _fill_count(mask, adjacency) if use_min_fill else mask.bit_count()
            if new != scores[u]:
                scores[u] = new
                heapq.heappush(heap, ((delay >> u) & 1, new, u))
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
