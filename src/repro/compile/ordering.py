"""Treewidth-style variable orderings for the model counter.

Decomposition-based counters are fast exactly when their branching order
follows a good tree decomposition of the formula's primal graph — this is
the driving idea of ``dpdb`` (Fichte, Hecher, Thier, Woltran: *Exploiting
Database Management Systems and Treewidth for Counting*), which feeds a
tree decomposition of the CNF into a dynamic program.  Two consumers sit
on top of the greedy eliminations computed here:

* the **trail core** branches in *reverse* elimination order, so the
  residual formula falls apart into the decomposition's subtrees, which
  the component cache then conquers independently.  A full count orders
  by nulls: :func:`exactly_one_blocks` finds the formula's exactly-one
  blocks, and :func:`branching_order` eliminates the graph that contracts
  each block to one vertex, then lists the block's variables together;
* the **dpdb backend** (:mod:`repro.compile.dpdb`) reads a rooted tree
  decomposition straight off the elimination *bags* — each vertex with
  the neighborhood it had at elimination time — and runs the
  join/project/sum DP over it.

Internally the greedy loop runs over **integer bitsets**: each vertex's
neighborhood is one Python int with bit ``v`` set for neighbor ``v``, so
intersecting two neighborhoods and counting the result is one word-wide
``&`` plus ``int.bit_count`` instead of a loop over Python sets.  On
the formulas the lineage compiler emits this is the difference between the
ordering dominating a count and the ordering being noise next to the
search.

The loop is also **incremental**: scores sit in a heap, and an elimination
rescores only the vertices whose score it changed.  A min-degree score is
a popcount.  A min-fill score is ``C(d, 2) - t``, where ``t`` counts the
edges among the vertex's neighbors and is maintained edge by edge as the
graph changes, so no neighborhood is ever rescanned.  The result is
exactly a full rescan's, tie-break and delay included; the rescan loop
lives on in ``tests/test_compile_sharpsat.py`` as the oracle.

The module has one primal-graph build and one elimination.
:func:`primal_masks` memoizes the bitset graph per CNF object, so the
planner's width probe, the DP and the model counter share one
build; :func:`refined_elimination_masks` is the one two-phase greedy
elimination all of them run, and :func:`branching_order` is its reverse
for the search (over the block-contracted graph when given blocks).
"""

from __future__ import annotations

import heapq
import weakref
from typing import Mapping, Sequence

from repro.complexity.cnf import CNF

#: Above this many vertices only the min-degree pass runs: a min-fill
#: score needs every vertex's triangle count up front and an update at
#: each common neighbor of every fill edge, where a degree is one popcount.
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
    :func:`branching_order` and the dpdb DP all share one build.
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
    masks: Mapping[int, int],
    use_min_fill: bool,
    delay: int,
    stop_width: int | None = None,
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
    every auxiliary variable.  With ``stop_width``, the pass ends as soon
    as the width reaches it and returns what it has so far.

    ``masks`` is an undirected graph (``u`` in ``v``'s mask iff ``v`` in
    ``u``'s), as :func:`primal_masks` builds it.  The live scores sit in
    a heap keyed ``(delayed, score, vertex)``, so each step pops the
    vertex a full rescan would pick; an entry whose score has changed
    since it was pushed is skipped when it surfaces.  The adjacency masks
    hold live vertices only.  Eliminating ``v`` changes the graph only
    inside ``v``'s neighborhood ``N``: each member loses ``v`` and gains
    the rest of ``N``.  So a degree can change only in ``N``.  Min-fill
    scores ``C(d, 2) - triangles[u]``, where ``triangles[u]`` counts the
    edges among ``u``'s neighbors; :func:`_fill_in` keeps those counts
    exact, and they can change only in ``N`` and at the common neighbors
    of a fill edge's two ends.  Only those vertices are rescored; every
    other score is still exact.
    """
    adjacency = dict(masks)
    triangles: dict[int, int] = {}
    scores: dict[int, int] = {}
    for vertex, mask in adjacency.items():
        score = mask.bit_count()
        if use_min_fill:
            count = 0
            remaining = mask
            while remaining:  # each edge among the neighbors from its lower end
                low = remaining & -remaining
                remaining ^= low
                count += (remaining & adjacency[low.bit_length() - 1]).bit_count()
            triangles[vertex] = count
            score = score * (score - 1) // 2 - count
        scores[vertex] = score
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
        degree = neighbors.bit_count()
        if degree > width:
            width = degree
            if stop_width is not None and width >= stop_width:
                break
        if use_min_fill:
            rescore = neighbors | _fill_in(vertex, neighbors, adjacency, triangles)
        else:
            rescore = neighbors
            remaining = neighbors
            while remaining:
                low = remaining & -remaining
                u = low.bit_length() - 1
                remaining ^= low
                adjacency[u] = (adjacency[u] | neighbors) & ~(low | bit)
        while rescore:
            low = rescore & -rescore
            u = low.bit_length() - 1
            rescore ^= low
            new = adjacency[u].bit_count()
            if use_min_fill:
                new = new * (new - 1) // 2 - triangles[u]
            if new != scores[u]:
                scores[u] = new
                heapq.heappush(heap, ((delay >> u) & 1, new, u))
    return order, width, bags


def _fill_in(
    vertex: int, neighbors: int, adjacency: dict[int, int], triangles: dict[int, int]
) -> int:
    """Eliminate ``vertex`` for min-fill, keeping ``triangles`` exact: join
    every non-adjacent pair of its ``neighbors`` ``N``, one edge at a
    time, then drop ``vertex``.  A new edge ``(a, b)`` adds
    ``|N(a) ∩ N(b)|`` at ``a`` and at ``b`` and one at each common
    neighbor.  Once a member's own fill edges are in, ``vertex`` leaves it
    and takes the ``|N| - 1`` edges it had to the rest of ``N``.  Returns
    the bitset of the common neighbors met, ``vertex`` aside."""
    bit = 1 << vertex
    clique = neighbors.bit_count() - 1
    touched = 0
    remaining = neighbors
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        a = low.bit_length() - 1
        mask_a = adjacency[a]
        missing = remaining & ~mask_a
        while missing:
            low_b = missing & -missing
            missing ^= low_b
            b = low_b.bit_length() - 1
            mask_b = adjacency[b]
            common = mask_a & mask_b
            count = common.bit_count()
            triangles[a] += count
            triangles[b] += count
            common ^= bit  # still a common neighbor of every pair
            touched |= common
            while common:
                low_c = common & -common
                common ^= low_c
                triangles[low_c.bit_length() - 1] += 1
            mask_a |= low_b
            adjacency[b] = mask_b | low
        adjacency[a] = mask_a ^ bit
        triangles[a] -= clique
    return touched


def refined_elimination_masks(
    masks: Mapping[int, int], delay: int = 0
) -> tuple[list[int], int, list[int]]:
    """The one elimination: two-phase greedy over adjacency bitsets.

    Min-degree first (linear-ish, and its width is a usable difficulty
    estimate), then a min-fill refinement only where the width is small
    enough for the refinement to matter (:data:`MIN_FILL_REFINE_WIDTH`)
    and the graph small enough for its bookkeeping
    (:data:`MIN_FILL_VERTEX_LIMIT`); min-fill wins only when strictly
    narrower, so its pass stops as soon as its width reaches min-degree's.
    Returns ``(order, width, bags)``; ``width`` — the largest neighborhood
    at elimination time — is the width of the tree decomposition the
    order induces, an upper bound on the treewidth.  The dpdb width probe,
    the DP and :func:`branching_order` all run this, so the width the
    planner quotes is the width the DP's tree actually gets.
    """
    order, width, bags = _greedy_eliminate(masks, use_min_fill=False, delay=delay)
    if width <= MIN_FILL_REFINE_WIDTH and len(masks) <= MIN_FILL_VERTEX_LIMIT:
        fill_order, fill_width, fill_bags = _greedy_eliminate(
            masks, use_min_fill=True, delay=delay, stop_width=width
        )
        if fill_width < width:
            order, width, bags = fill_order, fill_width, fill_bags
    return order, width, bags


def exactly_one_blocks(cnf: CNF) -> list[tuple[int, ...]]:
    """The formula's exactly-one blocks, as ascending variable tuples.

    A block is an all-positive clause of two or more literals whose
    members are pairwise excluded by ``(-x, -y)`` binary clauses: the
    shape :meth:`~repro.complexity.cnf.CNF.add_exactly_one` writes for
    each null's choice variables, so in a ``#Val`` encoding a block is a
    null and its models are the null's values.  Blocks are disjoint:
    clauses are read in order, and one that shares a variable with a
    block already found is not a block.  (Clauses are stored sorted, so a
    pair and a block list their variables ascending.)
    """
    clauses = cnf.clauses
    excluded = {
        (-clause[0], -clause[1])
        for clause in clauses
        if len(clause) == 2 and clause[0] < 0 and clause[1] < 0
    }
    blocks: list[tuple[int, ...]] = []
    taken: set[int] = set()
    for clause in clauses:
        if (
            len(clause) < 2
            or min(clause) < 0
            or not taken.isdisjoint(clause)
            or not all(
                (left, right) in excluded
                for i, left in enumerate(clause) for right in clause[i + 1:]
            )
        ):
            continue
        blocks.append(clause)
        taken.update(clause)
    return blocks


def branching_order(
    cnf: CNF, blocks: Sequence[Sequence[int]] = ()
) -> tuple[list[int], int]:
    """Static branching order for the counter: reverse elimination order.

    The last vertex eliminated corresponds to the root bag of the induced
    tree decomposition; assigning it first disconnects the decomposition's
    subtrees, so component splitting fires as early as possible.  Variables
    absent from every clause are unconstrained and omitted.  Also returns
    the induced width as a difficulty estimate.  (The counter turns the
    order into a flat positional rank table itself.)

    With ``blocks`` (disjoint variable sets, as :func:`exactly_one_blocks`
    finds them) the elimination runs on the quotient graph that contracts
    each block to its lowest variable, so a null is ordered as one vertex;
    the reversed order then lists each block's variables together,
    ascending, where its vertex stands.  The width stays a variable-level
    figure: the largest bag, blocks expanded, less one.
    """
    masks = primal_masks(cnf)
    if not blocks:
        order, width, _ = refined_elimination_masks(masks)
        order.reverse()
        return order, width
    head = list(range(cnf.num_variables + 1))
    members: dict[int, list[int]] = {}
    for block in blocks:
        block = sorted(block)
        members[block[0]] = block
        for variable in block:
            head[variable] = block[0]
    quotient: dict[int, int] = {}
    for variable, mask in masks.items():
        contracted = 0
        while mask:
            low = mask & -mask
            mask ^= low
            contracted |= 1 << head[low.bit_length() - 1]
        vertex = head[variable]
        quotient[vertex] = quotient.get(vertex, 0) | contracted
    for vertex in quotient:
        quotient[vertex] &= ~(1 << vertex)
    order, _width, bags = refined_elimination_masks(quotient)
    grouped = sum(1 << vertex for vertex in members)
    width = 0
    for bag in bags:
        size = bag.bit_count()
        rest = bag & grouped
        while rest:
            low = rest & -rest
            rest ^= low
            size += len(members[low.bit_length() - 1]) - 1
        width = max(width, size - 1)
    order.reverse()
    return [
        variable for vertex in order for variable in members.get(vertex, (vertex,))
    ], width
