"""Rooted tree decompositions from greedy elimination orderings.

A greedy elimination of the primal graph already *is* a tree decomposition
in disguise: when vertex ``v`` is eliminated, ``{v} ∪ N_alive(v)`` — the
bag :func:`~repro.compile.ordering.refined_elimination_masks` returns
with the order — is a valid bag, and connecting each bag to the bag of
the *first-eliminated* vertex among ``N_alive(v)`` yields a tree (a
forest, one tree per connected component) whose width is the elimination
width.  :func:`decompose` runs that one elimination itself;
:func:`decompose_from_elimination` takes one the planner's width probe
already ran.  This module materializes the structure:

* ``parent[i]`` / ``children[i]`` — the rooted forest over elimination
  positions; position ``i`` eliminates ``order[i]``, and parents always
  come *later* in the order, so ascending position is a leaves-first
  topological schedule (the DP needs no recursion);
* every clause is attached to the bag of its first-eliminated variable,
  which provably contains all of the clause's variables (a clause is a
  clique of the primal graph);
* each node's **separator** (``bag minus the eliminated vertex``) is the
  interface its DP message crosses — it is always a subset of the parent
  bag, which is what makes the join/project/sum recurrence of
  :mod:`repro.compile.dpdb` well-defined.

In nice-decomposition vocabulary each node *forgets* its eliminated
vertex (the projection step), *introduces* the bag variables no child
separator covers, and *joins* when it has two or more children.
:meth:`Decomposition.stats` reports the headline numbers the obs layer
records.

``projection`` support: eliminating every auxiliary (non-projected)
variable *before* any projected one (the elimination's ``delay`` mask)
splits the forest into a pure-auxiliary zone below a pure-projected
zone, which is exactly the shape the projected DP needs — see
:mod:`repro.compile.dpdb` for why an existence-clamp at the zone boundary
then computes the projected count.  The constrained order can have a
larger width than the free one; that honest, larger number is what the
planner's probe quotes for projected (``#Comp``) instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.complexity.cnf import CNF
from repro.compile.ordering import primal_masks, refined_elimination_masks
from repro.obs import span as _span


@dataclass
class Decomposition:
    """A rooted tree decomposition over elimination positions.

    ``order[i]`` is the variable eliminated at position ``i``; ``bags[i]``
    its bag as a bitset (bit ``v`` set for variable ``v``); ``parent[i]``
    a later position or ``-1`` for roots (one root per connected
    component of the primal graph).  ``node_clauses[i]`` holds the input
    clauses whose variables all live in ``bags[i]`` and are checked there.
    """

    num_variables: int
    order: list[int]
    bags: list[int]
    parent: list[int]
    children: list[list[int]]
    roots: list[int]
    width: int
    node_clauses: list[list[tuple[int, ...]]]
    #: Variables in no clause at all; they never enter a bag and
    #: contribute a free factor at the very end of the DP.
    free_variables: tuple[int, ...] = ()
    #: Bitset of projected variables when built for a projected count.
    projection_mask: int = 0

    def __len__(self) -> int:
        return len(self.order)

    @property
    def max_bag(self) -> int:
        return max((bag.bit_count() for bag in self.bags), default=0)

    def separator(self, node: int) -> int:
        """The bag minus the eliminated vertex: the parent-facing interface."""
        return self.bags[node] & ~(1 << self.order[node])

    def stats(self) -> dict[str, int]:
        """The headline numbers the obs spans record."""
        return {
            "nodes": len(self.order),
            "width": self.width,
            "max_bag": self.max_bag,
            "roots": len(self.roots),
            "clauses": sum(len(cs) for cs in self.node_clauses),
            "free_variables": len(self.free_variables),
        }


def decompose(
    cnf: CNF, projection: Iterable[int] | None = None
) -> Decomposition:
    """Build a rooted tree decomposition of ``cnf``'s primal graph.

    With ``projection``, the elimination is constrained to take every
    non-projected variable first (see the module docstring); the reported
    width is the width of that constrained decomposition.  The primal
    masks come from the per-CNF cache, so a planner probe that already
    ran on this formula costs the decomposer nothing.
    """
    masks = primal_masks(cnf)
    projection_mask = 0
    if projection is not None:
        for variable in projection:
            projection_mask |= 1 << variable
    with _span(
        "dpdb.decompose",
        variables=cnf.num_variables,
        clauses=len(cnf),
        projected=projection_mask.bit_count(),
    ):
        order, width, bags = refined_elimination_masks(
            masks, delay=projection_mask
        )
        return _assemble(cnf, masks, order, width, bags, projection_mask)


def decompose_from_elimination(
    cnf: CNF,
    order: list[int],
    width: int,
    bags: list[int],
    projection_mask: int = 0,
) -> Decomposition:
    """Assemble a :class:`Decomposition` from a precomputed elimination.

    The dpdb runner feeds the (memoized) planner probe's order straight
    in here, so probing and solving share one greedy elimination.
    """
    with _span(
        "dpdb.decompose",
        variables=cnf.num_variables,
        clauses=len(cnf),
        projected=projection_mask.bit_count(),
        reused_probe=True,
    ):
        return _assemble(
            cnf, primal_masks(cnf), order, width, bags, projection_mask
        )


def _assemble(
    cnf: CNF,
    masks: Mapping[int, int],
    order: list[int],
    width: int,
    bags: list[int],
    projection_mask: int,
) -> Decomposition:
    position = {variable: index for index, variable in enumerate(order)}

    parent = [-1] * len(order)
    children: list[list[int]] = [[] for _ in order]
    roots: list[int] = []
    for index, variable in enumerate(order):
        separator = bags[index] & ~(1 << variable)
        if separator:
            # The first-eliminated separator vertex hosts the parent bag;
            # the separator is a clique there, so containment holds.
            up = min(position[v] for v in _bits(separator))
            parent[index] = up
            children[up].append(index)
        else:
            roots.append(index)

    node_clauses: list[list[tuple[int, ...]]] = [[] for _ in order]
    for clause in cnf.clauses:
        if not clause:
            # The empty clause has no home bag; the DP layer checks for
            # it up front and short-circuits to zero.
            continue
        home = min(position[abs(literal)] for literal in clause)
        node_clauses[home].append(clause)

    free = tuple(
        variable
        for variable in range(1, cnf.num_variables + 1)
        if variable not in masks
    )
    return Decomposition(
        num_variables=cnf.num_variables,
        order=order,
        bags=bags,
        parent=parent,
        children=children,
        roots=roots,
        width=width,
        node_clauses=node_clauses,
        free_variables=free,
        projection_mask=projection_mask,
    )


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


__all__ = ["Decomposition", "decompose", "decompose_from_elimination"]
