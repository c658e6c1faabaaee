"""Prop. 5.6: no FPRAS for ``#Compu(R(x,x))`` / ``#Compu(R(x,y))`` unless
NP = RP — the 3-colorability gap gadget.

The constructed uniform database over one binary relation (domain
``{1,2,3}``) has **8** completions when ``G`` is 3-colorable and **7**
otherwise:

* *encoding facts* ``R(⊥_u, ⊥_v)``/``R(⊥_v, ⊥_u)`` per edge;
* the six *triangle facts* ``R(i, j)``, ``i != j``;
* three *auxiliary* null pairs making every self-loop pattern reachable;
* ``R(c, c)`` on a fresh constant (so both queries hold everywhere).

A completion is the triangle plus a set of self-loops (always at least one
unless the encoding nulls form a proper 3-coloring), so an approximation
with relative error 1/16 would separate 8 from 7 and decide 3-colorability
in BPP — implying NP = RP.  :func:`decide_three_colorability_via_approximation`
executes that argument literally.
"""

from __future__ import annotations

from typing import Callable

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.graphs.graph import Graph

QUERY = BCQ([Atom("R", ["x", "x"])])

Oracle = Callable[[IncompleteDatabase, BCQ], int]

FRESH = ("fresh", "c")


def build_gap_db(graph: Graph) -> IncompleteDatabase:
    """The Prop. 5.6 gadget database for ``graph``."""
    facts = []
    node_null = {node: Null(("node", node)) for node in graph.nodes}
    for u, v in graph.edges:  # encoding facts
        facts.append(Fact("R", [node_null[u], node_null[v]]))
        facts.append(Fact("R", [node_null[v], node_null[u]]))
    for i in (1, 2, 3):  # triangle facts
        for j in (1, 2, 3):
            if i != j:
                facts.append(Fact("R", [i, j]))
    for i in (1, 2, 3):  # auxiliary facts
        first = Null(("aux", i))
        second = Null(("aux-prime", i))
        facts.append(Fact("R", [first, second]))
        facts.append(Fact("R", [second, first]))
    facts.append(Fact("R", [FRESH, FRESH]))
    return IncompleteDatabase.uniform(facts, (1, 2, 3))


def _solve_completions(db: IncompleteDatabase, query: BCQ) -> int:
    """The default exact oracle: ``#Comp(q)(D)`` through :func:`repro.solve`
    (imported per call: the reductions do not depend on the planner at
    import time)."""
    from repro.exact.dispatch import solve

    return solve("comp", db, query).count


def is_three_colorable_via_completions(
    graph: Graph, oracle: Oracle = _solve_completions
) -> bool:
    """Decide 3-colorability from an exact ``#Compu`` oracle: the gadget
    has 8 completions iff ``G`` is 3-colorable, 7 otherwise."""
    db = build_gap_db(graph)
    completions = oracle(db, QUERY)
    if completions not in (7, 8):
        raise ArithmeticError(
            "gadget must have 7 or 8 completions, oracle said %d"
            % completions
        )
    return completions == 8


def decide_three_colorability_via_approximation(
    graph: Graph,
    approximator: Callable[[IncompleteDatabase, BCQ, float], float],
    epsilon: float = 1.0 / 16.0,
) -> bool:
    """The BPP algorithm of Prop. 5.6: accept iff the (claimed) 1/16-FPRAS
    output is >= 7.5.

    ``approximator(db, query, epsilon)`` returns the approximate completion
    count.  With a genuine 1/16-approximation this decides 3-colorability
    with probability >= 3/4 — which is why no FPRAS can exist unless
    NP = RP.
    """
    db = build_gap_db(graph)
    estimate = approximator(db, QUERY, epsilon)
    return estimate >= 7.5
