"""Prop. 4.2: ``#CompCd(R(x))`` is #P-hard via counting vertex covers.

A *parsimonious* reduction: for ``G = (V, E)`` build the Codd table

* ``R(⊥_e)`` with ``dom(⊥_e) = {u, v}`` for every edge ``e = {u, v}``
  (every completion must pick an endpoint of each edge — a cover);
* ``R(⊥_u)`` with ``dom(⊥_u) = {u, a}`` for every node (each node is
  independently in or out, absorbed by the fresh constant ``a``);
* the fact ``R(a)``.

Completions are in bijection with vertex covers: ``#VC(G) =
#CompCd(R(x))(D_G)``.  Because ``S`` is a vertex cover iff ``V \\ S`` is an
independent set, the same database also counts independent sets — the
observation Section 5.2 uses to rule out an FPRAS (Theorem 5.5).
"""

from __future__ import annotations

from typing import Callable

from repro.core.patterns import PATTERN_UNARY
from repro.core.query import BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_completions_brute
from repro.graphs.graph import Graph

#: The query of Prop. 4.2 (every completion trivially satisfies it).
QUERY: BCQ = PATTERN_UNARY

Oracle = Callable[[IncompleteDatabase, BCQ], int]

#: The fresh absorbing constant of the construction.
FRESH = ("fresh", "a")


def build_vertex_cover_db(graph: Graph) -> IncompleteDatabase:
    """The Codd table of Prop. 4.2."""
    facts = [Fact("R", [FRESH])]
    domains: dict[Null, list] = {}
    for u, v in graph.edges:
        null = Null(("edge", u, v))
        domains[null] = [("node", u), ("node", v)]
        facts.append(Fact("R", [null]))
    for node in graph.nodes:
        null = Null(("node", node))
        domains[null] = [("node", node), FRESH]
        facts.append(Fact("R", [null]))
    return IncompleteDatabase(facts, dom=domains)


def count_vertex_covers_via_completions(
    graph: Graph, oracle: Oracle = count_completions_brute
) -> int:
    """``#VC(G) = #CompCd(R(x))(D_G)`` — the reduction is parsimonious."""
    db = build_vertex_cover_db(graph)
    return oracle(db, QUERY)
