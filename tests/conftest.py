"""Shared fixtures and hypothesis strategies for the test suite.

The strategies generate *small* instances by design: brute-force oracles are
exponential, and the point of the property tests is count equality between
independent implementations, not scale.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.graphs.graph import Graph

# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw, max_nodes: int = 6) -> Graph:
    """Random simple graphs with up to ``max_nodes`` nodes."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    graph = Graph(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                graph.add_edge(i, j)
    return graph


@st.composite
def small_bipartite_graphs(
    draw, max_side: int = 3, min_degree: int = 0
) -> Graph:
    """Random bipartite graphs over parts ``('a', i)`` / ``('b', j)``."""
    m = draw(st.integers(min_value=1, max_value=max_side))
    n = draw(st.integers(min_value=1, max_value=max_side))
    graph = Graph()
    left = [("a", i) for i in range(m)]
    right = [("b", j) for j in range(n)]
    for node in left + right:
        graph.add_node(node)
    for u in left:
        for v in right:
            if draw(st.booleans()):
                graph.add_edge(u, v)
    if min_degree > 0:
        for u in left:
            if graph.degree(u) == 0:
                graph.add_edge(u, draw(st.sampled_from(right)))
        for v in right:
            if graph.degree(v) == 0:
                graph.add_edge(v, draw(st.sampled_from(left)))
    return graph


# ---------------------------------------------------------------------------
# incomplete databases
# ---------------------------------------------------------------------------

CONSTANT_POOL = ["a", "b", "c", "out"]


@st.composite
def small_incomplete_dbs(
    draw,
    schema: dict[str, int] | None = None,
    uniform: bool | None = None,
    codd: bool | None = None,
    max_facts: int = 3,
    max_nulls: int = 3,
    max_domain: int = 3,
) -> IncompleteDatabase:
    """Random incomplete databases over a (possibly drawn) small schema."""
    if schema is None:
        num_relations = draw(st.integers(min_value=1, max_value=2))
        schema = {
            "R%d" % i: draw(st.integers(min_value=1, max_value=2))
            for i in range(num_relations)
        }
    make_uniform = draw(st.booleans()) if uniform is None else uniform
    make_codd = draw(st.booleans()) if codd is None else codd
    domain = CONSTANT_POOL[: draw(st.integers(min_value=1, max_value=max_domain))]

    fresh = [0]

    def fresh_null() -> Null:
        fresh[0] += 1
        return Null("f%d" % fresh[0])

    shared = [Null("s%d" % i) for i in range(max_nulls)]
    facts = []
    for relation in sorted(schema):
        arity = schema[relation]
        for _ in range(draw(st.integers(min_value=0, max_value=max_facts))):
            terms = []
            for _ in range(arity):
                if draw(st.booleans()):
                    terms.append(
                        fresh_null() if make_codd else draw(st.sampled_from(shared))
                    )
                else:
                    terms.append(draw(st.sampled_from(CONSTANT_POOL)))
            facts.append(Fact(relation, terms))

    if make_uniform:
        return IncompleteDatabase.uniform(facts, domain)
    used = set()
    for fact in facts:
        used |= fact.nulls()
    dom = {}
    for null in sorted(used):
        size = draw(st.integers(min_value=1, max_value=len(domain)))
        dom[null] = domain[:size]
    return IncompleteDatabase(facts, dom=dom)


@st.composite
def pattern_free_uniform_queries(draw) -> BCQ:
    """sjfBCQs avoiding all three Theorem 3.9 hard patterns."""
    queries = [
        BCQ([Atom("R", ["x"]), Atom("S", ["x"])]),
        BCQ([Atom("R", ["x"]), Atom("S", ["x"]), Atom("T", ["x"])]),
        BCQ([Atom("R", ["x"]), Atom("S", ["x"]), Atom("T", ["y"]), Atom("U", ["y"])]),
        BCQ([Atom("R", ["x", "z"]), Atom("S", ["x"])]),
        BCQ([Atom("R", ["x"]), Atom("S", ["y"])]),
    ]
    return draw(st.sampled_from(queries))


@st.composite
def random_sjf_queries(draw, max_arity: int = 3) -> BCQ:
    """Small random variable-only sjfBCQs: one to three atoms over the
    variables x, y, z, w."""
    num_atoms = draw(st.integers(1, 3))
    variables = ["x", "y", "z", "w"]
    atoms = []
    for index in range(num_atoms):
        arity = draw(st.integers(1, max_arity))
        terms = [draw(st.sampled_from(variables)) for _ in range(arity)]
        atoms.append(Atom("R%d" % index, terms))
    return BCQ(atoms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# canonical paper objects
# ---------------------------------------------------------------------------


@pytest.fixture
def figure1_db() -> IncompleteDatabase:
    """The running example of Figure 1 / Example 2.2."""
    n1, n2 = Null(1), Null(2)
    facts = [Fact("S", ["a", "b"]), Fact("S", [n1, "a"]), Fact("S", ["a", n2])]
    return IncompleteDatabase(
        facts, dom={n1: ["a", "b", "c"], n2: ["a", "b"]}
    )


@pytest.fixture
def figure1_query() -> BCQ:
    return BCQ([Atom("S", ["x", "x"])])
