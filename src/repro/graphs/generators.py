"""Deterministic and seeded-random graph generators for tests and benches."""

from __future__ import annotations

import random

from repro.graphs.graph import Graph


def path_graph(n: int) -> Graph:
    """Path on nodes ``0..n-1``."""
    graph = Graph(nodes=range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def cycle_graph(n: int) -> Graph:
    """Cycle on nodes ``0..n-1`` (requires ``n >= 3``)."""
    if n < 3:
        raise ValueError("a simple cycle needs at least 3 nodes")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0)
    return graph


def complete_graph(n: int) -> Graph:
    """``K_n``."""
    graph = Graph(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j)
    return graph


def star_graph(n: int) -> Graph:
    """Star with center ``0`` and leaves ``1..n``."""
    graph = Graph(nodes=range(n + 1))
    for leaf in range(1, n + 1):
        graph.add_edge(0, leaf)
    return graph


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """``K_{m,n}`` with parts ``('a', i)`` and ``('b', j)``."""
    graph = Graph()
    left = [("a", i) for i in range(m)]
    right = [("b", j) for j in range(n)]
    for node in left + right:
        graph.add_node(node)
    for u in left:
        for v in right:
            graph.add_edge(u, v)
    return graph


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi ``G(n, p)`` with a deterministic seed."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    graph = Graph(nodes=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                graph.add_edge(i, j)
    return graph
