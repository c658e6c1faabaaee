"""Hamiltonicity and the ``#HamSubgraphs`` problem (Theorem 6.4).

``#HamSubgraphs`` — given ``(G, k)``, count the ``k``-node induced subgraphs
``G[S]`` that are Hamiltonian — is SpanP-complete (Prop. D.5, citing Köbler,
Schöning and Torán) and is the source of the SpanP-hardness of ``#Valu(q)``
for a fixed query with NP model checking.  We implement the exact counter:
Held-Karp bitmask dynamic programming for the Hamiltonian-cycle test inside
a subset enumeration.
"""

from __future__ import annotations

from itertools import combinations

from repro.graphs.graph import Graph, Node


def is_hamiltonian(graph: Graph) -> bool:
    """True when ``graph`` contains a cycle visiting every node exactly once.

    Conventions follow the paper's graph model: the one-node graph is not
    Hamiltonian (no self-loops) and neither is the two-node graph (no
    parallel edges); the empty graph is vacuously not Hamiltonian.
    Held-Karp DP, ``O(2^n * n^2)``.
    """
    nodes = graph.nodes
    n = len(nodes)
    if n < 3:
        return False
    index = {node: i for i, node in enumerate(nodes)}
    adjacency = [0] * n
    for u, v in graph.edges:
        adjacency[index[u]] |= 1 << index[v]
        adjacency[index[v]] |= 1 << index[u]
    if any(mask == 0 for mask in adjacency):
        return False

    # reachable[mask] = bitmask of endpoints x such that some simple path
    # starts at node 0, visits exactly `mask`, and ends at x.
    start_bit = 1
    size = 1 << n
    reachable = [0] * size
    reachable[start_bit] = start_bit
    full = size - 1
    for mask in range(size):
        endpoints = reachable[mask]
        if not endpoints or not mask & start_bit:
            continue
        remaining = full & ~mask
        current = endpoints
        while current:
            low = current & -current
            endpoint = low.bit_length() - 1
            current ^= low
            extensions = adjacency[endpoint] & remaining
            while extensions:
                next_low = extensions & -extensions
                reachable[mask | next_low] |= next_low
                extensions ^= next_low
    final_endpoints = reachable[full]
    return bool(final_endpoints & adjacency[0])


def count_hamiltonian_induced_subgraphs(graph: Graph, k: int) -> int:
    """``#HamSubgraphs(G, k)``: induced ``k``-subsets whose subgraph is
    Hamiltonian (Definition D.4)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    nodes = graph.nodes
    if k > len(nodes):
        return 0
    count = 0
    for subset in combinations(nodes, k):
        if is_hamiltonian(graph.induced_subgraph(subset)):
            count += 1
    return count


def hamiltonian_subsets(graph: Graph, k: int) -> list[frozenset[Node]]:
    """The witnesses counted by :func:`count_hamiltonian_induced_subgraphs`."""
    found: list[frozenset[Node]] = []
    for subset in combinations(graph.nodes, k):
        if is_hamiltonian(graph.induced_subgraph(subset)):
            found.append(frozenset(subset))
    return found
