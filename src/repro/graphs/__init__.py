"""Graph substrate for the paper's hardness reductions.

Every #P-hardness proof in the paper departs from a counting problem on
graphs or multigraphs: 3-colorings (Prop. 3.4), independent sets
(Props. 3.8/4.5), independent sets in bipartite graphs (Prop. 3.11), vertex
covers (Prop. 4.2), avoiding assignments of multigraphs (Prop. 3.5 via
App. A.2), induced pseudoforests (Prop. 4.5(b) via App. B.4-B.5) and
Hamiltonian induced subgraphs (Thm. 6.4).  This package implements those
source problems from scratch — exact brute-force counters plus the structural
machinery the proofs rely on (bipartite matching, pseudoforest orientations,
bicircular matroids, k-stretches).
"""

from repro.graphs.graph import Graph, Multigraph
from repro.graphs.counting import (
    count_colorings,
    count_independent_pairs_by_size,
    count_independent_sets,
    count_vertex_covers,
    is_independent_set,
    is_vertex_cover,
)
from repro.graphs.matching import hopcroft_karp, maximum_matching_size
from repro.graphs.pseudoforest import (
    bicircular_rank,
    count_induced_pseudoforests,
    has_outdegree_one_orientation,
    is_pseudoforest_edge_set,
)
from repro.graphs.matroid import BicircularMatroid
from repro.graphs.avoidance import (
    count_assignments,
    count_avoiding_assignments,
    merge_degree_two_nodes,
    subdivide_edges,
)
from repro.graphs.hamilton import (
    count_hamiltonian_induced_subgraphs,
    is_hamiltonian,
)
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)

__all__ = [
    "Graph",
    "Multigraph",
    "count_colorings",
    "count_independent_pairs_by_size",
    "count_independent_sets",
    "count_vertex_covers",
    "is_independent_set",
    "is_vertex_cover",
    "hopcroft_karp",
    "maximum_matching_size",
    "bicircular_rank",
    "count_induced_pseudoforests",
    "has_outdegree_one_orientation",
    "is_pseudoforest_edge_set",
    "BicircularMatroid",
    "count_assignments",
    "count_avoiding_assignments",
    "merge_degree_two_nodes",
    "subdivide_edges",
    "count_hamiltonian_induced_subgraphs",
    "is_hamiltonian",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "random_graph",
    "star_graph",
]
