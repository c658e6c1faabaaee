"""A guided tour of the hardness reductions (Sections 3-6).

Every #P-/SpanP-hardness proof in the paper is a constructive reduction.
This example runs each of them end-to-end on one small instance, printing
the source count, the database it compiles to, and the recovered count.

The tour closes with what hardness means *in practice* now that the repo
has more than brute force.  ``count_valuations`` / ``count_completions``
pick among (see ``repro/exact/dispatch.py`` for the full table):

====================  =====================================================
``auto``              poly algorithm if one applies, else ``lineage`` for
                      (U)CQs, else ``brute``
``poly``              Theorems 3.6/3.7/3.9/4.6 only; raises on hard cells
``lineage``           compile lineage -> CNF, exact #SAT with component
                      decomposition (``repro.compile``); exponential only
                      in the lineage's treewidth, so structured hard-cell
                      instances with astronomically many valuations stay
                      feasible
``brute``             enumerate valuations (budgeted; the hard-cell cliff)
====================  =====================================================

Run:  python examples/hardness_tour.py
"""

from repro.complexity.cnf import CNF3, count_k3sat
from repro.graphs.avoidance import count_avoiding_assignments
from repro.graphs.counting import (
    count_colorings,
    count_independent_sets,
    count_vertex_covers,
)
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    random_graph,
)
from repro.graphs.graph import Multigraph
from repro.graphs.hamilton import count_hamiltonian_induced_subgraphs
from repro.graphs.pseudoforest import count_induced_pseudoforests
from repro.reductions import (
    build_avoidance_db,
    build_k3sat_db,
    build_pseudoforest_db,
    build_three_coloring_db,
    build_vertex_cover_db,
    count_avoiding_assignments_via_valuations,
    count_bis_via_valuations,
    count_colorings_via_valuations,
    count_ham_subgraphs_via_valuations,
    count_independent_sets_via_completions,
    count_k3sat_via_completions,
    count_pseudoforests_via_completions,
    count_vertex_covers_via_completions,
)

graph = random_graph(5, 0.5, seed=3)
bipartite = complete_bipartite_graph(2, 2)
formula = CNF3.from_literals(3, [(1, -2, 3), (-1, 2, -3)])


def show(title, citation, db, recovered, direct):
    status = "OK" if recovered == direct else "MISMATCH"
    print("%-52s %s" % (title, citation))
    print("    database: %r" % (db,))
    print(
        "    recovered=%d  direct=%d  [%s]" % (recovered, direct, status)
    )
    assert recovered == direct
    print()


print("source instances: G = %r, bipartite = K_{2,2}, F = %r\n" % (graph, formula))

show(
    "#3COL  ->  #Valu(R(x,x))",
    "(Prop. 3.4)",
    build_three_coloring_db(graph),
    count_colorings_via_valuations(graph),
    count_colorings(graph, 3),
)

show(
    "#Avoidance  ->  #ValCd(R(x)∧S(x))",
    "(Prop. 3.5)",
    build_avoidance_db(bipartite),
    count_avoiding_assignments_via_valuations(bipartite),
    count_avoiding_assignments(Multigraph.from_graph(bipartite)),
)

show(
    "#BIS  ->  #ValuCd(path) via interpolation",
    "(Prop. 3.11)",
    "(n+1)^2 = 9 Codd databases",
    count_bis_via_valuations(bipartite),
    count_independent_sets(bipartite),
)

show(
    "#VC  ->  #CompCd(R(x)), parsimonious",
    "(Prop. 4.2)",
    build_vertex_cover_db(graph),
    count_vertex_covers_via_completions(graph),
    count_vertex_covers(graph),
)

show(
    "#IS  ->  #Compu(R(x,x)) - 2^n",
    "(Prop. 4.5a)",
    "naive uniform table over one binary relation",
    count_independent_sets_via_completions(graph),
    count_independent_sets(graph),
)

show(
    "#PF  ->  #CompuCd(R(x,y)), parsimonious",
    "(Prop. 4.5b)",
    build_pseudoforest_db(bipartite),
    count_pseudoforests_via_completions(bipartite),
    count_induced_pseudoforests(bipartite),
)

show(
    "#k3SAT  ->  #Compu(¬q), parsimonious",
    "(Thm. 6.3)",
    build_k3sat_db(formula, 2),
    count_k3sat_via_completions(formula, 2),
    count_k3sat(formula, 2),
)

show(
    "#HamSubgraphs  ->  #Valu(q_ESO)",
    "(Thm. 6.4)",
    "uniform Codd table + fixed ∃SO query",
    count_ham_subgraphs_via_valuations(cycle_graph(5), 5),
    count_hamiltonian_induced_subgraphs(cycle_graph(5), 5),
)

print("every reduction recovered the source count exactly.")

# ---------------------------------------------------------------------------
# Epilogue: hard cells beyond the brute-force budget.
#
# #Val(R(x,x)) is #P-hard (Prop. 3.4, first stop of the tour), so `poly`
# refuses it and `brute` dies at ~10^6 valuations.  The compiled backends
# turn the instance into a CNF over "null = value" indicators instead:
# `auto` probes the elimination width and — on a cycle, whose width stays
# tiny — picks the tree-decomposition DP (method='dpdb'); wider lineages
# fall back to the search-based 'lineage' counter.
# ---------------------------------------------------------------------------

import time

from repro.core.query import Atom, BCQ
from repro.db.valuation import count_total_valuations
from repro.exact.dispatch import count_valuations, solve

big_db = build_three_coloring_db(cycle_graph(40))
hard_query = BCQ([Atom("R", ["x", "x"])])
answer = solve("val", big_db, hard_query)
chosen, hard_count, elapsed = answer.method, answer.count, answer.seconds
assert chosen == "dpdb"  # the 40-cycle's elimination width is far below the cap
assert hard_count == count_valuations(big_db, hard_query, method="lineage")
print(
    "\nhard cell at scale: #Valu(R(x,x)) on the 40-cycle coloring database"
    "\n    valuations: %d (brute budget: 2,000,000)"
    "\n    count: %d  via method='%s' in %.2fs"
    % (count_total_valuations(big_db), hard_count, chosen, elapsed)
)
