"""E3 — Table 1, columns 3-4: counting completions.

* non-uniform: hard for *every* sjfBCQ, already for R(x) on Codd tables
  (Prop. 4.2) — the vertex-cover reduction is executed and timed;
* uniform: FP for unary schemas (Theorem 4.6, the closed form timed on a
  two-relation scaling family and, against brute force, on three- and
  four-relation schemas) and hard for R(x,x)/R(x,y) (Prop. 4.5, both the
  naive-table #IS reduction and the Codd-table #PF reduction).
"""

from __future__ import annotations

import time

import pytest

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_completions_brute
from repro.exact.comp_uniform import (
    count_completions_single_unary,
    count_completions_uniform_unary,
)
from repro.graphs.counting import count_independent_sets, count_vertex_covers
from repro.graphs.generators import (
    complete_bipartite_graph,
    random_graph,
)
from repro.graphs.pseudoforest import count_induced_pseudoforests
from repro.reductions.independent_set import (
    count_independent_sets_via_completions,
)
from repro.reductions.pseudoforest import count_pseudoforests_via_completions
from repro.reductions.vertex_cover import count_vertex_covers_via_completions
from repro.workloads.generators import scaling_uniform_unary_comp_instance


# ---------------------------------------------------------------------------
# Non-uniform cells: #P-hard for every query (Theorems 4.3 / 4.4)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes", [4, 5, 6])
def test_comp_nonuniform_hard_for_single_unary(benchmark, emit, nodes):
    """Prop. 4.2: counting completions of one unary Codd table counts
    vertex covers — parsimoniously.  The instance has one null per node
    *and* per edge, so brute force pays 2^(n + |E|) — the exponential the
    #P-hardness predicts."""
    graph = random_graph(nodes, 0.5, seed=nodes + 1)
    result = benchmark(count_vertex_covers_via_completions, graph)
    expected = count_vertex_covers(graph)
    emit(
        "Table 1 #CompCd(R(x)) via #VC, n=%d" % nodes,
        recovered=result,
        direct=expected,
    )
    assert result == expected


# ---------------------------------------------------------------------------
# Uniform cells: FP for unary schemas (Theorem 4.6)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nulls", [6, 10, 14])
def test_comp_uniform_unary_tractable(benchmark, emit, nulls):
    db, query = scaling_uniform_unary_comp_instance(nulls)
    result = benchmark(count_completions_uniform_unary, db, query)
    emit(
        "Table 1 #Compu tractable (Thm 4.6), nulls=%d" % nulls,
        count=result,
    )
    if nulls == 6:
        assert result == count_completions_brute(db, query)


def _wide_schema_instance(nulls_in, constants, domain, query):
    """A uniform unary table and a query: ``nulls_in`` lists each null's
    relations, ``constants`` each constant's, and ``query`` each variable
    with the relations of its atoms."""
    facts = [
        Fact(relation, [constant])
        for constant, relations in constants.items()
        for relation in relations
    ]
    for index, relations in enumerate(nulls_in, start=1):
        facts += [Fact(relation, [Null(index)]) for relation in relations]
    atoms = [Atom(relation, [variable]) for variable, group in query for relation in group]
    return IncompleteDatabase.uniform(facts, list(domain)), BCQ(atoms)


WIDE_SCHEMAS = {
    # R, S, T: a constant in R, one outside the domain in S and T, and six
    # nulls, three of them in two relations (5^6 valuations).
    "RST d=5 R(x),S(x),T(y)": (
        ["RS", "S", "T", "TR", "R", "ST"], {"a": "R", "out": "ST"}, "abcde",
        [("x", "RS"), ("y", "T")],
    ),
    # The four-relation file of the planner's wide-schema case (6^5).
    "RSTU file R(x),S(x)": (
        ["RS", "S", "TR", "UT", "SU"], {"a": "R"}, "abcdef", [("x", "RS")],
    ),
    # No null lies in both R and U, so this query can fail.
    "RSTU file R(x),U(x)": (
        ["RS", "S", "TR", "UT", "SU"], {"a": "R"}, "abcdef", [("x", "RU")],
    ),
}


@pytest.mark.parametrize("name", list(WIDE_SCHEMAS))
def test_comp_uniform_unary_wide_schema(benchmark, emit, name):
    """Theorem 4.6 on three and four unary relations, where a deficit can
    need a cover of two or three blocks and the types number 7 or 15:
    the closed form's count is brute force's, and both times are
    printed."""
    db, query = _wide_schema_instance(*WIDE_SCHEMAS[name])
    result = benchmark(count_completions_uniform_unary, db, query)
    started = time.perf_counter()
    count_completions_uniform_unary(db, query)
    closed_s = time.perf_counter() - started
    started = time.perf_counter()
    expected = count_completions_brute(db, query)
    brute_s = time.perf_counter() - started
    emit(
        "Table 1 #Compu wide schema (Thm 4.6), %s" % name,
        count=result,
        closed_form_s="%.3f" % closed_s,
        brute_s="%.3f" % brute_s,
    )
    assert result == expected


@pytest.mark.parametrize("nulls", [20, 60, 120])
def test_comp_uniform_single_unary_closed_form(benchmark, emit, nulls):
    """Warm-up B.6.1/B.6.2 closed form: far larger instances than the
    shape-enumeration algorithm (and both stay polynomial)."""
    facts = [Fact("R", [Null(i)]) for i in range(nulls)]
    facts.append(Fact("R", ["k"]))
    db = IncompleteDatabase.uniform(
        facts, ["k"] + ["v%d" % i for i in range(nulls + 5)]
    )
    result = benchmark(count_completions_single_unary, db)
    emit(
        "Warm-up closed form, nulls=%d" % nulls,
        count=("%d digits" % len(str(result))),
    )
    assert result > 0


# ---------------------------------------------------------------------------
# Uniform cells: hard for R(x,x) / R(x,y) (Prop. 4.5)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes", [4, 6, 8])
def test_comp_uniform_hard_naive(benchmark, emit, nodes):
    """Prop. 4.5(a): #Compu(R(x,x)) counts 2^n + #IS on naive tables."""
    graph = random_graph(nodes, 0.5, seed=nodes + 2)
    result = benchmark(count_independent_sets_via_completions, graph)
    expected = count_independent_sets(graph)
    emit(
        "Table 1 #Compu hard cell via #IS, n=%d" % nodes,
        recovered=result,
        direct=expected,
    )
    assert result == expected


@pytest.mark.parametrize("side", [2])
def test_comp_uniform_hard_codd(benchmark, emit, side):
    """Prop. 4.5(b): #CompuCd(R(x,y)) counts induced pseudoforests."""
    graph = complete_bipartite_graph(side, side)
    result = benchmark(count_pseudoforests_via_completions, graph)
    expected = count_induced_pseudoforests(graph)
    emit(
        "Table 1 #CompuCd hard cell via #PF, K_{%d,%d}" % (side, side),
        recovered=result,
        direct=expected,
    )
    assert result == expected
