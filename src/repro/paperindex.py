"""A queryable index of the paper's results and where they live here.

For a reproduction repository, traceability from statement to code is part
of the deliverable: every theorem, proposition and lemma that is realized
somewhere in this codebase is registered below with the modules that
implement it and the tests/benches that verify it.  The CLI exposes this
via ``repro-count cite <result>``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperResult:
    """One numbered statement of the paper, mapped to its realization."""

    identifier: str
    statement: str
    implemented_by: tuple[str, ...]
    verified_by: tuple[str, ...]
    notes: str = ""


_RESULTS: tuple[PaperResult, ...] = (
    PaperResult(
        "Definition 3.1",
        "the pattern preorder on sjfBCQs",
        ("repro.core.patterns.is_pattern_of",
         "repro.core.patterns.find_pattern_embedding"),
        ("tests/test_core_patterns.py",),
        "general decision procedure + closed-form detectors, cross-checked",
    ),
    PaperResult(
        "Lemma 3.3 / Lemma 4.1",
        "pattern reductions preserve #Val and #Comp parsimoniously",
        ("repro.reductions.pattern.transfer_database",),
        ("tests/test_reductions_pattern.py",),
        "Codd preservation caveat documented in the module docstring",
    ),
    PaperResult(
        "Proposition 3.4",
        "#Valu(R(x,x)) is #P-hard (from #3COL, fixed domain {1,2,3})",
        ("repro.reductions.coloring",),
        ("tests/test_reductions_valuations.py",
         "benchmarks/bench_table1_valuations.py"),
    ),
    PaperResult(
        "Proposition 3.5 (+ A.3, A.8)",
        "#ValCd(R(x)∧S(x)) is #P-hard (from #Avoidance on bipartite graphs)",
        ("repro.reductions.avoidance", "repro.graphs.avoidance"),
        ("tests/test_reductions_valuations.py",
         "tests/test_graphs_avoidance.py"),
    ),
    PaperResult(
        "Theorem 3.6",
        "#Val dichotomy on naive non-uniform tables",
        ("repro.exact.val_nonuniform", "repro.core.classify"),
        ("tests/test_exact_valuations.py", "tests/test_core_classify.py"),
    ),
    PaperResult(
        "Theorem 3.7",
        "#ValCd dichotomy on Codd tables",
        ("repro.exact.val_codd", "repro.core.classify"),
        ("tests/test_exact_valuations.py",),
    ),
    PaperResult(
        "Proposition 3.8",
        "#Valu hard patterns path / double-edge (from #IS, domain {0,1})",
        ("repro.reductions.independent_set",),
        ("tests/test_reductions_valuations.py",),
    ),
    PaperResult(
        "Theorem 3.9 (+ Ex. 3.10, A.11-A.14)",
        "#Valu dichotomy on uniform naive tables",
        ("repro.exact.val_uniform",),
        ("tests/test_exact_valuations.py", "tests/test_paper_examples.py"),
        "value-type/Möbius realization of the Prop. A.14 nested sums",
    ),
    PaperResult(
        "Proposition 3.11",
        "#ValuCd(path) is #P-hard (from #BIS via surjection interpolation)",
        ("repro.reductions.bis", "repro.util.linear"),
        ("tests/test_reductions_valuations.py", "tests/test_util_linear.py"),
    ),
    PaperResult(
        "Proposition 4.2",
        "#CompCd(R(x)) is #P-hard (parsimonious, from #VC)",
        ("repro.reductions.vertex_cover",),
        ("tests/test_reductions_completions.py",),
    ),
    PaperResult(
        "Theorems 4.3 / 4.4 (+ Lemma B.2, Prop. B.1)",
        "#Comp hard everywhere non-uniform; in #P for Codd tables",
        ("repro.exact.completion_check", "repro.core.classify"),
        ("tests/test_exact_completions.py",),
    ),
    PaperResult(
        "Proposition 4.5",
        "#Compu(R(x,x)/R(x,y)) hard on naive (from #IS) and Codd (from #PF)",
        ("repro.reductions.independent_set", "repro.reductions.pseudoforest",
         "repro.graphs.pseudoforest", "repro.graphs.matroid"),
        ("tests/test_reductions_completions.py",
         "tests/test_graphs_matroid.py"),
    ),
    PaperResult(
        "Theorems 4.6 / 4.7 (+ App. B.6)",
        "#Compu dichotomy: FP for unary schemas",
        ("repro.exact.comp_uniform",),
        ("tests/test_exact_completions.py",),
        "composition-shape refinement of the Eq. (7) profile enumeration,"
        " folded from per-group option tables; Lemma B.19 decided per state",
    ),
    PaperResult(
        "Corollary 5.3 (+ Prop. 5.2, Thm. 5.1)",
        "#Val(q) has an FPRAS for every union of BCQs",
        ("repro.approx.events", "repro.approx.fpras", "repro.eval.homomorphism"),
        ("tests/test_approx.py", "tests/test_approx_sampler.py",
         "tests/test_embeddings.py", "benchmarks/bench_approximation.py"),
        "Karp-Luby realization; uniform generation included; the events are"
        " the embeddings of the one search in repro.eval.homomorphism",
    ),
    PaperResult(
        "Theorem 5.5",
        "no FPRAS for #Comp(Cd) unless NP = RP",
        ("repro.reductions.vertex_cover", "repro.core.classify"),
        ("tests/test_core_classify.py",),
    ),
    PaperResult(
        "Proposition 5.6 / Theorem 5.7",
        "no FPRAS for #Compu unless NP = RP (3-colorability gap gadget)",
        ("repro.reductions.gap3col",),
        ("tests/test_reductions_completions.py",
         "benchmarks/bench_approximation.py"),
    ),
    PaperResult(
        "Proposition 6.1 (+ Lemma D.1)",
        "#Compu(q) outside #P unless NP ⊆ SPP",
        ("repro.reductions.spanp.pad_with_fresh_facts",
         "repro.complexity.classes"),
        ("tests/test_reductions_spanp.py",),
    ),
    PaperResult(
        "Theorem 6.3",
        "#Compu(¬q) is SpanP-complete (from #k3SAT, parsimonious)",
        ("repro.reductions.spanp", "repro.complexity.cnf"),
        ("tests/test_reductions_spanp.py", "benchmarks/bench_beyond_p.py"),
    ),
    PaperResult(
        "Theorem 6.4",
        "#Valu SpanP-complete for a fixed NP-checkable query "
        "(from #HamSubgraphs)",
        ("repro.reductions.hamiltonian", "repro.graphs.hamilton"),
        ("tests/test_reductions_spanp.py", "tests/test_graphs_hamilton.py"),
    ),
    PaperResult(
        "Table 1",
        "the seven dichotomies, as a decision procedure",
        ("repro.core.classify",),
        ("tests/test_core_classify.py", "benchmarks/bench_classifier.py"),
    ),
    PaperResult(
        "Figure 1 / Examples 2.1-2.2",
        "the worked running example",
        ("repro.db.valuation", "repro.exact.brute"),
        ("tests/test_db_valuation.py", "tests/test_exact_brute.py",
         "benchmarks/bench_figure1.py"),
    ),
)


def all_results() -> tuple[PaperResult, ...]:
    """Every indexed result, in paper order."""
    return _RESULTS


def find_results(text: str) -> list[PaperResult]:
    """Results whose identifier or statement contains ``text``
    (case-insensitive substring match)."""
    needle = text.strip().lower()
    return [
        result
        for result in _RESULTS
        if needle in result.identifier.lower()
        or needle in result.statement.lower()
    ]


def format_result(result: PaperResult) -> str:
    """Human-readable rendering for the CLI."""
    lines = [
        "%s — %s" % (result.identifier, result.statement),
        "  implemented by: %s" % ", ".join(result.implemented_by),
        "  verified by:    %s" % ", ".join(result.verified_by),
    ]
    if result.notes:
        lines.append("  notes:          %s" % result.notes)
    return "\n".join(lines)
