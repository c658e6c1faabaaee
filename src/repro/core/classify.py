"""The dichotomy classifier: Table 1 plus Sections 5-6 as a decision
procedure.

Table 1 is kept once, in :data:`_TABLE1`: one rule row per problem
variant, naming the patterns that make its cell hard, the verdicts a
witness brings and the results the row instantiates.  Two functions read
it:

* :func:`classify` reports, for a variable-only sjfBCQ ``q`` and each of
  the eight variants, the paper's verdict on exact complexity (FP /
  #P-complete / #P-hard / open), approximability (FPRAS exists / none
  unless NP = RP / open) and membership (always-#P for valuations; SpanP
  and the Prop. 6.1 caveat for completions over naive tables), together
  with the witnessing hard patterns;
* :func:`tractable` answers whether one variant's cell is FP, with a
  reason either way, running only the pattern detectors of that row.  The
  closed forms of :mod:`repro.exact` guard their counters with it, and the
  planner reads their answer as each closed-form row's applicability.

A query outside Table 1 — not a BCQ, with a self-join or with a
constant — is refused by :func:`outside_table1`, the one gate both go
through.  Every rule cites the result it implements, so the classifier
doubles as an executable index of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.patterns import TABLE1_DETECTORS, find_table1_patterns
from repro.core.problems import (
    ALL_VARIANTS,
    COMP,
    COMP_CODD,
    COMP_UNIFORM,
    COMP_UNIFORM_CODD,
    VAL,
    VAL_CODD,
    VAL_UNIFORM,
    VAL_UNIFORM_CODD,
    Mode,
    ProblemVariant,
)
from repro.core.query import BCQ, BooleanQuery


class Tractability(Enum):
    """Exact-counting verdicts of Table 1."""

    FP = "FP"
    SHARP_P_COMPLETE = "#P-complete"
    #: hard for #P, but membership in #P is *not* claimed (naive-table
    #: completion counting; see Section 6).
    SHARP_P_HARD = "#P-hard"
    OPEN = "open"


class Approximability(Enum):
    """Approximate-counting verdicts of Section 5."""

    EXACT_FP = "exact (FP)"
    FPRAS = "FPRAS"
    NO_FPRAS_UNLESS_NP_EQ_RP = "no FPRAS unless NP = RP"
    OPEN = "open"


@dataclass(frozen=True)
class ClassificationEntry:
    """Verdicts for one problem variant of one query."""

    variant: ProblemVariant
    tractability: Tractability
    approximability: Approximability
    #: display names of Table-1 patterns found in ``q`` that witness
    #: hardness for this variant (empty when tractable/open).
    witnesses: tuple[str, ...]
    #: complexity-class membership notes (e.g. "in #P", "in SpanP").
    membership: str
    #: the result(s) of the paper this entry instantiates.
    citations: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class DichotomyReport:
    """Full classification of a query across all eight variants."""

    query: BCQ
    patterns: dict[str, bool]
    entries: dict[ProblemVariant, ClassificationEntry]

    def entry(self, variant: ProblemVariant) -> ClassificationEntry:
        return self.entries[variant]

    def to_table(self) -> str:
        """Render an ASCII table in the layout of the paper's Table 1."""
        lines = ["query: %r" % (self.query,)]
        present = sorted(name for name, found in self.patterns.items() if found)
        lines.append("patterns present: %s" % (", ".join(present) or "none"))
        header = "%-12s %-16s %-26s %s" % (
            "problem",
            "exact",
            "approximate",
            "witnesses",
        )
        lines.append(header)
        lines.append("-" * len(header))
        for variant in ALL_VARIANTS:
            entry = self.entries[variant]
            lines.append(
                "%-12s %-16s %-26s %s"
                % (
                    variant.paper_name,
                    entry.tractability.value,
                    entry.approximability.value,
                    ", ".join(entry.witnesses) or "-",
                )
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Rule:
    """One problem variant's row of Table 1."""

    #: Patterns any one of which puts ``q`` in the row's hard cell; those
    #: present are the entry's witnesses.
    hard: tuple[str, ...]
    #: The results the row instantiates; the first decides its cell.
    citations: tuple[str, ...]
    #: The verdicts a witness brings.
    tractability: Tractability = Tractability.SHARP_P_COMPLETE
    approximability: Approximability = Approximability.FPRAS
    #: Without a witness the cell is FP, unless rows are named here: then
    #: it is FP only where one of theirs is, and open elsewhere.
    fp_via: tuple[ProblemVariant, ...] = ()


_COMP_NON_UNIFORM = ("Theorem 4.3", "Theorem 4.4", "Theorem 5.5")
_COMP_UNIFORM = ("Theorem 4.6", "Theorem 4.7", "Theorem 5.7")

_TABLE1: dict[ProblemVariant, _Rule] = {
    # Columns 1-2: Theorems 3.6, 3.7 and 3.9; an FPRAS for every BCQ by
    # Corollary 5.3.
    VAL: _Rule(("R(x,x)", "R(x)∧S(x)"), ("Theorem 3.6", "Corollary 5.3")),
    VAL_CODD: _Rule(("R(x)∧S(x)",), ("Theorem 3.7", "Corollary 5.3")),
    VAL_UNIFORM: _Rule(
        ("R(x,x)", "R(x)∧S(x,y)∧T(y)", "R(x,y)∧S(x,y)"),
        ("Theorem 3.9", "Corollary 5.3"),
    ),
    # Uniform Codd tables: the one case the paper leaves open.  The path
    # pattern is hard (Prop. 3.11).  Uniform Codd inputs are special cases
    # of both Codd and uniform tables, so Theorems 3.7 and 3.9 give FP a
    # fortiori; everything in between is open.
    VAL_UNIFORM_CODD: _Rule(
        ("R(x)∧S(x,y)∧T(y)",),
        ("Prop. 3.11", "Theorem 3.9", "Corollary 5.3"),
        fp_via=(VAL_CODD, VAL_UNIFORM),
    ),
    # Columns 3-4.  Theorems 4.3 / 4.4: hard for every sjfBCQ, already via
    # R(x), and no FPRAS unless NP = RP (Theorem 5.5).
    COMP: _Rule(
        ("R(x)",),
        _COMP_NON_UNIFORM,
        Tractability.SHARP_P_HARD,
        Approximability.NO_FPRAS_UNLESS_NP_EQ_RP,
    ),
    COMP_CODD: _Rule(
        ("R(x)",),
        _COMP_NON_UNIFORM,
        approximability=Approximability.NO_FPRAS_UNLESS_NP_EQ_RP,
    ),
    # Theorems 4.6 / 4.7: hard iff R(x,x) or R(x,y) is a pattern (some atom
    # of arity >= 2).  Whether uniform Codd tables admit an FPRAS is the
    # open question of Section 5.2.
    COMP_UNIFORM: _Rule(
        ("R(x,x)", "R(x,y)"),
        _COMP_UNIFORM,
        Tractability.SHARP_P_HARD,
        Approximability.NO_FPRAS_UNLESS_NP_EQ_RP,
    ),
    COMP_UNIFORM_CODD: _Rule(
        ("R(x,x)", "R(x,y)"),
        _COMP_UNIFORM,
        approximability=Approximability.OPEN,
    ),
}


def outside_table1(query: BooleanQuery | None) -> str | None:
    """Why Table 1 does not cover ``query``, or ``None`` when it does:
    its dichotomies classify variable-only self-join-free BCQs."""
    if not isinstance(query, BCQ):
        return "query is not a BCQ (the Table 1 dichotomies cover sjfBCQs)"
    if not query.is_self_join_free:
        return "query has self-joins (outside the sjfBCQ dichotomies)"
    if not query.is_variable_only:
        return "query atoms carry constants (outside the sjfBCQ dichotomies)"
    return None


def tractable(
    query: BooleanQuery | None, variant: ProblemVariant
) -> tuple[bool, str]:
    """Whether Table 1 puts ``query`` in an FP cell of ``variant``, and why.

    Runs the detectors of the variant's row only, up to the first witness,
    so the planner can ask it per row.  A refusal names the witnessing
    pattern in plain words and cites the result that makes the cell hard,
    or says the cell is open; a query outside Table 1 is refused with
    :func:`outside_table1`'s reason.
    """
    outside = outside_table1(query)
    if outside is not None:
        return False, outside
    assert isinstance(query, BCQ)  # outside_table1 admits only BCQs
    rule = _TABLE1[variant]
    for name in rule.hard:
        detect, words = TABLE1_DETECTORS[name]
        if detect(query):
            return False, "%s (%s is a pattern: #P-hard by %s)" % (
                words, name, rule.citations[0],
            )
    for other in rule.fp_via:
        ok, reason = tractable(query, other)
        if ok:
            return True, reason
    if rule.fp_via:
        return False, (
            "an open cell of Table 1: %s is not a pattern, yet neither %s "
            "gives FP"
            % (
                ", ".join(rule.hard),
                " nor ".join(_TABLE1[other].citations[0] for other in rule.fp_via),
            )
        )
    return True, "none of %s is a pattern: FP by %s" % (
        ", ".join(rule.hard), rule.citations[0],
    )


def _membership(variant: ProblemVariant) -> str:
    """Complexity-class membership of ``variant`` (Sections 3.1, 6)."""
    if variant.mode is Mode.VALUATIONS:
        return "in #P (guess a valuation, check q; Section 3.1)"
    if variant.codd:
        return "in #P (Prop. B.1: matching-based certificates)"
    return (
        "in SpanP (Obs. 6.2); not in #P for some q unless NP ⊆ SPP "
        "(Prop. 6.1)"
    )


def classify(query: BCQ) -> DichotomyReport:
    """Classify ``query`` per Table 1 and Sections 5-6 of the paper.

    Raises :class:`ValueError`, saying why, for a query outside Table 1.
    """
    outside = outside_table1(query)
    if outside is not None:
        raise ValueError("%s; got %r" % (outside, query))
    patterns = find_table1_patterns(query)
    entries: dict[ProblemVariant, ClassificationEntry] = {}
    for variant in ALL_VARIANTS:
        rule = _TABLE1[variant]
        witnesses = tuple(name for name in rule.hard if patterns[name])
        if witnesses:
            tractability = rule.tractability
        elif tractable(query, variant)[0]:
            tractability = Tractability.FP
        else:
            tractability = Tractability.OPEN
        entries[variant] = ClassificationEntry(
            variant=variant,
            tractability=tractability,
            approximability=(
                Approximability.EXACT_FP
                if tractability is Tractability.FP
                else rule.approximability
            ),
            witnesses=witnesses,
            membership=_membership(variant),
            citations=rule.citations,
        )
    return DichotomyReport(query=query, patterns=patterns, entries=entries)
