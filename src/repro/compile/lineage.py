"""Lineage of Boolean queries over incomplete databases.

The **lineage** of ``q`` on ``D`` is a Boolean function over the choice
variables ``x[⊥, c]`` that is true under a valuation exactly when
``ν(D) |= q``.  For (unions of) BCQs it is a monotone DNF: one *match* per
way of homomorphically embedding the query into the naive table, where
landing a query term on a null position contributes the condition
``ν(⊥) = c``.  This is the standard bridge from query evaluation to
weighted/model counting used throughout the probabilistic-database
literature (cf. the Kenig–Suciu dichotomy for UCQ model counting): once
the lineage is explicit, ``#Val`` is a model-counting problem.

Matches are read off the embeddings of :func:`repro.eval.homomorphism.
embeddings` (most-constrained atom first): each embedding's null classes
are expanded over their allowed values, one match per choice.  The
resulting DNF is minimized by absorption (a match whose conditions contain
another match's is redundant).

:func:`enumerate_completion_matches` is the completion-side analogue: the
lineage of ``q`` over the *potential facts* of ``D``, a monotone DNF over
fact variables ``y[g]`` used by the ``#Comp`` encoding.  Its matches are
the facts each embedding into the potential facts lands on.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Sequence

from repro.core.query import BCQ, BooleanQuery, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term
from repro.eval.homomorphism import FactIndex, embeddings

#: Conditions of one match: a consistent set of ``(null, value)`` choices.
ValuationMatch = frozenset[tuple[Null, Term]]

#: One completion-side match: the set of potential facts it uses.
CompletionMatch = frozenset[Fact]

#: Beyond this many matches absorption is skipped (when the matches share
#: a member, each test still scans every kept match filed under it).
ABSORPTION_LIMIT = 5_000


class LineageUnsupportedQuery(TypeError):
    """Raised for queries without a monotone DNF lineage (negations,
    arbitrary :class:`~repro.core.query.CustomQuery` procedures)."""


def lineage_supports(query: BooleanQuery | None) -> bool:
    """True when the lineage compiler handles ``query`` (BCQs and UCQs —
    self-joins and constants included; ``None`` for plain ``#Comp``)."""
    return query is None or isinstance(query, (BCQ, UCQ))


def _disjuncts(query: BooleanQuery) -> tuple[BCQ, ...]:
    if isinstance(query, BCQ):
        return (query,)
    if isinstance(query, UCQ):
        return query.disjuncts
    raise LineageUnsupportedQuery(
        "lineage compilation handles BCQs and UCQs; got %s"
        % type(query).__name__
    )


def enumerate_valuation_matches(
    db: IncompleteDatabase, query: BooleanQuery
) -> list[ValuationMatch]:
    """The lineage DNF of ``query`` on ``db``, as a list of matches.

    An empty list means the lineage is constantly false (no completion
    satisfies the query); a match with no conditions means it is
    constantly true (every completion satisfies it — e.g. the query is
    already witnessed by the ground facts).
    """
    disjuncts = _disjuncts(query)
    # One index for all disjuncts: a UCQ's BCQs walk the same naive table.
    index = FactIndex(sorted(db.facts, key=Fact.sort_key))
    matches: set[ValuationMatch] = set()

    def expand(_binding, classes: dict, _facts) -> bool:
        if not classes:
            return True  # a match without conditions: constantly true
        choices = [
            [[(null, value) for null in members] for value in allowed]
            for members, allowed in dict.fromkeys(classes.values())
        ]
        for pick in product(*choices):
            matches.add(frozenset(chain.from_iterable(pick)))
        return False

    for disjunct in disjuncts:
        atoms = index.smallest_first(disjunct.atoms)
        if embeddings(atoms, index, expand, db.domain_of):
            return [frozenset()]
    return _absorb(matches)


def enumerate_completion_matches(
    potential_facts: Sequence[Fact], query: BooleanQuery
) -> list[CompletionMatch]:
    """The lineage DNF of ``query`` over a set of ground potential facts.

    Each match is the set of potential facts a homomorphism uses; a
    completion (a subset of the potential facts) satisfies ``query`` iff
    it contains all facts of some match.
    """
    disjuncts = _disjuncts(query)
    index = FactIndex(potential_facts)
    matches: set[CompletionMatch] = set()

    def collect(_binding, _classes, facts: list[Fact]) -> None:
        # Grown one fact at a time, in atom order: a set's iteration order
        # depends on how it was built, and the #Comp encoding writes one
        # clause per fact of a match in that order.
        used: CompletionMatch = frozenset()
        for fact in facts:
            used = used | {fact}
        matches.add(used)

    for disjunct in disjuncts:
        embeddings(index.smallest_first(disjunct.atoms), index, collect)
    return _absorb(matches)


def _absorb(matches: set) -> list:
    """Minimize a monotone DNF by absorption: drop supersets of kept sets.

    Matches are taken smallest first, and each kept match is filed under
    one of its members; a match is tested only against the kept matches
    filed under its own members, since a kept subset's filing member is
    one of them.  Ties in size go by the sorted ``repr`` of the members,
    each member's taken once per call.  Skipped beyond
    :data:`ABSORPTION_LIMIT` matches; the encoding stays correct either
    way, only less compact.
    """
    names: dict = {}

    def key(match) -> tuple[int, list[str]]:
        keys = []
        for member in match:
            name = names.get(member)
            if name is None:
                name = names[member] = repr(member)
            keys.append(name)
        keys.sort()
        return len(match), keys

    ordered = sorted(matches, key=key)
    if len(ordered) > ABSORPTION_LIMIT:
        return ordered
    if ordered and not ordered[0]:
        return ordered[:1]  # the empty match absorbs every other
    kept: list = []
    filed: dict = {}
    for match in ordered:
        if not any(
            other <= match for member in match for other in filed.get(member, ())
        ):
            kept.append(match)
            filed.setdefault(next(iter(match)), []).append(match)
    return kept
