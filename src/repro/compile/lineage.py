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

Matches are enumerated by backtracking over atoms (most-constrained atom
first, mirroring :mod:`repro.eval.homomorphism`), branching over a null's
domain only when an unbound variable meets a null position.  The resulting
DNF is minimized by absorption (a match whose conditions contain another
match's is redundant).

:func:`enumerate_completion_matches` is the completion-side analogue: the
lineage of ``q`` over the *potential facts* of ``D``, a monotone DNF over
fact variables ``y[g]`` used by the ``#Comp`` encoding.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.query import Atom, BCQ, BooleanQuery, Const, UCQ, Var
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term, is_null

#: Conditions of one match: a consistent set of ``(null, value)`` choices.
ValuationMatch = frozenset[tuple[Null, Term]]

#: One completion-side match: the set of potential facts it uses.
CompletionMatch = frozenset[Fact]

#: Beyond this many matches the quadratic absorption pass is skipped.
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
    matches: set[ValuationMatch] = set()
    # The relation index is shared across disjuncts — a UCQ's BCQs all
    # walk the same naive table, so it is built once, not per disjunct.
    facts_by_relation: dict[str, list[Fact]] = {}
    for fact in sorted(db.facts, key=Fact.sort_key):
        facts_by_relation.setdefault(fact.relation, []).append(fact)
    for disjunct in _disjuncts(query):
        for conditions in _bcq_matches(db, disjunct, facts_by_relation):
            if not conditions:
                return [frozenset()]
            matches.add(conditions)
    return _absorb(matches)


def _bcq_matches(
    db: IncompleteDatabase,
    query: BCQ,
    facts_by_relation: dict[str, list[Fact]],
) -> Iterator[ValuationMatch]:
    atoms = sorted(
        query.atoms,
        key=lambda atom: len(facts_by_relation.get(atom.relation, ())),
    )
    if any(atom.relation not in facts_by_relation for atom in atoms):
        return

    def match_atoms(
        index: int,
        assignment: dict[Var, Term],
        conditions: dict[Null, Term],
    ) -> Iterator[ValuationMatch]:
        if index == len(atoms):
            yield frozenset(conditions.items())
            return
        atom = atoms[index]
        for fact in facts_by_relation[atom.relation]:
            if fact.arity != atom.arity:
                continue
            for extended_assignment, extended_conditions in _unify(
                atom.terms, fact.terms, assignment, conditions, db
            ):
                yield from match_atoms(
                    index + 1, extended_assignment, extended_conditions
                )

    yield from match_atoms(0, {}, {})


def _unify(
    atom_terms: Sequence,
    fact_terms: Sequence[Term],
    assignment: dict[Var, Term],
    conditions: dict[Null, Term],
    db: IncompleteDatabase,
    position: int = 0,
) -> Iterator[tuple[dict[Var, Term], dict[Null, Term]]]:
    """Unify one atom against one naive-table fact, position by position.

    Yields every ``(variable assignment, null conditions)`` extension; an
    unbound query variable meeting a null position branches over the
    null's domain.
    """
    if position == len(atom_terms):
        yield assignment, conditions
        return
    term = atom_terms[position]
    value = fact_terms[position]

    if isinstance(term, Var) and term not in assignment:
        if is_null(value):
            pinned = conditions.get(value)
            choices = (
                (pinned,) if pinned is not None
                else sorted(db.domain_of(value), key=repr)
            )
            for choice in choices:
                yield from _unify(
                    atom_terms,
                    fact_terms,
                    {**assignment, term: choice},
                    {**conditions, value: choice},
                    db,
                    position + 1,
                )
        else:
            yield from _unify(
                atom_terms,
                fact_terms,
                {**assignment, term: value},
                conditions,
                db,
                position + 1,
            )
        return

    target = term.value if isinstance(term, Const) else assignment[term]
    if is_null(value):
        if conditions.get(value, target) != target:
            return
        if target not in db.domain_of(value):
            return
        yield from _unify(
            atom_terms,
            fact_terms,
            assignment,
            {**conditions, value: target},
            db,
            position + 1,
        )
    elif value == target:
        yield from _unify(
            atom_terms, fact_terms, assignment, conditions, db, position + 1
        )


def enumerate_completion_matches(
    potential_facts: Sequence[Fact], query: BooleanQuery
) -> list[CompletionMatch]:
    """The lineage DNF of ``query`` over a set of ground potential facts.

    Each match is the set of potential facts a homomorphism uses; a
    completion (a subset of the potential facts) satisfies ``query`` iff
    it contains all facts of some match.
    """
    matches: set[CompletionMatch] = set()
    facts_by_relation: dict[str, list[Fact]] = {}
    for fact in potential_facts:
        facts_by_relation.setdefault(fact.relation, []).append(fact)
    for disjunct in _disjuncts(query):
        for used in _ground_matches(disjunct, facts_by_relation):
            matches.add(used)
    return _absorb(matches)


def _ground_matches(
    query: BCQ,
    facts_by_relation: dict[str, list[Fact]],
) -> Iterator[CompletionMatch]:
    atoms = sorted(
        query.atoms,
        key=lambda atom: len(facts_by_relation.get(atom.relation, ())),
    )
    if any(atom.relation not in facts_by_relation for atom in atoms):
        return

    def match_atoms(
        index: int, assignment: dict[Var, Term], used: frozenset[Fact]
    ) -> Iterator[CompletionMatch]:
        if index == len(atoms):
            yield used
            return
        atom = atoms[index]
        for fact in facts_by_relation[atom.relation]:
            if fact.arity != atom.arity:
                continue
            extended = _match_ground(atom, fact, assignment)
            if extended is not None:
                yield from match_atoms(index + 1, extended, used | {fact})

    yield from match_atoms(0, {}, frozenset())


def _match_ground(
    atom: Atom, fact: Fact, assignment: dict[Var, Term]
) -> dict[Var, Term] | None:
    """Extend ``assignment`` so ``atom`` lands on the ground ``fact``."""
    extended = dict(assignment)
    for term, value in zip(atom.terms, fact.terms):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = extended.get(term)
            if bound is None:
                extended[term] = value
            elif bound != value:
                return None
    return extended


def _absorb(matches: set) -> list:
    """Minimize a monotone DNF by absorption: drop supersets of kept sets.

    Skipped beyond :data:`ABSORPTION_LIMIT` matches (quadratic pass); the
    encoding stays correct either way, only less compact.
    """
    ordered = sorted(matches, key=lambda match: (len(match), sorted(map(repr, match))))
    if len(ordered) > ABSORPTION_LIMIT:
        return ordered
    kept: list = []
    for match in ordered:
        if not any(other <= match for other in kept):
            kept.append(match)
    return kept
