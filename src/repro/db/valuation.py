"""Valuations and completions of incomplete databases.

A valuation ``ν`` assigns to each null of ``D`` a constant of its domain;
``ν(D)`` is the completion obtained by substituting and collapsing duplicate
facts (set semantics).  These enumerators are the semantic ground truth that
every polynomial-time algorithm in :mod:`repro.exact` is tested against.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping

from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term


def count_total_valuations(db: IncompleteDatabase) -> int:
    """The number of valuations of ``D``: ``prod_⊥ |dom(⊥)|``.

    This is the paper's observation that *counting all valuations* is always
    in FP (Section 1).  A ground table has exactly one (empty) valuation; an
    empty domain makes the product zero.
    """
    total = 1
    for null in db.nulls:
        total *= len(db.domain_of(null))
    return total


#: Per-null value weights: ``weights[null][value]`` is the weight (count
#: multiplicity, unnormalized probability, ...) of ``ν(null) = value``.
NullWeights = Mapping[Null, Mapping[Term, object]]


def resolve_null_weights(
    db: IncompleteDatabase, weights: NullWeights | None
) -> dict[Null, dict[Term, object]]:
    """Full per-null weight tables for ``D``.

    Nulls absent from ``weights`` get weight ``1`` for every domain value
    (the uniform convention, under which the weighted count *is* the
    count).  A null that is listed must cover its whole domain and nothing
    outside it — partial tables are rejected rather than silently
    defaulted, since a forgotten value would skew every downstream count.
    """
    named = named_null_weights(db, weights)
    return {
        null: named[null] if null in named
        else {value: 1 for value in db.domain_of(null)}
        for null in db.nulls
    }


def named_null_weights(
    db: IncompleteDatabase, weights: NullWeights | None
) -> dict[Null, dict[Term, object]]:
    """The tables ``weights`` gives, checked as
    :func:`resolve_null_weights` checks them, with the same errors; the
    nulls it omits, or maps to ``None``, are left out.  Costs O(named
    nulls), not O(nulls)."""
    provided = dict(weights) if weights else {}
    named: dict[Null, dict[Term, object]] = {}
    for null, given in provided.items():
        try:
            domain = db.domain_of(null)
        except KeyError:
            break
        if given is not None:
            named[null] = dict(given)
            if named[null].keys() != domain:
                break
    else:
        return named
    _check_tables(db, provided)  # raises: some table is faulty
    return named


def _check_tables(db: IncompleteDatabase, provided: dict) -> None:
    """Raise for the first faulty table of ``provided``: any unknown null
    first, then the nulls in database order."""
    unknown = set(provided) - set(db.nulls)
    if unknown:
        raise ValueError(
            "weights given for nulls not in the database: %s"
            % ", ".join(sorted(map(repr, unknown)))
        )
    for null in db.nulls:
        given = provided.get(null)
        if given is None:
            continue
        domain = db.domain_of(null)
        table = dict(given)
        extra = set(table) - set(domain)
        if extra:
            raise ValueError(
                "weights for %r mention values outside its domain: %s"
                % (null, ", ".join(sorted(map(repr, extra))))
            )
        missing = set(domain) - set(table)
        if missing:
            raise ValueError(
                "weights for %r must cover its whole domain; missing: %s"
                % (null, ", ".join(sorted(map(repr, missing))))
            )


def weighted_total_valuations(
    db: IncompleteDatabase, weights: NullWeights | None = None
):
    """``sum over all valuations ν of prod_⊥ w(⊥, ν(⊥))``.

    The weighted analogue of :func:`count_total_valuations` — and equal to
    it under the uniform all-ones convention.  Factorizes as
    ``prod_⊥ sum_c w(⊥, c)`` because the nulls choose independently.
    """
    resolved = resolve_null_weights(db, weights)
    total: object = 1
    for null in db.nulls:
        total = total * sum(resolved[null].values())  # type: ignore[operator]
    return total


def iter_valuations(
    db: IncompleteDatabase,
) -> Iterator[dict[Null, Term]]:
    """Enumerate every valuation of ``D`` (deterministic order).

    Exponential in the number of nulls; intended for ground truth on small
    instances and for the worked examples of the paper.
    """
    nulls = db.nulls
    domains = [sorted(db.domain_of(null), key=repr) for null in nulls]
    for values in product(*domains):
        yield dict(zip(nulls, values))


def apply_valuation(
    db: IncompleteDatabase, valuation: Mapping[Null, Term]
) -> Database:
    """The completion ``ν(D)``: substitute nulls, collapse duplicates.

    Every null of ``D`` must be mapped to a member of its domain — this is
    checked, since Example 2.1 stresses that maps leaving the domain are
    *not* valuations.
    """
    for null in db.nulls:
        if null not in valuation:
            raise ValueError("valuation misses null %r" % (null,))
        if valuation[null] not in db.domain_of(null):
            raise ValueError(
                "valuation maps %r outside its domain (got %r)"
                % (null, valuation[null])
            )
    completed: set[Fact] = {fact.substitute(dict(valuation)) for fact in db.facts}
    return Database(completed)


def iter_completions(db: IncompleteDatabase) -> Iterator[Database]:
    """Enumerate the *distinct* completions of ``D``.

    Distinct valuations may produce the same completion (Example 2.2); this
    iterator deduplicates, yielding each completion exactly once.
    """
    seen: set[Database] = set()
    for valuation in iter_valuations(db):
        completion = apply_valuation(db, valuation)
        if completion not in seen:
            seen.add(completion)
            yield completion


def completions_with_multiplicity(
    db: IncompleteDatabase,
) -> dict[Database, int]:
    """Map each distinct completion to the number of valuations producing it.

    Useful for exploring the ``#Val`` / ``#Comp`` gap quantitatively:
    ``sum(multiplicities) == count_total_valuations(db)``.
    """
    histogram: dict[Database, int] = {}
    for valuation in iter_valuations(db):
        completion = apply_valuation(db, valuation)
        histogram[completion] = histogram.get(completion, 0) + 1
    return histogram
