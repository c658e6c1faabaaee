"""Tractable case of ``#Val(q)`` on non-uniform naive tables (Theorem 3.6).

When neither ``R(x,x)`` nor ``R(x) ∧ S(x)`` is a pattern of the sjfBCQ
``q``, every variable occurs exactly once in ``q``.  Then a completion
``ν(D)`` satisfies ``q`` iff every relation of ``sig(q)`` is non-empty in
``D`` (footnote 2 of the paper), so ``#Val(q)(D)`` is either ``0`` or the
total number of valuations — computable as the product of the domain sizes.
"""

from __future__ import annotations

from repro.core.classify import tractable
from repro.core.problems import VAL
from repro.core.query import BCQ, BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.valuation import (
    NullWeights,
    count_total_valuations,
    weighted_total_valuations,
)


def applies(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    """Whether Theorem 3.6 counts ``#Val(q)(D)``, and why: ``q`` in the FP
    cell of ``#Val``, on a table of any kind."""
    return tractable(query, VAL)


def count_valuations_single_occurrence(
    db: IncompleteDatabase, query: BCQ
) -> int:
    """``#Val(q)(D)`` for pattern-free ``q`` (Theorem 3.6), any table kind.

    Works on naive and Codd tables, uniform or not — the argument never uses
    those restrictions.
    """
    ok, reason = applies(db, query)
    if not ok:
        raise ValueError("Theorem 3.6 does not apply: %s" % reason)
    for relation in query.relations:
        if not db.relation(relation):
            return 0
    return count_total_valuations(db)


def count_valuations_weighted_single_occurrence(
    db: IncompleteDatabase,
    query: BCQ,
    weights: NullWeights | None = None,
):
    """Weighted ``#Val(q)(D)`` for pattern-free ``q`` — the weighted face
    of Theorem 3.6.

    The zero-or-all structure survives weighting: either no valuation
    satisfies ``q`` (an empty relation of ``sig(q)``) and the weighted
    count is ``0``, or every valuation does and it is the factorized
    weighted total ``prod_⊥ sum_c w(⊥, c)``.  Still closed-form, still
    polynomial, for *any* per-null weight tables — the generalized
    (Kenig–Suciu-style) counting problem stays tractable on this cell.
    """
    ok, reason = applies(db, query)
    if not ok:
        raise ValueError("Theorem 3.6 does not apply: %s" % reason)
    for relation in query.relations:
        if not db.relation(relation):
            return 0
    return weighted_total_valuations(db, weights)
