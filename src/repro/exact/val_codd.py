"""Tractable case of ``#ValCd(q)`` on Codd tables (Theorem 3.7).

When ``R(x) ∧ S(x)`` is not a pattern of the sjfBCQ ``q``, no two atoms
share a variable, so on a Codd table the count factorizes over atoms:

``#ValCd(q)(D) = prod_i #ValCd(R_i(x̄_i))(D(R_i)) * prod_{free ⊥} |dom(⊥)|``

and for one atom over one relation,

``#ValCd(R(x̄))(D(R)) = total(R) - prod_j ρ(t̄_j)``

where ``ρ(t̄_j)`` counts the valuations of the nulls of tuple ``t̄_j`` that
do **not** match the atom (the tuples have pairwise-disjoint nulls because
the table is Codd).  Works for uniform and non-uniform domains alike.

Unlike the paper's proof we do not replace constants by fresh singleton-
domain nulls; the per-variable intersection simply treats a constant ``c``
as having domain ``{c}``.
"""

from __future__ import annotations

from math import prod

from repro.core.classify import tractable
from repro.core.problems import VAL_CODD
from repro.core.query import Atom, BCQ, BooleanQuery
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Term, is_null


def applies(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    """Whether Theorem 3.7 counts ``#ValCd(q)(D)``, and why: ``q`` in the FP
    cell of ``#ValCd`` and ``D`` a Codd table (domains may differ)."""
    ok, reason = tractable(query, VAL_CODD)
    if ok and not db.is_codd:
        return False, "database is not a Codd table (some null occurs twice)"
    return ok, reason


def _domain_of_term(db: IncompleteDatabase, term: Term) -> frozenset[Term]:
    """The value set a term can take: ``dom(⊥)`` for nulls, ``{c}`` else."""
    if is_null(term):
        return db.domain_of(term)
    return frozenset((term,))


def _matching_valuations(
    db: IncompleteDatabase, atom: Atom, fact: Fact
) -> int:
    """Valuations of the fact's nulls making it a homomorphic image of
    ``atom``.

    For each variable ``x`` of the atom, every position of ``x`` must carry
    the same value, available to all the terms there; distinct variables
    are independent because the fact's nulls are pairwise distinct (Codd).
    """
    count = 1
    for variable in atom.variables():
        positions = [
            i for i, term in enumerate(atom.terms) if term == variable
        ]
        allowed: frozenset[Term] | None = None
        for position in positions:
            term_domain = _domain_of_term(db, fact.terms[position])
            allowed = (
                term_domain if allowed is None else allowed & term_domain
            )
        assert allowed is not None  # atoms have arity >= 1
        count *= len(allowed)
        if count == 0:
            return 0
    return count


def _count_atom(db: IncompleteDatabase, atom: Atom) -> int:
    """``#ValCd(R(x̄))(D(R))``: valuations of the nulls of ``D(R)`` under
    which some tuple matches the atom."""
    facts = sorted(db.relation(atom.relation), key=Fact.sort_key)
    if not facts:
        return 0
    for fact in facts:
        if fact.arity != atom.arity:
            raise ValueError(
                "arity mismatch between %r and fact %r" % (atom, fact)
            )
    total = prod(
        len(db.domain_of(null)) for fact in facts for null in fact.nulls()
    )
    no_match = 1
    for fact in facts:
        fact_total = prod(len(db.domain_of(null)) for null in fact.nulls())
        no_match *= fact_total - _matching_valuations(db, atom, fact)
    return total - no_match


def count_valuations_codd(db: IncompleteDatabase, query: BCQ) -> int:
    """``#ValCd(q)(D)`` for ``q`` without the ``R(x)∧S(x)`` pattern
    (Theorem 3.7), where :func:`applies`."""
    ok, reason = applies(db, query)
    if not ok:
        raise ValueError("Theorem 3.7 does not apply: %s" % reason)

    result = 1
    query_relations = query.relations
    atoms_by_relation = {atom.relation: atom for atom in query.atoms}
    for relation, atom in sorted(atoms_by_relation.items()):
        result *= _count_atom(db, atom)
        if result == 0:
            return 0
    # Nulls in relations outside sig(q) are unconstrained.
    for fact in db.facts:
        if fact.relation not in query_relations:
            for null in fact.nulls():
                result *= len(db.domain_of(null))
    return result
