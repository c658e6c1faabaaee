"""Completion recognition for Codd tables (Lemma B.2).

Given a Codd table ``D`` and a set ``S`` of ground facts, decide in
polynomial time whether some valuation ``ν`` has ``ν(D) = S``.  This is the
certificate check behind the membership of ``#CompCd(q)`` in #P
(Prop. B.1 / Theorem 4.4): guess ``S``, verify it with a maximum bipartite
matching between the facts of ``D`` and the compatible facts of ``S``.
"""

from __future__ import annotations

from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import is_null
from repro.graphs.matching import maximum_matching_size


def _fact_can_become(
    db: IncompleteDatabase, template: Fact, ground: Fact
) -> bool:
    """Whether some valuation of the template's nulls yields ``ground``.

    For a Codd table the nulls of one fact are pairwise distinct, so the
    check is positionwise: constants must agree, nulls must have the target
    value in their domain.
    """
    if template.relation != ground.relation or template.arity != ground.arity:
        return False
    for term, value in zip(template.terms, ground.terms):
        if is_null(term):
            if value not in db.domain_of(term):
                return False
        elif term != value:
            return False
    return True


def is_completion_of_codd(db: IncompleteDatabase, candidate: Database) -> bool:
    """Lemma B.2: is ``candidate`` a completion of the Codd table ``db``?

    Polynomial time: (a) every fact of ``db`` must be able to become *some*
    fact of ``candidate``; (b) a maximum matching in the bipartite graph
    (facts of ``db``) x (facts of ``candidate``) must saturate ``candidate``
    — i.e. have size ``|candidate|`` — so that every candidate fact is
    *produced* by a distinct db fact, with leftover db facts free to
    duplicate an already-produced fact (set semantics absorbs them).
    """
    if not db.is_codd:
        raise ValueError("Lemma B.2 applies to Codd tables")

    db_facts = sorted(db.facts, key=Fact.sort_key)
    candidate_facts = sorted(candidate.facts, key=Fact.sort_key)
    compatibility: dict[int, list[int]] = {}
    for i, template in enumerate(db_facts):
        compatible = [
            j
            for j, ground in enumerate(candidate_facts)
            if _fact_can_become(db, template, ground)
        ]
        if not compatible:
            # This fact must appear in every completion in some form, but
            # no candidate fact can absorb it: reject (condition (*)).
            return False
        compatibility[i] = compatible

    matching = maximum_matching_size(list(range(len(db_facts))), compatibility)
    return matching == len(candidate_facts)
