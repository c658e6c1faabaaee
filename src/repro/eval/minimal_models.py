"""Empirical checks of the Prop. 5.2 hypotheses.

Prop. 5.2 places ``#Val(q)`` in SpanL (hence FPRAS, via Theorem 5.1) when
``q`` is monotone, has model checking in nondeterministic linear space, and
has *bounded minimal models*.  These helpers verify the first and third
hypotheses on concrete databases, and enumerate minimal models — useful both
for tests and for exploring which custom queries qualify.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.core.query import BooleanQuery
from repro.db.database import Database
from repro.db.fact import Fact
from repro.eval.evaluate import evaluate


def minimal_models(
    query: BooleanQuery, database: Database
) -> list[Database]:
    """All minimal sub-databases ``D' ⊆ D`` with ``D' |= q``.

    Exhaustive over subsets in increasing size; a found model excludes its
    supersets.  Exponential — intended for small test databases.
    """
    facts = sorted(database.facts, key=Fact.sort_key)
    found: list[frozenset] = []
    for size in range(len(facts) + 1):
        for subset in combinations(facts, size):
            subset_facts = frozenset(subset)
            if any(model <= subset_facts for model in found):
                continue
            if evaluate(query, Database(subset_facts)):
                found.append(subset_facts)
    return [Database(model) for model in found]


def has_bounded_minimal_models(
    query: BooleanQuery, database: Database, bound: int
) -> bool:
    """Do all minimal models of ``q`` inside ``database`` have <= ``bound``
    facts?  (The ``C_q`` condition of Section 5.1, checked on one input.)"""
    return all(len(model) <= bound for model in minimal_models(query, database))


def is_monotone_on(
    query: BooleanQuery, databases: Iterable[Database]
) -> bool:
    """Check monotonicity of ``q`` across the comparable pairs of a sample.

    For every pair ``D ⊆ D'`` in the sample, ``D |= q`` must imply
    ``D' |= q``.  (A sampled refutation is definitive; a pass is evidence,
    not proof.)
    """
    sample = list(databases)
    for smaller in sample:
        if not evaluate(query, smaller):
            continue
        for bigger in sample:
            if smaller.issubset(bigger) and not evaluate(query, bigger):
                return False
    return True
