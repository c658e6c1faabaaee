"""Exhaustive counting of valuations and completions (ground truth).

These counters realize the problem *definitions* of Section 2 directly:
enumerate every valuation, apply it, evaluate the query.  They are
exponential in the number of nulls — which is exactly the behaviour the
#P-hardness results predict for the hard dichotomy cells — and serve as the
reference implementation that every polynomial-time algorithm and every
reduction is tested against.
"""

from __future__ import annotations

from repro.core.query import BooleanQuery
from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.valuation import (
    NullWeights,
    count_total_valuations,
    iter_valuations,
    resolve_null_weights,
)
from repro.eval.evaluate import evaluate


class BruteForceBudgetExceeded(RuntimeError):
    """The instance has more valuations than the enumeration budget."""


#: Default maximum number of valuations the brute-force counters will visit.
DEFAULT_BUDGET = 2_000_000


def _check_budget(db: IncompleteDatabase, budget: int | None) -> None:
    if budget is None:
        return
    total = count_total_valuations(db)
    if total > budget:
        raise BruteForceBudgetExceeded(
            "instance has %d valuations, budget is %d; raise `budget` or "
            "use a polynomial algorithm" % (total, budget)
        )


def _iter_substituted_fact_sets(db: IncompleteDatabase):
    """Yield the substituted fact set of every valuation, fast.

    Internal hot path: skips the per-valuation domain validation of
    :func:`apply_valuation` (the enumerator only produces valid valuations)
    and avoids constructing :class:`Database` objects until needed.
    """
    facts = sorted(db.facts, key=Fact.sort_key)
    for valuation in iter_valuations(db):
        yield frozenset(fact.substitute(valuation) for fact in facts)


def count_valuations_brute(
    db: IncompleteDatabase,
    query: BooleanQuery,
    budget: int | None = DEFAULT_BUDGET,
) -> int:
    """``#Val(q)(D)`` by definition: enumerate valuations, evaluate ``q``.

    Distinct valuations often collapse to the same completion; ``q`` is
    evaluated once per distinct completion and the verdict reused.
    """
    _check_budget(db, budget)
    verdicts: dict[frozenset[Fact], bool] = {}
    count = 0
    for fact_set in _iter_substituted_fact_sets(db):
        verdict = verdicts.get(fact_set)
        if verdict is None:
            verdict = evaluate(query, Database(fact_set))
            verdicts[fact_set] = verdict
        if verdict:
            count += 1
    return count


def count_valuations_weighted_brute(
    db: IncompleteDatabase,
    query: BooleanQuery,
    weights: NullWeights | None = None,
    budget: int | None = DEFAULT_BUDGET,
):
    """Weighted ``#Val`` by definition: each satisfying valuation adds its
    product of per-null value weights.

    The uniform all-ones convention recovers
    :func:`count_valuations_brute`; arbitrary int/Fraction weights stay
    exact.  This is the ground truth the circuit backend's
    ``weighted_count`` is tested against.
    """
    _check_budget(db, budget)
    resolved = resolve_null_weights(db, weights)
    nulls = db.nulls
    facts = sorted(db.facts, key=Fact.sort_key)
    verdicts: dict[frozenset[Fact], bool] = {}
    total: object = 0
    for valuation in iter_valuations(db):
        fact_set = frozenset(fact.substitute(valuation) for fact in facts)
        verdict = verdicts.get(fact_set)
        if verdict is None:
            verdict = evaluate(query, Database(fact_set))
            verdicts[fact_set] = verdict
        if verdict:
            weight: object = 1
            for null in nulls:
                weight = weight * resolved[null][valuation[null]]  # type: ignore[operator]
            total = total + weight  # type: ignore[operator]
    return total


def count_completions_brute(
    db: IncompleteDatabase,
    query: BooleanQuery | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> int:
    """``#Comp(q)(D)`` by definition: enumerate *distinct* completions.

    With ``query=None`` counts all completions of ``D`` — itself a #P-hard
    quantity in general (Prop. 4.2 makes it hard already for a single unary
    relation in the non-uniform setting).
    """
    _check_budget(db, budget)
    seen: set[frozenset[Fact]] = set()
    count = 0
    for fact_set in _iter_substituted_fact_sets(db):
        if fact_set in seen:
            continue
        seen.add(fact_set)
        if query is None or evaluate(query, Database(fact_set)):
            count += 1
    return count


def valuation_completion_gap(
    db: IncompleteDatabase,
    query: BooleanQuery,
    budget: int | None = DEFAULT_BUDGET,
) -> tuple[int, int]:
    """``(#Val(q)(D), #Comp(q)(D))`` in one pass (Example 2.2's contrast)."""
    _check_budget(db, budget)
    valuations = 0
    verdicts: dict[frozenset[Fact], bool] = {}
    for fact_set in _iter_substituted_fact_sets(db):
        verdict = verdicts.get(fact_set)
        if verdict is None:
            verdict = evaluate(query, Database(fact_set))
            verdicts[fact_set] = verdict
        if verdict:
            valuations += 1
    return valuations, sum(1 for verdict in verdicts.values() if verdict)
