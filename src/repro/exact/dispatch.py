"""Front-door counting API: plan, then run the chosen registry method.

:func:`solve` is the one front door: ``solve(problem, db, query,
method=..., weights=..., budget=..., store=...)`` plans the instance once
through the solver planner (:mod:`repro.exact.planner`) — a registry in
which every algorithm is registered once, with its applicability
conditions and one runner per problem kind it serves, in one preference
order — executes the chosen entry, and returns a structured
:class:`Answer` carrying the count, the explainable :class:`Plan`, wall
seconds, and the observability stats captured while planning and
running.  The CLI and every batch-engine job answer through it; the
engine passes its cache as the circuit ``store``.  The per-problem
functions (``count_valuations`` / ``count_completions`` /
:func:`count_valuations_weighted` / :func:`count_valuations_sweep`) are
thin wrappers over :func:`solve`; a ``val-weighted`` question is the
one-row ``sweep``.  There is no per-method conditional here: adding a
solver is one :func:`repro.exact.planner.register` call (it joins the
end of the preference order), and ``repro-count plan`` prints the full
decision (chosen method, rows passed over and not reached, rejected
alternatives, reasons) for any instance.

Method vocabulary (see the registry for the authoritative table):

=================== ======================================================
``auto``            first applicable method in preference order: a
                    polynomial Table 1 algorithm when one applies, else
                    ``delta`` on a conditionable update, ``dpdb`` at
                    probed width <= 12, ``lineage`` on (U)CQs, else
                    ``brute``
``poly``            polynomial algorithm or :class:`NoPolynomialAlgorithm`
``single-occurrence`` Theorem 3.6 closed formula (``#Val``, weighted too)
``codd`` / ``uniform`` / ``uniform-unary``  Theorems 3.7 / 3.9 / 4.6
``lineage``         compile to CNF, exact #SAT with component caching;
                    degrades to ``brute`` on non-(U)CQs
``dpdb``            the same CNF, counted by a DP over a tree
                    decomposition; degrades to ``brute`` on non-(U)CQs
``circuit``         the same search recorded once as a d-DNNF circuit
                    (weighted counts, marginals and exact samples become
                    linear passes); degrades to ``brute`` on non-(U)CQs
``delta``           a resolve/restrict-updated instance's ``#Val``
                    circuit, conditioned from a cached ancestor circuit;
                    degrades to ``circuit``, then ``brute``
``brute``           enumerate all valuations (opt-in ``budget``)
=================== ======================================================

``budget`` bounds *enumeration* and hence only applies to ``brute``: the
lineage/circuit backends, like any exact #SAT solver, run to completion,
and their worst case (high-treewidth lineage) is time- and memory-bound by
the search rather than by a valuation count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.exact import brute
from repro.exact import planner
from repro.exact.planner import NoPolynomialAlgorithm, Plan
from repro.obs import capture as _capture

__all__ = [
    "Answer",
    "NoPolynomialAlgorithm",
    "Plan",
    "count_completions",
    "count_valuations",
    "count_valuations_sweep",
    "count_valuations_weighted",
    "solve",
]


# -- the unified front door -------------------------------------------------


@dataclass(frozen=True)
class Answer:
    """One solved counting question, with how it was answered.

    ``count`` is the problem's result (an int for ``val``/``comp``, a
    number for ``val-weighted``, a marginal table for ``marginals``, a
    list of numbers for ``sweep``); ``method`` the concrete registry
    method that ran; ``plan`` the full explainable decision;
    ``seconds`` the wall time of the run; ``stats`` the observability
    digest of planning and running (``phases``/``counters``, empty when
    the obs layer is disabled — the same digest an engine job reports as
    ``meta['metrics']``).
    """

    problem: str
    count: Any
    method: str
    plan: Plan
    seconds: float
    stats: dict[str, Any] = field(default_factory=dict)


def solve(
    problem: str,
    db: IncompleteDatabase,
    query: BooleanQuery | None = None,
    *,
    method: str = "auto",
    weights: Any = None,
    budget: int | None = brute.DEFAULT_BUDGET,
    store: Any = None,
) -> Answer:
    """Answer one counting question: plan, run, report.

    ``problem`` is a planner problem kind (:data:`repro.exact.planner.
    PROBLEMS`): ``'val'``, ``'comp'``, ``'val-weighted'``,
    ``'marginals'`` or ``'sweep'``.  ``method`` is the problem's planner
    vocabulary (``'auto'``, ``'poly'`` where offered, or a concrete
    method name); ``weights`` is one per-null weight table for the
    weighted problems and a *sequence* of tables for ``'sweep'``;
    ``budget`` only limits ``brute``; the planner answers
    ``val-weighted`` as the ``sweep`` of the one row ``[weights]``.
    ``store`` is an optional circuit
    store (the batch engine passes its
    :class:`~repro.engine.cache.CountCache`): circuit-backed methods read
    the instance's circuit from it, derive it from a cached delta
    ancestor, or compile and install it.

    Raises :class:`ValueError` for an unknown problem or method, for
    ``weights`` the problem cannot use (the check an engine job makes,
    :func:`repro.exact.planner.check_weights`), or for a missing query
    where the problem needs one (every problem but ``'comp'``), and
    :class:`NoPolynomialAlgorithm` when ``method='poly'`` hits a #P-hard
    cell.
    """
    planner.check_weights(problem, weights)
    with _capture() as captured:
        built = planner.plan(problem, db, query, method)
        if built.chosen is None:
            if method == "poly":
                raise NoPolynomialAlgorithm(built.error)
            raise ValueError(built.error)
        started = time.perf_counter()
        count = planner.run(
            problem, built.chosen, db, query,
            budget=budget, weights=weights, store=store,
        )
        seconds = time.perf_counter() - started
    return Answer(
        problem=problem,
        count=count,
        method=built.chosen,
        plan=built,
        seconds=seconds,
        stats=captured.digest(),
    )


# -- execution (thin wrappers over ``solve``) -------------------------------


def count_valuations(
    db: IncompleteDatabase,
    query: BooleanQuery,
    method: str = "auto",
    budget: int | None = brute.DEFAULT_BUDGET,
) -> int:
    """``#Val(q)(D)`` with planner-backed algorithm selection.

    ``method='poly'`` refuses to fall back to an exponential-worst-case
    algorithm (raises :class:`NoPolynomialAlgorithm` where no closed form
    applies);
    explicit method names force one algorithm.  ``budget`` only limits
    ``brute``.
    """
    return solve("val", db, query, method=method, budget=budget).count


def count_completions(
    db: IncompleteDatabase,
    query: BooleanQuery | None = None,
    method: str = "auto",
    budget: int | None = brute.DEFAULT_BUDGET,
) -> int:
    """``#Comp(q)(D)`` (or the total number of completions for
    ``query=None``) with planner-backed algorithm selection.  ``budget``
    only limits ``brute``."""
    return solve("comp", db, query, method=method, budget=budget).count


def count_valuations_weighted(
    db: IncompleteDatabase,
    query: BooleanQuery,
    weights=None,
    method: str = "auto",
    budget: int | None = brute.DEFAULT_BUDGET,
):
    """Weighted ``#Val(q)(D)``: each satisfying valuation contributes its
    product of per-null value weights.

    ``weights`` maps nulls to value-weight tables (see
    :func:`repro.db.valuation.resolve_null_weights`); unlisted nulls weigh
    ``1`` per value, so ``weights=None`` degenerates to the plain count.
    Exact for int/Fraction weights.  ``budget`` only limits ``brute``.
    """
    return solve(
        "val-weighted", db, query, method=method, weights=weights,
        budget=budget,
    ).count


def count_valuations_sweep(
    db: IncompleteDatabase,
    query: BooleanQuery,
    weight_rows,
    method: str = "auto",
    budget: int | None = brute.DEFAULT_BUDGET,
) -> list:
    """Weighted ``#Val(q)(D)`` under each of N weight tables: one answer
    per table, in order.

    Equivalent to ``[count_valuations_weighted(db, query, row) for row
    in weight_rows]`` but planned **once**: the circuit method compiles
    the instance a single time and answers every table in one batched
    circuit pass (:meth:`~repro.compile.backend.ValuationCircuit.
    weighted_count_many`).  Exact for int/Fraction weights; ``budget``
    only limits ``brute``.
    """
    return solve(
        "sweep", db, query, method=method, weights=list(weight_rows),
        budget=budget,
    ).count
