"""The solver planner: one method registry behind every counting front door.

Every exact algorithm in the repo — the closed-form Table 1 cells, delta
conditioning, the tree-decomposition DP, the lineage #SAT backend, the
d-DNNF circuit pipeline, brute enumeration — is registered here once, as
a :class:`Method` with

* one **runner per problem kind** it serves (``val``, ``comp``,
  ``marginals``, ``sweep``); ``val-weighted`` is the one-row ``sweep``,
  planned on the ``sweep`` rows and answered as ``sweep([weights])[0]``,
* an **applicability predicate** ``applies(kind, D, q)`` returning a
  human-readable reason either way; a closed-form row registers its
  module's own ``applies(D, q)``, its Table 1 cell (decided by
  :func:`repro.core.classify.tractable`) plus the table shape it needs,
* a **polynomial** flag; the weights and marginals flags are read off
  the kinds served (``sweep`` and ``marginals``),
* an optional **preference gate** ``prefer(kind, D, q) -> (take it?,
  detail)`` that ``auto`` asks only when it reaches the row (the dpdb
  width probe).

Registration order is preference order, one order for every kind: the
Table 1 closed forms first (a purely syntactic check settles them), then
``delta``, ``dpdb``, ``lineage``, ``circuit`` and ``brute``.  A kind's
rows are that order filtered by kind.

:func:`plan` turns ``(problem, D, q, method)`` into an explainable
:class:`Plan`: every row's applicability with its reason, the chosen
method, and the rows passed over on the way.  ``method='auto'`` takes the
first applicable row whose gate passes (or that has none), so a
closed-form cell never pays for the width probe; ``method='poly'`` takes
the first applicable polynomial row (when none applies, the plan's error
gathers the closed forms' own refusals); a concrete method name is
honored verbatim, following the registered fallbacks (``delta`` ->
``circuit`` -> ``brute`` on a non-(U)CQ) until a method applies.

:func:`run` executes one chosen method.  Circuit-backed methods take an
optional circuit ``store`` (the engine's
:class:`~repro.engine.cache.CountCache`) and fetch their circuit through
:func:`repro.engine.incremental.instance_circuit`.
:func:`repro.exact.dispatch.solve` is the one caller of the pair — the
CLI and every batch-engine job answer through it.  A new solver is one
:func:`register` call; it joins the end of the order, so ``auto``
reaches it only where no earlier row applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.compile.backend import (
    count_completions_lineage,
    count_valuations_lineage,
    lineage_supports,
)
from repro.compile.dpdb import (
    DPDB_WIDTH_LIMIT,
    count_completions_dpdb,
    count_valuations_dpdb,
    dpdb_probe,
)
from repro.core.query import BooleanQuery, require_query
from repro.db.deltas import delta_chain, resolution_only
from repro.db.incomplete import IncompleteDatabase
from repro.exact import brute
from repro.exact import comp_uniform as _comp_uniform
from repro.exact import val_codd as _val_codd
from repro.exact import val_nonuniform as _val_nonuniform
from repro.exact import val_uniform as _val_uniform
from repro.obs import event as _obs_event, incr as _incr, span as _span


class NoPolynomialAlgorithm(ValueError):
    """Raised by ``method='poly'`` when no closed form applies; the message
    gives each one's reason (a hard or open cell of Table 1, a table shape
    it lacks, or a query outside Table 1)."""


class UnknownMethod(ValueError):
    """A ``method=`` name outside the problem's vocabulary."""


#: Problem kinds the planner understands.  ``sweep`` is the batched form
#: of ``val-weighted``: one instance, a *sequence* of weight tables, one
#: answer per table (the circuit method compiles once and answers all of
#: them in a single vectorized pass).
PROBLEMS = ("val", "comp", "val-weighted", "marginals", "sweep")

#: The kinds a method registers runners for, and the kind that answers
#: each problem: ``val-weighted`` is the one-row ``sweep``.
_KINDS = ("val", "comp", "marginals", "sweep")
_KIND = {kind: kind for kind in _KINDS} | {"val-weighted": "sweep"}

#: Problems for which ``method='poly'`` is a valid request (the weighted
#: and marginal problems never offered a poly mode; keep their method
#: vocabulary unchanged).
_POLY_PROBLEMS = frozenset({"val", "comp"})

#: Problems whose ``weights`` knob is meaningful: ``val-weighted`` and
#: ``marginals`` take one per-null table, ``sweep`` a *sequence* of them.
_WEIGHTED_PROBLEMS = ("val-weighted", "marginals", "sweep")

Applies = Callable[
    [str, IncompleteDatabase, BooleanQuery | None], "tuple[bool, str]"
]
Prefer = Callable[
    [str, IncompleteDatabase, BooleanQuery | None],
    "tuple[bool, Mapping[str, Any] | None]",
]
Run = Callable[[IncompleteDatabase, BooleanQuery | None, Any, Any, Any], Any]


@dataclass(frozen=True)
class Method:
    """One registered solver: a runner per problem kind, applicability,
    preference gate and fallback."""

    name: str
    description: str
    polynomial: bool
    #: ``kind -> run(D, q, budget, weights, store)`` for every problem
    #: kind the method serves (``sweep`` also answers ``val-weighted``).
    runs: Mapping[str, Run]
    applies: Applies
    #: Method to degrade to when this one is *forced* on an instance it
    #: cannot handle; a forced plan follows the chain, through methods
    #: serving the plan's kind, until a method applies (``None``: honor
    #: the forced choice and let the solver raise its own error).
    fallback: str | None = None
    #: Optional preference gate ``(take it?, detail)``, asked only when
    #: ``auto`` reaches this applicable row; a failed gate passes the row
    #: over for the next one.  The detail (e.g. the dpdb width probe)
    #: surfaces in :class:`Plan` rows and ``repro-count plan --json``.
    prefer: Prefer | None = None

    @property
    def supports_weights(self) -> bool:
        """Whether the method answers weighted ``#Val`` (serves ``sweep``)."""
        return "sweep" in self.runs

    @property
    def supports_marginals(self) -> bool:
        """Whether the method answers per-null marginals."""
        return "marginals" in self.runs


#: method name -> registration, in preference order.
_REGISTRY: dict[str, Method] = {}


def register(method: Method) -> Method:
    """Add a solver at the end of the preference order (re-registering a
    name replaces it in place)."""
    for kind in method.runs:
        if kind not in _KINDS:
            raise ValueError(
                "cannot register a runner for %r (one of %s; 'val-weighted' "
                "runs as the one-row 'sweep')" % (kind, _KINDS)
            )
    _REGISTRY[method.name] = method
    return method


def methods_for(problem: str) -> tuple[Method, ...]:
    """The methods serving one problem kind, in preference order
    (``val-weighted``: the ``sweep`` rows)."""
    kind = _KIND.get(problem)
    if kind is None:
        raise ValueError("unknown problem %r (one of %s)" % (problem, PROBLEMS))
    return tuple(entry for entry in _REGISTRY.values() if kind in entry.runs)


def method_names(problem: str) -> tuple[str, ...]:
    """The valid ``method=`` vocabulary of a problem (requests included)."""
    return _vocabulary(problem, methods_for(problem))


def _vocabulary(problem: str, entries: tuple[Method, ...]) -> tuple[str, ...]:
    requests = ("auto", "poly") if problem in _POLY_PROBLEMS else ("auto",)
    return requests + tuple(entry.name for entry in entries)


def check_weights(problem: str, weights: Any) -> None:
    """Raise :class:`ValueError` unless ``problem`` can use ``weights``:
    ``sweep`` takes a sequence of per-null weight tables,
    ``val-weighted`` and ``marginals`` one table or ``None``, every other
    problem ``None``."""
    if problem == "sweep":
        if weights is None or isinstance(weights, Mapping):
            raise ValueError(
                "'sweep' takes a sequence of per-null weight tables"
            )
    elif weights is not None and problem not in _WEIGHTED_PROBLEMS:
        raise ValueError(
            "weights only apply to problems %s" % (_WEIGHTED_PROBLEMS,)
        )


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Considered:
    """One method's verdict inside a plan."""

    method: str
    applicable: bool
    reason: str
    #: ``chosen``; ``passed over`` (the request reached the row and
    #: declined it: a failed ``auto`` gate, or a non-polynomial row under
    #: ``poly``); ``not reached`` (any other applicable row); ``n/a``.
    verdict: str
    polynomial: bool
    supports_weights: bool
    supports_marginals: bool
    #: The row's gate detail (e.g. ``{"width": 8, "width_limit": 12}``
    #: from the dpdb probe) when the plan asked its gate, else ``None``.
    detail: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class Plan:
    """An explainable method choice: what was picked, what was not, and why."""

    problem: str
    requested: str
    chosen: str | None
    considered: tuple[Considered, ...]
    notes: tuple[str, ...] = ()
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``repro-count plan --json`` payload)."""
        return {
            "problem": self.problem,
            "requested": self.requested,
            "chosen": self.chosen,
            "error": self.error,
            "notes": list(self.notes),
            "considered": [
                {
                    "method": item.method,
                    "applicable": item.applicable,
                    "reason": item.reason,
                    "verdict": item.verdict,
                    "polynomial": item.polynomial,
                    "supports_weights": item.supports_weights,
                    "supports_marginals": item.supports_marginals,
                    "detail": dict(item.detail) if item.detail else None,
                }
                for item in self.considered
            ],
        }

    def explain(self) -> str:
        """Human-readable report: chosen method, alternatives, reasons."""
        lines = [
            "problem:    %s" % self.problem,
            "requested:  %s" % self.requested,
            "chosen:     %s" % (self.chosen if self.chosen else "(none)"),
        ]
        if self.error:
            lines.append("error:      %s" % self.error)
        for note in self.notes:
            lines.append("note:       %s" % note)
        lines.append("considered:")
        for item in self.considered:
            marker = "*" if item.method == self.chosen else " "
            flags = "".join(
                (
                    "P" if item.polynomial else "-",
                    "w" if item.supports_weights else "-",
                    "m" if item.supports_marginals else "-",
                )
            )
            lines.append(
                "  %s %-18s %-11s [%s]  %s"
                % (marker, item.method, item.verdict, flags, item.reason)
            )
            if item.detail:
                lines.append(
                    "    detail: %s"
                    % ", ".join(
                        "%s=%s" % (key, value)
                        for key, value in item.detail.items()
                    )
                )
        return "\n".join(lines)


def plan(
    problem: str,
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    method: str = "auto",
) -> Plan:
    """Build the explainable plan for one instance.

    Raises :class:`ValueError` for an unknown problem or a missing query
    (only ``comp`` counts without one) and :class:`UnknownMethod` for a
    method name outside the problem's vocabulary; every *semantic*
    failure (``poly`` with no closed form, no applicable method) is
    reported in :attr:`Plan.error` so the CLI can still print the full
    analysis.

    Every row's applicability is checked (a cheap syntactic test).
    ``auto`` then walks the rows in registration order and stops at the
    first applicable one whose gate passes or that has none; ``poly``
    stops at the first applicable polynomial row.  A gate runs only when
    ``auto`` reaches its row; a forced plan runs its chosen row's gate
    just to report the detail.  ``val-weighted`` walks the ``sweep``
    rows.
    """
    entries = methods_for(problem)
    require_query(problem, query)
    valid = _vocabulary(problem, entries)
    if method not in valid:
        raise UnknownMethod("unknown method %r (one of %s)" % (method, valid))

    kind = _KIND[problem]
    applicability = {entry.name: entry.applies(kind, db, query) for entry in entries}
    verdicts = {
        name: "not reached" if applicable else "n/a"
        for name, (applicable, _reason) in applicability.items()
    }
    details: dict[str, Mapping[str, Any] | None] = {}
    notes: list[str] = []
    chosen: str | None = None
    if method in ("auto", "poly"):
        for entry in entries:
            if not applicability[entry.name][0]:
                continue
            if method == "poly":
                preferred = entry.polynomial
            elif entry.prefer is None:
                preferred = True
            else:
                preferred, details[entry.name] = entry.prefer(kind, db, query)
            if preferred:
                chosen = entry.name
                break
            verdicts[entry.name] = "passed over"
    else:
        chosen = _follow_fallbacks(method, applicability, notes)
        entry = _REGISTRY[chosen]
        if applicability[chosen][0] and entry.prefer is not None:
            details[chosen] = entry.prefer(kind, db, query)[1]
    if chosen is not None:
        verdicts[chosen] = "chosen"
    considered = tuple(
        Considered(
            method=entry.name,
            applicable=applicability[entry.name][0],
            reason=applicability[entry.name][1],
            verdict=verdicts[entry.name],
            polynomial=entry.polynomial,
            supports_weights=entry.supports_weights,
            supports_marginals=entry.supports_marginals,
            detail=details.get(entry.name),
        )
        for entry in entries
    )
    error = None
    if chosen is None:
        error = _no_method_error(problem, method, considered)
    _obs_event(
        "planner.decision",
        problem=problem,
        requested=method,
        chosen=chosen,
        rejected={
            item.method: item.reason for item in considered if not item.applicable
        },
        passed_over={
            item.method: item.detail
            for item in considered
            if item.verdict == "passed over"
        },
        failed=error is not None,
    )
    if chosen is not None:
        _incr("planner.chosen.%s" % chosen)
    return Plan(
        problem=problem,
        requested=method,
        chosen=chosen,
        considered=considered,
        notes=tuple(notes),
        error=error,
    )


def _follow_fallbacks(
    method: str,
    applicability: Mapping[str, tuple[bool, str]],
    notes: list[str],
) -> str:
    """The method a forced request runs: ``method`` when it applies, else
    the first applicable method down its fallback chain, one note per
    hop.  A chain that ends on an inapplicable method, or on one that
    does not serve the plan's kind, is honored as is."""
    while not applicability[method][0]:
        reason = applicability[method][1]
        fallback = _REGISTRY[method].fallback
        if fallback is None or fallback not in applicability:
            notes.append(
                "forced %r although the planner does not expect it to "
                "apply (%s); the solver will raise its own error"
                % (method, reason)
            )
            break
        notes.append(
            "%r cannot handle this instance (%s); degrading to %r"
            % (method, reason, fallback)
        )
        method = fallback
    return method


def _no_method_error(
    problem: str, method: str, considered: tuple[Considered, ...]
) -> str:
    if method == "poly":
        # Every polynomial row is a closed form; their own refusals say
        # why (a hard or open cell, a table shape, a query outside Table 1).
        refusals: dict[str, list[str]] = {}
        for item in considered:
            if item.polynomial:
                refusals.setdefault(item.reason, []).append(item.method)
        return "no polynomial-time algorithm for %r on this instance: %s" % (
            problem,
            "; ".join(
                "%s: %s" % (", ".join(names), reason)
                for reason, names in refusals.items()
            ),
        )
    return "no registered method can solve problem %r on this instance" % problem


def run(
    problem: str,
    method: str,
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    budget: int | None = None,
    weights: Mapping[Any, Any] | None = None,
    store: Any = None,
) -> Any:
    """Execute one *resolved* method through its runner for ``problem``.

    ``val-weighted`` runs the method's ``sweep`` runner on the one row
    ``[weights]`` and returns its one answer (``weights=None``: the plain
    count).  A ``sweep`` of no rows is ``[]`` under every method, with
    no runner called, so no circuit is fetched or compiled.  ``store`` is
    an optional circuit store (the engine's
    :class:`~repro.engine.cache.CountCache`) that circuit-backed methods
    fetch from, derive into and install into.
    """
    try:
        runner = _REGISTRY[method].runs[_KIND[problem]]
    except KeyError:
        raise ValueError(
            "no registered method %r for problem %r" % (method, problem)
        ) from None
    with _span("planner.run", problem=problem, method=method):
        if problem == "val-weighted":
            return runner(db, query, budget, [weights], store)[0]
        if problem == "sweep" and not weights:
            return []  # no row to answer: fetch (or compile) nothing
        return runner(db, query, budget, weights, store)


# ---------------------------------------------------------------------------
# applicability predicates (reasons in both directions) and gates
# ---------------------------------------------------------------------------


def _any_kind(
    applies: Callable[[IncompleteDatabase, BooleanQuery | None], tuple[bool, str]],
) -> Applies:
    """A closed form's own ``applies(D, q)`` — its Table 1 cell and the
    table shape it needs — as its row's applicability for every kind."""
    return lambda kind, db, query: applies(db, query)


def _applies_lineage(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, "(U)CQ lineage compiles to CNF; exact #SAT search"


def _applies_dpdb(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    """Applicability of the tree-decomposition DP for ``val``/``comp``.

    Applies wherever lineage does (a forced ``method='dpdb'`` is honored;
    the runner itself degrades to the trail core above its hard width
    cap).  Whether ``auto`` takes it is the width probe's call
    (:func:`_prefer_dpdb`), made only when ``auto`` reaches the row.
    """
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, (
        "(U)CQ lineage compiles to CNF; join/project/sum DP over a tree "
        "decomposition, preferred at low elimination width"
    )


def _prefer_dpdb(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, Mapping[str, Any] | None]:
    """Take dpdb when the width probe succeeds at width at most
    :data:`~repro.compile.dpdb.DPDB_WIDTH_LIMIT`; above it the trail
    search (the next row) is the better bet."""
    probe = dpdb_probe(kind, db, query)
    found = probe.detail()
    if not probe.ok:
        found["probe"] = probe.reason
        return False, found
    return probe.width is not None and probe.width <= DPDB_WIDTH_LIMIT, found


def _applies_circuit(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    if kind == "marginals" and query is None:
        return False, "marginals are per-null posteriors; a query is required"
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, "(U)CQ lineage compiles to a reusable d-DNNF circuit"


def _applies_delta(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    """Applicability of the incremental delta method: ``#Val`` on an
    instance whose whole delta chain resolves or restricts nulls, so a
    parent circuit answers it by conditioning."""
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    chain = delta_chain(db)
    if not chain:
        return False, (
            "instance has no delta provenance (no parent circuit to "
            "derive from)"
        )
    if kind != "val" or not all(map(resolution_only, chain[-1][1])):
        return False, (
            "only #Val along resolve/restrict deltas conditions a parent "
            "circuit; the updated instance compiles afresh"
        )
    return True, (
        "answer from the parent circuit by conditioning "
        "(no recompilation)"
    )


def _applies_always(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    return True, "enumeration works on any query (budgeted)"


# ---------------------------------------------------------------------------
# runners and registrations
# ---------------------------------------------------------------------------


def _run_ignoring(function: Callable[..., Any], *forward: str) -> Run:
    """Adapt a solver to the runner signature ``(db, query, budget,
    weights, store)``, forwarding only the knobs it takes."""

    def adapted(
        db: IncompleteDatabase,
        query: BooleanQuery | None,
        budget: int | None,
        weights: Any,
        store: Any,
    ) -> Any:
        knobs = {"budget": budget, "weights": weights}
        return function(db, query, **{name: knobs[name] for name in forward})

    return adapted


def _per_row(function: Callable[..., Any], *forward: str) -> Run:
    """A ``sweep`` runner answering each weight table with one weighted
    call of ``function`` (``forward``: the other knobs it takes)."""
    single = _run_ignoring(function, "weights", *forward)

    def run(
        db: IncompleteDatabase,
        query: BooleanQuery | None,
        budget: int | None,
        weights: Any,
        store: Any,
    ) -> Any:
        return [single(db, query, budget, row, store) for row in weights or ()]

    return run


def _run_on_circuit(
    kind: str, ask: Callable[[Any, Any], Any], derived: bool = False
) -> Run:
    """A circuit-backed solver: fetch the ``kind`` circuit of the instance
    (from the store, conditioned from a cached delta ancestor, or compiled
    and installed — :func:`repro.engine.incremental.instance_circuit`), then
    answer ``ask(circuit, weights)``.  ``derived`` methods refuse
    instances without delta provenance."""

    def run(
        db: IncompleteDatabase,
        query: BooleanQuery | None,
        budget: int | None,
        weights: Any,
        store: Any,
    ) -> Any:
        if derived and db.parent is None:
            raise ValueError(
                "database has no delta provenance; build it via "
                "db.apply(delta)"
            )
        # Imported lazily: the engine builds on this module.
        from repro.engine.incremental import instance_circuit

        return ask(instance_circuit(kind, db, query, store), weights)

    return run


def _count(circuit: Any, weights: Any) -> Any:
    return circuit.count()


register(Method(
    name="single-occurrence",
    description="Theorem 3.6 closed formula (pattern-free sjfBCQs); a "
    "weighted total stays a per-null product",
    polynomial=True,
    runs={
        "val": _run_ignoring(
            _val_nonuniform.count_valuations_single_occurrence
        ),
        "sweep": _per_row(
            _val_nonuniform.count_valuations_weighted_single_occurrence
        ),
    },
    applies=_any_kind(_val_nonuniform.applies),
))

register(Method(
    name="codd",
    description="Theorem 3.7 per-null independence (Codd tables)",
    polynomial=True,
    runs={"val": _run_ignoring(_val_codd.count_valuations_codd)},
    applies=_any_kind(_val_codd.applies),
))

register(Method(
    name="uniform",
    description="Theorem 3.9 algorithm (uniform naive tables)",
    polynomial=True,
    runs={"val": _run_ignoring(_val_uniform.count_valuations_uniform)},
    applies=_any_kind(_val_uniform.applies),
))

register(Method(
    name="uniform-unary",
    description="Theorem 4.6 closed form (uniform, unary schema)",
    polynomial=True,
    runs={
        "comp": _run_ignoring(_comp_uniform.count_completions_uniform_unary)
    },
    applies=_any_kind(_comp_uniform.applies),
))

register(Method(
    name="delta",
    description="condition a cached ancestor's circuit along resolve/"
    "restrict updates",
    polynomial=False,
    runs={
        "val": _run_on_circuit("val", _count, derived=True),
        "comp": _run_on_circuit("comp", _count, derived=True),
    },
    applies=_applies_delta,
    fallback="circuit",
))

register(Method(
    name="dpdb",
    description="lineage -> CNF (canonical facts for comp), "
    "join/project/sum DP over a tree decomposition",
    polynomial=False,
    runs={
        "val": _run_ignoring(count_valuations_dpdb),
        "comp": _run_ignoring(count_completions_dpdb),
    },
    applies=_applies_dpdb,
    fallback="brute",
    prefer=_prefer_dpdb,
))

register(Method(
    name="lineage",
    description="lineage -> CNF (canonical facts for comp), exact "
    "(projected) #SAT with component caching",
    polynomial=False,
    runs={
        "val": _run_ignoring(count_valuations_lineage),
        "comp": _run_ignoring(count_completions_lineage),
    },
    applies=_applies_lineage,
    fallback="brute",
))

register(Method(
    name="circuit",
    description="the same search recorded once as a d-DNNF circuit; "
    "weighted counts, sweeps and marginals are linear passes over it",
    polynomial=False,
    runs={
        "val": _run_on_circuit("val", _count),
        "comp": _run_on_circuit("comp", _count),
        "marginals": _run_on_circuit(
            "val", lambda circuit, weights: circuit.marginals(weights)
        ),
        "sweep": _run_on_circuit(
            "val",
            lambda circuit, rows: circuit.weighted_count_many(list(rows or ())),
        ),
    },
    applies=_applies_circuit,
    fallback="brute",
))

register(Method(
    name="brute",
    description="enumerate all valuations; deduplicate completions for "
    "comp (budgeted)",
    polynomial=False,
    runs={
        "val": _run_ignoring(brute.count_valuations_brute, "budget"),
        "comp": _run_ignoring(brute.count_completions_brute, "budget"),
        "sweep": _per_row(brute.count_valuations_weighted_brute, "budget"),
    },
    applies=_applies_always,
))


__all__ = [
    "Considered",
    "Method",
    "NoPolynomialAlgorithm",
    "PROBLEMS",
    "Plan",
    "UnknownMethod",
    "check_weights",
    "method_names",
    "methods_for",
    "plan",
    "register",
    "run",
]
