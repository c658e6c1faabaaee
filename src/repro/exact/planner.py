"""The solver planner: one method registry behind every counting front door.

Every exact algorithm in the repo — the closed-form Table 1 cells, delta
conditioning, the tree-decomposition DP, the lineage #SAT backend, the
d-DNNF circuit pipeline, brute enumeration — is registered here as a
:class:`Method` with

* the **problem kinds** it serves (``val``, ``comp``, ``val-weighted``,
  ``marginals``, ``sweep``),
* an **applicability predicate** returning a human-readable reason either
  way (the dichotomy conditions, database shape, query class),
* **capability flags** (polynomial? weighted counting? marginals?),
* an optional **preference gate** ``prefer(D, q) -> (take it?, detail)``
  that ``auto`` asks only when it reaches the row (the dpdb width probe,
  the shape of a delta chain),
* the **solver callable** itself.

Registration order is preference order.  Each problem registers its
Table 1 closed forms first (a purely syntactic check settles them), then
``delta``, ``dpdb``, ``lineage``, ``circuit`` and ``brute``.

:func:`plan` turns ``(problem, D, q, method)`` into an explainable
:class:`Plan`: every row's applicability with its reason, the chosen
method, and the rows passed over on the way.  ``method='auto'`` takes the
first applicable row whose gate passes (or that has none), so a
closed-form cell never pays for the width probe; ``method='poly'`` takes
the first applicable polynomial row (and the plan carries the hardness
verdict when none applies); a concrete method name is honored verbatim,
following the registered fallbacks (``delta`` -> ``circuit`` -> ``brute``
on a non-(U)CQ) until a method applies.

:func:`run` executes one chosen method.  Circuit-backed methods take an
optional circuit ``store`` (the engine's
:class:`~repro.engine.cache.CountCache`) and fetch their circuit through
:func:`repro.engine.incremental.instance_circuit`.
:func:`repro.exact.dispatch.solve` is the one caller of the pair — the
CLI and every batch-engine job answer through it.  A new solver is one
:func:`register` call; it joins the end of its problem's order, so
``auto`` reaches it only where no earlier row applies.
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
from repro.core.patterns import (
    has_atom_with_two_variables,
    has_double_edge_pattern,
    has_path_pattern,
    has_repeated_variable_atom,
    has_shared_variable,
)
from repro.core.query import BCQ, BooleanQuery
from repro.db.deltas import delta_chain, resolution_only
from repro.db.incomplete import IncompleteDatabase
from repro.exact import brute
from repro.exact import comp_uniform as _comp_uniform
from repro.exact import val_codd as _val_codd
from repro.exact import val_nonuniform as _val_nonuniform
from repro.exact import val_uniform as _val_uniform
from repro.obs import event as _obs_event, incr as _incr, span as _span


class NoPolynomialAlgorithm(ValueError):
    """Raised by ``method='poly'`` when no tractable algorithm applies —
    i.e. the instance sits in a #P-hard cell of Table 1."""


#: Problem kinds the planner understands.  ``sweep`` is the batched form
#: of ``val-weighted``: one instance, a *sequence* of weight tables, one
#: answer per table (the circuit method compiles once and answers all of
#: them in a single vectorized pass).
PROBLEMS = ("val", "comp", "val-weighted", "marginals", "sweep")

#: Problems for which ``method='poly'`` is a valid request (the weighted
#: and marginal problems never offered a poly mode; keep their method
#: vocabulary unchanged).
_POLY_PROBLEMS = frozenset({"val", "comp"})

Applies = Callable[[IncompleteDatabase, BooleanQuery | None], "tuple[bool, str]"]
Prefer = Callable[
    [IncompleteDatabase, BooleanQuery | None],
    "tuple[bool, Mapping[str, Any] | None]",
]
Run = Callable[..., Any]


@dataclass(frozen=True)
class Method:
    """One registered solver: capabilities, applicability, entry point."""

    name: str
    problem: str
    description: str
    polynomial: bool
    supports_weights: bool
    supports_marginals: bool
    applies: Applies
    run: Run
    #: Method to degrade to when this one is *forced* on an instance it
    #: cannot handle; a forced plan follows the chain until a method
    #: applies (``None``: honor the forced choice and let the solver
    #: raise its own error).
    fallback: str | None = None
    #: Optional preference gate ``(take it?, detail)``, asked only when
    #: ``auto`` reaches this applicable row; a failed gate passes the row
    #: over for the next one.  The detail (e.g. the dpdb width probe)
    #: surfaces in :class:`Plan` rows and ``repro-count plan --json``.
    prefer: Prefer | None = None


#: problem -> method name -> registration, in registration order.
_REGISTRY: dict[str, dict[str, Method]] = {problem: {} for problem in PROBLEMS}


def register(method: Method) -> Method:
    """Add a solver to the registry (idempotent re-registration replaces)."""
    if method.problem not in _REGISTRY:
        raise ValueError(
            "unknown problem %r (one of %s)" % (method.problem, PROBLEMS)
        )
    _REGISTRY[method.problem][method.name] = method
    return method


def methods_for(problem: str) -> tuple[Method, ...]:
    """Every registered method of one problem kind, in registration order."""
    if problem not in _REGISTRY:
        raise ValueError("unknown problem %r (one of %s)" % (problem, PROBLEMS))
    return tuple(_REGISTRY[problem].values())


def method_names(problem: str) -> tuple[str, ...]:
    """The valid ``method=`` vocabulary of a problem (requests included)."""
    names: list[str] = ["auto"]
    if problem in _POLY_PROBLEMS:
        names.append("poly")
    names.extend(_REGISTRY[problem])
    return tuple(names)


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

    Raises :class:`ValueError` for an unknown problem or a method name
    outside the problem's vocabulary; every *semantic* failure (``poly``
    on a hard cell, no applicable method) is reported in :attr:`Plan.error`
    so the CLI can still print the full analysis.

    Every row's applicability is checked (a cheap syntactic test).
    ``auto`` then walks the rows in registration order and stops at the
    first applicable one whose gate passes or that has none; ``poly``
    stops at the first applicable polynomial row.  A gate runs only when
    ``auto`` reaches its row; a forced plan runs its chosen row's gate
    just to report the detail.
    """
    entries = methods_for(problem)
    valid = method_names(problem)
    if method not in valid:
        raise ValueError("unknown method %r (one of %s)" % (method, valid))

    applicability = {entry.name: entry.applies(db, query) for entry in entries}
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
                preferred, details[entry.name] = entry.prefer(db, query)
            if preferred:
                chosen = entry.name
                break
            verdicts[entry.name] = "passed over"
    else:
        chosen = _follow_fallbacks(problem, method, applicability, notes)
        entry = _REGISTRY[problem][chosen]
        if applicability[chosen][0] and entry.prefer is not None:
            details[chosen] = entry.prefer(db, query)[1]
    error = None
    if chosen is None:
        error = _no_method_error(problem, query, method)
    else:
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
    problem: str,
    method: str,
    applicability: Mapping[str, tuple[bool, str]],
    notes: list[str],
) -> str:
    """The method a forced request runs: ``method`` when it applies, else
    the first applicable method down its fallback chain, one note per
    hop.  A chain that ends on an inapplicable method is honored as is."""
    while not applicability[method][0]:
        reason = applicability[method][1]
        fallback = _REGISTRY[problem][method].fallback
        if fallback is None:
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
    problem: str, query: BooleanQuery | None, method: str
) -> str:
    if method == "poly":
        if problem == "comp":
            return (
                "no polynomial-time algorithm for counting completions on "
                "this instance; the dichotomies place it in a #P-hard cell"
            )
        return (
            "no polynomial-time algorithm for %r on this instance; "
            "the dichotomies place it in a #P-hard cell" % (query,)
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
    """Execute one *resolved* method through its registry entry.

    ``store`` is an optional circuit store (the engine's
    :class:`~repro.engine.cache.CountCache`) that circuit-backed methods
    fetch from, derive into and install into.
    """
    entry = _REGISTRY.get(problem, {}).get(method)
    if entry is None:
        raise ValueError(
            "no registered method %r for problem %r" % (method, problem)
        )
    knobs: dict[str, Any] = {"budget": budget, "weights": weights}
    if store is not None:
        # Only a store-carrying caller passes the knob, so solvers
        # registered without one keep working for plain solves.
        knobs["store"] = store
    with _span("planner.run", problem=problem, method=method):
        return entry.run(db, query, **knobs)


# ---------------------------------------------------------------------------
# applicability predicates (reasons in both directions)
# ---------------------------------------------------------------------------


def _sjf_bcq_gate(query: BooleanQuery | None) -> str | None:
    """The shared precondition of every Table 1 closed form, or ``None``."""
    if query is None:
        return "closed forms need a query"
    if not isinstance(query, BCQ):
        return "query is not a BCQ (the Table 1 dichotomies cover sjfBCQs)"
    if not query.is_self_join_free:
        return "query has self-joins (outside the sjfBCQ dichotomies)"
    if not query.is_variable_only:
        return "query atoms carry constants (outside the sjfBCQ dichotomies)"
    return None


def _applies_single_occurrence(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    gate = _sjf_bcq_gate(query)
    if gate is not None:
        return False, gate
    assert isinstance(query, BCQ)
    if has_repeated_variable_atom(query):
        return False, "an atom repeats a variable (R(x,x)-style pattern)"
    if has_shared_variable(query):
        return False, "two atoms share a variable (join pattern)"
    return True, "pattern-free sjfBCQ: Theorem 3.6 closed form"


def _applies_codd(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    gate = _sjf_bcq_gate(query)
    if gate is not None:
        return False, gate
    assert isinstance(query, BCQ)
    if not db.is_codd:
        return False, "database is not a Codd table (some null occurs twice)"
    if has_shared_variable(query):
        return False, "two atoms share a variable (join pattern)"
    return True, "Codd table, join-free query: Theorem 3.7 per-null independence"


def _applies_uniform_val(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    gate = _sjf_bcq_gate(query)
    if gate is not None:
        return False, gate
    assert isinstance(query, BCQ)
    if not db.is_uniform:
        return False, "database is not uniform (per-null domains differ)"
    if has_repeated_variable_atom(query):
        return False, "an atom repeats a variable (R(x,x)-style pattern)"
    if has_path_pattern(query):
        return False, "query contains the path pattern (hard under Theorem 3.9)"
    if has_double_edge_pattern(query):
        return (
            False,
            "query contains the double-edge pattern (hard under Theorem 3.9)",
        )
    return True, "uniform table, pattern-free query: Theorem 3.9 algorithm"


def _applies_uniform_unary(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    if query is not None:
        gate = _sjf_bcq_gate(query)
        if gate is not None:
            return False, gate
        assert isinstance(query, BCQ)
        if has_repeated_variable_atom(query):
            return False, "an atom repeats a variable (R(x,x)-style pattern)"
        if has_atom_with_two_variables(query):
            return False, "an atom uses two variables (non-unary join shape)"
    if not db.is_uniform:
        return False, "database is not uniform (per-null domains differ)"
    if any(fact.arity != 1 for fact in db.facts):
        return False, "schema is not unary (some fact has arity > 1)"
    return True, "uniform unary instance: Theorem 4.6 closed form"


def _applies_lineage(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, "(U)CQ lineage compiles to CNF; exact #SAT search"


def _applies_dpdb(
    db: IncompleteDatabase, query: BooleanQuery | None
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


def _prefer_dpdb(kind: str) -> Prefer:
    """Take dpdb when the width probe succeeds at width at most
    :data:`~repro.compile.dpdb.DPDB_WIDTH_LIMIT`; above it the trail
    search (the next row) is the better bet."""

    def prefer(
        db: IncompleteDatabase, query: BooleanQuery | None
    ) -> tuple[bool, Mapping[str, Any] | None]:
        probe = dpdb_probe(kind, db, query)
        found = probe.detail()
        if not probe.ok:
            found["probe"] = probe.reason
            return False, found
        return probe.width is not None and probe.width <= DPDB_WIDTH_LIMIT, found

    return prefer


def _applies_circuit(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, "(U)CQ lineage compiles to a reusable d-DNNF circuit"


def _applies_marginal_circuit(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    if query is None:
        return False, "marginals are per-null posteriors; a query is required"
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, "(U)CQ lineage compiles to a reusable d-DNNF circuit"


def _delta_provenance(db: IncompleteDatabase) -> tuple[int, bool]:
    """``(chain depth, resolution-only?)`` of the delta provenance chain
    (depth 0: the instance was built directly, not via
    :meth:`~repro.db.incomplete.IncompleteDatabase.apply`)."""
    chain = delta_chain(db)
    if not chain:
        return 0, True
    return len(chain), all(map(resolution_only, chain[-1][1]))


def _applies_delta(kind: str) -> Applies:
    """Applicability of the incremental delta method for ``val``/``comp``."""

    def applies(
        db: IncompleteDatabase, query: BooleanQuery | None
    ) -> tuple[bool, str]:
        if not lineage_supports(query):
            return False, "lineage compilation handles (U)CQs only"
        depth, pure = _delta_provenance(db)
        if depth == 0:
            return False, (
                "instance has no delta provenance (no parent circuit to "
                "derive from)"
            )
        if kind == "val" and pure:
            return True, (
                "answer from the parent circuit by conditioning "
                "(no recompilation)"
            )
        return True, (
            "recompile only the lineage components the delta touched; "
            "splice the rest from cache"
        )

    return applies


def _prefer_delta(kind: str) -> Prefer:
    """Take delta only for ``val`` on a resolution-only chain, answered by
    conditioning the parent circuit.  A splice recompiles the touched
    components, which pays off only when the component store is warm, so
    the search rows go first."""

    def prefer(
        db: IncompleteDatabase, query: BooleanQuery | None
    ) -> tuple[bool, Mapping[str, Any] | None]:
        depth, pure = _delta_provenance(db)
        condition = kind == "val" and pure
        return condition, {
            "chain": depth,
            "resolution_only": pure,
            "mode": "condition" if condition else "splice",
        }

    return prefer


def _applies_always(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    return True, "enumeration works on any query (budgeted)"


# ---------------------------------------------------------------------------
# registrations
# ---------------------------------------------------------------------------


def _run_ignoring(function: Callable[..., Any], *forward: str) -> Run:
    """Adapt a solver to the uniform ``run(db, query, budget, weights,
    store)`` signature, forwarding only the knobs it takes."""

    def adapted(
        db: IncompleteDatabase,
        query: BooleanQuery | None,
        budget: int | None = None,
        weights: Any = None,
        store: Any = None,
    ) -> Any:
        kwargs = {}
        if "budget" in forward:
            kwargs["budget"] = budget
        if "weights" in forward:
            kwargs["weights"] = weights
        return function(db, query, **kwargs)

    return adapted


def _run_on_circuit(
    kind: str, ask: Callable[[Any, Any], Any], derived: bool = False
) -> Run:
    """A circuit-backed solver: fetch the ``kind`` circuit of the instance
    (from the store, derived from a cached delta ancestor, or compiled and
    installed — :func:`repro.engine.incremental.instance_circuit`), then
    answer ``ask(circuit, weights)``.  ``derived`` methods refuse
    instances without delta provenance."""

    def run(
        db: IncompleteDatabase,
        query: BooleanQuery | None,
        budget: int | None = None,
        weights: Any = None,
        store: Any = None,
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
    problem="val",
    description="Theorem 3.6 closed formula (pattern-free sjfBCQs)",
    polynomial=True,
    supports_weights=True,
    supports_marginals=False,
    applies=_applies_single_occurrence,
    run=_run_ignoring(_val_nonuniform.count_valuations_single_occurrence),
))

register(Method(
    name="codd",
    problem="val",
    description="Theorem 3.7 per-null independence (Codd tables)",
    polynomial=True,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_codd,
    run=_run_ignoring(_val_codd.count_valuations_codd),
))

register(Method(
    name="uniform",
    problem="val",
    description="Theorem 3.9 algorithm (uniform naive tables)",
    polynomial=True,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_uniform_val,
    run=_run_ignoring(_val_uniform.count_valuations_uniform),
))

register(Method(
    name="delta",
    problem="val",
    description="condition/resplice a cached ancestor's circuit (updates)",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_delta("val"),
    run=_run_on_circuit("val", _count, derived=True),
    fallback="circuit",
    prefer=_prefer_delta("val"),
))

register(Method(
    name="dpdb",
    problem="val",
    description="lineage -> CNF, join/project/sum DP over a tree decomposition",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_dpdb,
    run=_run_ignoring(count_valuations_dpdb),
    fallback="brute",
    prefer=_prefer_dpdb("val"),
))

register(Method(
    name="lineage",
    problem="val",
    description="lineage -> CNF, exact #SAT with component caching",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_lineage,
    run=_run_ignoring(count_valuations_lineage),
    fallback="brute",
))

register(Method(
    name="circuit",
    problem="val",
    description="the same search recorded once as a d-DNNF circuit",
    polynomial=False,
    supports_weights=True,
    supports_marginals=True,
    applies=_applies_circuit,
    run=_run_on_circuit("val", _count),
    fallback="brute",
))

register(Method(
    name="brute",
    problem="val",
    description="enumerate all valuations (budgeted)",
    polynomial=False,
    supports_weights=True,
    supports_marginals=False,
    applies=_applies_always,
    run=_run_ignoring(brute.count_valuations_brute, "budget"),
))

register(Method(
    name="uniform-unary",
    problem="comp",
    description="Theorem 4.6 closed form (uniform, unary schema)",
    polynomial=True,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_uniform_unary,
    run=_run_ignoring(_comp_uniform.count_completions_uniform_unary),
))

register(Method(
    name="delta",
    problem="comp",
    description="recompile only delta-touched components, splice the rest",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_delta("comp"),
    run=_run_on_circuit("comp", _count, derived=True),
    fallback="circuit",
    prefer=_prefer_delta("comp"),
))

register(Method(
    name="dpdb",
    problem="comp",
    description="canonical-fact encoding, projected DP over a tree decomposition",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_dpdb,
    run=_run_ignoring(count_completions_dpdb),
    fallback="brute",
    prefer=_prefer_dpdb("comp"),
))

register(Method(
    name="lineage",
    problem="comp",
    description="canonical-fact encoding + projected exact model counting",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_lineage,
    run=_run_ignoring(count_completions_lineage),
    fallback="brute",
))

register(Method(
    name="circuit",
    problem="comp",
    description="the projected search recorded as a d-DNNF circuit",
    polynomial=False,
    supports_weights=False,
    supports_marginals=True,
    applies=_applies_circuit,
    run=_run_on_circuit("comp", _count),
    fallback="brute",
))

register(Method(
    name="brute",
    problem="comp",
    description="enumerate valuations, deduplicate completions (budgeted)",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_always,
    run=_run_ignoring(brute.count_completions_brute, "budget"),
))

register(Method(
    name="single-occurrence",
    problem="val-weighted",
    description="Theorem 3.6 cell: the weighted total stays a per-null product",
    polynomial=True,
    supports_weights=True,
    supports_marginals=False,
    applies=_applies_single_occurrence,
    run=_run_ignoring(
        _val_nonuniform.count_valuations_weighted_single_occurrence, "weights"
    ),
))


register(Method(
    name="circuit",
    problem="val-weighted",
    description="one weighted upward pass over the compiled d-DNNF",
    polynomial=False,
    supports_weights=True,
    supports_marginals=True,
    applies=_applies_circuit,
    run=_run_on_circuit(
        "val", lambda circuit, weights: circuit.weighted_count(weights)
    ),
    fallback="brute",
))

register(Method(
    name="brute",
    problem="val-weighted",
    description="weighted enumeration of all valuations (budgeted)",
    polynomial=False,
    supports_weights=True,
    supports_marginals=False,
    applies=_applies_always,
    run=_run_ignoring(
        brute.count_valuations_weighted_brute, "budget", "weights"
    ),
))


register(Method(
    name="circuit",
    problem="marginals",
    description="all (null, value) posteriors in one up+down circuit pass",
    polynomial=False,
    supports_weights=True,
    supports_marginals=True,
    applies=_applies_marginal_circuit,
    run=_run_on_circuit(
        "val", lambda circuit, weights: circuit.marginals(weights)
    ),
))


def _run_sweep_single_occurrence(
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    budget: int | None = None,
    weights: Any = None,
    store: Any = None,
) -> Any:
    return [
        _val_nonuniform.count_valuations_weighted_single_occurrence(
            db, query, weights=row
        )
        for row in (weights or ())
    ]


def _run_sweep_brute(
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    budget: int | None = None,
    weights: Any = None,
    store: Any = None,
) -> Any:
    return [
        brute.count_valuations_weighted_brute(
            db, query, weights=row, budget=budget
        )
        for row in (weights or ())
    ]


register(Method(
    name="single-occurrence",
    problem="sweep",
    description="Theorem 3.6 cell: one per-null product per weight table",
    polynomial=True,
    supports_weights=True,
    supports_marginals=False,
    applies=_applies_single_occurrence,
    run=_run_sweep_single_occurrence,
))

register(Method(
    name="circuit",
    problem="sweep",
    description="compile once, answer every weight table in one batched pass",
    polynomial=False,
    supports_weights=True,
    supports_marginals=True,
    applies=_applies_circuit,
    run=_run_on_circuit(
        "val",
        lambda circuit, rows: circuit.weighted_count_many(list(rows or ())),
    ),
    fallback="brute",
))

register(Method(
    name="brute",
    problem="sweep",
    description="weighted enumeration repeated per weight table (budgeted)",
    polynomial=False,
    supports_weights=True,
    supports_marginals=False,
    applies=_applies_always,
    run=_run_sweep_brute,
))


__all__ = [
    "Considered",
    "Method",
    "NoPolynomialAlgorithm",
    "PROBLEMS",
    "Plan",
    "method_names",
    "methods_for",
    "plan",
    "register",
    "run",
]
