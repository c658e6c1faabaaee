"""The solver planner: one method registry behind every counting front door.

Every exact algorithm in the repo — the closed-form Table 1 cells, the
lineage #SAT backend, the d-DNNF circuit pipeline, brute enumeration — is
registered here as a :class:`Method` with

* the **problem kinds** it serves (``val``, ``comp``, ``val-weighted``,
  ``marginals``, ``sweep``),
* an **applicability predicate** returning a human-readable reason either
  way (the dichotomy conditions, database shape, query class),
* **capability flags** (polynomial? weighted counting? marginals?),
* a **cheap cost estimate** — a tier encoding the preference lattice
  (closed form < lineage < circuit < brute) plus a bounded size term, so
  two applicable methods in the same tier still order deterministically,
* the **solver callable** itself.

:func:`plan` turns ``(problem, D, q, method)`` into an explainable
:class:`Plan`: the chosen method plus every rejected alternative with its
reason.  ``method='auto'`` picks the cheapest applicable method,
``method='poly'`` restricts the choice to polynomial methods (and the plan
carries the hardness verdict when none applies), and a concrete method
name is honored verbatim — with the registered fallback (e.g. the lineage
compiler degrading to ``brute`` on a non-(U)CQ) applied exactly where the
old dispatch ``if`` chains did.  A plan costs only the methods its request
can choose: every applicability predicate is cheap, and the expensive
estimates (the dpdb width probe) run only for rows ``auto`` compares.

:func:`run` executes one chosen method.  Circuit-backed methods take an
optional circuit ``store`` (the engine's
:class:`~repro.engine.cache.CountCache`) and fetch their circuit through
:func:`repro.engine.incremental.instance_circuit`.
:func:`repro.exact.dispatch.solve` is the one caller of the pair — the
CLI and every batch-engine job answer through it — so adding a solver is
one :func:`register` call: ``auto``, ``plan`` output and the capability
table all pick it up without touching a conditional.
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
from repro.db.valuation import count_total_valuations
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

#: Cost tiers: the preference lattice ``auto`` optimizes over.  Within a
#: problem, any applicable lower-tier method beats any higher-tier one;
#: the fractional size term added by each estimator stays below 1.0 so it
#: can only order methods *within* a tier.
TIER_CLOSED_FORM = 1.0
TIER_CLOSED_FORM_CODD = 2.0
TIER_CLOSED_FORM_UNIFORM = 3.0
TIER_DELTA = 8.5
TIER_DPDB = 9.0
TIER_LINEAGE = 10.0
TIER_CIRCUIT = 11.0
TIER_BRUTE = 20.0


Applies = Callable[[IncompleteDatabase, BooleanQuery | None], "tuple[bool, str]"]
Cost = Callable[[IncompleteDatabase, BooleanQuery | None], float]
Run = Callable[..., Any]
Detail = Callable[
    [IncompleteDatabase, BooleanQuery | None], "Mapping[str, Any] | None"
]


@dataclass(frozen=True)
class Method:
    """One registered solver: capabilities, applicability, cost, entry point."""

    name: str
    problem: str
    description: str
    polynomial: bool
    supports_weights: bool
    supports_marginals: bool
    applies: Applies
    cost: Cost
    run: Run
    #: Method to degrade to when this one is *forced* on an instance it
    #: cannot handle (``None``: honor the forced choice and let the solver
    #: raise its own error).
    fallback: str | None = None
    #: Optional cost-detail hook: structured numbers behind the cost
    #: estimate (e.g. the dpdb width probe), surfaced in :class:`Plan`
    #: rows and ``repro-count plan --json``.
    detail: Detail | None = None


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
    cost: float | None
    polynomial: bool
    supports_weights: bool
    supports_marginals: bool
    #: Structured cost detail (e.g. ``{"width": 8, "width_limit": 12}``
    #: from the dpdb probe); ``None`` for methods without a detail hook.
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
                    "cost": item.cost,
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
            if not item.applicable:
                verdict = "n/a        "
            elif item.cost is None:
                # A forced or poly request could never choose this row.
                verdict = "not costed "
            else:
                verdict = "cost %-6.2f" % item.cost
            flags = "".join(
                (
                    "P" if item.polynomial else "-",
                    "w" if item.supports_weights else "-",
                    "m" if item.supports_marginals else "-",
                )
            )
            lines.append(
                "  %s %-18s %s [%s]  %s"
                % (marker, item.method, verdict, flags, item.reason)
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

    Every row's applicability is checked, but only the rows the request
    can choose are costed: all applicable methods for ``auto``, the
    applicable polynomial ones for ``poly``, the one method a forced
    request runs.  The others keep ``cost=None``.
    """
    entries = methods_for(problem)
    valid = method_names(problem)
    if method not in valid:
        raise ValueError("unknown method %r (one of %s)" % (method, valid))

    verdicts = {entry.name: entry.applies(db, query) for entry in entries}
    notes: list[str] = []
    error: str | None = None
    chosen: str | None
    if method in ("auto", "poly"):
        pool = [
            entry
            for entry in entries
            if verdicts[entry.name][0]
            and (method == "auto" or entry.polynomial)
        ]
    else:
        entry = _REGISTRY[problem][method]
        applicable, reason = verdicts[method]
        chosen = method
        if not applicable and entry.fallback is not None:
            chosen = entry.fallback
            notes.append(
                "requested %r cannot handle this instance (%s); "
                "degrading to %r" % (method, reason, entry.fallback)
            )
        elif not applicable:
            notes.append(
                "forced %r although the planner does not expect it to "
                "apply (%s); the solver will raise its own error"
                % (method, reason)
            )
        pool = [
            entry for entry in entries
            if entry.name == chosen and verdicts[entry.name][0]
        ]
    costs = {entry.name: entry.cost(db, query) for entry in pool}
    if method in ("auto", "poly"):
        chosen = min(costs, key=costs.__getitem__, default=None)
        if chosen is None:
            error = _no_method_error(problem, query, method)
    considered = tuple(
        Considered(
            method=entry.name,
            applicable=verdicts[entry.name][0],
            reason=verdicts[entry.name][1],
            cost=costs.get(entry.name),
            polynomial=entry.polynomial,
            supports_weights=entry.supports_weights,
            supports_marginals=entry.supports_marginals,
            detail=(
                entry.detail(db, query)
                if entry.name in costs and entry.detail is not None
                else None
            ),
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
        costs={
            item.method: item.cost
            for item in considered
            if item.cost is not None
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
    cap).  Whether ``auto`` prefers it is the width probe's call, which
    is a *cost* (:func:`_dpdb_cost`, reported in the row's detail) — so
    only plans that compare dpdb against other methods pay for it.
    """
    if not lineage_supports(query):
        return False, "lineage compilation handles (U)CQs only"
    return True, (
        "(U)CQ lineage compiles to CNF; join/project/sum DP over a tree "
        "decomposition, priced by its elimination width"
    )


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


def _delta_cost(kind: str) -> Cost:
    """Below every search tier for a conditionable chain; otherwise the
    componentwise recompile lands just *above* the circuit method (same
    asymptotics, splicing pays off only when the component store is warm,
    which a cold cost estimate must not assume)."""

    def cost(db: IncompleteDatabase, query: BooleanQuery | None) -> float:
        depth, pure = _delta_provenance(db)
        if kind == "val" and pure:
            return TIER_DELTA + _fraction(depth)
        return (
            TIER_CIRCUIT
            + 0.5
            + _fraction(_effective_search_variables(db)) / 2.0
        )

    return cost


def _delta_detail(kind: str) -> Detail:
    def detail(
        db: IncompleteDatabase, query: BooleanQuery | None
    ) -> Mapping[str, Any] | None:
        depth, pure = _delta_provenance(db)
        mode = "condition" if kind == "val" and pure else "splice"
        return {"chain": depth, "resolution_only": pure, "mode": mode}

    return detail


def _applies_always(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    return True, "enumeration works on any query (budgeted)"


# ---------------------------------------------------------------------------
# cost estimates (tier + bounded size term)
# ---------------------------------------------------------------------------


def _fraction(size: int) -> float:
    """A monotone size proxy in ``[0, 1)`` — orders within a tier only."""
    return size / (size + 1.0)


def _instance_size(db: IncompleteDatabase, query: BooleanQuery | None) -> int:
    atoms = len(query.atoms) if isinstance(query, BCQ) else 1
    return len(db.facts) * max(atoms, 1)


def _choice_variables(db: IncompleteDatabase) -> int:
    return sum(len(db.domain_of(null)) for null in db.nulls)


def _effective_search_variables(db: IncompleteDatabase) -> int:
    """Choice variables the search will actually branch over.

    The counter's preprocessing pass (:mod:`repro.compile.preprocess`)
    runs before every lineage/circuit search: a singleton-domain null's
    exactly-one block is a unit clause, so its variable is propagated
    away at the root and never costs a decision.  The cost estimate sees
    the formula the search sees, not the raw encoding.
    """
    return sum(
        domain_size
        for null in db.nulls
        if (domain_size := len(db.domain_of(null))) > 1
    )


def _closed_form_cost(tier: float) -> Cost:
    def cost(db: IncompleteDatabase, query: BooleanQuery | None) -> float:
        return tier + _fraction(_instance_size(db, query))

    return cost


def _search_cost(tier: float) -> Cost:
    def cost(db: IncompleteDatabase, query: BooleanQuery | None) -> float:
        # The search is exponential in lineage treewidth, which no cheap
        # estimate sees; the size term is the choice-variable count *after*
        # the counter's preprocessing strips what root propagation removes.
        return tier + _fraction(_effective_search_variables(db))

    return cost


def _dpdb_cost(kind: str) -> Cost:
    """Width-driven estimate: below the width limit the DP undercuts the
    trail search (:data:`TIER_DPDB` < :data:`TIER_LINEAGE`); at high width
    or a blown probe budget it lands strictly *between* lineage and
    circuit (``TIER_LINEAGE + 0.5 + frac/2`` with ``frac < 1``), so
    ``auto`` keeps preferring the trail core without dpdb ever looking
    cheaper than the method it would delegate to."""

    def cost(db: IncompleteDatabase, query: BooleanQuery | None) -> float:
        probe = dpdb_probe(kind, db, query)
        if (
            probe.ok
            and probe.width is not None
            and probe.width <= DPDB_WIDTH_LIMIT
        ):
            return TIER_DPDB + _fraction(probe.width)
        return (
            TIER_LINEAGE
            + 0.5
            + _fraction(_effective_search_variables(db)) / 2.0
        )

    return cost


def _dpdb_detail(kind: str) -> Detail:
    def detail(
        db: IncompleteDatabase, query: BooleanQuery | None
    ) -> Mapping[str, Any] | None:
        probe = dpdb_probe(kind, db, query)
        found = probe.detail()
        if not probe.ok:
            found["probe"] = probe.reason
        return found

    return detail


def _brute_cost(db: IncompleteDatabase, query: BooleanQuery | None) -> float:
    # Enumeration visits every valuation: the magnitude of the product is
    # the honest cost signal, capped into the tier's band.  bit_length()
    # (never str()) keeps this safe past CPython's int-to-str digit limit
    # on astronomically large totals.
    bits = count_total_valuations(db).bit_length()
    return TIER_BRUTE + min(bits, 999) / 1000.0


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
    cost=_closed_form_cost(TIER_CLOSED_FORM),
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
    cost=_closed_form_cost(TIER_CLOSED_FORM_CODD),
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
    cost=_closed_form_cost(TIER_CLOSED_FORM_UNIFORM),
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
    cost=_delta_cost("val"),
    run=_run_on_circuit("val", _count, derived=True),
    fallback="circuit",
    detail=_delta_detail("val"),
))

register(Method(
    name="dpdb",
    problem="val",
    description="lineage -> CNF, join/project/sum DP over a tree decomposition",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_dpdb,
    cost=_dpdb_cost("val"),
    run=_run_ignoring(count_valuations_dpdb),
    fallback="brute",
    detail=_dpdb_detail("val"),
))

register(Method(
    name="lineage",
    problem="val",
    description="lineage -> CNF, exact #SAT with component caching",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_lineage,
    cost=_search_cost(TIER_LINEAGE),
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
    cost=_search_cost(TIER_CIRCUIT),
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
    cost=_brute_cost,
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
    cost=_closed_form_cost(TIER_CLOSED_FORM),
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
    cost=_delta_cost("comp"),
    run=_run_on_circuit("comp", _count, derived=True),
    fallback="circuit",
    detail=_delta_detail("comp"),
))

register(Method(
    name="dpdb",
    problem="comp",
    description="canonical-fact encoding, projected DP over a tree decomposition",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_dpdb,
    cost=_dpdb_cost("comp"),
    run=_run_ignoring(count_completions_dpdb),
    fallback="brute",
    detail=_dpdb_detail("comp"),
))

register(Method(
    name="lineage",
    problem="comp",
    description="canonical-fact encoding + projected exact model counting",
    polynomial=False,
    supports_weights=False,
    supports_marginals=False,
    applies=_applies_lineage,
    cost=_search_cost(TIER_LINEAGE),
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
    cost=_search_cost(TIER_CIRCUIT),
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
    cost=_brute_cost,
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
    cost=_closed_form_cost(TIER_CLOSED_FORM),
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
    cost=_search_cost(TIER_CIRCUIT),
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
    cost=_brute_cost,
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
    cost=_search_cost(TIER_CIRCUIT),
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
    cost=_closed_form_cost(TIER_CLOSED_FORM),
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
    cost=_search_cost(TIER_CIRCUIT),
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
    cost=_brute_cost,
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
