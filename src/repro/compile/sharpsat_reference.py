"""The retained tuple-based model counter: the differential-testing oracle.

This is the pre-trail implementation of the exact counter, kept verbatim
as an independent slow path: residual formulas are immutable canonically
sorted clause tuples, every decision and unit propagation rebuilds the
touched clauses as fresh tuples, and component splitting re-runs
union-find over materialized clause sets at every node.  The trail-based
core in :mod:`repro.compile.sharpsat` replaced it on the hot path; this
module exists so that

* randomized suites can assert the two cores agree **bit for bit** on
  every count (full and projected), which is the strongest cheap evidence
  the in-place propagation and its undo logic are sound;
* a compiled artifact built with ``reference=True``
  (``ValuationCircuit``/``CompletionCircuit``) records its circuit over
  this search, an independent route for checking weighted answers;
* the benchmark harness has an honest "before" measurement for the
  before/after ratio it tracks.

Nothing here is exported through :mod:`repro.compile`: construct
:class:`ReferenceModelCounter` directly.  Do not "optimize" this module —
its value is that it stays the old code.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.complexity.cnf import CNF
from repro.compile.ordering import branching_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.ddnnf_trace import TraceBuilder

#: A residual formula: clauses as a canonically sorted tuple.
Clauses = tuple[tuple[int, ...], ...]


class ReferenceModelCounter:
    """Exact (projected) model counter over a :class:`CNF`.

    ``projection`` — variables to count over; ``None`` counts full models.
    ``order`` — static branching order; defaults to the reverse min-fill
    order of the formula's primal graph.
    ``trace`` — optional :class:`TraceBuilder`; when given, :meth:`count`
    additionally records the search as a d-DNNF circuit rooted at
    :attr:`trace_root`.
    """

    def __init__(
        self,
        cnf: CNF,
        projection: Iterable[int] | None = None,
        order: Sequence[int] | None = None,
        trace: "TraceBuilder | None" = None,
    ) -> None:
        self._cnf = cnf
        self._projection: frozenset[int] | None = (
            None if projection is None else frozenset(projection)
        )
        if self._projection is not None and any(
            v < 1 or v > cnf.num_variables for v in self._projection
        ):
            raise ValueError("projection variables must be in 1..num_variables")
        self.width: int | None
        if order is None:
            order, width = branching_order(cnf)
            self.width = width
        else:
            order = list(order)
            self.width = None
        # Rank as a flat positional table: one list index per variable
        # beats a dict probe in the innermost branching loop, and the
        # table is derived once instead of once per component.
        rank = [len(order)] * (cnf.num_variables + 1)
        for position, variable in enumerate(order):
            rank[variable] = position
        self._rank = rank
        self._trace = trace
        #: Root node of the recorded circuit (set by :meth:`count` when
        #: tracing).
        self.trace_root: int | None = None
        self._cache: dict[Clauses, tuple[int, int | None]] = {}
        self._sat_cache: dict[Clauses, bool] = {}
        self.cache_hits = 0
        self.components_split = 0
        #: Branch literals tried (parity with the trail core's statistic).
        self.decisions = 0

    # -- public API --------------------------------------------------------

    def count(self) -> int:
        """The (projected) model count of the formula.

        Temporarily raises the recursion limit — the search recurses once
        per decision level, and the default limit is too tight for
        formulas with a few hundred variables.
        """
        limit = sys.getrecursionlimit()
        needed = 10 * self._cnf.num_variables + 1_000
        try:
            if needed > limit:
                sys.setrecursionlimit(needed)
            return self._count_root()
        finally:
            sys.setrecursionlimit(limit)

    def stats(self) -> dict:
        """The uniform stats vocabulary (see ``ModelCounter.stats``).

        Keys the reference algorithm does not track — propagations,
        conflicts, trail depth — are ``None``; the algorithm itself stays
        untouched.
        """
        return {
            "core": "reference",
            "decisions": self.decisions,
            "propagations": None,
            "conflicts": None,
            "max_trail_depth": None,
            "cache_hits": self.cache_hits,
            "cache_entries": len(self._cache),
            "sat_cache_entries": len(self._sat_cache),
            "components_split": self.components_split,
            "width": self.width,
        }

    def _count_root(self) -> int:
        trace = self._trace
        clauses, assigned, conflict = _propagate(
            tuple(sorted(self._cnf.clauses)), ()
        )
        if conflict:
            if trace is not None:
                self.trace_root = trace.false
            return 0
        constrained = {abs(lit) for c in self._cnf.clauses for lit in c}
        assigned_variables = {abs(lit) for lit in assigned}
        free = (
            set(range(1, self._cnf.num_variables + 1))
            - constrained
            - assigned_variables
        )
        free |= constrained - _variables_of(clauses) - assigned_variables
        count, node = self._count(clauses)
        if trace is not None:
            assert node is not None
            self.trace_root = trace.decision(
                [(tuple(sorted(assigned, key=abs)), tuple(sorted(free)), node)]
            )
        return (1 << self._countable(free)) * count

    # -- internals ---------------------------------------------------------

    def _countable(self, variables: set[int]) -> int:
        """How many of ``variables`` contribute a free factor of two."""
        if self._projection is None:
            return len(variables)
        return len(variables & self._projection)

    def _count(self, clauses: Clauses) -> tuple[int, int | None]:
        """Count a residual formula, splitting into components first.

        Returns ``(count, circuit node)`` — the node is ``None`` unless
        the counter records a trace.
        """
        trace = self._trace
        if not clauses:
            return 1, (None if trace is None else trace.true)
        if not clauses[0]:  # canonical sort puts the empty clause first
            return 0, (None if trace is None else trace.false)
        components = _split_components(clauses)
        if len(components) > 1:
            self.components_split += 1
        result = 1
        nodes: list[int] = []
        for component in components:
            count, node = self._count_component(component)
            result *= count
            if trace is None:
                if result == 0:
                    return 0, None
            else:
                assert node is not None
                nodes.append(node)
        if trace is None:
            return result, None
        return result, trace.product(nodes)

    def _count_component(self, clauses: Clauses) -> tuple[int, int | None]:
        cached = self._cache.get(clauses)
        if cached is not None:
            self.cache_hits += 1
            return cached
        trace = self._trace
        node: int | None = None
        component_variables = _variables_of(clauses)
        variable = self._pick_variable(component_variables)
        if variable is None:
            # Projected mode, no projection variable left: the component
            # contributes one projected model iff it is satisfiable.
            satisfiable = self._satisfiable(clauses)
            result = 1 if satisfiable else 0
            if trace is not None:
                node = trace.constant(satisfiable)
        else:
            result = 0
            branches = []
            for literal in (variable, -variable):
                self.decisions += 1
                reduced, assigned, conflict = _propagate(clauses, (literal,))
                if conflict:
                    continue
                eliminated = (
                    component_variables
                    - _variables_of(reduced)
                    - {abs(lit) for lit in assigned}
                )
                count, child = self._count(reduced)
                result += (1 << self._countable(eliminated)) * count
                if trace is not None:
                    assert child is not None
                    branches.append(
                        (
                            tuple(sorted(assigned, key=abs)),
                            tuple(sorted(eliminated)),
                            child,
                        )
                    )
            if trace is not None:
                node = trace.decision(branches)
        entry = (result, node)
        self._cache[clauses] = entry
        return entry

    def _pick_variable(self, candidates: set[int]) -> int | None:
        """Earliest variable of the branching order among ``candidates``.

        In projected mode only projection variables qualify; ``None`` means
        the component has none left.
        """
        if self._projection is not None:
            candidates = candidates & self._projection
            if not candidates:
                return None
        rank = self._rank
        return min(candidates, key=lambda v: (rank[v], v))

    def _satisfiable(self, clauses: Clauses) -> bool:
        """Plain DPLL satisfiability of a residual component."""
        if not clauses:
            return True
        if not clauses[0]:
            return False
        cached = self._sat_cache.get(clauses)
        if cached is not None:
            return cached
        rank = self._rank
        variable = min(
            _variables_of(clauses), key=lambda v: (rank[v], v)
        )
        result = False
        for literal in (variable, -variable):
            reduced, _assigned, conflict = _propagate(clauses, (literal,))
            if conflict:
                continue
            if all(
                self._satisfiable(component)
                for component in _split_components(reduced)
            ):
                result = True
                break
        self._sat_cache[clauses] = result
        return result


# -- clause-set primitives --------------------------------------------------


def _variables_of(clauses: Iterable[tuple[int, ...]]) -> set[int]:
    return {abs(literal) for clause in clauses for literal in clause}


def _propagate(
    clauses: Clauses, decisions: tuple[int, ...]
) -> tuple[Clauses, tuple[int, ...], bool]:
    """Assign ``decisions`` and run unit propagation to fixpoint.

    Returns ``(reduced clauses, all literals assigned, conflict)``.
    Satisfied clauses are dropped and false literals removed; the reduced
    set never contains a unit clause and is canonically sorted.

    Clauses are indexed by variable once per call, so each propagated
    literal touches only the clauses that actually contain its variable,
    and untouched clause tuples are carried over by reference instead of
    being rebuilt on every branch.
    """
    pending = list(decisions)
    if not pending and not any(len(clause) == 1 for clause in clauses):
        return clauses, (), False

    occurs: dict[int, list[tuple[int, ...]]] = {}
    for clause in clauses:
        if len(clause) == 1 and clause[0] not in pending:
            pending.append(clause[0])
        for literal in clause:
            occurs.setdefault(abs(literal), []).append(clause)

    assignment: set[int] = set()
    # Original clause -> its current reduced form (None = satisfied).
    # Untouched clauses have no entry and keep their original tuple.
    live: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    cursor = 0
    while cursor < len(pending):
        literal = pending[cursor]
        cursor += 1
        if literal in assignment:
            continue
        if -literal in assignment:
            return (), tuple(assignment), True
        assignment.add(literal)
        for clause in occurs.get(abs(literal), ()):
            current = live.get(clause, clause)
            if current is None:
                continue
            if literal in current:
                live[clause] = None
                continue
            if -literal not in current:
                continue
            filtered = tuple(x for x in current if x != -literal)
            if not filtered:
                return (), tuple(assignment), True
            live[clause] = filtered
            if len(filtered) == 1:
                pending.append(filtered[0])
    if not live:
        return clauses, tuple(assignment), False
    reduced = sorted(
        current
        for current in (live.get(clause, clause) for clause in clauses)
        if current is not None
    )
    return tuple(reduced), tuple(assignment), False


def _split_components(clauses: Clauses) -> list[Clauses]:
    """Partition clauses into variable-connected components (union-find).

    Each component is again a canonically sorted clause tuple, directly
    usable as a cache key.
    """
    if len(clauses) <= 1:
        return [clauses] if clauses else []
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for index, clause in enumerate(clauses):
        key = -(index + 1)  # clause nodes get negative keys
        parent[key] = key
        for literal in clause:
            variable = abs(literal)
            if variable not in parent:
                parent[variable] = variable
            root_a, root_b = find(key), find(variable)
            if root_a != root_b:
                parent[root_a] = root_b

    groups: dict[int, list[tuple[int, ...]]] = {}
    for index, clause in enumerate(clauses):
        groups.setdefault(find(-(index + 1)), []).append(clause)
    if len(groups) == 1:
        return [clauses]
    # The input is sorted, so per-group append order stays sorted.
    return [tuple(group) for group in groups.values()]
