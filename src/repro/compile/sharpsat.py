"""Exact model counting (#SAT) on a trail: in-place state, bitset components.

A pure-Python counter in the sharpSAT family, specialised for the CNFs the
lineage compiler emits.  The search machinery is built around **persistent
in-place state** instead of immutable formula copies:

* one occurrence-indexed :class:`~repro.compile.trail.ClauseStore` holds
  the formula for the whole search; a decision assigns literals on a
  **trail** and unit-propagates by bumping per-clause satisfied/free
  counters, so a branch costs touched-clause work and backtracking is the
  exact reverse replay — the formula is never rebuilt;
* **connected components** of the residual formula are computed over live
  (unassigned-variable) **bitsets**: each live clause contributes one int
  mask, a flood fill grows each component from its highest clause by
  downward sweeps that absorb every clause meeting the union, and
  variable-disjoint parts are counted independently and multiplied;
* **component caching** — residual components are memoised under compact
  integer content signatures (each reduced clause packs into one int, a
  component keys on the sorted int tuple), so shared substructure is
  counted once.  Signatures depend only on clause *content*, matching the
  reference counter's cache equivalence exactly;
* a **preprocessing pass** (:mod:`repro.compile.preprocess`) runs once
  before the search: failed-literal/backbone probing, equivalent-literal
  substitution and (projected mode) pure-literal elimination, each applied
  only where it provably preserves the count;
* a **static branching order** from a treewidth heuristic
  (:func:`repro.compile.ordering.branching_order`) — the primal graph is
  memoized per CNF, so a formula the planner's width probe already saw
  costs the counter no second build;
* optional **projected counting**: with a projection set ``P``, models
  that agree on ``P`` are counted once — the engine branches on ``P``
  variables only and falls back to a satisfiability check once a component
  contains none.  The satisfiability check *is* the counting routine with
  an early exit (first model wins), over the same trail and propagation;
* optional **trace recording**: hand the constructor a
  :class:`~repro.compile.ddnnf_trace.TraceBuilder` and the search emits a
  d-DNNF circuit (:mod:`repro.compile.circuit`) of its decisions, unit
  propagations, component splits and cache reuses as it counts.

The previous tuple-based implementation is retained verbatim as
:mod:`repro.compile.sharpsat_reference` and reachable through
``reference=True`` — the differential-testing oracle every randomized
suite cross-validates against, bit for bit.

Counts are exact big integers.  The recursion is exponential in the width
of the branching order, not in the number of variables — hard-cell lineage
CNFs with bounded-treewidth structure count in polynomial time.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.complexity.cnf import CNF
from repro.compile.ordering import branching_order
from repro.compile.preprocess import PreprocessResult, preprocess_store
from repro.compile.trail import ClauseStore
from repro.obs import incr as _incr, span as _span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.ddnnf_trace import TraceBuilder
    from repro.compile.sharpsat_reference import ReferenceModelCounter


def _mask_bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


class ModelCounter:
    """Exact (projected) model counter over a :class:`CNF`.

    ``projection`` — variables to count over; ``None`` counts full models.
    ``order`` — static branching order; defaults to
    :func:`~repro.compile.ordering.branching_order` of the formula, the
    reverse of its two-phase elimination order.
    ``trace`` — optional :class:`TraceBuilder`; when given, :meth:`count`
    additionally records the search as a d-DNNF circuit rooted at
    :attr:`trace_root`.
    ``preprocess`` — run the preprocessing pass before the search (root
    unit propagation always runs); ``probe`` forwards to
    :func:`~repro.compile.preprocess.preprocess_store` (``'auto'`` probes
    in projected mode only — see there for why).
    ``reference`` — delegate to the retained tuple-based implementation
    (:mod:`repro.compile.sharpsat_reference`); the slow differential oracle.
    """

    def __init__(
        self,
        cnf: CNF,
        projection: Iterable[int] | None = None,
        order: Sequence[int] | None = None,
        trace: "TraceBuilder | None" = None,
        preprocess: bool = True,
        probe: "bool | str" = "auto",
        reference: bool = False,
    ) -> None:
        self._cnf = cnf
        self._projection: frozenset[int] | None = (
            None if projection is None else frozenset(projection)
        )
        if self._projection is not None and any(
            v < 1 or v > cnf.num_variables for v in self._projection
        ):
            raise ValueError("projection variables must be in 1..num_variables")
        self._trace = trace
        #: Root node of the recorded circuit (set by :meth:`count` when
        #: tracing).
        self.trace_root: int | None = None
        self.cache_hits = 0
        self.components_split = 0
        #: Branch literals tried by the search.
        self.decisions = 0
        #: What the preprocessing pass did (set by :meth:`count`).
        self.preprocessing: PreprocessResult | None = None
        self.width: int | None
        self._cache: dict
        self._stats_flushed = False
        self._impl: "ReferenceModelCounter | None" = None
        if reference:
            from repro.compile.sharpsat_reference import (
                ReferenceModelCounter as _Reference,
            )

            self._impl = _Reference(
                cnf, projection=projection, order=order, trace=trace
            )
            self.width = self._impl.width
            self._cache = self._impl._cache
            return

        self._preprocess_enabled = preprocess
        self._probe = probe
        self._proj_mask: int | None = None
        if self._projection is not None:
            mask = 0
            for variable in self._projection:
                mask |= 1 << variable
            self._proj_mask = mask

        self._store = ClauseStore(cnf.num_variables, cnf.clauses)
        if order is None:
            with _span("compile.ordering", variables=cnf.num_variables):
                order, width = branching_order(cnf)
            self.width = width
        else:
            order = list(order)
            self.width = None
        # Rank as a flat positional table: one list index per variable
        # beats a dict probe in the innermost branching loop.
        rank = [len(order)] * (cnf.num_variables + 1)
        for position, variable in enumerate(order):
            rank[variable] = position
        self._rank = rank
        self._key_base = 2 * cnf.num_variables + 2
        self._index_store(self._store)
        self._cache = {}
        self._sat_cache: dict[tuple[int, ...], bool] = {}
        self._result: int | None = None

    def _index_store(self, store: ClauseStore) -> None:
        """Per-clause derived tables the split reads:
        lengths (to recognize untouched clauses) and the full-clause
        content signatures (so untouched clauses never rescan literals)."""
        base = self._key_base
        lengths = []
        full_pack = []
        for clause in store.clauses:
            lengths.append(len(clause))
            packed = 0
            for literal in clause:
                packed = packed * base + (
                    2 * literal if literal > 0 else 1 - 2 * literal
                )
            full_pack.append(packed)
        self._lengths = lengths
        self._full_pack = full_pack

    # -- public API --------------------------------------------------------

    def count(self) -> int:
        """The (projected) model count of the formula.

        Temporarily raises the recursion limit — the search recurses once
        per decision level, and the default limit is too tight for
        formulas with a few hundred variables.
        """
        if self._impl is not None:
            with _span("compile.search", core="reference"):
                result = self._impl.count()
            self.trace_root = self._impl.trace_root
            self.cache_hits = self._impl.cache_hits
            self.components_split = self._impl.components_split
            self.decisions = self._impl.decisions
            self._cache = self._impl._cache
            self._flush_stats()
            return result
        if self._result is not None:
            return self._result
        limit = sys.getrecursionlimit()
        needed = 10 * self._cnf.num_variables + 1_000
        try:
            if needed > limit:
                sys.setrecursionlimit(needed)
            with _span("compile.search", core="trail") as live:
                self._result = self._count_root()
                live.fields["max_trail_depth"] = self._store.max_trail_depth
        finally:
            sys.setrecursionlimit(limit)
        self._flush_stats()
        return self._result

    def stats(self) -> dict[str, Any]:
        """The uniform search-statistics vocabulary, both cores.

        Keys are stable across cores; values the trail core tracks but the
        reference core does not (propagations, conflicts, trail depth,
        preprocessing) come back ``None`` there.  Meaningful after
        :meth:`count`; consumers read this instead of the raw attributes.
        """
        if self._impl is not None:
            return self._impl.stats()
        pre = self.preprocessing
        store = self._store
        return {
            "core": "trail",
            "decisions": self.decisions,
            "propagations": store.propagations,
            "conflicts": store.conflicts,
            "max_trail_depth": store.max_trail_depth,
            "cache_hits": self.cache_hits,
            "cache_entries": len(self._cache),
            "sat_cache_entries": len(self._sat_cache),
            "components_split": self.components_split,
            "width": self.width,
            "preprocessing": None
            if pre is None
            else {
                "probes": pre.probes,
                "failed_literals": pre.failed_literals,
                "equivalences": pre.equivalences,
                "forced": len(pre.forced),
                "pure_fixed": len(pre.pure_fixed),
            },
        }

    def _flush_stats(self) -> None:
        """Mirror one finished search into the observability layer: the
        stats vocabulary becomes ``sharpsat.*`` counters (visible to any
        active capture); trail depth rides the ``compile.search`` span.
        Runs once."""
        if self._stats_flushed:
            return
        self._stats_flushed = True
        stats = self.stats()
        for key in (
            "decisions",
            "propagations",
            "conflicts",
            "cache_hits",
            "components_split",
        ):
            value = stats.get(key)
            if value:
                _incr("sharpsat.%s" % key, value)
        pre = stats.get("preprocessing")
        if pre:
            for key, value in pre.items():
                if value:
                    _incr("sharpsat.preprocess.%s" % key, value)

    # -- root --------------------------------------------------------------

    def _count_root(self) -> int:
        trace = self._trace
        conflict, determined_mask = self._prepare()
        if conflict:
            if trace is not None:
                self.trace_root = trace.false
            return 0
        store = self._store
        live = store.live_indices()
        count, node, live_mask = self._count(live)
        assigned = self._root_assigned
        assigned_mask = 0
        for literal in assigned:
            assigned_mask |= 1 << (literal if literal > 0 else -literal)
        all_mask = (1 << (self._cnf.num_variables + 1)) - 2
        free_mask = all_mask & ~live_mask & ~assigned_mask & ~determined_mask
        if trace is not None:
            assert node is not None
            self.trace_root = trace.decision(
                [(
                    tuple(sorted(assigned, key=abs)),
                    tuple(_mask_bits(free_mask)),
                    node,
                )]
            )
        return (1 << self._count_bits(free_mask)) * count

    def _prepare(self) -> tuple[bool, int]:
        """Root unit propagation plus preprocessing; swaps in the rewritten
        store when substitution fired.  Returns ``(conflict, determined)``."""
        store = self._store
        if store.has_empty:
            return True, 0
        if not store.propagate(store.units):
            return True, 0
        determined_mask = 0
        if self._preprocess_enabled:
            with _span("compile.preprocess"):
                report = preprocess_store(
                    store,
                    projection=self._projection,
                    traced=self._trace is not None,
                    probe=self._probe,
                )
            self.preprocessing = report
            if report.conflict:
                return True, 0
            determined_mask = report.determined_mask
            self._root_assigned = list(store.trail)
            if report.rewritten is not None:
                rebuilt = ClauseStore(store.num_variables, report.rewritten)
                if rebuilt.has_empty or not rebuilt.propagate(rebuilt.units):
                    return True, 0
                # Substituted variables vanish from the clauses; literals
                # the rebuilt store derives are genuinely new (their
                # variables were unassigned in the old store).
                self._root_assigned.extend(rebuilt.trail)
                self._store = rebuilt
                self._index_store(rebuilt)
        else:
            self._root_assigned = list(store.trail)
        return False, determined_mask

    # -- search ------------------------------------------------------------

    def _count_bits(self, mask: int) -> int:
        """How many variables of ``mask`` contribute a free factor of two."""
        if self._proj_mask is not None:
            mask &= self._proj_mask
        return mask.bit_count()

    def _split(
        self, indices: list[int]
    ) -> list[tuple[list[int], int, tuple[int, ...]]]:
        """Variable-connected components of live clauses, as
        ``(clause indices, unassigned-variable bitset, cache key)``.

        Each clause contributes its unassigned-variable bitset and its
        packed content signature.  The hot case costs no literal work at
        all: a clause propagation never touched (``free == len``) reuses
        the store's static bitset and the precomputed full-clause
        signature, so only clauses a decision actually reduced are
        rescanned.  Signatures pack literals as base-``2n+2`` digits in
        stored (canonical) clause order — two clauses sign equally exactly
        when their reduced contents are equal, so the cache keeps the
        reference counter's equivalence classes at integer-hash prices.

        Components come from a flood fill over the bitsets: seed one at
        the highest unplaced clause and sweep the unplaced clauses
        downward, absorbing every clause whose bitset meets the growing
        union, until a sweep absorbs nothing.  Downward, because the
        encoder emits the disjoint exactly-one blocks first and the match
        clauses that bridge them last: the sweep meets the connectors
        first, so one sweep usually places every clause.  Deterministic:
        members ascending, components ordered by smallest clause index.
        """
        store = self._store
        value = store.value
        clauses = store.clauses
        free = store.free
        var_masks = store.var_masks
        lengths = self._lengths
        full_pack = self._full_pack
        base = self._key_base

        count = len(indices)
        if not count:
            return []
        masks = [0] * count
        packs = [0] * count
        for position, ci in enumerate(indices):
            if free[ci] == lengths[ci]:
                masks[position] = var_masks[ci]
                packs[position] = full_pack[ci]
            else:
                mask = 0
                packed = 0
                for literal in clauses[ci]:
                    variable = literal if literal > 0 else -literal
                    if not value[variable]:
                        mask |= 1 << variable
                        packed = packed * base + (
                            2 * literal if literal > 0 else 1 - 2 * literal
                        )
                masks[position] = mask
                packs[position] = packed

        components = []
        unplaced: Sequence[int] = range(count - 1, -1, -1)
        while unplaced:
            union = masks[unplaced[0]]
            taken = [unplaced[0]]
            rest = unplaced[1:]
            while rest:
                left = []
                for position in rest:
                    mask = masks[position]
                    if mask & union:
                        union |= mask
                        taken.append(position)
                    else:
                        left.append(position)
                if len(left) == len(rest):
                    break  # the sweep absorbed nothing
                rest = left
            if len(taken) == count:
                packs.sort()
                return [(indices, union, tuple(packs))]
            taken.sort()
            signature = sorted([packs[position] for position in taken])
            members = [indices[position] for position in taken]
            components.append((members, union, tuple(signature)))
            unplaced = rest
        components.sort(key=lambda component: component[0][0])
        return components

    def _count(
        self, indices: list[int]
    ) -> tuple[int, int | None, int]:
        """Count live clauses ``indices``: split, conquer, multiply.

        Returns ``(count, circuit node or None, live-variable bitset)``.
        """
        trace = self._trace
        if not indices:
            return 1, (None if trace is None else trace.true), 0
        components = self._split(indices)
        live_mask = 0
        for _members, mask, _key in components:
            live_mask |= mask
        if len(components) > 1:
            self.components_split += 1
        result = 1
        nodes: list[int] = []
        for members, mask, key in components:
            count, node = self._count_component(members, mask, key)
            result *= count
            if trace is None:
                if result == 0:
                    return 0, None, live_mask
            else:
                assert node is not None
                nodes.append(node)
        if trace is None:
            return result, None, live_mask
        return result, trace.product(nodes), live_mask

    def _count_component(
        self, indices: list[int], comp_mask: int, key: tuple[int, ...]
    ) -> tuple[int, int | None]:
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        trace = self._trace
        node: int | None = None
        variable = self._pick_variable(comp_mask)
        if variable is None:
            # Projected mode, no projection variable left: the component
            # contributes one projected model iff it is satisfiable.
            satisfiable = self._satisfiable(indices, comp_mask, key)
            result = 1 if satisfiable else 0
            if trace is not None:
                node = trace.constant(satisfiable)
        else:
            store = self._store
            result = 0
            branches = []
            for literal in (variable, -variable):
                self.decisions += 1
                mark = store.mark()
                if not store.propagate((literal,)):
                    store.backtrack(mark)
                    continue
                assigned = store.trail[mark:]
                sat = store.sat
                live = [ci for ci in indices if not sat[ci]]
                count, child, live_mask = self._count(live)
                if count or trace is not None:
                    assigned_mask = 0
                    for assigned_literal in assigned:
                        assigned_mask |= 1 << (
                            assigned_literal
                            if assigned_literal > 0
                            else -assigned_literal
                        )
                    freed_mask = comp_mask & ~assigned_mask & ~live_mask
                    result += (1 << self._count_bits(freed_mask)) * count
                    if trace is not None:
                        assert child is not None
                        branches.append(
                            (
                                tuple(sorted(assigned, key=abs)),
                                tuple(_mask_bits(freed_mask)),
                                child,
                            )
                        )
                store.backtrack(mark)
            if trace is not None:
                node = trace.decision(branches)
        entry = (result, node)
        self._cache[key] = entry
        return entry

    def _pick_variable(self, comp_mask: int) -> int | None:
        """Earliest variable of the branching order in the component.

        In projected mode only projection variables qualify; ``None`` means
        the component has none left.
        """
        if self._proj_mask is not None:
            comp_mask &= self._proj_mask
            if not comp_mask:
                return None
        return self._pick_any_variable(comp_mask)

    def _satisfiable(
        self,
        indices: list[int],
        comp_mask: int,
        key: tuple[int, ...],
    ) -> bool:
        """Satisfiability of a residual component.

        This *is* the counting branch loop with an early exit — same
        trail, same propagation, same component split — it just stops at
        the first branch whose components are all satisfiable instead of
        summing.  Verdicts memoise under the same content signatures.
        """
        cached = self._sat_cache.get(key)
        if cached is not None:
            return cached
        store = self._store
        variable = self._pick_any_variable(comp_mask)
        result = False
        for literal in (variable, -variable):
            self.decisions += 1
            mark = store.mark()
            if not store.propagate((literal,)):
                store.backtrack(mark)
                continue
            sat = store.sat
            live = [ci for ci in indices if not sat[ci]]
            satisfied = all(
                self._satisfiable(members, mask, sub_key)
                for members, mask, sub_key in self._split(live)
            )
            store.backtrack(mark)
            if satisfied:
                result = True
                break
        self._sat_cache[key] = result
        return result

    def _pick_any_variable(self, comp_mask: int) -> int:
        """Min-rank variable of the component, projection ignored."""
        rank = self._rank
        best = -1
        best_rank = sys.maxsize
        while comp_mask:
            low = comp_mask & -comp_mask
            variable = low.bit_length() - 1
            comp_mask ^= low
            if rank[variable] < best_rank:
                best_rank = rank[variable]
                best = variable
        return best


def count_models(
    cnf: CNF,
    projection: Iterable[int] | None = None,
    order: Sequence[int] | None = None,
    preprocess: bool = True,
    probe: "bool | str" = "auto",
    reference: bool = False,
) -> int:
    """Convenience wrapper: exact (projected) model count of ``cnf``."""
    return ModelCounter(
        cnf,
        projection=projection,
        order=order,
        preprocess=preprocess,
        probe=probe,
        reference=reference,
    ).count()
