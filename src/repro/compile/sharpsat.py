"""Exact model counting (#SAT) on a trail: in-place state, variable components.

A pure-Python counter in the sharpSAT family, specialised for the CNFs the
lineage compiler emits.  The search machinery is built around **persistent
in-place state** instead of immutable formula copies:

* one :class:`~repro.compile.trail.ClauseStore` holds the formula for the
  whole search — binary clauses (most of what the encoders emit) as
  implication lists, longer ones occurrence-indexed with satisfied/free
  counters; a decision assigns literals on a **trail** and propagates in
  place, so a branch costs work in the variables it assigns and
  backtracking is the exact reverse replay — the formula is never rebuilt;
* **connected components** of the residual formula are found over its
  unassigned **variables**, numbered by branching rank so a component's
  branching variable is its lowest bit: a breadth-first closure over
  binary adjacency, then the live long clauses, which merge the groups
  they bridge; variable-disjoint parts are counted independently and
  multiplied;
* **component caching** — a component is memoised under its variable
  bitset and the sorted packed contents of its live long clauses (each
  reduced clause packs into one int).  Its live binary clauses are the
  stored ones inside its variables, so two components share a key exactly
  when their clauses are equal, the reference counter's cache equivalence;
* **root unit propagation** runs once before the search: the input's
  unit clauses and what they force land on the root trail, and the
  recorded circuit's root decision node carries them;
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
:class:`~repro.compile.sharpsat_reference.ReferenceModelCounter` — the
differential-testing oracle every randomized suite cross-validates
against, bit for bit.

Counts are exact big integers.  The recursion is exponential in the width
of the branching order, not in the number of variables — hard-cell lineage
CNFs with bounded-treewidth structure count in polynomial time.
"""

from __future__ import annotations

import sys
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.complexity.cnf import CNF
from repro.compile.ordering import branching_order
from repro.compile.trail import ClauseStore
from repro.obs import incr as _incr, span as _span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compile.ddnnf_trace import TraceBuilder


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
        self._trace = trace
        #: Root node of the recorded circuit (set by :meth:`count` when
        #: tracing).
        self.trace_root: int | None = None
        self.cache_hits = 0
        self.components_split = 0
        #: Branch literals tried by the search.
        self.decisions = 0
        self.width: int | None
        self._stats_flushed = False
        self._store = store = ClauseStore(cnf.num_variables, cnf.clauses)
        if order is None:
            with _span("compile.ordering", variables=cnf.num_variables):
                order, width = branching_order(cnf)
            self.width = width
        else:
            order = list(order)
            self.width = None
        # Variable bits are numbered by branching rank (ties, and variables
        # the order omits, by index), so a pick is a component's lowest bit.
        rank = {variable: position for position, variable in enumerate(order)}
        #: The variable at each rank bit.
        self._variables = sorted(
            range(1, cnf.num_variables + 1),
            key=lambda variable: (rank.get(variable, len(order)), variable),
        )
        #: ``_bits[literal]``: the rank bit of its variable (a negative
        #: literal indexes from the end).
        bits = [0] * (2 * cnf.num_variables + 1)
        for position, variable in enumerate(self._variables):
            bits[variable] = bits[-variable] = 1 << position
        self._bits = bits
        self._proj_mask: int | None = None
        if self._projection is not None:
            self._proj_mask = sum(bits[v] for v in self._projection)
        self._key_base = base = 2 * cnf.num_variables + 2
        self._cache: dict = {}
        self._sat_cache: dict[tuple, bool] = {}
        self._result: int | None = None

        # The split's static tables: per clause its length, rank bits and
        # packed content; per rank bit its binary neighbours, and the
        # binary clauses whose lower bit it is, as ``(index, other
        # variable)``.
        lengths = []
        masks = []
        full_pack = []
        for clause in store.clauses:
            lengths.append(len(clause))
            mask = 0
            packed = 0
            for literal in clause:
                mask |= bits[literal]
                packed = packed * base + (
                    2 * literal if literal > 0 else 1 - 2 * literal
                )
            masks.append(mask)
            full_pack.append(packed)
        self._lengths = lengths
        self._clause_masks = masks
        self._full_pack = full_pack
        size = store.num_variables
        adjacent = [0] * size
        binaries: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        lower = [0] * len(store.clauses)
        for ci in store.binary:
            left, right = store.clauses[ci]
            left_bit, right_bit = bits[left], bits[right]
            adjacent[left_bit.bit_length() - 1] |= right_bit
            adjacent[right_bit.bit_length() - 1] |= left_bit
            if left_bit > right_bit:
                left_bit, right = right_bit, left
            binaries[left_bit.bit_length() - 1].append((ci, abs(right)))
            lower[ci] = left_bit
        self._adjacent = adjacent
        self._binaries = binaries
        #: ``_binary_below[ci]``: the lower bits of the binary clauses
        #: with an index below ``ci``.
        self._binary_below = [0, *accumulate(lower, or_)]

    # -- public API --------------------------------------------------------

    def count(self) -> int:
        """The (projected) model count of the formula.

        Temporarily raises the recursion limit — the search recurses once
        per decision level, and the default limit is too tight for
        formulas with a few hundred variables.
        """
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
        """The search-statistics vocabulary, shared with the reference core:
        ``ReferenceModelCounter.stats()`` returns the same keys, with
        ``None`` for what only the trail core tracks (propagations,
        conflicts, trail depth).  Meaningful after :meth:`count`;
        consumers read this instead of the raw attributes.
        """
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

    # -- root --------------------------------------------------------------

    def _count_root(self) -> int:
        trace = self._trace
        store = self._store
        if store.has_empty or not store.propagate(store.units):
            if trace is not None:
                self.trace_root = trace.false
            return 0
        assigned = tuple(sorted(store.trail, key=abs))
        settled = sum(map(self._bits.__getitem__, assigned))
        variables = (1 << self._cnf.num_variables) - 1 & ~settled
        count, node, live_mask = self._count(store.long, variables)
        free_mask = variables & ~live_mask
        if trace is not None:
            assert node is not None
            self.trace_root = trace.decision(
                [(assigned, self._mask_variables(free_mask), node)]
            )
        return (1 << self._count_bits(free_mask)) * count

    # -- search ------------------------------------------------------------

    def _count_bits(self, mask: int) -> int:
        """How many variables of ``mask`` contribute a free factor of two."""
        if self._proj_mask is not None:
            mask &= self._proj_mask
        return mask.bit_count()

    def _mask_variables(self, mask: int) -> tuple[int, ...]:
        """The variables of a rank-bit ``mask``, ascending."""
        variables = self._variables
        return tuple(sorted(variables[bit] for bit in _mask_bits(mask)))

    def _split(
        self, indices: list[int], variables: int
    ) -> list[tuple[list[int], int, tuple]]:
        """Components of the residual formula over ``variables`` (the
        unassigned rank bits of the component being split, whose long
        clauses, live or not, are ``indices``), as ``(live long clause
        indices, variable bitset, cache key)``.

        A group grows from its lowest variable by a breadth-first closure
        over binary adjacency inside ``variables``: after propagation a
        binary clause is satisfied or has both variables unassigned, so
        that adjacency is the live binary clauses.  The live long clauses
        then attach to the groups they meet, merging those they bridge; a
        variable no live clause holds joins no component.  A long clause
        propagation never touched (``free == len``) reuses its static
        bitset and packed content (base-``2n+2`` digits in stored order).
        Components come ordered by smallest live clause index, binary
        clauses included: the order the circuit's nodes follow.
        """
        store = self._store
        value = store.value
        clauses = store.clauses
        sat = store.sat
        free = store.free
        lengths = self._lengths
        clause_masks = self._clause_masks
        full_pack = self._full_pack
        bits = self._bits
        base = self._key_base
        adjacent = self._adjacent

        # Each group: [variable bitset, positions of its long clauses].
        groups: list[list] = []
        lonely = 0  # variables without a live binary clause
        remaining = variables
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            frontier = adjacent[low.bit_length() - 1] & remaining
            if not frontier:
                lonely |= low
                continue
            group = low
            while frontier:
                group |= frontier
                remaining ^= frontier
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reach |= adjacent[low.bit_length() - 1]
                frontier = reach & remaining
            groups.append([group, []])

        live = []
        masks = []
        packs = []
        for ci in indices:
            if sat[ci]:
                continue
            live.append(ci)
            if free[ci] == lengths[ci]:
                masks.append(clause_masks[ci])
                packs.append(full_pack[ci])
            else:
                mask = 0
                packed = 0
                for literal in clauses[ci]:
                    variable = literal if literal > 0 else -literal
                    if not value[variable]:
                        mask |= bits[variable]
                        packed = packed * base + (
                            2 * literal if literal > 0 else 1 - 2 * literal
                        )
                masks.append(mask)
                packs.append(packed)
        # With one group and no lonely variable, every live long clause
        # lies inside the group.
        if lonely or len(groups) != 1:
            for position, mask in enumerate(masks):
                hit = None
                for entry in groups:
                    if entry[0] & mask:
                        if hit is None:
                            hit = entry
                            entry[0] |= mask
                            entry[1].append(position)
                        else:
                            hit[0] |= entry[0]
                            hit[1] += entry[1]
                            entry[0] = 0
                if hit is None:
                    groups.append([mask, [position]])
        if len(groups) == 1:
            group = groups[0][0]
            packs.sort()
            return [(live, group, (group, tuple(packs)))]

        binaries = self._binaries
        binary_below = self._binary_below
        components = []
        for mask, positions in groups:
            if not mask:
                continue  # merged into another group
            positions.sort()
            members = [live[p] for p in positions]
            # The smallest clause index: its first long clause (members
            # ascend) or a live binary clause below it, looked up only
            # under the variables that have a binary clause that low.
            first = members[0] if members else len(sat)
            rest = mask & binary_below[first]
            while rest:
                low = rest & -rest
                rest ^= low
                for ci, other in binaries[low.bit_length() - 1]:
                    if ci >= first:
                        break
                    if not value[other]:
                        first = ci
                        break
            key = (mask, tuple(sorted([packs[p] for p in positions])))
            components.append((first, members, mask, key))
        components.sort()
        return [component[1:] for component in components]

    def _count(
        self, indices: list[int], variables: int
    ) -> tuple[int, int | None, int]:
        """Count the residual formula over ``variables`` (rank bits), whose
        long clauses are among ``indices``: split, conquer, multiply.

        Returns ``(count, circuit node or None, live-variable bitset)``.
        """
        trace = self._trace
        components = self._split(indices, variables)
        if not components:
            return 1, (None if trace is None else trace.true), 0
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
        self, indices: list[int], comp_mask: int, key: tuple
    ) -> tuple[int, int | None]:
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        trace = self._trace
        node: int | None = None
        # Projected mode branches on projection variables only.
        pick = comp_mask if self._proj_mask is None else comp_mask & self._proj_mask
        if not pick:
            # No projection variable left: the component contributes one
            # projected model iff it is satisfiable.
            satisfiable = self._satisfiable(indices, comp_mask, key)
            result = 1 if satisfiable else 0
            if trace is not None:
                node = trace.constant(satisfiable)
        else:
            variable = self._variables[(pick & -pick).bit_length() - 1]
            store = self._store
            bits = self._bits
            result = 0
            branches = []
            for literal in (variable, -variable):
                self.decisions += 1
                mark = store.mark()
                if not store.propagate((literal,)):
                    store.backtrack(mark)
                    continue
                assigned = store.trail[mark:]
                rest = comp_mask & ~sum(map(bits.__getitem__, assigned))
                count, child, live_mask = self._count(indices, rest)
                if count or trace is not None:
                    freed_mask = rest & ~live_mask
                    result += (1 << self._count_bits(freed_mask)) * count
                    if trace is not None:
                        assert child is not None
                        branches.append(
                            (
                                tuple(sorted(assigned, key=abs)),
                                self._mask_variables(freed_mask),
                                child,
                            )
                        )
                store.backtrack(mark)
            if trace is not None:
                node = trace.decision(branches)
        entry = (result, node)
        self._cache[key] = entry
        return entry

    def _satisfiable(
        self, indices: list[int], comp_mask: int, key: tuple
    ) -> bool:
        """Satisfiability of a residual component.

        This *is* the counting branch loop with an early exit — same
        trail, same propagation, same component split — it just stops at
        the first branch whose components are all satisfiable instead of
        summing.  Verdicts memoise under the same keys.
        """
        cached = self._sat_cache.get(key)
        if cached is not None:
            return cached
        store = self._store
        bits = self._bits
        variable = self._variables[(comp_mask & -comp_mask).bit_length() - 1]
        result = False
        for literal in (variable, -variable):
            self.decisions += 1
            mark = store.mark()
            if not store.propagate((literal,)):
                store.backtrack(mark)
                continue
            rest = comp_mask & ~sum(map(bits.__getitem__, store.trail[mark:]))
            satisfied = all(
                self._satisfiable(members, mask, sub_key)
                for members, mask, sub_key in self._split(indices, rest)
            )
            store.backtrack(mark)
            if satisfied:
                result = True
                break
        self._sat_cache[key] = result
        return result


def count_models(
    cnf: CNF,
    projection: Iterable[int] | None = None,
    order: Sequence[int] | None = None,
) -> int:
    """Convenience wrapper: exact (projected) model count of ``cnf``."""
    return ModelCounter(cnf, projection=projection, order=order).count()
