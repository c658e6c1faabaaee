"""Tractable case of ``#Compu(q)`` — unary schemas, uniform domain
(Theorem 4.6 / Appendix B.6).

When neither ``R(x,x)`` nor ``R(x,y)`` is a pattern of ``q``, every relation
in ``q`` is unary.  A completion of a unary uniform database is determined
by the *membership map* sending each domain value to the set of relations
containing it, so counting completions reduces to counting realizable
membership maps.

The appendix enumerates profiles ``(|I_s|)_s`` of the value sets with
membership exactly ``s`` (Lemmas B.17/B.18) and filters them with a
feasibility system (Lemma B.19).  We implement the same idea with one
refinement: realizability depends not only on the *sizes* of the final
membership classes but on their *composition* — which initial class
(constants of type ``s``, or fresh domain values) each member came from —
so we enumerate composition shapes:

* ``upgrade[s][t]`` — constants of initial type ``s`` whose final type is
  ``t ⊋ s`` (nulls added the missing relations);
* ``fresh[t]`` — values outside all constants whose final type is ``t``.

Each shape is weighted by exact multinomials (values within a class are
interchangeable) and kept iff a valuation realizes it.  Every value with a
*deficit* ``t \\ s`` must receive nulls whose occurrence-sets (blocks) lie
inside ``t`` and jointly cover the deficit, and no block can serve more
values than it has nulls; blocks with no landing type are fatal.  The
inclusion-minimal covers of each ``(s, t)`` pair are found once per
instance, and a budgeted-cover search decides each shape: it hands every
deficit class's values to its covers, spending block budgets, and backs out
when a budget runs dry.  Finally ``q`` (a conjunction of basic singletons
over unary relations) holds iff every component has some value whose final
type contains it.

Exponential in the (fixed) schema, polynomial in ``d`` and the table size.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from repro.core.classify import tractable
from repro.core.problems import COMP_UNIFORM
from repro.core.query import BCQ, BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Term, is_null
from repro.util.combinatorics import binomial

#: A set of null blocks whose occurrence-sets jointly cover a deficit.
_Cover = tuple[frozenset[str], ...]


def applies(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    """Whether Theorem 4.6 counts ``#Comp(q)(D)``, and why: ``q`` in the FP
    cell of ``#Compu`` (or no query: all completions), and ``D`` uniform
    with a unary schema."""
    ok, reason = True, "uniform unary instance: Theorem 4.6 closed form"
    if query is not None:
        ok, reason = tractable(query, COMP_UNIFORM)
    if ok and not db.is_uniform:
        return False, "database is not uniform (per-null domains differ)"
    if ok and any(fact.arity != 1 for fact in db.facts):
        return False, "schema is not unary (some fact has arity > 1)"
    return ok, reason


def _query_components(query: BCQ) -> list[frozenset[str]]:
    """Components of a unary-schema sjfBCQ: relation groups per variable."""
    groups: dict[object, set[str]] = {}
    for atom in query.atoms:
        variable = atom.variables()[0]
        groups.setdefault(variable, set()).add(atom.relation)
    return [frozenset(group) for group in groups.values()]


class _Instance:
    """Preprocessed unary uniform instance (one :func:`applies` admits)."""

    def __init__(self, db: IncompleteDatabase, relations: Sequence[str]):
        self.relations = sorted(set(relations) | db.relations)
        self.domain = db.uniform_domain
        self.d = len(self.domain)

        membership_constants: dict[Term, set[str]] = {}
        membership_nulls: dict[Term, set[str]] = {}
        for fact in db.facts:
            term = fact.terms[0]
            target = membership_nulls if is_null(term) else membership_constants
            target.setdefault(term, set()).add(fact.relation)

        # In-domain constants by initial type; out-of-domain constants keep
        # a fixed type in every completion (they only matter for q).
        self.constant_classes: dict[frozenset[str], int] = {}
        self.fixed_types: set[frozenset[str]] = set()
        for constant, relations_of in membership_constants.items():
            signature = frozenset(relations_of)
            if constant in self.domain:
                self.constant_classes[signature] = (
                    self.constant_classes.get(signature, 0) + 1
                )
            else:
                self.fixed_types.add(signature)

        # Null blocks by occurrence signature.
        self.blocks: dict[frozenset[str], int] = {}
        for null, relations_of in membership_nulls.items():
            signature = frozenset(relations_of)
            self.blocks[signature] = self.blocks.get(signature, 0) + 1

        self.num_constants = sum(self.constant_classes.values())
        self.free_pool = self.d - self.num_constants

        self.nonempty_types = [
            frozenset(chosen)
            for size in range(1, len(self.relations) + 1)
            for chosen in combinations(self.relations, size)
        ]

        # The minimal covers of every (source type, target type) pair a
        # shape can name: a value moving from ``s`` to ``t`` needs blocks
        # inside ``t`` that cover ``t - s``.
        self.covers = {
            (source, target): _minimal_covers(
                target - source,
                [block for block in self.blocks if block <= target],
            )
            for source in {frozenset(), *self.constant_classes}
            for target in self.nonempty_types
            if source < target
        }


def _iter_class_assignments(
    capacity: int, targets: Sequence[frozenset[str]]
) -> Iterator[dict[frozenset[str], int]]:
    """All ways to send ``0..capacity`` items into the target types."""

    def recurse(
        index: int, remaining: int
    ) -> Iterator[dict[frozenset[str], int]]:
        if index == len(targets):
            yield {}
            return
        for count in range(remaining + 1):
            for tail in recurse(index + 1, remaining - count):
                if count:
                    tail = dict(tail)
                    tail[targets[index]] = count
                yield tail

    yield from recurse(0, capacity)


def _shape_weight(
    instance: _Instance,
    upgrades: dict[frozenset[str], dict[frozenset[str], int]],
    fresh: dict[frozenset[str], int],
) -> int:
    """Number of membership maps with this composition shape.

    Successive binomials multiply to a multinomial coefficient, so the
    order in which the target types are taken does not matter.
    """
    weight = 1
    for source, moves in upgrades.items():
        available = instance.constant_classes.get(source, 0)
        for count in moves.values():
            weight *= binomial(available, count)
            available -= count
    available = instance.free_pool
    for count in fresh.values():
        weight *= binomial(available, count)
        available -= count
    return weight


def _present_types(
    instance: _Instance,
    upgrades: dict[frozenset[str], dict[frozenset[str], int]],
    fresh: dict[frozenset[str], int],
) -> set[frozenset[str]]:
    """Final types carried by at least one *in-domain* value.

    Out-of-domain constants are excluded: their (fixed) types count for
    query satisfaction but cannot absorb nulls — callers add
    ``instance.fixed_types`` where appropriate.
    """
    present: set[frozenset[str]] = set()
    for target, count in fresh.items():
        if count:
            present.add(target)
    for source, moves in upgrades.items():
        moved = 0
        for target, count in moves.items():
            if count:
                present.add(target)
            moved += count
        if instance.constant_classes.get(source, 0) - moved > 0:
            present.add(source)
    for source, size in instance.constant_classes.items():
        if source not in upgrades and size > 0:
            present.add(source)
    return present


def _minimal_covers(
    deficit: frozenset[str], usable_blocks: list[frozenset[str]]
) -> tuple[_Cover, ...]:
    """Inclusion-minimal sets of blocks jointly covering ``deficit``.

    Covers are found in increasing size, so one that holds no smaller
    cover found before it is minimal.
    """
    covers: list[_Cover] = []
    for size in range(1, len(usable_blocks) + 1):
        for chosen in combinations(usable_blocks, size):
            union: frozenset[str] = frozenset().union(*chosen)
            if deficit <= union:
                chosen_set = set(chosen)
                if not any(set(c) < chosen_set for c in covers):
                    covers.append(chosen)
    return tuple(covers)


def _covers_fit(
    demands: Sequence[tuple[int, Sequence[_Cover]]],
    budgets: dict[frozenset[str], int],
) -> bool:
    """Can every class's values be handed to its covers within the budgets?

    ``demands`` lists ``(count, covers)``: each of a class's ``count``
    values goes to one of its covers and takes one null from every block in
    it, and a block has ``budgets[block]`` nulls to give.  A depth-first
    search gives each cover as many of the class's remaining values as its
    blocks allow, then fewer, and the last cover the rest.  Classes with
    fewer covers go first, so a class with none fails at once.  ``budgets``
    is spent on the way down and restored on the way back, so it is
    unchanged on return.
    """
    ordered = sorted(demands, key=lambda demand: len(demand[1]))

    def place(index: int, start: int, left: int) -> bool:
        """Place class ``index``'s ``left`` values from cover ``start`` on,
        then every later class."""
        if not left:
            index += 1
            return index == len(ordered) or place(index, 0, ordered[index][0])
        covers = ordered[index][1]
        if start == len(covers):
            return False
        cover = covers[start]
        room = min(left, min(budgets[block] for block in cover))
        lowest = left if start + 1 == len(covers) else 0
        for take in range(room, lowest - 1, -1):
            for block in cover:
                budgets[block] -= take
            found = place(index, start + 1, left - take)
            for block in cover:
                budgets[block] += take
            if found:
                return True
        return False

    return not ordered or place(0, 0, ordered[0][0])


def _shape_feasible(
    instance: _Instance,
    upgrades: dict[frozenset[str], dict[frozenset[str], int]],
    fresh: dict[frozenset[str], int],
    present: set[frozenset[str]],
) -> bool:
    """Lemma B.19 realizability: can some valuation produce this shape?

    Every block must land inside some present type, and the values with a
    deficit must fit their covers within the blocks' null budgets, as the
    budgeted-cover search decides.  Deficit classes with the same covers
    merge, summing their values: a way to place the merged class splits
    back into ways to place its parts.

    ``present`` must be the in-domain present types (fixed out-of-domain
    types never absorb nulls: nulls map into the domain).
    """
    for block in instance.blocks:
        if not any(block <= final_type for final_type in present):
            return False

    demands: dict[tuple[_Cover, ...], int] = {}
    for source, moves in upgrades.items():
        for target, count in moves.items():
            covers = instance.covers[source, target]
            demands[covers] = demands.get(covers, 0) + count
    for target, count in fresh.items():
        covers = instance.covers[frozenset(), target]
        demands[covers] = demands.get(covers, 0) + count
    return _covers_fit(
        [(count, covers) for covers, count in demands.items()], instance.blocks
    )


def count_completions_uniform_unary(
    db: IncompleteDatabase, query: BCQ | None = None
) -> int:
    """``#Compu(q)(D)`` for unary schemas (Theorem 4.6), where
    :func:`applies`; ``query=None`` counts *all* completions of ``D``.

    Polynomial in ``|dom|`` and the table for a fixed schema.
    """
    ok, reason = applies(db, query)
    if not ok:
        raise ValueError("Theorem 4.6 does not apply: %s" % reason)
    relations = sorted(query.relations) if query is not None else []
    # A query relation with no facts stays empty in every completion
    # (closed-world: valuations never invent facts), so q is never satisfied.
    if any(not db.relation(r) for r in relations):
        return 0
    instance = _Instance(db, relations)
    components = _query_components(query) if query is not None else []
    upgrade_sources = [
        source
        for source in instance.constant_classes
        if any(source < t for t in instance.nonempty_types)
    ]

    total = 0
    fresh_targets = instance.nonempty_types

    def iter_upgrades(
        index: int,
    ) -> Iterator[dict[frozenset[str], dict[frozenset[str], int]]]:
        if index == len(upgrade_sources):
            yield {}
            return
        source = upgrade_sources[index]
        capacity = instance.constant_classes[source]
        targets = [t for t in instance.nonempty_types if source < t]
        for assignment in _iter_class_assignments(capacity, targets):
            for tail in iter_upgrades(index + 1):
                result = dict(tail)
                if assignment:
                    result[source] = assignment
                yield result

    for upgrades in iter_upgrades(0):
        for fresh in _iter_class_assignments(
            instance.free_pool, fresh_targets
        ):
            weight = _shape_weight(instance, upgrades, fresh)
            if weight == 0:
                continue
            present = _present_types(instance, upgrades, fresh)
            satisfaction_types = present | instance.fixed_types
            if components and not all(
                any(component <= final for final in satisfaction_types)
                for component in components
            ):
                continue
            if not _shape_feasible(instance, upgrades, fresh, present):
                continue
            total += weight
    return total


def count_completions_single_unary(db: IncompleteDatabase) -> int:
    """Closed form for one unary relation (warm-ups B.6.1/B.6.2).

    With ``c`` in-domain constants and ``n`` nulls over uniform domain of
    size ``d``: the completions add ``i`` fresh values, ``0 <= i <= n``,
    with ``i >= 1`` forced when ``c = 0 < n`` — i.e.
    ``sum_i C(d - c, i)`` over the valid range.
    """
    ok, reason = applies(db, None)
    if not ok:
        raise ValueError(
            "the single-unary closed form does not apply: %s" % reason
        )
    if len(db.relations) > 1:
        raise ValueError("closed form applies to a single unary relation")
    domain = db.uniform_domain
    d = len(domain)
    constants = {f.terms[0] for f in db.facts if not is_null(f.terms[0])}
    in_domain = len(constants & domain)
    nulls = len(db.nulls)
    if nulls == 0:
        return 1
    lowest = 0 if (in_domain > 0) else 1
    return sum(binomial(d - in_domain, i) for i in range(lowest, nulls + 1))
