"""Shape-at-a-time reference for :mod:`repro.exact.comp_uniform`.

Theorem 4.6's closed form folds per-group option tables into states and
judges each state once.  This module keeps the enumeration it replaced,
as an oracle: every composition shape listed one by one
(:func:`iter_shapes`), weighted by successive binomials
(:func:`shape_weight`), its present types collected in frozensets
(:func:`present_types`) and its Lemma B.19 realizability decided by the
frozenset-keyed budgeted-cover search (:func:`shape_feasible`,
:func:`covers_fit`).  :func:`count_completions` is the old count.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.query import BCQ
from repro.db.incomplete import IncompleteDatabase
from repro.exact.comp_uniform import _Cover, _Instance, _query_components, applies
from repro.util.combinatorics import binomial

#: ``upgrades[s][t]``: constants of initial type ``s`` whose final type is ``t``.
Upgrades = dict[frozenset[str], dict[frozenset[str], int]]
#: ``fresh[t]``: values outside all constants whose final type is ``t``.
Fresh = dict[frozenset[str], int]


def iter_class_assignments(
    capacity: int, targets: Sequence[frozenset[str]]
) -> Iterator[dict[frozenset[str], int]]:
    """All ways to send ``0..capacity`` items into the target types."""

    def recurse(index: int, remaining: int) -> Iterator[dict[frozenset[str], int]]:
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


def iter_shapes(instance: _Instance) -> Iterator[tuple[Upgrades, Fresh]]:
    """Every composition shape ``(upgrades, fresh)`` of the instance."""
    upgrade_sources = [
        source
        for source in instance.constant_classes
        if any(source < t for t in instance.nonempty_types)
    ]

    def iter_upgrades(index: int) -> Iterator[Upgrades]:
        if index == len(upgrade_sources):
            yield {}
            return
        source = upgrade_sources[index]
        capacity = instance.constant_classes[source]
        targets = [t for t in instance.nonempty_types if source < t]
        for assignment in iter_class_assignments(capacity, targets):
            for tail in iter_upgrades(index + 1):
                result = dict(tail)
                if assignment:
                    result[source] = assignment
                yield result

    for upgrades in iter_upgrades(0):
        for fresh in iter_class_assignments(instance.free_pool, instance.nonempty_types):
            yield upgrades, fresh


def shape_weight(instance: _Instance, upgrades: Upgrades, fresh: Fresh) -> int:
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


def present_types(
    instance: _Instance, upgrades: Upgrades, fresh: Fresh
) -> set[frozenset[str]]:
    """Final types carried by at least one *in-domain* value.

    Out-of-domain constants are excluded: their (fixed) types count for
    query satisfaction but cannot absorb nulls.
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


def query_holds(
    instance: _Instance, components: list[frozenset[str]], present: set[frozenset[str]]
) -> bool:
    """Every query component lies inside some present or fixed type."""
    satisfaction_types = present | instance.fixed_types
    return all(
        any(component <= final for final in satisfaction_types) for component in components
    )


def covers_fit(
    demands: Sequence[tuple[int, Sequence[_Cover]]],
    budgets: dict[frozenset[str], int],
) -> bool:
    """The budgeted-cover search over frozenset-keyed block budgets: each
    of a class's ``count`` values goes to one of its covers and takes one
    null from every block in it.  ``budgets`` is unchanged on return."""
    ordered = sorted(demands, key=lambda demand: len(demand[1]))

    def place(index: int, start: int, left: int) -> bool:
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


def shape_feasible(
    instance: _Instance, upgrades: Upgrades, fresh: Fresh, present: set[frozenset[str]]
) -> bool:
    """Lemma B.19 realizability of one shape: every block lands inside a
    present (in-domain) type, and the deficit classes, merged by covers,
    fit their covers within the blocks' null budgets."""
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
    return covers_fit([(count, covers) for covers, count in demands.items()], instance.blocks)


def count_completions(db: IncompleteDatabase, query: BCQ | None = None) -> int:
    """``#Compu(q)(D)`` by listing every composition shape."""
    ok, reason = applies(db, query)
    if not ok:
        raise ValueError("Theorem 4.6 does not apply: %s" % reason)
    relations = sorted(query.relations) if query is not None else []
    if any(not db.relation(r) for r in relations):
        return 0
    instance = _Instance(db, relations)
    components = _query_components(query) if query is not None else []
    total = 0
    for upgrades, fresh in iter_shapes(instance):
        weight = shape_weight(instance, upgrades, fresh)
        if weight == 0:
            continue
        present = present_types(instance, upgrades, fresh)
        if not query_holds(instance, components, present):
            continue
        if shape_feasible(instance, upgrades, fresh, present):
            total += weight
    return total
