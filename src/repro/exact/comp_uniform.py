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
instance, and a budgeted-cover search hands every deficit class's values
to its covers, spending block budgets, and backs out when a budget runs
dry.  Finally ``q`` (a conjunction of basic singletons over unary
relations) holds iff every component has some value whose final type
contains it.

The shapes are not listed one by one.  Each *value group* — the fresh
pool, or the in-domain constants of one initial type — has an option
table that lists its assignments once, each as a triple: its multinomial
weight, the bitmask of the types it leaves present, and its demand vector,
which counts its values per distinct tuple of minimal covers (values with
the same covers merge: a placement of the merged class splits back into
placements of its parts).  A shape takes one option per group, and nothing
above reads more of it than the product of the weights, the union of the
masks and the sum of the demand vectors.  So the tables fold into one
dict keyed by (present mask, demand vector) that sums the weights, and
each distinct state is judged once: the query and block-landing checks
per mask, the cover search per demand vector.  Two cuts keep this exact:

* an option that sends values to a type that no cover reaches from the
  group's type is dropped when its table is built: such a value can never
  receive its deficit, so every shape with it is unrealizable;
* the search is skipped when no block can bind, that is, when every block
  has at least as many nulls as there are values whose class has a cover
  using it: then every value can take its class's first cover.

Otherwise the classes with one cover take it, and the search places the
rest in what their blocks have left.

Exponential in the (fixed) schema, polynomial in ``d`` and the table size.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Sequence

from repro.core.classify import tractable
from repro.core.problems import COMP_UNIFORM
from repro.core.query import BCQ, BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Term, is_null
from repro.util.combinatorics import binomial, compositions, multinomial

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
    demands: Sequence[tuple[int, Sequence[tuple[int, ...]]]],
    budgets: list[int],
) -> bool:
    """Can every class's values be handed to its covers within the budgets?

    ``demands`` lists ``(count, covers)``: each of a class's ``count``
    values goes to one of its covers, a tuple of block slots, and takes one
    null from every block in it; block ``b`` has ``budgets[b]`` nulls to
    give.  A depth-first search gives each cover as many of the class's
    remaining values as its blocks allow, then fewer, and the last cover
    the rest.  Classes with fewer covers go first, so a class with none
    fails at once.  ``budgets`` is spent on the way down and restored on
    the way back, so it is unchanged on return.
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


class _States:
    """An instance's composition shapes folded into states, and the verdict
    on each state.

    A type is a bit of a present mask, a block a slot of ``budgets``, and a
    class (a distinct tuple of minimal covers, as ``_Instance.covers``
    gives them) a slot of a demand vector.  ``groups`` lists each value
    group's ``(source type, size, targets)``: the fresh pool has the empty
    source, and a target is a type above the source that some cover
    reaches.  ``tables[i]`` holds group ``i``'s options, one per way to
    send its values into its targets, in ``compositions`` order:
    ``(weight, present mask, demand vector)``.
    """

    def __init__(self, instance: _Instance, components: list[frozenset[str]]):
        types = instance.nonempty_types
        covers = instance.covers
        self.bits = {final: 1 << index for index, final in enumerate(types)}

        def meeting(part: frozenset[str]) -> int:
            return sum(self.bits[final] for final in types if part <= final)

        # A present mask must meet each of these: a type holding each
        # block, and one holding each component no fixed type satisfies.
        self.needs = [meeting(block) for block in instance.blocks] + [
            meeting(component)
            for component in components
            if not any(component <= fixed for fixed in instance.fixed_types)
        ]
        self.groups = [
            (source, size, [t for t in types if source < t and covers[source, t]])
            for source, size in [
                (frozenset(), instance.free_pool),
                *instance.constant_classes.items(),
            ]
        ]
        self.classes: dict[tuple[_Cover, ...], int] = {}
        for source, _, targets in self.groups:
            for target in targets:
                self.classes.setdefault(covers[source, target], len(self.classes))
        slot = {block: index for index, block in enumerate(instance.blocks)}
        self.budgets = list(instance.blocks.values())
        #: Each class's covers as tuples of block slots.
        self.covers = [
            [tuple(slot[block] for block in cover) for cover in class_covers]
            for class_covers in self.classes
        ]
        #: Per block: the classes with a cover using it, and its budget.
        self.users = [
            ([k for k, ways in enumerate(self.covers) if any(b in way for way in ways)], budget)
            for b, budget in enumerate(self.budgets)
        ]
        self.tables = [
            self._table(
                size,
                self.bits[source] if source else 0,
                [(self.bits[t], self.classes[covers[source, t]]) for t in targets],
            )
            for source, size, targets in self.groups
        ]
        self._mask_verdicts: dict[int, bool] = {}
        self._demand_verdicts: dict[tuple[int, ...], bool] = {}

    def _table(
        self, size: int, stay: int, moves: list[tuple[int, int]]
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        """The options of ``size`` values sent by ``moves`` (a target's bit
        and class slot each), one per composition of ``size`` whose last
        part is the values not sent, which keep the ``stay`` bit."""
        options = []
        for counts in compositions(size, len(moves) + 1):
            mask = stay if counts[-1] else 0
            demand = [0] * len(self.classes)
            for (bit, slot), count in zip(moves, counts):
                if count:
                    mask |= bit
                    demand[slot] += count
            options.append((multinomial(counts), mask, tuple(demand)))
        return options

    def fold(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """The summed weights of the shapes, keyed by (present mask,
        demand vector): one option from every table."""
        states = {(0, (0,) * len(self.classes)): 1}
        for table in self.tables:
            folded: dict[tuple[int, tuple[int, ...]], int] = {}
            for (mask, demand), weight in states.items():
                for option_weight, option_mask, option_demand in table:
                    key = (mask | option_mask, tuple(map(add, demand, option_demand)))
                    folded[key] = folded.get(key, 0) + weight * option_weight
            states = folded
        return states

    def feasible(self, mask: int, demand: tuple[int, ...]) -> bool:
        """Whether the shapes of a state count: ``q`` holds and every block
        lands (judged once per mask), and Lemma B.19's demands fit (judged
        once per demand vector)."""
        verdict = self._mask_verdicts.get(mask)
        if verdict is None:
            verdict = all(mask & need for need in self.needs)
            self._mask_verdicts[mask] = verdict
        if verdict:
            verdict = self._demand_verdicts.get(demand)
            if verdict is None:
                verdict = self._demand_verdicts[demand] = self._fits(demand)
        return verdict

    def _fits(self, demand: tuple[int, ...]) -> bool:
        """Lemma B.19 for one demand vector.  Unless no block can bind, the
        single-cover classes take their cover and :func:`_covers_fit`
        places the rest."""
        for users, budget in self.users:
            if sum(map(demand.__getitem__, users)) > budget:
                break
        else:
            return True
        budgets = list(self.budgets)
        rest = []
        for count, class_covers in zip(demand, self.covers):
            if count and len(class_covers) == 1:
                for block in class_covers[0]:
                    budgets[block] -= count
            elif count:
                rest.append((count, class_covers))
        if any(budget < 0 for budget in budgets):
            return False
        return not rest or _covers_fit(rest, budgets)


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
    components = _query_components(query) if query is not None else []
    states = _States(_Instance(db, relations), components)
    return sum(
        weight
        for (mask, demand), weight in states.fold().items()
        if states.feasible(mask, demand)
    )


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
