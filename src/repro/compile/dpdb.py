"""Width-bounded model counting by DP over a tree decomposition.

The ``method='dpdb'`` backend: instead of *searching* for models the way
the trail core does, run a **join/project/sum dynamic program** over a
rooted tree decomposition of the formula's primal graph — the dp_on_dbs
idea (Fichte, Hecher, Thier, Woltran) with vectorized in-memory tables in
place of SQL relations.  Cost is ``O(nodes * 2^(width+1))`` table cells:
linear in formula size once the width is bounded, and entirely immune to
bad branching orders — the exact opposite cost profile of DPLL-style
search, which is why the planner keeps both.

**The tree.**  A greedy elimination of the primal graph
(:func:`~repro.compile.ordering.refined_elimination_masks`) already *is*
a tree decomposition.  Each elimination position is a node; its bag is
the eliminated vertex plus its neighbours still alive at that point, and
the bag minus the vertex is the node's *separator*, the interface its
message crosses.  A node's parent is the node of its first-eliminated
separator vertex: the separator is a clique when that vertex goes, so it
lies inside the parent's bag.  Parents always come later in the order,
so ascending position is a leaves-first schedule (no recursion), and a
node with an empty separator is a root, one per connected component.
Each clause is checked at the node of its first-eliminated variable,
whose bag holds every variable of the clause (a clause is a clique of
the primal graph), and a variable in no clause enters no bag.  The DP
reads this tree off the elimination it is handed (the planner's width
probe's, so probing and solving share one elimination) or runs the
elimination itself; the tree's width is the elimination width.

**The DP.**  Processing nodes in ascending order, each holds a
``(2,)*|bag|`` table, one axis per bag variable from the highest down
(so its C-order cells are the flat ``2^|bag|`` index, lowest variable at
bit 0):

* *join* — multiply in each child's message, reshaped to broadcast over
  the child's separator;
* *introduce* — the table starts as ones over the whole bag, and each
  clause homed at this node zeroes its one falsifying corner;
* *project* (forget) — sum out the node's eliminated axis and pass the
  result up as this node's message.

Every root's message is a scalar; the model count is the product of the
root scalars times 2 per variable in no clause.

**Projected counting.**  For ``#Comp``-style questions the elimination
takes every auxiliary variable before any projected one, so the forest
splits into two zones: pure-auxiliary subtrees below a pure-projected
zone.  Auxiliary-zone messages are plain extension counts; the moment a
message crosses into the projected zone (or leaves a pure-auxiliary
component at its root) it is clamped to an existence indicator
``[count > 0]``.  That is sound because extension counts are nonnegative
and multiply across disjoint subtrees: ``[a*b > 0] = [a > 0] * [b > 0]``.
Above the boundary the DP sums projected variables normally, so the root
scalars count *distinct projected assignments* — the projected model
count, bit-identical to the trail core's.  The clamp rests on that
order, so a projected count handed any other order is refused.  The
constrained order can be wider than the free one; that honest, larger
width is what the planner's probe quotes for ``#Comp``.

**Table lanes.**  The DP makes one pass, and each node picks its own
lane before it builds its table: numpy int64 arrays when
``2 × ∏ max(peak, 1)`` over its children stays below ``2^62``, exact
Python-int object arrays otherwise.  A child's *peak* is the largest
cell of its finished message, and the product bounds every cell the node
computes, so an int64 table cannot overflow; a message that crosses
lanes is cast at the join.  A leaf's bound is 2, so counts stay in int64
at the leaves and go exact only in the upper nodes that need it
(``stats["path"]`` reports ``int64`` or ``mixed``, and ``empty-clause``
when an empty clause answers 0 without tables) — the dp_on_dbs way of
keeping counts in exact columns, with no guard pass.

The planner talks to this module through :func:`dpdb_probe` — a memoized
width probe that compiles the encoding once, reads the two-phase greedy
elimination width off the (cached) primal masks, and hands the order and
bags to the runner — and falls back to the trail core when the width
exceeds :data:`DPDB_HARD_WIDTH_CAP` or the probe blows its budget.  The
trail core, there or when ``auto`` passes ``dpdb`` over, takes the
memoized probe's encoding (:func:`memoized_probe`), so a question is
encoded once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as _np

from repro.compile.circuit import _INT64_SAFE
from repro.compile.encode import (
    compile_completion_cnf,
    compile_valuation_cnf,
)
from repro.compile.lineage import lineage_supports
from repro.compile.ordering import primal_masks, refined_elimination_masks
from repro.complexity.cnf import CNF
from repro.core.query import BooleanQuery, require_query
from repro.db.incomplete import IncompleteDatabase
from repro.obs import event as _obs_event, incr as _incr, span as _span

#: Planner preference threshold: at or below this width the DP is treated
#: as the cheap method for a hard cell (tables of at most
#: ``2^(limit+1)`` cells per node).
DPDB_WIDTH_LIMIT = 12

#: Hard safety cap for *forced* ``method='dpdb'``: above this width a
#: single table would exceed half a million cells, so the runner
#: delegates to the trail core instead of honoring the request literally.
DPDB_HARD_WIDTH_CAP = 18

#: Probe budget: instances whose encoding would exceed these sizes are
#: not probed at all (the probe reports itself over budget and the
#: planner prefers the trail core).
DPDB_PROBE_VARIABLE_LIMIT = 4_000
DPDB_PROBE_CLAUSE_LIMIT = 50_000


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def count_models_dpdb(
    cnf: CNF,
    projection: Iterable[int] | None = None,
    order: list[int] | None = None,
    bags: list[int] | None = None,
    stats: dict[str, Any] | None = None,
) -> int:
    """Model count of ``cnf`` by tree-decomposition DP.

    Semantics match :func:`repro.compile.sharpsat.count_models` exactly:
    counts over all ``cnf.num_variables`` variables (a variable in no
    clause contributes a factor 2), and ``projection`` switches to the
    distinct-restrictions projected count where only free *projected*
    variables contribute factors.  ``order`` and ``bags`` are an
    elimination of ``cnf``'s primal graph as
    :func:`~repro.compile.ordering.refined_elimination_masks` returns it
    (the width probe's); pass both or neither.  With neither, the DP runs
    that elimination itself, projected variables last.  ``stats``, when
    given a dict, is filled with the tree and table numbers the obs spans
    record.
    """
    delay = 0
    if projection is not None:
        for variable in projection:
            if variable < 1 or variable > cnf.num_variables:
                raise ValueError(
                    "projection variables must be in 1..num_variables"
                )
            delay |= 1 << variable

    masks = primal_masks(cnf)
    if order is None or bags is None:
        if order is not None or bags is not None:
            raise ValueError("pass an elimination's order and bags together")
        order, _width, bags = refined_elimination_masks(masks, delay=delay)

    parent, homes = _tree(cnf, order, bags)
    clamps = (
        [False] * len(order)
        if projection is None
        else _clamps(order, parent, delay)
    )
    free = [
        variable
        for variable in range(1, cnf.num_variables + 1)
        if variable not in masks
    ]
    max_bag = max((bag.bit_count() for bag in bags), default=0)
    shape = {
        "nodes": len(order),
        "width": max(max_bag - 1, 0),
        "max_bag": max_bag,
        "roots": parent.count(-1),
        "clauses": sum(map(len, homes)),
        "free_variables": len(free),
    }

    if any(not clause for clause in cnf.clauses):
        if stats is not None:
            stats.update(shape, path="empty-clause", rows=0)
        return 0

    _incr("dpdb.runs")
    with _span(
        "dpdb.tables",
        nodes=shape["nodes"],
        width=shape["width"],
        max_bag=max_bag,
        projected=projection is not None,
    ) as live:
        path, factors, rows = _solve(order, bags, parent, homes, clamps)
        live.fields["rows"] = rows

    result = 1
    for factor in factors:
        result *= factor
    if projection is not None:
        free = [variable for variable in free if (delay >> variable) & 1]
    if stats is not None:
        stats.update(shape, path=path, rows=rows)
    return result << len(free)


def _tree(
    cnf: CNF, order: list[int], bags: list[int]
) -> tuple[list[int], list[list[tuple[int, ...]]]]:
    """Each node's parent (``-1`` at a root) and the clauses homed at it.

    A parent is the first-eliminated vertex of the node's separator; a
    clause's home is its first-eliminated variable.  The empty clause has
    no home: the caller answers it without a DP.
    """
    position = [0] * (cnf.num_variables + 1)
    for node, variable in enumerate(order):
        position[variable] = node
    parent: list[int] = []
    for node, variable in enumerate(order):
        separator = bags[node] ^ (1 << variable)
        parent.append(
            min(position[v] for v in _bits(separator)) if separator else -1
        )
    homes: list[list[tuple[int, ...]]] = [[] for _ in order]
    for clause in cnf.clauses:
        if clause:
            homes[min(position[abs(literal)] for literal in clause)].append(
                clause
            )
    return parent, homes


def _clamps(order: list[int], parent: list[int], delay: int) -> list[bool]:
    """Which nodes' messages cross the auxiliary/projected boundary.

    In a projected count an auxiliary node's message is an extension
    count; it becomes an existence indicator the moment it leaves the
    auxiliary zone — into a projected-variable parent, or out of the top
    of a pure-auxiliary component.  ``delay`` is the projection's bitset;
    an order that takes a projected variable before an auxiliary one has
    no such boundary and raises ``ValueError``.
    """
    projected = [(delay >> variable) & 1 for variable in order]
    if projected != sorted(projected):
        raise ValueError(
            "a projected count needs an elimination that takes every "
            "auxiliary variable before any projected one"
        )
    return [
        not projected[node] and (up < 0 or bool(projected[up]))
        for node, up in enumerate(parent)
    ]


def _solve(
    order: list[int],
    bags: list[int],
    parent: list[int],
    homes: list[list[tuple[int, ...]]],
    clamps: list[bool],
) -> tuple[str, list[int], int]:
    """The one DP pass; returns ``(path, root_factors, cells_processed)``.

    Each node takes the int64 lane when 2 times the product of its
    children's ``max(peak, 1)`` stays below ``_INT64_SAFE``: every cell
    after each join, clause and the forget is bounded by that product.
    The clamp to 1 matters: without it an unsatisfiable child (peak 0)
    would let a huge sibling's message into int64 beside it.
    """
    np = _np
    #: node -> the ``(separator, message, peak)`` of each finished child.
    inbox: dict[int, list[tuple[int, Any, int]]] = {}
    factors: list[int] = []
    rows = 0
    exact_nodes = 0

    for node, eliminated in enumerate(order):
        children = inbox.pop(node, [])
        bound = 2
        for _separator, _message, peak in children:
            bound *= max(peak, 1)
        dtype: Any = np.int64 if bound < _INT64_SAFE else object
        if dtype is object:
            exact_nodes += 1

        axes = list(_bits(bags[node]))[::-1]
        axis = {variable: position for position, variable in enumerate(axes)}
        size = 1 << len(axes)
        table = np.ones((2,) * len(axes), dtype=dtype)

        for separator, message, _peak in children:
            if message.dtype != dtype:
                message = message.astype(dtype)
            table *= message.reshape(
                [2 if (separator >> variable) & 1 else 1 for variable in axes]
            )
            rows += size

        for clause in homes[node]:
            # A CNF clause never holds a variable twice, so the cells it
            # falsifies are one corner: each literal false, the rest free.
            corner: list[Any] = [slice(None)] * len(axes)
            for literal in clause:
                if literal > 0:
                    corner[axis[literal]] = 0
                else:
                    corner[axis[-literal]] = 1
            table[tuple(corner)] = 0
            rows += size

        message = table.sum(axis=axis[eliminated])
        up = parent[node]
        if up < 0:
            # A root's bag is its eliminated variable alone: a scalar.
            factor = int(message)
            factors.append(int(factor > 0) if clamps[node] else factor)
        else:
            if clamps[node]:
                message = _indicator(message, dtype)
            inbox.setdefault(up, []).append(
                (bags[node] ^ (1 << eliminated), message, int(message.max()))
            )

    return ("mixed" if exact_nodes else "int64"), factors, rows


def _indicator(message: Any, dtype: Any) -> Any:
    """``[x > 0]`` per cell, staying in the table dtype (Python ints for
    object tables, so no int64 can sneak into an exact pass)."""
    np = _np
    if dtype is object:
        clamped = np.zeros(message.shape, dtype=object)
        clamped[message > 0] = 1
        return clamped
    return (message > 0).astype(dtype)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# the width probe (what the planner consults)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpdbProbe:
    """One memoized width probe: verdict, width, and what the runners can
    reuse: the encoding (kept by an over-budget probe too) and the
    elimination (``order``/``bags`` are probe-owned; treat as
    read-only)."""

    ok: bool
    reason: str
    width: int | None
    variables: int
    clauses: int
    encoding: Any = None
    order: Any = None
    bags: Any = None

    def detail(self) -> dict[str, Any]:
        """The gate detail surfaced in ``Plan`` rows and ``plan --json``."""
        payload: dict[str, Any] = {
            "width_limit": DPDB_WIDTH_LIMIT,
            "variables": self.variables,
            "clauses": self.clauses,
        }
        if self.width is not None:
            payload["width"] = self.width
        return payload


#: ``(kind, D, q) -> DpdbProbe``, least recently used first, 128 at most.
_PROBES: "OrderedDict[tuple[Any, ...], DpdbProbe]" = OrderedDict()


def dpdb_probe(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> DpdbProbe:
    """Cheap memoized width probe for ``(kind, D, q)``.

    Compiles the matching encoding once, reads the two-phase greedy
    elimination width off the cached primal masks, and reports budget
    overruns instead of paying for huge instances.  The runners reuse the
    probe's encoding, and the DP its elimination (:func:`memoized_probe`),
    so planning never duplicates work the solve would redo.
    """
    key = (kind, db, query)
    _PROBES[key] = probe = _PROBES.pop(key, None) or _probe(kind, db, query)
    if len(_PROBES) > 128:
        _PROBES.popitem(last=False)
    return probe


def memoized_probe(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> DpdbProbe | None:
    """The memo's probe for ``(kind, D, q)`` if it holds an encoding, else
    ``None``; never probes (a lineage runner must not pay for one).  An
    over-budget probe holds the encoding it measured."""
    probe = _PROBES.get((kind, db, query))
    return probe if probe is not None and probe.encoding is not None else None


def _probe(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None
) -> DpdbProbe:
    if kind not in ("val", "comp"):
        raise ValueError("dpdb probes cover 'val' and 'comp'; got %r" % (kind,))
    require_query(kind, query)
    if not lineage_supports(query):
        return DpdbProbe(
            ok=False,
            reason="lineage compilation handles (U)CQs only",
            width=None,
            variables=0,
            clauses=0,
        )
    budget = _budget_reason(db)
    if budget is not None:
        return DpdbProbe(
            ok=False, reason=budget, width=None, variables=0, clauses=0
        )
    if kind == "val" and query is not None:  # a None was refused above
        valuation = compile_valuation_cnf(db, query)
        return _probe_cnf(valuation, valuation.cnf, delay=0)
    completion = compile_completion_cnf(db, query)
    delay = 0
    for variable in completion.projection:
        delay |= 1 << variable
    return _probe_cnf(completion, completion.cnf, delay)


def _budget_reason(db: IncompleteDatabase) -> str | None:
    choice_variables = sum(len(db.domain_of(null)) for null in db.nulls)
    if choice_variables > DPDB_PROBE_VARIABLE_LIMIT:
        return (
            "width probe over budget (%d choice variables > %d)"
            % (choice_variables, DPDB_PROBE_VARIABLE_LIMIT)
        )
    return None


def _probe_cnf(encoding: Any, cnf: CNF, delay: int) -> DpdbProbe:
    over: str | None = None
    if cnf.num_variables > DPDB_PROBE_VARIABLE_LIMIT:
        over = "%d encoding variables > %d" % (
            cnf.num_variables, DPDB_PROBE_VARIABLE_LIMIT
        )
    elif len(cnf) > DPDB_PROBE_CLAUSE_LIMIT:
        over = "%d clauses > %d" % (len(cnf), DPDB_PROBE_CLAUSE_LIMIT)
    if over is not None:
        # The encoding stays on the probe: the trail core that answers
        # instead takes it (see :func:`memoized_probe`).
        return DpdbProbe(
            ok=False,
            reason="width probe over budget (%s)" % over,
            width=None,
            variables=cnf.num_variables,
            clauses=len(cnf),
            encoding=encoding,
        )
    masks = primal_masks(cnf)
    with _span(
        "dpdb.probe", variables=cnf.num_variables, clauses=len(cnf)
    ):
        order, width, bags = refined_elimination_masks(
            masks, delay=delay
        )
    return DpdbProbe(
        ok=True,
        reason="elimination width %d" % width,
        width=width,
        variables=cnf.num_variables,
        clauses=len(cnf),
        encoding=encoding,
        order=order,
        bags=bags,
    )


def probe_cache_clear() -> None:
    """Drop the memoized probes (tests and long-running services)."""
    _PROBES.clear()


# ---------------------------------------------------------------------------
# the counting front doors the planner registers
# ---------------------------------------------------------------------------


def count_valuations_dpdb(db: IncompleteDatabase, query: BooleanQuery) -> int:
    """``#Val(q)(D)`` by tree-decomposition DP over the complement
    encoding, bit-identical to ``method='lineage'``; delegates to the
    trail core when the width makes tables unaffordable."""
    probe = dpdb_probe("val", db, query)
    if not probe.ok or probe.width is None or probe.width > DPDB_HARD_WIDTH_CAP:
        from repro.compile.backend import count_valuations_lineage

        _note_fallback("val", probe)
        return count_valuations_lineage(db, query)
    encoding = probe.encoding
    if encoding.total_valuations == 0:
        return 0
    falsifying = count_models_dpdb(
        encoding.cnf, order=probe.order, bags=probe.bags
    )
    return int(encoding.count_from_models(falsifying))


def count_completions_dpdb(
    db: IncompleteDatabase, query: BooleanQuery | None = None
) -> int:
    """``#Comp(q)(D)`` by *projected* tree-decomposition DP over the
    canonical-fact encoding, bit-identical to ``method='lineage'``;
    delegates to the trail core when the (projection-constrained) width
    makes tables unaffordable."""
    probe = dpdb_probe("comp", db, query)
    if not probe.ok or probe.width is None or probe.width > DPDB_HARD_WIDTH_CAP:
        from repro.compile.backend import count_completions_lineage

        _note_fallback("comp", probe)
        return count_completions_lineage(db, query)
    encoding = probe.encoding
    return count_models_dpdb(
        encoding.cnf, encoding.projection, probe.order, probe.bags
    )


def _note_fallback(kind: str, probe: DpdbProbe) -> None:
    """Record a delegation to the trail core as one ``dpdb.fallback``
    event (which also counts it); the trail core reuses the probe's
    encoding (see :func:`memoized_probe`)."""
    _obs_event(
        "dpdb.fallback",
        problem=kind,
        width=probe.width,
        cap=DPDB_HARD_WIDTH_CAP,
        reason=(
            probe.reason
            if not probe.ok
            else "width %d exceeds hard cap %d"
            % (probe.width, DPDB_HARD_WIDTH_CAP)
        ),
    )


__all__ = [
    "DPDB_HARD_WIDTH_CAP",
    "DPDB_PROBE_CLAUSE_LIMIT",
    "DPDB_PROBE_VARIABLE_LIMIT",
    "DPDB_WIDTH_LIMIT",
    "DpdbProbe",
    "count_completions_dpdb",
    "count_models_dpdb",
    "count_valuations_dpdb",
    "dpdb_probe",
    "memoized_probe",
    "probe_cache_clear",
]
