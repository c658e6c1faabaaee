"""Width-bounded model counting by DP over a tree decomposition.

The ``method='dpdb'`` backend: instead of *searching* for models the way
the trail core does, run a **join/project/sum dynamic program** over the
rooted tree decomposition of :mod:`repro.compile.decompose` — the
dp_on_dbs idea (Fichte, Hecher, Thier, Woltran) with vectorized in-memory
tables in place of SQL relations.  Cost is ``O(nodes * 2^(width+1))``
table cells: linear in formula size once the width is bounded, and
entirely immune to bad branching orders — the exact opposite cost profile
of DPLL-style search, which is why the planner keeps both.

**The DP.**  Processing elimination positions in ascending order (parents
always come later) each node holds a ``(2,)*|bag|`` table, one axis per
bag variable from the highest down (so its C-order cells are the flat
``2^|bag|`` index, lowest variable at bit 0):

* *join* — multiply in each child's message, reshaped to broadcast over
  the child's separator (a subset of this bag by construction);
* *introduce* — the table starts as ones over the whole bag, and each
  clause attached to this bag zeroes its one falsifying corner;
* *project* (forget) — sum out the node's eliminated axis, weighting
  the two polarities by the variable's ``(w⁺, w⁻)`` pair, and pass the
  result up as this node's message.

Every root's message is a scalar; the model count is the product of the
root scalars times a free factor ``w⁺+w⁻`` per variable in no clause —
the same per-variable weight-table convention as
:mod:`repro.compile.circuit` (``WeightMap``: variable → ``(w⁺, w⁻)``,
unweighted = ``(1, 1)``).

**Projected counting.**  For ``#Comp``-style questions the decomposition
eliminates every auxiliary variable before any projected one, so the
forest splits into a pure-auxiliary zone whose subtrees sit below a
pure-projected zone.  Auxiliary-zone messages are plain extension counts;
the moment a message crosses into the projected zone (or leaves a
pure-auxiliary component at its root) it is clamped to an existence
indicator ``[count > 0]``.  That is sound because extension counts are
nonnegative and multiply across disjoint subtrees:
``[a*b > 0] = [a > 0] * [b > 0]``.  Above the boundary the DP sums
projected variables normally, so the root scalars count *distinct
projected assignments* — the projected model count, bit-identical to the
trail core's.  (Projected counting is unweighted; mixing ``weights`` and
``projection`` is rejected.)

**Table lanes.**  The DP makes one pass, and each node picks its own
lane before it builds its table: numpy int64 arrays when
``max(|w⁺|+|w⁻|, 1) × ∏ max(peak, 1)`` over its children stays below
``2^62``, exact Python-int/Fraction object arrays otherwise.  A child's
*peak* is the exact ``max |cell|`` of its finished message, and the
product bounds every cell the node computes, so an int64 table cannot
overflow; a message that crosses lanes is cast at the join.  Large
counts thus stay in int64 at the leaves and go exact only in the upper
nodes that need it (``stats["path"]`` reports ``int64``, ``mixed`` or
``object``) — the dp_on_dbs way of keeping counts in exact columns, with
no guard pass.

The planner talks to this module through :func:`dpdb_probe` — a memoized
width probe that compiles the encoding once, reads the two-phase greedy
elimination width off the (cached) primal masks, and hands the order to
the runner so probing and solving share one elimination — and falls back
to the trail core when the width exceeds :data:`DPDB_HARD_WIDTH_CAP` or
the probe blows its budget.  The trail core, there or when ``auto``
passes ``dpdb`` over, takes the memoized probe's encoding
(:func:`memoized_probe`), so a question is encoded once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

import numpy as _np

from repro.compile.circuit import _INT64_SAFE
from repro.compile.decompose import (
    Decomposition,
    decompose,
    decompose_from_elimination,
)
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
    weights: Mapping[int, tuple] | None = None,
    decomposition: Decomposition | None = None,
    stats: dict[str, Any] | None = None,
) -> Any:
    """Model count of ``cnf`` by tree-decomposition DP.

    Semantics match :func:`repro.compile.sharpsat.count_models` exactly:
    counts over all ``cnf.num_variables`` variables (a variable in no
    clause contributes a free factor), and ``projection`` switches to the
    distinct-restrictions projected count where only free *projected*
    variables contribute factors.  ``weights`` maps ``variable ->
    (w_pos, w_neg)`` in the :mod:`repro.compile.circuit` convention and
    is exact for int/Fraction weights; it cannot be combined with
    ``projection``.  ``stats``, when given a dict, is filled with the
    width/table numbers the obs spans record.
    """
    if weights and projection is not None:
        raise ValueError("projected counting is unweighted; pass one of the two")

    projection_mask = 0
    projected = projection is not None
    if projected:
        assert projection is not None
        for variable in projection:
            if variable < 1 or variable > cnf.num_variables:
                raise ValueError(
                    "projection variables must be in 1..num_variables"
                )
            projection_mask |= 1 << variable

    if decomposition is None:
        decomposition = decompose(cnf, projection=projection)
    elif decomposition.projection_mask != projection_mask:
        raise ValueError(
            "decomposition was built for a different projection; "
            "rebuild it with decompose(cnf, projection=...)"
        )

    if any(not clause for clause in cnf.clauses):
        if stats is not None:
            stats.update(decomposition.stats(), path="empty-clause", rows=0)
        return 0

    positive, negative, all_int = _weight_columns(cnf.num_variables, weights)

    _incr("dpdb.runs")
    with _span(
        "dpdb.tables",
        nodes=len(decomposition),
        width=decomposition.width,
        max_bag=decomposition.max_bag,
        projected=projected,
    ) as live:
        path, factors, rows = _solve(
            decomposition, positive, negative, all_int, projected
        )
        live.fields["rows"] = rows

    result: Any = 1
    for factor in factors:
        result = result * factor
    if projected:
        result = result * (
            1 << (projection_mask & _free_mask(decomposition)).bit_count()
        )
    else:
        for variable in decomposition.free_variables:
            result = result * (positive[variable] + negative[variable])

    if stats is not None:
        stats.update(decomposition.stats())
        stats["path"] = path
        stats["rows"] = rows
    return result


def _free_mask(decomposition: Decomposition) -> int:
    mask = 0
    for variable in decomposition.free_variables:
        mask |= 1 << variable
    return mask


def _weight_columns(
    num_variables: int, weights: Mapping[int, tuple] | None
) -> tuple[list[Any], list[Any], bool]:
    """Per-variable ``(w⁺, w⁻)`` columns, defaulting to ``(1, 1)``."""
    positive: list[Any] = [1] * (num_variables + 1)
    negative: list[Any] = [1] * (num_variables + 1)
    all_int = True
    for variable, pair in (weights or {}).items():
        if variable < 1 or variable > num_variables:
            raise ValueError(
                "weight for variable %r outside 1..%d"
                % (variable, num_variables)
            )
        w_pos, w_neg = pair[0], pair[1]
        positive[variable] = w_pos
        negative[variable] = w_neg
        if all_int and not (
            isinstance(w_pos, int) and isinstance(w_neg, int)
        ):
            all_int = False
    return positive, negative, all_int


def _solve(
    decomposition: Decomposition,
    positive: list[Any],
    negative: list[Any],
    all_int: bool,
    projected: bool,
) -> tuple[str, list[Any], int]:
    """The one DP pass; returns ``(path, root_factors, cells_processed)``.

    Each node takes the int64 lane when ``max(|w⁺|+|w⁻|, 1)`` times the
    product of its children's ``max(peak, 1)`` stays below
    ``_INT64_SAFE``: every cell after each join, clause and the forget is
    bounded by that product.  The clamps matter — without them a zero
    weight or an all-zero child would let a huge sibling's product into
    int64 before the zero arrives.
    """
    np = _np
    messages: list[Any] = [None] * len(decomposition)
    peaks = [0] * len(decomposition)
    factors: list[Any] = []
    rows = 0
    exact_nodes = 0

    for node in range(len(decomposition)):
        eliminated = decomposition.order[node]
        w_pos, w_neg = positive[eliminated], negative[eliminated]
        bound = max(abs(w_pos) + abs(w_neg), 1)
        for child in decomposition.children[node]:
            bound *= max(peaks[child], 1)
        dtype: Any = np.int64 if all_int and bound < _INT64_SAFE else object
        if dtype is object:
            exact_nodes += 1

        axes = list(_bits(decomposition.bags[node]))[::-1]
        axis = {variable: position for position, variable in enumerate(axes)}
        size = 1 << len(axes)
        table = np.ones((2,) * len(axes), dtype=dtype)

        for child in decomposition.children[node]:
            message = messages[child]
            messages[child] = None
            if message.dtype != dtype:
                message = message.astype(dtype)
            separator = decomposition.separator(child)
            table *= message.reshape(
                [2 if (separator >> variable) & 1 else 1 for variable in axes]
            )
            rows += size

        for clause in decomposition.node_clauses[node]:
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

        at = axis[eliminated]
        if w_pos == 1 and w_neg == 1:
            message = table.sum(axis=at)
        else:
            message = w_neg * table.take(0, at) + w_pos * table.take(1, at)
        clamp = _clamp_message(decomposition, node, projected)
        if decomposition.parent[node] < 0:
            # A root's bag is its eliminated variable alone: a scalar.
            factor = message if dtype is object else int(message)
            factors.append(int(factor > 0) if clamp else factor)
        else:
            messages[node] = _indicator(message, dtype) if clamp else message
            peaks[node] = int(abs(messages[node]).max())

    if not exact_nodes:
        return "int64", factors, rows
    if exact_nodes == len(decomposition):
        return "object", factors, rows
    return "mixed", factors, rows


def _clamp_message(
    decomposition: Decomposition, node: int, projected: bool
) -> bool:
    """Does ``node``'s message cross the auxiliary/projected boundary?

    In projected mode an auxiliary node's message is an extension count;
    it becomes an existence indicator the moment it leaves the auxiliary
    zone — into a projected-variable parent, or out of the top of a
    pure-auxiliary component.
    """
    if not projected:
        return False
    if (decomposition.projection_mask >> decomposition.order[node]) & 1:
        return False
    parent = decomposition.parent[node]
    if parent < 0:
        return True
    return bool(
        (decomposition.projection_mask >> decomposition.order[parent]) & 1
    )


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
    """One memoized width probe: verdict, width, and the elimination the
    runner can reuse (``order``/``bags`` are probe-owned; treat as
    read-only)."""

    ok: bool
    reason: str
    width: int | None
    variables: int
    clauses: int
    encoding: Any = None
    order: Any = None
    bags: Any = None
    projection_mask: int = 0

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
    probe's encoding and elimination (:func:`memoized_probe`), so planning
    never duplicates work the solve would redo.
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
    ``None``; never probes (a lineage runner must not pay for one)."""
    probe = _PROBES.get((kind, db, query))
    return probe if probe is not None and probe.ok else None


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
        return _probe_cnf(valuation, valuation.cnf, projection_mask=0)
    completion = compile_completion_cnf(db, query)
    projection_mask = 0
    for variable in completion.projection:
        projection_mask |= 1 << variable
    return _probe_cnf(completion, completion.cnf, projection_mask)


def _budget_reason(db: IncompleteDatabase) -> str | None:
    choice_variables = sum(len(db.domain_of(null)) for null in db.nulls)
    if choice_variables > DPDB_PROBE_VARIABLE_LIMIT:
        return (
            "width probe over budget (%d choice variables > %d)"
            % (choice_variables, DPDB_PROBE_VARIABLE_LIMIT)
        )
    return None


def _probe_cnf(encoding: Any, cnf: CNF, projection_mask: int) -> DpdbProbe:
    if cnf.num_variables > DPDB_PROBE_VARIABLE_LIMIT:
        return DpdbProbe(
            ok=False,
            reason="width probe over budget (%d encoding variables > %d)"
            % (cnf.num_variables, DPDB_PROBE_VARIABLE_LIMIT),
            width=None,
            variables=cnf.num_variables,
            clauses=len(cnf),
        )
    if len(cnf) > DPDB_PROBE_CLAUSE_LIMIT:
        return DpdbProbe(
            ok=False,
            reason="width probe over budget (%d clauses > %d)"
            % (len(cnf), DPDB_PROBE_CLAUSE_LIMIT),
            width=None,
            variables=cnf.num_variables,
            clauses=len(cnf),
        )
    masks = primal_masks(cnf)
    with _span(
        "dpdb.probe", variables=cnf.num_variables, clauses=len(cnf)
    ):
        order, width, bags = refined_elimination_masks(
            masks, delay=projection_mask
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
        projection_mask=projection_mask,
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
    decomposition = decompose_from_elimination(
        encoding.cnf, probe.order, probe.width, probe.bags
    )
    falsifying = count_models_dpdb(encoding.cnf, decomposition=decomposition)
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
    decomposition = decompose_from_elimination(
        encoding.cnf,
        probe.order,
        probe.width,
        probe.bags,
        projection_mask=probe.projection_mask,
    )
    return int(
        count_models_dpdb(
            encoding.cnf,
            projection=encoding.projection,
            decomposition=decomposition,
        )
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
