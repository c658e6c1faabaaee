"""Recording a model-counting search as a d-DNNF circuit.

:class:`TraceBuilder` is the bridge between the exact counter
(:mod:`repro.compile.sharpsat`) and the circuit representation
(:mod:`repro.compile.circuit`): the counter calls one builder method per
search event —

* a **decision** (with its unit propagations and freed variables per
  surviving branch) becomes a deterministic sum node;
* a **component split** becomes a decomposable product node;
* a **component cache hit** reuses the node recorded at the cache *miss*,
  which is what folds the search tree into a DAG;
* the projected-mode **satisfiability leaf** becomes a constant.

The builder peepholes the obvious identities as it goes (true children
drop out of products, zero-valued branches drop out of sums, single-child
wrappers collapse), which never changes any pass's arithmetic result —
dropped terms are exact zeros or ones — but keeps circuits at the size of
the *useful* trace.  Nodes are emitted children-first **directly into the
flat int program** the circuit passes execute (see
:mod:`repro.compile.circuit`): the search's trail events stream into the
array as they happen, and :meth:`build` hands the finished program to
:class:`DDNNF`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.compile.circuit import (
    DDNNF,
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
)


class TraceBuilder:
    """Accumulates trace events into the flat node program, children first.

    Node ids ``0`` and ``1`` are the shared false/true constants; every
    other id is returned by :meth:`decision` or :meth:`product`.  Call
    :meth:`build` once the search finished to freeze the circuit.
    """

    def __init__(self) -> None:
        self._code: list[int] = [KIND_FALSE, KIND_TRUE]
        self._offsets: list[int] = [0, 1]

    #: Node id of the constant false circuit.
    @property
    def false(self) -> int:
        return 0

    #: Node id of the constant true circuit.
    @property
    def true(self) -> int:
        return 1

    def constant(self, value: bool) -> int:
        """The constant node for a satisfiability-leaf verdict."""
        return 1 if value else 0

    def decision(
        self,
        branches: Iterable[tuple[Sequence[int], Sequence[int], int]],
    ) -> int:
        """A deterministic sum over ``(literals, freed variables, child)``.

        Branches whose child is the false constant contribute an exact
        zero and are dropped; a branch-free node collapses to false, and
        a single branch that forces nothing passes its child through.
        """
        kept = [
            (literals, free, child)
            for literals, free, child in branches
            if child != 0
        ]
        if not kept:
            return 0
        if len(kept) == 1 and not kept[0][0] and not kept[0][1]:
            return kept[0][2]
        code = self._code
        self._offsets.append(len(code))
        code.append(KIND_DECISION)
        code.append(len(kept))
        for literals, free, child in kept:
            code.append(len(literals))
            code.extend(literals)
            code.append(len(free))
            code.extend(free)
            code.append(child)
        return len(self._offsets) - 1

    def product(self, children: Iterable[int]) -> int:
        """A decomposable product of component sub-circuits.

        True children are identity factors and are dropped; any false
        child zeroes the product; an empty product is true.
        """
        kept = []
        for child in children:
            if child == 0:
                return 0
            if child != 1:
                kept.append(child)
        if not kept:
            return 1
        if len(kept) == 1:
            return kept[0]
        code = self._code
        self._offsets.append(len(code))
        code.append(KIND_PRODUCT)
        code.append(len(kept))
        code.extend(kept)
        return len(self._offsets) - 1

    def __len__(self) -> int:
        return len(self._offsets)

    def build(
        self,
        root: int,
        num_variables: int,
        countable: Iterable[int] | None = None,
    ) -> DDNNF:
        """Freeze the recorded trace into a :class:`DDNNF`.

        ``countable`` is the projection set of a projected search; ``None``
        means the circuit counts over all ``1..num_variables``.
        """
        if countable is None:
            countable = range(1, num_variables + 1)
        return DDNNF(
            self._code,
            self._offsets,
            root=root,
            num_variables=num_variables,
            countable=countable,
        )
