"""Circuit-store access: get, derive by conditioning, or compile.

Every circuit-backed registry method (``circuit`` for all five planner
problems, ``delta`` for ``val``/``comp``) fetches its compiled circuit
through :func:`instance_circuit`.  With a circuit store (the engine's
:class:`~repro.engine.cache.CountCache`) the fetch is, in order:

1. a store hit on the instance fingerprint;
2. a derivation from the nearest cached ancestor whose delta suffix
   conditions (:func:`conditioning_ancestors`).  An instance built via
   ``db.apply(delta)`` carries provenance; a resolve or restrict delta
   only narrows the valuations, so the ancestor's ``#Val`` circuit is
   *conditioned* — pins on the ancestor's shared program, no node
   rewritten, no recompilation, every answer bit-identical to a fresh
   compile.  An insert or delete changes the clause set, and a projected
   ``#Comp`` circuit sums choice variables out, so neither conditions;
3. a fresh compile, installed into the store.

A derived circuit is an ordinary store entry: it holds its own
reference to the program and level plan it shares with the ancestor, so
``--cache-mb`` eviction drops each circuit on its own, and each entry is
charged the whole shared program (a conservative bound).  Without a
store every fetch compiles a throwaway circuit.  Answers are
bit-identical either way.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Any

from repro.compile.backend import ARTIFACTS
from repro.core.query import BooleanQuery
from repro.db.deltas import delta_chain, resolution_only
from repro.db.incomplete import IncompleteDatabase
from repro.engine.fingerprint import fingerprint_instance
from repro.obs import event as _event, incr as _incr, span as _span


def instance_circuit(
    kind: str,
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    store: Any = None,
) -> Any:
    """The compiled ``kind`` (``'val'``/``'comp'``) circuit of ``(db, query)``.

    Fetched from ``store`` when it holds the instance, derived by
    conditioning a cached ancestor when one is there, compiled (and
    installed) otherwise.  ``store`` is anything with the
    :class:`~repro.engine.cache.CountCache` circuit calls; ``None``
    compiles a throwaway circuit.
    """
    fingerprint = (
        None if store is None else fingerprint_instance(db, query, kind)
    )
    if fingerprint is not None:
        circuit = store.get_circuit(fingerprint)
        if circuit is None:
            circuit = derive_instance_circuit(
                db, query, kind, store, fingerprint
            )
        if circuit is not None:
            return circuit
    compiled = ARTIFACTS[kind](db, query)
    if fingerprint is not None:
        store.put_circuit(fingerprint, compiled)
    return compiled


def conditioning_ancestors(
    db: IncompleteDatabase, kind: str
) -> list[tuple[IncompleteDatabase, list]]:
    """The ancestors of ``db`` whose delta suffix conditions, nearest first.

    ``(ancestor, deltas)`` pairs as :func:`~repro.db.deltas.delta_chain`
    lists them.  Each suffix is the previous one with one more delta in
    front, so the list stops before the first suffix that starts with an
    insert or delete.  Empty for a ``comp`` circuit and for an instance
    without provenance.
    """
    if kind != "val":
        return []
    return list(
        takewhile(lambda link: resolution_only(link[1][0]), delta_chain(db))
    )


def derive_instance_circuit(
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    kind: str,
    circuits: Any,
    fingerprint: str | None = None,
) -> Any | None:
    """Derive the circuit of ``db`` by conditioning a cached ancestor.

    Call on a circuit-store miss for ``db``.  Takes the nearest cached
    ancestor among :func:`conditioning_ancestors` and conditions its
    circuit along the chain's own nodes down to ``db``
    (:meth:`~repro.compile.backend.ValuationCircuit.condition_to`), so no
    database is rebuilt.  The result is installed into
    ``circuits`` under ``fingerprint`` and returned; ``None`` when no such
    ancestor is cached.
    """
    links = conditioning_ancestors(db, kind)
    ancestry = []
    for ancestor, _deltas in links:
        ancestor_fingerprint = fingerprint_instance(ancestor, query, kind)
        if ancestor_fingerprint is None:
            return None
        ancestry.append(ancestor_fingerprint)
    found = circuits.get_ancestor_circuit(ancestry)
    if found is None:
        return None
    ancestor_fingerprint, circuit = found
    # The chain's nodes below that ancestor, down to ``db``: conditioning
    # walks them as they stand instead of re-applying each delta.
    depth = ancestry.index(ancestor_fingerprint)
    nodes = [ancestor for ancestor, _deltas in links[:depth]][::-1] + [db]
    with _span("delta.derive", kind=kind, chain=len(nodes)):
        for node in nodes:
            circuit = circuit.condition_to(node)
    _incr("delta.derivations")
    _event(
        "delta.derived",
        kind=kind,
        chain=len(nodes),
        ancestor=ancestor_fingerprint[:12],
    )
    if fingerprint is None:
        fingerprint = fingerprint_instance(db, query, kind)
    if fingerprint is not None:
        circuits.put_circuit(fingerprint, circuit)
    return circuit


__all__ = [
    "conditioning_ancestors",
    "derive_instance_circuit",
    "instance_circuit",
]
