"""Circuit-store access: get, derive from a delta ancestor, or compile.

Every circuit-backed registry method (``circuit`` for all five planner
problems, ``delta`` for ``val``/``comp``) fetches its compiled circuit
through :func:`instance_circuit`.  With a circuit store (the engine's
:class:`~repro.engine.cache.CountCache`) the fetch is, in order:

1. a store hit on the instance fingerprint;
2. a derivation from the nearest cached delta ancestor — an instance
   built via ``db.apply(delta)`` carries provenance, so on a miss this
   module walks the ancestor chain (:func:`repro.db.deltas.delta_chain`),
   asks the store for the nearest compiled ancestor
   (:meth:`~repro.engine.cache.CountCache.get_ancestor_circuit`), and
   derives the child circuit from it:

   * a **resolution-only** delta suffix (resolve-null, restrict-domain)
     is applied by *conditioning* — one linear program rewrite per
     delta, no recompilation (``#Val`` circuits only; projected ``#Comp``
     circuits sum choice variables out, so conditioning them is unsound
     by construction);
   * any suffix containing an **insert/delete** recompiles the child
     componentwise, splicing every clause component unchanged since the
     ancestor from the store's component store;
3. a fresh compile, installed into the store.

A derived circuit is installed with a parent link, so ``--cache-mb``
eviction drops children with their parents.  Without a store every fetch
compiles a throwaway circuit.  Answers are bit-identical either way.
"""

from __future__ import annotations

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

    Fetched from ``store`` when it holds the instance, derived from a
    cached delta ancestor when one is there, compiled (and installed)
    otherwise.  ``store`` is anything with the
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


def derive_instance_circuit(
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    kind: str,
    circuits: Any,
    fingerprint: str | None = None,
) -> Any | None:
    """Derive the circuit of a delta-derived instance from a cached ancestor.

    Call on a circuit-store miss for ``db``.  Walks the provenance chain,
    takes the nearest cached ancestor, and either conditions it (val,
    resolution-only suffix) or recompiles the child componentwise against
    the store's component store.  The result is installed into
    ``circuits`` under ``fingerprint`` with its parent link and returned;
    ``None`` when ``db`` has no provenance or no ancestor is cached.
    """
    chain = delta_chain(db)
    if not chain:
        return None
    ancestry = []
    deltas_of: dict[str, list] = {}
    for ancestor, deltas in chain:
        ancestor_fingerprint = fingerprint_instance(ancestor, query, kind)
        if ancestor_fingerprint is None:
            return None
        ancestry.append(ancestor_fingerprint)
        deltas_of[ancestor_fingerprint] = deltas
    found = circuits.get_ancestor_circuit(ancestry)
    if found is None:
        return None
    ancestor_fingerprint, circuit = found
    deltas = deltas_of[ancestor_fingerprint]
    mode = (
        "condition"
        if kind == "val" and all(map(resolution_only, deltas))
        else "splice"
    )
    with _span("delta.derive", kind=kind, mode=mode, chain=len(deltas)):
        if mode == "condition":
            for delta in deltas:
                circuit = circuit.condition(delta)
        else:
            circuit = ARTIFACTS[kind].compile_componentwise(
                db, query, components=circuits
            )
    _incr("delta.derivations")
    _event(
        "delta.derived",
        kind=kind,
        mode=mode,
        chain=len(deltas),
        ancestor=ancestor_fingerprint[:12],
    )
    if fingerprint is None:
        fingerprint = fingerprint_instance(db, query, kind)
    if fingerprint is not None:
        circuits.put_circuit(fingerprint, circuit, parent=ancestor_fingerprint)
    return circuit


__all__ = [
    "derive_instance_circuit",
    "instance_circuit",
]
