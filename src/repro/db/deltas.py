"""Deltas: the update operations between incomplete-database versions.

The journal version of the source paper frames updates to an incomplete
database as exactly four moves: resolving a null to a constant, shrinking
a null's domain, and inserting or deleting facts.  A :class:`Delta` is an
immutable record of one such move; ``db.apply(delta)`` (in
:mod:`repro.db.incomplete`) produces the new instance and records the
provenance link that the incremental counting machinery exploits —
resolution-only deltas are answered from the parent circuit by
*conditioning*; an insert or delete changes the clause set, so the
updated instance compiles afresh.

Deltas are value objects: hashable, comparable, picklable, with a
canonical form (:func:`delta_form`) stable under null/constant labels so
fingerprints of derived instances can record the chain exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Union

from repro.db.fact import Fact
from repro.db.terms import Null, Term, is_null


@dataclass(frozen=True)
class ResolveNull:
    """Resolve ``null`` to the constant ``value`` (everywhere in ``T``)."""

    null: Null
    value: Term

    def __post_init__(self) -> None:
        if not is_null(self.null):
            raise ValueError("ResolveNull.null must be a Null")
        if is_null(self.value):
            raise ValueError("nulls resolve to constants, not to other nulls")


@dataclass(frozen=True)
class RestrictDomain:
    """Shrink ``dom(null)`` to ``values`` (a non-empty subset)."""

    null: Null
    values: frozenset = field()

    def __post_init__(self) -> None:
        if not is_null(self.null):
            raise ValueError("RestrictDomain.null must be a Null")
        values = frozenset(self.values)
        if not values:
            raise ValueError("a restricted domain must stay non-empty")
        if any(is_null(value) for value in values):
            raise ValueError("null domains must contain constants only")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class InsertFacts:
    """Add ``facts`` to ``T``.

    New nulls are allowed when their domains ride along in ``dom`` (or,
    on a uniform database, they inherit the shared domain).
    """

    facts: frozenset = field()
    dom: tuple = ()

    def __init__(
        self,
        facts: Iterable[Fact],
        dom: "Mapping[Null, Iterable[Term]] | None" = None,
    ) -> None:
        fact_set = frozenset(facts)
        if not fact_set:
            raise ValueError("InsertFacts needs at least one fact")
        if not all(isinstance(fact, Fact) for fact in fact_set):
            raise ValueError("InsertFacts.facts must be Fact values")
        entries = ()
        if dom:
            entries = tuple(
                sorted(
                    (null, frozenset(values)) for null, values in dom.items()
                )
            )
            for null, values in entries:
                if not is_null(null):
                    raise ValueError("InsertFacts.dom keys must be nulls")
                if not values or any(is_null(value) for value in values):
                    raise ValueError(
                        "domains for inserted nulls must be non-empty sets "
                        "of constants"
                    )
        object.__setattr__(self, "facts", fact_set)
        object.__setattr__(self, "dom", entries)

    def domains(self) -> "dict[Null, frozenset]":
        """The carried new-null domains as a mapping."""
        return dict(self.dom)


@dataclass(frozen=True)
class DeleteFacts:
    """Remove ``facts`` from ``T`` (every fact must be present)."""

    facts: frozenset = field()

    def __post_init__(self) -> None:
        fact_set = frozenset(self.facts)
        if not fact_set:
            raise ValueError("DeleteFacts needs at least one fact")
        if not all(isinstance(fact, Fact) for fact in fact_set):
            raise ValueError("DeleteFacts.facts must be Fact values")
        object.__setattr__(self, "facts", fact_set)


Delta = Union[ResolveNull, RestrictDomain, InsertFacts, DeleteFacts]

#: The delta kinds a compiled circuit absorbs by *conditioning* — fixing
#: choice-block literals in one linear pass, no recompilation.
RESOLUTION_KINDS = (ResolveNull, RestrictDomain)


def is_delta(value: object) -> bool:
    """True for any of the four delta record types."""
    return isinstance(
        value, (ResolveNull, RestrictDomain, InsertFacts, DeleteFacts)
    )


def resolution_only(delta: Delta) -> bool:
    """True when ``delta`` only narrows null choices (no fact changes)."""
    return isinstance(delta, RESOLUTION_KINDS)


#: Longest provenance chain :func:`delta_chain` walks.  Beyond this a
#: fresh compile is cheaper than replaying the chain (and an unbounded
#: walk could loop on pathological hand-built provenance).
MAX_CHAIN_DEPTH = 64


def delta_chain(db) -> "list[tuple[Any, list]]":
    """Ancestors of ``db`` with the deltas leading back down to ``db``.

    Returns ``[(parent, [d_k]), (grandparent, [d_{k-1}, d_k]), ...]``,
    nearest ancestor first; each delta list replays that ancestor forward
    into ``db``.  Empty when ``db`` has no provenance (it was not built
    via :meth:`~repro.db.incomplete.IncompleteDatabase.apply`).
    """
    chain: list = []
    suffix: list = []
    node = db
    while len(chain) < MAX_CHAIN_DEPTH:
        parent = getattr(node, "parent", None)
        delta = getattr(node, "delta", None)
        if parent is None or delta is None:
            break
        suffix.insert(0, delta)
        chain.append((parent, list(suffix)))
        node = parent
    return chain


def _term_key(term: Term) -> str:
    return repr(term)


def delta_form(delta: Delta) -> tuple:
    """Canonical, label-exact tuple form of a delta (fingerprint input).

    Mirrors the label-exact instance forms in
    :mod:`repro.engine.fingerprint`: the same delta always yields the
    same form, and the form orders sets deterministically.
    """
    if isinstance(delta, ResolveNull):
        return ("resolve", _term_key(delta.null), _term_key(delta.value))
    if isinstance(delta, RestrictDomain):
        return (
            "restrict",
            _term_key(delta.null),
            tuple(sorted(map(_term_key, delta.values))),
        )
    if isinstance(delta, InsertFacts):
        return (
            "insert",
            tuple(sorted(map(repr, delta.facts))),
            tuple(
                (_term_key(null), tuple(sorted(map(_term_key, values))))
                for null, values in delta.dom
            ),
        )
    if isinstance(delta, DeleteFacts):
        return ("delete", tuple(sorted(map(repr, delta.facts))))
    raise TypeError("not a delta: %r" % (delta,))


__all__ = [
    "Delta",
    "DeleteFacts",
    "InsertFacts",
    "MAX_CHAIN_DEPTH",
    "RESOLUTION_KINDS",
    "ResolveNull",
    "RestrictDomain",
    "delta_chain",
    "delta_form",
    "is_delta",
    "resolution_only",
]
