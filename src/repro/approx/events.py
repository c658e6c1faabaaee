"""Embedding events: the union structure behind the ``#Val`` FPRAS.

A valuation ``ν`` satisfies a BCQ ``q`` on ``D`` iff some *embedding* — an
assignment of each atom of ``q`` to a fact of ``D`` over the same relation —
becomes a homomorphic image under ``ν``.  Each embedding therefore defines
an **event**: the set of valuations consistent with it.  Unifying the fact
terms sitting at equal-variable positions (union–find) turns the event into
a product set:

* each equivalence class of nulls must take a single value from the
  intersection of its members' domains (and equal any constant unified in);
* all remaining nulls are free.

So event weights are products of set sizes, uniform sampling inside an
event is positionwise (one draw per class, one per free null), and a
valuation lies in an event iff each class's nulls share one allowed
value — the three ingredients the Karp-Luby estimator needs, which it
runs on arrays (:mod:`repro.approx.fpras`).  The number of events is at
most ``|D|^{|atoms|}``, polynomial for a fixed query, and
``#Val(q)(D) = |union of all events|``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from repro.core.query import Atom, BCQ, Const, UCQ, Var
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term, is_null
from repro.util.unionfind import UnionFind


class EmbeddingEvent:
    """One consistent embedding of the query's atoms into facts of ``D``.

    Exposes exactly what Karp-Luby needs: ``weight`` (= ``|E|``) and
    ``classes``, from which :class:`~repro.approx.fpras.KarpLubyEstimator`
    builds its array encoding for sampling and membership.
    """

    def __init__(
        self,
        db: IncompleteDatabase,
        classes: list[tuple[frozenset[Null], frozenset[Term]]],
    ) -> None:
        self._db = db
        #: (nulls of the class, allowed values) — pairwise disjoint classes.
        self.classes = classes
        constrained: set[Null] = set()
        for nulls, _allowed in classes:
            constrained |= nulls
        self._free = [null for null in db.nulls if null not in constrained]

    @property
    def weight(self) -> int:
        """``|E|``: number of valuations in the event."""
        total = 1
        for _nulls, allowed in self.classes:
            total *= len(allowed)
        for null in self._free:
            total *= len(self._db.domain_of(null))
        return total


def _node(kind: str, payload: object) -> tuple[str, object]:
    """Tagged union-find node; tags keep variables, db terms and query
    constants in disjoint namespaces (a db constant may itself be any
    hashable value, including tuples)."""
    return (kind, payload)


def _unify_embedding(
    db: IncompleteDatabase, atoms: Sequence[Atom], facts: Sequence[Fact]
) -> EmbeddingEvent | None:
    """Build the event for one atom->fact assignment, or ``None`` if the
    required equalities are unsatisfiable."""
    union_find: UnionFind[tuple[str, object]] = UnionFind()
    # Map each variable to a canonical node; unify with the terms below it.
    for atom, fact in zip(atoms, facts):
        if atom.relation != fact.relation or atom.arity != fact.arity:
            return None
        for query_term, db_term in zip(atom.terms, fact.terms):
            db_node = (
                _node("null", db_term)
                if is_null(db_term)
                else _node("const", db_term)
            )
            if isinstance(query_term, Const):
                if is_null(db_term):
                    union_find.union(_node("const", query_term.value), db_node)
                elif query_term.value != db_term:
                    return None
            else:
                assert isinstance(query_term, Var)
                union_find.union(_node("var", query_term.name), db_node)

    classes: list[tuple[frozenset[Null], frozenset[Term]]] = []
    for _root, members in union_find.classes().items():
        nulls = frozenset(
            payload for kind, payload in members if kind == "null"
        )
        constants = {payload for kind, payload in members if kind == "const"}
        if len(constants) > 1:
            return None
        if not nulls:
            continue  # a variable resting on constants only: no constraint
        allowed: frozenset[Term] | None = None
        for null in nulls:
            domain = db.domain_of(null)
            allowed = domain if allowed is None else allowed & domain
        assert allowed is not None
        if constants:
            allowed &= frozenset(constants)
        if not allowed:
            return None
        classes.append((frozenset(nulls), allowed))
    return EmbeddingEvent(db, classes)


def _bcq_events(
    db: IncompleteDatabase, query: BCQ
) -> Iterator[EmbeddingEvent]:
    atom_list = list(query.atoms)
    fact_choices = [
        sorted(db.relation(atom.relation), key=Fact.sort_key)
        for atom in atom_list
    ]
    if any(not choices for choices in fact_choices):
        return
    for facts in product(*fact_choices):
        event = _unify_embedding(db, atom_list, facts)
        if event is not None and event.weight > 0:
            yield event


def enumerate_events(
    db: IncompleteDatabase, query: BCQ | UCQ
) -> list[EmbeddingEvent]:
    """All embedding events of ``query`` on ``db``.

    ``#Val(q)(D)`` equals the size of the union of the returned events; for
    a UCQ the events of all disjuncts are pooled (the union semantics of
    disjunction is union of events).
    """
    if isinstance(query, BCQ):
        return list(_bcq_events(db, query))
    if isinstance(query, UCQ):
        events: list[EmbeddingEvent] = []
        for disjunct in query.disjuncts:
            events.extend(_bcq_events(db, disjunct))
        return events
    raise TypeError(
        "events are defined for BCQs and UCQs; got %s" % type(query).__name__
    )
