"""Embedding events: the union structure behind the ``#Val`` FPRAS.

A valuation ``ν`` satisfies a BCQ ``q`` on ``D`` iff some *embedding* — an
assignment of each atom of ``q`` to a fact of ``D`` over the same relation —
becomes a homomorphic image under ``ν``.  Each embedding therefore defines
an **event**: the set of valuations consistent with it.  The embeddings
are those of :func:`repro.eval.homomorphism.embeddings`, whose null classes
make the event a product set:

* each class of nulls the embedding forces equal must take a single value
  from the intersection of its members' domains (narrowed to any constant
  it meets);
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

from math import prod

from repro.core.query import BCQ, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term
from repro.eval.homomorphism import FactIndex, NullClass, embeddings


class EmbeddingEvent:
    """One consistent embedding of the query's atoms into facts of ``D``.

    Exposes exactly what Karp-Luby needs: ``weight`` (= ``|E|``) and
    ``classes``, from which :class:`~repro.approx.fpras.KarpLubyEstimator`
    builds its array encoding for sampling and membership.
    """

    __slots__ = ("classes", "weight")

    def __init__(
        self,
        classes: list[tuple[frozenset[Null], frozenset[Term]]],
        weight: int,
    ) -> None:
        #: (nulls of the class, allowed values) — pairwise disjoint classes.
        self.classes = classes
        #: ``|E|``: the number of valuations in the event.
        self.weight = weight


def enumerate_events(
    db: IncompleteDatabase, query: BCQ | UCQ
) -> list[EmbeddingEvent]:
    """All embedding events of ``query`` on ``db`` with a valuation in them.

    ``#Val(q)(D)`` equals the size of the union of the returned events; for
    a UCQ the events of all disjuncts are pooled (the union semantics of
    disjunction is union of events).  Events come in the lexicographic
    order of their fact tuples (atoms in query order, facts by
    :meth:`~repro.db.fact.Fact.sort_key`), disjunct by disjunct, and an
    event's classes in the order the search first met their nulls.

    A weight is the classes' sizes times the free nulls' domain sizes,
    the latter the product over all nulls with the classes' members
    divided out, so no event scans the table's nulls.  A table with an
    empty domain has no valuation, so it has no event.
    """
    if isinstance(query, BCQ):
        disjuncts: tuple[BCQ, ...] = (query,)
    elif isinstance(query, UCQ):
        disjuncts = query.disjuncts
    else:
        raise TypeError(
            "events are defined for BCQs and UCQs; got %s" % type(query).__name__
        )
    index = FactIndex(sorted(db.facts, key=Fact.sort_key))
    sizes = {null: len(db.domain_of(null)) for null in db.nulls}
    if not all(sizes.values()):
        return []
    everything = prod(sizes.values())
    events: list[EmbeddingEvent] = []

    def collect(_binding, classes: dict[Null, NullClass], _facts) -> None:
        distinct = list(dict.fromkeys(classes.values()))
        free = everything
        chosen = 1
        for nulls, allowed in distinct:
            chosen *= len(allowed)
            for null in nulls:
                free //= sizes[null]
        events.append(EmbeddingEvent(distinct, chosen * free))

    for disjunct in disjuncts:
        embeddings(disjunct.atoms, index, collect, db.domain_of)
    return events
