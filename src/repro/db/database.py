"""Complete databases: finite sets of ground facts."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.db.fact import Fact
from repro.db.terms import Term


class Database:
    """A complete relational database (a set of ground facts).

    Set semantics throughout: adding a duplicate fact is a no-op, and two
    databases are equal iff they contain the same facts.
    """

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._facts: frozenset[Fact] = frozenset(facts)
        for fact in self._facts:
            if not fact.is_ground():
                raise ValueError(
                    "complete databases cannot contain nulls: %r" % (fact,)
                )
        self._check_arities()

    def _check_arities(self) -> None:
        arities: dict[str, int] = {}
        for fact in self._facts:
            known = arities.setdefault(fact.relation, fact.arity)
            if known != fact.arity:
                raise ValueError(
                    "inconsistent arity for relation %s" % fact.relation
                )

    @property
    def facts(self) -> frozenset[Fact]:
        return self._facts

    @property
    def relations(self) -> set[str]:
        """Relation names with at least one fact."""
        return {fact.relation for fact in self._facts}

    def relation(self, name: str) -> frozenset[Fact]:
        """``D(R)``: the facts over relation ``name``."""
        return frozenset(f for f in self._facts if f.relation == name)

    def active_domain(self) -> set[Term]:
        """All constants appearing in some fact."""
        domain: set[Term] = set()
        for fact in self._facts:
            domain |= set(fact.terms)
        return domain

    def arity_of(self, name: str) -> int | None:
        for fact in self._facts:
            if fact.relation == name:
                return fact.arity
        return None

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts, key=Fact.sort_key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Database) and other._facts == self._facts

    def __hash__(self) -> int:
        return hash(self._facts)

    def __or__(self, other: "Database") -> "Database":
        return Database(self._facts | other._facts)

    def issubset(self, other: "Database") -> bool:
        """``D ⊆ D'`` on fact sets (used by monotonicity checks)."""
        return self._facts <= other._facts

    def __repr__(self) -> str:
        if len(self._facts) <= 6:
            return "Database{%s}" % ", ".join(
                repr(f) for f in sorted(self._facts, key=Fact.sort_key)
            )
        return "Database(%d facts over %s)" % (
            len(self._facts),
            sorted(self.relations),
        )
