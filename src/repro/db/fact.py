"""Relational facts ``R(t_1, ..., t_k)`` over constants and nulls."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.db.terms import Null, Term, is_null


class Fact:
    """An immutable fact: a relation name applied to a tuple of terms.

    Facts are value objects (hashable, comparable) so databases can be plain
    Python sets, which gives us the paper's set semantics for free.
    """

    __slots__ = ("_relation", "_terms")

    def __init__(self, relation: str, terms: Iterable[Term]) -> None:
        if not relation:
            raise ValueError("relation name must be non-empty")
        term_tuple = tuple(terms)
        if not term_tuple:
            raise ValueError(
                "facts must have arity >= 1 (the paper assumes arity(R) >= 1)"
            )
        self._relation = relation
        self._terms = term_tuple

    @property
    def relation(self) -> str:
        return self._relation

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._terms

    @property
    def arity(self) -> int:
        return len(self._terms)

    def nulls(self) -> set[Null]:
        """The set of distinct nulls occurring in this fact."""
        return {term for term in self._terms if is_null(term)}

    def null_positions(self) -> list[int]:
        """Indices of positions holding nulls."""
        return [i for i, term in enumerate(self._terms) if is_null(term)]

    def constants(self) -> set[Term]:
        """The set of distinct constants occurring in this fact."""
        return {term for term in self._terms if not is_null(term)}

    def is_ground(self) -> bool:
        """True when the fact contains no nulls."""
        return not any(is_null(term) for term in self._terms)

    def substitute(self, valuation: dict[Null, Term]) -> "Fact":
        """Replace nulls by their images under ``valuation`` (others kept)."""
        return Fact(
            self._relation,
            tuple(
                valuation.get(term, term) if is_null(term) else term
                for term in self._terms
            ),
        )

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fact)
            and other._relation == self._relation
            and other._terms == self._terms
        )

    def __hash__(self) -> int:
        return hash((self._relation, self._terms))

    def __repr__(self) -> str:
        return "%s(%s)" % (
            self._relation,
            ", ".join(repr(term) for term in self._terms),
        )

    def sort_key(self) -> tuple[str, tuple[str, ...]]:
        """The order facts sort in (``sorted(facts, key=Fact.sort_key)``)."""
        return (self._relation, tuple(map(repr, self._terms)))

    def __lt__(self, other: "Fact") -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.sort_key() < other.sort_key()
