"""Boolean queries: atoms, (sjf)BCQs, unions, negations, custom queries.

Following Section 2 of the paper, a Boolean conjunctive query is an
existentially-quantified conjunction of relational atoms; quantifiers are
left implicit.  Variables are :class:`Var` objects (constructed from plain
strings for convenience) and constants inside queries are wrapped in
:class:`Const` so the two can never be confused.

The paper's dichotomies concern *self-join-free* BCQs (no relation name used
twice); Section 5 needs unions of BCQs, and Section 6 needs negations of
BCQs and arbitrary fixed Boolean queries whose model checking is in NP —
:class:`CustomQuery` covers those by carrying a Python decision procedure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Iterable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import Database


class Var:
    """A query variable, identified by name."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("variable name must be non-empty")
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other._name == self._name

    def __hash__(self) -> int:
        return hash(("repro.Var", self._name))

    def __repr__(self) -> str:
        return self._name

    def __lt__(self, other: "Var") -> bool:
        if not isinstance(other, Var):
            return NotImplemented
        return self._name < other._name


class Const:
    """A constant appearing inside a query atom."""

    __slots__ = ("_value",)

    def __init__(self, value: Hashable) -> None:
        self._value = value

    @property
    def value(self) -> Hashable:
        return self._value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other._value == self._value

    def __hash__(self) -> int:
        return hash(("repro.Const", self._value))

    def __repr__(self) -> str:
        return repr(self._value)


QueryTerm = Var | Const


def _coerce_term(term: QueryTerm | str) -> QueryTerm:
    """Strings are accepted as variable names for writing queries tersely."""
    if isinstance(term, str):
        return Var(term)
    if isinstance(term, (Var, Const)):
        return term
    raise TypeError(
        "query terms must be Var, Const or str (variable name); got %r"
        % (term,)
    )


class Atom:
    """A relational atom ``R(t_1, ..., t_k)`` in a query body."""

    __slots__ = ("_relation", "_terms")

    def __init__(
        self, relation: str, terms: Iterable[QueryTerm | str]
    ) -> None:
        if not relation:
            raise ValueError("relation name must be non-empty")
        coerced = tuple(_coerce_term(term) for term in terms)
        if not coerced:
            raise ValueError(
                "atoms must have arity >= 1 (paper assumption, Section 2)"
            )
        self._relation = relation
        self._terms = coerced

    @property
    def relation(self) -> str:
        return self._relation

    @property
    def terms(self) -> tuple[QueryTerm, ...]:
        return self._terms

    @property
    def arity(self) -> int:
        return len(self._terms)

    def variables(self) -> list[Var]:
        """Distinct variables in order of first occurrence."""
        seen: list[Var] = []
        for term in self._terms:
            if isinstance(term, Var) and term not in seen:
                seen.append(term)
        return seen

    def occurrence_count(self, variable: Var) -> int:
        """Number of positions of ``variable`` in this atom."""
        return sum(1 for term in self._terms if term == variable)

    def has_repeated_variable(self) -> bool:
        return any(self.occurrence_count(v) >= 2 for v in self.variables())

    def is_variable_only(self) -> bool:
        return all(isinstance(term, Var) for term in self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and other._relation == self._relation
            and other._terms == self._terms
        )

    def __hash__(self) -> int:
        return hash((self._relation, self._terms))

    def __repr__(self) -> str:
        return "%s(%s)" % (
            self._relation,
            ",".join(repr(term) for term in self._terms),
        )


class BooleanQuery(ABC):
    """A Boolean query: something a complete database satisfies or not.

    Concrete query classes either carry enough syntax for the generic
    evaluator (:mod:`repro.eval`) or, for :class:`CustomQuery`, an explicit
    decision procedure.  The three semantic flags mirror the hypotheses of
    Prop. 5.2 (monotone + bounded minimal models + feasible model checking
    implies ``#Val`` in SpanL, hence FPRAS).
    """

    @property
    @abstractmethod
    def relations(self) -> frozenset[str]:
        """``sig(q)``: the relation names occurring in the query."""

    @property
    def is_monotone(self) -> bool:
        """True when ``D ⊆ D'`` and ``D |= q`` imply ``D' |= q``."""
        return False

    @property
    def minimal_model_bound(self) -> int | None:
        """A bound ``C_q`` on minimal-model size, or ``None`` if unbounded."""
        return None


class BCQ(BooleanQuery):
    """A Boolean conjunctive query (implicit existential quantification)."""

    def __init__(self, atoms: Sequence[Atom]) -> None:
        atom_tuple = tuple(atoms)
        if not atom_tuple:
            raise ValueError(
                "BCQs must have at least one atom (paper assumption)"
            )
        self._atoms = atom_tuple

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(atom.relation for atom in self._atoms)

    @property
    def is_self_join_free(self) -> bool:
        """No two atoms share a relation name (sjfBCQ, Section 2)."""
        return len(self.relations) == len(self._atoms)

    @property
    def is_variable_only(self) -> bool:
        """True when no constant occurs in any atom (the paper's setting)."""
        return all(atom.is_variable_only() for atom in self._atoms)

    def variables(self) -> list[Var]:
        """Distinct variables across all atoms, in first-occurrence order."""
        seen: list[Var] = []
        for atom in self._atoms:
            for variable in atom.variables():
                if variable not in seen:
                    seen.append(variable)
        return seen

    def occurrence_count(self, variable: Var) -> int:
        return sum(atom.occurrence_count(variable) for atom in self._atoms)

    def atoms_containing(self, variable: Var) -> list[Atom]:
        return [a for a in self._atoms if a.occurrence_count(variable) > 0]

    @property
    def is_monotone(self) -> bool:
        return True

    @property
    def minimal_model_bound(self) -> int | None:
        # A satisfying hom image uses at most one fact per atom.
        return len(self._atoms)

    def __eq__(self, other: object) -> bool:
        # Syntactic equality (atom order matters); use is_pattern_of for
        # the semantic preorder.
        return isinstance(other, BCQ) and other._atoms == self._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __repr__(self) -> str:
        return " ∧ ".join(repr(atom) for atom in self._atoms)


def sjf_bcq(atoms: Sequence[Atom]) -> BCQ:
    """Build a BCQ and check it is self-join-free and variable-only.

    The dichotomy theorems assume both; this constructor makes the
    assumption explicit at build time.
    """
    query = BCQ(atoms)
    if not query.is_self_join_free:
        raise ValueError("query is not self-join-free: %r" % (query,))
    if not query.is_variable_only:
        raise ValueError(
            "the paper's sjfBCQs contain variables only: %r" % (query,)
        )
    return query


class UCQ(BooleanQuery):
    """A union (disjunction) of Boolean conjunctive queries (Section 5.1)."""

    def __init__(self, disjuncts: Sequence[BCQ]) -> None:
        disjunct_tuple = tuple(disjuncts)
        if not disjunct_tuple:
            raise ValueError("UCQs must have at least one disjunct")
        self._disjuncts = disjunct_tuple

    @property
    def disjuncts(self) -> tuple[BCQ, ...]:
        return self._disjuncts

    @property
    def relations(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for disjunct in self._disjuncts:
            names |= disjunct.relations
        return names

    @property
    def is_monotone(self) -> bool:
        return True

    @property
    def minimal_model_bound(self) -> int | None:
        return max(len(d.atoms) for d in self._disjuncts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UCQ) and other._disjuncts == self._disjuncts

    def __hash__(self) -> int:
        return hash(self._disjuncts)

    def __repr__(self) -> str:
        return " ∨ ".join("(%r)" % (d,) for d in self._disjuncts)


class Negation(BooleanQuery):
    """The negation ``¬q`` of a Boolean query (Theorem 6.3)."""

    def __init__(self, inner: BooleanQuery) -> None:
        self._inner = inner

    @property
    def inner(self) -> BooleanQuery:
        return self._inner

    @property
    def relations(self) -> frozenset[str]:
        return self._inner.relations

    @property
    def is_monotone(self) -> bool:
        return False  # negation of a monotone query is antitone

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Negation) and other._inner == self._inner

    def __hash__(self) -> int:
        return hash(("repro.Negation", self._inner))

    def __repr__(self) -> str:
        return "¬(%r)" % (self._inner,)


class CustomQuery(BooleanQuery):
    """A fixed Boolean query given by an arbitrary decision procedure.

    Used for Section 6: queries whose model checking is in NP but which are
    not (U)CQs — e.g. the ∃SO Hamiltonian-subset query of Theorem 6.4.
    """

    def __init__(
        self,
        name: str,
        relations: Iterable[str],
        decide: Callable[["Database"], bool],
        monotone: bool = False,
        minimal_model_bound: int | None = None,
    ) -> None:
        self._name = name
        self._relations = frozenset(relations)
        self._decide = decide
        self._monotone = monotone
        self._bound = minimal_model_bound

    @property
    def relations(self) -> frozenset[str]:
        return self._relations

    @property
    def is_monotone(self) -> bool:
        return self._monotone

    @property
    def minimal_model_bound(self) -> int | None:
        return self._bound

    def decide(self, database: "Database") -> bool:
        """Run the model-checking procedure on a complete database."""
        return bool(self._decide(database))

    def __repr__(self) -> str:
        return "CustomQuery(%s)" % (self._name,)


def require_query(problem: str, query: BooleanQuery | None) -> None:
    """Refuse a missing query: every counting problem but ``'comp'`` asks
    about one (``#Comp`` with ``query=None`` counts all completions)."""
    if query is None and problem != "comp":
        raise ValueError(
            "problem %r needs a query (only 'comp' allows query=None)" % problem
        )
