"""CNF formulas: the general representation and the 3-CNF special case.

Two layers live here:

* :class:`CNF` — general CNF over DIMACS-style signed integer literals.
  This is the shared formula representation that the lineage compiler
  (:mod:`repro.compile`) emits and the exact model counter
  (:mod:`repro.compile.sharpsat`) consumes.
* :class:`CNF3` / :class:`Clause` — the 3-CNF formulas of the ``#k3SAT``
  counting problem (Definition D.2): given a 3-CNF ``F`` over ``x_1..x_n``
  and ``1 <= k <= n``, count the assignments of ``x_1..x_k`` extendable to
  satisfying assignments of ``F``.  ``#k3SAT`` is SpanP-complete under
  parsimonious reductions (Köbler, Schöning, Torán; Prop. D.3), and is the
  source of Theorem 6.3.  :meth:`CNF3.to_cnf` bridges into the general
  representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence


class CNF:
    """A general CNF formula over variables ``1..num_variables``.

    Literals are nonzero integers in DIMACS convention: ``v`` is the
    positive literal of variable ``v``, ``-v`` its negation.  Clauses are
    stored as sorted tuples with duplicate literals removed; tautological
    clauses (containing ``v`` and ``-v``) are dropped on insertion.  The
    empty clause is allowed and makes the formula unsatisfiable.

    The class is an incremental builder: the lineage compiler allocates
    variables with :meth:`new_variable` and appends clauses as it walks the
    database, then hands the finished formula to the model counter.
    """

    def __init__(
        self,
        num_variables: int = 0,
        clauses: Iterable[Sequence[int]] = (),
    ) -> None:
        if num_variables < 0:
            raise ValueError("num_variables must be >= 0")
        self._num_variables = num_variables
        self._clauses: list[tuple[int, ...]] = []
        for clause in clauses:
            self.add_clause(clause)

    # -- construction ------------------------------------------------------

    def new_variable(self) -> int:
        """Allocate and return a fresh variable index."""
        self._num_variables += 1
        return self._num_variables

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append a clause (any iterable of nonzero literals).

        Duplicate literals collapse; a tautology is silently dropped; an
        empty clause is recorded as-is (falsum).
        """
        seen = set()
        for literal in literals:
            if not isinstance(literal, int) or literal == 0:
                raise ValueError("literals are nonzero integers; got %r" % (literal,))
            if abs(literal) > self._num_variables:
                raise ValueError(
                    "literal %d uses a variable beyond %d; allocate it "
                    "with new_variable() first" % (literal, self._num_variables)
                )
            seen.add(literal)
        if any(-literal in seen for literal in seen):
            return  # tautology
        self._clauses.append(tuple(sorted(seen, key=abs)))

    def add_exactly_one(self, variables: Sequence[int]) -> None:
        """Exactly one of ``variables`` is true: one at-least-one clause
        plus pairwise at-most-one clauses.

        This is the domain constraint of the lineage encoding: models of
        the exactly-one block over a null's indicator variables are in
        bijection with the choices of a value from its domain.
        """
        self.add_clause(variables)
        for left, right in combinations(variables, 2):
            self.add_clause((-left, -right))

    # -- inspection --------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._clauses)

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        """``assignment[v-1]`` is the value of variable ``v``."""
        if len(assignment) < self._num_variables:
            raise ValueError(
                "assignment covers %d of %d variables"
                % (len(assignment), self._num_variables)
            )
        return all(
            any(
                assignment[abs(literal) - 1] == (literal > 0)
                for literal in clause
            )
            for clause in self._clauses
        )

    def __repr__(self) -> str:
        return "CNF(n=%d, clauses=%d)" % (
            self._num_variables,
            len(self._clauses),
        )


def count_models_brute(
    cnf: CNF, projection: Iterable[int] | None = None
) -> int:
    """Model count of a general CNF by exhaustive enumeration.

    With ``projection`` (a set of variables), counts the *distinct
    restrictions to the projection variables* of satisfying assignments —
    the projected model count.  Exponential; this is the ground truth the
    :mod:`repro.compile.sharpsat` engine is tested against.
    """
    if projection is None:
        return sum(
            1
            for bits in product((False, True), repeat=cnf.num_variables)
            if cnf.satisfied_by(bits)
        )
    show = sorted(set(projection))
    if any(v < 1 or v > cnf.num_variables for v in show):
        raise ValueError("projection variables must be in 1..num_variables")
    seen: set[tuple[bool, ...]] = set()
    for bits in product((False, True), repeat=cnf.num_variables):
        if cnf.satisfied_by(bits):
            seen.add(tuple(bits[v - 1] for v in show))
    return len(seen)


@dataclass(frozen=True)
class Clause:
    """A disjunction of exactly three literals.

    ``variables`` are 1-based indices; ``signs[i]`` is ``True`` for a
    positive literal.  Repeated variables inside a clause are allowed (as
    in the paper's reduction, which treats the clause positionally).
    """

    variables: tuple[int, int, int]
    signs: tuple[bool, bool, bool]

    def __post_init__(self) -> None:
        if len(self.variables) != 3 or len(self.signs) != 3:
            raise ValueError("3-CNF clauses have exactly three literals")
        if any(v < 1 for v in self.variables):
            raise ValueError("variables are 1-based positive indices")

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        """``assignment[i-1]`` is the value of variable ``i``."""
        return any(
            assignment[variable - 1] == sign
            for variable, sign in zip(self.variables, self.signs)
        )

    def sign_tuple(self) -> tuple[int, int, int]:
        """The ``(a, b, c) ∈ {0,1}³`` naming the clause's relation in the
        Theorem 6.3 reduction (1 = positive literal)."""
        return tuple(int(sign) for sign in self.signs)  # type: ignore


class CNF3:
    """A 3-CNF formula over variables ``x_1..x_n``."""

    def __init__(self, num_variables: int, clauses: Iterable[Clause]) -> None:
        if num_variables < 1:
            raise ValueError("formulas need at least one variable")
        self._num_variables = num_variables
        self._clauses = tuple(clauses)
        for clause in self._clauses:
            if max(clause.variables) > num_variables:
                raise ValueError(
                    "clause %r uses a variable beyond x_%d"
                    % (clause, num_variables)
                )

    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return self._clauses

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        return all(clause.satisfied_by(assignment) for clause in self._clauses)

    @classmethod
    def from_literals(
        cls, num_variables: int, clause_literals: Iterable[Sequence[int]]
    ) -> "CNF3":
        """Build from DIMACS-style literal triples (negative = negated)."""
        clauses = []
        for literals in clause_literals:
            if len(literals) != 3:
                raise ValueError("each clause needs exactly three literals")
            clauses.append(
                Clause(
                    variables=tuple(abs(l) for l in literals),  # type: ignore
                    signs=tuple(l > 0 for l in literals),  # type: ignore
                )
            )
        return cls(num_variables, clauses)

    def to_cnf(self) -> CNF:
        """The same formula as a general :class:`CNF` (shared representation)."""
        general = CNF(self._num_variables)
        for clause in self._clauses:
            general.add_clause(
                variable if sign else -variable
                for variable, sign in zip(clause.variables, clause.signs)
            )
        return general

    def __repr__(self) -> str:
        return "CNF3(n=%d, clauses=%d)" % (
            self._num_variables,
            len(self._clauses),
        )


def count_sat(formula: CNF3) -> int:
    """``#3SAT``: satisfying assignments, by exhaustive enumeration."""
    return sum(
        1
        for bits in product((False, True), repeat=formula.num_variables)
        if formula.satisfied_by(bits)
    )


def count_k3sat(formula: CNF3, k: int) -> int:
    """``#k3SAT(F, k)`` (Definition D.2): distinct prefixes ``x_1..x_k`` of
    satisfying assignments."""
    if not 1 <= k <= formula.num_variables:
        raise ValueError("k must satisfy 1 <= k <= n")
    prefixes: set[tuple[bool, ...]] = set()
    for bits in product((False, True), repeat=formula.num_variables):
        if formula.satisfied_by(bits):
            prefixes.add(tuple(bits[:k]))
    return len(prefixes)
