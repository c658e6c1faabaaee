"""Indicator variables tying CNF models to valuations and completions.

Two families of Boolean variables bridge the database world and the
formula world:

* **choice variables** ``x[⊥, c]`` — "valuation maps null ``⊥`` to
  constant ``c``".  Under the exactly-one constraints emitted per null,
  models of the domain block are in bijection with valuations of ``D``.
* **fact variables** ``y[g]`` — "ground fact ``g`` belongs to the
  completion".  Together with the image-definition clauses of the
  completion encoding, assignments to the fact variables that extend to
  models are exactly the completions ``ν(D)``, one per distinct image —
  the *canonical-fact* view of a completion as the set of facts it
  contains, which quotients away the many-to-one valuation→completion
  collapse (Example 2.2).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.complexity.cnf import CNF
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term


class ChoiceVariables:
    """The ``(null, value) -> variable`` map with exactly-one semantics.

    Construction allocates one variable per pair and appends the
    exactly-one block for every null to ``cnf``, so any model of ``cnf``
    restricted to these variables decodes to a unique valuation.
    """

    def __init__(self, cnf: CNF, db: IncompleteDatabase) -> None:
        self._var: dict[tuple[Null, Term], int] = {}
        self._nulls = db.nulls
        for null in self._nulls:
            block = []
            for value in sorted(db.domain_of(null), key=repr):
                variable = cnf.new_variable()
                self._var[(null, value)] = variable
                block.append(variable)
            cnf.add_exactly_one(block)

    def var(self, null: Null, value: Term) -> int:
        """The variable asserting ``ν(null) = value``."""
        return self._var[(null, value)]

    def variables(self) -> list[int]:
        return sorted(self._var.values())

    def items(self) -> list[tuple[tuple[Null, Term], int]]:
        """All ``((null, value), variable)`` pairs, in variable order."""
        return sorted(self._var.items(), key=lambda pair: pair[1])

    def decode(self, model: set[int]) -> dict[Null, Term]:
        """Valuation encoded by a model (a set of true variable indices)."""
        valuation: dict[Null, Term] = {}
        for (null, value), variable in self._var.items():
            if variable in model:
                valuation[null] = value
        return valuation

    def __len__(self) -> int:
        return len(self._var)


def instantiations(
    fact: Fact, db: IncompleteDatabase
) -> Iterator[tuple[Fact, frozenset[tuple[Null, Term]]]]:
    """All ground instantiations of one naive-table fact.

    Yields ``(ground fact, conditions)`` where ``conditions`` is the set of
    ``(null, value)`` choices producing it; a ground fact yields itself
    with no conditions.  A repeated null within the fact is substituted
    consistently, so the conditions are always a partial valuation.
    """
    nulls = sorted(fact.nulls())
    if not nulls:
        yield fact, frozenset()
        return
    domains = [sorted(db.domain_of(null), key=repr) for null in nulls]
    for values in product(*domains):
        valuation = dict(zip(nulls, values))
        yield fact.substitute(valuation), frozenset(valuation.items())


class FactVariables:
    """The ``ground fact -> variable`` map over all potential facts of ``D``.

    The *potential facts* are the ground facts some completion can contain:
    the union of all instantiations of the naive table's facts.  Also
    records, per potential fact, its list of producers ``(template,
    conditions)`` — the input facts and null choices that realize it.
    """

    def __init__(self, cnf: CNF, db: IncompleteDatabase) -> None:
        self._var: dict[Fact, int] = {}
        self.producers: dict[Fact, list[frozenset[tuple[Null, Term]]]] = {}
        for template in sorted(db.facts, key=Fact.sort_key):
            for ground, conditions in instantiations(template, db):
                if ground not in self._var:
                    self._var[ground] = cnf.new_variable()
                    self.producers[ground] = []
                known = self.producers[ground]
                if conditions not in known:
                    known.append(conditions)

    def var(self, fact: Fact) -> int:
        """The variable asserting ``fact ∈ ν(D)``."""
        return self._var[fact]

    def facts(self) -> list[Fact]:
        return sorted(self._var, key=Fact.sort_key)

    def variables(self) -> list[int]:
        return sorted(self._var.values())

    def decode(self, model: set[int]) -> frozenset[Fact]:
        """Completion encoded by a model (a set of true variable indices)."""
        return frozenset(
            fact for fact, variable in self._var.items() if variable in model
        )

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._var

    def __len__(self) -> int:
        return len(self._var)
