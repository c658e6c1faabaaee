"""CNF encodings of ``#Val`` and ``#Comp`` as model-counting problems.

Two encodings, both over the shared :class:`~repro.complexity.cnf.CNF`
representation:

**Valuations (complement encoding).**  The lineage of a (U)CQ is a
monotone DNF, so its *negation* is directly a CNF: one all-negative clause
per match.  Together with the exactly-one domain blocks, models are in
bijection with the valuations *falsifying* the query, and

    ``#Val(q)(D)  =  (total valuations)  -  (model count)``.

No auxiliary variables, no Tseitin transform — the formula mentions choice
variables only.

The complement encoding is what both the ``lineage`` backend and the
d-DNNF circuit pipeline compile: no auxiliary variables, and the
formula's treewidth is the lineage's own, which is what keeps the search
(and hence the recorded circuit) tractable; every circuit question is
answerable from the complement side (``total - falsifying``, factorized
pinned totals, chain-rule sampling).

**Completions (canonical-fact encoding).**  A completion is identified
with the set of ground facts it contains, one fact variable ``y[g]`` per
potential fact.  Image-definition clauses force ``y = ν(D)`` in every
model: *forward* clauses (choices of a producer imply its fact) give
``ν(D) ⊆ y``, *backward* clauses (a fact implies some producer's choices,
via one commander variable per multi-condition producer) give
``y ⊆ ν(D)``.  The query adds its completion-side lineage.  Because the
same completion arises from many valuations, the count of interest is the
**projected** model count onto the fact variables — distinct fact-variable
assignments extendable to a model — which is exactly ``#Comp``.

Each encoder runs as one ``compile.encode`` span (fields ``mode``,
``variables``, ``clauses``), whichever caller asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.complexity.cnf import CNF
from repro.compile.lineage import (
    enumerate_completion_matches,
    enumerate_valuation_matches,
)
from repro.compile.variables import ChoiceVariables, FactVariables
from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.valuation import count_total_valuations
from repro.obs import span


@dataclass
class ValuationEncoding:
    """``#Val`` as a complement model count: ``total - count(cnf)``."""

    cnf: CNF
    choices: ChoiceVariables
    total_valuations: int
    num_matches: int
    trivially_true: bool

    def count_from_models(self, falsifying_models: int) -> int:
        return self.total_valuations - falsifying_models


def compile_valuation_cnf(
    db: IncompleteDatabase, query: BooleanQuery
) -> ValuationEncoding:
    """Compile ``(D, q)`` into the complement encoding of ``#Val(q)(D)``.

    Models of the returned CNF are exactly the valuations ``ν`` with
    ``ν(D) ⊭ q``.  Corner cases fall out of the clause semantics: an
    unsatisfiable query contributes no clauses (every valuation falsifies
    it) and a trivially-true one contributes the empty clause (none does).
    """
    with span("compile.encode", mode="val") as encoded:
        cnf = CNF()
        choices = ChoiceVariables(cnf, db)
        matches = enumerate_valuation_matches(db, query)
        trivially_true = bool(matches) and not matches[0]
        for conditions in matches:
            cnf.add_clause(
                -choices.var(null, value) for null, value in conditions
            )
        encoded.fields.update(variables=cnf.num_variables, clauses=len(cnf))
    return ValuationEncoding(
        cnf=cnf,
        choices=choices,
        total_valuations=count_total_valuations(db),
        num_matches=len(matches),
        trivially_true=trivially_true,
    )


@dataclass
class CompletionEncoding:
    """``#Comp`` as a projected model count onto the fact variables."""

    cnf: CNF
    choices: ChoiceVariables
    facts: FactVariables
    projection: frozenset[int]
    num_matches: int | None  # None when no query constrains the count


def compile_completion_cnf(
    db: IncompleteDatabase, query: BooleanQuery | None = None
) -> CompletionEncoding:
    """Compile ``(D, q)`` into the canonical-fact encoding of ``#Comp``.

    The projected model count of the returned CNF onto ``projection``
    equals the number of distinct completions of ``D`` (satisfying ``q``
    when one is given).
    """
    with span("compile.encode", mode="comp") as encoded:
        cnf = CNF()
        choices = ChoiceVariables(cnf, db)
        facts = FactVariables(cnf, db)

        for ground in facts.facts():
            fact_var = facts.var(ground)
            producers = facts.producers[ground]
            forced = any(not conditions for conditions in producers)
            for conditions in producers:
                if conditions:
                    cnf.add_clause(
                        [-choices.var(null, value) for null, value in conditions]
                        + [fact_var]
                    )
            if forced:
                # A ground input fact: present in every completion.
                cnf.add_clause([fact_var])
                continue
            supports = [-fact_var]
            for conditions in producers:
                if len(conditions) == 1:
                    ((null, value),) = conditions
                    supports.append(choices.var(null, value))
                else:
                    commander = cnf.new_variable()
                    for null, value in conditions:
                        cnf.add_clause((-commander, choices.var(null, value)))
                    supports.append(commander)
            cnf.add_clause(supports)

        num_matches: int | None = None
        if query is not None:
            matches = enumerate_completion_matches(facts.facts(), query)
            num_matches = len(matches)
            witnesses = []
            for used in matches:
                if len(used) == 1:
                    witnesses.append(facts.var(next(iter(used))))
                else:
                    witness = cnf.new_variable()
                    for fact in used:
                        cnf.add_clause((-witness, facts.var(fact)))
                    witnesses.append(witness)
            # Empty DNF compiles to the empty clause: no completion satisfies q.
            cnf.add_clause(witnesses)
        encoded.fields.update(variables=cnf.num_variables, clauses=len(cnf))
    return CompletionEncoding(
        cnf=cnf,
        choices=choices,
        facts=facts,
        projection=frozenset(facts.variables()),
        num_matches=num_matches,
    )
