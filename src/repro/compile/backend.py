"""Counting backends over the lineage pipeline: search once or compile once.

Two families of entry points live here:

* the **lineage** backend (``method='lineage'`` in
  :mod:`repro.exact.dispatch`): compile the instance to CNF
  (:mod:`repro.compile.encode`) and run the decomposition-based exact
  counter (:mod:`repro.compile.sharpsat`) — one search per question;
* the **circuit** backend (``method='circuit'``): run the same search
  *once* with trace recording, keep the resulting d-DNNF circuit
  (:mod:`repro.compile.circuit`), and answer every further question about
  the same ``(D, q)`` — uniform counts, weighted counts for non-uniform
  null distributions, per-null marginals, exact valuation samples — by
  linear passes over the circuit.  :class:`ValuationCircuit` and
  :class:`CompletionCircuit` are the compiled artifacts the batch engine
  caches by instance fingerprint.

Either way the cost of the hard part is exponential only in the
(heuristic) treewidth of the lineage, not in the number of nulls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.complexity.cnf import CNF
from repro.compile.circuit import (
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
    CircuitSampler,
    DDNNF,
    draw_index,
)
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.encode import (
    compile_completion_cnf,
    compile_valuation_cnf,
)
from repro.compile.lineage import (
    clause_components,
    component_key,
    lineage_supports,
)
from repro.compile.serialize import (
    CircuitFormatError,
    Reader,
    Writer,
    dumps_circuit,
    frame,
    loads_circuit,
    unframe,
)
from repro.compile.sharpsat import ModelCounter, count_models
from repro.compile.variables import ChoiceVariables, FactVariables
from repro.core.query import BooleanQuery
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term
from repro.db.valuation import (
    NullWeights,
    count_total_valuations,
    resolve_null_weights,
)
from repro.obs import incr as _incr, span as _span

#: Frame magics of the two wrapper artifacts (see ``to_bytes``).
VALUATION_MAGIC = b"RVAL"
COMPLETION_MAGIC = b"RCMP"


def _write_optional_uint(writer: Writer, value: int | None) -> None:
    writer.uint(0 if value is None else value + 1)


def _read_optional_uint(reader: Reader) -> int | None:
    encoded = reader.uint()
    return None if encoded == 0 else encoded - 1


def count_valuations_lineage(
    db: IncompleteDatabase, query: BooleanQuery
) -> int:
    """``#Val(q)(D)`` via lineage compilation and exact model counting."""
    encoding = compile_valuation_cnf(db, query)
    if encoding.total_valuations == 0:
        return 0
    return encoding.count_from_models(count_models(encoding.cnf))


def count_completions_lineage(
    db: IncompleteDatabase, query: BooleanQuery | None = None
) -> int:
    """``#Comp(q)(D)`` via the canonical-fact encoding and projected
    exact model counting (``query=None`` counts all completions)."""
    encoding = compile_completion_cnf(db, query)
    return count_models(encoding.cnf, projection=encoding.projection)


# ---------------------------------------------------------------------------
# compiled circuits: one search, many questions
# ---------------------------------------------------------------------------


class _ChoiceView:
    """Choice map of a delta-derived instance.

    A conditioned circuit keeps the *parent's* variable universe, so the
    child's surviving ``(null, value)`` pairs must keep the parent's
    variable ids.  This view exposes exactly the
    :class:`~repro.compile.variables.ChoiceVariables` surface the circuit
    passes use (``items`` / ``var`` / ``variables`` / ``decode``) over
    that restricted pair set.
    """

    __slots__ = ("_vars", "_pairs")

    def __init__(self, pairs: Mapping[tuple[Null, Term], int]) -> None:
        self._vars = dict(pairs)
        self._pairs = sorted(self._vars.items(), key=lambda item: item[1])

    @classmethod
    def from_parent(
        cls, parent_choices, child_db: IncompleteDatabase
    ) -> "_ChoiceView":
        pairs = {}
        for null in child_db.nulls:
            for value in child_db.domain_of(null):
                pairs[(null, value)] = parent_choices.var(null, value)
        return cls(pairs)

    def var(self, null: Null, value: Term) -> int:
        return self._vars[(null, value)]

    def items(self) -> list[tuple[tuple[Null, Term], int]]:
        return list(self._pairs)

    def variables(self) -> list[int]:
        return [variable for _pair, variable in self._pairs]

    def decode(self, variable: int) -> tuple[Null, Term]:
        for pair, known in self._pairs:
            if known == variable:
                return pair
        raise KeyError("variable %d is not a choice variable" % variable)

    def __len__(self) -> int:
        return len(self._vars)


class ValuationCircuit:
    """A compiled ``(D, q)``: every ``#Val``-flavored question in circuit passes.

    Construction runs the *complement* encoding
    (:func:`~repro.compile.encode.compile_valuation_cnf`) through the
    trace-recording model counter once.  The recorded d-DNNF's models are
    the valuations **falsifying** the query — the encoding with the
    lineage's own treewidth, which is what keeps compilation tractable
    (the positive witness encoding couples everything through one global
    disjunction and defeats component decomposition).  Every question is
    then answered against the complement, exactly:

    * :meth:`count` — ``total - circuit.count()``, bit for bit what
      ``method='lineage'`` computes (same counter, same CNF);
    * :meth:`weighted_count` — the weighted total factorizes as
      ``prod_⊥ sum_c w(⊥, c)``, the falsifying mass is one weighted
      upward pass;
    * :meth:`marginals` — pinned totals factorize the same way, and one
      downward pass yields the falsifying mass of *every* ``(⊥, c)``
      pair at once;
    * :meth:`sample_valuation` — exact samples by iterated conditioning
      (chain rule): pin one null per marginal pass, ``k`` linear passes
      per sample, no rejection and no re-search.  (Top-down *descent*
      would sample the circuit's own models — the falsifying
      valuations — which is the wrong side of the complement.)
    """

    def __init__(
        self,
        db: IncompleteDatabase,
        query: BooleanQuery,
        reference: bool = False,
    ) -> None:
        with _span("compile.encode", mode="val"):
            encoding = compile_valuation_cnf(db, query)
        trace = TraceBuilder()
        counter = ModelCounter(encoding.cnf, trace=trace, reference=reference)
        self._falsifying = counter.count()
        assert counter.trace_root is not None
        with _span("compile.trace_build"):
            self.circuit = trace.build(
                counter.trace_root, encoding.cnf.num_variables
            )
        self._db = db
        self._choices = encoding.choices
        self.total_valuations = encoding.total_valuations
        self._count = encoding.count_from_models(self._falsifying)
        self.num_matches = encoding.num_matches
        self.num_clauses = len(encoding.cnf)
        stats = counter.stats()
        self.heuristic_width = stats["width"]
        self.cache_entries = stats["cache_entries"]
        self.components_split = stats["components_split"]
        self._wire_bytes: int | None = None

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The artifact as a versioned binary payload.

        Only process-independent state travels: the d-DNNF node table and
        the scalar compile statistics.  The choice-variable map is *not*
        serialized — :meth:`from_bytes` rebuilds it deterministically from
        the instance, which keeps the format free of pickled objects.
        """
        writer = Writer()
        writer.uint(self._count)
        writer.uint(self.total_valuations)
        writer.uint(self.num_matches)
        writer.uint(self.num_clauses)
        _write_optional_uint(writer, self.heuristic_width)
        writer.uint(self.cache_entries)
        writer.uint(self.components_split)
        with _span("compile.serialize", nodes=self.circuit.num_nodes):
            writer.blob(dumps_circuit(self.circuit))
        return frame(VALUATION_MAGIC, writer.getvalue())

    @classmethod
    def from_bytes(
        cls, data: bytes, db: IncompleteDatabase
    ) -> "ValuationCircuit":
        """Rehydrate an artifact compiled (possibly elsewhere) for ``db``.

        The choice-variable map is reconstructed from ``db`` — variable
        allocation is deterministic (nulls in database order, domain
        values sorted), so the rebuilt map names exactly the variables the
        serialized circuit was compiled over; the variable-count check
        below rejects an artifact paired with the wrong database.  Raises
        :class:`~repro.compile.serialize.CircuitFormatError` on version
        mismatch, corruption, or an instance mismatch.
        """
        reader = Reader(unframe(data, VALUATION_MAGIC))
        count = reader.uint()
        total_valuations = reader.uint()
        num_matches = reader.uint()
        num_clauses = reader.uint()
        heuristic_width = _read_optional_uint(reader)
        cache_entries = reader.uint()
        components_split = reader.uint()
        circuit = loads_circuit(reader.blob())
        reader.expect_end()

        cnf = CNF()
        choices = ChoiceVariables(cnf, db)
        # The complement encoding allocates choice variables only, so the
        # circuit's variable universe must be exactly the rebuilt map's.
        if circuit.num_variables != cnf.num_variables:
            raise CircuitFormatError(
                "artifact has %d variables but the database allocates %d "
                "choice variables — wrong instance for this payload"
                % (circuit.num_variables, cnf.num_variables)
            )
        if total_valuations != count_total_valuations(db):
            raise CircuitFormatError(
                "artifact total valuation count does not match the database"
            )
        compiled = cls.__new__(cls)
        compiled._falsifying = total_valuations - count
        compiled.circuit = circuit
        compiled._db = db
        compiled._choices = choices
        compiled.total_valuations = total_valuations
        compiled._count = count
        compiled.num_matches = num_matches
        compiled.num_clauses = num_clauses
        compiled.heuristic_width = heuristic_width
        compiled.cache_entries = cache_entries
        compiled.components_split = components_split
        compiled._wire_bytes = len(data)
        return compiled

    # -- deltas ------------------------------------------------------------

    def condition(self, delta) -> "ValuationCircuit":
        """The circuit of ``db.apply(delta)`` for a resolution-only delta.

        Resolving a null pins its choice-variable block (the chosen
        value's variable true, its siblings false); restricting a domain
        pins the removed values' variables false.  Either way the child
        circuit is one linear rewrite of the parent program
        (:meth:`DDNNF.condition <repro.compile.circuit.DDNNF.condition>`)
        — no lineage enumeration, no CNF, no search — and every answer
        (count, weighted counts, marginals, samples) is bit-identical to
        compiling the updated instance from scratch.

        Insert/delete deltas change the clause set itself; use
        :meth:`compile_componentwise` for those.  Raises
        :class:`ValueError` on a non-resolution delta or an invalid one
        (unknown null, value outside the domain).
        """
        from repro.db.deltas import ResolveNull, RestrictDomain

        child = self._db.apply(delta)  # validates the delta
        assignments: dict[int, bool] = {}
        if isinstance(delta, ResolveNull):
            for (null, value), variable in self._choices.items():
                if null == delta.null:
                    assignments[variable] = value == delta.value
        elif isinstance(delta, RestrictDomain):
            for (null, value), variable in self._choices.items():
                if null == delta.null and value not in delta.values:
                    assignments[variable] = False
        else:
            raise ValueError(
                "condition() handles resolution-only deltas; %s changes "
                "the clause set — recompile via compile_componentwise()"
                % type(delta).__name__
            )
        with _span(
            "delta.condition",
            kind=type(delta).__name__,
            pinned=len(assignments),
        ):
            conditioned = self.circuit.condition(assignments)
            derived = ValuationCircuit.__new__(ValuationCircuit)
            derived._falsifying = conditioned.count()
        _incr("delta.conditioning_passes")
        derived.circuit = conditioned
        derived._db = child
        derived._choices = _ChoiceView.from_parent(self._choices, child)
        derived.total_valuations = count_total_valuations(child)
        derived._count = derived.total_valuations - derived._falsifying
        derived.num_matches = self.num_matches
        derived.num_clauses = self.num_clauses
        derived.heuristic_width = self.heuristic_width
        derived.cache_entries = self.cache_entries
        derived.components_split = self.components_split
        derived._wire_bytes = None
        return derived

    @classmethod
    def compile_componentwise(
        cls,
        db: IncompleteDatabase,
        query: BooleanQuery,
        components=None,
    ) -> "ValuationCircuit":
        """Compile by independent lineage components, reusing cached ones.

        Model counts multiply across variable-disjoint CNF components, so
        each component compiles on its own and the sub-circuits splice
        under one product root — same answers as the monolithic
        constructor, bit for bit.  ``components`` is an optional
        component store (``get_component`` / ``put_component``; the
        engine passes its :class:`~repro.engine.cache.CountCache`): an
        insert/delete delta invalidates only the components whose
        clauses changed, every other sub-DAG is a cache hit.
        """
        with _span("compile.encode", mode="val"):
            encoding = compile_valuation_cnf(db, query)
        circuit, falsifying, stats = _compile_cnf_components(
            encoding.cnf, None, "val", components
        )
        compiled = cls.__new__(cls)
        compiled._falsifying = falsifying
        compiled.circuit = circuit
        compiled._db = db
        compiled._choices = encoding.choices
        compiled.total_valuations = encoding.total_valuations
        compiled._count = encoding.count_from_models(falsifying)
        compiled.num_matches = encoding.num_matches
        compiled.num_clauses = len(encoding.cnf)
        compiled.heuristic_width = stats["width"]
        compiled.cache_entries = stats["cache_entries"]
        compiled.components_split = stats["components_split"]
        compiled._wire_bytes = None
        return compiled

    # -- questions ---------------------------------------------------------

    def count(self) -> int:
        """``#Val(q)(D)`` — exact, big-int."""
        return self._count

    def weighted_count(self, weights: NullWeights | None = None):
        """Weighted ``#Val``: each satisfying valuation counts its product
        of per-null value weights (see
        :func:`repro.db.valuation.resolve_null_weights` for the weight
        table conventions).  Exact for int/Fraction weights; equals
        :meth:`count` under ``weights=None``."""
        resolved = resolve_null_weights(self._db, weights)
        if self.total_valuations == 0:
            return 0
        return self._weighted_satisfying(resolved)

    def marginals(
        self, weights: NullWeights | None = None
    ) -> dict[Null, dict[Term, Fraction]]:
        """``P[ν(⊥) = c | ν(D) |= q]`` for every null ``⊥`` and value ``c``.

        One upward and one downward circuit pass produce all pairs at
        once — this replaces conditioning the counter on ``⊥ = c`` and
        re-running the search per value.  Probabilities are exact
        :class:`~fractions.Fraction` values under the (possibly weighted)
        valuation distribution; raises :class:`ValueError` when no
        valuation satisfies the query.
        """
        resolved = resolve_null_weights(self._db, weights)
        return self._marginal_table(*self._satisfying_pair_masses(resolved))

    def _marginal_table(
        self, satisfying, pair_counts
    ) -> dict[Null, dict[Term, Fraction]]:
        if not satisfying:
            raise ValueError(
                "no satisfying valuation has nonzero weight; "
                "marginals are undefined"
            )
        table: dict[Null, dict[Term, Fraction]] = {}
        for (null, value), _variable in self._choices.items():
            table.setdefault(null, {})[value] = Fraction(
                pair_counts[(null, value)]
            ) / Fraction(satisfying)
        return table

    def weighted_count_many(
        self, weight_rows: Sequence[NullWeights | None]
    ) -> list:
        """:meth:`weighted_count` for N weight tables in one batched pass.

        Exactly ``[self.weighted_count(row) for row in weight_rows]`` —
        the circuit's upward pass runs once with length-N columns
        (:meth:`~repro.compile.circuit.DDNNF.evaluate_many`) instead of
        once per table.
        """
        resolved_rows = [
            resolve_null_weights(self._db, row) for row in weight_rows
        ]
        if not resolved_rows:
            return []
        if self.total_valuations == 0:
            return [0] * len(resolved_rows)
        falsifying = self.circuit.evaluate_many(
            [self._variable_weights(resolved) for resolved in resolved_rows]
        )
        return [
            self._weighted_total(resolved) - mass
            for resolved, mass in zip(resolved_rows, falsifying)
        ]

    def marginals_many(
        self, weight_rows: Sequence[NullWeights | None]
    ) -> list[dict[Null, dict[Term, Fraction]]]:
        """:meth:`marginals` for N weight tables in one batched pass.

        One batched upward+downward sweep
        (:meth:`~repro.compile.circuit.DDNNF.literal_counts_many`)
        replaces the per-table pass loop; each returned table equals the
        scalar result exactly.
        """
        resolved_rows = [
            resolve_null_weights(self._db, row) for row in weight_rows
        ]
        if not resolved_rows:
            return []
        counts_rows = self.circuit.literal_counts_many(
            [self._variable_weights(resolved) for resolved in resolved_rows]
        )
        return [
            self._marginal_table(
                *self._pair_masses_from_counts(resolved, counts)
            )
            for resolved, counts in zip(resolved_rows, counts_rows)
        ]

    def sample_valuation(
        self,
        rng: random.Random | None = None,
        seed: int | None = None,
        weights: NullWeights | None = None,
    ) -> dict[Null, Term]:
        """One satisfying valuation, drawn exactly (uniform by default,
        or proportional to its weight product) by iterated conditioning:
        each null is pinned from its conditional marginal given the pins
        so far — ``k`` linear passes, never a rejection.  Raises
        :class:`ValueError` when the query is unsatisfiable."""
        if rng is None:
            rng = random.Random(seed)
        resolved = resolve_null_weights(self._db, weights)
        if not self._db.nulls:
            if self._count == 0:
                raise ValueError(
                    "no satisfying valuation has nonzero weight; "
                    "nothing to sample"
                )
            return {}
        pinned: dict[Null, Term] = {}
        live = {null: dict(table) for null, table in resolved.items()}
        for null in self._db.nulls:
            _satisfying, pair_counts = self._satisfying_pair_masses(live)
            values = sorted(live[null], key=repr)
            masses = [pair_counts[(null, value)] for value in values]
            if not sum(masses):
                # Only possible at the first null (conditioning preserves
                # positive mass), i.e. the whole satisfying set has zero
                # weight — the check rides the pass that was needed
                # anyway instead of costing a pass of its own.
                raise ValueError(
                    "no satisfying valuation has nonzero weight; "
                    "nothing to sample"
                )
            choice = values[draw_index(rng, masses)]
            pinned[null] = choice
            live[null] = {choice: resolved[null][choice]}
        return pinned

    # -- complement arithmetic ---------------------------------------------

    def _variable_weights(self, resolved: dict) -> dict:
        """Per-variable ``(true, false)`` weights from per-null tables.

        A model sets exactly one choice variable per null (values a table
        omits are conditioned away with weight 0), so giving the *true*
        polarity the null-value weight and every *false* polarity weight 1
        makes the model's weight the valuation's product.
        """
        table = {}
        for (null, value), variable in self._choices.items():
            table[variable] = (resolved[null].get(value, 0), 1)
        return table

    def _weighted_total(self, resolved: dict):
        total: object = 1
        for null in self._db.nulls:
            total = total * sum(resolved[null].values())  # type: ignore[operator]
        return total

    def _weighted_satisfying(self, resolved: dict):
        """Weighted mass of the satisfying valuations: total - falsifying."""
        falsifying = self.circuit.evaluate(self._variable_weights(resolved))
        return self._weighted_total(resolved) - falsifying

    def _satisfying_pair_masses(self, resolved: dict) -> tuple:
        """``(satisfying total, (null, value) -> weighted mass of
        satisfying valuations with ν(null) = value)``, in two passes.

        The pinned total factorizes (``w(⊥, c) · prod_others sum``); the
        falsifying share of the pin is the literal count of the pair's
        choice variable in the complement circuit.  The satisfying total
        rides the same pass: smoothness gives the falsifying total as
        ``counts[v] + counts[-v]`` of any choice variable, so no separate
        upward evaluation is needed.
        """
        counts = self.circuit.literal_counts(self._variable_weights(resolved))
        return self._pair_masses_from_counts(resolved, counts)

    def _pair_masses_from_counts(self, resolved: dict, counts: dict) -> tuple:
        """The pair-mass arithmetic of :meth:`_satisfying_pair_masses`
        applied to an already-computed literal-count table (which is how
        the batched pass shares one sweep across N weight rows)."""
        totals = {
            null: sum(resolved[null].values()) for null in self._db.nulls
        }
        grand = self._weighted_total(resolved)
        pairs = self._choices.items()
        if pairs:
            _pair, any_variable = pairs[0]
            falsifying = counts[any_variable] + counts[-any_variable]
        else:  # ground database: the circuit is a constant
            falsifying = self.circuit.evaluate(None)
        masses = {}
        for (null, value), variable in pairs:
            weight = resolved[null].get(value, 0)
            if not weight:
                masses[(null, value)] = 0
                continue
            if isinstance(grand, int) and isinstance(totals[null], int):
                # grand is the product of the totals, so this is exact.
                pinned_total = grand // totals[null] * weight
            else:
                pinned_total = grand * weight / totals[null]
            masses[(null, value)] = pinned_total - counts[variable]
        return grand - falsifying, masses

    @property
    def wire_bytes(self) -> int | None:
        """Exact serialized size when the artifact crossed the wire."""
        return self._wire_bytes

    def memory_bytes(self) -> int:
        """Resident size for cache accounting (circuit dominates).

        The structural estimate is used for every circuit — a rehydrated
        artifact occupies the same Python object graph as a local compile,
        so accounting stays symmetric; the (smaller) wire size only ever
        raises the figure, never lowers it.
        """
        estimate = self.circuit.memory_bytes() + 512
        if self._wire_bytes is not None and self._wire_bytes > estimate:
            return self._wire_bytes
        return estimate

    def __repr__(self) -> str:
        return "ValuationCircuit(count=%d, %r)" % (self._count, self.circuit)


class CompletionCircuit:
    """A compiled ``#Comp`` instance: the canonical-fact encoding's trace.

    The projected models of the recorded circuit are the completions of
    ``D`` (satisfying ``q`` when one was given), so beyond the exact
    :meth:`count` the circuit also answers per-fact membership marginals
    and samples completions uniformly — the completion-side analogues of
    the :class:`ValuationCircuit` passes.
    """

    def __init__(
        self,
        db: IncompleteDatabase,
        query: BooleanQuery | None = None,
        reference: bool = False,
    ) -> None:
        with _span("compile.encode", mode="comp"):
            encoding = compile_completion_cnf(db, query)
        trace = TraceBuilder()
        counter = ModelCounter(
            encoding.cnf,
            projection=encoding.projection,
            trace=trace,
            reference=reference,
        )
        self._count = counter.count()
        assert counter.trace_root is not None
        with _span("compile.trace_build"):
            self.circuit = trace.build(
                counter.trace_root,
                encoding.cnf.num_variables,
                countable=encoding.projection,
            )
        self._facts = encoding.facts
        self.num_clauses = len(encoding.cnf)
        stats = counter.stats()
        self.heuristic_width = stats["width"]
        self.cache_entries = stats["cache_entries"]
        self.components_split = stats["components_split"]
        self._sampler_cache: CircuitSampler | None = None
        self._wire_bytes: int | None = None

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The artifact as a versioned binary payload (see
        :meth:`ValuationCircuit.to_bytes` for the design)."""
        writer = Writer()
        writer.uint(self._count)
        writer.uint(self.num_clauses)
        _write_optional_uint(writer, self.heuristic_width)
        writer.uint(self.cache_entries)
        writer.uint(self.components_split)
        with _span("compile.serialize", nodes=self.circuit.num_nodes):
            writer.blob(dumps_circuit(self.circuit))
        return frame(COMPLETION_MAGIC, writer.getvalue())

    @classmethod
    def from_bytes(
        cls, data: bytes, db: IncompleteDatabase
    ) -> "CompletionCircuit":
        """Rehydrate an artifact compiled (possibly elsewhere) for ``db``.

        The fact-variable map is rebuilt deterministically (choice
        variables first, then one variable per sorted potential fact,
        exactly as the encoder allocates them); the projection check
        rejects an artifact paired with the wrong database.
        """
        reader = Reader(unframe(data, COMPLETION_MAGIC))
        count = reader.uint()
        num_clauses = reader.uint()
        heuristic_width = _read_optional_uint(reader)
        cache_entries = reader.uint()
        components_split = reader.uint()
        circuit = loads_circuit(reader.blob())
        reader.expect_end()

        cnf = CNF()
        ChoiceVariables(cnf, db)  # allocates the choice block first
        facts = FactVariables(cnf, db)
        if circuit.countable != frozenset(facts.variables()):
            raise CircuitFormatError(
                "artifact projection does not match the database's "
                "potential facts — wrong instance for this payload"
            )
        compiled = cls.__new__(cls)
        compiled._count = count
        compiled.circuit = circuit
        compiled._facts = facts
        compiled.num_clauses = num_clauses
        compiled.heuristic_width = heuristic_width
        compiled.cache_entries = cache_entries
        compiled.components_split = components_split
        compiled._sampler_cache = None
        compiled._wire_bytes = len(data)
        return compiled

    # -- deltas ------------------------------------------------------------

    def condition_facts(
        self, assignments: "Mapping[Fact, bool]"
    ) -> "CompletionCircuit":
        """Pin potential facts in or out of the counted completions.

        A ``True`` fact is forced into every completion, a ``False`` one
        excluded — one linear conditioning rewrite over the projected
        circuit, answers identical to re-encoding with the pins as unit
        clauses.  (Database *deltas* for ``#Comp`` change the potential
        facts themselves and therefore recompile componentwise; this is
        the pure conditioning move that stays within one instance.)
        """
        pinned = {
            self._facts.var(fact): bool(value)
            for fact, value in assignments.items()
        }
        with _span("delta.condition", kind="facts", pinned=len(pinned)):
            conditioned = self.circuit.condition(pinned)
            derived = CompletionCircuit.__new__(CompletionCircuit)
            derived._count = conditioned.count()
        _incr("delta.conditioning_passes")
        derived.circuit = conditioned
        derived._facts = self._facts
        derived.num_clauses = self.num_clauses
        derived.heuristic_width = self.heuristic_width
        derived.cache_entries = self.cache_entries
        derived.components_split = self.components_split
        derived._sampler_cache = None
        derived._wire_bytes = None
        return derived

    @classmethod
    def compile_componentwise(
        cls,
        db: IncompleteDatabase,
        query: BooleanQuery | None = None,
        components=None,
    ) -> "CompletionCircuit":
        """Componentwise ``#Comp`` compile with component reuse (the
        insert/delete delta path); see
        :meth:`ValuationCircuit.compile_componentwise`.  Projected counts
        multiply across variable-disjoint components just like full
        counts, so the spliced circuit's answers match the monolithic
        compile exactly."""
        with _span("compile.encode", mode="comp"):
            encoding = compile_completion_cnf(db, query)
        circuit, count, stats = _compile_cnf_components(
            encoding.cnf, encoding.projection, "comp", components
        )
        compiled = cls.__new__(cls)
        compiled._count = count
        compiled.circuit = circuit
        compiled._facts = encoding.facts
        compiled.num_clauses = len(encoding.cnf)
        compiled.heuristic_width = stats["width"]
        compiled.cache_entries = stats["cache_entries"]
        compiled.components_split = stats["components_split"]
        compiled._sampler_cache = None
        compiled._wire_bytes = None
        return compiled

    def count(self) -> int:
        """``#Comp(q)(D)`` — exact, big-int."""
        return self._count

    def fact_marginals(self) -> dict[Fact, Fraction]:
        """``P[g ∈ C]`` for every potential fact ``g``, ``C`` uniform over
        the counted completions.  Raises :class:`ValueError` on a count of
        zero."""
        if not self._count:
            raise ValueError(
                "no completion satisfies the query; marginals are undefined"
            )
        counts = self.circuit.literal_counts()
        return {
            fact: Fraction(counts[self._facts.var(fact)], self._count)
            for fact in self._facts.facts()
        }

    def _fact_variable_weights(
        self, fact_weights: "Mapping[Fact, object] | None"
    ) -> dict:
        """Per-variable ``(present, absent)`` weights from a per-fact
        table: a listed fact weighs ``w`` when the completion contains it
        and ``1`` when it does not (unlisted facts always weigh 1)."""
        table = {}
        for fact, weight in (fact_weights or {}).items():
            table[self._facts.var(fact)] = (weight, 1)
        return table

    def weighted_count(
        self, fact_weights: "Mapping[Fact, object] | None" = None
    ):
        """Weighted ``#Comp``: each counted completion weighs the product
        of ``fact_weights[g]`` over the potential facts ``g`` it contains.
        Exact for int/Fraction weights; equals :meth:`count` when no
        weights are given."""
        return self.circuit.evaluate(self._fact_variable_weights(fact_weights))

    def weighted_count_many(
        self, fact_weight_rows: "Sequence[Mapping[Fact, object] | None]"
    ) -> list:
        """:meth:`weighted_count` for N per-fact tables in one batched
        upward pass over the projected circuit."""
        return self.circuit.evaluate_many(
            [self._fact_variable_weights(row) for row in fact_weight_rows]
        )

    def fact_marginals_many(
        self, fact_weight_rows: "Sequence[Mapping[Fact, object] | None]"
    ) -> list[dict[Fact, Fraction]]:
        """:meth:`fact_marginals` under each of N completion weightings at
        once (one batched upward+downward pass); each table is exact.
        Raises :class:`ValueError` for a row whose weighted total is 0."""
        counts_rows = self.circuit.literal_counts_many(
            [self._fact_variable_weights(row) for row in fact_weight_rows]
        )
        facts = self._facts.facts()
        tables: list[dict[Fact, Fraction]] = []
        for counts in counts_rows:
            if facts:
                anchor = self._facts.var(facts[0])
                # Smoothness: both polarities of any projected variable
                # sum to the row's weighted completion total.
                total = counts[anchor] + counts[-anchor]
            else:
                total = self._count
            if not total:
                raise ValueError(
                    "no completion has nonzero weight; "
                    "marginals are undefined"
                )
            tables.append({
                fact: Fraction(counts[self._facts.var(fact)])
                / Fraction(total)
                for fact in facts
            })
        return tables

    def sample_completion(
        self, rng: random.Random | None = None, seed: int | None = None
    ) -> frozenset[Fact]:
        """One completion, uniform over the counted completions."""
        if rng is None:
            rng = random.Random(seed)
        if self._sampler_cache is None:
            self._sampler_cache = self.circuit.sampler()
        assignment = self._sampler_cache.sample(rng)
        return frozenset(
            fact
            for fact in self._facts.facts()
            if assignment.get(self._facts.var(fact))
        )

    @property
    def wire_bytes(self) -> int | None:
        """Exact serialized size when the artifact crossed the wire."""
        return self._wire_bytes

    def memory_bytes(self) -> int:
        """Resident size for cache accounting (circuit dominates); see
        :meth:`ValuationCircuit.memory_bytes` for the symmetry rationale."""
        estimate = self.circuit.memory_bytes() + 512
        if self._wire_bytes is not None and self._wire_bytes > estimate:
            return self._wire_bytes
        return estimate

    def __repr__(self) -> str:
        return "CompletionCircuit(count=%d, %r)" % (self._count, self.circuit)


# ---------------------------------------------------------------------------
# componentwise compilation (the insert/delete delta path)
# ---------------------------------------------------------------------------


def _remap_component_program(
    code: Sequence[int],
    offsets: Sequence[int],
    variables: Sequence[int],
    node_base: int,
    out_code: list[int],
    out_offsets: list[int],
) -> None:
    """Append a component-local program to the global one.

    Local variable ``i + 1`` becomes ``variables[i]``; node ids shift by
    ``node_base``.  Children stay before parents, so the spliced program
    remains a valid topological flat circuit.
    """
    for offset in offsets:
        out_offsets.append(len(out_code))
        kind = code[offset]
        if kind == KIND_FALSE or kind == KIND_TRUE:
            out_code.append(kind)
        elif kind == KIND_PRODUCT:
            length = code[offset + 1]
            out_code.append(KIND_PRODUCT)
            out_code.append(length)
            out_code.extend(
                node_base + child
                for child in code[offset + 2:offset + 2 + length]
            )
        else:
            nbranches = code[offset + 1]
            out_code.append(KIND_DECISION)
            out_code.append(nbranches)
            cursor = offset + 2
            for _ in range(nbranches):
                nlits = code[cursor]
                cursor += 1
                out_code.append(nlits)
                for literal in code[cursor:cursor + nlits]:
                    variable = variables[abs(literal) - 1]
                    out_code.append(variable if literal > 0 else -variable)
                cursor += nlits
                nfree = code[cursor]
                cursor += 1
                out_code.append(nfree)
                for freed in code[cursor:cursor + nfree]:
                    out_code.append(variables[freed - 1])
                cursor += nfree
                out_code.append(node_base + code[cursor])
                cursor += 1


def _compile_cnf_components(
    cnf: CNF,
    projection,
    kind: str,
    components,
) -> tuple[DDNNF, int, dict]:
    """Compile a CNF one clause-component at a time and splice the parts.

    Returns ``(circuit, model_count, stats)``; the count is the (projected
    when ``projection`` is given) model count of the whole CNF, exact.
    ``components`` is an optional store with ``get_component`` /
    ``put_component`` keyed by :func:`~repro.compile.lineage.component_key`
    — components unchanged across database versions are reused without
    recompilation (counted on ``delta.components.reused``).
    """
    projection_set = None if projection is None else frozenset(projection)
    all_clauses = list(cnf.clauses)
    num_variables = cnf.num_variables
    if any(not clause for clause in all_clauses):
        # An empty clause makes the CNF unsatisfiable outright (the
        # trivially-true valuation encoding emits one); no component
        # structure survives it.
        circuit = DDNNF.from_program(
            [KIND_FALSE], [0], 0, num_variables,
            range(1, num_variables + 1)
            if projection_set is None else projection_set,
        )
        return circuit, 0, {
            "width": None, "cache_entries": 0, "components_split": 0,
        }
    with _span("delta.splice", mode=kind, clauses=len(all_clauses)):
        parts = clause_components(num_variables, all_clauses)
        code: list[int] = []
        offsets: list[int] = []
        roots: list[int] = []
        covered: set[int] = set()
        total = 1
        width: int | None = None
        cache_entries = 0
        reused = recompiled = 0
        get_component = getattr(components, "get_component", None)
        put_component = getattr(components, "put_component", None)
        for variables, clause_indices in parts:
            covered.update(variables)
            clauses = [all_clauses[index] for index in clause_indices]
            countable_globals = (
                () if projection_set is None
                else [v for v in variables if v in projection_set]
            )
            key = component_key(kind, variables, clauses, countable_globals)
            entry = get_component(key) if get_component is not None else None
            if entry is None:
                recompiled += 1
                local = {
                    variable: i + 1 for i, variable in enumerate(variables)
                }
                local_clauses = [
                    tuple(
                        (1 if literal > 0 else -1) * local[abs(literal)]
                        for literal in clause
                    )
                    for clause in clauses
                ]
                local_cnf = CNF(len(variables), local_clauses)
                local_projection = (
                    None if projection_set is None
                    else frozenset(local[v] for v in countable_globals)
                )
                trace = TraceBuilder()
                counter = ModelCounter(
                    local_cnf, projection=local_projection, trace=trace
                )
                local_count = counter.count()
                assert counter.trace_root is not None
                if local_projection is None:
                    local_circuit = trace.build(
                        counter.trace_root, local_cnf.num_variables
                    )
                else:
                    local_circuit = trace.build(
                        counter.trace_root,
                        local_cnf.num_variables,
                        countable=local_projection,
                    )
                stats = counter.stats()
                entry = {
                    "code": local_circuit._code,
                    "offsets": local_circuit._offsets,
                    "root": local_circuit.root,
                    "count": local_count,
                    "width": stats["width"],
                    "cache_entries": stats["cache_entries"],
                }
                if put_component is not None:
                    put_component(key, entry)
            else:
                reused += 1
            node_base = len(offsets)
            _remap_component_program(
                entry["code"], entry["offsets"], variables,
                node_base, code, offsets,
            )
            roots.append(node_base + entry["root"])
            total *= entry["count"]
            if entry["width"] is not None:
                width = (
                    entry["width"] if width is None
                    else max(width, entry["width"])
                )
            cache_entries += entry["cache_entries"]
        # Countable variables in no clause at all are unconstrained: each
        # doubles the count.  (Neither encoding produces them — choice
        # variables sit in exactly-one blocks, fact variables in image
        # clauses — but the splice stays correct if one ever appears.)
        uncovered = [
            variable
            for variable in range(1, num_variables + 1)
            if variable not in covered
            and (projection_set is None or variable in projection_set)
        ]
        if uncovered:
            offsets.append(len(code))
            code.append(KIND_TRUE)
            true_node = len(offsets) - 1
            offsets.append(len(code))
            code.extend(
                [KIND_DECISION, 1, 0, len(uncovered)]
                + uncovered + [true_node]
            )
            roots.append(len(offsets) - 1)
            total <<= len(uncovered)
        if not roots:
            offsets.append(len(code))
            code.append(KIND_TRUE)
            root = len(offsets) - 1
        elif len(roots) == 1:
            root = roots[0]
        else:
            offsets.append(len(code))
            code.append(KIND_PRODUCT)
            code.append(len(roots))
            code.extend(roots)
            root = len(offsets) - 1
        circuit = DDNNF.from_program(
            code, offsets, root, num_variables,
            range(1, num_variables + 1)
            if projection_set is None else projection_set,
        )
        circuit._count = total
    _incr("delta.components.reused", reused)
    _incr("delta.components.recompiled", recompiled)
    return circuit, total, {
        "width": width,
        "cache_entries": cache_entries,
        "components_split": len(parts),
    }


def artifact_from_bytes(
    data: bytes, db: IncompleteDatabase
) -> "ValuationCircuit | CompletionCircuit":
    """Rehydrate a wrapper artifact of either kind, dispatched on magic.

    The engine uses this to install worker-compiled circuits without
    caring which problem family produced them.  Raises
    :class:`~repro.compile.serialize.CircuitFormatError` on anything that
    is not a trustworthy wrapper payload for ``db``.
    """
    if data[:4] == VALUATION_MAGIC:
        return ValuationCircuit.from_bytes(data, db)
    if data[:4] == COMPLETION_MAGIC:
        return CompletionCircuit.from_bytes(data, db)
    raise CircuitFormatError(
        "bad magic %r: not a circuit artifact" % (bytes(data[:4]),)
    )


def valuation_marginals_recount(
    db: IncompleteDatabase, query: BooleanQuery
) -> dict[Null, dict[Term, Fraction]]:
    """Reference marginals by conditioning and re-counting, per value.

    One full model-counting search per ``(null, value)`` pair — the loop
    the circuit passes replace.  Kept as the cross-validation oracle and
    the honest baseline for the amortization benchmark.
    """
    encoding = compile_valuation_cnf(db, query)
    total = encoding.total_valuations
    satisfying = total - count_models(encoding.cnf)
    if not satisfying:
        raise ValueError(
            "no valuation satisfies the query; marginals are undefined"
        )
    result: dict[Null, dict[Term, Fraction]] = {}
    for null in db.nulls:
        domain = sorted(db.domain_of(null), key=repr)
        pinned_total = total // len(domain)
        for value in domain:
            variable = encoding.choices.var(null, value)
            pinned = CNF(
                encoding.cnf.num_variables,
                list(encoding.cnf.clauses) + [(variable,)],
            )
            satisfying_pinned = pinned_total - count_models(pinned)
            result.setdefault(null, {})[value] = Fraction(
                satisfying_pinned, satisfying
            )
    return result


# ---------------------------------------------------------------------------
# explain reports
# ---------------------------------------------------------------------------


@dataclass
class LineageReport:
    """Size and difficulty statistics of one lineage compilation."""

    mode: str
    count: int
    num_variables: int
    num_clauses: int
    heuristic_width: int | None
    cache_entries: int
    components_split: int
    circuit_nodes: int | None = None
    circuit_edges: int | None = None


def explain_completions(
    db: IncompleteDatabase, query: BooleanQuery | None = None
) -> LineageReport:
    """Run the ``#Comp`` backend and report what the counter saw."""
    encoding = compile_completion_cnf(db, query)
    counter = ModelCounter(encoding.cnf, projection=encoding.projection)
    return _report("comp", counter.count(), encoding.cnf, counter)


def explain_valuations_circuit(
    db: IncompleteDatabase, query: BooleanQuery
) -> tuple[LineageReport, ValuationCircuit]:
    """Compile the circuit pipeline and report both search and circuit."""
    compiled = ValuationCircuit(db, query)
    report = LineageReport(
        mode="val",
        count=compiled.count(),
        num_variables=compiled.circuit.num_variables,
        num_clauses=compiled.num_clauses,
        heuristic_width=compiled.heuristic_width,
        cache_entries=compiled.cache_entries,
        components_split=compiled.components_split,
        circuit_nodes=compiled.circuit.num_nodes,
        circuit_edges=compiled.circuit.num_edges,
    )
    return report, compiled


def _report(mode, count, cnf, counter) -> LineageReport:
    stats = counter.stats()
    return LineageReport(
        mode=mode,
        count=count,
        num_variables=cnf.num_variables,
        num_clauses=len(cnf),
        heuristic_width=stats["width"],
        cache_entries=stats["cache_entries"],
        components_split=stats["components_split"],
    )


__all__ = [
    "artifact_from_bytes",
    "count_valuations_lineage",
    "count_completions_lineage",
    "ValuationCircuit",
    "CompletionCircuit",
    "valuation_marginals_recount",
    "explain_completions",
    "explain_valuations_circuit",
    "LineageReport",
    "lineage_supports",
]
