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
  caches by instance fingerprint.  A resolve or restrict update of the
  instance conditions its ``#Val`` circuit
  (:meth:`ValuationCircuit.condition`); any other update compiles the
  updated instance.

Either way the cost of the hard part is exponential only in the
(heuristic) treewidth of the lineage, not in the number of nulls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Any, Iterable, Mapping, Sequence

from repro.complexity.cnf import CNF
from repro.compile.circuit import CircuitSampler, DDNNF, draw_index
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.dpdb import memoized_probe
from repro.compile.encode import (
    compile_completion_cnf,
    compile_valuation_cnf,
)
from repro.compile.lineage import lineage_supports
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
    named_null_weights,
    resolve_null_weights,
)
from repro.obs import incr as _incr, span as _span
from repro.util.rng import resolve_rng


def count_valuations_lineage(
    db: IncompleteDatabase, query: BooleanQuery
) -> int:
    """``#Val(q)(D)`` via lineage compilation and exact model counting."""
    # A probe's encoding only: the search orders by nulls, the probe by
    # variables.
    probe = memoized_probe("val", db, query)
    encoding = probe.encoding if probe else compile_valuation_cnf(db, query)
    if encoding.total_valuations == 0:
        return 0
    return encoding.count_from_models(count_models(encoding.cnf))


def count_completions_lineage(
    db: IncompleteDatabase, query: BooleanQuery | None = None
) -> int:
    """``#Comp(q)(D)`` via the canonical-fact encoding and projected
    exact model counting (``query=None`` counts all completions)."""
    # A probe's encoding only: its elimination delays the projection.
    probe = memoized_probe("comp", db, query)
    encoding = probe.encoding if probe else compile_completion_cnf(db, query)
    return count_models(encoding.cnf, projection=encoding.projection)


# ---------------------------------------------------------------------------
# compiled circuits: one search, many questions
# ---------------------------------------------------------------------------


def _trace_compile(
    cnf: CNF,
    projection: Iterable[int] | None = None,
    reference: bool = False,
) -> tuple[DDNNF, int, tuple]:
    """One trace-recording search over ``cnf``: ``(circuit, count, stats)``.

    The count is the model count, projected onto ``projection`` when one
    is given, and the circuit counts over the same variables.  ``stats``
    is ``(heuristic width, cache entries, components split)``.  Both
    artifact constructors run through here; ``reference`` runs the
    retained tuple-based core
    (:class:`~repro.compile.sharpsat_reference.ReferenceModelCounter`)
    instead of the trail core.
    """
    trace = TraceBuilder()
    if reference:
        from repro.compile.sharpsat_reference import ReferenceModelCounter

        counter: ModelCounter | ReferenceModelCounter = ReferenceModelCounter(
            cnf, projection=projection, trace=trace
        )
    else:
        counter = ModelCounter(cnf, projection=projection, trace=trace)
    count = counter.count()
    assert counter.trace_root is not None
    with _span("compile.trace_build"):
        circuit = trace.build(
            counter.trace_root, cnf.num_variables, countable=projection
        )
    stats = counter.stats()
    return circuit, count, (
        stats["width"], stats["cache_entries"], stats["components_split"]
    )


class _CircuitArtifact:
    """What both compiled artifacts share: construction, statistics, codec.

    Every construction path ends in one initializer, :meth:`_init`: the
    traced compile (the constructor), delta conditioning
    (:meth:`ValuationCircuit.condition`) and rehydration
    (:meth:`from_bytes`).  A subclass supplies its encoding
    (``_compile``), the rebuild of its variable map from an instance
    (``_rebind``) and its questions.  ``_variables`` is that map; the
    :attr:`header` attributes travel in the frame right after the count.
    """

    #: ``'val'`` or ``'comp'``: the :data:`ARTIFACTS` key.
    kind: str
    #: Frame magic of :meth:`to_bytes`.
    magic: bytes
    #: Per-kind uint attributes framed between the count and the stats.
    header: tuple[str, ...] = ()

    def __init__(
        self,
        db: IncompleteDatabase,
        query: BooleanQuery | None = None,
        reference: bool = False,
    ) -> None:
        self._init(*self._compile(db, query, reference))

    @classmethod
    def _compile(cls, db, query, reference: bool) -> tuple:
        """Encode ``(db, query)``, compile the CNF with
        :func:`_trace_compile` and return the :meth:`_init` arguments."""
        raise NotImplementedError

    @staticmethod
    def _rebind(db: IncompleteDatabase, circuit: DDNNF, header: tuple):
        """The variable map of ``db`` for a rehydrated ``circuit``; raises
        :class:`~repro.compile.serialize.CircuitFormatError` when the
        payload cannot belong to ``db``."""
        raise NotImplementedError

    @classmethod
    def _build(cls, *parts):
        artifact = cls.__new__(cls)
        artifact._init(*parts)
        return artifact

    def _init(
        self,
        db: IncompleteDatabase,
        variables,
        header: tuple,
        circuit: DDNNF,
        count: int,
        stats: tuple,
    ) -> None:
        self._db = db
        self._variables = variables
        for name, value in zip(self.header, header):
            setattr(self, name, value)
        self.circuit = circuit
        self._count = count
        (
            self.num_clauses,
            self.heuristic_width,
            self.cache_entries,
            self.components_split,
        ) = stats

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The artifact as a versioned binary payload.

        Only process-independent state travels: the count, the
        :attr:`header` fields, the compile statistics and the d-DNNF node
        table.  The variable map is *not* serialized — :meth:`from_bytes`
        rebuilds it deterministically from the instance, which keeps the
        format free of pickled objects.
        """
        writer = Writer()
        writer.uint(self._count)
        for name in self.header:
            writer.uint(getattr(self, name))
        writer.uint(self.num_clauses)
        width = self.heuristic_width  # framed as width + 1, 0 for None
        writer.uint(0 if width is None else width + 1)
        writer.uint(self.cache_entries)
        writer.uint(self.components_split)
        with _span("compile.serialize", nodes=self.circuit.num_nodes):
            writer.blob(dumps_circuit(self.circuit))
        return frame(self.magic, writer.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes, db: IncompleteDatabase):
        """Rehydrate an artifact compiled (possibly elsewhere) for ``db``.

        The variable map is rebuilt from ``db`` — variable allocation is
        deterministic (choice variables in null order with sorted domain
        values, then one variable per sorted potential fact), so the
        rebuilt map names exactly the variables the serialized circuit
        was compiled over.  Raises
        :class:`~repro.compile.serialize.CircuitFormatError` on version
        mismatch, corruption, or a payload paired with the wrong
        database.
        """
        reader = Reader(unframe(data, cls.magic))
        count = reader.uint()
        header = tuple(reader.uint() for _name in cls.header)
        num_clauses, width = reader.uint(), reader.uint()
        stats = (
            num_clauses, width - 1 if width else None,
            reader.uint(), reader.uint(),
        )
        circuit = loads_circuit(reader.blob())
        reader.expect_end()
        variables = cls._rebind(db, circuit, header)
        return cls._build(db, variables, header, circuit, count, stats)

    # -- accounting --------------------------------------------------------

    def count(self) -> int:
        """The exact, big-int count (``#Val`` resp. ``#Comp``)."""
        return self._count

    def memory_bytes(self) -> int:
        """Resident size for cache accounting (circuit dominates).

        The structural estimate is used for every circuit — a rehydrated
        artifact occupies the same Python object graph as a local compile,
        so accounting stays symmetric.
        """
        return self.circuit.memory_bytes() + 512

    def __repr__(self) -> str:
        return "%s(count=%d, %r)" % (
            type(self).__name__, self._count, self.circuit
        )


class ValuationCircuit(_CircuitArtifact):
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

    The scalar questions are the one-row case of their ``_many`` passes.
    ``query`` is required: lineage rejects a missing one.
    """

    kind = "val"
    magic = b"RVAL"
    header = ("total_valuations", "num_matches")
    total_valuations: int
    num_matches: int
    #: ``((null, value), variable)`` pairs in variable order.  A
    #: conditioned circuit keeps the parent's variable universe, so its
    #: surviving pairs keep the parent's ids.
    _variables: list[tuple[tuple[Null, Term], int]]

    @classmethod
    def _compile(cls, db, query, reference: bool) -> tuple:
        encoding = compile_valuation_cnf(db, query)
        circuit, falsifying, stats = _trace_compile(
            encoding.cnf, None, reference
        )
        return (
            db,
            encoding.choices.items(),
            (encoding.total_valuations, encoding.num_matches),
            circuit,
            encoding.count_from_models(falsifying),
            (len(encoding.cnf), *stats),
        )

    @staticmethod
    def _rebind(db, circuit, header):
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
        if header[0] != count_total_valuations(db):
            raise CircuitFormatError(
                "artifact total valuation count does not match the database"
            )
        return choices.items()

    def to_bytes(self) -> bytes:
        """See :meth:`_CircuitArtifact.to_bytes`.

        Raises :class:`ValueError` on a conditioned artifact whose
        instance lost choice variables: conditioning keeps the parent's
        variable universe, rehydration rebuilds the instance's own, so
        no instance would accept the payload.
        """
        if self.circuit.num_variables != len(self._variables):
            raise ValueError(
                "cannot serialize a conditioned artifact: its circuit keeps "
                "the parent's %d choice variables but its instance "
                "allocates %d; compile the instance to ship it"
                % (self.circuit.num_variables, len(self._variables))
            )
        return super().to_bytes()

    # -- deltas ------------------------------------------------------------

    def condition(self, delta) -> "ValuationCircuit":
        """The circuit of ``db.apply(delta)`` for a resolution-only delta.

        Resolving a null pins its choice-variable block (the chosen
        value's variable true, its siblings false); restricting a domain
        pins the removed values' variables false.  Either way the child
        circuit shares the parent's program and level plan and carries the
        pins (:meth:`DDNNF.condition
        <repro.compile.circuit.DDNNF.condition>`): a pin vector plus one count
        — no lineage enumeration, no CNF, no search, no rewrite — and
        every answer (count, weighted counts, marginals, samples) is
        bit-identical to compiling the updated instance from scratch.

        Insert/delete deltas change the clause set itself: compile the
        updated instance instead.  Raises :class:`ValueError` on a
        non-resolution delta or an invalid one (unknown null, value
        outside the domain).
        """
        return self.condition_to(self._db.apply(delta))  # validates it

    def condition_to(self, child: IncompleteDatabase) -> "ValuationCircuit":
        """:meth:`condition` on ``child.delta``, answering for ``child``.

        ``child`` must be ``db.apply(child.delta)`` for a database ``db``
        equal to this circuit's: a node of a delta chain the caller holds
        already, so conditioning along the chain builds no database.
        """
        from repro.db.deltas import ResolveNull, RestrictDomain

        delta = child.delta
        assignments: dict[int, bool] = {}
        if isinstance(delta, ResolveNull):
            for (null, value), variable in self._variables:
                if null == delta.null:
                    assignments[variable] = value == delta.value
        elif isinstance(delta, RestrictDomain):
            for (null, value), variable in self._variables:
                if null == delta.null and value not in delta.values:
                    assignments[variable] = False
        else:
            raise ValueError(
                "condition() handles resolution-only deltas; %s changes "
                "the clause set — compile the updated instance instead"
                % type(delta).__name__
            )
        with _span(
            "delta.condition",
            kind=type(delta).__name__,
            pinned=len(assignments),
        ):
            conditioned = self.circuit.condition(assignments)
            falsifying = conditioned.count()
        _incr("delta.conditioning_passes")
        live = {
            (null, value)
            for null in child.nulls
            for value in child.domain_of(null)
        }
        total = count_total_valuations(child)
        return self._build(
            child,
            [(pair, variable) for pair, variable in self._variables
             if pair in live],
            (total, self.num_matches),
            conditioned,
            total - falsifying,
            (
                self.num_clauses,
                self.heuristic_width,
                self.cache_entries,
                self.components_split,
            ),
        )

    # -- questions ---------------------------------------------------------

    def weighted_count(self, weights: NullWeights | None = None):
        """Weighted ``#Val``: each satisfying valuation counts its product
        of per-null value weights (see
        :func:`repro.db.valuation.resolve_null_weights` for the weight
        table conventions).  Exact for int/Fraction weights; equals
        :meth:`count` under ``weights=None``."""
        return self.weighted_count_many([weights])[0]

    def weighted_count_many(
        self, weight_rows: Sequence[NullWeights | None]
    ) -> list:
        """:meth:`weighted_count` for N weight tables in one batched pass:
        the circuit's upward pass runs once with length-N columns
        (:meth:`~repro.compile.circuit.DDNNF.evaluate_columns`) instead of
        once per table.

        The columns come straight from the rows: each row is checked as
        :func:`~repro.db.valuation.resolve_null_weights` checks it, but
        only the nulls a row names are materialized, and the nulls it
        leaves out contribute one constant factor to its weighted total.
        """
        named_rows = [
            named_null_weights(self._db, row) for row in weight_rows
        ]
        if self.total_valuations == 0:
            return [0] * len(named_rows)
        count = len(named_rows)
        ones = [1] * count
        columns = {}
        for null in dict.fromkeys(
            null for named in named_rows for null in named
        ):
            tables = [named.get(null) for named in named_rows]
            for value, variable in self._choices.get(null, ()):
                columns[variable] = ([
                    1 if table is None else table.get(value, 0)
                    for table in tables
                ], ones)
        falsifying = self.circuit.evaluate_columns(count, columns)
        unnamed: dict = {}  # the nulls a row names -> the rest's factor
        answers = []
        for named, mass in zip(named_rows, falsifying):
            key = frozenset(named)
            if key not in unnamed:
                factor = 1
                for null in self._db.nulls:
                    if null not in key:
                        factor *= len(self._db.domain_of(null))
                unnamed[key] = factor
            total = unnamed[key]
            for table in named.values():
                total = total * sum(table.values())
            answers.append(total - mass)
        return answers

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
        return self.marginals_many([weights])[0]

    def marginals_many(
        self, weight_rows: Sequence[NullWeights | None]
    ) -> list[dict[Null, dict[Term, Fraction]]]:
        """:meth:`marginals` for N weight tables in one batched
        upward+downward sweep
        (:meth:`~repro.compile.circuit.DDNNF.literal_counts_many`)."""
        resolved_rows = [
            resolve_null_weights(self._db, row) for row in weight_rows
        ]
        counts_rows = self.circuit.literal_counts_many(
            [self._variable_weights(resolved) for resolved in resolved_rows]
        )
        tables = []
        for resolved, counts in zip(resolved_rows, counts_rows):
            satisfying, masses = self._pair_masses(resolved, counts)
            if not satisfying:
                raise ValueError(
                    "no satisfying valuation has nonzero weight; "
                    "marginals are undefined"
                )
            table: dict[Null, dict[Term, Fraction]] = {}
            for (null, value), mass in masses.items():
                table.setdefault(null, {})[value] = Fraction(
                    mass
                ) / Fraction(satisfying)
            tables.append(table)
        return tables

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
        :class:`ValueError` when no satisfying valuation has nonzero
        weight (the query is unsatisfiable, or ``weights`` zero it out),
        when ``weights`` is malformed or holds a negative weight, and when
        both ``seed`` and ``rng`` are passed."""
        rng = resolve_rng(seed, rng)
        resolved = resolve_null_weights(self._db, weights)
        if any(
            weight < 0 for table in resolved.values()
            for weight in table.values()
        ):
            raise ValueError("cannot sample under a negative weight")
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
            _satisfying, pair_counts = self._pair_masses(
                live, self.circuit.literal_counts(self._variable_weights(live))
            )
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

    @cached_property
    def _choices(self) -> dict[Null, list[tuple[Term, int]]]:
        """``null -> [(value, choice variable), ...]`` over the live pairs."""
        choices: dict[Null, list[tuple[Term, int]]] = {}
        for (null, value), variable in self._variables:
            choices.setdefault(null, []).append((value, variable))
        return choices

    def _variable_weights(self, resolved: dict) -> dict:
        """Per-variable ``(true, false)`` weights from per-null tables.

        A model sets exactly one choice variable per null (values a table
        omits are conditioned away with weight 0), so giving the *true*
        polarity the null-value weight and every *false* polarity weight 1
        makes the model's weight the valuation's product.
        """
        table = {}
        for (null, value), variable in self._variables:
            table[variable] = (resolved[null].get(value, 0), 1)
        return table

    def _pair_masses(self, resolved: dict, counts: dict) -> tuple:
        """``(satisfying total, (null, value) -> weighted mass of
        satisfying valuations with ν(null) = value)`` from the literal
        counts of the complement circuit under ``resolved``.

        The pinned total factorizes (``w(⊥, c) · prod_others sum``); the
        falsifying share of the pin is the literal count of the pair's
        choice variable.  The satisfying total rides the same pass:
        smoothness gives the falsifying total as ``counts[v] +
        counts[-v]`` of any choice variable, so no separate upward
        evaluation is needed.  Each null's product over the others comes
        from prefix and suffix products in null order, never by dividing
        the grand total: signed weights can make one null's total 0.
        """
        nulls = self._db.nulls
        totals = [sum(resolved[null].values()) for null in nulls]
        before = list(accumulate(totals, mul, initial=1))
        after = list(accumulate(reversed(totals), mul, initial=1))[::-1]
        others = {
            null: before[i] * after[i + 1] for i, null in enumerate(nulls)
        }
        grand = before[-1]
        pairs = self._variables
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
            masses[(null, value)] = others[null] * weight - counts[variable]
        return grand - falsifying, masses


class CompletionCircuit(_CircuitArtifact):
    """A compiled ``#Comp`` instance: the canonical-fact encoding's trace.

    The projected models of the recorded circuit are the completions of
    ``D`` (satisfying ``q`` when one was given), so beyond the exact
    :meth:`count` the circuit also answers weighted counts, per-fact
    membership marginals and uniform completion samples — the
    completion-side analogues of the :class:`ValuationCircuit` passes.
    """

    kind = "comp"
    magic = b"RCMP"
    #: The potential facts' variables (rebuilt after the choice block).
    _variables: FactVariables

    @classmethod
    def _compile(cls, db, query, reference: bool) -> tuple:
        encoding = compile_completion_cnf(db, query)
        circuit, count, stats = _trace_compile(
            encoding.cnf, encoding.projection, reference
        )
        return (
            db, encoding.facts, (), circuit, count,
            (len(encoding.cnf), *stats),
        )

    @staticmethod
    def _rebind(db, circuit, header):
        cnf = CNF()
        ChoiceVariables(cnf, db)  # allocates the choice block first
        facts = FactVariables(cnf, db)
        if circuit.countable != frozenset(facts.variables()):
            raise CircuitFormatError(
                "artifact projection does not match the database's "
                "potential facts — wrong instance for this payload"
            )
        return facts

    # -- questions ---------------------------------------------------------

    def _fact_variable_weights(
        self, fact_weights: "Mapping[Fact, object] | None"
    ) -> dict:
        """Per-variable ``(present, absent)`` weights from a per-fact
        table: a listed fact weighs ``w`` when the completion contains it
        and ``1`` when it does not (unlisted facts always weigh 1)."""
        fact_weights = fact_weights or {}
        unknown = [fact for fact in fact_weights if fact not in self._variables]
        if unknown:
            raise ValueError(
                "weights given for facts that are not potential facts of "
                "the instance: %s" % ", ".join(sorted(map(repr, unknown)))
            )
        return {
            self._variables.var(fact): (weight, 1)
            for fact, weight in fact_weights.items()
        }

    def weighted_count(
        self, fact_weights: "Mapping[Fact, object] | None" = None
    ):
        """Weighted ``#Comp``: each counted completion weighs the product
        of ``fact_weights[g]`` over the potential facts ``g`` it contains.
        Exact for int/Fraction weights; equals :meth:`count` when no
        weights are given."""
        return self.weighted_count_many([fact_weights])[0]

    def weighted_count_many(
        self, fact_weight_rows: "Sequence[Mapping[Fact, object] | None]"
    ) -> list:
        """:meth:`weighted_count` for N per-fact tables in one batched
        upward pass over the projected circuit."""
        return self.circuit.evaluate_many(
            [self._fact_variable_weights(row) for row in fact_weight_rows]
        )

    def fact_marginals(self) -> dict[Fact, Fraction]:
        """``P[g ∈ C]`` for every potential fact ``g``, ``C`` uniform over
        the counted completions.  Raises :class:`ValueError` on a count of
        zero."""
        return self.fact_marginals_many([None])[0]

    def fact_marginals_many(
        self, fact_weight_rows: "Sequence[Mapping[Fact, object] | None]"
    ) -> list[dict[Fact, Fraction]]:
        """:meth:`fact_marginals` under each of N completion weightings at
        once (one batched upward+downward pass); each table is exact.
        Raises :class:`ValueError` for a row whose weighted total is 0."""
        counts_rows = self.circuit.literal_counts_many(
            [self._fact_variable_weights(row) for row in fact_weight_rows]
        )
        facts = self._variables.facts()
        tables: list[dict[Fact, Fraction]] = []
        for counts in counts_rows:
            if facts:
                anchor = self._variables.var(facts[0])
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
                fact: Fraction(counts[self._variables.var(fact)])
                / Fraction(total)
                for fact in facts
            })
        return tables

    @cached_property
    def _sampler(self) -> CircuitSampler:
        return self.circuit.sampler()

    def sample_completion(
        self, rng: random.Random | None = None, seed: int | None = None
    ) -> frozenset[Fact]:
        """One completion, uniform over the counted completions."""
        assignment = self._sampler.sample(resolve_rng(seed, rng))
        facts = self._variables
        return frozenset(
            fact for fact in facts.facts() if assignment.get(facts.var(fact))
        )


#: The artifact class of each problem kind (engine stores, the wire codec
#: and :func:`explain` all dispatch through it).
ARTIFACTS: dict[str, type[_CircuitArtifact]] = {
    "val": ValuationCircuit,
    "comp": CompletionCircuit,
}


def artifact_from_bytes(
    data: bytes, db: IncompleteDatabase
) -> "ValuationCircuit | CompletionCircuit":
    """Rehydrate a wrapper artifact of either kind, dispatched on magic.

    For a caller that holds payloads of both problem families.  Raises
    :class:`~repro.compile.serialize.CircuitFormatError` on anything that
    is not a trustworthy wrapper payload for ``db``.
    """
    for artifact in ARTIFACTS.values():
        if data[:4] == artifact.magic:
            return artifact.from_bytes(data, db)
    raise CircuitFormatError(
        "bad magic %r: not a circuit artifact" % (bytes(data[:4]),)
    )


# ---------------------------------------------------------------------------
# explain reports
# ---------------------------------------------------------------------------


@dataclass
class LineageReport:
    """Size and difficulty statistics of one compiled artifact."""

    mode: str
    count: int
    num_variables: int
    num_clauses: int
    heuristic_width: int | None
    cache_entries: int
    components_split: int
    circuit_nodes: int
    circuit_edges: int


def explain(
    kind: str, db: IncompleteDatabase, query: BooleanQuery | None = None
) -> tuple[LineageReport, Any]:
    """Compile ``(db, query)`` as a ``kind`` (``'val'``/``'comp'``)
    artifact; report what the counter saw and what it recorded."""
    compiled = ARTIFACTS[kind](db, query)
    circuit = compiled.circuit
    report = LineageReport(
        mode=kind,
        count=compiled.count(),
        num_variables=circuit.num_variables,
        num_clauses=compiled.num_clauses,
        heuristic_width=compiled.heuristic_width,
        cache_entries=compiled.cache_entries,
        components_split=compiled.components_split,
        circuit_nodes=circuit.num_nodes,
        circuit_edges=circuit.num_edges,
    )
    return report, compiled


__all__ = [
    "ARTIFACTS",
    "artifact_from_bytes",
    "count_valuations_lineage",
    "count_completions_lineage",
    "ValuationCircuit",
    "CompletionCircuit",
    "explain",
    "LineageReport",
    "lineage_supports",
]
