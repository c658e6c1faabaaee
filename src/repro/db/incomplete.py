"""Incomplete databases ``D = (T, dom)`` — naive tables with null domains.

Supports both flavors studied in the paper:

* **non-uniform** (the default): ``dom`` maps each null to its own finite
  set of constants;
* **uniform**: a single finite domain shared by all nulls (Section 2,
  "uniform incomplete databases").

The class is immutable; transformation helpers return new instances.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from repro.db.fact import Fact
from repro.db.terms import Null, Term, is_null


class IncompleteDatabase:
    """A naive table together with the domains of its nulls.

    Use :meth:`uniform` / the plain constructor to build the two variants::

        D = IncompleteDatabase(facts, dom={null1: {"a", "b"}})
        D = IncompleteDatabase.uniform(facts, domain={"a", "b"})
    """

    def __init__(
        self,
        facts: Iterable[Fact],
        dom: Mapping[Null, Iterable[Term]] | None = None,
        uniform_domain: Iterable[Term] | None = None,
    ) -> None:
        if (dom is None) == (uniform_domain is None):
            raise ValueError(
                "provide exactly one of `dom` (non-uniform) or "
                "`uniform_domain` (uniform)"
            )
        # Delta provenance (set by `apply`, never part of equality/hash):
        # the instance this one was derived from, and the delta that did it.
        self._parent: "IncompleteDatabase | None" = None
        self._delta: object | None = None
        self._facts: frozenset[Fact] = frozenset(facts)
        self._check_arities()
        occurring = self._occurring_nulls()
        # The class is immutable, so the null scan is done exactly once;
        # `nulls` is on the per-row hot path of the batched sweep passes.
        self._nulls: tuple[Null, ...] = tuple(sorted(occurring))

        if uniform_domain is not None:
            shared = frozenset(uniform_domain)
            self._reject_null_constants(shared)
            self._uniform: frozenset[Term] | None = shared
            self._dom: dict[Null, frozenset[Term]] = {
                null: shared for null in occurring
            }
        else:
            assert dom is not None
            self._uniform = None
            self._dom = {}
            for null, values in dom.items():
                value_set = frozenset(values)
                self._reject_null_constants(value_set)
                self._dom[null] = value_set
            missing = occurring - set(self._dom)
            if missing:
                raise ValueError(
                    "nulls without a domain: %s"
                    % ", ".join(sorted(map(repr, missing)))
                )
            # Domains of nulls not occurring in T are irrelevant; drop them
            # so that equality and counting depend only on (T, dom|_T).
            self._dom = {
                null: values
                for null, values in self._dom.items()
                if null in occurring
            }

    # -- constructors ----------------------------------------------------

    @classmethod
    def uniform(
        cls, facts: Iterable[Fact], domain: Iterable[Term]
    ) -> "IncompleteDatabase":
        """Uniform incomplete database: one shared domain for all nulls."""
        return cls(facts, uniform_domain=domain)

    # -- validation helpers ----------------------------------------------

    @staticmethod
    def _reject_null_constants(values: frozenset[Term]) -> None:
        if any(is_null(value) for value in values):
            raise ValueError("null domains must contain constants only")

    def _check_arities(self) -> None:
        arities: dict[str, int] = {}
        for fact in self._facts:
            known = arities.setdefault(fact.relation, fact.arity)
            if known != fact.arity:
                raise ValueError(
                    "inconsistent arity for relation %s" % fact.relation
                )

    def _occurring_nulls(self) -> set[Null]:
        found: set[Null] = set()
        for fact in self._facts:
            found |= fact.nulls()
        return found

    # -- basic inspection --------------------------------------------------

    @property
    def facts(self) -> frozenset[Fact]:
        """The naive table ``T``."""
        return self._facts

    @property
    def relations(self) -> set[str]:
        return {fact.relation for fact in self._facts}

    def relation(self, name: str) -> frozenset[Fact]:
        """``D(R)``: facts over relation ``name``."""
        return frozenset(f for f in self._facts if f.relation == name)

    @property
    def nulls(self) -> list[Null]:
        """Distinct nulls occurring in ``T``, deterministically ordered."""
        return list(self._nulls)

    def domain_of(self, null: Null) -> frozenset[Term]:
        """``dom(⊥)`` for a null occurring in ``T``."""
        try:
            return self._dom[null]
        except KeyError:
            raise KeyError("null %r does not occur in the table" % (null,))

    @property
    def is_uniform(self) -> bool:
        """True when built with a single shared domain."""
        return self._uniform is not None

    @property
    def uniform_domain(self) -> frozenset[Term]:
        """The shared domain (raises unless :attr:`is_uniform`)."""
        if self._uniform is None:
            raise ValueError("database is not uniform")
        return self._uniform

    def constants(self) -> set[Term]:
        """Constants appearing in the facts of ``T``."""
        found: set[Term] = set()
        for fact in self._facts:
            found |= fact.constants()
        return found

    def schema(self) -> dict[str, int]:
        """Relation name -> arity for relations with at least one fact."""
        return {
            fact.relation: fact.arity
            for fact in sorted(self._facts, key=Fact.sort_key)
        }

    # -- structural properties ---------------------------------------------

    def null_occurrences(self) -> Counter:
        """How many *positions* each null occupies across all facts."""
        occurrences: Counter = Counter()
        for fact in self._facts:
            for term in fact.terms:
                if is_null(term):
                    occurrences[term] += 1
        return occurrences

    @property
    def parent(self) -> "IncompleteDatabase | None":
        """The instance this one was derived from via :meth:`apply`."""
        return self._parent

    @property
    def delta(self) -> object | None:
        """The delta :meth:`apply` used to derive this instance."""
        return self._delta

    @property
    def is_codd(self) -> bool:
        """Codd table: every null occurs at most once in ``T`` (Section 2).

        Note a repeated null *within* one fact (e.g. ``S(⊥,⊥)``) already
        violates the Codd condition.
        """
        return all(count <= 1 for count in self.null_occurrences().values())

    def is_ground(self) -> bool:
        return not self._nulls

    # -- transformations -----------------------------------------------------

    def with_facts(self, facts: Iterable[Fact]) -> "IncompleteDatabase":
        """Same domains, different naive table (new nulls not allowed)."""
        if self._uniform is not None:
            return IncompleteDatabase.uniform(facts, self._uniform)
        return IncompleteDatabase(facts, dom=self._dom)

    def without_facts(self, facts: Iterable[Fact]) -> "IncompleteDatabase":
        """Same domains, table minus ``facts`` (all must be present)."""
        removed = frozenset(facts)
        missing = removed - self._facts
        if missing:
            raise ValueError(
                "facts not in the table: %s"
                % ", ".join(sorted(map(repr, missing)))
            )
        return self.with_facts(self._facts - removed)

    def resolve(self, null: Null, value: Term) -> "IncompleteDatabase":
        """Replace ``null`` by the constant ``value`` throughout ``T``.

        ``value`` must lie in ``dom(null)``; the resolved null (and, in the
        non-uniform case, its domain entry) disappears from the result.
        """
        domain = self.domain_of(null)  # raises KeyError if not occurring
        if value not in domain:
            raise ValueError(
                "value %r is outside dom(%r)" % (value, null)
            )
        substitution = {null: value}
        return self.with_facts(
            fact.substitute(substitution) for fact in self._facts
        )

    def apply(self, delta: object) -> "IncompleteDatabase":
        """Apply a :mod:`repro.db.deltas` record, recording provenance.

        The result is an ordinary immutable instance whose :attr:`parent`
        and :attr:`delta` record where it came from, which lets the
        incremental counting layer answer it by conditioning an ancestor
        circuit when the deltas since only resolve or restrict nulls.
        Provenance never affects equality, hashing, or fingerprints of
        the database *content*.
        """
        from repro.db.deltas import (
            DeleteFacts,
            InsertFacts,
            ResolveNull,
            RestrictDomain,
        )

        if isinstance(delta, ResolveNull):
            child = self.resolve(delta.null, delta.value)
        elif isinstance(delta, RestrictDomain):
            domain = self.domain_of(delta.null)
            extra = delta.values - domain
            if extra:
                raise ValueError(
                    "restricted domain of %r adds values outside dom: %s"
                    % (delta.null, ", ".join(sorted(map(repr, extra))))
                )
            if self._uniform is not None and delta.values == self._uniform:
                child = IncompleteDatabase.uniform(self._facts, self._uniform)
            else:
                new_dom = dict(self._dom)
                new_dom[delta.null] = delta.values
                child = IncompleteDatabase(self._facts, dom=new_dom)
        elif isinstance(delta, InsertFacts):
            new_facts = self._facts | delta.facts
            carried = delta.domains()
            if self._uniform is not None and not carried:
                child = IncompleteDatabase.uniform(new_facts, self._uniform)
            else:
                base = dict(self._dom)
                for null, values in carried.items():
                    known = base.get(null)
                    if known is not None and known != values:
                        raise ValueError(
                            "delta re-declares dom(%r) inconsistently" % null
                        )
                    base[null] = values
                child = IncompleteDatabase(new_facts, dom=base)
        elif isinstance(delta, DeleteFacts):
            child = self.without_facts(delta.facts)
        else:
            raise TypeError("not a delta: %r" % (delta,))
        child._parent = self
        child._delta = delta
        return child

    def restrict_to_relations(
        self, names: Iterable[str]
    ) -> "IncompleteDatabase":
        """Keep only facts over the given relation names."""
        keep = set(names)
        kept_facts = [f for f in self._facts if f.relation in keep]
        return self.with_facts(kept_facts)

    def as_non_uniform(self) -> "IncompleteDatabase":
        """Equivalent non-uniform view (each null gets a copy of its domain).

        The paper treats the uniform setting as the special case of the
        non-uniform one where all domains coincide; this makes the embedding
        explicit for algorithms that only accept non-uniform inputs.
        """
        return IncompleteDatabase(self._facts, dom=dict(self._dom))

    def as_uniform(self) -> "IncompleteDatabase":
        """Uniform view, valid only when all null domains are equal."""
        if self._uniform is not None:
            return self
        domains = {values for values in self._dom.values()}
        if len(domains) > 1:
            raise ValueError("null domains differ; not a uniform database")
        if not domains:
            raise ValueError(
                "cannot infer a uniform domain for a ground table; "
                "use IncompleteDatabase.uniform explicitly"
            )
        return IncompleteDatabase.uniform(self._facts, next(iter(domains)))

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IncompleteDatabase)
            and other._facts == self._facts
            and other._dom == self._dom
            and (other._uniform is None) == (self._uniform is None)
        )

    def __hash__(self) -> int:
        return hash((self._facts, frozenset(self._dom.items())))

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts, key=Fact.sort_key))

    def __repr__(self) -> str:
        kind = "uniform" if self.is_uniform else "non-uniform"
        codd = "Codd" if self.is_codd else "naive"
        return "IncompleteDatabase(%d facts, %d nulls, %s %s)" % (
            len(self._facts),
            len(self.nulls),
            kind,
            codd,
        )
