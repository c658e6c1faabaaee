"""Canonical instance fingerprints for cross-job memoization.

Two counting jobs with the same fingerprint are guaranteed to have the same
answer, so the engine can solve one and serve the other from cache.  The
fingerprint is a SHA-256 digest of a *canonical form* of the instance that
is invariant under the renamings that provably preserve counts:

* **query variables** are bound, so any bijective renaming (and any
  reordering of atoms / disjuncts) leaves ``#Val`` and ``#Comp`` unchanged;
* **nulls** are relabeled by a signature-refinement pass (domain, then
  occurrence structure), so structurally identical databases that differ
  only in null labels usually collapse to one cache entry.

Soundness does not depend on the refinement being a perfect canonical
labeling: the canonical form *is* a faithful description of the instance up
to renaming, so equal forms always describe isomorphic instances.  A
missed isomorphism merely costs a cache miss.

Canonical forms are memoized by database content (:func:`_canonical_text`),
so the jobs that ask about one database — in one batch or across batches,
through one object or through equal copies — pay for its refinement once.
Label-exact forms (circuit keys, ``marginals`` jobs) are memoized per
database *object* (:func:`_exact_text`), so every job and circuit fetch
about one object writes its form once.  Weight tables are written
straight as text (:func:`_weights_text`), each null's table from a memo
of table texts, byte for byte the ``repr`` of the form they describe.

Queries carrying opaque decision procedures (:class:`CustomQuery`) have no
syntactic canonical form; :func:`fingerprint_job` returns ``None`` for them
and the engine solves such jobs without caching.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.query import BCQ, BooleanQuery, Const, Negation, UCQ
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term, is_null

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.jobs import CountJob

Canonical = object


def _constant_key(value: Term) -> tuple[str, str, str]:
    # Type name + repr keeps int 1 and str "1" (and any other well-behaved
    # hashable constants) in disjoint namespaces.
    return ("c", type(value).__name__, repr(value))


def _canonical_bcq(query: BCQ) -> Canonical:
    def skeleton(atom) -> tuple:
        # Variable-name-independent shape: constants verbatim, variables by
        # their local equality pattern within the atom.
        local: dict = {}
        pattern = []
        for term in atom.terms:
            if isinstance(term, Const):
                pattern.append(_constant_key(term.value))
            else:
                pattern.append(("v", local.setdefault(term, len(local))))
        return (atom.relation, tuple(pattern))

    ordered = sorted(query.atoms, key=skeleton)
    ids: dict = {}
    atoms = []
    for atom in ordered:
        terms: list[tuple] = []
        for term in atom.terms:
            if isinstance(term, Const):
                terms.append(_constant_key(term.value))
            else:
                terms.append(("v", ids.setdefault(term, len(ids))))
        atoms.append((atom.relation, tuple(terms)))
    return ("bcq", tuple(atoms))


def fingerprint_query(query: BooleanQuery | None) -> Canonical | None:
    """Canonical form of a query, or ``None`` when it has no syntax.

    Invariant under variable renaming and atom/disjunct reordering.
    """
    if query is None:
        return ("none",)
    if isinstance(query, BCQ):
        return _canonical_bcq(query)
    if isinstance(query, UCQ):
        parts = sorted(repr(_canonical_bcq(d)) for d in query.disjuncts)
        return ("ucq", tuple(parts))
    if isinstance(query, Negation):
        inner = fingerprint_query(query.inner)
        return None if inner is None else ("neg", inner)
    return None  # CustomQuery and anything else opaque


def fingerprint_db(db: IncompleteDatabase) -> Canonical:
    """Canonical form of an incomplete database.

    Nulls are relabeled ``0..k-1`` by a two-round signature refinement
    (domain first, then occurrence structure), with the original label as a
    deterministic tie-break.  The result describes ``D`` exactly up to a
    bijective null renaming — which preserves both ``#Val`` and ``#Comp``.
    """
    return _canonical_db(db)[0]


def _canonical_db(
    db: IncompleteDatabase,
) -> tuple[Canonical, dict[Null, int]]:
    """Canonical form plus the null relabeling that produced it.

    The relabeling lets per-null payloads (weight tables) be expressed in
    canonical coordinates: two jobs then share a fingerprint exactly when
    some database isomorphism carries one weight table onto the other —
    which provably preserves the weighted count.
    """
    nulls = db.nulls
    signature: dict[Null, str] = {
        null: repr(tuple(sorted(repr(v) for v in db.domain_of(null))))
        for null in nulls
    }
    for _ in range(2):
        occurrences: dict[Null, list[str]] = {null: [] for null in nulls}
        for fact in db.facts:
            shape = (
                fact.relation,
                tuple(
                    ("n", signature[t]) if is_null(t) else _constant_key(t)
                    for t in fact.terms
                ),
            )
            for position, term in enumerate(fact.terms):
                if is_null(term):
                    occurrences[term].append(repr((position, shape)))
        signature = {
            null: repr((signature[null], tuple(sorted(occurrences[null]))))
            for null in nulls
        }

    ordered = sorted(nulls, key=lambda n: (signature[n], repr(n.label)))
    index = {null: i for i, null in enumerate(ordered)}
    facts = tuple(
        sorted(
            (
                fact.relation,
                tuple(
                    ("n", index[t]) if is_null(t) else _constant_key(t)
                    for t in fact.terms
                ),
            )
            for fact in db.facts
        )
    )
    domains = tuple(
        tuple(sorted(repr(v) for v in db.domain_of(null))) for null in ordered
    )
    return ("db", db.is_uniform, facts, domains), index


@lru_cache(maxsize=256)
def _canonical_text(db: IncompleteDatabase) -> tuple[str, dict[Null, int]]:
    """``repr`` of :func:`_canonical_db`'s form, with its null relabeling.

    Memoized by database equality (facts and domains), for the 256 most
    recently used databases; the memo keeps the text, not the larger form.
    The result is shared, so callers must not mutate the relabeling.
    Databases that are equal but spell a constant with different types
    (``1``, ``1.0``, ``True``) share the text computed first, which is
    sound: equal databases have equal counts.
    """
    form, index = _canonical_db(db)
    return repr(form), index


def _exact_db_form(db: IncompleteDatabase) -> Canonical:
    """Label-exact description of a database (no null canonicalization).

    Compiled circuits and marginal tables answer questions *about* the
    nulls by name, so artifacts must never be shared across
    isomorphic-but-renamed instances — renaming invariance, sound for
    scalar counts, would hand back answers keyed by the wrong nulls.
    """
    facts = tuple(
        sorted(
            (
                fact.relation,
                tuple(
                    ("n", repr(t.label)) if is_null(t) else _constant_key(t)
                    for t in fact.terms
                ),
            )
            for fact in db.facts
        )
    )
    domains = tuple(
        sorted(
            (
                repr(null.label),
                tuple(sorted(repr(v) for v in db.domain_of(null))),
            )
            for null in db.nulls
        )
    )
    return ("exact-db", db.is_uniform, facts, domains)


#: ``id(db) -> (weak reference to db, its exact text)`` for the 256 most
#: recently used database objects (:func:`_exact_text`).
_EXACT_TEXTS: "OrderedDict[int, tuple[weakref.ref, str]]" = OrderedDict()


def _exact_text(db: IncompleteDatabase) -> str:
    """``repr`` of :func:`_exact_db_form`, memoized per database object.

    Keyed by identity, not equality: content-equal databases that spell a
    constant ``1`` and ``1.0`` have different exact forms, and sharing one
    would leak one spelling into the other's marginals and samples.  An
    entry holds its database weakly, so the memo keeps no database alive,
    and an entry whose database died (its ``id`` free for reuse) misses.
    """
    entry = _EXACT_TEXTS.pop(id(db), None)
    if entry is None or entry[0]() is not db:
        entry = (weakref.ref(db), repr(_exact_db_form(db)))
    _EXACT_TEXTS[id(db)] = entry
    if len(_EXACT_TEXTS) > 256:
        _EXACT_TEXTS.popitem(last=False)
    return entry[1]


def _tuple_text(parts: list[str]) -> str:
    """``repr`` of a tuple whose members' reprs are ``parts``."""
    return "(%s,)" % parts[0] if len(parts) == 1 else "(%s)" % ", ".join(parts)


#: Types whose equal values have equal reprs: a table of these alone may
#: share its text with an equal table of the same types.
_EXACT_TYPES = frozenset({bool, int, str, Fraction})


@lru_cache(maxsize=1024)
def _table_text(entries: tuple, types: tuple) -> str:
    """Text of one null's ``(value, weight)`` entries, sorted by constant
    key, then weight ``repr``.

    ``types`` lists the entries' types in order.  The memo matches keys by
    equality, which alone would let ``1``, ``1.0`` and ``True`` share a
    text; with the types in the key, equal keys spell alike for
    :data:`_EXACT_TYPES`, and other tables bypass the memo.
    """
    pairs = sorted((_constant_key(value), repr(weight)) for value, weight in entries)
    return _tuple_text(["(%r, %r)" % pair for pair in pairs])


def _weights_text(weights, index: Mapping[Null, int] | None) -> str:
    """Deterministic text of a per-null weight table.

    With ``index`` the nulls are expressed in canonical coordinates (for
    renaming-invariant fingerprints); without it raw labels are used (for
    label-exact ones).  Weights are keyed by ``repr`` — exact for the
    int/Fraction weights the engine deals in.  The text is the ``repr`` of
    a tuple of ``(null key, sorted (constant key, weight repr) pairs)``
    items in text order, a persisted format (the ``fingerprint_job``
    digests key ``perfbench/reference.json``).
    """
    if not weights:
        return "()"
    items = []
    for null, table in weights.items():
        if index is None:
            key = repr(repr(null.label))
        else:
            position = index.get(null)
            # A null the database does not have: the job will fail in
            # resolve_null_weights with a deterministic error, so a
            # deterministic label-exact key is sound (equal fingerprints
            # fail identically) — and the batch must not crash here.
            key = (
                repr(("unknown", repr(null.label)))
                if position is None
                else repr(position)
            )
        entries = tuple(dict(table).items())
        types = tuple(map(type, chain.from_iterable(entries)))
        if _EXACT_TYPES.issuperset(types):
            inner = _table_text(entries, types)
        else:
            inner = _table_text.__wrapped__(entries, types)
        items.append("(%s, %s)" % (key, inner))
    items.sort()
    return _tuple_text(items)


def fingerprint_instance(
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    kind: str = "val",
) -> str | None:
    """Digest identifying a compiled circuit artifact, or ``None``.

    ``kind`` separates the valuation circuit from the completion circuit
    of the same ``(D, q)``.  Label-exact on the database side (see
    :func:`_exact_db_form`); invariant under query-variable renaming,
    which never surfaces in any circuit answer.
    """
    query_form = fingerprint_query(query)
    if query_form is None:
        return None
    # Exactly repr(("circuit", kind, query_form, _exact_db_form(db))).
    payload = "(%r, %r, %r, %s)" % ("circuit", kind, query_form, _exact_text(db))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_delta(delta: object) -> str:
    """Hex digest of a delta's canonical form (:func:`repro.db.deltas.delta_form`)."""
    from repro.db.deltas import delta_form

    payload = repr(("delta", delta_form(delta)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_derivation(
    db: IncompleteDatabase,
    query: BooleanQuery | None,
    kind: str = "val",
) -> str | None:
    """Digest of *how* a derived instance came to be, or ``None``.

    For an instance produced by ``parent.apply(delta)`` this records the
    parent's circuit fingerprint together with the canonical delta form —
    the provenance edge the incremental layer reports in plans and obs
    events.  Content addressing is deliberately separate: the instance's
    own :func:`fingerprint_instance` depends only on its content, so a
    derived instance and a from-scratch twin share cache entries.
    """
    parent = getattr(db, "parent", None)
    delta = getattr(db, "delta", None)
    if parent is None or delta is None:
        return None
    parent_form = fingerprint_instance(parent, query, kind)
    if parent_form is None:
        return None
    from repro.db.deltas import delta_form

    payload = repr(("derived", kind, parent_form, delta_form(delta)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_job(job: "CountJob") -> str | None:
    """Hex digest identifying the job's *answer*, or ``None`` (uncacheable).

    Exact jobs share a fingerprint across ``method`` choices — every exact
    algorithm returns the same count by definition.  Approximate jobs are
    randomized, so their sampling parameters (``epsilon``, ``delta``,
    ``seed``) are part of the key; an unseeded approximate job is not
    reproducible and therefore not cacheable.
    """
    return fingerprint_jobs([job])[0]


def fingerprint_jobs(jobs: Iterable["CountJob"]) -> list[str | None]:
    """:func:`fingerprint_job` of every job, in order."""
    from repro.engine.jobs import instance_or_none

    return [fingerprint_on(job, instance_or_none(job)) for job in jobs]


def fingerprint_on(
    job: "CountJob", db: IncompleteDatabase | None
) -> str | None:
    """:func:`fingerprint_job` from the job's instance ``db``, built by the
    caller (:func:`~repro.engine.jobs.instance_or_none`; ``None`` for an
    invalid delta chain, which makes the job uncacheable and lets its
    solve report the real error)."""
    query_form = fingerprint_query(job.query)
    if (
        query_form is None
        or db is None
        or (job.problem == "approx-val" and job.seed is None)
    ):
        return None
    # An update job answers #Val of the *updated* instance (``db``), so it
    # is fingerprinted as the plain 'val' job on the delta-chain result —
    # memo entries are shared with equivalent from-scratch val jobs.
    problem = "val" if job.problem == "update" else job.problem
    extras = "()"
    if problem == "marginals":
        # The answer is keyed by null labels, so the fingerprint must be
        # label-exact — a renamed twin has a differently-keyed answer.
        db_text = _exact_text(db)
        extras = "(%s,)" % _weights_text(job.weights, None)
    else:
        db_text, index = _canonical_text(db)
        if problem == "approx-val":
            extras = repr((job.epsilon, job.delta, job.seed))
        elif problem == "val-weighted":
            # Scalar answer: canonical coordinates keep the fingerprint
            # invariant under null renamings that carry the weights along.
            extras = "(%s,)" % _weights_text(job.weights, index)
        elif problem == "sweep":
            # An ordered list of scalar answers, one per weight table: each
            # entry is renaming-invariant like 'val-weighted', and the
            # table order is part of the key.
            rows = [_weights_text(row, index) for row in job.weights or ()]
            extras = "(%s,)" % _tuple_text(rows)
    # Exactly repr((problem, extras, query_form, form)), from the texts of
    # the extras and the form.
    payload = "(%r, %s, %r, %s)" % (problem, extras, query_form, db_text)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
