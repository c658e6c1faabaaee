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

A batch is fingerprinted with :func:`fingerprint_jobs`, which computes one
canonical form per database object and builds every job's payload from it,
so the jobs that ask about one database pay for its refinement once.

Queries carrying opaque decision procedures (:class:`CustomQuery`) have no
syntactic canonical form; :func:`fingerprint_job` returns ``None`` for them
and the engine solves such jobs without caching.
"""

from __future__ import annotations

import hashlib
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


def _weights_form(weights, index: Mapping[Null, int] | None) -> Canonical:
    """Deterministic form of a per-null weight table.

    With ``index`` the nulls are expressed in canonical coordinates (for
    renaming-invariant fingerprints); without it raw labels are used (for
    label-exact ones).  Weights are keyed by ``repr`` — exact for the
    int/Fraction weights the engine deals in.
    """
    if not weights:
        return ()
    items = []
    for null, table in weights.items():
        if index is None:
            key: object = repr(null.label)
        elif null in index:
            key = index[null]
        else:
            # A null the database does not have: the job will fail in
            # resolve_null_weights with a deterministic error, so a
            # deterministic label-exact key is sound (equal fingerprints
            # fail identically) — and the batch must not crash here.
            key = ("unknown", repr(null.label))
        inner = tuple(
            sorted(
                (_constant_key(value), repr(weight))
                for value, weight in dict(table).items()
            )
        )
        items.append((key, inner))
    return tuple(sorted(items, key=repr))


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
    payload = repr(("circuit", kind, query_form, _exact_db_form(db)))
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
    """:func:`fingerprint_job` of every job, in order, canonicalizing each
    distinct database object once: the memo keeps the ``repr`` of its form
    and its null index, keyed by ``id`` and holding the object, so no id
    is reused while the call runs."""
    forms: dict[int, tuple[IncompleteDatabase, str, dict[Null, int]]] = {}
    return [_fingerprint(job, forms) for job in jobs]


def _fingerprint(job: "CountJob", forms: dict) -> str | None:
    query_form = fingerprint_query(job.query)
    if query_form is None or (job.problem == "approx-val" and job.seed is None):
        return None
    if job.problem == "update":
        # An update job answers #Val of the *updated* instance, so it is
        # fingerprinted as the plain 'val' job on the delta-chain result —
        # memo entries are shared with equivalent from-scratch val jobs.
        from repro.engine.jobs import instance_db

        try:
            child = instance_db(job)
        except (ValueError, KeyError, TypeError):
            return None  # invalid chain: solve reports the real error
        payload = repr(("val", (), query_form, fingerprint_db(child)))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if job.problem == "marginals":
        # The answer is keyed by null labels, so the fingerprint must be
        # label-exact — a renamed twin has a differently-keyed answer.
        db_form = repr(_exact_db_form(job.db))
        extras: tuple = (_weights_form(job.weights, None),)
    else:
        if id(job.db) not in forms:
            form, index = _canonical_db(job.db)
            forms[id(job.db)] = (job.db, repr(form), index)
        _db, db_form, index = forms[id(job.db)]
        if job.problem == "approx-val":
            extras = (job.epsilon, job.delta, job.seed)
        elif job.problem == "val-weighted":
            # Scalar answer: canonical coordinates keep the fingerprint
            # invariant under null renamings that carry the weights along.
            extras = (_weights_form(job.weights, index),)
        elif job.problem == "sweep":
            # An ordered list of scalar answers, one per weight table: each
            # entry is renaming-invariant like 'val-weighted', and the
            # table order is part of the key.
            extras = (tuple(_weights_form(row, index) for row in job.weights or ()),)
        else:
            extras = ()
    # Exactly repr((problem, extras, query_form, form)); the memo keeps the
    # form's repr, not the form.
    payload = "(%r, %r, %r, %s)" % (job.problem, extras, query_form, db_form)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
