"""Naive Monte-Carlo estimation of ``#Val`` (the non-FPRAS baseline).

Sampling valuations uniformly and scaling the acceptance fraction by the
total valuation count is unbiased but is *not* an FPRAS: when
``#Val(q)(D)`` is an exponentially small fraction of the valuation space,
polynomially many samples see no accepting valuation at all.  The benchmark
suite contrasts this estimator with the Karp-Luby FPRAS on exactly such
instances.

Like :mod:`repro.approx.fpras`, randomness is explicit (``seed`` or
``rng``, never the global ``random`` state) and the whole sample batch is
evaluated against null domains sorted once up front, so batch runs through
:mod:`repro.engine` are reproducible and don't pay a per-sample sort.
"""

from __future__ import annotations

import random

from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term
from repro.db.valuation import apply_valuation, count_total_valuations
from repro.eval.evaluate import evaluate
from repro.util.rng import resolve_rng


def _sorted_domains(db: IncompleteDatabase) -> list[tuple[Null, list[Term]]]:
    """Each null with its domain in a deterministic sampling order."""
    domains: list[tuple[Null, list[Term]]] = []
    for null in db.nulls:
        domain = sorted(db.domain_of(null), key=repr)
        if not domain:
            raise ValueError("null %r has an empty domain" % (null,))
        domains.append((null, domain))
    return domains


def sample_valuation(
    db: IncompleteDatabase, rng: random.Random
) -> dict[Null, Term]:
    """One uniform valuation of ``db``."""
    return {null: rng.choice(domain) for null, domain in _sorted_domains(db)}


def naive_monte_carlo_valuations(
    db: IncompleteDatabase,
    query: BooleanQuery,
    samples: int,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> float:
    """Unbiased (but non-FPRAS) estimate of ``#Val(q)(D)``."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    generator = resolve_rng(seed, rng)
    total = count_total_valuations(db)
    if total == 0:
        return 0.0
    domains = _sorted_domains(db)
    hits = 0
    for _ in range(samples):
        valuation = {
            null: generator.choice(domain) for null, domain in domains
        }
        if evaluate(query, apply_valuation(db, valuation)):
            hits += 1
    return total * hits / samples
