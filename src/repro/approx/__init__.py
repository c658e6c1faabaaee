"""Randomized approximation of ``#Val`` (Section 5).

Corollary 5.3: ``#Val(q)`` admits an FPRAS for every union of BCQs.  The
paper derives this from SpanL membership (Prop. 5.2 + Theorem 5.1 [Arenas,
Croquevielle, Jayaram, Riveros 2019]); we realize the same guarantee with
the classic Karp-Luby union-of-events construction, whose events are the
consistent embeddings of query atoms into facts — see
:mod:`repro.approx.events`.  Theorem 5.1 pairs counting with uniform
generation, and one object does both:
:class:`~repro.approx.fpras.KarpLubyEstimator`'s ``estimate`` counts and
its ``sample`` draws satisfying valuations uniformly, from the same
coverage draw.  (Exact and weighted sampling by conditioning a compiled
circuit is :meth:`repro.compile.backend.ValuationCircuit.sample_valuation`.)

The naive Monte-Carlo estimator is included as the baseline whose failure
mode (vanishing acceptance probability) motivates the FPRAS, and as the
contrast class for ``#Comp``, which by Theorem 5.5 / Prop. 5.6 has *no*
FPRAS at all unless NP = RP.
"""

from repro.approx.events import EmbeddingEvent, enumerate_events
from repro.approx.fpras import (
    KarpLubyEstimator,
    NoSatisfyingValuation,
    fpras_count_valuations,
)
from repro.approx.montecarlo import naive_monte_carlo_valuations

__all__ = [
    "EmbeddingEvent",
    "enumerate_events",
    "KarpLubyEstimator",
    "fpras_count_valuations",
    "naive_monte_carlo_valuations",
    "NoSatisfyingValuation",
]
