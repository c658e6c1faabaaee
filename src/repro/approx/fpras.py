"""Karp-Luby FPRAS and uniform sampler for ``#Val(q)`` over unions of BCQs
(Corollary 5.3).

The coverage (union-of-sets) construction of Karp, Luby and Madras: with
events ``E_1..E_m`` of known weights ``w_i = |E_i|`` and ``W = sum w_i``,
one *draw* picks event ``i`` with probability ``w_i / W``, draws ``ν``
uniform in ``E_i`` and counts its coverage ``c(ν) = #{j : ν in E_j}``.
The paper takes its FPRAS from Theorem 5.1 [Arenas, Croquevielle,
Jayaram, Riveros 2019], where counting and uniform generation are two
uses of one construction; here both read the same draw:

* **counting** — ``X = 1 / c(ν)`` has ``E[W X] = |E_1 ∪ ... ∪ E_m| =
  #Val(q)(D)``.  Since ``X ∈ [1/m, 1]``, a multiplicative Chernoff bound
  gives relative error ``ε`` with confidence ``1 - δ`` after
  ``t = ceil(3 m ln(2/δ) / ε²)`` draws — polynomial in the input and
  ``1/ε`` because ``m <= |D|^{|atoms|}`` for a fixed query.  That matches
  the FPRAS definition of Section 5 (whose fixed confidence is 3/4; we
  expose ``δ``).
* **uniform generation** — accepting a draw with probability ``1 / c(ν)``
  makes every satisfying valuation equally likely, after an expected
  ``W / #Val(q)(D) <= m`` draws per sample.

Randomness is always explicit: pass ``seed`` (an int) or ``rng`` (a
``random.Random``) — never the global ``random`` state — so batch runs
through :mod:`repro.engine` are reproducible job by job.  Event selection
reads cumulative weights built once per estimator, and each event sorts
its choice lists on first use, which is what makes many-draw batch jobs
cheap.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.query import BCQ, UCQ
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term
from repro.approx.events import EmbeddingEvent, enumerate_events
from repro.util.rng import resolve_rng


class NoSatisfyingValuation(RuntimeError):
    """The query is unsatisfiable on the instance (no event exists)."""


@dataclass(frozen=True)
class EstimateReport:
    """An estimate together with the parameters that produced it."""

    estimate: float
    samples: int
    num_events: int
    total_event_weight: int


class KarpLubyEstimator:
    """Estimator and uniform sampler for ``#Val(q)(D)``, ``q`` a BCQ or UCQ."""

    def __init__(
        self,
        db: IncompleteDatabase,
        query: BCQ | UCQ,
        seed: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._events: list[EmbeddingEvent] = enumerate_events(db, query)
        # cumulative weights for O(log m) event selection
        self._cumulative = list(
            itertools.accumulate(event.weight for event in self._events)
        )
        self._total_weight = self._cumulative[-1] if self._cumulative else 0
        self._rng = resolve_rng(seed, rng)

    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def total_event_weight(self) -> int:
        """``W = sum |E_i|`` — an upper bound on ``#Val(q)(D)``."""
        return self._total_weight

    def _draw(self) -> tuple[dict[Null, Term], int]:
        """One coverage draw: ``ν`` and ``#{j : ν ∈ E_j}``."""
        target = self._rng.randrange(self._total_weight)
        event = self._events[bisect_right(self._cumulative, target)]
        valuation = event.sample(self._rng)
        coverage = sum(1 for other in self._events if other.contains(valuation))
        return valuation, coverage

    def sample_count(self, epsilon: float, delta: float = 0.25) -> int:
        """The Chernoff-derived number of coverage samples."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("need 0 < epsilon < 1 and 0 < delta < 1")
        m = max(1, len(self._events))
        return math.ceil(3.0 * m * math.log(2.0 / delta) / epsilon**2)

    def estimate(
        self, epsilon: float, delta: float = 0.25
    ) -> EstimateReport:
        """(ε, δ)-approximation of ``#Val(q)(D)``.

        ``delta`` defaults to 1/4, matching the paper's FPRAS definition
        (success probability >= 3/4).
        """
        return self.estimate_with_samples(self.sample_count(epsilon, delta))

    def estimate_with_samples(self, samples: int) -> EstimateReport:
        """Coverage estimate from one batch of ``samples`` draws."""
        if samples <= 0:
            raise ValueError("need at least one sample")
        if self._total_weight == 0:
            # No event: no valuation can satisfy the query.
            return EstimateReport(0.0, samples, 0, 0)
        draw = self._draw
        acc = 0.0
        for _ in range(samples):
            acc += 1.0 / draw()[1]
        return EstimateReport(
            estimate=acc / samples * self._total_weight,
            samples=samples,
            num_events=len(self._events),
            total_event_weight=self._total_weight,
        )

    def sample(self, max_rounds: int | None = None) -> dict[Null, Term]:
        """One uniform satisfying valuation: draws until one is accepted
        with probability ``1 / #{j : ν ∈ E_j}``.

        Raises :class:`NoSatisfyingValuation` when no valuation satisfies
        the query, and ``RuntimeError`` if ``max_rounds`` draws are all
        rejected (``None`` = unbounded; the expected number of draws is at
        most the number of events).
        """
        if self._total_weight == 0:
            raise NoSatisfyingValuation(
                "query has no embedding event on this database"
            )
        rounds = itertools.count() if max_rounds is None else range(max_rounds)
        for _ in rounds:
            valuation, coverage = self._draw()
            if self._rng.random() < 1.0 / coverage:
                return valuation
        raise RuntimeError(
            "rejection sampling did not accept within %d rounds" % max_rounds
        )

    def sample_many(
        self, count: int, max_rounds_each: int | None = None
    ) -> list[dict[Null, Term]]:
        """``count`` independent uniform satisfying valuations."""
        return [self.sample(max_rounds_each) for _ in range(count)]


def fpras_count_valuations(
    db: IncompleteDatabase,
    query: BCQ | UCQ,
    epsilon: float = 0.1,
    delta: float = 0.25,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> float:
    """One-shot FPRAS estimate of ``#Val(q)(D)`` (Corollary 5.3)."""
    estimator = KarpLubyEstimator(db, query, seed=seed, rng=rng)
    return estimator.estimate(epsilon, delta).estimate
