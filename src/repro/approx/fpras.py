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
  expose ``δ``).  With ``n_c`` draws of coverage ``c``, the estimate
  ``W · Σ n_c / c / t`` is formed exactly: a float when it fits one, the
  rounded ``int`` past the float range.
* **uniform generation** — accepting a draw with probability exactly
  ``1 / c(ν)`` (an integer draw in ``[0, c)`` hitting 0) makes every
  satisfying valuation equally likely, after an expected
  ``W / #Val(q)(D) <= m`` draws per sample.

Draws come a *block* at a time, on arrays.  The first draw encodes the
instance once: a column per null, an int code per domain value, each
null's domain as codes in ``repr`` order, and each class of each event
as its member columns, allowed codes and a mask over the codes.  A block
picks its events exactly — int64 targets in ``[0, W)`` and
``searchsorted`` while ``W < 2^63``, ``randrange(W)`` and
``bisect_right`` past it — draws every column from its null's domain,
overwrites each picked event's classes with one allowed code per class,
and counts coverage with one vector test per (event, class).  A block
holds about :data:`BLOCK_CELLS` codes at most, whatever the null count.

Randomness is always explicit: pass ``seed`` (an int) or ``rng`` (a
``random.Random``) — never the global ``random`` state — so batch runs
through :mod:`repro.engine` are reproducible job by job.  The first draw
seeds one ``numpy.random.Generator`` from that ``random.Random`` (and
imports ``numpy.random``), so a seed fixes every estimate and sample for
a given numpy version.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.core.query import BCQ, UCQ
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term
from repro.approx.events import EmbeddingEvent, enumerate_events
from repro.obs import span as _span
from repro.util.rng import resolve_rng

#: Codes (draws × nulls) in one block: bounds a block's memory.
BLOCK_CELLS = 1 << 20


class NoSatisfyingValuation(RuntimeError):
    """The query is unsatisfiable on the instance (no event exists)."""


@dataclass(frozen=True)
class EstimateReport:
    """An estimate together with the parameters that produced it."""

    estimate: float | int
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
        with _span("approx.events") as live:
            self._events: list[EmbeddingEvent] = enumerate_events(db, query)
            live.fields["events"] = len(self._events)
        # cumulative weights for O(log m) event selection
        self._cumulative = list(
            itertools.accumulate(event.weight for event in self._events)
        )
        self._total_weight = self._cumulative[-1] if self._cumulative else 0
        self._rng = resolve_rng(seed, rng)
        self._db = db
        self._block_rows = max(1, BLOCK_CELLS // max(1, len(db.nulls)))
        self._generator: np.random.Generator | None = None

    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def total_event_weight(self) -> int:
        """``W = sum |E_i|`` — an upper bound on ``#Val(q)(D)``."""
        return self._total_weight

    def _encode(self) -> np.random.Generator:
        """Encode the instance as arrays and seed the generator."""
        from numpy.random import default_rng

        db, self._nulls = self._db, self._db.nulls
        self._values: list[Term] = sorted(
            {value for null in self._nulls for value in db.domain_of(null)}, key=repr
        )
        code = {value: index for index, value in enumerate(self._values)}
        column = {null: index for index, null in enumerate(self._nulls)}
        domains = [sorted(code[v] for v in db.domain_of(null)) for null in self._nulls]
        self._sizes = np.array([len(domain) for domain in domains], np.int64)
        self._offsets = np.cumsum(self._sizes) - self._sizes
        self._domain_codes = np.array([c for domain in domains for c in domain], np.int64)

        def encoded(nulls: frozenset[Null], allowed: frozenset[Term]) -> tuple:
            codes = np.array(sorted(code[value] for value in allowed), np.int64)
            mask = np.bincount(codes, minlength=len(code)).astype(bool)
            return np.array(sorted(column[null] for null in nulls)), codes, mask

        #: Per event, per class: member columns, allowed codes, code mask.
        self._classes = [[encoded(*c) for c in event.classes] for event in self._events]
        self._cumulative64 = (
            np.array(self._cumulative, np.int64) if self._total_weight < 2**63 else None
        )
        self._generator = default_rng(self._rng.getrandbits(128))
        return self._generator

    def _draw(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One block of ``count`` coverage draws: the value codes (a row per
        draw, a column per null), each row's picked event, and each row's
        coverage ``#{j : ν ∈ E_j}``."""
        generator = self._encode() if self._generator is None else self._generator
        picks: np.ndarray
        if self._cumulative64 is not None:
            targets = generator.integers(0, self._total_weight, count, np.int64)
            picks = np.searchsorted(self._cumulative64, targets, side="right")
        else:
            draw, weight = self._rng.randrange, self._total_weight
            picks = np.array(
                [bisect_right(self._cumulative, draw(weight)) for _ in range(count)], np.intp
            )
        uniform = generator.integers(0, self._sizes, (count, len(self._sizes)))
        block = self._domain_codes[self._offsets + uniform]
        picked = np.bincount(picks, minlength=len(self._events))
        by_event = np.split(np.argsort(picks, kind="stable"), np.cumsum(picked)[:-1])
        for classes, rows in zip(self._classes, by_event):
            for columns, allowed, _mask in classes:
                chosen = generator.integers(0, len(allowed), (len(rows), 1))
                block[rows[:, None], columns] = allowed[chosen]
        coverage = np.zeros(count, np.int64)
        for classes in self._classes:
            inside = np.ones(count, bool)
            for columns, _allowed, mask in classes:
                first = block[:, columns[0]]
                inside &= mask[first]
                if len(columns) > 1:
                    inside &= (block[:, columns[1:]] == first[:, None]).all(1)
            coverage += inside
        return block, picks, coverage

    def _valuation(self, codes: list[int]) -> dict[Null, Term]:
        """Decode one row of a block."""
        return dict(zip(self._nulls, map(self._values.__getitem__, codes)))

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
        """Coverage estimate from ``samples`` draws (an ``int`` past the
        float range)."""
        if samples <= 0:
            raise ValueError("need at least one sample")
        if self._total_weight == 0:
            # No event: no valuation can satisfy the query.
            return EstimateReport(0.0, samples, 0, 0)
        drawn = np.zeros(len(self._events) + 1, np.int64)  # draws per coverage
        with _span("approx.estimate", samples=samples):
            for start in range(0, samples, self._block_rows):
                rows = min(self._block_rows, samples - start)
                drawn += np.bincount(self._draw(rows)[2], minlength=len(drawn))
        exact = self._total_weight * sum(
            Fraction(n, c) for c, n in enumerate(drawn.tolist()) if n
        ) / samples
        try:
            estimate: float | int = float(exact)
        except OverflowError:
            estimate = round(exact)
        return EstimateReport(
            estimate=estimate,
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
        return self.sample_many(1, max_rounds)[0]

    def sample_many(
        self, count: int, max_rounds_each: int | None = None
    ) -> list[dict[Null, Term]]:
        """``count`` independent uniform satisfying valuations, the
        accepted rows of successive blocks in order."""
        if count and self._total_weight == 0:
            raise NoSatisfyingValuation(
                "query has no embedding event on this database"
            )
        limit = math.inf if max_rounds_each is None else max_rounds_each
        found: list[dict[Null, Term]] = []
        rounds = 0  # draws since the last accepted one
        while len(found) < count and rounds < limit:
            wanted = (count - len(found)) * len(self._events)
            block, _picks, coverage = self._draw(min(self._block_rows, wanted))
            assert self._generator is not None
            start = 0
            for row in np.flatnonzero(self._generator.integers(0, coverage) == 0).tolist():
                rounds, start = rounds + row + 1 - start, row + 1
                if rounds > limit:
                    break
                found.append(self._valuation(block[row].tolist()))
                rounds = 0
                if len(found) == count:
                    break
            rounds += len(coverage) - start
        if len(found) < count:
            raise RuntimeError(
                "rejection sampling did not accept within %d rounds" % max_rounds_each
            )
        return found


def fpras_count_valuations(
    db: IncompleteDatabase,
    query: BCQ | UCQ,
    epsilon: float = 0.1,
    delta: float = 0.25,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> float | int:
    """One-shot FPRAS estimate of ``#Val(q)(D)`` (Corollary 5.3)."""
    estimator = KarpLubyEstimator(db, query, seed=seed, rng=rng)
    return estimator.estimate(epsilon, delta).estimate
