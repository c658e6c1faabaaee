"""Tests for uniform generation of satisfying valuations
(:meth:`KarpLubyEstimator.sample` / :meth:`KarpLubyEstimator.sample_many`)."""

from collections import Counter

import pytest

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.db.valuation import apply_valuation, iter_valuations
from repro.eval.evaluate import evaluate
from repro.approx.fpras import KarpLubyEstimator, NoSatisfyingValuation


def _satisfying_valuations(db, query):
    return [
        valuation
        for valuation in iter_valuations(db)
        if evaluate(query, apply_valuation(db, valuation))
    ]


class TestCorrectness:
    def _instance(self):
        db = IncompleteDatabase(
            [Fact("R", [Null(1), Null(2)]), Fact("R", ["a", Null(2)])],
            dom={Null(1): ["a", "b"], Null(2): ["a", "b", "c"]},
        )
        return db, BCQ([Atom("R", ["x", "x"])])

    def test_samples_are_satisfying(self):
        db, query = self._instance()
        sampler = KarpLubyEstimator(db, query, seed=5)
        for valuation in sampler.sample_many(50):
            assert evaluate(query, apply_valuation(db, valuation))

    def test_every_satisfying_valuation_is_reachable(self):
        db, query = self._instance()
        satisfying = _satisfying_valuations(db, query)
        sampler = KarpLubyEstimator(db, query, seed=9)
        seen = {
            tuple(sorted((repr(k), repr(v)) for k, v in s.items()))
            for s in sampler.sample_many(300)
        }
        expected = {
            tuple(sorted((repr(k), repr(v)) for k, v in s.items()))
            for s in satisfying
        }
        assert seen == expected

    def test_distribution_is_close_to_uniform(self):
        """Frequency test with a generous tolerance (seeded, deterministic)."""
        db, query = self._instance()
        satisfying = _satisfying_valuations(db, query)
        support = len(satisfying)
        sampler = KarpLubyEstimator(db, query, seed=123)
        draws = 3000
        counts = Counter(
            tuple(sorted((repr(k), repr(v)) for k, v in s.items()))
            for s in sampler.sample_many(draws)
        )
        expected = draws / support
        for frequency in counts.values():
            assert abs(frequency - expected) < 0.25 * expected + 10

    def test_unsatisfiable_raises(self):
        db = IncompleteDatabase.uniform([Fact("R", [Null(1)])], ["a"])
        sampler = KarpLubyEstimator(db, BCQ([Atom("S", ["x"])]), seed=0)
        with pytest.raises(NoSatisfyingValuation):
            sampler.sample()

    def test_max_rounds_guard(self):
        db, query = self._instance()
        sampler = KarpLubyEstimator(db, query, seed=0)
        # max_rounds=0 can never accept
        with pytest.raises(RuntimeError):
            sampler.sample(max_rounds=0)

    def test_num_events_exposed(self):
        db, query = self._instance()
        sampler = KarpLubyEstimator(db, query, seed=0)
        assert sampler.num_events == 2
