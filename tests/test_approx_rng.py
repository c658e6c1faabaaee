"""Explicit seed/rng threading through the approximation layer."""

import random

import pytest

from repro.approx.fpras import KarpLubyEstimator, fpras_count_valuations
from repro.approx.montecarlo import naive_monte_carlo_valuations
from repro.util.rng import resolve_rng
from repro.workloads.generators import scaling_hard_val_instance


@pytest.fixture
def instance():
    return scaling_hard_val_instance(5, seed=0)


class TestResolveRng:
    def test_seed_builds_a_generator(self):
        assert resolve_rng(seed=7).random() == random.Random(7).random()

    def test_rng_passes_through(self):
        rng = random.Random(1)
        assert resolve_rng(rng=rng) is rng

    def test_both_is_an_error(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_rng(seed=1, rng=random.Random(1))


class TestReproducibility:
    def test_fpras_seed_reproducible(self, instance):
        db, query = instance
        first = fpras_count_valuations(db, query, epsilon=0.4, seed=5)
        second = fpras_count_valuations(db, query, epsilon=0.4, seed=5)
        assert first == second

    def test_fpras_explicit_rng(self, instance):
        db, query = instance
        seeded = fpras_count_valuations(db, query, epsilon=0.4, seed=9)
        via_rng = fpras_count_valuations(
            db, query, epsilon=0.4, rng=random.Random(9)
        )
        assert seeded == via_rng

    def test_estimator_rejects_seed_and_rng(self, instance):
        db, query = instance
        with pytest.raises(ValueError, match="not both"):
            KarpLubyEstimator(db, query, seed=1, rng=random.Random(1))

    def test_montecarlo_seed_reproducible(self, instance):
        db, query = instance
        first = naive_monte_carlo_valuations(db, query, samples=200, seed=4)
        second = naive_monte_carlo_valuations(db, query, samples=200, seed=4)
        assert first == second

    def test_montecarlo_explicit_rng(self, instance):
        db, query = instance
        seeded = naive_monte_carlo_valuations(db, query, samples=200, seed=4)
        via_rng = naive_monte_carlo_valuations(
            db, query, samples=200, rng=random.Random(4)
        )
        assert seeded == via_rng

    def test_sampler_explicit_rng(self, instance):
        db, query = instance
        seeded = KarpLubyEstimator(db, query, seed=2).sample()
        via_rng = KarpLubyEstimator(db, query, rng=random.Random(2)).sample()
        assert seeded == via_rng
