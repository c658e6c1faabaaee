"""Tests for the FPRAS (Cor. 5.3) and the Monte-Carlo baseline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import Atom, BCQ, Const, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.db.valuation import iter_valuations
from repro.exact.brute import count_valuations_brute
from repro.exact.dispatch import solve
from repro.approx.events import enumerate_events
from repro.approx.fpras import KarpLubyEstimator, fpras_count_valuations
from repro.approx.montecarlo import (
    naive_monte_carlo_valuations,
    sample_valuation,
)
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_hard_val_instance,
)

from tests.conftest import small_incomplete_dbs


def _default_query(db):
    if not db.schema():
        return BCQ([Atom("R", ["x"])])
    return BCQ(
        [Atom(r, ["x"] * a) for r, a in sorted(db.schema().items())]
    )


class TestEvents:
    @given(small_incomplete_dbs())
    @settings(max_examples=50, deadline=None)
    def test_union_of_events_is_val(self, db):
        """|E_1 ∪ ... ∪ E_m| = #Val(q)(D): the load-bearing fact behind
        the Karp-Luby estimator."""
        query = _default_query(db)
        if not query.is_self_join_free:
            return
        events = enumerate_events(db, query)
        union = 0
        for valuation in iter_valuations(db):
            if any(event.contains(valuation) for event in events):
                union += 1
        assert union == count_valuations_brute(db, query)

    @given(small_incomplete_dbs())
    @settings(max_examples=30, deadline=None)
    def test_weights_count_members(self, db):
        query = _default_query(db)
        events = enumerate_events(db, query)
        for event in events[:4]:
            members = sum(
                1
                for valuation in iter_valuations(db)
                if event.contains(valuation)
            )
            assert members == event.weight

    def test_sampling_stays_inside_event(self):
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(1), Null(2)]), Fact("R", [Null(2), "a"])],
            ["a", "b"],
        )
        query = BCQ([Atom("R", ["x", "x"])])
        rng = random.Random(7)
        for event in enumerate_events(db, query):
            for _ in range(20):
                assert event.contains(event.sample(rng))

    def test_self_join_supported(self):
        """Events (unlike the dichotomies) handle self-joins: Cor. 5.3
        covers all (U)CQs."""
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(1), "a"]), Fact("R", ["a", Null(2)])],
            ["a", "b"],
        )
        query = BCQ([Atom("R", ["x", "y"]), Atom("R", ["y", "z"])])
        events = enumerate_events(db, query)
        union = sum(
            1
            for valuation in iter_valuations(db)
            if any(e.contains(valuation) for e in events)
        )
        assert union == count_valuations_brute(db, query)

    def test_rejects_other_query_types(self):
        db = IncompleteDatabase.uniform([Fact("R", ["a"])], ["a"])
        with pytest.raises(TypeError):
            enumerate_events(db, object())


class TestKarpLuby:
    def _instance(self):
        nulls = [Null(i) for i in range(6)]
        facts = [Fact("R", [nulls[i], nulls[i + 1]]) for i in range(5)]
        facts.append(Fact("R", ["c", "c"]))
        return (
            IncompleteDatabase.uniform(facts, ["a", "b", "c"]),
            BCQ([Atom("R", ["x", "x"])]),
        )

    def test_estimate_within_epsilon(self):
        db, query = self._instance()
        exact = count_valuations_brute(db, query)
        estimator = KarpLubyEstimator(db, query, seed=1234)
        report = estimator.estimate(epsilon=0.1, delta=0.05)
        assert abs(report.estimate - exact) <= 0.1 * exact

    def test_upper_bound_property(self):
        db, query = self._instance()
        estimator = KarpLubyEstimator(db, query, seed=0)
        assert estimator.total_event_weight >= count_valuations_brute(
            db, query
        )

    def test_zero_events_means_zero(self):
        db = IncompleteDatabase.uniform([Fact("R", [Null(1)])], ["a"])
        query = BCQ([Atom("S", ["x"])])  # S empty: no event
        estimator = KarpLubyEstimator(db, query, seed=0)
        assert estimator.num_events == 0
        assert estimator.estimate(0.5).estimate == 0.0

    def test_sample_count_grows_with_precision(self):
        db, query = self._instance()
        estimator = KarpLubyEstimator(db, query, seed=0)
        assert estimator.sample_count(0.05) > estimator.sample_count(0.2)
        with pytest.raises(ValueError):
            estimator.sample_count(0.0)
        with pytest.raises(ValueError):
            estimator.estimate_with_samples(0)

    def test_ucq_support(self):
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(1)]), Fact("S", [Null(2)])], ["a", "b"]
        )
        query = UCQ(
            [BCQ([Atom("R", [Const("a")])]), BCQ([Atom("S", ["x"])])]
        )
        exact = count_valuations_brute(db, query)
        value = fpras_count_valuations(db, query, epsilon=0.1, seed=3)
        assert abs(value - exact) <= 0.1 * exact

    @given(small_incomplete_dbs(), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_randomized_accuracy(self, db, seed):
        query = _default_query(db)
        if not query.is_self_join_free:
            return
        exact = count_valuations_brute(db, query)
        report = KarpLubyEstimator(db, query, seed=seed).estimate(
            epsilon=0.15, delta=0.02
        )
        if exact == 0:
            assert report.estimate == 0.0
        else:
            # Guaranteed within 0.15 w.p. 0.98; the slack to 0.30 makes the
            # test deterministic-in-practice across hypothesis seeds.
            assert abs(report.estimate - exact) <= 0.30 * exact


def _band_instances():
    """Seeded small instances for the ε-band test: chorded cycles
    (Prop. 3.4 shape) and random ``R``/``S`` databases, each of the
    latter asked one BCQ and one UCQ."""
    instances = [
        scaling_hard_val_instance(
            n, num_colors=4, chord_probability=0.2, seed=n
        )
        for n in range(4, 8)
    ]
    bcq = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y", "x"])])
    ucq = UCQ([BCQ([Atom("R", ["x", "x"])]), BCQ([Atom("S", ["x", "x"])])])
    for seed in (0, 4, 6):
        db = random_incomplete_db(
            {"R": 2, "S": 2}, seed=seed, num_nulls=4,
            facts_per_relation=(2, 4), domain_size=3,
        )
        instances += [(db, bcq), (db, ucq)]
    return instances


class TestEpsilonBand:
    EPSILON, DELTA = 0.5, 0.25
    #: Allowance above δ for the share of seeded runs outside the band.
    SLACK = 0.05

    def test_estimates_leave_the_band_at_most_a_delta_share(self):
        """The FPRAS guarantee, checked on exact counts: over 10 seeds per
        instance, at most a δ share (plus the stated slack) of the
        estimates lands outside ``(1 ± ε) · #Val``."""
        outside = runs = 0
        for db, query in _band_instances():
            exact = solve("val", db, query).count
            assert exact > 0
            for seed in range(10):
                report = KarpLubyEstimator(db, query, seed=seed).estimate(
                    self.EPSILON, self.DELTA
                )
                runs += 1
                outside += abs(report.estimate - exact) > self.EPSILON * exact
        assert runs == 100
        assert outside <= (self.DELTA + self.SLACK) * runs


class TestMonteCarlo:
    def test_unbiased_on_easy_instance(self):
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(1), Null(2)])], ["a", "b"]
        )
        query = BCQ([Atom("R", ["x", "x"])])
        exact = count_valuations_brute(db, query)  # 2 of 4
        estimate = naive_monte_carlo_valuations(db, query, 4000, seed=5)
        assert abs(estimate - exact) <= 0.2 * exact

    def test_sample_valuation_respects_domains(self):
        db = IncompleteDatabase(
            [Fact("R", [Null(1)])], dom={Null(1): ["a", "b"]}
        )
        rng = random.Random(0)
        for _ in range(10):
            valuation = sample_valuation(db, rng)
            assert valuation[Null(1)] in {"a", "b"}

    def test_guards(self):
        db = IncompleteDatabase.uniform([Fact("R", [Null(1)])], ["a"])
        query = BCQ([Atom("R", ["x"])])
        with pytest.raises(ValueError):
            naive_monte_carlo_valuations(db, query, 0)

    def test_misses_rare_events(self):
        """The failure mode motivating the FPRAS: a satisfying set of
        measure 2^-n is invisible to polynomially many naive samples."""
        n = 14
        nulls = [Null(i) for i in range(n)]
        facts = [Fact("R", [null, "t"]) for null in nulls]
        db = IncompleteDatabase.uniform(facts, ["t", "f"])
        # q: some null = t AND ... make it need ALL nulls = t via R(x,x)?
        # Use a query satisfied only when every null maps to 't' is not
        # expressible as BCQ; instead make satisfaction rare by asking for
        # a long chain of distinct constants - simpler: count directly.
        query = BCQ([Atom("R", ["x", "x"])])  # needs some null = 't'... common
        # Rare instead: single fact whose null must hit 1 value among many.
        rare_db = IncompleteDatabase.uniform(
            [Fact("S", [Null("z"), "w"])], ["w"] + ["v%d" % i for i in range(999)]
        )
        rare_query = BCQ([Atom("S", ["x", "x"])])
        exact = count_valuations_brute(rare_db, rare_query)
        assert exact == 1
        naive = naive_monte_carlo_valuations(rare_db, rare_query, 200, seed=9)
        fpras = fpras_count_valuations(rare_db, rare_query, 0.1, seed=9)
        assert naive == 0.0  # the baseline sees nothing
        assert abs(fpras - exact) <= 0.1 * exact
