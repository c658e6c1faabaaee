"""Tests for the FPRAS (Cor. 5.3) and the Monte-Carlo baseline."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import Atom, BCQ, Const, UCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.db.valuation import iter_valuations
from repro.engine import CountJob
from repro.engine.jobs import execute_job
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


def contains(event, valuation):
    """The scalar membership oracle: ``valuation`` lies in ``event`` iff
    each class's nulls share one value, and that value is allowed."""
    for nulls, allowed in event.classes:
        values = {valuation[null] for null in nulls}
        if len(values) != 1 or next(iter(values)) not in allowed:
            return False
    return True


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
            if any(contains(event, valuation) for event in events):
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
                if contains(event, valuation)
            )
            assert members == event.weight

    def test_sampling_stays_inside_event(self):
        db = IncompleteDatabase.uniform(
            [Fact("R", [Null(1), Null(2)]), Fact("R", [Null(2), "a"])],
            ["a", "b"],
        )
        query = BCQ([Atom("R", ["x", "x"])])
        events = enumerate_events(db, query)
        estimator = KarpLubyEstimator(db, query, seed=7)
        block, picks, _coverage = estimator._draw(200)
        assert set(picks.tolist()) == set(range(len(events)))
        for codes, pick in zip(block.tolist(), picks.tolist()):
            assert contains(events[pick], estimator._valuation(codes))

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
            if any(contains(e, valuation) for e in events)
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


class TestArrayDraw:
    """The block draw against the scalar oracle :func:`contains`."""

    @given(small_incomplete_dbs(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_rows_lie_in_their_event_with_oracle_coverage(self, db, seed):
        query = _default_query(db)
        events = enumerate_events(db, query)
        if not events:
            return
        estimator = KarpLubyEstimator(db, query, seed=seed)
        block, picks, coverage = estimator._draw(64)
        assert block.shape == (64, len(db.nulls))
        for codes, pick, covered in zip(
            block.tolist(), picks.tolist(), coverage.tolist()
        ):
            valuation = estimator._valuation(codes)
            assert all(valuation[null] in db.domain_of(null) for null in db.nulls)
            assert contains(events[pick], valuation)
            assert covered == sum(contains(event, valuation) for event in events)


class TestExactPicks:
    """Events are picked exactly: int64 targets while ``W < 2^63``,
    Python integers past it."""

    EPSILON = 0.2

    @pytest.mark.parametrize(
        "nodes, instance_seed, seeds, past_int64",
        [(9, 100, range(5), False), (44, 1, range(3), True)],
    )
    def test_estimates_on_both_sides_of_two_to_the_63(
        self, nodes, instance_seed, seeds, past_int64
    ):
        db, query = scaling_hard_val_instance(nodes, seed=instance_seed)
        exact = solve("val", db, query).count
        for seed in seeds:
            estimator = KarpLubyEstimator(db, query, seed=seed)
            assert (estimator.total_event_weight >= 2**63) == past_int64
            report = estimator.estimate(self.EPSILON, delta=0.05)
            assert abs(report.estimate - exact) <= self.EPSILON * exact

    @pytest.mark.parametrize("padding, past_int64", [(0, False), (7, True)])
    def test_pick_frequencies_match_weights(self, padding, past_int64):
        # Three R events of weights 3:2:1 (W = 36), times 1000^padding
        # free valuations of a T fact.
        free = [Null("p%d" % i) for i in range(padding)]
        facts = [Fact("R", [Null(i), "a"]) for i in (1, 2, 3)]
        facts += [Fact("T", free)] if free else []
        dom = {Null(1): ["a", "b"], Null(2): ["a", "b", "c"], Null(3): list("abcdef")}
        dom.update({null: ["v%d" % i for i in range(1000)] for null in free})
        db = IncompleteDatabase(facts, dom=dom)
        query = BCQ([Atom("R", ["x", "x"])])
        estimator = KarpLubyEstimator(db, query, seed=3)
        total = estimator.total_event_weight
        assert (total >= 2**63) == past_int64
        expected = [event.weight / total for event in enumerate_events(db, query)]
        assert sorted(expected) == pytest.approx([1 / 6, 1 / 3, 1 / 2])
        draws = 30_000
        _block, picks, _coverage = estimator._draw(draws)
        observed = np.bincount(picks, minlength=3) / draws
        # Five standard deviations of a share near 1/2 over 30,000 draws.
        assert np.abs(observed - expected).max() <= 0.015


class TestPastTheFloatRange:
    """``W`` of 330 digits: the estimate is formed exactly and comes back
    as the rounded ``int``, not an ``OverflowError``."""

    EXACT = 1000**110 - 999**110

    @staticmethod
    def _instance():
        domain = ["a"] + ["v%d" % i for i in range(999)]
        facts = [Fact("R", [Null(i), "a"]) for i in range(110)]
        return IncompleteDatabase.uniform(facts, domain), BCQ([Atom("R", ["x", "x"])])

    def test_estimates_within_epsilon(self):
        db, query = self._instance()
        for seed in range(3):
            estimate = KarpLubyEstimator(db, query, seed=seed).estimate(0.2).estimate
            assert isinstance(estimate, int)
            assert abs(estimate - self.EXACT) * 5 <= self.EXACT  # ε = 0.2

    def test_engine_job_answers(self):
        db, query = self._instance()
        result = execute_job(CountJob("approx-val", db, query, epsilon=0.2, seed=0))
        assert result.ok, result.error
        assert abs(result.count - self.EXACT) * 5 <= self.EXACT


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
