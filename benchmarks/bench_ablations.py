"""Ablations for two design choices of the implementation.

* #Val estimation: Karp-Luby coverage estimator vs. naive Monte-Carlo at
  equal sample budgets — equal work, very different error on skewed
  instances.
* Completion counting on unary uniform tables: shape enumeration
  (Thm 4.6) vs. brute-force enumeration — the polynomial/exponential
  crossover inside the FP cell.
"""

from __future__ import annotations

import pytest

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.exact.brute import count_completions_brute, count_valuations_brute
from repro.exact.comp_uniform import count_completions_uniform_unary
from repro.approx.fpras import KarpLubyEstimator
from repro.approx.montecarlo import naive_monte_carlo_valuations
from repro.workloads.generators import scaling_uniform_unary_comp_instance


@pytest.mark.parametrize("estimator_name", ["karp-luby", "naive-mc"])
def test_ablation_estimators_equal_budget(benchmark, emit, estimator_name):
    """Same sample budget, same instance: compare achieved error."""
    nulls = [Null(i) for i in range(8)]
    facts = [Fact("R", [nulls[i], nulls[i + 1]]) for i in range(7)]
    db = IncompleteDatabase.uniform(facts, ["a", "b", "c", "d"])
    query = BCQ([Atom("R", ["x", "x"])])
    exact = count_valuations_brute(db, query)
    samples = 3000

    if estimator_name == "karp-luby":
        estimator = KarpLubyEstimator(db, query, seed=21)
        estimate = benchmark(
            lambda: estimator.estimate_with_samples(samples).estimate
        )
    else:
        estimate = benchmark(
            lambda: naive_monte_carlo_valuations(db, query, samples, seed=21)
        )
    error = abs(estimate - exact) / exact
    emit(
        "ablation estimator=%s, %d samples" % (estimator_name, samples),
        exact=exact,
        estimate=round(estimate, 1),
        rel_error=round(error, 4),
    )
    # Both are unbiased and comparable here because the satisfying mass is
    # large; the rare-event test in bench_approximation shows the regime
    # where naive MC collapses and only Karp-Luby retains its guarantee.
    assert error < 0.5


@pytest.mark.parametrize("nulls,method", [(6, "poly"), (6, "brute"),
                                          (12, "poly")])
def test_ablation_comp_poly_vs_brute(benchmark, emit, nulls, method):
    """Inside the Theorem 4.6 FP cell, the shape algorithm's advantage over
    enumeration grows with the null count (brute at 12 nulls would cross
    the enumeration budget)."""
    db, query = scaling_uniform_unary_comp_instance(nulls)
    if method == "poly":
        result = benchmark(count_completions_uniform_unary, db, query)
    else:
        result = benchmark(count_completions_brute, db, query)
    emit(
        "ablation #Compu method=%s nulls=%d" % (method, nulls),
        count=result,
    )
    if nulls == 6:
        assert result == count_completions_brute(db, query)
