#!/usr/bin/env python
"""Perf-tracked workload harness: run the fixed matrix, emit BENCH_engine.json.

Runs one fixed workload per tracked hot path —

* ``hom``          indexed homomorphism search (:mod:`repro.eval`);
* ``sharpsat``     the exact model counter end to end — ordering heuristic,
  preprocessing and search (:mod:`repro.compile.sharpsat`);
* ``sharpsat_core`` the trail-based search core head-to-head against the
  retained tuple-based reference counter
  (:mod:`repro.compile.sharpsat_reference`) on search-heavy instances,
  with a fixed precomputed branching order so the measurement isolates
  the in-place propagation / bitset component machinery; reports
  decisions per second and the before/after ratio;
* ``fpras``        Karp-Luby batch sample evaluation (:mod:`repro.approx`);
* ``amortized``    the repeated-workload scenario: one instance asked for
  its uniform count, weighted count and all per-null marginals — the
  d-DNNF circuit compiles once and answers by linear passes
  (:mod:`repro.compile.circuit`), measured against re-running the
  model-counting search per question;
* ``amortized_vectorized`` the sweep scenario: one compiled circuit asked
  for its weighted count under 1000 different weightings — the vectorized
  batched pass (:meth:`repro.compile.backend.ValuationCircuit.weighted_count_many`,
  one numpy column per node) measured against looping the scalar pass per
  weighting; answers are asserted bit-identical;
* ``batch_engine`` the mixed 200-instance batch through
  :mod:`repro.engine`, reported against the serial per-instance loop;
* ``dpdb``         the tree-decomposition DP backend
  (:mod:`repro.compile.dpdb`) head-to-head against the trail core on the
  width-bounded grid/long-cycle hard-cell workloads, answers asserted
  bit-identical and the DP-over-search speedup recorded;
* ``circuit_batch`` a batch of *distinct* circuit-backed jobs
  (``val-weighted``, ``marginals``, ``method='circuit'``): the engine —
  persistent warmed pool, each circuit compiled and answered in one
  worker, only answers sent home — measured against the path it replaced, the
  serial-in-parent compile loop over the retained reference search core
  (what every such job ran through before the artifact engine and the
  trail rewrite).  Answers are asserted bit-identical.  The tracked
  ``speedup`` therefore bundles worker parallelism *and* the core
  rewrite; the detail also reports ``serial_same_core_seconds`` (the
  engine against a same-core serial loop) so the two contributions stay
  separable.  On a single-core runner the same-core comparison hovers
  near 1.0× by construction — parallel workers cannot beat serial without
  a second core — which is exactly why the tracked number is measured
  against the replaced path —

and writes machine-readable results (wall seconds, speedups, cache hit
rate) to ``BENCH_engine.json``.  Wall times are also *normalized* by a
fixed pure-Python calibration loop measured on the same interpreter, so a
committed baseline (``benchmarks/baseline.json``) transfers across
machines of different speeds.

CI runs ``harness.py --quick --check`` and fails when any tracked path is
more than ``--threshold`` (default 1.5×) slower, in normalized units, than
the committed baseline.  ``--update-baseline`` rewrites the baseline from
the current run; ``--inject-slowdown path=factor`` multiplies one path's
measured time, which exists to prove the gate actually trips.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:  # pragma: no cover - import side effect
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - running without PYTHONPATH=src
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import random

from repro.approx.fpras import KarpLubyEstimator
from repro.compile.backend import (
    ValuationCircuit,
    count_valuations_lineage,
    valuation_marginals_recount,
)
from repro.compile.dpdb import (
    count_valuations_dpdb,
    dpdb_probe,
    probe_cache_clear,
)
from repro.compile.encode import compile_valuation_cnf
from repro.compile.sharpsat import ModelCounter
from repro.core.query import Atom, BCQ
from repro.db.database import Database
from repro.db.deltas import ResolveNull, RestrictDomain
from repro.db.fact import Fact
from repro.engine import BatchEngine, CountCache, CountJob, execute_job
from repro.eval.homomorphism import count_homomorphisms, satisfies_bcq
from repro.obs import JsonlSink, add_sink, capture, remove_sink
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_codd_instance,
    scaling_grid_val_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
    scaling_long_cycle_val_instance,
    scaling_uniform_val_instance,
)

#: Paths the CI gate tracks (keys of the emitted ``paths`` object).
TRACKED_PATHS = (
    "hom", "sharpsat", "sharpsat_core", "fpras", "amortized",
    "amortized_vectorized", "incremental", "batch_engine", "circuit_batch",
    "dpdb",
)

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_engine.json")
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baseline.json"
)


def _timed(function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def _best_of(function, repeats=3):
    """Result of the first run plus the fastest wall time of ``repeats``.

    The short tracked paths (well under a second) are measured best-of-N so
    one scheduler hiccup on a shared CI runner cannot read as a regression.
    """
    result, best = _timed(function)
    for _ in range(repeats - 1):
        _, seconds = _timed(function)
        best = min(best, seconds)
    return result, best


def calibrate() -> float:
    """Seconds for a fixed pure-Python spin (best of three).

    The workload is deterministic and allocation-free, so the measurement
    tracks single-core interpreter speed — the quantity all tracked paths
    scale with.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        accumulator = 0
        for i in range(600_000):
            accumulator = (accumulator * 1103515245 + i) % 2147483648
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------------------
# tracked paths
# ---------------------------------------------------------------------------


def path_hom(quick: bool) -> dict:
    """Homomorphism search over ground databases (the evaluator hot path)."""
    rng = random.Random(7)
    node_count = 40
    fact_count = 400 if quick else 900
    facts = [
        Fact("R", [rng.randrange(node_count), rng.randrange(node_count)])
        for _ in range(fact_count)
    ]
    facts += [Fact("S", [rng.randrange(node_count)]) for _ in range(fact_count // 3)]
    database = Database(facts)
    path_query = BCQ(
        [Atom("R", ["x", "y"]), Atom("R", ["y", "z"]), Atom("S", ["z"])]
    )
    repetitions = 12 if quick else 30

    def run_checks():
        subtotal = 0
        for _ in range(repetitions):
            subtotal += count_homomorphisms(path_query, database)
            satisfies_bcq(database, path_query)
        return subtotal

    total, seconds = _best_of(run_checks)
    return {
        "seconds": seconds,
        "detail": {
            "facts": len(facts),
            "repetitions": repetitions,
            "homomorphisms": total // repetitions,
        },
    }


def path_sharpsat(quick: bool) -> dict:
    """The exact counter's branch/propagate/decompose loop."""
    size = 26 if quick else 32
    db, query = scaling_hard_val_instance(
        size, chord_probability=0.15, seed=2
    )
    encoding = compile_valuation_cnf(db, query)  # compilation not timed

    def count_once():
        return ModelCounter(encoding.cnf).count()

    # The count is a few milliseconds now; extra repeats keep one noisy
    # scheduler window on a shared runner from reading as a regression.
    models, seconds = _best_of(count_once, repeats=7)
    return {
        "seconds": seconds,
        "detail": {
            "cycle_size": size,
            "variables": encoding.cnf.num_variables,
            "clauses": len(encoding.cnf),
            "models": str(models),
        },
    }


def path_sharpsat_core(quick: bool) -> dict:
    """Trail core vs the retained reference core, same orders, same CNFs.

    The instances are sparse hard-cell encodings whose searches branch
    hundreds of times (propagation-heavy dense instances would measure
    the preprocessor, not the core).  Orders are precomputed and shared,
    so the ratio isolates in-place propagation + bitset components
    against the tuple-rebuild machinery they replaced.  Counts are
    asserted identical — this is the differential pair the randomized
    suites rely on, under a stopwatch.
    """
    specs = (
        [(16, 0.05, 16), (18, 0.05, 7)]
        if quick
        else [(18, 0.05, 7), (20, 0.05, 7), (24, 0.03, 11)]
    )
    from repro.compile.ordering import branching_order

    prepared = []
    for size, chord, seed in specs:
        db, query = scaling_hard_val_instance(
            size, chord_probability=chord, seed=seed
        )
        encoding = compile_valuation_cnf(db, query)  # compilation not timed
        order, _width = branching_order(encoding.cnf)
        prepared.append((encoding.cnf, order))

    def run_trail():
        total = 0
        decisions = 0
        for cnf, order in prepared:
            counter = ModelCounter(cnf, order=order)
            total += counter.count()
            decisions += counter.stats()["decisions"]
        return total, decisions

    def run_reference():
        total = 0
        for cnf, order in prepared:
            total += ModelCounter(cnf, order=order, reference=True).count()
        return total

    # Symmetric best-of-5 on both cores: an asymmetric measurement would
    # let a scheduler stall on the reference side inflate the ratio.
    (total, decisions), seconds = _best_of(run_trail, repeats=5)
    reference_total, reference_seconds = _best_of(run_reference, repeats=5)
    if total != reference_total:
        raise AssertionError(
            "trail core disagreed with the reference counter"
        )
    return {
        "seconds": seconds,
        "detail": {
            "instances": len(prepared),
            "decisions": decisions,
            "decisions_per_second": round(decisions / max(seconds, 1e-9)),
            "reference_seconds": reference_seconds,
            "core_speedup": reference_seconds / max(seconds, 1e-9),
        },
    }


def path_fpras(quick: bool) -> dict:
    """Karp-Luby coverage sampling with a fixed sample batch."""
    db, query = scaling_hard_val_instance(10, seed=3)
    estimator = KarpLubyEstimator(db, query, seed=11)
    samples = 4_000 if quick else 12_000
    report, seconds = _best_of(
        lambda: estimator.estimate_with_samples(samples)
    )
    return {
        "seconds": seconds,
        "detail": {
            "samples": samples,
            "events": report.num_events,
            "estimate": report.estimate,
        },
    }


def path_amortized(quick: bool) -> dict:
    """Repeated workload on one instance: compile once vs search per question.

    The question set is the ISSUE-3 acceptance scenario — the uniform
    count, a weighted count under non-uniform null weights, and the
    marginal ``P[⊥ = c | q]`` for every (null, value) pair.  The baseline
    answers each question the pre-circuit way (a fresh model-counting
    search per question: one complement count, one throwaway compile for
    the weighted count, and the condition-and-recount loop for the
    marginals); the amortized path compiles one d-DNNF circuit and runs
    linear passes.  Answers are asserted identical, exactly.
    """
    size = 14 if quick else 18
    db, query = scaling_hard_val_instance(
        size, chord_probability=0.1, seed=5
    )
    weights = {
        null: {
            value: 1 + (index + position) % 3
            for position, value in enumerate(
                sorted(db.domain_of(null), key=repr)
            )
        }
        for index, null in enumerate(db.nulls)
    }
    questions = 2 + sum(len(db.domain_of(null)) for null in db.nulls)

    def baseline():
        count = count_valuations_lineage(db, query)
        weighted = ValuationCircuit(db, query).weighted_count(weights)
        marginals = valuation_marginals_recount(db, query)
        return count, weighted, marginals

    def amortized():
        compiled = ValuationCircuit(db, query)
        return (
            compiled.count(),
            compiled.weighted_count(weights),
            compiled.marginals(),
        )

    # Both sides measured best-of-N: an asymmetric measurement would
    # let one scheduler hiccup on the baseline inflate the speedup.  The
    # amortized side is single-digit milliseconds, so it gets the most
    # repeats — at that scale every sample is at the scheduler's mercy.
    baseline_result, baseline_seconds = _best_of(baseline)
    amortized_result, seconds = _best_of(amortized, repeats=7)
    if baseline_result != amortized_result:
        raise AssertionError(
            "circuit passes disagreed with the per-question searches"
        )
    return {
        "seconds": seconds,
        "detail": {
            "cycle_size": size,
            "questions": questions,
            "count": str(amortized_result[0]),
            "per_question_seconds": baseline_seconds,
            "speedup": baseline_seconds / max(seconds, 1e-9),
        },
    }


def path_amortized_vectorized(quick: bool) -> dict:
    """The sweep scenario: 1000 weightings of one circuit, batched vs looped.

    Both sides share one compiled circuit (compilation is the ``amortized``
    path's story, not this one's); the question is purely how fast N
    answers come out of it.  The looped baseline runs the scalar weighted
    pass once per weighting — the only option before the batched passes
    existed.  The vectorized side makes a single
    :meth:`~repro.compile.backend.ValuationCircuit.weighted_count_many`
    call, which holds one length-N numpy column per circuit node.  The
    weightings sweep a fixed handful of nulls (a parameter grid; every
    other null keeps default weights), which keeps the batched pass's
    magnitude bound inside int64 — the shape the fast path is built for.
    Answers are asserted bit-identical — the vectorized pass is a drop-in
    for the loop, not an approximation of it.
    """
    size, chord, seed = (32, 0.03, 59) if quick else (36, 0.03, 63)
    db, query = scaling_hard_val_instance(
        size, chord_probability=chord, seed=seed
    )
    compiled = ValuationCircuit(db, query)  # compilation not timed
    rng = random.Random(17)
    swept = db.nulls[:4]
    rows = [
        {
            null: {
                value: rng.randrange(1, 4)
                for value in sorted(db.domain_of(null), key=repr)
            }
            for null in swept
        }
        for _ in range(1000)
    ]

    def looped():
        return [compiled.weighted_count(row) for row in rows]

    def vectorized():
        return compiled.weighted_count_many(rows)

    # The looped side is ~three orders of magnitude heavier per repeat,
    # so it gets fewer; the vectorized side is milliseconds and needs
    # the extra repeats to shake off scheduler noise.
    looped_result, looped_seconds = _best_of(looped, repeats=2)
    vectorized_result, seconds = _best_of(vectorized, repeats=7)
    if looped_result != vectorized_result:
        raise AssertionError(
            "vectorized weighted counts disagreed with the scalar loop"
        )
    return {
        "seconds": seconds,
        "detail": {
            "cycle_size": size,
            "weightings": len(rows),
            "looped_seconds": looped_seconds,
            "speedup": looped_seconds / max(seconds, 1e-9),
        },
    }


def path_incremental(quick: bool) -> dict:
    """Update stream on one instance: condition the parent circuit vs
    recompiling per update.

    The scenario is the ISSUE-9 acceptance case — a compiled instance
    receives a stream of resolution-only updates (nulls resolved to
    constants, null domains restricted), and each updated instance is
    counted.  The baseline compiles a fresh d-DNNF per update, the only
    option before ``condition`` existed; the incremental side reuses the
    parent circuit and runs one conditioning pass per update.  Answers
    are asserted identical, exactly — conditioning is bit-compatible
    with recompilation, so the speedup is free of semantic drift.
    """
    size = 14 if quick else 18
    db, query = scaling_hard_val_instance(
        size, chord_probability=0.1, seed=5
    )
    parent = ValuationCircuit(db, query)  # parent compile not timed
    nulls = sorted(db.nulls, key=repr)
    deltas = []
    for index, null in enumerate(nulls[:6]):
        domain = sorted(db.domain_of(null), key=repr)
        if index % 2 == 0:
            deltas.append(ResolveNull(null, domain[index % len(domain)]))
        else:
            keep = max(1, len(domain) - 1)
            deltas.append(RestrictDomain(null, frozenset(domain[:keep])))

    def recompile_per_update():
        return [
            ValuationCircuit(db.apply(delta), query).count()
            for delta in deltas
        ]

    def condition_parent():
        return [parent.condition(delta).count() for delta in deltas]

    # The incremental side is single-digit milliseconds per update, so it
    # gets the most repeats — at that scale every sample is at the
    # scheduler's mercy.
    baseline_result, baseline_seconds = _best_of(recompile_per_update)
    incremental_result, seconds = _best_of(condition_parent, repeats=7)
    if baseline_result != incremental_result:
        raise AssertionError(
            "conditioned counts disagreed with per-update recompilation"
        )
    return {
        "seconds": seconds,
        "detail": {
            "cycle_size": size,
            "updates": len(deltas),
            "counts": [str(count) for count in incremental_result],
            "recompile_seconds": baseline_seconds,
            "speedup": baseline_seconds / max(seconds, 1e-9),
        },
    }


def path_dpdb(quick: bool) -> dict:
    """Tree-decomposition DP vs the trail core on width-bounded hard cells.

    The instances are the low-treewidth ``#Val`` workloads the dpdb
    backend exists for: a grid-shaped coloring lineage (treewidth =
    ``min(rows, cols)``) and a long-cycle coloring lineage (constant
    width at any length) — *wide but width-bounded*, so the DP's
    ``O(nodes * 2^width)`` tables stay small while the trail search keeps
    paying for the cycles.  Both sides run their full front doors
    (encoding compile included); answers are asserted bit-identical — the
    DP is a drop-in for the search on these cells, not an approximation.
    The dpdb side's width probe is memoized exactly as the planner's is,
    so best-of timing reflects the steady state the engine sees.
    """
    if quick:
        grid = scaling_grid_val_instance(3, 16, num_colors=3)
        cycle = scaling_long_cycle_val_instance(120, 1, num_colors=3)
    else:
        grid = scaling_grid_val_instance(3, 20, num_colors=3)
        cycle = scaling_long_cycle_val_instance(160, 1, num_colors=3)
    instances = [("grid", *grid), ("long-cycle", *cycle)]
    probe_cache_clear()

    def run_dpdb():
        return [
            count_valuations_dpdb(db, query) for _, db, query in instances
        ]

    def run_trail():
        return [
            count_valuations_lineage(db, query) for _, db, query in instances
        ]

    # Symmetric best-of on both sides; the trail side is an order of
    # magnitude heavier per repeat, so it gets fewer.
    dpdb_counts, seconds = _best_of(run_dpdb, repeats=5)
    trail_counts, trail_seconds = _best_of(run_trail, repeats=2)
    if dpdb_counts != trail_counts:
        raise AssertionError("dpdb disagreed with the trail core")
    return {
        "seconds": seconds,
        "detail": {
            "instances": [shape for shape, _, _ in instances],
            "widths": [
                dpdb_probe("val", db, query).width
                for _, db, query in instances
            ],
            "trail_seconds": trail_seconds,
            "speedup": trail_seconds / max(seconds, 1e-9),
        },
    }


def mixed_workload(quick: bool) -> list[CountJob]:
    """The fixed mixed batch: 200 jobs over ~50 unique instances.

    Every instance family of the repo is represented (poly cells, hard
    lineage cells, completions, brute-force stragglers), and each unique
    instance appears four times — the duplication profile of
    classification sweeps, which is what the cache layer exploits.
    """
    unique: list[CountJob] = []
    hard_sizes = range(8, 13) if quick else range(10, 17)
    for size in hard_sizes:
        db, query = scaling_hard_val_instance(size, seed=size)
        unique.append(CountJob("val", db, query, label="hard-val-%d" % size))
    for size in (4, 5, 6, 7, 8):
        db, query = scaling_codd_instance(size, seed=size)
        unique.append(CountJob("val", db, query, label="codd-%d" % size))
    for size in (6, 8, 10, 12, 14):
        db, query = scaling_uniform_val_instance(size, seed=size)
        unique.append(
            CountJob("val", db, query, label="uniform-%d" % size)
        )
    for size in (6, 7, 8, 9, 10):
        db, query = scaling_hard_comp_instance(size, seed=size)
        unique.append(CountJob("comp", db, query, label="comp-%d" % size))
        unique.append(
            CountJob("comp", db, None, label="comp-all-%d" % size)
        )
    for seed in range(15):
        db = random_incomplete_db(
            {"R": 2, "S": 1}, seed=seed, num_nulls=4, domain_size=3
        )
        query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        unique.append(CountJob("val", db, query, label="random-%d" % seed))
    for seed in range(10):
        db, query = scaling_hard_val_instance(9, seed=100)
        unique.append(
            CountJob(
                "approx-val", db, query, epsilon=0.2, seed=seed,
                label="approx-%d" % seed,
            )
        )

    jobs: list[CountJob] = []
    for repetition in range(4):
        for index, job in enumerate(unique):
            jobs.append(
                CountJob(
                    job.problem, job.db, job.query,
                    method=job.method, budget=job.budget,
                    epsilon=job.epsilon, delta=job.delta, seed=job.seed,
                    label="%s/rep%d" % (job.label, repetition),
                )
            )
    return jobs


def path_batch_engine(quick: bool, workers: int | None) -> dict:
    """The mixed batch: serial per-instance loop vs the engine."""
    jobs = mixed_workload(quick)

    started = time.perf_counter()
    serial_results = [execute_job(job) for job in jobs]
    serial_seconds = time.perf_counter() - started

    engine = BatchEngine(workers=workers)
    started = time.perf_counter()
    engine_results = engine.run(jobs)
    engine_seconds = time.perf_counter() - started

    mismatches = sum(
        1
        for serial, batched in zip(serial_results, engine_results)
        if serial.count != batched.count
    )
    errors = sum(1 for result in engine_results if not result.ok)
    if mismatches or errors:
        raise AssertionError(
            "batch engine disagreed with the serial loop "
            "(%d mismatches, %d errors)" % (mismatches, errors)
        )
    return {
        "seconds": engine_seconds,
        "detail": {
            "jobs": len(jobs),
            "unique_solved": engine.cache.misses,
            "serial_seconds": serial_seconds,
            "speedup": serial_seconds / max(engine_seconds, 1e-9),
            "cache_hit_rate": engine.cache.hit_rate,
            "workers": engine.workers,
        },
    }


def circuit_workload(quick: bool) -> list[CountJob]:
    """Distinct circuit-backed jobs: one compile each, no cross-job reuse.

    Every instance is asked exactly one circuit question, so the workload
    isolates what the engine optimizes — the compiles themselves — with
    no amortization to hide behind.  The instances are sparse and
    search-heavy (hundreds of decisions each): compile cost here *is*
    search cost, which is what the trail core attacks, and each job is
    expensive enough (hundreds of milliseconds on the reference core)
    that per-job dispatch overhead stays noise.
    """
    jobs: list[CountJob] = []
    specs = (
        [
            (24, 0.05, 51), (32, 0.03, 59), (34, 0.04, 61),
            (36, 0.03, 63), (40, 0.03, 67), (42, 0.025, 69),
        ]
        if quick
        else [
            (32, 0.03, 59), (34, 0.04, 61), (36, 0.04, 63),
            (38, 0.03, 65), (38, 0.025, 65), (40, 0.03, 67),
            (42, 0.025, 69), (36, 0.03, 63),
        ]
    )
    for position, (size, chord, seed) in enumerate(specs):
        db, query = scaling_hard_val_instance(
            size, chord_probability=chord, seed=seed
        )
        weights = {
            null: {
                value: 1 + (index + offset) % 3
                for offset, value in enumerate(
                    sorted(db.domain_of(null), key=repr)
                )
            }
            for index, null in enumerate(db.nulls)
        }
        kind = position % 3
        if kind == 0:
            jobs.append(
                CountJob("val", db, query, method="circuit",
                         label="circuit-val-%d" % size)
            )
        elif kind == 1:
            jobs.append(
                CountJob("val-weighted", db, query, weights=weights,
                         label="circuit-weighted-%d" % size)
            )
        else:
            jobs.append(
                CountJob("marginals", db, query,
                         label="circuit-marginals-%d" % size)
            )
    return jobs


def _reference_circuit_answer(job: CountJob):
    """One circuit job the pre-engine way: a fresh in-parent compile over
    the retained reference search core, then the question's pass."""
    from repro.compile.backend import CompletionCircuit, ValuationCircuit
    from repro.engine.jobs import marginals_record

    if job.problem == "comp":
        return CompletionCircuit(job.db, job.query, reference=True).count()
    compiled = ValuationCircuit(job.db, job.query, reference=True)
    if job.problem == "val":
        return compiled.count()
    if job.problem == "val-weighted":
        return compiled.weighted_count(job.weights)
    assert job.problem == "marginals"
    return marginals_record(compiled.marginals(job.weights))


def path_circuit_batch(quick: bool, workers: int | None) -> dict:
    """Distinct circuit jobs: the engine vs the loop it replaced.

    The baseline answers every job the way such jobs ran before the
    artifact engine and the trail rewrite: serially in the parent, one
    fresh circuit compile per job, over the reference search core.  The
    measured path is the production engine — a persistent pool, warmed
    before timing (a batch engine is a long-lived component; process
    startup amortizes across batches, so it does not belong to any one
    batch's bill), each circuit compiled and answered in a worker, only
    answers sent home.  Answers are asserted identical.  On a machine
    whose pool sizes to a single worker the timed engine runs in-parent;
    the worker path is then still driven (untimed, 2 workers) so its
    bit-identical assertion never goes dark.  ``serial_same_core_seconds``
    additionally records a same-core serial engine run, so the speedup
    decomposes into its parallelism and core-rewrite parts.
    """
    jobs = circuit_workload(quick)
    # One worker per CPU: the engine's own sizing rule.  Forcing a pool
    # wider than the machine (the old fixed 4) is how an earlier
    # measurement ended up *slower* than serial on one-core runners —
    # four processes time-slicing one core is pure overhead.  At workers=1 the engine solves in-parent, which
    # is the optimal strategy on that hardware and still measures the
    # same code path the batch front door runs.
    from repro.engine.pool import default_workers

    pool_workers = workers if workers is not None else default_workers()

    # Every side is measured best-of-2 — the jobs are heavyweight, so a
    # single scheduler stall on either side would otherwise swing the
    # tracked ratio by tens of percent.
    reference_answers, serial_seconds = _best_of(
        lambda: [_reference_circuit_answer(job) for job in jobs], repeats=2
    )

    def run_same_core():
        return BatchEngine(workers=0).run(jobs)

    same_core_results, same_core_seconds = _best_of(run_same_core, repeats=2)

    engine = BatchEngine(workers=pool_workers, persistent_pool=True)
    engine.warm()

    def run_engine():
        # A fresh cache per measurement: a repeat must re-solve, not hit.
        engine.cache = CountCache()
        return engine.run(jobs)

    engine_results, engine_seconds = _best_of(run_engine, repeats=2)
    engine.close()

    def worker_answers(results):
        # Only answers that came back from a pool worker carry a queue time.
        return sum(
            "queue_seconds" in result.meta.get("metrics", {})
            for result in results
        )

    worker_path_results = engine_results
    worker_answers_covered = None
    if pool_workers <= 1:
        # The timed engine ran serially (right for this machine), but the
        # worker path must stay covered by the bit-identical assertion
        # everywhere — run it untimed with a 2-worker pool.
        with BatchEngine(workers=2, persistent_pool=True) as worker_engine:
            worker_path_results = worker_engine.run(jobs)
            worker_answers_covered = worker_answers(worker_path_results)

    mismatches = sum(
        1
        for reference, parallel in zip(reference_answers, engine_results)
        if reference != parallel.count
    )
    mismatches += sum(
        1
        for reference, parallel in zip(reference_answers, worker_path_results)
        if reference != parallel.count
    )
    mismatches += sum(
        1
        for serial, parallel in zip(same_core_results, engine_results)
        if serial.count != parallel.count
    )
    errors = sum(1 for result in engine_results if not result.ok)
    if mismatches or errors:
        raise AssertionError(
            "worker-compiled circuit batch disagreed with the in-parent path "
            "(%d mismatches, %d errors)" % (mismatches, errors)
        )
    stats = engine.cache.stats()
    return {
        "seconds": engine_seconds,
        "detail": {
            "jobs": len(jobs),
            "workers": pool_workers,
            "serial_seconds": serial_seconds,
            "speedup": serial_seconds / max(engine_seconds, 1e-9),
            "serial_same_core_seconds": same_core_seconds,
            "same_core_speedup": same_core_seconds / max(engine_seconds, 1e-9),
            "worker_answers": worker_answers(engine_results),
            # None when the timed run itself fanned out to workers;
            # otherwise how many answers the untimed coverage pass got
            # from workers and asserted bit-identical.
            "worker_answers_coverage": worker_answers_covered,
            "circuit_bytes": stats["circuit_bytes"],
        },
    }


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def check_against_baseline(
    paths: dict, baseline: dict, mode: str, threshold: float
) -> tuple[dict, bool]:
    """Per-path verdicts against the committed baseline; True = regression."""
    recorded = baseline.get("modes", {}).get(mode)
    if recorded is None:
        raise SystemExit(
            "baseline has no entry for mode %r; run with --update-baseline"
            % mode
        )
    verdicts = {}
    failed = False
    for name in TRACKED_PATHS:
        reference = recorded.get(name)
        current = paths[name]["normalized"]
        if reference is None:
            verdicts[name] = {"status": "untracked"}
            continue
        ratio = current / reference if reference > 0 else float("inf")
        regressed = ratio > threshold
        failed = failed or regressed
        verdicts[name] = {
            "status": "regressed" if regressed else "ok",
            "baseline_normalized": reference,
            "current_normalized": current,
            "ratio": round(ratio, 3),
        }
    return verdicts, failed


def print_delta_table(verdicts: dict) -> None:
    """One line per tracked path: baseline, current, ratio, verdict."""
    print("delta vs baseline (normalized units):")
    print("  %-14s %10s %10s %7s  %s" % (
        "path", "baseline", "current", "ratio", "status",
    ))
    for name in TRACKED_PATHS:
        verdict = verdicts.get(name, {})
        if "ratio" not in verdict:
            print("  %-14s %10s %10s %7s  %s" % (
                name, "-", "-", "-", verdict.get("status", "untracked"),
            ))
            continue
        print("  %-14s %10.4f %10.4f %7.3f  %s" % (
            name,
            verdict["baseline_normalized"],
            verdict["current_normalized"],
            verdict["ratio"],
            verdict["status"],
        ))


def append_markdown_summary(
    path: str, verdicts: dict, threshold: float, paths: dict | None = None
) -> None:
    """The delta table as GitHub-flavored markdown (CI job summaries),
    with each path's heaviest phases alongside its verdict."""
    paths = paths or {}
    lines = [
        "### Perf gate — normalized vs `benchmarks/baseline.json` "
        "(fail threshold %.1fx)" % threshold,
        "",
        "| path | baseline | current | ratio | status | top phases |",
        "| --- | ---: | ---: | ---: | --- | --- |",
    ]
    for name in TRACKED_PATHS:
        verdict = verdicts.get(name, {})
        phases = format_phase_column(
            paths.get(name, {}).get("phases", {})
        )
        if "ratio" not in verdict:
            lines.append(
                "| `%s` | - | - | - | %s | %s |"
                % (name, verdict.get("status", "untracked"), phases)
            )
            continue
        status = verdict["status"]
        lines.append(
            "| `%s` | %.4f | %.4f | %.3f | %s | %s |"
            % (
                name,
                verdict["baseline_normalized"],
                verdict["current_normalized"],
                verdict["ratio"],
                ":red_circle: regressed" if status == "regressed" else status,
                phases,
            )
        )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n\n")


def phase_breakdown(captured: capture, limit: int = 8) -> dict[str, float]:
    """A path's phase profile: total inclusive seconds per span name, the
    ``limit`` heaviest first.  Inclusive — nested phases overlap their
    parents, so the column reads as "time attributed to", not a sum."""
    totals = sorted(
        captured.phase_totals().items(), key=lambda item: -item[1]
    )
    return {name: round(seconds, 4) for name, seconds in totals[:limit]}


def format_phase_column(phases: dict[str, float], top: int = 2) -> str:
    """The markdown cell: the heaviest ``top`` phases of one path."""
    if not phases:
        return "-"
    return "; ".join(
        "`%s` %.2fs" % (name, seconds)
        for name, seconds in list(phases.items())[:top]
    )


def parse_injections(specs: list[str]) -> dict[str, float]:
    injections: dict[str, float] = {}
    for spec in specs:
        name, _, factor = spec.partition("=")
        if name not in TRACKED_PATHS or not factor:
            raise SystemExit(
                "--inject-slowdown expects path=factor with path in %s"
                % (TRACKED_PATHS,)
            )
        injections[name] = float(factor)
    return injections


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="the smaller CI workload matrix",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on any tracked path regressing vs the baseline",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="regression factor the gate tolerates (default 1.5)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="engine worker processes (default: one per CPU)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from this run's normalized times",
    )
    parser.add_argument(
        "--inject-slowdown", action="append", default=[],
        metavar="PATH=FACTOR",
        help="multiply a path's measured time (gate self-test only)",
    )
    parser.add_argument(
        "--markdown-summary", default=None, metavar="PATH",
        help="append the gate delta table to PATH as markdown "
             "(point at $GITHUB_STEP_SUMMARY in CI; needs --check)",
    )
    parser.add_argument(
        "--metrics-jsonl", default=None, metavar="PATH",
        help="stream every phase span and event of the run to PATH, one "
             "JSON record per line (uploaded as a CI artifact)",
    )
    args = parser.parse_args(argv)
    injections = parse_injections(args.inject_slowdown)

    calibration = calibrate()
    mode = "quick" if args.quick else "full"
    print("calibration: %.4fs (mode=%s)" % (calibration, mode))

    sink = None
    if args.metrics_jsonl:
        sink = JsonlSink(args.metrics_jsonl)
        add_sink(sink)

    paths: dict[str, dict] = {}
    runners = {
        "hom": lambda: path_hom(args.quick),
        "sharpsat": lambda: path_sharpsat(args.quick),
        "sharpsat_core": lambda: path_sharpsat_core(args.quick),
        "fpras": lambda: path_fpras(args.quick),
        "amortized": lambda: path_amortized(args.quick),
        "amortized_vectorized": lambda: path_amortized_vectorized(args.quick),
        "incremental": lambda: path_incremental(args.quick),
        "batch_engine": lambda: path_batch_engine(args.quick, args.workers),
        "circuit_batch": lambda: path_circuit_batch(args.quick, args.workers),
        "dpdb": lambda: path_dpdb(args.quick),
    }
    try:
        for name in TRACKED_PATHS:
            with capture() as captured:
                measurement = runners[name]()
            measurement["seconds"] *= injections.get(name, 1.0)
            measurement["normalized"] = round(
                measurement["seconds"] / calibration, 4
            )
            measurement["seconds"] = round(measurement["seconds"], 4)
            measurement["phases"] = phase_breakdown(captured)
            paths[name] = measurement
            print(
                "path %-12s %8.3fs  (normalized %.2f)"
                % (name, measurement["seconds"], measurement["normalized"])
            )
    finally:
        if sink is not None:
            remove_sink(sink)
            sink.close()
            print(
                "metrics: %d span/event records -> %s"
                % (sink.records, args.metrics_jsonl)
            )

    core_detail = paths["sharpsat_core"]["detail"]
    print(
        "sharpsat core: %d instances, %d decisions (%d/s), "
        "%.2fx over the reference counter"
        % (
            core_detail["instances"],
            core_detail["decisions"],
            core_detail["decisions_per_second"],
            core_detail["core_speedup"],
        )
    )
    amortized_detail = paths["amortized"]["detail"]
    print(
        "amortized: %d questions, compile-once %.2fx faster than "
        "search-per-question"
        % (amortized_detail["questions"], amortized_detail["speedup"])
    )
    vectorized_detail = paths["amortized_vectorized"]["detail"]
    print(
        "amortized vectorized: %d weightings, batched pass %.2fx faster "
        "than the scalar loop"
        % (
            vectorized_detail["weightings"],
            vectorized_detail["speedup"],
        )
    )
    incremental_detail = paths["incremental"]["detail"]
    print(
        "incremental: %d updates, conditioning %.2fx faster than "
        "recompiling per update"
        % (incremental_detail["updates"], incremental_detail["speedup"])
    )
    batch_detail = paths["batch_engine"]["detail"]
    print(
        "batch: %d jobs, %d unique solved, speedup %.2fx, "
        "cache hit rate %.1f%%"
        % (
            batch_detail["jobs"],
            batch_detail["unique_solved"],
            batch_detail["speedup"],
            100.0 * batch_detail["cache_hit_rate"],
        )
    )
    circuit_detail = paths["circuit_batch"]["detail"]
    print(
        "circuit batch: %d distinct jobs on %d workers, %d answered "
        "in workers, %.2fx over serial-in-parent"
        % (
            circuit_detail["jobs"],
            circuit_detail["workers"],
            circuit_detail["worker_answers"],
            circuit_detail["speedup"],
        )
    )
    dpdb_detail = paths["dpdb"]["detail"]
    print(
        "dpdb: widths %s on %s, DP %.2fx faster than the trail core"
        % (
            dpdb_detail["widths"],
            "/".join(dpdb_detail["instances"]),
            dpdb_detail["speedup"],
        )
    )

    report = {
        "meta": {
            "mode": mode,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "calibration_seconds": round(calibration, 5),
            "injected_slowdowns": injections,
        },
        "paths": paths,
    }

    exit_code = 0
    if args.check:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        verdicts, failed = check_against_baseline(
            paths, baseline, mode, args.threshold
        )
        report["gate"] = {
            "baseline": os.path.relpath(args.baseline, REPO_ROOT),
            "threshold": args.threshold,
            "verdicts": verdicts,
        }
        print_delta_table(verdicts)
        if args.markdown_summary:
            append_markdown_summary(
                args.markdown_summary, verdicts, args.threshold, paths
            )
        if failed:
            print(
                "PERF GATE FAILED: a tracked path regressed more than "
                "%.1fx vs %s" % (args.threshold, args.baseline)
            )
            exit_code = 1

    if args.update_baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            baseline = {"schema": 1, "modes": {}}
        baseline.setdefault("modes", {})[mode] = {
            name: paths[name]["normalized"] for name in TRACKED_PATHS
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline updated: %s" % args.baseline)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
