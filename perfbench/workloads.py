"""Seeded question streams for the end-to-end benchmark.

Every workload turns a seed into a fixed list of *distinct* questions, so a
run never asks the same instance twice and in-process caches (the dpdb
probe memo, the primal-mask cache, cached instance attributes) cannot turn
a repeat into a warm-cache number.  Distinctness is enforced by relabelling
every null with the question's index: the counting problem is unchanged,
but no two questions share a database value.

Why each workload and family is here:

* ``solve_tractable`` — the polynomial cells of Table 1 (Theorems 3.6,
  3.7, 3.9 and 4.6).  The closed forms run in well under a millisecond,
  so what a caller waits for is planning; single-occurrence sizes reach
  n=80 because the planner's cost grows with instance size while the
  closed form's barely does.
* ``solve_hard`` — the #P-hard cells: chorded cycle colourings (trail
  search), 3xk grids and rings (tree-decomposition DP), path-overlap and
  block ``#Comp`` (projected search / projected DP) and a seeded draw of
  small random ``#Comp`` instances (3 nulls, domain 3), where a planner
  misroute to search costs 10-100x the brute answer and shows as tail
  latency.  Domain 4 is not drawn: its misroutes run 18-55 s under
  ``auto``, past any per-question limit that no correct answer hits.
* ``batch_mixed`` — the harness's 4x-duplicated mixed batch plus its
  distinct circuit jobs (:func:`harness.mixed_workload`,
  :func:`harness.circuit_workload`), the only workload through pool
  dispatch, the memo cache, worker compiles with artifact shipping and
  Karp-Luby sampling.
* ``circuit_session`` — one long-lived engine answering single jobs about
  chorded cycles with 32-36 nulls: one compile, then weighted reads,
  marginals, 200-row sweeps and resolve/restrict updates each followed by
  a read on the updated instance.  Reads and updates sit side by side so
  a change that trades one for the other shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.query import Atom, BCQ
from repro.db.deltas import ResolveNull, RestrictDomain
from repro.db.incomplete import IncompleteDatabase
from repro.db.fact import Fact
from repro.db.terms import Null, is_null
from repro.engine import CountJob
from repro.engine.fingerprint import fingerprint_job
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_block_comp_instance,
    scaling_codd_instance,
    scaling_grid_val_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
    scaling_long_cycle_val_instance,
    scaling_single_occurrence_instance,
    scaling_uniform_unary_comp_instance,
    scaling_uniform_val_instance,
)

WORKLOADS = ("solve_tractable", "solve_hard", "batch_mixed", "circuit_session")

#: Rounds per pass and per 10 s of ``--seconds`` (``batch_mixed``: batches
#: per 10 s), set so that a run takes about that long on a 2-core x86
#: container.  The work of a run is fixed by ``--seconds`` alone, so every
#: run of a seed asks the same questions.
ROUNDS_PER_10S = {
    "solve_tractable": 9, "solve_hard": 25, "batch_mixed": 5,
    "circuit_session": 5,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(2, round(ROUNDS_PER_10S[workload] * seconds / 10.0))


@dataclass
class Question:
    """One question: a ``solve()`` call or one engine job."""

    index: int
    family: str
    problem: str
    db: IncompleteDatabase
    query: Any
    #: ``compile``, ``read`` or ``update`` for session jobs; ``solve``
    #: for the question streams.
    category: str = "solve"
    job: CountJob | None = None
    round: int = 0


def relabel(db: IncompleteDatabase, tag: Any) -> tuple[IncompleteDatabase, dict]:
    """``db`` with every null ``⊥x`` renamed to ``⊥(tag, x)``, plus the map."""
    mapping = {null: Null((tag, null.label)) for null in db.nulls}

    def term(value: Any) -> Any:
        return mapping[value] if is_null(value) else value

    facts = [Fact(fact.relation, [term(t) for t in fact.terms]) for fact in db.facts]
    if db.is_uniform:
        return IncompleteDatabase.uniform(facts, db.uniform_domain), mapping
    dom = {mapping[null]: db.domain_of(null) for null in db.nulls}
    return IncompleteDatabase(facts, dom=dom), mapping


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# solve streams
# ---------------------------------------------------------------------------


def _size(round_index, low, high):
    """A size from the fixed schedule of rounds (see :func:`solve_stream`)."""
    return low + (round_index * 7) % (high - low + 1)


def _single_occurrence(rng, round_index):
    return "val", scaling_single_occurrence_instance(_size(round_index, 10, 80), seed=rng.randrange(10**6))


def _codd(rng, round_index):
    return "val", scaling_codd_instance(_size(round_index, 5, 32), seed=rng.randrange(10**6))


def _uniform_val(rng, round_index):
    return "val", scaling_uniform_val_instance(_size(round_index, 6, 24), seed=rng.randrange(10**6))


def _uniform_unary(rng, round_index):
    db, query = scaling_uniform_unary_comp_instance(
        _size(round_index, 8, 40), seed=rng.randrange(10**6)
    )
    return "comp", (db, query)


TRACTABLE_FAMILIES = (
    ("single-occurrence", _single_occurrence),
    ("codd", _codd),
    ("uniform-val", _uniform_val),
    ("uniform-unary-comp", _uniform_unary),
)


def _chorded_cycle(rng, round_index):
    return "val", scaling_hard_val_instance(
        _size(round_index, 14, 22), chord_probability=0.1, seed=rng.randrange(10**6)
    )


def _grid(rng, round_index):
    return "val", scaling_grid_val_instance(3, _size(round_index, 6, 14), num_colors=3)


def _ring(rng, round_index):
    return "val", scaling_long_cycle_val_instance(_size(round_index, 30, 70), 1, num_colors=3)


def _hard_comp(rng, round_index):
    return "comp", scaling_hard_comp_instance(_size(round_index, 6, 11), seed=rng.randrange(10**6))


def _hard_comp_all(rng, round_index):
    db, _query = scaling_hard_comp_instance(_size(round_index, 6, 11), seed=rng.randrange(10**6))
    return "comp", (db, None)


def _block_comp(rng, round_index):
    return "comp", scaling_block_comp_instance(_size(round_index, 3, 8), seed=rng.randrange(10**6))


RANDOM_COMP_QUERY = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])


def _random_comp(rng, round_index):
    db = random_incomplete_db(
        {"R": 2, "S": 1}, seed=rng.randrange(10**6), num_nulls=3, domain_size=3
    )
    return "comp", (db, RANDOM_COMP_QUERY)


def _random_comp_all(rng, round_index):
    db = random_incomplete_db(
        {"R": 2, "S": 1}, seed=rng.randrange(10**6), num_nulls=3, domain_size=3
    )
    return "comp", (db, None)


HARD_FAMILIES = (
    ("chorded-cycle", _chorded_cycle),
    ("grid-3xk", _grid),
    ("ring", _ring),
    ("hard-comp", _hard_comp),
    ("hard-comp-all", _hard_comp_all),
    ("block-comp", _block_comp),
    ("random-comp", _random_comp),
    ("random-comp-all", _random_comp_all),
)


def solve_stream(
    workload: str, seed: int, rounds: int, first: int = 0, copy: int = 0
) -> list[Question]:
    """Rounds ``first .. first+rounds-1`` of a ``solve_*`` workload.
    ``copy`` > 0 asks the same questions over fresh null labels.

    Families take turns, one question each per round.  Sizes follow a
    fixed schedule over the rounds, the same for every seed, so that a run
    of any seed asks the same size mix and its figures stay comparable;
    the seed draws everything else (chords, domains, constants, the
    random ``#Comp`` instances).
    """
    families = TRACTABLE_FAMILIES if workload == "solve_tractable" else HARD_FAMILIES
    questions = []
    for round_index in range(first, first + rounds):
        for offset, (family, build) in enumerate(families):
            index = round_index * len(families) + offset
            problem, (db, query) = build(_rng(seed, index), round_index)
            db, _mapping = relabel(db, (copy, index) if copy else index)
            questions.append(
                Question(index, family, problem, db, query, round=round_index)
            )
    return questions


# ---------------------------------------------------------------------------
# circuit session
# ---------------------------------------------------------------------------

#: Reads and updates asked per compiled instance, in order.
SESSION_PATTERN = (
    "val-weighted", "marginals", "update", "sweep",
    "val-weighted", "update", "marginals", "update",
)
SWEEP_ROWS = 200
JOBS_PER_ROUND = 1 + len(SESSION_PATTERN) + SESSION_PATTERN.count("update")


def _weights(rng, db, nulls) -> dict:
    return {
        null: {value: rng.randint(1, 3) for value in sorted(db.domain_of(null))}
        for null in nulls
    }


#: The session's few instances: ``(cycle length, chord probability,
#: generator seed)``: the 32-36-node specs of the harness's quick circuit
#: batch, at one chord density.  Their structure is fixed — circuit
#: size swings several-fold with the chords drawn — so the seed varies
#: what is asked about them, not how big they are.
SESSION_INSTANCES = ((32, 0.03, 59), (34, 0.03, 61), (36, 0.03, 63))


def session_stream(
    seed: int, rounds: int, first: int = 0, copy: int = 0
) -> list[Question]:
    """Rounds ``first .. first+rounds-1`` of the session: one compile per
    round (a freshly relabelled instance), then :data:`SESSION_PATTERN`;
    every update is followed by a weighted read on the updated instance.
    ``copy`` > 0 asks the same jobs about a relabelled, re-marked copy."""
    questions: list[Question] = []
    for round_index in range(first, first + rounds):
        rng = _rng(seed, round_index)
        size, chords, structure = SESSION_INSTANCES[round_index % len(SESSION_INSTANCES)]
        db, query = scaling_hard_val_instance(
            size, chord_probability=chords, seed=structure
        )
        # A ground fact no valuation can match under R(x,x) marks the round,
        # so the engine's renaming-invariant memo cannot answer one round
        # from an earlier round over the same structure.
        marker = Fact("R", ["m%d_%d_%d" % (seed, round_index, copy), "n%d" % round_index])
        db = IncompleteDatabase.uniform(list(db.facts) + [marker], db.uniform_domain)
        db, _mapping = relabel(db, (copy, round_index) if copy else round_index)
        nulls = list(db.nulls)

        def add(category, family, job, child=None):
            questions.append(
                Question(
                    round_index * JOBS_PER_ROUND + len(questions) % JOBS_PER_ROUND,
                    family, job.problem, child or db, query,
                    category=category, job=job, round=round_index,
                )
            )

        add("compile", "compile", CountJob("val", db, query, method="circuit"))
        updates: set = set()
        for kind in SESSION_PATTERN:
            if kind == "update":
                # Redraw an update whose child repeats an earlier one up
                # to renaming: the memo cache would answer it.
                while True:
                    null = rng.choice(nulls)
                    if rng.random() < 0.5:
                        delta: Any = ResolveNull(
                            null, rng.choice(sorted(db.domain_of(null)))
                        )
                    else:
                        keep = rng.sample(sorted(db.domain_of(null)), 2)
                        delta = RestrictDomain(null, frozenset(keep))
                    job = CountJob("update", db, query, deltas=[delta])
                    key = fingerprint_job(job)
                    if key not in updates:
                        updates.add(key)
                        break
                add("update", type(delta).__name__, job)
                child = db.apply(delta)
                add("read", "child-val-weighted",
                    CountJob("val-weighted", child, query,
                             weights=_weights(rng, child, child.nulls)),
                    child=child)
            elif kind == "sweep":
                swept = rng.sample(nulls, 4)
                rows = [_weights(rng, db, swept) for _ in range(SWEEP_ROWS)]
                add("read", "sweep", CountJob("sweep", db, query, weights=rows))
            else:
                add("read", kind, CountJob(kind, db, query, weights=_weights(rng, db, nulls)))
    return questions


# ---------------------------------------------------------------------------
# mixed batch
# ---------------------------------------------------------------------------


def _relabel_job(job: CountJob, tag: Any, seen: dict) -> CountJob:
    key = id(job.db)
    if key not in seen:
        seen[key] = relabel(job.db, tag)
    db, mapping = seen[key]
    weights = job.weights
    if isinstance(weights, dict):
        weights = {mapping[null]: table for null, table in weights.items()}
    return CountJob(
        job.problem, db, job.query, method=job.method, budget=job.budget,
        epsilon=job.epsilon, delta=job.delta, seed=job.seed,
        weights=weights, label=job.label,
    )


def base_batch() -> list[CountJob]:
    """The harness's quick mixed batch plus its quick circuit jobs."""
    from harness import circuit_workload, mixed_workload

    return mixed_workload(True) + circuit_workload(True)


def batch_stream(seed: int, batches: int, first: int = 0) -> list[list[CountJob]]:
    """Copies ``first .. first+batches-1`` of :func:`base_batch`, each with
    fresh null labels (cold caches, identical work) and Karp-Luby seeds
    drawn from ``(seed, copy)``."""
    base = base_batch()
    stream = []
    for batch_index in range(first, first + batches):
        rng = _rng(seed, batch_index)
        approx_seed: dict = {}
        seen: dict = {}
        jobs = []
        for job in base:
            copy = _relabel_job(job, (seed, batch_index), seen)
            if job.problem == "approx-val":
                # Duplicates keep one seed, so the 4x memo profile holds.
                if job.seed not in approx_seed:
                    approx_seed[job.seed] = rng.randrange(10**6)
                copy = CountJob(
                    copy.problem, copy.db, copy.query, epsilon=copy.epsilon,
                    delta=copy.delta, seed=approx_seed[job.seed], label=copy.label,
                )
            jobs.append(copy)
        stream.append(jobs)
    return stream
