"""Regenerate ``reference.json``: every exact answer at the default seed,
each produced by two independent routes that must agree.

Route one is the program's own path (``solve()`` for the question
streams, single-job engine runs for the session, one engine batch for the
mixed batch).  Route two shares no solver with it: brute enumeration where
it fits, the tree-decomposition DP or the trail search otherwise, and a
circuit compiled over the retained reference search core for weighted
answers (see :class:`verify.Checker`; sweeps and marginals are checked in
full here, not sampled).  For ``approx-val`` jobs the file records the
exact count that bounds the estimate.

Run from the root of a checkout (about ten minutes for all workloads;
name workloads to rebuild only theirs)::

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), HERE]

import verify  # noqa: E402
import workloads  # noqa: E402

#: Rounds covered per workload: several times what ``--seconds 10`` asks
#: (:data:`workloads.ROUNDS_PER_10S`); later rounds are checked at run time.
REFERENCE_ROUNDS = {"solve_tractable": 100, "solve_hard": 350, "circuit_session": 30}


def solve_entries(workload):
    from repro import solve

    entries = []
    stream = workloads.solve_stream(
        workload, verify.DEFAULT_SEED, REFERENCE_ROUNDS[workload]
    )
    for question in stream:
        answer = solve(question.problem, question.db, question.query)
        other = verify.exact_count(
            question.problem, question.db, question.query, answer.method
        )
        if other != answer.count:
            raise AssertionError("routes disagree on question %d" % question.index)
        entries.append([verify.fingerprint(question), verify.digest(answer.count)])
    return entries


def session_entries():
    from repro.engine import BatchEngine

    engine = BatchEngine(workers=0)
    checker = verify.Checker()
    entries = []
    stream = workloads.session_stream(
        verify.DEFAULT_SEED, REFERENCE_ROUNDS["circuit_session"]
    )
    for question in stream:
        result = engine.run([question.job])[0]
        if not (result.ok and checker.check_job(
            question.job, result.count, result.method, sample=False
        )):
            raise AssertionError("routes disagree on job %d" % question.index)
        entries.append([verify.fingerprint(question), verify.digest(result.count)])
    return entries


def batch_entries():
    from repro.engine import BatchEngine

    jobs = workloads.batch_stream(verify.DEFAULT_SEED, 1)[0]
    checker = verify.Checker()
    with BatchEngine(workers=2, persistent_pool=True) as engine:
        results = engine.run(jobs)
    entries = []
    for job, result in zip(jobs, results):
        if job.problem == "approx-val":
            exact = verify.exact_count("val", job.db, job.query)
            entries.append([job.label, None, str(exact)])
            continue
        if not (result.ok and checker.check_job(job, result.count, result.method, sample=False)):
            raise AssertionError("routes disagree on %s" % job.label)
        entries.append([job.label, verify.digest(result.count), None])
    return entries


BUILDERS = {
    "batch_mixed": batch_entries,
    "circuit_session": session_entries,
    "solve_hard": lambda: solve_entries("solve_hard"),
    "solve_tractable": lambda: solve_entries("solve_tractable"),
}


def main(argv=None) -> int:
    """Rebuild the named workloads' entries (all of them by default),
    keeping the others."""
    names = (argv if argv is not None else sys.argv[1:]) or sorted(BUILDERS)
    built = verify.load_reference() or {"workloads": {}}
    built["seed"] = verify.DEFAULT_SEED
    for name in names:
        built["workloads"][name] = BUILDERS[name]()
        print("%s: %d answers" % (name, len(built["workloads"][name])))
    with open(verify.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(built, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
