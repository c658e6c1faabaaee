"""Self-checks of the benchmark itself (not of the program it measures).

1. Seeded generation: the same seed yields the same question list,
   compared by ``fingerprint_job``; a different seed yields a different
   list.
2. Distinct questions: no two questions of a stream share a database
   value, so no in-process memo can answer one from another.
3. The cold-state trap is real: a second in-process pass over the same
   ``solve_tractable`` questions is much faster than the first (the dpdb
   probe memo, the primal-mask cache and cached instance attributes are
   warm).  Measured runs avoid it twice over: each runs in a fresh
   interpreter (``run.py`` starts ``session.py`` per measurement) and
   never repeats a question (check 2).
4. ``BENCHMARK.json`` names exactly the workloads and metrics the driver
   prints.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), HERE]

import names  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: A warm second pass must take less than this share of the cold first.
WARM_SHARE = 0.5


def question_lists(seed):
    """Short prefixes of every workload's list, as fingerprint lists."""
    return {
        "solve_tractable": [
            verify.fingerprint(q) for q in workloads.solve_stream("solve_tractable", seed, 10)
        ],
        "solve_hard": [
            verify.fingerprint(q) for q in workloads.solve_stream("solve_hard", seed, 10)
        ],
        "circuit_session": [
            verify.fingerprint(q) for q in workloads.session_stream(seed, 2)
        ],
        "batch_mixed": [verify.fingerprint(b) for b in workloads.batch_stream(seed, 2)],
    }


def check_seeds() -> None:
    first, again, other = question_lists(1), question_lists(1), question_lists(2)
    for workload in workloads.WORKLOADS:
        if first[workload] != again[workload]:
            raise SystemExit("%s: the same seed gave two question lists" % workload)
        if first[workload] == other[workload]:
            raise SystemExit("%s: seeds 1 and 2 gave the same question list" % workload)
    print("seeds: same seed, same list; another seed, another list (4 workloads)")


def check_distinct() -> None:
    for workload in ("solve_tractable", "solve_hard"):
        # A random draw can come out ground (no null to relabel); those
        # answer in microseconds and are left out of the check.
        stream = [q for q in workloads.solve_stream(workload, 1, 100) if q.db.nulls]
        if len({q.db for q in stream}) != len(stream):
            raise SystemExit("%s repeats a database" % workload)
    session = workloads.session_stream(1, 30)
    jobs = [q.job for q in session]
    if len({verify.fingerprint(q) for q in session}) != len(jobs):
        raise SystemExit("circuit_session repeats a job")
    print("distinct: every question of every stream is a fresh database/job")


def check_cold_state() -> None:
    from repro import solve

    questions = workloads.solve_stream("solve_tractable", 1, 6)

    def one_pass():
        started = time.perf_counter()
        for question in questions:
            solve(question.problem, question.db, question.query)
        return time.perf_counter() - started

    cold, warm = one_pass(), one_pass()
    print(
        "cold state: first pass %.3f s, second in-process pass %.3f s (%.0f%%)"
        % (cold, warm, 100 * warm / cold)
    )
    if warm >= WARM_SHARE * cold:
        raise SystemExit(
            "a repeated in-process pass is not much faster; the warm-cache "
            "trap this benchmark avoids may be gone"
        )


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    printed = {
        "workloads": list(workloads.WORKLOADS),
        "end_to_end": names.END_TO_END,
        "per_layer": names.PER_LAYER,
    }
    for key in printed:
        if declared[key] != printed[key]:
            raise SystemExit("BENCHMARK.json %s differ from the driver's" % key)
    print("BENCHMARK.json: %d workloads, %d end-to-end and %d per-layer metrics"
          % (len(declared["workloads"]), len(declared["end_to_end"]),
             len(declared["per_layer"])))


def main() -> int:
    check_seeds()
    check_distinct()
    check_cold_state()
    check_benchmark_json()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
