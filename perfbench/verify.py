"""Answer checks: the checked-in reference first, an independent route otherwise.

``reference.json`` holds, for every question of every workload at the
default seed, the question's ``fingerprint_job`` and a digest of its
expected answer, each produced by two independent routes
(``make_reference.py``).  A question whose index and fingerprint match a
reference entry is checked against it.  Any other question (another seed,
or past the reference's end) is re-answered by a route that shares no
solver with the one the program chose: brute enumeration where it fits,
otherwise the tree-decomposition DP against search-based answers and the
trail search against DP answers.  Runtime checks run after the timed
section, in question order, within :data:`RUNTIME_CHECK_SECONDS`, and
always cover the first question of each family.

An ``approx-val`` answer fails when it lies outside ``epsilon`` times the
exact count.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
RUNTIME_CHECK_SECONDS = 2.0
#: Brute force is the independent route up to this many valuations.
BRUTE_LIMIT = 20_000
#: Relative tolerance for answers that cross a float conversion.
FLOAT_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# canonical answers
# ---------------------------------------------------------------------------


def canonical(answer):
    """A JSON-ready form of an answer, independent of null labels.

    Marginal records are keyed by null reprs, which carry the relabelling
    tag; their canonical form is the sorted multiset of per-null tables.
    """
    if isinstance(answer, bool):
        raise TypeError("unexpected boolean answer")
    if isinstance(answer, int):
        return ["i", str(answer)]
    if isinstance(answer, Fraction):
        if answer.denominator == 1:
            return ["i", str(answer.numerator)]
        return ["f", str(answer.numerator), str(answer.denominator)]
    if isinstance(answer, float):
        return ["r", "%.9e" % answer]
    if isinstance(answer, dict):
        tables = sorted(
            json.dumps(sorted((value, "%.9e" % p) for value, p in table.items()))
            for table in answer.values()
        )
        return ["m", tables]
    if isinstance(answer, (list, tuple)):
        return ["l", [canonical(item) for item in answer]]
    raise TypeError("no canonical form for %r" % type(answer))


def digest(answer) -> str:
    text = json.dumps(canonical(answer), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def fingerprint(item) -> str:
    """``fingerprint_job`` of a question, or of a whole batch."""
    from repro.engine import CountJob
    from repro.engine.fingerprint import fingerprint_job

    if isinstance(item, list):
        joined = "".join(fingerprint_job(job) or "-" for job in item)
        return hashlib.sha256(joined.encode()).hexdigest()[:20]
    job = item.job or CountJob(item.problem, item.db, item.query)
    return fingerprint_job(job) or "-"


# ---------------------------------------------------------------------------
# independent routes
# ---------------------------------------------------------------------------


def exact_count(problem, db, query, avoid=None):
    """``#Val``/``#Comp`` by a route other than ``avoid``."""
    from repro.db.valuation import count_total_valuations
    from repro.exact import planner

    if avoid != "brute" and count_total_valuations(db) <= BRUTE_LIMIT:
        return planner.run(problem, "brute", db, query, budget=None)
    method = "lineage" if avoid == "dpdb" else "dpdb"
    return planner.run(problem, method, db, query)


class Checker:
    """Independent routes for engine jobs.

    Weighted answers (``val-weighted``, ``sweep``, ``marginals``) are
    re-derived from a circuit compiled over the retained *reference*
    search core (``ValuationCircuit(..., reference=True)``), one per
    instance, by scalar upward passes only — the engine answers from the
    trail core, the vectorized sweep pass and the up+down marginal pass.
    Marginals are re-derived as pinned weighted counts, ``W(q, ⊥=c) /
    W(q)``.  Counts go through :func:`exact_count`.
    """

    def __init__(self) -> None:
        self._circuits: dict[int, tuple] = {}

    def weighted(self, db, query, weights):
        from repro.compile.backend import ValuationCircuit

        key = id(db)
        if key not in self._circuits:
            self._circuits[key] = (db, ValuationCircuit(db, query, reference=True))
        return self._circuits[key][1].weighted_count(weights)

    def check_job(self, job, answer, method, sample: bool = True) -> bool:
        """Re-answer one job by an independent route.  ``sample`` checks
        three rows of a sweep and three entries of a marginal table
        instead of all of them."""
        from repro.engine.jobs import instance_db

        if job.problem in ("val", "comp"):
            return answer == exact_count(job.problem, job.db, job.query, method)
        if job.problem == "update":
            return answer == exact_count("val", instance_db(job), job.query, "circuit")
        if job.problem == "val-weighted":
            return answer == self.weighted(job.db, job.query, job.weights)
        if job.problem == "sweep":
            rows = list(job.weights)
            picks = [0, len(rows) // 2, len(rows) - 1] if sample else range(len(rows))
            return all(
                answer[i] == self.weighted(job.db, job.query, rows[i]) for i in picks
            )
        if job.problem == "marginals":
            total = self.weighted(job.db, job.query, job.weights)
            for null, value in marginal_pairs(job.db, sample):
                mass = self.weighted(
                    job.db, job.query, pinned(job.db, job.weights, null, value)
                )
                expected = Fraction(mass) / Fraction(total) if total else 0
                if not close(answer[repr(null)][repr(value)], expected):
                    return False
            return True
        if job.problem == "approx-val":
            return approx_ok(answer, exact_count("val", job.db, job.query), job.epsilon)
        raise ValueError("no check for problem %r" % job.problem)


def pinned(db, weights, null, value):
    """``weights`` with ``null`` forced to ``value``."""
    from repro.db.valuation import resolve_null_weights

    table = dict(resolve_null_weights(db, weights))
    table[null] = {
        other: (table[null][other] if other == value else 0)
        for other in table[null]
    }
    return table


def marginal_pairs(db, sample: bool):
    pairs = [
        (null, value)
        for null in db.nulls
        for value in sorted(db.domain_of(null), key=repr)
    ]
    return [pairs[0], pairs[len(pairs) // 2], pairs[-1]] if sample else pairs


def close(a, b) -> bool:
    return abs(float(a) - float(b)) <= FLOAT_TOLERANCE * max(1.0, abs(float(b)))


def approx_ok(estimate, exact, epsilon) -> bool:
    return abs(float(estimate) - exact) <= epsilon * exact + 1e-9


# ---------------------------------------------------------------------------
# the check after a measured run
# ---------------------------------------------------------------------------


def check(workload: str, seed: int, records) -> dict:
    """Count mismatches and errors over a run's ``(item, answer, method,
    latency, error)`` records."""
    from repro.engine import CountJob

    stored = load_reference()
    reference = stored.get("workloads", {}).get(workload, [])
    outcome = {
        "mismatches": 0, "errors": 0, "by_reference": 0, "at_runtime": 0,
        "details": [],
    }
    if workload == "batch_mixed":
        pending = _check_batches(records, reference, outcome)
    else:
        pending = []
        use_reference = seed == stored.get("seed")
        for position, (item, answer, method, _latency, error, *_rest) in enumerate(records):
            if error:
                continue
            entry = reference[position] if position < len(reference) else None
            job = item.job or CountJob(item.problem, item.db, item.query)
            label = "question %d (%s)" % (position, item.family)
            if use_reference and entry and entry[0] == fingerprint(item):
                outcome["by_reference"] += 1
                if digest(answer) != entry[1]:
                    outcome["mismatches"] += 1
                    outcome["details"].append(label)
            else:
                pending.append((job, answer, method, item.family, label))
    _runtime_checks(pending, outcome)
    return outcome


def _runtime_checks(pending, outcome) -> None:
    """Independent routes for ``pending`` answers, in order, within
    :data:`RUNTIME_CHECK_SECONDS` — past it only the first answer of each
    family is still checked."""
    checker = Checker()
    deadline = time.perf_counter() + RUNTIME_CHECK_SECONDS
    seen_families = set()
    for job, answer, method, family, label in pending:
        first = family not in seen_families
        seen_families.add(family)
        if not first and time.perf_counter() > deadline:
            continue
        outcome["at_runtime"] += 1
        if not checker.check_job(job, answer, method):
            outcome["mismatches"] += 1
            outcome["details"].append(label)


def _check_batches(records, reference, outcome) -> list:
    """Every batch copies one base batch job for job, so one reference,
    keyed by position and label, serves all seeds; only the Karp-Luby
    seeds differ, and those answers are checked against their epsilon
    band around the exact count.  Returns the answers left for runtime
    checks."""
    pending = []
    for batch, answers, _method, _latency, error, *_rest in records:
        if error:
            continue
        for position, (job, (answer, method, job_error)) in enumerate(
            zip(batch, answers)
        ):
            if job_error:
                outcome["errors"] += 1
                outcome["details"].append("%s: %s" % (job.label, job_error))
                continue
            entry = reference[position] if position < len(reference) else None
            if entry is None or entry[0] != job.label:
                pending.append((job, answer, method, job.problem, job.label))
                continue
            outcome["by_reference"] += 1
            if job.problem == "approx-val":
                ok = approx_ok(answer, int(entry[2]), job.epsilon)
            else:
                ok = digest(answer) == entry[1]
            if not ok:
                outcome["mismatches"] += 1
                outcome["details"].append(job.label)
    return pending
