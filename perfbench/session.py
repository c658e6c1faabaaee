"""One benchmark session in a fresh interpreter: set up, measure, verify.

``run.py`` starts this file as a child process for every measurement, so
each measured pass begins with cold in-process caches.  The session prints
``READY`` once its workload is set up (imports, question generation, pool
warm-up) and, at the end, one ``RESULT <json>`` line.

Phases:

* ``setup`` — set up and exit (extra ``setup_s`` samples);
* ``measure`` — the closed loop with tracing off, one client, over the
  run's fixed question set (its size set by ``--seconds``), asked in
  :data:`PASSES` passes over relabelled copies; then every answer is
  checked (outside the timed section);
* ``traced`` — the first ``--count`` questions of the first pass again,
  split into the layers' public entry points (see :mod:`layers`).

Usage (normally through ``run.py``)::

    python3 perfbench/session.py --workload solve_hard --seed 1 \\
        --seconds 10 --phase measure
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [
    os.path.join(ROOT, "src"),
    os.path.join(ROOT, "benchmarks"),
    os.path.dirname(os.path.abspath(__file__)),
]

#: Per-call limits (seconds), set far from every call's time at the
#: default seed (slowest solve ~0.5 s, slowest session job ~0.4 s,
#: slowest batch ~3 s), so the timeout count repeats exactly.
LIMITS = {
    "solve_tractable": 10.0,
    "solve_hard": 10.0,
    "circuit_session": 10.0,
    "batch_mixed": 60.0,
}

#: A run stops asking new rounds past this multiple of ``--seconds``.
TIME_CAP = 4.0

#: Passes over the questions of a ``solve_*`` or session run (relabelled
#: copies); a question's latency is the median of its passes.
PASSES = 3

#: Busy-wait before the timed section (see :func:`spin`).
SPIN_SECONDS = 1.0

#: CPU-speed probes taken between questions (see :func:`probe`).  On a
#: shared host interpreter speed flips between two levels about 1.7x apart
#: for stretches of 0.3-2 s, and the mix drifts over minutes.  Each call's
#: wall time is scaled to the speed at which the probe takes
#: :data:`REFERENCE_PROBE_S` (its fast level on a 2-core x86 container),
#: so the figures read as milliseconds at that reference speed.
PROBE_ITERATIONS = 10_000
PROBE_INTERVAL = 0.05
PROBE_WINDOW = 0.1
REFERENCE_PROBE_S = 0.0017

#: Worker processes of the ``batch_mixed`` pool.
BATCH_WORKERS = min(os.cpu_count() or 1, 2)


class QuestionTimeout(BaseException):
    """Raised by the per-call timer.  A ``BaseException`` so that the
    engine's per-job ``except Exception`` isolation cannot swallow it."""


def _on_alarm(_signum, _frame):
    raise QuestionTimeout()


class limit:
    """``with limit(seconds):`` raises :class:`QuestionTimeout` past the limit."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, seconds: float) -> dict:
    """Everything a workload needs before its first timed question: its
    passes of rounds, an engine where it uses one, and one warm-up round
    (distinct questions no run measures) so lazy imports and the pool
    workers' first imports are paid here, as a long-lived caller pays
    them once."""
    import workloads

    count = workloads.rounds_for(workload, seconds)
    warm = count + 1000
    state: dict = {}
    if workload == "batch_mixed":
        from repro.engine import BatchEngine

        engine = BatchEngine(workers=BATCH_WORKERS, persistent_pool=True)
        started = time.perf_counter()
        engine.warm()
        state["warm_s"] = time.perf_counter() - started
        state["engine"] = engine
        state["passes"] = [[[batch] for batch in workloads.batch_stream(seed, count)]]
        # The batch's distinct jobs and one circuit job, once: every
        # worker imports what it needs.
        spare = workloads.batch_stream(seed, 1, first=warm)[0]
        warm_up = [[job for job in spare if job.label.endswith("/rep0")] + [spare[-1]]]
    else:
        if workload == "circuit_session":
            from repro.engine import BatchEngine

            stream = workloads.session_stream
            state["engine"] = BatchEngine(workers=0)
        else:
            def stream(seed, rounds, first=0, copy=0):
                return workloads.solve_stream(workload, seed, rounds, first, copy)
        state["passes"] = []
        for copy in range(PASSES):
            grouped: dict = {}
            for question in stream(seed, count, copy=copy):
                grouped.setdefault(question.round, []).append(question)
            state["passes"].append(list(grouped.values()))
        state["questions"] = [q for items in state["passes"][0] for q in items]
        warm_up = stream(seed, 1, first=warm)
    for item in warm_up:
        ask(workload, state, item)
    return state


# ---------------------------------------------------------------------------
# the untraced closed loop
# ---------------------------------------------------------------------------


def ask(workload: str, state: dict, item):
    """Answer one question (or one batch) the way a caller would."""
    if workload in ("solve_tractable", "solve_hard"):
        from repro import solve

        answer = solve(item.problem, item.db, item.query)
        return answer.count, answer.method
    engine = state["engine"]
    if workload == "circuit_session":
        result = engine.run([item.job])[0]
        if not result.ok:
            raise RuntimeError(result.error)
        return result.count, result.method
    from repro.engine import CountCache

    engine.cache = CountCache()
    results = engine.run(item)
    return [(r.count, r.method, r.error) for r in results], None


def measure(workload: str, seed: int, seconds: float, state: dict) -> dict:
    """Ask every pass, round by round, closed loop, one client.  A run
    that passes :data:`TIME_CAP` times ``seconds`` stops early."""
    spin(SPIN_SECONDS)
    records = []
    probes: list = []
    spans = []
    # A batch runs in pool workers while this process waits, so its CPU
    # speed is probed by a thread, in thread CPU time (the wait for a CPU
    # the workers hold is not slowness).
    prober = ProbeThread() if workload == "batch_mixed" else None
    if prober:
        probes = prober.probes
        prober.start()
    started = time.perf_counter()
    for copy, rounds in enumerate(state["passes"]):
        for items in rounds:
            if time.perf_counter() - started > TIME_CAP * seconds:
                break
            for item in items:
                if not prober and (
                    not probes or time.perf_counter() - probes[-1][0] > PROBE_INTERVAL
                ):
                    probes.append(probe())
                error = None
                answer = method = None
                began = time.perf_counter()
                try:
                    with limit(LIMITS[workload]):
                        answer, method = ask(workload, state, item)
                except QuestionTimeout:
                    error = "timeout"
                except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
                    error = "error: %s: %s" % (type(exc).__name__, exc)
                ended = time.perf_counter()
                latency = ended - began
                if not prober and latency > PROBE_INTERVAL:
                    probes.append(probe())
                if error == "timeout":
                    latency = LIMITS[workload]
                spans.append((began, ended))
                records.append((item, answer, method, latency, error, copy))
    elapsed = time.perf_counter() - started
    if prober:
        prober.halt.set()
        prober.join()
    records = [
        record + (speed_factor(probes, began, ended),)
        for record, (began, ended) in zip(records, spans)
    ]
    if "engine" in state:
        state["engine"].close()
    rss = peak_rss_mb()

    import verify

    checked = verify.check(workload, seed, [r for r in records if r[5] == 0])
    first = {
        id_of(r[0]): verify.digest(r[1]) for r in records if r[5] == 0 and not r[4]
    } if workload != "batch_mixed" else {}
    for item, answer, _method, _latency, error, copy, _factor in records:
        # Later passes ask relabelled copies: the same answers.
        if copy and not error and first.get(id_of(item)) != verify.digest(answer):
            checked["mismatches"] += 1
            checked["details"].append("copy %d of %s" % (copy, id_of(item)))
    return summarize(workload, records, elapsed, rss, checked)


def id_of(item):
    """A question's index, the same in every pass (a batch: the batch)."""
    return item.index if hasattr(item, "index") else id(item)


def probe(clock=time.perf_counter) -> tuple[float, float]:
    """``(start, seconds)`` of a fixed pure-Python spin, timed by
    ``clock``: the CPU's speed for interpreter work at this moment."""
    at = time.perf_counter()
    started = clock()
    accumulator = 0
    for i in range(PROBE_ITERATIONS):
        accumulator = (accumulator * 1103515245 + i) % 2147483648
    return at, clock() - started


class ProbeThread(threading.Thread):
    """Takes a :func:`probe`, timed in thread CPU time, every
    :data:`PROBE_INTERVAL` until ``halt`` is set."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.probes: list = []
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.wait(PROBE_INTERVAL):
            self.probes.append(probe(clock=time.thread_time))


def speed_factor(probes, began: float, ended: float) -> float:
    """:data:`REFERENCE_PROBE_S` over the probe time around ``[began,
    ended]`` — the median of the probes within :data:`PROBE_WINDOW` of
    the call, or the nearest one before and after."""
    near = [
        seconds for at, seconds in probes
        if began - PROBE_WINDOW <= at <= ended + PROBE_WINDOW
    ]
    if not near:
        before = [seconds for at, seconds in probes if at < began]
        after = [seconds for at, seconds in probes if at > ended]
        near = before[-1:] + after[:1]
    return REFERENCE_PROBE_S / statistics.median(near)


def spin(seconds: float) -> None:
    """Busy-wait so the CPU is at full speed when timing starts: on a
    shared host the first second after idle runs up to 1.7x slower."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def summarize(workload, records, elapsed, rss, checked) -> dict:
    """The end-to-end figures.  Every question is asked once per pass over
    fresh labels; its latency is the median of its passes, which keeps a
    burst of CPU contention on a shared host out of the figures.
    ``questions_per_s`` is the closed-loop rate those latencies imply
    (on ``batch_mixed``, jobs per batch over the median batch latency)."""
    per_question: dict = {}
    raw: dict = {}
    for item, _answer, _method, latency, _error, _copy, factor in records:
        per_question.setdefault(id_of(item), (item, []))[1].append(latency * factor)
        raw.setdefault(id_of(item), []).append(latency)
    latencies = [statistics.median(times) for _item, times in per_question.values()]
    raw_latencies = [statistics.median(times) for times in raw.values()]
    if workload == "batch_mixed":
        questions = [len(item) for item, _times in per_question.values()]
    else:
        questions = [1] * len(per_question)
    attempted = sum(len(r[0]) if workload == "batch_mixed" else 1 for r in records)
    timeouts = sum(1 for record in records if record[4] == "timeout")
    errors = sum(
        1 for record in records if record[4] and record[4] != "timeout"
    ) + checked["errors"]
    if workload == "batch_mixed":
        # Every batch is the same work: the rate of the median batch.
        rate = statistics.median(questions) / statistics.median(latencies)
    else:
        rate = sum(questions) / sum(latencies)
    metrics = {
        "questions_per_s": (rate, "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    failed = errors + timeouts + checked["mismatches"]
    # Session reads and updates, reported beside the per-layer metrics.
    layer = {}
    for category, name in (("read", "session.read_p50_ms"),
                           ("update", "session.update_p50_ms")):
        picked = [
            statistics.median(times) for item, times in per_question.values()
            if getattr(item, "category", None) == category
        ]
        if picked:
            layer[name] = 1e3 * percentile(picked, 0.5)
    return {
        "layer": layer,
        "attempted": attempted,
        "calls": len(per_question),
        "passes": max(r[5] for r in records) + 1 if records else 0,
        "failed": failed,
        "errors": errors,
        "timeouts": timeouts,
        "mismatches": checked["mismatches"],
        "checked_by_reference": checked["by_reference"],
        "checked_at_runtime": checked["at_runtime"],
        "failed_frac": failed / max(attempted, 1),
        "elapsed_s": elapsed,
        "raw": {
            "latency_sum_s": sum(raw_latencies),
            "questions_per_s": sum(questions) / sum(raw_latencies),
            "latency_p50_ms": 1e3 * percentile(raw_latencies, 0.5),
            "latency_p90_ms": 1e3 * percentile(raw_latencies, 0.9),
            "speed": statistics.median(r[6] for r in records) if records else 1.0,
        },
        "metrics": metrics,
        "details": checked.get("details", [])[:10],
    }


def environment(workload: str) -> dict:
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workers": BATCH_WORKERS if workload == "batch_mixed" else 0,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--phase", choices=("setup", "measure", "traced"), default="measure"
    )
    parser.add_argument(
        "--count", type=int, default=0,
        help="traced phase: how many questions (or batches) to replay",
    )
    args = parser.parse_args(argv)
    # Set-up is timed by the parent from process start to READY; probes
    # at its start, middle and end give the speed to scale it by.
    probes = [probe()]
    import repro  # noqa: F401  - part of set-up, like a caller's import

    probes.append(probe())
    state = setup(args.workload, args.seed, args.seconds)
    probes.append(probe())
    factor = REFERENCE_PROBE_S / statistics.median(seconds for _at, seconds in probes)
    print("READY %.6f" % factor, flush=True)
    if args.phase == "setup":
        if "engine" in state:
            state["engine"].close()
        return 0
    if args.phase == "measure":
        result = measure(args.workload, args.seed, args.seconds, state)
    else:
        import layers

        result = layers.traced(args.workload, args.seed, args.count, state)
    result["env"] = environment(args.workload)
    print("RESULT " + json.dumps(result, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
