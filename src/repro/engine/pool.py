"""The batch engine: dedup through the cache, fan out to worker processes.

``BatchEngine.run`` takes a stream of :class:`~repro.engine.jobs.CountJob`
and returns one :class:`~repro.engine.jobs.JobResult` per job, in order.
The pipeline is:

1. **fingerprint** every job (:func:`~repro.engine.fingerprint.fingerprint_jobs`);
2. **memoize** — jobs whose fingerprint is already cached (from a previous
   batch or from an earlier duplicate in this one) never reach a solver;
3. **fan out** the unique cache misses to a ``multiprocessing`` pool.
   Workers are shared-nothing: each receives pickled jobs and returns
   result records, no state is shared beyond the task queue.  Jobs that
   cannot be pickled (e.g. a :class:`CustomQuery` closing over a lambda)
   are solved serially in the parent instead of failing, with the reason
   recorded in the result's ``meta['fallback']``.

A circuit stays in the process that compiled it.  Jobs that may be
answered from a circuit (``val-weighted``, ``marginals``, ``sweep``,
``update``, ``method='circuit'``/``'delta'``, and ``auto`` exact jobs on
delta-derived instances — read off the job, never by planning it) are
scheduled by their circuit-store keys (:func:`_circuit_keys`): the job's
own instance, then the ancestors its circuit conditions from.  A job
with a key in the parent's store runs in the parent, as a pass over that
circuit or a conditioning of it.  Every other question about one circuit,
and about the children that condition from it, travels to one worker as
one task: a job's family is the farthest ancestor among its keys that
the batch asks about.  The worker answers ancestors before their
children against a private store (:func:`_pool_solve`), so each circuit
compiles once, and sends back only answers, which the parent memoizes.
Distinct circuits therefore compile in parallel and no circuit crosses a
process boundary.

``workers=0``/``1`` (or a batch with a single pool task) skips process
creation entirely, which keeps tests and tiny batches free of pool
overhead.

Pool lifecycle: by default every ``run`` call builds and tears down its
own pool (nothing to leak, nothing to close).  A long-lived engine —
a server draining batch after batch — passes ``persistent_pool=True`` to
pay process startup once: the pool is created lazily, reused across
``run`` calls, optionally pre-forked with :meth:`BatchEngine.warm`, and
released by :meth:`BatchEngine.close` (the engine is a context manager).

Dispatch: plain jobs go to the pool in chunks of
``len(plain) // (processes * 4)``, so cheap jobs do not pay one IPC round
trip each while enough chunks stay in flight to balance uneven sizes.
Each circuit task is its own pool task, queued after them (a second
``imap`` with ``chunksize=1``), so no worker compiles two circuit
families back to back while another idles.  Results come home in task
order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.pool
import os
import pickle
import time
from typing import Iterable, Sequence

from repro.core.query import BCQ, Negation, UCQ
from repro.engine.cache import CountCache
from repro.engine.fingerprint import fingerprint_instance, fingerprint_jobs
from repro.engine.incremental import conditioning_ancestors
from repro.engine.jobs import (
    CIRCUIT_METHODS,
    CountJob,
    JobResult,
    execute_job,
    instance_db,
)
from repro.obs import (
    emit_record as _emit_record,
    enabled as _obs_enabled,
    incr as _incr,
    span as _span,
)


def default_workers() -> int:
    """Worker count for ``workers=None``: one per CPU, at least one."""
    return max(os.cpu_count() or 1, 1)


class BatchEngine:
    """Reusable batch runner with a persistent cross-batch cache."""

    def __init__(
        self,
        workers: int | None = None,
        cache: CountCache | None = None,
        persistent_pool: bool = False,
    ) -> None:
        self.workers = default_workers() if workers is None else max(workers, 0)
        self.cache = cache if cache is not None else CountCache()
        self._persistent = persistent_pool
        self._pool: "multiprocessing.pool.Pool | None" = None

    # -- pool lifecycle ----------------------------------------------------

    def warm(self) -> None:
        """Pre-fork the persistent pool so the first batch pays no startup.

        No-op unless ``persistent_pool=True`` and ``workers > 1``.
        """
        if self._persistent and self.workers > 1 and self._pool is None:
            self._pool = multiprocessing.get_context().Pool(self.workers)

    def close(self) -> None:
        """Release the persistent pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def run(self, jobs: Sequence[CountJob]) -> list[JobResult]:
        """Solve every job, in order; errors are per-job, never raised."""
        with _span("engine.batch", jobs=len(jobs)):
            results = self._run(jobs)
        hits = sum(result.cache_hit for result in results)
        if hits:
            _incr("engine.memo_hits", hits)
        _incr("engine.jobs", len(jobs))
        return results

    def _run(self, jobs: Sequence[CountJob]) -> list[JobResult]:
        with _span("engine.fingerprint", jobs=len(jobs)):
            fingerprints = fingerprint_jobs(jobs)
        results: list[JobResult | None] = [None] * len(jobs)

        representative: dict[str, int] = {}
        followers: dict[int, list[int]] = {}
        to_solve: list[int] = []
        for index, (job, fingerprint) in enumerate(zip(jobs, fingerprints)):
            if fingerprint is not None:
                first = representative.get(fingerprint)
                if first is not None:
                    # An in-batch duplicate: resolved from the memo layer
                    # (and counted as a hit) once its representative solves.
                    followers.setdefault(first, []).append(index)
                    continue
                cached = self.cache.get(fingerprint)
                if cached is not None:
                    count, method = cached
                    results[index] = JobResult(
                        problem=job.problem,
                        count=count,
                        method=method,
                        seconds=0.0,
                        label=job.label,
                        cache_hit=True,
                        fingerprint=fingerprint,
                    )
                    continue
                representative[fingerprint] = index
            to_solve.append(index)

        solved = self._execute([jobs[index] for index in to_solve])
        for index, result in zip(to_solve, solved):
            result.fingerprint = fingerprints[index]
            results[index] = result
            if result.ok and fingerprints[index] is not None:
                assert result.count is not None and result.method is not None
                self.cache.put(fingerprints[index], result.count, result.method)

        for first, duplicate_indices in followers.items():
            source = results[first]
            assert source is not None
            for index in duplicate_indices:
                if source.ok:
                    # Served from the representative's result, not by a
                    # lookup: count the hit directly.
                    self.cache.hits += 1
                    results[index] = JobResult(
                        problem=source.problem,
                        count=source.count,
                        method=source.method,
                        seconds=0.0,
                        label=jobs[index].label,
                        cache_hit=True,
                        fingerprint=fingerprints[index],
                    )
                    continue
                # The representative failed, but a duplicate instance may
                # still succeed under its own method/budget (those knobs
                # are not part of the fingerprint): solve it for real.
                result = execute_job(jobs[index], self.cache)
                result.fingerprint = fingerprints[index]
                results[index] = result
                if result.ok and fingerprints[index] is not None:
                    assert result.count is not None
                    assert result.method is not None
                    self.cache.put(
                        fingerprints[index], result.count, result.method
                    )
                    # Remaining duplicates are served from this success.
                    source = result

        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # -- execution ---------------------------------------------------------

    def _execute(self, jobs: Sequence[CountJob]) -> list[JobResult]:
        if self.workers <= 1 or len(jobs) <= 1:
            return [execute_job(job, self.cache) for job in jobs]

        plain: list[int] = []                   # chunked pool jobs
        circuit: dict[int, list[str]] = {}      # circuit-task jobs' keys
        serial: list[int] = []                  # in the parent
        fallback: dict[int, str] = {}
        for index, job in enumerate(jobs):
            if not _picklable(job):
                fallback[index] = (
                    "job is not picklable; solved serially in the parent"
                )
                serial.append(index)
                continue
            keys = _circuit_keys(job) if _may_use_circuit(job) else []
            if not keys:
                plain.append(index)
            elif any(self.cache.has_circuit(key) for key in keys):
                # The parent holds the circuit or an ancestor it
                # conditions from: a linear pass here beats a recompile.
                serial.append(index)
            else:
                circuit[index] = keys

        # A job joins the family of the farthest ancestor it conditions
        # from that this batch asks about, since that circuit is compiled
        # in the task; children of an ancestor nobody asks about compile
        # apart, in parallel.  Ancestors answer before their children, so
        # each circuit compiles once and its children condition from it.
        asked = {keys[0] for keys in circuit.values()}
        families: dict[str, list[int]] = {}     # one pool task per family
        for index, keys in circuit.items():
            family = next(key for key in reversed(keys) if key in asked)
            families.setdefault(family, []).append(index)
        for members in families.values():
            members.sort(key=lambda index: len(circuit[index]))

        if len(plain) + len(families) <= 1:
            results_serial = [execute_job(job, self.cache) for job in jobs]
            for index, reason in fallback.items():
                results_serial[index].meta.setdefault("fallback", reason)
            return results_serial

        results: list[JobResult | None] = [None] * len(jobs)
        pool_indices = plain + [
            index for family in families.values() for index in family
        ]
        plain_tasks = [[jobs[index]] for index in plain]
        circuit_tasks = [
            [jobs[index] for index in family] for family in families.values()
        ]
        try:
            if self._persistent:
                self.warm()
                assert self._pool is not None
                solved = self._dispatch(
                    self._pool, self.workers, plain_tasks, circuit_tasks
                )
            else:
                processes = min(self.workers, len(plain) + len(families))
                with multiprocessing.get_context().Pool(processes) as pool:
                    solved = self._dispatch(
                        pool, processes, plain_tasks, circuit_tasks
                    )
        except Exception as exc:
            # A persistent pool that failed mid-dispatch cannot be trusted
            # with the next batch; drop it (a fresh one builds on demand).
            if self._pool is not None:
                self.close()
            # A job the cheap picklability screen admitted failed to
            # serialize mid-dispatch (e.g. an exotic constant inside a
            # database).  Solvers are deterministic and approx jobs are
            # seeded, so re-running the whole slice serially is safe —
            # but never silently: every affected result records why it
            # left the pool path, and the batch summary counts them.
            reason = "pool dispatch failed (%s: %s); slice re-solved serially" % (
                type(exc).__name__, exc,
            )
            solved = []
            for index in pool_indices:
                result = execute_job(jobs[index], self.cache)
                result.meta.setdefault("fallback", reason)
                solved.append(result)
        for index, result in zip(pool_indices, solved):
            results[index] = result
        for index in serial:
            result = execute_job(jobs[index], self.cache)
            if index in fallback:
                result.meta.setdefault("fallback", fallback[index])
            results[index] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def _dispatch(
        self,
        pool: "multiprocessing.pool.Pool",
        processes: int,
        plain: list[list[CountJob]],
        circuits: list[list[CountJob]],
    ) -> list[JobResult]:
        """Send one slice to ``pool`` by the chunking rule of the module
        docstring and drain its ordered results, timestamping each arrival.

        Ordered arrivals let the parent decompose per-job latency: *total*
        is dispatch-to-arrival wall time, *execute* the worker's own solve
        time, *queue* the difference — time spent waiting for a worker
        slot, in IPC, or behind earlier results of the ordered stream or
        of the job's own task.  The queue share is recorded into the
        job's ``meta['metrics']`` (it rides the same payload workers
        already ship) and each worker's captured metrics are absorbed
        here, at the only point that knows the result crossed a process
        boundary.
        """
        chunk = max(1, len(plain) // (processes * 4))
        arrivals = itertools.chain(
            pool.imap(_pool_solve, plain, chunksize=chunk),
            pool.imap(_pool_solve, circuits, chunksize=1),
        )
        solved = []
        dispatched = time.perf_counter()
        for task_results in arrivals:
            total = time.perf_counter() - dispatched
            for result in task_results:
                if _obs_enabled():
                    queue = max(0.0, total - result.seconds)
                    result.meta.setdefault("metrics", {})["queue_seconds"] = (
                        round(queue, 6)
                    )
                    self._absorb_worker_metrics(result)
                solved.append(result)
        return solved

    def _absorb_worker_metrics(self, result: JobResult) -> None:
        """Fold a worker-process result's shipped metrics into the parent:
        counters add to every active capture, and each phase total is
        re-emitted to the attached sinks (the sinks never saw the
        worker's own spans)."""
        metrics = result.meta.get("metrics")
        if not metrics:
            return
        for name, seconds in (metrics.get("phases") or {}).items():
            _emit_record(
                {
                    "type": "span",
                    "name": name,
                    "path": name,
                    "depth": 0,
                    "seconds": seconds,
                    "label": result.label,
                    "worker": True,
                }
            )
        for name, value in (metrics.get("counters") or {}).items():
            _incr(name, value)


def _may_use_circuit(job: CountJob) -> bool:
    """Whether ``job`` may be answered from a compiled circuit — read off
    the job (problem, requested method, provenance), never by planning.

    ``auto`` never picks ``circuit`` for ``val``/``comp`` (lineage is
    always cheaper) but may pick ``delta`` on a delta-derived instance.
    """
    if job.problem == "approx-val":
        return False
    if job.problem == "update" or job.method in CIRCUIT_METHODS:
        return True
    if job.method != "auto":
        return False
    return job.problem not in ("val", "comp") or job.db.parent is not None


def _circuit_keys(job: CountJob) -> list[str]:
    """The circuit-store keys of ``job``: its own instance first, then the
    ancestors its circuit conditions from, nearest first
    (:func:`~repro.engine.incremental.conditioning_ancestors`).  Empty when
    the instance has no key (an opaque query or an invalid delta chain).
    """
    kind = "comp" if job.problem == "comp" else "val"
    try:
        db = instance_db(job)
    except (ValueError, KeyError, TypeError):
        return []  # an invalid delta chain: the solve reports the error
    nodes = [db] + [
        ancestor for ancestor, _deltas in conditioning_ancestors(db, kind)
    ]
    keys = [fingerprint_instance(node, job.query, kind) for node in nodes]
    # An opaque query keys neither the instance nor any ancestor.
    return [key for key in keys if key is not None]


def _pool_solve(jobs: list[CountJob]) -> list[JobResult]:
    """Worker task body: solve ``jobs`` in order against one private
    :class:`CountCache`, so the questions of one task compile each of
    their circuits once; only the answers travel back."""
    # A forked worker inherits the parent's active span stack (the engine
    # forks mid-span); drop it so this job's spans land in its own capture.
    from repro.obs import reset_thread_state

    reset_thread_state()
    store = CountCache()
    return [execute_job(job, store) for job in jobs]


def _query_is_value_type(query: object) -> bool:
    if query is None or isinstance(query, (BCQ, UCQ)):
        return True
    if isinstance(query, Negation):
        return _query_is_value_type(query.inner)
    return False


def _picklable(job: CountJob) -> bool:
    """Cheap screen for pool dispatch.

    Jobs over syntactic queries are plain value objects and always pickle;
    only opaque queries (:class:`CustomQuery` and friends, which may close
    over lambdas) pay an actual serialization test.
    """
    if _query_is_value_type(job.query):
        return True
    try:
        pickle.dumps(job)
    except Exception:  # pickle raises a zoo of error types
        return False
    return True


def run_batch(
    jobs: Iterable[CountJob],
    workers: int | None = None,
    cache: CountCache | None = None,
) -> list[JobResult]:
    """One-shot convenience wrapper around :class:`BatchEngine`."""
    return BatchEngine(workers=workers, cache=cache).run(list(jobs))
