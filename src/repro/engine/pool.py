"""The batch engine: dedup through the cache, fan out to worker processes.

``BatchEngine.run`` takes a stream of :class:`~repro.engine.jobs.CountJob`
and returns one :class:`~repro.engine.jobs.JobResult` per job, in order.
The pipeline is:

1. **fingerprint** every job (:func:`~repro.engine.fingerprint.fingerprint_jobs`),
   canonicalizing each distinct database object once per batch;
2. **memoize** — jobs whose fingerprint is already cached (from a previous
   batch or from an earlier duplicate in this one) never reach a solver;
3. **fan out** the unique cache misses to a ``multiprocessing`` pool.
   Workers are shared-nothing: each receives a pickled job and returns a
   result record, no state is shared beyond the task queue.  Jobs that
   cannot be pickled (e.g. a :class:`CustomQuery` closing over a lambda)
   are solved serially in the parent instead of failing, with the reason
   recorded in the result's ``meta['fallback']``.

Jobs that may be answered from a circuit (``val-weighted``, ``marginals``,
``sweep``, ``update``, ``method='circuit'``/``'delta'``, and ``auto``
exact jobs on delta-derived instances — read off the job, never by
planning it) are scheduled around the parent's circuit store: the
**first** job of each not-yet-cached instance goes to a worker, which
compiles the circuit, answers, and ships the serialized artifact home
(:func:`~repro.engine.jobs.execute_job_capturing`); the parent rehydrates
and installs it (:func:`repro.compile.backend.artifact_from_bytes`), and
every *further* question about that instance — in this batch or the next —
runs in the parent as a linear pass over the installed circuit.  Distinct
circuit instances therefore compile in parallel while the amortization
across question modes is preserved, and the eviction invariant is
untouched: a worker-compiled circuit is a first-class store entry whose
memo links drop with it.

``workers=0``/``1`` (or a single-miss batch) skips process creation
entirely, which keeps tests and tiny batches free of pool overhead.

Pool lifecycle: by default every ``run`` call builds and tears down its
own pool (nothing to leak, nothing to close).  A long-lived engine —
a server draining batch after batch — passes ``persistent_pool=True`` to
pay process startup once: the pool is created lazily, reused across
``run`` calls, optionally pre-forked with :meth:`BatchEngine.warm`, and
released by :meth:`BatchEngine.close` (the engine is a context manager).

Dispatch: plain jobs go to the pool in chunks of
``len(plain) // (processes * 4)``, so cheap jobs do not pay one IPC round
trip each while enough chunks stay in flight to balance uneven sizes.
Each worker compile is its own task, queued after them (a second
``imap`` with ``chunksize=1``), so no worker runs two compiles back to
back while another idles.  Results come home in task order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.pool
import os
import pickle
import time
from typing import Iterable, Sequence

from repro.compile.backend import artifact_from_bytes
from repro.compile.serialize import CircuitFormatError
from repro.core.query import BCQ, Negation, UCQ
from repro.engine.cache import CountCache
from repro.engine.fingerprint import fingerprint_instance, fingerprint_jobs
from repro.engine.incremental import conditioning_ancestors
from repro.engine.jobs import (
    CIRCUIT_METHODS,
    CountJob,
    JobResult,
    execute_job,
    execute_job_capturing,
    instance_db,
    instance_fingerprint_of,
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
                self.cache.put(
                    fingerprints[index],
                    result.count,
                    result.method,
                    instance=_instance_of(jobs[index], result),
                )

        for first, duplicate_indices in followers.items():
            source = results[first]
            assert source is not None
            for index in duplicate_indices:
                if source.ok:
                    # Served from the representative's result, not by a
                    # lookup (a bounded cache may have refused to keep
                    # it): count the hit directly.
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
                        fingerprints[index],
                        result.count,
                        result.method,
                        instance=_instance_of(jobs[index], result),
                    )
                    # Remaining duplicates are served from this success.
                    source = result

        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # -- execution ---------------------------------------------------------

    def _derivable(self, job: CountJob, claimed: set[str]) -> bool:
        """Whether the job's instance derives by conditioning an ancestor
        circuit (:func:`~repro.engine.incremental.conditioning_ancestors`).

        True when such an ancestor is cached already *or* claimed by a
        compile worker earlier in the same batch — the serial pass runs
        after worker artifacts are installed, so the ancestor is in the
        store by the time this job executes in the parent.
        """
        try:
            db = instance_db(job)
        except (ValueError, KeyError, TypeError):
            return False
        kind = "comp" if job.problem == "comp" else "val"
        for ancestor, _deltas in conditioning_ancestors(db, kind):
            fingerprint = fingerprint_instance(ancestor, job.query, kind)
            if fingerprint is not None and (
                fingerprint in claimed or self.cache.has_circuit(fingerprint)
            ):
                return True
        return False

    def _execute(self, jobs: Sequence[CountJob]) -> list[JobResult]:
        if self.workers <= 1 or len(jobs) <= 1:
            return [execute_job(job, self.cache) for job in jobs]

        parallel: list[int] = []        # plain jobs, pool-dispatched
        compile_remote: list[int] = []  # circuit jobs compiled in a worker
        serial: list[int] = []          # in-parent: store hits and stragglers
        fallback: dict[int, str] = {}
        claimed: set[str] = set()
        for index, job in enumerate(jobs):
            if not _picklable(job):
                fallback[index] = (
                    "job is not picklable; solved serially in the parent"
                )
                serial.append(index)
                continue
            instance = (
                instance_fingerprint_of(job) if _may_use_circuit(job) else None
            )
            if instance is None:
                parallel.append(index)
            elif (
                self.cache.has_circuit(instance)
                or instance in claimed
                # Delta-derived instance with a cached (or claimed)
                # ancestor it conditions: the parent conditions the
                # ancestor circuit in a linear pass — cheaper than a
                # worker recompile, and the derived circuit lands in the
                # store with its provenance link intact.
                or self._derivable(job, claimed)
            ):
                serial.append(index)
            else:
                # One worker compile per unique instance: the first job of
                # a not-yet-cached instance ships its circuit home, every
                # other question about it runs in the parent as a linear
                # pass over the installed artifact.
                claimed.add(instance)
                compile_remote.append(index)

        pool_indices = parallel + compile_remote
        if len(pool_indices) <= 1:
            results_serial = [execute_job(job, self.cache) for job in jobs]
            for index, reason in fallback.items():
                results_serial[index].meta.setdefault("fallback", reason)
            return results_serial

        results: list[JobResult | None] = [None] * len(jobs)
        plain = [(jobs[index], False) for index in parallel]
        compiles = [(jobs[index], True) for index in compile_remote]
        try:
            if self._persistent:
                self.warm()
                assert self._pool is not None
                solved = self._dispatch(self._pool, self.workers, plain, compiles)
            else:
                processes = min(self.workers, len(pool_indices))
                with multiprocessing.get_context().Pool(processes) as pool:
                    solved = self._dispatch(pool, processes, plain, compiles)
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
        for index in compile_remote:
            self._install_artifact(jobs[index], results[index])
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
        plain: list[tuple[CountJob, bool]],
        compiles: list[tuple[CountJob, bool]],
    ) -> list[JobResult]:
        """Send one slice to ``pool`` by the chunking rule of the module
        docstring and drain its ordered results, timestamping each arrival.

        Ordered arrivals let the parent decompose per-job latency: *total*
        is dispatch-to-arrival wall time, *execute* the worker's own solve
        time, *queue* the difference — time spent waiting for a worker
        slot, in IPC, or behind earlier results of the ordered stream.
        The queue share is recorded into the job's ``meta['metrics']`` (it
        rides the same payload workers already ship) and each worker's
        captured metrics are absorbed here, at the only point that knows
        the result crossed a process boundary.
        """
        chunk = max(1, len(plain) // (processes * 4))
        arrivals = itertools.chain(
            pool.imap(_pool_solve, plain, chunksize=chunk),
            pool.imap(_pool_solve, compiles, chunksize=1),
        )
        solved = []
        dispatched = time.perf_counter()
        for result in arrivals:
            if _obs_enabled():
                total = time.perf_counter() - dispatched
                queue = max(0.0, total - result.seconds)
                result.meta.setdefault("metrics", {})["queue_seconds"] = round(
                    queue, 6
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

    def _install_artifact(self, job: CountJob, result: JobResult | None) -> None:
        """Rehydrate a worker-shipped circuit into the parent's store.

        Installation happens *before* the memo layer records the answer,
        so the answer links to its circuit exactly as if the parent had
        compiled it — ``--cache-mb`` eviction keeps dropping circuit and
        derived memo entries together.  A payload the codec rejects is
        discarded: the answer (already computed in the worker) survives,
        it just is not memoized against a circuit the store never held.
        """
        if result is None or not result.ok or result.artifact is None:
            return
        payload, result.artifact = result.artifact, None
        instance = instance_fingerprint_of(job)
        if instance is None:
            return
        try:
            # Update jobs ship the *child* instance's circuit; rehydrate
            # against the database the chain produces, not the base one.
            compiled = artifact_from_bytes(payload, instance_db(job))
        except CircuitFormatError as exc:
            result.meta["artifact_rejected"] = str(exc)
            return
        self.cache.put_circuit(instance, compiled, from_worker=True)
        # put_circuit silently refuses circuits larger than the cache
        # bound; only claim the install when the store actually holds it.
        if self.cache.has_circuit(instance):
            result.meta["compiled_in_worker"] = True
            _incr("engine.worker_circuit_installs")
        else:
            result.meta["artifact_rejected"] = "circuit exceeds the cache bound"


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


def _instance_of(job: CountJob, result: JobResult) -> str | None:
    """Circuit-store key linking a memo entry to its instance: set only
    when the answering method read a circuit (a closed form or a brute
    fallback never compiles one, and a link to an absent circuit would
    make the cache refuse to store the answer)."""
    if result.method not in CIRCUIT_METHODS:
        return None
    return instance_fingerprint_of(job)


def _pool_solve(task: tuple[CountJob, bool]) -> JobResult:
    """Worker task body: solve, optionally capturing the circuit artifact."""
    # A forked worker inherits the parent's active span stack (the engine
    # forks mid-span); drop it so this job's spans land in its own capture.
    from repro.obs import reset_thread_state

    reset_thread_state()
    job, capture = task
    return execute_job_capturing(job) if capture else execute_job(job)


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
