"""Batch counting engine: job descriptions, memoization, worker pool.

The engine turns the per-instance counting API of :mod:`repro.exact` and
:mod:`repro.approx` into a *service*: a stream of ``(database, query,
problem)`` jobs is deduplicated through a canonical-fingerprint answer
memo (:mod:`repro.engine.fingerprint`, :mod:`repro.engine.cache`) and the
misses are fanned out to a shared-nothing multiprocessing pool
(:mod:`repro.engine.pool`), where the questions about one circuit travel
together and the circuit stays in the worker that compiled it.
``repro-count batch`` (the CLI) and ``benchmarks/harness.py`` are the two
front doors.
"""

from repro.engine.cache import CountCache
from repro.engine.fingerprint import (
    fingerprint_db,
    fingerprint_delta,
    fingerprint_derivation,
    fingerprint_instance,
    fingerprint_job,
    fingerprint_jobs,
    fingerprint_query,
)
from repro.engine.incremental import (
    derive_instance_circuit,
    instance_circuit,
)
from repro.engine.jobs import (
    CountJob,
    JobResult,
    execute_job,
    instance_db,
    instance_fingerprint_of,
)
from repro.engine.pool import BatchEngine, run_batch

__all__ = [
    "BatchEngine",
    "CountCache",
    "CountJob",
    "JobResult",
    "derive_instance_circuit",
    "execute_job",
    "fingerprint_db",
    "fingerprint_delta",
    "fingerprint_derivation",
    "fingerprint_instance",
    "fingerprint_job",
    "fingerprint_jobs",
    "fingerprint_query",
    "instance_circuit",
    "instance_db",
    "instance_fingerprint_of",
    "run_batch",
]
