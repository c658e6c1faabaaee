"""Job and result records for the batch counting engine.

A :class:`CountJob` is one self-contained counting instance — database,
query, problem kind, and the knobs the underlying solver takes.  Jobs are
immutable values so they can be fingerprinted, pickled to worker processes,
and replayed.  :func:`execute_job` is the single entry point both the
serial path and the pool workers run; it never raises, reporting solver
failures in :attr:`JobResult.error` instead so one poisoned instance cannot
take down a batch.

Every job but ``approx-val`` is answered by one
:func:`repro.exact.dispatch.solve` call, planned once, with the engine's
circuit store (:class:`~repro.engine.cache.CountCache`) passed along: a
circuit-backed method compiles the instance at most once per store and
every further question about it is a linear circuit pass — the
amortization the batch engine exists for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from repro.core.query import BooleanQuery
from repro.db.incomplete import IncompleteDatabase
from repro.exact.brute import DEFAULT_BUDGET
from repro.exact.dispatch import solve
from repro.exact.planner import check_weights
from repro.obs import capture as _capture

#: Problem kinds the engine understands.
PROBLEMS = (
    "val", "comp", "approx-val", "val-weighted", "marginals", "sweep",
    "update",
)

#: Registry methods that answer from a compiled circuit, and so read,
#: derive into and fill the engine's circuit store.
CIRCUIT_METHODS = ("circuit", "delta")


@dataclass(frozen=True)
class CountJob:
    """One counting instance: ``(problem, D, q)`` plus solver knobs.

    ``problem`` is ``'val'`` (``#Val``), ``'comp'`` (``#Comp``; ``query``
    may be ``None`` to count all completions), ``'approx-val'`` (the
    Karp-Luby FPRAS; ``epsilon``/``delta``/``seed`` apply),
    ``'val-weighted'`` (weighted ``#Val``; ``weights`` applies),
    ``'marginals'`` (all per-null value marginals of ``#Val``; ``weights``
    optionally biases the valuation distribution), ``'sweep'`` (weighted
    ``#Val`` under a *sequence* of weight tables — ``weights`` is that
    sequence, the result one count per table) or ``'update'`` (``#Val``
    of ``db`` after applying the ``deltas`` chain, answered from a cached
    ancestor circuit when possible).  ``method`` and ``budget`` are
    forwarded to :func:`repro.exact.dispatch.solve` for the exact
    problems (``'update'`` always requests the ``delta`` method, which
    degrades to ``circuit`` off a resolve/restrict-only chain).
    """

    problem: str
    db: IncompleteDatabase
    query: BooleanQuery | None = None
    method: str = "auto"
    budget: int | None = DEFAULT_BUDGET
    epsilon: float = 0.1
    delta: float = 0.25
    seed: int | None = 0
    weights: (
        Mapping[Any, Mapping[Any, Any]]
        | Sequence[Mapping[Any, Mapping[Any, Any]] | None]
        | None
    ) = None
    label: str | None = None
    #: ``'update'`` only: the delta chain to apply to ``db`` — the job
    #: answers ``#Val`` of the *updated* instance, conditioning a cached
    #: ancestor circuit along a resolve/restrict suffix and compiling the
    #: updated instance otherwise.
    deltas: Sequence[Any] = ()

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ValueError(
                "unknown problem %r (one of %s)" % (self.problem, PROBLEMS)
            )
        if self.problem != "comp" and self.query is None:
            raise ValueError(
                "problem %r needs a query (only 'comp' allows query=None)"
                % self.problem
            )
        if self.problem == "update":
            from repro.db.deltas import is_delta

            chain = tuple(self.deltas)
            if not chain:
                raise ValueError("'update' needs at least one delta")
            if not all(is_delta(delta) for delta in chain):
                raise ValueError(
                    "'update' deltas must be repro.db.deltas records"
                )
            object.__setattr__(self, "deltas", chain)
        elif self.deltas:
            raise ValueError("deltas only apply to problem 'update'")
        check_weights(self.problem, self.weights)
        if self.problem == "sweep":
            # Normalized to a tuple so the job stays a hashable value.
            object.__setattr__(self, "weights", tuple(self.weights))  # type: ignore[arg-type]


@dataclass
class JobResult:
    """Outcome of one job: an answer or an error, plus provenance.

    ``count`` is the exact count for the counting problems, the estimate
    for ``approx-val``, the (possibly Fraction) weighted count for
    ``val-weighted``, the nested ``{null: {value: probability}}``
    record for ``marginals``, and the per-table list of weighted counts
    for ``sweep``.  ``method`` is the *resolved* algorithm that
    produced it (e.g. ``'lineage'`` for an ``'auto'`` job), ``seconds``
    the solve wall time (``0.0`` for cache hits), ``cache_hit`` whether
    the memo layer answered.
    """

    problem: str
    count: Any
    method: str | None
    seconds: float
    label: str | None = None
    cache_hit: bool = False
    error: str | None = None
    fingerprint: str | None = field(default=None, repr=False)
    #: Engine provenance: ``fallback`` records why a job left the pool
    #: path (unpicklable query, mid-dispatch pickle failure), and
    #: ``metrics`` is the digest of what ran (with ``queue_seconds`` for
    #: a job answered in a pool worker).
    meta: dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by the ``repro-count batch`` CLI)."""
        record = {
            "label": self.label,
            "problem": self.problem,
            "count": _jsonable(self.count),
            "method": self.method,
            "seconds": round(self.seconds, 6),
            "cache_hit": self.cache_hit,
            "error": self.error,
        }
        if self.meta:
            record["meta"] = dict(self.meta)
        return record


def _jsonable(value: Any) -> Any:
    """Exact answers in a form ``json.dumps`` accepts (Fractions -> float)."""
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, dict):
        return {key: _jsonable(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(inner) for inner in value]
    return value


def execute_job(job: CountJob, circuits: Any = None) -> JobResult:
    """Solve one job, catching solver errors into the result record.

    Every exact problem is one :func:`repro.exact.dispatch.solve` call —
    ``'update'`` is ``'val'`` on :func:`instance_db` under the ``delta``
    method — with ``circuits`` as the circuit store (the engine passes
    its :class:`~repro.engine.cache.CountCache`; without one,
    circuit-backed methods compile a throwaway circuit per job).
    ``'approx-val'`` is the one problem outside the planner.
    """
    started = time.perf_counter()
    with _capture() as captured:
        try:
            count, method = _answer(job, circuits)
            error = None
        except Exception as exc:  # noqa: BLE001 - batch isolation by design
            count, method = None, None
            error = "%s: %s" % (type(exc).__name__, exc)
    result = JobResult(
        problem=job.problem,
        count=count,
        method=method,
        seconds=time.perf_counter() - started,
        label=job.label,
        error=error,
    )
    metrics = captured.digest()
    if metrics:
        result.meta["metrics"] = metrics
    return result


def _answer(job: CountJob, circuits: Any) -> tuple[Any, str]:
    if job.problem == "approx-val":
        from repro.approx.fpras import fpras_count_valuations

        estimate = fpras_count_valuations(
            job.db,
            job.query,  # type: ignore[arg-type]  # __post_init__ guarantees it
            epsilon=job.epsilon,
            delta=job.delta,
            seed=job.seed,
        )
        return estimate, "karp-luby"
    update = job.problem == "update"
    answer = solve(
        "val" if update else job.problem,
        instance_db(job),
        job.query,
        method="delta" if update else job.method,
        weights=job.weights,
        budget=job.budget,
        store=circuits,
    )
    if job.problem == "marginals":
        return marginals_record(answer.count), answer.method
    return answer.count, answer.method


def instance_db(job: CountJob) -> IncompleteDatabase:
    """The database whose circuit answers ``job``.

    The job's own database for everything except ``'update'``, whose
    circuit belongs to the delta-chain *result* — provenance rides along,
    so the engine can later derive the circuit from a cached ancestor.
    """
    db = job.db
    for delta in job.deltas:
        db = db.apply(delta)
    return db


def instance_fingerprint_of(job: CountJob) -> str | None:
    """The circuit-store key for ``job``'s instance, or ``None``."""
    from repro.engine.fingerprint import fingerprint_instance

    kind = "comp" if job.problem == "comp" else "val"
    try:
        db = instance_db(job)
    except (ValueError, KeyError, TypeError):
        # An invalid delta chain: the solve will report the real error;
        # scheduling just treats the job as uncacheable.
        return None
    return fingerprint_instance(db, job.query, kind)


def marginals_record(marginals: dict) -> dict[str, dict[str, float]]:
    """Marginal tables keyed by reprs, JSON- and comparison-friendly."""
    return {
        repr(null): {
            repr(value): float(probability)
            for value, probability in sorted(table.items(), key=repr)
        }
        for null, table in marginals.items()
    }
