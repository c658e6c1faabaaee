"""The engine on the perfbench streams: the digests that key
``perfbench/reference.json``, and the work one engine run does per job.

``fingerprint_job`` digests are a persisted format: the reference keys its
answers by them, so a drift in the fingerprint text would quietly move the
benchmark's checks from the reference to its runtime budget.  An engine
run builds each database form once: an ``update`` job's child once, for
its fingerprint and its solve, and each database object's label-exact
form once, however many jobs and circuit fetches ask about it.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.db.incomplete import IncompleteDatabase
from repro.engine import BatchEngine, CountJob, fingerprint
from repro.engine.fingerprint import fingerprint_job

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules.setdefault(
        spec.name, importlib.util.module_from_spec(spec)
    )
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="module")
def reference():
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


class TestReferenceDigests:
    """``fingerprint_job`` of the seed-1 questions equals the fingerprints
    the reference stores at their positions."""

    def test_session_questions(self, reference):
        assert reference["seed"] == 1
        stored = reference["workloads"]["circuit_session"]
        questions = _workloads().session_stream(1, 2)
        assert len(questions) == 24
        for position, question in enumerate(questions):
            assert fingerprint_job(question.job) == stored[position][0], position

    @pytest.mark.parametrize("workload", ["solve_tractable", "solve_hard"])
    def test_first_solve_round(self, reference, workload):
        stored = reference["workloads"][workload]
        questions = _workloads().solve_stream(workload, 1, 1)
        assert questions
        for position, question in enumerate(questions):
            job = CountJob(question.problem, question.db, question.query)
            assert fingerprint_job(job) == stored[position][0], position


class TestSessionBookkeeping:
    """Spies over one ``session_stream(1, 1)`` round, one job per
    ``run()`` on ``BatchEngine(workers=0)``, as the benchmark asks it."""

    def test_an_update_builds_its_child_once(self, monkeypatch):
        questions = _workloads().session_stream(1, 1)
        builds = [0]
        original = IncompleteDatabase.__init__

        def counting_init(self, *args, **kwargs):
            builds[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(IncompleteDatabase, "__init__", counting_init)
        engine = BatchEngine(workers=0)
        per_update = []
        for question in questions:
            before = builds[0]
            result = engine.run([question.job])[0]
            assert result.ok, result.error
            if question.job.problem == "update":
                per_update.append(builds[0] - before)
            else:
                assert builds[0] == before, question.job.problem
        assert per_update == [1, 1, 1]

    def test_each_database_object_writes_its_exact_form_once(
        self, monkeypatch
    ):
        questions = _workloads().session_stream(1, 1)
        calls: Counter = Counter()
        alive = []  # ids stay distinct while their objects live
        original = fingerprint._exact_db_form

        def counting_form(db):
            calls[id(db)] += 1
            alive.append(db)
            return original(db)

        monkeypatch.setattr(fingerprint, "_exact_db_form", counting_form)
        engine = BatchEngine(workers=0)
        for question in questions:
            result = engine.run([question.job])[0]
            assert result.ok, result.error
        # The round's database, each update's child built in its run, and
        # each child the stream reads (an equal but distinct object).
        assert set(calls.values()) == {1}
        assert len(calls) == 1 + 3 + 3
