"""perfbench's deep calls reach every layer they time.

``perfbench/layers.py`` times each layer through its public entry point
(``count_models_dpdb``, ``to_bytes``, ``artifact_from_bytes``, ...) on a
relabelled twin, and ``Deep.call`` counts any exception as a call left
out past the limit.  So a changed signature in ``src/repro`` would drop a
per-layer metric from every traced run without failing anything.  Here
the deep calls run on one ``#Val`` and one ``#Comp`` instance of the
``solve_hard`` families: none may be left out, and each records every
key of its problem.
"""

import importlib.util
import random
import signal
import sys
from pathlib import Path

import pytest

from repro.workloads.generators import (
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: What one instance's deep calls record: ``(timed keys, summed keys)``.
COMMON_MS = {
    "artifact.install_ms", "circuit.compile_ms", "circuit.pass_ms",
    "dpdb.probe_ms", "dpdb.run_ms", "encode.ms", "engine.overhead_ms",
    "fingerprint.ms", "ordering.ms", "search.ms",
}
COMMON_SUMS = {
    "artifact.bytes", "brute.seconds", "brute.valuations", "circuit.nodes",
    "dpdb.rows", "encode.clauses", "encode.variables", "search.cache_entries",
    "search.cache_hits", "search.decisions", "search.seconds",
}
RECORDED = {
    "val": (
        COMMON_MS | {"circuit.condition_ms"},
        COMMON_SUMS | {
            "approx.samples", "approx.seconds", "sweep.rows", "sweep.seconds",
        },
    ),
    "comp": (COMMON_MS, COMMON_SUMS),
}


@pytest.fixture
def layers(monkeypatch):
    """``perfbench/layers.py``, with ``perfbench/`` importable as in a
    perfbench run; the path, the modules it imports by their bare names
    and the alarm handler its limit installs are put back afterwards."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    fresh = [name for name in ("session", "workloads") if name not in sys.modules]
    handler = signal.getsignal(signal.SIGALRM)
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    signal.signal(signal.SIGALRM, handler)
    for name in fresh:
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "problem, instance",
    [
        ("val", scaling_hard_val_instance(8, seed=1)),
        ("comp", scaling_hard_comp_instance(6, seed=1)),
    ],
    ids=["val", "comp"],
)
def test_deep_calls_all_run(layers, problem, instance):
    deep = layers.Deep()
    layers.deep_calls(problem, *instance, deep, random.Random(1))
    assert deep.skipped == 0
    assert (set(deep.ms), set(deep.sums)) == RECORDED[problem]
    assert len(deep.widths) == 1
