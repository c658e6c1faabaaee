"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one table/figure of the paper (the
per-result index is :mod:`repro.paperindex`, printed by ``repro-count
cite``).  Benchmarks print the paper-style rows they reproduce — run with
``pytest benchmarks/bench_*.py --benchmark-only -s`` to see them — and
assert the count identities, so a bench run doubles as an integration
check (CI runs them with ``--benchmark-disable``).
"""

from __future__ import annotations

import pytest


def paper_row(label: str, **fields) -> str:
    """Uniformly formatted 'paper row' line for benchmark output."""
    body = "  ".join("%s=%s" % (key, value) for key, value in fields.items())
    return "[paper] %-42s %s" % (label, body)


@pytest.fixture
def emit(capsys):
    """Print a paper row so it survives pytest's capture with -s."""

    def _emit(label: str, **fields):
        with capsys.disabled():
            print(paper_row(label, **fields))

    return _emit
