"""repro: a reproduction of "Counting Problems over Incomplete Databases".

Arenas, Barcelo, Monet — PODS 2020 (arXiv:1912.11064).

Public API highlights::

    from repro import (
        Atom, BCQ, Fact, IncompleteDatabase, Null,
        classify, solve, count_valuations, count_completions,
    )

:func:`solve` is the unified front door — one call for every planner
problem (``val``, ``comp``, ``val-weighted``, ``marginals``, ``sweep``)
returning a structured :class:`Answer`; the per-problem functions remain
as thin wrappers.  ``repro.exact.planner.plan`` shows the explainable
decision without solving.
"""

from repro.core.query import Atom, BCQ, Const, Negation, UCQ, Var
from repro.core.classify import classify
from repro.db import Database, Fact, IncompleteDatabase, Null
from repro.exact import (
    Answer,
    NoPolynomialAlgorithm,
    Plan,
    count_completions,
    count_valuations,
    count_valuations_sweep,
    count_valuations_weighted,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "BCQ",
    "Const",
    "Negation",
    "UCQ",
    "Var",
    "classify",
    "Database",
    "Fact",
    "IncompleteDatabase",
    "Null",
    "Answer",
    "NoPolynomialAlgorithm",
    "Plan",
    "count_completions",
    "count_valuations",
    "count_valuations_sweep",
    "count_valuations_weighted",
    "solve",
    "__version__",
]
