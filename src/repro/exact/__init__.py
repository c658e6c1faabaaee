"""Exact counting of valuations and completions.

* :mod:`repro.exact.brute` — exhaustive enumeration (exponential ground
  truth used to validate everything else and to realize the hard sides of
  the dichotomies).
* :mod:`repro.exact.val_nonuniform` — Theorem 3.6 tractable case.
* :mod:`repro.exact.val_codd` — Theorem 3.7 tractable case.
* :mod:`repro.exact.val_uniform` — Theorem 3.9 / Prop. A.14 tractable case.
* :mod:`repro.exact.comp_uniform` — Theorem 4.6 / Appendix B.6 tractable
  case (unary schemas, uniform domain), with the warm-up closed forms.
* :mod:`repro.exact.completion_check` — Lemma B.2 certificate check for
  Codd tables (bipartite matching).
* :mod:`repro.exact.planner` — the method registry: every algorithm
  once, with its applicability and one runner per problem kind, in
  preference order; :func:`~repro.exact.planner.plan` picks one per
  question.
* :mod:`repro.exact.dispatch` — :func:`solve`, the one front door (plan
  once, run the chosen method), and the ``count_*`` wrappers over it.
"""

from repro.exact.brute import (
    BruteForceBudgetExceeded,
    count_completions_brute,
    count_valuations_brute,
)
from repro.exact.val_nonuniform import count_valuations_single_occurrence
from repro.exact.val_codd import count_valuations_codd
from repro.exact.val_uniform import count_valuations_uniform
from repro.exact.comp_uniform import (
    count_completions_single_unary,
    count_completions_uniform_unary,
)
from repro.exact.completion_check import is_completion_of_codd
from repro.exact.dispatch import (
    Answer,
    NoPolynomialAlgorithm,
    Plan,
    count_completions,
    count_valuations,
    count_valuations_sweep,
    count_valuations_weighted,
    solve,
)

__all__ = [
    "BruteForceBudgetExceeded",
    "count_completions_brute",
    "count_valuations_brute",
    "count_valuations_single_occurrence",
    "count_valuations_codd",
    "count_valuations_uniform",
    "count_completions_single_unary",
    "count_completions_uniform_unary",
    "is_completion_of_codd",
    "Answer",
    "NoPolynomialAlgorithm",
    "Plan",
    "count_completions",
    "count_valuations",
    "count_valuations_sweep",
    "count_valuations_weighted",
    "solve",
]
