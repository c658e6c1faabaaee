"""The paper's core objects: Boolean queries, patterns, and the dichotomies.

* :mod:`repro.core.query` — atoms, Boolean conjunctive queries (BCQs),
  self-join-free BCQs, unions of BCQs, negations, and arbitrary Boolean
  queries with user-supplied model checkers (for Section 6).
* :mod:`repro.core.patterns` — the *pattern* preorder of Definition 3.1
  (the general search, used by the Lemma 3.3/4.1 reductions) and
  closed-form detectors for the six patterns of Table 1.
* :mod:`repro.core.problems` — the eight problem variants
  (``#Val``/``#Comp`` x naive/Codd x uniform/non-uniform).
* :mod:`repro.core.classify` — Table 1 kept once, one rule row per
  variant, with the approximability (Section 5) and beyond-#P (Section 6)
  results.  ``classify(q)`` reports every cell; ``tractable(q, variant)``
  decides one cell from that row's detectors, which is how the closed
  forms of :mod:`repro.exact` (and so the planner) know where they apply.
"""

from repro.core.query import (
    Atom,
    BCQ,
    BooleanQuery,
    Const,
    CustomQuery,
    Negation,
    UCQ,
    Var,
)
from repro.core.patterns import (
    PATTERN_BINARY,
    PATTERN_DOUBLE_EDGE,
    PATTERN_PATH,
    PATTERN_REPEAT,
    PATTERN_SHARED,
    PATTERN_UNARY,
    find_table1_patterns,
    is_pattern_of,
)
from repro.core.problems import (
    ALL_VARIANTS,
    Mode,
    ProblemVariant,
)
from repro.core.classify import (
    Approximability,
    ClassificationEntry,
    DichotomyReport,
    Tractability,
    classify,
)

__all__ = [
    "Atom",
    "BCQ",
    "BooleanQuery",
    "Const",
    "CustomQuery",
    "Negation",
    "UCQ",
    "Var",
    "PATTERN_BINARY",
    "PATTERN_DOUBLE_EDGE",
    "PATTERN_PATH",
    "PATTERN_REPEAT",
    "PATTERN_SHARED",
    "PATTERN_UNARY",
    "find_table1_patterns",
    "is_pattern_of",
    "ALL_VARIANTS",
    "Mode",
    "ProblemVariant",
    "Approximability",
    "ClassificationEntry",
    "DichotomyReport",
    "Tractability",
    "classify",
]
