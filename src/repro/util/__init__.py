"""Shared numeric utilities: combinatorics, rational linear algebra, and
the explicit random generators of :mod:`repro.util.rng`.

The arithmetic here is exact (integer / rational): the counting problems
reproduced from the paper demand exact results, so no floating point is
used outside of the approximation subpackage.
"""

from repro.util.combinatorics import (
    binomial,
    bounded_compositions,
    compositions,
    falling_factorial,
    multinomial,
    stirling2,
    surjections,
)
from repro.util.linear import invert_rational_matrix, solve_rational_system

__all__ = [
    "binomial",
    "bounded_compositions",
    "compositions",
    "falling_factorial",
    "multinomial",
    "stirling2",
    "surjections",
    "invert_rational_matrix",
    "solve_rational_system",
]
