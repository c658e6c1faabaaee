"""Shared numeric and data-structure utilities.

Everything in this package is exact (integer / rational) arithmetic: the
counting problems reproduced from the paper demand exact results, so no
floating point is used outside of the approximation subpackage.
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
from repro.util.unionfind import UnionFind

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
    "UnionFind",
]
