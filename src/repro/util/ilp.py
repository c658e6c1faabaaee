"""Small-scale integer feasibility solving.

The tractable algorithm for counting completions in the uniform setting
(Theorem 4.6 / Appendix B.6) decides, for each candidate "shape" of a
completion, whether some valuation realizes it.  Lemma B.19 expresses this as
a bounded integer program over a fixed number of variables.  We provide:

* a pure-Python branch-and-prune solver (always available, exact), and
* an optional scipy ``milp`` backend used automatically when the problem is
  large enough for the C solver to pay off.

Both are exact; tests cross-validate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

Sense = Literal["<=", ">=", "=="]


@dataclass(frozen=True)
class LinearConstraint:
    """``sum_i coeffs[i] * x[i]  (sense)  rhs`` over integer variables."""

    coeffs: tuple[int, ...]
    sense: Sense
    rhs: int

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError("unknown sense %r" % (self.sense,))


@dataclass
class IntegerFeasibilityProblem:
    """A bounded integer feasibility problem.

    ``bounds[i] = (low, high)`` gives inclusive bounds for variable ``i``.
    """

    bounds: list[tuple[int, int]] = field(default_factory=list)
    constraints: list[LinearConstraint] = field(default_factory=list)

    def add_variable(self, low: int, high: int) -> int:
        """Register a variable with inclusive bounds; return its index."""
        if low > high:
            raise ValueError("variable with empty range [%d, %d]" % (low, high))
        self.bounds.append((low, high))
        return len(self.bounds) - 1

    def add_constraint(
        self, coeffs: Sequence[int], sense: Sense, rhs: int
    ) -> None:
        """Add ``coeffs . x  (sense)  rhs``; coeffs is dense over variables."""
        if len(coeffs) != len(self.bounds):
            raise ValueError("constraint arity does not match variable count")
        self.constraints.append(LinearConstraint(tuple(coeffs), sense, rhs))

    @property
    def num_variables(self) -> int:
        return len(self.bounds)


def _term_range(coeff: int, low: int, high: int) -> tuple[int, int]:
    """Min and max of ``coeff * x`` for ``x`` in ``[low, high]``."""
    a, b = coeff * low, coeff * high
    return (a, b) if a <= b else (b, a)


def _feasible_backtracking(problem: IntegerFeasibilityProblem) -> bool:
    """Exact DFS with per-constraint residual-range pruning."""
    n = problem.num_variables
    constraints = problem.constraints
    bounds = problem.bounds

    # Pre-compute, for each constraint, suffix min/max contributions of
    # variables >= position, so partial assignments prune early.
    suffix_min: list[list[int]] = []
    suffix_max: list[list[int]] = []
    for constraint in constraints:
        mins = [0] * (n + 1)
        maxs = [0] * (n + 1)
        for position in range(n - 1, -1, -1):
            lo, hi = _term_range(
                constraint.coeffs[position], *bounds[position]
            )
            mins[position] = mins[position + 1] + lo
            maxs[position] = maxs[position + 1] + hi
        suffix_min.append(mins)
        suffix_max.append(maxs)

    def consistent(position: int, partial_sums: list[int]) -> bool:
        for index, constraint in enumerate(constraints):
            lo = partial_sums[index] + suffix_min[index][position]
            hi = partial_sums[index] + suffix_max[index][position]
            if constraint.sense == "<=" and lo > constraint.rhs:
                return False
            if constraint.sense == ">=" and hi < constraint.rhs:
                return False
            if constraint.sense == "==" and not (lo <= constraint.rhs <= hi):
                return False
        return True

    def search(position: int, partial_sums: list[int]) -> bool:
        if not consistent(position, partial_sums):
            return False
        if position == n:
            return True
        low, high = bounds[position]
        for value in range(low, high + 1):
            next_sums = [
                partial_sums[i] + constraints[i].coeffs[position] * value
                for i in range(len(constraints))
            ]
            if search(position + 1, next_sums):
                return True
        return False

    return search(0, [0] * len(constraints))


def _feasible_scipy(problem: IntegerFeasibilityProblem) -> bool | None:
    """scipy MILP backend; returns ``None`` when scipy is unavailable."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint as SciCon, milp
    except ImportError:  # scipy is optional; "auto" falls back to Python
        return None

    n = problem.num_variables
    if n == 0:
        return all(
            _constant_holds(constraint) for constraint in problem.constraints
        )
    lower = np.array([low for low, _ in problem.bounds], dtype=float)
    upper = np.array([high for _, high in problem.bounds], dtype=float)
    scipy_constraints = []
    for constraint in problem.constraints:
        row = np.array(constraint.coeffs, dtype=float).reshape(1, -1)
        if constraint.sense == "<=":
            scipy_constraints.append(SciCon(row, -np.inf, constraint.rhs))
        elif constraint.sense == ">=":
            scipy_constraints.append(SciCon(row, constraint.rhs, np.inf))
        else:
            scipy_constraints.append(SciCon(row, constraint.rhs, constraint.rhs))
    result = milp(
        c=np.zeros(n),
        constraints=scipy_constraints,
        bounds=Bounds(lower, upper),
        integrality=np.ones(n),
    )
    return bool(result.success)


def _constant_holds(constraint: LinearConstraint) -> bool:
    if constraint.sense == "<=":
        return 0 <= constraint.rhs
    if constraint.sense == ">=":
        return 0 >= constraint.rhs
    return constraint.rhs == 0


# Below this many variables the Python DFS beats scipy's setup overhead.
_SCIPY_THRESHOLD = 9


def is_feasible(
    problem: IntegerFeasibilityProblem, backend: str = "auto"
) -> bool:
    """Decide feasibility of a bounded integer program.

    ``backend`` is one of ``"auto"``, ``"python"``, ``"scipy"``.
    """
    if backend not in ("auto", "python", "scipy"):
        raise ValueError("unknown backend %r" % (backend,))
    if problem.num_variables == 0:
        return all(
            _constant_holds(constraint) for constraint in problem.constraints
        )
    if backend == "python":
        return _feasible_backtracking(problem)
    if backend == "scipy":
        result = _feasible_scipy(problem)
        if result is None:
            raise RuntimeError("scipy backend requested but not installed")
        return result
    if problem.num_variables >= _SCIPY_THRESHOLD:
        result = _feasible_scipy(problem)
        if result is not None:
            return result
    return _feasible_backtracking(problem)
