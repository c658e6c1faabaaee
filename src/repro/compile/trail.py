"""The trail: a clause store with implicit binaries and in-place propagation.

:class:`ClauseStore` is the mutable heart of the trail-based model counter
(:mod:`repro.compile.sharpsat`).  Where the retained reference counter
(:mod:`repro.compile.sharpsat_reference`) rebuilds the whole residual
formula as fresh clause tuples on every decision, the store keeps **one**
copy of every clause, in two kinds:

* a **binary** clause — two literals over two distinct variables — is
  implicit: it is two entries in per-literal implication lists
  (``a ∨ b`` puts ``b`` under ``¬a`` and ``a`` under ``¬b``) and has no
  live state at all.  Assigning a literal queues what it implies;
* every other clause is **long** and keeps two integers of live state:
  ``sat[ci]``, how many of its literals are true (``0`` means live), and
  ``free[ci]``, how many are unassigned.  Assigning a literal walks only
  the long clauses its variable occurs in (the occurrence index, built
  once), bumping those counters in place: a clause turns **unit** when
  ``sat == 0 and free == 1`` (the survivor is queued) and **conflicting**
  at ``sat == 0 and free == 0``.

A queued literal that contradicts the assignment is a conflict.  All
assignments land on a single :attr:`trail`; :meth:`backtrack` pops it and
replays the long clauses' counter updates in reverse, so undoing a
decision costs what making it cost, and a binary clause costs nothing.
After propagation reaches a fixpoint without conflict, a binary clause is
either satisfied or has both variables unassigned, which the counter's
component split relies on.

The store knows nothing about counting, components, caching or traces —
those live in the counter.  It exposes the pieces they need: the two
clause kinds (:attr:`binary`, :attr:`long`), the trail mark / backtrack
pair, and :meth:`snapshot` for the invariant tests (a propagate/backtrack
round trip must restore the snapshot bit for bit).
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ClauseStore:
    """One formula, implication- and occurrence-indexed, with trail state."""

    __slots__ = (
        "num_variables", "clauses", "binary", "long", "occ_pos", "occ_neg",
        "implied_pos", "implied_neg", "free", "sat", "value", "trail",
        "has_empty", "units", "propagations", "conflicts", "max_trail_depth",
    )

    def __init__(
        self, num_variables: int, clauses: Iterable[Sequence[int]]
    ) -> None:
        self.num_variables = num_variables
        #: Clause literal tuples, canonically sorted by variable.
        self.clauses: list[tuple[int, ...]] = [
            tuple(clause) for clause in clauses
        ]
        size = num_variables + 1
        #: Indices of the binary / long clauses, ascending.
        self.binary: list[int] = []
        self.long: list[int] = []
        #: ``occ_pos[v]`` / ``occ_neg[v]`` — indices of long clauses
        #: containing the literal ``v`` / ``-v``.  Built once.
        self.occ_pos: list[list[int]] = [[] for _ in range(size)]
        self.occ_neg: list[list[int]] = [[] for _ in range(size)]
        #: ``implied_pos[v]`` / ``implied_neg[v]`` — literals the binary
        #: clauses force once ``v`` is true / false.  Built once.
        self.implied_pos: list[list[int]] = [[] for _ in range(size)]
        self.implied_neg: list[list[int]] = [[] for _ in range(size)]
        #: Long-clause counters (a binary clause's entries stay 0 / 2).
        self.free: list[int] = []
        self.sat: list[int] = []
        #: ``value[v]``: 0 unassigned, 1 true, -1 false.
        self.value: list[int] = [0] * size
        #: Assigned literals in assignment order.
        self.trail: list[int] = []
        self.has_empty = False
        #: Literals of the input's unit clauses (root propagation seeds).
        self.units: list[int] = []
        #: Lifetime search statistics, maintained at propagate-call
        #: boundaries only (plain int adds; never touched per literal).
        self.propagations = 0
        self.conflicts = 0
        self.max_trail_depth = 0
        for index, clause in enumerate(self.clauses):
            self.free.append(len(clause))
            self.sat.append(0)
            if len(clause) == 2 and clause[0] != clause[1] != -clause[0]:
                self.binary.append(index)
                for literal, other in (clause, clause[::-1]):
                    # ¬literal forces other.
                    if literal > 0:
                        self.implied_neg[literal].append(other)
                    else:
                        self.implied_pos[-literal].append(other)
                continue
            self.long.append(index)
            for literal in clause:
                if literal > 0:
                    self.occ_pos[literal].append(index)
                else:
                    self.occ_neg[-literal].append(index)
            if not clause:
                self.has_empty = True
            elif len(clause) == 1:
                self.units.append(clause[0])

    # -- trail -------------------------------------------------------------

    def mark(self) -> int:
        """The current trail height; pass to :meth:`backtrack` to undo."""
        return len(self.trail)

    def propagate(self, literals: Iterable[int]) -> bool:
        """Assign ``literals`` and run unit propagation to fixpoint.

        Returns ``False`` on conflict (a long clause ran out of literals,
        or a queued literal contradicts the current assignment).  Either
        way every counter update is matched by the trail, so the caller
        unwinds with ``backtrack(mark)`` — there is no torn state.
        """
        value = self.value
        free = self.free
        sat = self.sat
        occ_pos = self.occ_pos
        occ_neg = self.occ_neg
        implied_pos = self.implied_pos
        implied_neg = self.implied_neg
        clauses = self.clauses
        trail = self.trail
        queue = list(literals)
        conflict = False
        height = len(trail)
        for literal in queue:  # the queue grows while it is read
            variable = literal if literal > 0 else -literal
            current = value[variable]
            if current:
                if (current > 0) != (literal > 0):
                    self.propagations += len(trail) - height
                    self.conflicts += 1
                    return False
                continue
            trail.append(literal)
            if literal > 0:
                value[variable] = 1
                queue += implied_pos[variable]
                satisfied, touched = occ_pos[variable], occ_neg[variable]
            else:
                value[variable] = -1
                queue += implied_neg[variable]
                satisfied, touched = occ_neg[variable], occ_pos[variable]
            for ci in satisfied:
                sat[ci] += 1
                free[ci] -= 1
            # The decrements below must run even after a conflict is found
            # mid-loop: backtrack replays them symmetrically, so the
            # counters may never be left half-updated.  Only the *checks*
            # stop once the branch is dead.
            for ci in touched:
                remaining = free[ci] - 1
                free[ci] = remaining
                if not conflict and not sat[ci]:
                    if remaining == 0:
                        conflict = True
                    elif remaining == 1:
                        for unit in clauses[ci]:
                            unit_var = unit if unit > 0 else -unit
                            if not value[unit_var]:
                                queue.append(unit)
                                break
            if conflict:
                self.propagations += len(trail) - height
                self.conflicts += 1
                return False
        depth = len(trail)
        self.propagations += depth - height
        if depth > self.max_trail_depth:
            self.max_trail_depth = depth
        return True

    def backtrack(self, mark: int) -> None:
        """Pop the trail back to ``mark``, reversing every counter update."""
        value = self.value
        free = self.free
        sat = self.sat
        occ_pos = self.occ_pos
        occ_neg = self.occ_neg
        trail = self.trail
        while len(trail) > mark:
            literal = trail.pop()
            variable = literal if literal > 0 else -literal
            value[variable] = 0
            if literal > 0:
                satisfied, touched = occ_pos[variable], occ_neg[variable]
            else:
                satisfied, touched = occ_neg[variable], occ_pos[variable]
            for ci in satisfied:
                sat[ci] -= 1
                free[ci] += 1
            for ci in touched:
                free[ci] += 1

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> tuple:
        """Full live-state fingerprint, for trail round-trip tests."""
        return (
            tuple(self.free),
            tuple(self.sat),
            tuple(self.value),
            tuple(self.trail),
        )

    def __repr__(self) -> str:
        return "ClauseStore(n=%d, clauses=%d, trail=%d)" % (
            self.num_variables, len(self.clauses), len(self.trail),
        )
