"""Count-preserving formula preprocessing for the exact counter.

One pass, run once before the search on the root :class:`ClauseStore`
(:mod:`repro.compile.trail`).  Root unit propagation always runs; every
other stage runs in projected mode only, and each preserves the
projected model count:

* **pure-literal elimination** — *non-projection variables only.*  Fixing
  a pure literal is the textbook SAT rule but is **unsound for model
  counting** (it discards the models on the other polarity), so the
  full-count path never uses it.  In projected mode a non-projection
  variable only matters through extendability, and flipping a pure
  variable to its pure polarity can only keep clauses satisfied — every
  projected assignment stays extendable, so the projected count is
  unchanged.
* **failed-literal / backbone probing** — both polarities of each
  candidate variable are propagated on the trail and undone.  A polarity
  that conflicts makes its negation a backbone literal (true in every
  model): it is asserted permanently.  A literal forced by *both* probes
  is likewise a backbone (every model sets the probe variable one way or
  the other).  When the search records a d-DNNF trace the forced literals
  surface in the root decision node exactly like root unit propagations.
  Projected encodings (the completion side) define auxiliary variables
  in terms of others, which is exactly the structure probing monetizes;
  the full-count complement encoding mentions choice variables only, its
  probes provably derive nothing permanent (every consequence is a
  pairwise at-most-one), so full-count mode does not probe.
* **equivalent-literal substitution** — a probe pair forcing ``w`` under
  ``v`` and ``-w`` under ``-v`` proves ``w ≡ v`` in every model.
  Substituting ``w`` away determines it pointwise, so it preserves
  projected counts when ``w`` is outside the projection.  Projection
  variables are never substituted: a recorded circuit must mention them,
  and a substituted variable would vanish from the trace and break
  weighted evaluation, marginals and smoothness.  Equivalence classes are
  canonicalized through a sign-tracking union-find; substituted variables
  are reported as *determined* so the counter excludes them from
  free-variable factors.

The module mutates the store's root trail (permanent assignments) and, if
substitutions fired, returns a rewritten clause list for the counter to
rebuild its store from.  :data:`PROBE_VARIABLE_LIMIT` bounds the probing
pass — each probe costs two propagations, which is only worth paying on
formulas small enough for the search to dominate anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compile.trail import ClauseStore

#: Probing runs only when at most this many constrained variables remain
#: unassigned after unit propagation (2 propagations per probe).
PROBE_VARIABLE_LIMIT = 400


@dataclass
class PreprocessResult:
    """What one preprocessing pass did to the formula."""

    conflict: bool = False
    #: Literals preprocessing asserted permanently (beyond the input's own
    #: unit clauses): backbones from failed probes and common-forced pairs.
    forced: tuple[int, ...] = ()
    #: Pure literals fixed (projected mode, non-projection variables).
    pure_fixed: tuple[int, ...] = ()
    #: Variables substituted away (``var -> defining literal``).
    substitutions: dict[int, int] = field(default_factory=dict)
    #: Rewritten clause list after substitution; ``None`` = store is live.
    rewritten: list[tuple[int, ...]] | None = None
    probes: int = 0
    failed_literals: int = 0
    equivalences: int = 0

    @property
    def determined_mask(self) -> int:
        """Bitset of substituted variables (excluded from free factors)."""
        mask = 0
        for variable in self.substitutions:
            mask |= 1 << variable
        return mask


class _SignedUnionFind:
    """Union-find with edge signs: tracks ``u ≡ sign · root``."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._sign: dict[int, int] = {}

    def find(self, variable: int) -> tuple[int, int]:
        parent = self._parent
        sign = self._sign
        if variable not in parent:
            parent[variable] = variable
            sign[variable] = 1
            return variable, 1
        path = []
        node = variable
        while parent[node] != node:
            path.append(node)
            node = parent[node]
        root = node
        # Compress root-ward: each hop's stored sign is relative to its old
        # parent, so the cumulative product walking in from the root is the
        # node's sign relative to the root.
        cumulative = 1
        for node in reversed(path):
            cumulative = sign[node] * cumulative
            parent[node] = root
            sign[node] = cumulative
        return root, cumulative if path else 1

    def union(self, u: int, v: int, sign: int) -> bool:
        """Record ``u ≡ sign · v``; False if it contradicts known state."""
        root_u, sign_u = self.find(u)
        root_v, sign_v = self.find(v)
        if root_u == root_v:
            return sign_u == sign * sign_v
        self._parent[root_u] = root_v
        self._sign[root_u] = sign_u * sign * sign_v
        return True

    def classes(self) -> dict[int, list[tuple[int, int]]]:
        """``root -> [(member, sign of member relative to root)]``."""
        grouped: dict[int, list[tuple[int, int]]] = {}
        for variable in list(self._parent):
            root, sign = self.find(variable)
            grouped.setdefault(root, []).append((variable, sign))
        return grouped


def preprocess_store(
    store: ClauseStore,
    projection: frozenset[int] | None = None,
) -> PreprocessResult:
    """Run the preprocessing pass on ``store`` (mutating its trail).

    The caller is expected to have already propagated the input's unit
    clauses; this function tolerates either way (propagation is
    idempotent).  On ``conflict=True`` the formula has no models and the
    store's state is meaningless to the search.  Without a
    ``projection`` (full-count mode) only that propagation runs.
    """
    result = PreprocessResult()
    if store.has_empty:
        result.conflict = True
        return result
    if not store.propagate(store.units):
        result.conflict = True
        return result
    if projection is None:
        return result

    if not _fix_pure_literals(store, projection, result):
        result.conflict = True
        return result
    if _probe_candidates(store) <= PROBE_VARIABLE_LIMIT:
        equivalences = _SignedUnionFind()
        if not _probe(store, result, equivalences):
            result.conflict = True
            return result
        if not _derive_substitutions(store, projection, equivalences, result):
            result.conflict = True
            return result
        if result.substitutions:
            result.rewritten = _rewrite(store, result.substitutions)
    return result


def _probe_candidates(store: ClauseStore) -> int:
    """Unassigned variables with at least one occurrence (probe targets)."""
    value = store.value
    occ_pos, occ_neg = store.occ_pos, store.occ_neg
    return sum(
        1
        for v in range(1, store.num_variables + 1)
        if not value[v] and (occ_pos[v] or occ_neg[v])
    )


def _fix_pure_literals(
    store: ClauseStore, projection: frozenset[int], result: PreprocessResult
) -> bool:
    """Fix pure non-projection literals to fixpoint.  False on conflict."""
    value = store.value
    sat = store.sat
    fixed: list[int] = list(result.pure_fixed)
    changed = True
    while changed:
        changed = False
        for variable in range(1, store.num_variables + 1):
            if value[variable] or variable in projection:
                continue
            positive = any(not sat[ci] for ci in store.occ_pos[variable])
            negative = any(not sat[ci] for ci in store.occ_neg[variable])
            if positive == negative:  # both polarities live, or neither
                continue
            literal = variable if positive else -variable
            if not store.propagate((literal,)):
                return False
            fixed.append(literal)
            changed = True
    result.pure_fixed = tuple(fixed)
    return True


def _probe(
    store: ClauseStore,
    result: PreprocessResult,
    equivalences: _SignedUnionFind,
) -> bool:
    """Failed-literal probing over every live variable.  False = conflict."""
    value = store.value
    sat = store.sat
    forced: list[int] = []
    for variable in range(1, store.num_variables + 1):
        if value[variable]:
            continue
        if not any(
            not sat[ci] for ci in store.occ_pos[variable]
        ) and not any(not sat[ci] for ci in store.occ_neg[variable]):
            continue
        mark = store.mark()
        ok_true = store.propagate((variable,))
        forced_true = (
            frozenset(store.trail[mark + 1:]) if ok_true else None
        )
        store.backtrack(mark)
        ok_false = store.propagate((-variable,))
        forced_false = (
            frozenset(store.trail[mark + 1:]) if ok_false else None
        )
        store.backtrack(mark)
        result.probes += 1
        if not ok_true and not ok_false:
            return False
        if not ok_true or not ok_false:
            backbone = -variable if not ok_true else variable
            if not store.propagate((backbone,)):
                return False
            forced.append(backbone)
            result.failed_literals += 1
            continue
        assert forced_true is not None and forced_false is not None
        for literal in sorted(forced_true & forced_false, key=abs):
            if not value[abs(literal)]:
                if not store.propagate((literal,)):
                    return False
                forced.append(literal)
        for literal in sorted(forced_true, key=abs):
            if -literal in forced_false:
                # literal ⟺ variable:  var(literal) ≡ ±variable
                equivalences.union(
                    abs(literal), variable, 1 if literal > 0 else -1
                )
                result.equivalences += 1
    result.forced = tuple(forced)
    return True


def _derive_substitutions(
    store: ClauseStore,
    projection: frozenset[int],
    equivalences: _SignedUnionFind,
    result: PreprocessResult,
) -> bool:
    """Turn equivalence classes into a substitution map, where allowed.

    A variable may be substituted away only when no downstream consumer
    needs it by name, that is, when it is outside the projection.
    Returns ``False`` when asserting a forced equivalent hits a conflict
    (only possible on an unsatisfiable formula).
    """
    value = store.value
    substitutions: dict[int, int] = {}
    for _root, members in sorted(equivalences.classes().items()):
        if len(members) < 2:
            continue
        members.sort()
        # The representative must survive: prefer a member substitution
        # may not touch, else the smallest variable of the class.
        keep = [m for m in members if m[0] in projection or value[m[0]]]
        representative, rep_sign = keep[0] if keep else members[0]
        for variable, sign in members:
            if variable == representative:
                continue
            relative = sign * rep_sign  # variable ≡ relative · representative
            if value[variable] or value[representative]:
                # One side got forced after the equivalence was found:
                # propagate the other side instead of substituting.
                if value[representative]:
                    literal = relative * value[representative] * variable
                else:
                    literal = relative * value[variable] * representative
                if not value[abs(literal)] and not store.propagate((literal,)):
                    return False
                continue
            if variable in projection:
                continue
            substitutions[variable] = relative * representative
    result.substitutions = substitutions
    return True


def _rewrite(
    store: ClauseStore, substitutions: dict[int, int]
) -> list[tuple[int, ...]]:
    """The live residual clauses with ``substitutions`` applied.

    Satisfied clauses are dropped, false literals removed, substituted
    literals renamed; duplicate literals collapse and tautologies vanish.
    The result is what the counter rebuilds its store from.
    """
    value = store.value
    rewritten: list[tuple[int, ...]] = []
    for index, clause in enumerate(store.clauses):
        if store.sat[index]:
            continue
        literals: list[int] = []
        tautology = False
        for literal in clause:
            variable = literal if literal > 0 else -literal
            if value[variable]:
                continue  # a false literal (true would satisfy the clause)
            definition = substitutions.get(variable)
            renamed = (
                literal
                if definition is None
                else (definition if literal > 0 else -definition)
            )
            if -renamed in literals:
                tautology = True
                break
            if renamed not in literals:
                literals.append(renamed)
        if tautology:
            continue
        literals.sort(key=abs)
        rewritten.append(tuple(literals))
    return rewritten
