"""The pattern preorder on sjfBCQs (Definition 3.1) and Table-1 detectors.

``q'`` is a *pattern* of ``q`` when ``q'`` can be produced from ``q`` by
repeatedly: deleting an atom, deleting a variable occurrence (never the last
one of an atom), renaming a relation to a fresh one, renaming a variable to a
fresh one, and reordering the variables inside an atom.

Two key observations make the relation decidable by simple search:

* relation names are irrelevant (they can always be renamed), so only the
  *multiset structure* of atoms matters;
* the operations never merge two variables and never split the occurrences
  of one variable under two names, so a derivation induces an injection from
  the variables of ``q'`` into the variables of ``q`` and an injection from
  the atoms of ``q'`` into the atoms of ``q``.

Hence ``q'`` is a pattern of ``q`` iff there are injections ``f`` (atoms)
and ``g`` (variables) such that for every atom ``A'`` of ``q'`` and variable
``v`` of ``A'``, the occurrence count of ``v`` in ``A'`` is at most the
occurrence count of ``g(v)`` in ``f(A')``.  This is what
:func:`is_pattern_of` decides (exactly; both queries are fixed and small).

The six concrete patterns of Table 1 also get direct detectors, which
:func:`find_table1_patterns` and the Table 1 rules of
:mod:`repro.core.classify` read; the test suite cross-validates them
against the general procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from repro.core.query import Atom, BCQ, Var

# -- The canonical patterns of Table 1 -------------------------------------

#: ``R(x)`` — relevant to #Comp in the non-uniform setting (Prop. 4.2);
#: a pattern of *every* sjfBCQ.
PATTERN_UNARY = BCQ([Atom("R", ["x"])])

#: ``R(x, x)`` — hard for #Val on naive tables (Prop. 3.4) and for #Comp in
#: the uniform setting (Prop. 4.5).
PATTERN_REPEAT = BCQ([Atom("R", ["x", "x"])])

#: ``R(x, y)`` — hard for #Comp in the uniform setting (Prop. 4.5).
PATTERN_BINARY = BCQ([Atom("R", ["x", "y"])])

#: ``R(x) ∧ S(x)`` — hard for #Val, even on Codd tables (Prop. 3.5).
PATTERN_SHARED = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])

#: ``R(x) ∧ S(x, y) ∧ T(y)`` — hard for #Valu, even on Codd tables
#: (Props. 3.8 and 3.11).
PATTERN_PATH = BCQ(
    [Atom("R", ["x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])]
)

#: ``R(x, y) ∧ S(x, y)`` — hard for #Valu on naive tables (Prop. 3.8).
PATTERN_DOUBLE_EDGE = BCQ(
    [Atom("R", ["x", "y"]), Atom("S", ["x", "y"])]
)


def _check_sjf_variable_only(query: BCQ, role: str) -> None:
    if not query.is_self_join_free or not query.is_variable_only:
        raise ValueError(
            "%s must be a variable-only self-join-free BCQ: %r"
            % (role, query)
        )


def is_pattern_of(pattern: BCQ, query: BCQ) -> bool:
    """Decide whether ``pattern`` is a pattern of ``query`` (Def. 3.1).

    Exact: whether :func:`find_pattern_embedding` finds a witness.  Both
    inputs must be variable-only sjfBCQs (the paper's setting).
    """
    return find_pattern_embedding(pattern, query) is not None


@dataclass(frozen=True)
class PatternEmbedding:
    """A witness that ``pattern`` is a pattern of ``query`` (Def. 3.1).

    * ``atom_map[k]`` — index of the query atom that pattern atom ``k``
      derives from;
    * ``variable_map`` — injective pattern-variable -> query-variable map;
    * ``position_maps[k]`` — injective map from the positions of pattern
      atom ``k`` to positions of its query atom, consistent with
      ``variable_map`` (the *kept* variable occurrences; all other query
      positions were "deleted" in the derivation).

    This is exactly the data the Lemma 3.3 / 4.1 database transformations
    need (see :mod:`repro.reductions.pattern`).
    """

    atom_map: tuple[int, ...]
    variable_map: dict[Var, Var]
    position_maps: tuple[dict[int, int], ...]


def find_pattern_embedding(
    pattern: BCQ, query: BCQ
) -> PatternEmbedding | None:
    """Return one pattern embedding, or ``None`` when not a pattern.

    Exact backtracking search for compatible atom/variable injections;
    a complete injection also records which query-atom positions carry
    each kept pattern occurrence.
    """
    _check_sjf_variable_only(pattern, "pattern")
    _check_sjf_variable_only(query, "query")

    pattern_atoms = list(pattern.atoms)
    query_atoms = list(query.atoms)
    if len(pattern_atoms) > len(query_atoms):
        return None

    def positions_of(atom: Atom, variable: Var) -> list[int]:
        return [i for i, term in enumerate(atom.terms) if term == variable]

    def extendable(
        index: int,
        variable_map: dict[Var, Var],
        used_variables: frozenset[Var],
        used_atoms: frozenset[int],
        atom_map: tuple[int, ...],
    ) -> PatternEmbedding | None:
        if index == len(pattern_atoms):
            position_maps = []
            for k, query_index in enumerate(atom_map):
                pattern_atom = pattern_atoms[k]
                query_atom = query_atoms[query_index]
                mapping: dict[int, int] = {}
                for variable in pattern_atom.variables():
                    source = positions_of(pattern_atom, variable)
                    target = positions_of(query_atom, variable_map[variable])
                    for src, dst in zip(source, target):
                        mapping[src] = dst
                position_maps.append(mapping)
            return PatternEmbedding(
                atom_map=atom_map,
                variable_map=dict(variable_map),
                position_maps=tuple(position_maps),
            )
        pattern_atom = pattern_atoms[index]
        pattern_vars = pattern_atom.variables()
        for query_position, query_atom in enumerate(query_atoms):
            if query_position in used_atoms:
                continue
            if query_atom.arity < pattern_atom.arity:
                continue
            # Pattern variables mapped by earlier atoms must already have
            # enough occurrences in this query atom.
            if not all(
                query_atom.occurrence_count(variable_map[v])
                >= pattern_atom.occurrence_count(v)
                for v in pattern_vars
                if v in variable_map
            ):
                continue
            unmapped = [v for v in pattern_vars if v not in variable_map]
            candidates = [
                v for v in query_atom.variables() if v not in used_variables
            ]
            if len(candidates) < len(unmapped):
                continue
            # permutations(..., 0) yields one empty assignment, so the
            # fully-mapped case is handled by the same loop.
            for assignment in permutations(candidates, len(unmapped)):
                if any(
                    query_atom.occurrence_count(target)
                    < pattern_atom.occurrence_count(variable)
                    for variable, target in zip(unmapped, assignment)
                ):
                    continue
                extended_map = dict(variable_map)
                extended_map.update(zip(unmapped, assignment))
                witness = extendable(
                    index + 1,
                    extended_map,
                    used_variables | set(assignment),
                    used_atoms | {query_position},
                    atom_map + (query_position,),
                )
                if witness is not None:
                    return witness
        return None

    return extendable(0, {}, frozenset(), frozenset(), ())


# -- Closed-form detectors for the six Table-1 patterns ---------------------


def has_atom(query: BCQ) -> bool:
    """``R(x)`` is a pattern of every sjfBCQ: it has an atom, and atoms
    have arity at least 1."""
    return bool(query.atoms)


def has_repeated_variable_atom(query: BCQ) -> bool:
    """``R(x,x)`` is a pattern of ``q`` iff some atom repeats a variable."""
    return any(atom.has_repeated_variable() for atom in query.atoms)


def has_atom_with_two_variables(query: BCQ) -> bool:
    """``R(x,y)`` is a pattern iff some atom has two *distinct* variables."""
    return any(len(atom.variables()) >= 2 for atom in query.atoms)


def has_shared_variable(query: BCQ) -> bool:
    """``R(x) ∧ S(x)`` is a pattern iff two atoms share a variable."""
    atoms = query.atoms
    for i in range(len(atoms)):
        vars_i = set(atoms[i].variables())
        for j in range(i + 1, len(atoms)):
            if vars_i & set(atoms[j].variables()):
                return True
    return False


def has_path_pattern(query: BCQ) -> bool:
    """``R(x) ∧ S(x,y) ∧ T(y)`` is a pattern iff there are three distinct
    atoms ``A, B, C`` and distinct variables ``x != y`` with ``x`` in
    ``A ∩ B`` and ``y`` in ``B ∩ C``."""
    atoms = query.atoms
    n = len(atoms)
    if n < 3:
        return False
    variable_sets = [set(atom.variables()) for atom in atoms]
    for b in range(n):
        for a in range(n):
            if a == b:
                continue
            shared_ab = variable_sets[a] & variable_sets[b]
            if not shared_ab:
                continue
            for c in range(n):
                if c in (a, b):
                    continue
                shared_bc = variable_sets[b] & variable_sets[c]
                for x in shared_ab:
                    for y in shared_bc:
                        if x != y:
                            return True
    return False


def has_double_edge_pattern(query: BCQ) -> bool:
    """``R(x,y) ∧ S(x,y)`` is a pattern iff two atoms share two distinct
    variables."""
    atoms = query.atoms
    for i in range(len(atoms)):
        vars_i = set(atoms[i].variables())
        for j in range(i + 1, len(atoms)):
            if len(vars_i & set(atoms[j].variables())) >= 2:
                return True
    return False


#: The six Table-1 patterns by display name: the detector deciding each,
#: and what its presence means in plain words.
TABLE1_DETECTORS: dict[str, tuple[Callable[[BCQ], bool], str]] = {
    "R(x)": (has_atom, "the query has an atom"),
    "R(x,x)": (has_repeated_variable_atom, "an atom repeats a variable"),
    "R(x,y)": (has_atom_with_two_variables, "an atom has two variables"),
    "R(x)∧S(x)": (has_shared_variable, "two atoms share a variable"),
    "R(x)∧S(x,y)∧T(y)": (
        has_path_pattern,
        "an atom shares one variable with a second atom and another "
        "with a third",
    ),
    "R(x,y)∧S(x,y)": (has_double_edge_pattern, "two atoms share two variables"),
}


def find_table1_patterns(query: BCQ) -> dict[str, bool]:
    """Which of the six Table-1 patterns ``q`` contains, by display name,
    as the detectors decide it (the tests check each against
    :func:`is_pattern_of`)."""
    return {
        name: detect(query) for name, (detect, _words) in TABLE1_DETECTORS.items()
    }
