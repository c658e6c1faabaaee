"""Embeddings of a BCQ's atoms into a table's facts: the one search.

An *embedding* maps each atom of a BCQ onto a fact of the same relation so
that constants and repeated variables agree.  On a complete database it is
a homomorphism (Section 2), so ``D |= q`` is the existence of one.  On a
naive table a query term may land on a null, which constrains the null's
value: the embeddings are then the matches of the lineage
(:mod:`repro.compile.lineage`) and the events of the Karp–Luby estimator
(:mod:`repro.approx.events`).  All of them read :func:`embeddings`, one
backtracking search over the atoms in the order the caller passes.

Besides the variable binding (a variable maps to a constant or a null), the
search keeps the nulls' equality classes: the nulls the embedding forces
equal, each class with the values it still allows (its members' domains
intersected, narrowed by any constant it meets).  It prunes as soon as a
constant clashes or a class runs out of values.  A fact without nulls, met
while no class is open, takes the plain homomorphism step, so a complete
database pays no null bookkeeping.

Candidate facts are pre-indexed by ``(relation, position, value)``: when an
atom position holds a constant or a variable bound to a constant, the
search only scans the posting list of that value instead of the whole
relation.  A position where some fact of the relation holds a null is not
indexed, so postings are sub-lists of the relation in its order and
embeddings come in the lexicographic order of their fact tuples.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.query import Atom, BCQ, Const, Var
from repro.db.database import Database
from repro.db.fact import Fact
from repro.db.terms import Null, Term

_NO_FACTS: tuple = ()

#: A class of nulls the embedding forces equal, with its allowed values.
NullClass = tuple[frozenset[Null], frozenset[Term]]

#: Called on each embedding with the binding, each met null's class and
#: the facts the atoms landed on (in atom order; a list the search reuses).
#: Returning ``True`` stops the search.
Visit = Callable[[dict[Var, Term], dict[Null, NullClass], list[Fact]], "bool | None"]


class FactIndex:
    """A table's facts by relation, with postings by position value.

    A relation's facts are ``(fact, terms, ground)`` entries in the order
    given; a relation is assumed to have one arity, as both table classes
    check.
    """

    __slots__ = ("by_relation", "by_value", "indexed")

    def __init__(self, facts: Iterable[Fact]) -> None:
        by_relation: dict[str, list[tuple[Fact, tuple, bool]]] = {}
        by_value: dict[tuple[str, int, Term], list] = {}
        open_positions: set[tuple[str, int]] = set()
        for fact in facts:
            relation, terms = fact.relation, fact.terms
            ground = Null not in map(type, terms)
            entry = (fact, terms, ground)
            by_relation.setdefault(relation, []).append(entry)
            for position, value in enumerate(terms):
                if ground or not isinstance(value, Null):
                    by_value.setdefault((relation, position, value), []).append(entry)
                else:
                    open_positions.add((relation, position))
        self.by_relation = by_relation
        self.by_value = by_value
        #: Per relation, the positions no fact holds a null at: the only
        #: ones whose postings prune.
        self.indexed = {
            relation: [
                position
                for position in range(len(entries[0][1]))
                if (relation, position) not in open_positions
            ]
            for relation, entries in by_relation.items()
        }

    def smallest_first(self, atoms: Iterable[Atom]) -> list[Atom]:
        """``atoms`` by ascending relation size (ties keep their order)."""
        return sorted(
            atoms, key=lambda atom: len(self.by_relation.get(atom.relation, ()))
        )

    def candidates(self, atom: Atom, binding: dict[Var, Term]) -> Sequence:
        """Smallest posting list consistent with the atom's positions that
        hold a constant or a variable bound to one.

        Every returned fact still goes through the search's step; the index
        only prunes, it never admits a spurious match.
        """
        relation, terms = atom.relation, atom.terms
        best = self.by_relation.get(relation, _NO_FACTS)
        for position in self.indexed.get(relation, _NO_FACTS):
            term = terms[position]
            if isinstance(term, Const):
                value = term.value
            else:
                value = binding.get(term)
                if value is None or isinstance(value, Null):
                    continue
            posting = self.by_value.get((relation, position, value), _NO_FACTS)
            if len(posting) < len(best):
                best = posting
                if not best:
                    break
        return best


def _ground(null: Null) -> frozenset[Term]:
    """The domain lookup of a table without nulls: never called."""
    raise AssertionError("a ground table holds no null %r" % (null,))


def embeddings(
    atoms: Sequence[Atom],
    index: FactIndex,
    visit: Visit,
    domain_of: Callable[[Null], frozenset[Term]] = _ground,
) -> bool:
    """Visit every embedding of ``atoms``, in the order given, into the
    facts of ``index``; ``True`` when ``visit`` stopped the search.

    ``domain_of`` gives a null's domain (a naive table's
    :meth:`~repro.db.incomplete.IncompleteDatabase.domain_of`).  The
    binding and class dicts a visit sees are never changed afterwards.
    """
    for atom in atoms:
        entries = index.by_relation.get(atom.relation)
        if not entries or len(entries[0][1]) != atom.arity:
            return False
    last = len(atoms)
    facts: list = [None] * last

    def extend(depth: int, binding: dict, classes: dict) -> bool:
        if depth == last:
            return bool(visit(binding, classes, facts))
        atom = atoms[depth]
        terms = atom.terms
        for fact, values, ground in index.candidates(atom, binding):
            if ground and not classes:
                extended = _bind(terms, values, binding)
                if extended is None:
                    continue
                facts[depth] = fact
                if extend(depth + 1, extended, classes):
                    return True
            else:
                step = _bind_nulls(terms, values, binding, classes, domain_of)
                if step is None:
                    continue
                facts[depth] = fact
                if extend(depth + 1, *step):
                    return True
        return False

    return extend(0, {}, {})


def _bind(
    terms: tuple, values: tuple, binding: dict[Var, Term]
) -> dict[Var, Term] | None:
    """Extend ``binding`` so the atom's ``terms`` land on ground ``values``
    while no null is bound; ``None`` on a clash."""
    extended = dict(binding)
    for term, value in zip(terms, values):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = extended.get(term)
            if bound is None:
                extended[term] = value
            elif bound != value:
                return None
    return extended


def _bind_nulls(
    terms: tuple,
    values: tuple,
    binding: dict[Var, Term],
    classes: dict[Null, NullClass],
    domain_of: Callable[[Null], frozenset[Term]],
) -> tuple[dict[Var, Term], dict[Null, NullClass]] | None:
    """The same step when a null is involved; ``None`` on a clash."""
    binding, classes = dict(binding), dict(classes)
    for term, value in zip(terms, values):
        target = term.value if isinstance(term, Const) else binding.setdefault(term, value)
        if not _meet(target, value, classes, domain_of):
            return None
    return binding, classes


def _meet(
    left: Term,
    right: Term,
    classes: dict[Null, NullClass],
    domain_of: Callable[[Null], frozenset[Term]],
) -> bool:
    """Make two table terms equal: constants must agree, a null's class
    narrows to a constant, two nulls' classes join.  ``False`` when the
    class runs out of values."""
    if not isinstance(left, Null):
        if not isinstance(right, Null):
            return left == right
        left, right = right, left
    members, allowed = classes.get(left) or (frozenset((left,)), domain_of(left))
    if isinstance(right, Null):
        if right not in members:
            other = classes.get(right) or (frozenset((right,)), domain_of(right))
            members, allowed = members | other[0], allowed & other[1]
    else:
        allowed = frozenset((right,)) if right in allowed else frozenset()
    if not allowed:
        return False
    record = (members, allowed)
    for null in members:
        classes[null] = record
    return True


def find_homomorphism(
    query: BCQ, database: Database
) -> dict[Var, Term] | None:
    """One homomorphism from ``query`` to ``database``, or ``None``.

    Atoms are matched in ascending order of candidate-fact count, which
    keeps the search shallow on the small fixed queries of the paper.
    """
    index = FactIndex(database.facts)
    found: list[dict[Var, Term]] = []

    def first(binding: dict[Var, Term], _classes, _facts) -> bool:
        found.append(binding)
        return True

    embeddings(index.smallest_first(query.atoms), index, first)
    return found[0] if found else None


def satisfies_bcq(database: Database, query: BCQ) -> bool:
    """``D |= q`` for a Boolean conjunctive query."""
    return find_homomorphism(query, database) is not None


def count_homomorphisms(query: BCQ, database: Database) -> int:
    """Number of homomorphisms from ``query`` to ``database``.

    Not one of the paper's counting problems (those count valuations and
    completions), but a convenient cross-check for the evaluator.
    """
    index = FactIndex(database.facts)
    count = 0

    def tally(_binding, _classes, _facts) -> None:
        nonlocal count
        count += 1

    embeddings(query.atoms, index, tally)
    return count
