"""The one embedding search against the searches it replaced.

:func:`repro.eval.homomorphism.embeddings` feeds query evaluation, the
lineage matches of both counting problems and the Karp-Luby events.  This
file keeps the per-reader searches that came before it as oracles:

* ``_oracle_valuation_matches`` branches over a null's domain mid-search
  (``_bcq_matches`` / ``_unify``);
* ``_oracle_completion_matches`` walks the potential facts with a plain
  homomorphism step (``_ground_matches`` / ``_match_ground``);
* ``_oracle_events`` unifies every tuple of the facts' product with a
  union-find (``_bcq_events`` / ``_unify_embedding``).

The one search must give equal match lists (for ``#Comp``, each match's
facts in the same iteration order, which fixes the encoding's clause
order), and the same events in the same order with the same weights and
valuation sets.  Where nulls are tied only through a constant, the
union-find makes one class ``{⊥1, ⊥2}: {c}`` and the search two
(``{⊥1}: {c}``, ``{⊥2}: {c}``), and the search lists classes in the order
it first meets their nulls.  Only classes that allow one value move, and
a Karp-Luby draw spends no randomness on those: the classes that allow
two or more values come in the oracle's order, and seeded samples and
estimates are equal.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from itertools import product
from pathlib import Path
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

from hypothesis import given, strategies as st

from repro.approx.events import EmbeddingEvent, enumerate_events
from repro.approx.fpras import KarpLubyEstimator
from repro.compile.lineage import (
    _absorb,
    enumerate_completion_matches,
    enumerate_valuation_matches,
)
from repro.compile.variables import FactVariables
from repro.complexity.cnf import CNF
from repro.core.query import Atom, BCQ, Const, UCQ, Var
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, is_null
from repro.db.valuation import iter_valuations

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# oracles: the searches the one search replaced
# ---------------------------------------------------------------------------


def _disjuncts(query):
    return (query,) if isinstance(query, BCQ) else query.disjuncts


def _oracle_valuation_matches(db, query):
    matches = set()
    facts_by_relation = {}
    for fact in sorted(db.facts, key=Fact.sort_key):
        facts_by_relation.setdefault(fact.relation, []).append(fact)
    for disjunct in _disjuncts(query):
        for conditions in _bcq_matches(db, disjunct, facts_by_relation):
            if not conditions:
                return [frozenset()]
            matches.add(conditions)
    return _absorb(matches)


def _bcq_matches(db, query, facts_by_relation):
    atoms = sorted(
        query.atoms,
        key=lambda atom: len(facts_by_relation.get(atom.relation, ())),
    )
    if any(atom.relation not in facts_by_relation for atom in atoms):
        return

    def match_atoms(index, assignment, conditions):
        if index == len(atoms):
            yield frozenset(conditions.items())
            return
        atom = atoms[index]
        for fact in facts_by_relation[atom.relation]:
            if fact.arity != atom.arity:
                continue
            for extended_assignment, extended_conditions in _unify(
                atom.terms, fact.terms, assignment, conditions, db
            ):
                yield from match_atoms(
                    index + 1, extended_assignment, extended_conditions
                )

    yield from match_atoms(0, {}, {})


def _unify(atom_terms, fact_terms, assignment, conditions, db, position=0):
    """One atom against one fact, position by position; an unbound
    variable meeting a null branches over the null's domain."""
    if position == len(atom_terms):
        yield assignment, conditions
        return
    term = atom_terms[position]
    value = fact_terms[position]
    rest = position + 1
    if isinstance(term, Var) and term not in assignment:
        if is_null(value):
            pinned = conditions.get(value)
            choices = (
                (pinned,) if pinned is not None
                else sorted(db.domain_of(value), key=repr)
            )
            for choice in choices:
                yield from _unify(
                    atom_terms, fact_terms, {**assignment, term: choice},
                    {**conditions, value: choice}, db, rest,
                )
        else:
            yield from _unify(
                atom_terms, fact_terms, {**assignment, term: value},
                conditions, db, rest,
            )
        return
    target = term.value if isinstance(term, Const) else assignment[term]
    if is_null(value):
        if conditions.get(value, target) != target:
            return
        if target not in db.domain_of(value):
            return
        yield from _unify(
            atom_terms, fact_terms, assignment,
            {**conditions, value: target}, db, rest,
        )
    elif value == target:
        yield from _unify(atom_terms, fact_terms, assignment, conditions, db, rest)


def _oracle_completion_matches(potential_facts, query):
    matches = set()
    facts_by_relation = {}
    for fact in potential_facts:
        facts_by_relation.setdefault(fact.relation, []).append(fact)
    for disjunct in _disjuncts(query):
        matches.update(_ground_matches(disjunct, facts_by_relation))
    return _absorb(matches)


def _ground_matches(query, facts_by_relation):
    atoms = sorted(
        query.atoms,
        key=lambda atom: len(facts_by_relation.get(atom.relation, ())),
    )
    if any(atom.relation not in facts_by_relation for atom in atoms):
        return

    def match_atoms(index, assignment, used):
        if index == len(atoms):
            yield used
            return
        atom = atoms[index]
        for fact in facts_by_relation[atom.relation]:
            if fact.arity != atom.arity:
                continue
            extended = _match_ground(atom, fact, assignment)
            if extended is not None:
                yield from match_atoms(index + 1, extended, used | {fact})

    yield from match_atoms(0, {}, frozenset())


def _match_ground(atom, fact, assignment):
    extended = dict(assignment)
    for term, value in zip(atom.terms, fact.terms):
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


T = TypeVar("T", bound=Hashable)


class UnionFind(Generic[T]):
    """Disjoint-set forest over hashable items with path compression;
    items are registered lazily on first use."""

    def __init__(self, items: Iterable[T] = ()) -> None:
        self._parent: dict[T, T] = {}
        self._rank: dict[T, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: T) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def __contains__(self, item: T) -> bool:
        return item in self._parent

    def find(self, item: T) -> T:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: T, right: T) -> T:
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root == right_root:
            return left_root
        if self._rank[left_root] < self._rank[right_root]:
            left_root, right_root = right_root, left_root
        self._parent[right_root] = left_root
        if self._rank[left_root] == self._rank[right_root]:
            self._rank[left_root] += 1
        return left_root

    def same(self, left: T, right: T) -> bool:
        return self.find(left) == self.find(right)

    def classes(self) -> dict[T, list[T]]:
        """Each representative's members, classes in the order of their
        first registered item."""
        groups: dict[T, list[T]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups


def _oracle_events(db, query):
    events = []
    for disjunct in _disjuncts(query):
        atoms = list(disjunct.atoms)
        choices = [
            sorted(db.relation(atom.relation), key=Fact.sort_key) for atom in atoms
        ]
        if any(not facts for facts in choices):
            continue
        for facts in product(*choices):
            event = _unify_embedding(db, atoms, facts)
            if event is not None and event.weight > 0:
                events.append(event)
    return events


def _unify_embedding(db, atoms, facts):
    """The event of one atom -> fact assignment, or ``None``.  Nodes are
    tagged so variables, table terms and query constants stay apart."""
    union_find = UnionFind()
    for atom, fact in zip(atoms, facts):
        if atom.relation != fact.relation or atom.arity != fact.arity:
            return None
        for query_term, db_term in zip(atom.terms, fact.terms):
            db_node = ("null", db_term) if is_null(db_term) else ("const", db_term)
            if isinstance(query_term, Const):
                if is_null(db_term):
                    union_find.union(("const", query_term.value), db_node)
                elif query_term.value != db_term:
                    return None
            else:
                union_find.union(("var", query_term.name), db_node)
    classes = []
    for members in union_find.classes().values():
        nulls = frozenset(payload for kind, payload in members if kind == "null")
        constants = {payload for kind, payload in members if kind == "const"}
        if len(constants) > 1:
            return None
        if not nulls:
            continue
        allowed = None
        for null in nulls:
            domain = db.domain_of(null)
            allowed = domain if allowed is None else allowed & domain
        if constants:
            allowed &= frozenset(constants)
        if not allowed:
            return None
        classes.append((nulls, allowed))
    return EmbeddingEvent(classes, _scan_weight(db, classes))


def _scan_weight(db, classes):
    """An event's weight by a scan of every null of the table: the
    classes' sizes times each unconstrained null's domain size."""
    constrained = set()
    total = 1
    for nulls, allowed in classes:
        constrained |= nulls
        total *= len(allowed)
    for null in db.nulls:
        if null not in constrained:
            total *= len(db.domain_of(null))
    return total


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

CONSTANTS = ["a", "b", "c", "d"]


def _random_database(rng: random.Random) -> IncompleteDatabase:
    """Small naive tables: repeated nulls, constants, one to three
    relations; uniform or not, domains drawn from and beyond the table's
    constants."""
    schema = {name: rng.randint(1, 3) for name in rng.sample("RST", rng.randint(1, 3))}
    nulls = [Null("n%d" % i) for i in range(rng.randint(1, 4))]
    facts = []
    for relation, arity in sorted(schema.items()):
        for _ in range(rng.randint(1, 4)):
            facts.append(Fact(relation, [
                rng.choice(nulls) if rng.random() < 0.5 else rng.choice(CONSTANTS)
                for _ in range(arity)
            ]))
    if rng.random() < 0.5:
        return IncompleteDatabase.uniform(facts, rng.sample(CONSTANTS, rng.randint(1, 3)))
    used = {null for fact in facts for null in fact.nulls()}
    dom = {null: rng.sample(CONSTANTS, rng.randint(1, 3)) for null in sorted(used)}
    return IncompleteDatabase(facts, dom=dom)


def _random_bcq(rng: random.Random, schema: dict[str, int]) -> BCQ:
    """One to three atoms over the schema (self-joins allowed), variables
    x, y, z and now and then a query constant."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        relation = rng.choice(sorted(schema))
        atoms.append(Atom(relation, [
            Const(rng.choice(CONSTANTS)) if rng.random() < 0.15 else rng.choice("xyz")
            for _ in range(schema[relation])
        ]))
    return BCQ(atoms)


def _random_instances(count: int, seed: int) -> Iterator[tuple[IncompleteDatabase, object]]:
    rng = random.Random(seed)
    for _ in range(count):
        db = _random_database(rng)
        schema = db.schema()
        if rng.random() < 0.2:
            query = UCQ([_random_bcq(rng, schema) for _ in range(2)])
        else:
            query = _random_bcq(rng, schema)
        yield db, query


def _potential_facts(db: IncompleteDatabase) -> list[Fact]:
    return FactVariables(CNF(), db).facts()


def _stream_questions():
    """Every question of the perfbench ``solve_hard`` streams at seeds 1
    and 2 (25 rounds each)."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    for seed in (1, 2):
        yield from workloads.solve_stream("solve_hard", seed, 25)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _partition(event: EmbeddingEvent) -> list[frozenset]:
    return [nulls for nulls, _allowed in event.classes]


def _members(event: EmbeddingEvent, valuations: list[dict]) -> list[bool]:
    return [
        all(
            len({valuation[null] for null in nulls}) == 1
            and valuation[next(iter(nulls))] in allowed
            for nulls, allowed in event.classes
        )
        for valuation in valuations
    ]


def _drawn(event: EmbeddingEvent) -> list:
    """The classes a Karp-Luby draw spends randomness on, in order: those
    that allow two or more values."""
    return [(nulls, allowed) for nulls, allowed in event.classes if len(allowed) > 1]


def _same_draws(db, query, expected) -> bool:
    """Seeded samples and estimates equal whether the estimator reads the
    one search's events or the oracle's."""
    ours = KarpLubyEstimator(db, query, seed=3)
    theirs = KarpLubyEstimator(db, query, seed=3)
    theirs._events = expected
    return ours.sample_many(20) == theirs.sample_many(20) and (
        ours.estimate_with_samples(200) == theirs.estimate_with_samples(200)
    )


def _check_events(db, query) -> int:
    """Assert the events match the oracle's; return how many got a finer
    partition."""
    events, expected = enumerate_events(db, query), _oracle_events(db, query)
    assert len(events) == len(expected)
    valuations = list(iter_valuations(db))
    finer = 0
    for event, oracle in zip(events, expected):
        assert event.weight == oracle.weight
        assert _members(event, valuations) == _members(oracle, valuations)
        assert _drawn(event) == _drawn(oracle)
        if sorted(map(sorted, _partition(event))) == sorted(map(sorted, _partition(oracle))):
            assert set(event.classes) == set(oracle.classes)
        else:
            finer += 1
    if events and [e.classes for e in events] != [e.classes for e in expected]:
        assert _same_draws(db, query, expected)
    return finer


def _check_completion(db, query) -> None:
    potential = _potential_facts(db)
    matches = enumerate_completion_matches(potential, query)
    expected = _oracle_completion_matches(potential, query)
    assert matches == expected
    assert [list(match) for match in matches] == [list(match) for match in expected]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestAgainstOracles:
    def test_valuation_matches_on_random_instances(self):
        for db, query in _random_instances(500, seed=11):
            assert enumerate_valuation_matches(db, query) == (
                _oracle_valuation_matches(db, query)
            )

    def test_completion_matches_on_random_instances(self):
        for db, query in _random_instances(500, seed=12):
            _check_completion(db, query)

    def test_events_on_random_instances(self):
        finer = 0
        for db, query in _random_instances(500, seed=13):
            finer += _check_events(db, query)
        assert finer > 0  # the draw does reach nulls tied through a constant

    def test_event_weights_match_a_null_scan(self):
        # Weights come from per-null sizes, not from a scan of the table's
        # nulls per event; an empty domain leaves no event at all.
        rng = random.Random(14)
        emptied = 0
        for db, query in _random_instances(300, seed=14):
            if db.nulls and rng.random() < 0.3:
                gone = rng.choice(sorted(db.nulls, key=repr))
                db = IncompleteDatabase(db.facts, dom={
                    null: [] if null == gone else db.domain_of(null)
                    for null in db.nulls
                })
                emptied += 1
            events = enumerate_events(db, query)
            for event in events:
                assert event.weight == _scan_weight(db, event.classes) > 0
            assert [event.weight for event in events] == [
                event.weight for event in _oracle_events(db, query)
            ]
        assert emptied

    def test_five_fact_matches_keep_their_iteration_order(self):
        """Past four facts a set's layout depends on how it was grown; the
        ``#Comp`` encoding writes one clause per fact in that order."""
        chain = BCQ([Atom("R", ["v%d" % i, "v%d" % (i + 1)]) for i in range(5)])
        for start in range(20):
            constants = ["c%d" % (start + i) for i in range(7)]
            facts = [Fact("R", [constants[i], constants[i + 1]]) for i in range(6)]
            facts.append(Fact("R", [Null(1), constants[3]]))
            db = IncompleteDatabase.uniform(facts, constants[:3])
            _check_completion(db, chain)

    def test_tied_through_a_constant(self):
        """x meets c and both nulls: the union-find joins them through c,
        the search keeps two classes pinned to c.  Same valuations."""
        n1, n2 = Null(1), Null(2)
        db = IncompleteDatabase.uniform(
            [Fact("R", ["c", n1]), Fact("S", [n2])], ["a", "c"]
        )
        query = BCQ([Atom("R", ["x", "x"]), Atom("S", ["x"])])
        (event,) = enumerate_events(db, query)
        (oracle,) = _oracle_events(db, query)
        assert oracle.classes == [(frozenset((n1, n2)), frozenset("c"))]
        assert event.classes == [
            (frozenset((n1,)), frozenset("c")), (frozenset((n2,)), frozenset("c"))
        ]
        assert event.weight == oracle.weight == 1

    def test_pinned_class_draws_nothing(self):
        """Classes come in the order the search first meets their nulls,
        so a class pinned to a constant a variable met earlier sits later
        than in the union-find.  It allows one value, so a seeded draw
        reads the same randomness."""
        n1, n2 = Null(1), Null(2)
        db = IncompleteDatabase.uniform(
            [Fact("R", ["c", n2]), Fact("S", [n1])], ["a", "c"]
        )
        query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["x"])])
        (event,) = enumerate_events(db, query)
        (oracle,) = _oracle_events(db, query)
        assert oracle.classes == [
            (frozenset((n1,)), frozenset("c")), (frozenset((n2,)), frozenset("ac"))
        ]
        assert event.classes == oracle.classes[::-1]
        assert _same_draws(db, query, [oracle])

    def test_perfbench_solve_hard_streams(self):
        val = comp = 0
        for question in _stream_questions():
            db, query = question.db, question.query
            if question.problem == "val":
                assert enumerate_valuation_matches(db, query) == (
                    _oracle_valuation_matches(db, query)
                )
                val += 1
            elif question.problem == "comp" and query is not None:
                _check_completion(db, query)
                comp += 1
        assert val == 150 and comp > 0


# ---------------------------------------------------------------------------
# the oracle's union-find
# ---------------------------------------------------------------------------


class TestOracleUnionFind:
    def test_singletons(self):
        uf = UnionFind(["a", "b"])
        assert uf.find("a") == "a"
        assert not uf.same("a", "b")

    def test_union_links(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.same("a", "c")
        assert not uf.same("a", "d")

    def test_lazy_registration(self):
        uf = UnionFind()
        assert "x" not in uf
        uf.find("x")
        assert "x" in uf

    def test_classes(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        uf.add(5)
        groups = {frozenset(v) for v in uf.classes().values()}
        assert groups == {frozenset({1, 2}), frozenset({3, 4}), frozenset({5})}

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
    def test_matches_naive_partition(self, unions):
        """Union-find agrees with a naive connected-components refinement."""
        uf = UnionFind(range(10))
        parent = {i: {i} for i in range(10)}
        lookup = {i: i for i in range(10)}
        for a, b in unions:
            uf.union(a, b)
            ra, rb = lookup[a], lookup[b]
            if ra != rb:
                parent[ra] |= parent[rb]
                for member in parent[rb]:
                    lookup[member] = ra
                del parent[rb]
        for i in range(10):
            for j in range(10):
                assert uf.same(i, j) == (lookup[i] == lookup[j])
