"""Random and scaling instance generators."""

from __future__ import annotations

import random
from typing import Mapping

from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null


def random_incomplete_db(
    schema: Mapping[str, int],
    seed: int,
    num_nulls: int = 3,
    facts_per_relation: tuple[int, int] = (1, 3),
    domain_size: int = 3,
    uniform: bool = True,
    codd: bool = False,
    null_probability: float = 0.5,
    extra_constants: int = 1,
) -> IncompleteDatabase:
    """A random incomplete database over ``schema`` (relation -> arity).

    ``codd=True`` uses each null at most once (fresh nulls are drawn as
    needed); otherwise nulls are shared across positions with probability
    ``null_probability`` per position.  Constants are drawn from the
    domain plus ``extra_constants`` out-of-domain values.
    """
    rng = random.Random(seed)
    domain = ["v%d" % i for i in range(domain_size)]
    constants = domain + ["out%d" % i for i in range(extra_constants)]
    shared_nulls = [Null("n%d" % i) for i in range(max(num_nulls, 1))]
    fresh_counter = [0]

    def next_null() -> Null:
        if codd:
            fresh_counter[0] += 1
            return Null("c%d" % fresh_counter[0])
        return rng.choice(shared_nulls)

    facts = []
    used_nulls: set[Null] = set()
    for relation in sorted(schema):
        arity = schema[relation]
        for _ in range(rng.randint(*facts_per_relation)):
            terms = []
            for _ in range(arity):
                if rng.random() < null_probability:
                    null = next_null()
                    used_nulls.add(null)
                    terms.append(null)
                else:
                    terms.append(rng.choice(constants))
            facts.append(Fact(relation, terms))

    if uniform:
        return IncompleteDatabase.uniform(facts, domain)
    # Draw in a fixed order: iterating the set itself would tie the
    # instance to the process's string hash seed.
    non_uniform = {
        null: rng.sample(domain, rng.randint(1, len(domain)))
        for null in sorted(used_nulls, key=repr)
    }
    return IncompleteDatabase(facts, dom=non_uniform)


def scaling_single_occurrence_instance(
    size: int, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Theorem 3.6 family: ``R(x,y) ∧ S(z)``, ``size`` facts/nulls each,
    non-uniform domains."""
    rng = random.Random(seed)
    facts = []
    dom: dict[Null, list[str]] = {}
    pool = ["v%d" % i for i in range(max(4, size))]
    for i in range(size):
        r_null = Null(("r", i))
        s_null = Null(("s", i))
        dom[r_null] = rng.sample(pool, min(3, len(pool)))
        dom[s_null] = rng.sample(pool, min(2, len(pool)))
        facts.append(Fact("R", [r_null, rng.choice(pool)]))
        facts.append(Fact("S", [s_null]))
    query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["z"])])
    return IncompleteDatabase(facts, dom=dom), query


def scaling_codd_instance(
    size: int, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Theorem 3.7 family: ``R(x,x) ∧ S(y,z)`` over a Codd table with
    ``size`` facts per relation, non-uniform domains."""
    rng = random.Random(seed)
    facts = []
    dom: dict[Null, list[str]] = {}
    pool = ["v%d" % i for i in range(max(4, size // 2 + 2))]
    counter = [0]

    def fresh() -> Null:
        counter[0] += 1
        null = Null(counter[0])
        dom[null] = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        return null

    for _ in range(size):
        facts.append(Fact("R", [fresh(), fresh()]))
        facts.append(Fact("S", [fresh(), rng.choice(pool)]))
    query = BCQ([Atom("R", ["x", "x"]), Atom("S", ["y", "z"])])
    return IncompleteDatabase(facts, dom=dom), query


def scaling_uniform_val_instance(
    size: int, domain_size: int = 4, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Theorem 3.9 family: ``R(x) ∧ S(x)`` over a naive uniform table with
    ``size`` nulls per relation (some shared between R and S)."""
    rng = random.Random(seed)
    domain = ["v%d" % i for i in range(domain_size)]
    facts = []
    for i in range(size):
        facts.append(Fact("R", [Null(("r", i))]))
        facts.append(Fact("S", [Null(("s", i))]))
        if i % 3 == 0:
            shared = Null(("shared", i))
            facts.append(Fact("R", [shared]))
            facts.append(Fact("S", [shared]))
    facts.append(Fact("R", [rng.choice(domain)]))
    query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
    return IncompleteDatabase.uniform(facts, domain), query


def scaling_hard_val_instance(
    size: int, num_colors: int = 3, chord_probability: float = 0.0,
    seed: int = 0,
) -> tuple[IncompleteDatabase, BCQ]:
    """Hard-cell ``#Val`` family (Prop. 3.4 shape): ``R(x,x)`` over the
    coloring database of a ``size``-cycle.

    ``#Val`` here counts improperly-colored assignments — #P-hard in
    general, and brute force costs ``num_colors^size``.  The cycle keeps
    the lineage treewidth tiny, so the ``lineage`` backend stays
    polynomial; ``chord_probability`` adds random chords to thicken the
    instance (seeded, reproducible).
    """
    rng = random.Random(seed)
    node_null = {v: Null(("node", v)) for v in range(size)}
    edges = [(v, (v + 1) % size) for v in range(size)]
    for u in range(size):
        for v in range(u + 2, size):
            if (u, v) not in edges and rng.random() < chord_probability:
                edges.append((u, v))
    facts = []
    for u, v in edges:
        facts.append(Fact("R", [node_null[u], node_null[v]]))
        facts.append(Fact("R", [node_null[v], node_null[u]]))
    query = BCQ([Atom("R", ["x", "x"])])
    domain = ["c%d" % i for i in range(num_colors)]
    return IncompleteDatabase.uniform(facts, domain), query


def scaling_grid_val_instance(
    rows: int, cols: int, num_colors: int = 2, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Low-treewidth hard-cell ``#Val`` family: ``R(x,x)`` over the
    coloring database of a ``rows x cols`` grid graph.

    The grid's treewidth is ``min(rows, cols)``, so the lineage CNF stays
    width-bounded no matter how long the grid grows — *wide but
    width-bounded*, the shape where the tree-decomposition DP is linear
    while search-based counting keeps paying for the grid's cycles.
    Brute force costs ``num_colors^(rows*cols)``.
    """
    node_null = {
        (r, c): Null(("grid", r, c))
        for r in range(rows)
        for c in range(cols)
    }
    facts = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr < rows and cc < cols:
                    facts.append(
                        Fact("R", [node_null[(r, c)], node_null[(rr, cc)]])
                    )
                    facts.append(
                        Fact("R", [node_null[(rr, cc)], node_null[(r, c)]])
                    )
    query = BCQ([Atom("R", ["x", "x"])])
    domain = ["c%d" % i for i in range(num_colors)]
    return IncompleteDatabase.uniform(facts, domain), query


def scaling_long_cycle_val_instance(
    length: int, band: int = 2, num_colors: int = 2, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Low-treewidth hard-cell ``#Val`` family: ``R(x,x)`` over the
    coloring database of a circulant graph — a ``length``-cycle where
    each vertex is also joined to its ``band`` nearest successors.

    Treewidth is about ``2 * band`` regardless of ``length``: arbitrarily
    *long* instances of fixed width.  ``band=1`` is a plain cycle; larger
    bands thicken every bag without ever letting the width grow with the
    instance, which is exactly the regime the dpdb backend is built for.
    """
    node_null = {v: Null(("ring", v)) for v in range(length)}
    facts = []
    seen = set()
    for v in range(length):
        for step in range(1, band + 1):
            u, w = v, (v + step) % length
            edge = (min(u, w), max(u, w))
            if u == w or edge in seen:
                continue
            seen.add(edge)
            facts.append(Fact("R", [node_null[u], node_null[w]]))
            facts.append(Fact("R", [node_null[w], node_null[u]]))
    query = BCQ([Atom("R", ["x", "x"])])
    domain = ["c%d" % i for i in range(num_colors)]
    return IncompleteDatabase.uniform(facts, domain), query


def scaling_block_comp_instance(
    num_blocks: int, block_size: int = 3, overlap: int = 2, seed: int = 0
) -> tuple[IncompleteDatabase, None]:
    """Low-width ``#Comp`` family: independent overlap blocks.

    ``num_blocks`` disjoint groups of ``block_size`` unary nulls whose
    domains overlap *within* the block only.  The projection-constrained
    elimination width is bounded by the block size (each block is its own
    primal-graph component), so projected dpdb counting stays cheap for
    arbitrarily many blocks — unlike chain- or cycle-shaped overlap,
    where eliminating every choice variable first provably accumulates
    the projected pendants and the constrained width grows linearly.
    Returned with ``query=None``: the count-all-completions form.
    """
    rng = random.Random(seed)
    facts = []
    dom: dict[Null, list[str]] = {}
    for block in range(num_blocks):
        values = [
            "b%d_v%d" % (block, i) for i in range(block_size + overlap - 1)
        ]
        for i in range(block_size):
            null = Null(("block", block, i))
            dom[null] = values[i : i + overlap]
            facts.append(Fact("R", [null]))
        if rng.random() < 0.5:  # a ground fact collapsing some choices
            facts.append(Fact("R", [values[0]]))
    return IncompleteDatabase(facts, dom=dom), None


def scaling_hard_comp_instance(
    size: int, overlap: int = 2, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Hard-cell ``#Comp`` family (Prop. 4.2 shape): completions of a
    non-uniform *unary* table whose null domains overlap along a path.

    Facts ``R(⊥_i)`` with ``dom(⊥_i) = {v_i, ..., v_{i+overlap-1}}``:
    distinct valuations collapse heavily, so counting distinct completions
    is the hard part (brute force enumerates ``overlap^size`` valuations).
    The path-shaped overlap keeps the projected counting decomposable.
    Returned with the ``R(x) ∧ S(x)`` intersection query (plus ground
    ``S`` facts over a random half of the values) for the
    query-constrained variant; pass ``query=None`` downstream to count
    all completions.
    """
    rng = random.Random(seed)
    facts = []
    dom: dict[Null, list[str]] = {}
    for i in range(size):
        null = Null(("u", i))
        dom[null] = ["v%d" % (i + j) for j in range(overlap)]
        facts.append(Fact("R", [null]))
    values = sorted({value for choices in dom.values() for value in choices})
    for value in rng.sample(values, max(1, len(values) // 2)):
        facts.append(Fact("S", [value]))
    query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
    return IncompleteDatabase(facts, dom=dom), query


def scaling_uniform_unary_comp_instance(
    num_nulls: int, domain_size: int = 6, seed: int = 0
) -> tuple[IncompleteDatabase, BCQ]:
    """Theorem 4.6 family: completions of a uniform table over unary
    ``R, S`` with ``num_nulls`` nulls split across the relations."""
    rng = random.Random(seed)
    domain = ["v%d" % i for i in range(domain_size)]
    facts = [Fact("R", [domain[0]])]
    for i in range(num_nulls):
        null = Null(("u", i))
        target = "R" if i % 2 == 0 else "S"
        facts.append(Fact(target, [null]))
        if i % 4 == 0:  # some nulls occur in both relations (naive table)
            facts.append(Fact("S", [null]))
    query = BCQ([Atom("R", ["x"]), Atom("S", ["x"])])
    return IncompleteDatabase.uniform(facts, domain), query
