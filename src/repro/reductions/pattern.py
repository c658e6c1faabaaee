"""Lemmas 3.3 and 4.1: the pattern reductions, executable.

If ``q'`` is a pattern of ``q`` (Definition 3.1), any input ``D'`` of
``#Val(q')`` transforms into an input ``D`` of ``#Val(q)`` with the *same*
nulls and domains such that, for every valuation ``ν``,

``ν(D') |= q'  iff  ν(D) |= q``           (Lemma 3.3, parsimonious)
``ν1(D') = ν2(D')  iff  ν1(D) = ν2(D)``   (Lemma 4.1, hence also #Comp)

Construction (following the proof of Lemma 3.3): fix a pattern embedding.
Let ``A`` be all constants appearing in ``D'`` or in a null domain.  For a
query atom matched by pattern atom ``k`` and each fact ``t'`` of the
pattern relation, emit every fact that copies ``t'`` through the kept
positions and fills each deleted position with every constant of ``A``
(cartesian fill); unmatched query relations are filled with *all* tuples
over ``A``.

Note on Codd preservation: the paper asserts the construction preserves
Codd tables; that holds when the embedding deletes no variable occurrence
from the kept atoms (renamings, reorderings and whole-atom deletions
only).  When occurrences *are* deleted, the cartesian fill necessarily
duplicates any null of ``t'`` across the filled tuples, so the output is a
naive table; the counts are preserved either way, which is what the tests
verify.
"""

from __future__ import annotations

from itertools import product

from repro.core.patterns import PatternEmbedding, find_pattern_embedding
from repro.core.query import BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Term


def _constant_pool(db: IncompleteDatabase) -> list[Term]:
    """``A``: constants appearing in ``D'`` or in some null domain."""
    pool = set(db.constants())
    for null in db.nulls:
        pool |= set(db.domain_of(null))
    if db.is_uniform:
        pool |= set(db.uniform_domain)
    return sorted(pool, key=repr)


def transfer_database(
    pattern: BCQ,
    query: BCQ,
    db: IncompleteDatabase,
    embedding: PatternEmbedding | None = None,
) -> IncompleteDatabase:
    """The Lemma 3.3 / 4.1 transformation of ``D'`` (for ``q'``) into ``D``
    (for ``q``).

    Raises ``ValueError`` when ``pattern`` is not a pattern of ``query``.
    The output keeps the input's domain structure (uniform stays uniform,
    per-null domains are carried over unchanged).
    """
    if embedding is None:
        embedding = find_pattern_embedding(pattern, query)
    if embedding is None:
        raise ValueError(
            "%r is not a pattern of %r (Definition 3.1)" % (pattern, query)
        )
    stray = db.relations - pattern.relations
    if stray:
        raise ValueError(
            "input database mentions relations outside sig(q'): %s"
            % sorted(stray)
        )
    pool = _constant_pool(db)
    if not pool:
        # Degenerate but possible: no constants anywhere.  Any fresh
        # constant works for the cartesian fill (it can never be matched by
        # a null, but deleted positions only need *some* value).
        pool = [("fill", 0)]

    facts: list[Fact] = []
    matched_query_atoms = set(embedding.atom_map)
    for k, pattern_atom in enumerate(pattern.atoms):
        query_atom = query.atoms[embedding.atom_map[k]]
        position_map = embedding.position_maps[k]  # pattern pos -> query pos
        copy_source = {dst: src for src, dst in position_map.items()}
        wildcard_positions = [
            i for i in range(query_atom.arity) if i not in copy_source
        ]
        for fact in sorted(
            db.relation(pattern_atom.relation), key=Fact.sort_key
        ):
            if fact.arity != pattern_atom.arity:
                raise ValueError(
                    "fact %r does not match pattern atom %r"
                    % (fact, pattern_atom)
                )
            for fill in product(pool, repeat=len(wildcard_positions)):
                terms: list[Term] = [None] * query_atom.arity
                for dst, src in copy_source.items():
                    terms[dst] = fact.terms[src]
                for position, value in zip(wildcard_positions, fill):
                    terms[position] = value
                facts.append(Fact(query_atom.relation, terms))

    for index, query_atom in enumerate(query.atoms):
        if index in matched_query_atoms:
            continue
        for tuple_values in product(pool, repeat=query_atom.arity):
            facts.append(Fact(query_atom.relation, tuple_values))

    if db.is_uniform:
        return IncompleteDatabase.uniform(facts, db.uniform_domain)
    return IncompleteDatabase(
        facts, dom={null: db.domain_of(null) for null in db.nulls}
    )
