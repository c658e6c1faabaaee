"""Tractable case of ``#Valu(q)`` on uniform naive tables (Theorem 3.9).

When none of ``R(x,x)``, ``R(x) ∧ S(x,y) ∧ T(y)``, ``R(x,y) ∧ S(x,y)`` is a
pattern of the sjfBCQ ``q``:

* no atom repeats a variable, and each atom contains at most one variable
  that also occurs in another atom (Lemma A.11);
* deleting the once-occurring variables (Lemma A.12) turns ``q`` into a
  conjunction of *basic singletons* — groups of unary atoms sharing one
  variable — and multiplies the count by ``d^(#nulls only in deleted
  columns)``;
* inclusion–exclusion over the components (Lemma A.13) reduces the problem
  to computing ``N_S(D)``: the number of valuations satisfying **no**
  component of ``S``.

``N_S`` is computed by a value-type generating-function method equivalent to
Prop. A.14's nested-sum construction, organized as follows.  Classify each
domain value by the set of relations where it already occurs as a constant
(its *type* τ).  A valuation is counted by ``N_S`` iff no value's *coverage*
(constant type ∪ relations reached via nulls mapped to it) contains a
component.  A per-value Möbius transform replaces the coverage predicate by
indicators ``[coverage ⊆ W]``, which factorize over the *null blocks*
(groups of nulls with equal relation-occurrence sets): a block ``s`` can
then only land on values whose chosen ``W ⊇ s``.  Aggregating values of
equal type with a polynomial DP over block-profile counts yields ``N_S`` in
time polynomial in the data (and exponential in the fixed schema, as the
paper warns).
"""

from __future__ import annotations

from itertools import combinations

from repro.core.classify import tractable
from repro.core.problems import VAL_UNIFORM
from repro.core.query import BCQ, BooleanQuery, Var
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null, Term, is_null


def applies(
    db: IncompleteDatabase, query: BooleanQuery | None
) -> tuple[bool, str]:
    """Whether Theorem 3.9 counts ``#Valu(q)(D)``, and why: ``q`` in the FP
    cell of ``#Valu`` and ``D`` uniform (naive tables welcome)."""
    ok, reason = tractable(query, VAL_UNIFORM)
    if ok and not db.is_uniform:
        return False, "database is not uniform (per-null domains differ)"
    return ok, reason


def shared_variables(query: BCQ) -> list[Var]:
    """Variables occurring in at least two atoms (survive Lemma A.12)."""
    return [
        variable
        for variable in query.variables()
        if len(query.atoms_containing(variable)) >= 2
    ]


def basic_singleton_components(query: BCQ) -> dict[Var, frozenset[str]]:
    """The components of ``G_q`` as variable -> set of relation names.

    Valid for pattern-free queries, where every component is a clique whose
    edges all carry the same single variable (Lemma A.11).
    """
    components: dict[Var, frozenset[str]] = {}
    for variable in shared_variables(query):
        atoms = query.atoms_containing(variable)
        components[variable] = frozenset(atom.relation for atom in atoms)
    return components


def _projected_column(
    db: IncompleteDatabase, relation: str, position: int
) -> frozenset[Term]:
    """Distinct terms in one column of a relation (set semantics)."""
    return frozenset(fact.terms[position] for fact in db.relation(relation))


def _projection(
    db: IncompleteDatabase, query: BCQ
) -> tuple[dict[str, frozenset[Term]], set[Null]]:
    """Unary projections of the shared-variable columns, plus the set of
    nulls that appear in at least one projected column."""
    columns: dict[str, frozenset[Term]] = {}
    projection_nulls: set[Null] = set()
    for variable, relations in basic_singleton_components(query).items():
        for atom in query.atoms_containing(variable):
            position = list(atom.terms).index(variable)
            column = _projected_column(db, atom.relation, position)
            columns[atom.relation] = column
            projection_nulls |= {term for term in column if is_null(term)}
    return columns, projection_nulls


def count_valuations_uniform(db: IncompleteDatabase, query: BCQ) -> int:
    """``#Valu(q)(D)`` for pattern-free ``q`` (Theorem 3.9), where
    :func:`applies`."""
    ok, reason = applies(db, query)
    if not ok:
        raise ValueError("Theorem 3.9 does not apply: %s" % reason)

    for relation in query.relations:
        if not db.relation(relation):
            return 0

    domain = db.uniform_domain
    d = len(domain)
    all_nulls = set(db.nulls)
    if d == 0 and all_nulls:
        return 0  # no valuation can assign the nulls

    columns, projection_nulls = _projection(db, query)
    dropped_nulls = all_nulls - projection_nulls
    components = list(basic_singleton_components(query).values())

    total = 0
    for size in range(len(components) + 1):
        for chosen in combinations(components, size):
            n_s = _count_component_avoiding(
                list(chosen), columns, domain, projection_nulls
            )
            total += -n_s if size % 2 else n_s
    return total * d ** len(dropped_nulls)


def _count_component_avoiding(
    groups: list[frozenset[str]],
    columns: dict[str, frozenset[Term]],
    domain: frozenset[Term],
    projection_nulls: set[Null],
) -> int:
    """``N_S``: valuations of the projection nulls under which no group in
    ``groups`` has a common value across all its relations."""
    d = len(domain)
    union_relations = sorted(set().union(*groups)) if groups else []
    relevant = set(union_relations)

    constants_by_relation = {
        relation: {t for t in columns[relation] if not is_null(t)}
        for relation in union_relations
    }
    nulls_by_relation = {
        relation: {t for t in columns[relation] if is_null(t)}
        for relation in union_relations
    }

    # A group already covered by one constant is satisfied by *every*
    # valuation, so no valuation avoids it.
    for group in groups:
        common = None
        for relation in group:
            constants = constants_by_relation[relation]
            common = constants if common is None else common & constants
        if common:
            return 0

    # Nulls not occurring in any relevant relation are unconstrained here.
    constrained: set[Null] = set()
    for relation in union_relations:
        constrained |= nulls_by_relation[relation]
    free_count = len(projection_nulls - constrained)

    # Null blocks: occurrence set (within the relevant relations) -> count.
    blocks: dict[frozenset[str], int] = {}
    for null in constrained:
        signature = frozenset(
            relation
            for relation in union_relations
            if null in nulls_by_relation[relation]
        )
        blocks[signature] = blocks.get(signature, 0) + 1

    # Value types: relations where the value is already a constant.
    type_counts: dict[frozenset[str], int] = {}
    for value in domain:
        value_type = frozenset(
            relation
            for relation in union_relations
            if value in constants_by_relation[relation]
        )
        type_counts[value_type] = type_counts.get(value_type, 0) + 1

    core = _coverage_count(groups, relevant, type_counts, blocks)
    return core * d**free_count


def _coverage_count(
    groups: list[frozenset[str]],
    relations: set[str],
    type_counts: dict[frozenset[str], int],
    blocks: dict[frozenset[str], int],
) -> int:
    """Count maps of block nulls to typed values with no group covered.

    Implements the Möbius-transform factorization described in the module
    docstring.  ``type_counts`` must cover the whole domain (its counts sum
    to ``d``).
    """

    def allowed(covered: frozenset[str]) -> bool:
        return not any(group <= covered for group in groups)

    relation_list = sorted(relations)
    all_subsets = [
        frozenset(chosen)
        for size in range(len(relation_list) + 1)
        for chosen in combinations(relation_list, size)
    ]

    # Möbius coefficients c_t(W) = sum_{V ⊇ W, allowed(t ∪ V)} (-1)^{|V|-|W|}.
    coefficient: dict[tuple[frozenset[str], frozenset[str]], int] = {}
    for value_type in type_counts:
        for lower in all_subsets:
            acc = 0
            for upper in all_subsets:
                if lower <= upper and allowed(value_type | upper):
                    acc += -1 if (len(upper) - len(lower)) % 2 else 1
            coefficient[(value_type, lower)] = acc

    # Two W's matter only through which blocks they absorb; group them.
    block_signatures = sorted(blocks, key=repr)

    def profile(w: frozenset[str]) -> frozenset[frozenset[str]]:
        return frozenset(s for s in block_signatures if s <= w)

    profiles = sorted({profile(w) for w in all_subsets}, key=repr)
    profile_index = {p: i for i, p in enumerate(profiles)}
    width = len(profiles)

    # Per-type linear form over profile slots.
    linear_forms: dict[frozenset[str], list[tuple[int, int]]] = {}
    for value_type in type_counts:
        slot_coefficients = [0] * width
        for w in all_subsets:
            slot_coefficients[profile_index[profile(w)]] += coefficient[
                (value_type, w)
            ]
        linear_forms[value_type] = [
            (slot, c) for slot, c in enumerate(slot_coefficients) if c != 0
        ]

    # Polynomial DP: state = how many domain values chose each profile slot.
    poly: dict[tuple[int, ...], int] = {(0,) * width: 1}
    for value_type, count in sorted(type_counts.items(), key=repr):
        form = linear_forms[value_type]
        for _ in range(count):
            next_poly: dict[tuple[int, ...], int] = {}
            for state, weight in poly.items():
                for slot, c in form:
                    bumped = list(state)
                    bumped[slot] += 1
                    key = tuple(bumped)
                    next_poly[key] = next_poly.get(key, 0) + weight * c
            poly = next_poly
            if not poly:
                return 0

    total = 0
    for state, weight in poly.items():
        term = weight
        for signature, multiplicity in blocks.items():
            slots = sum(
                state[profile_index[p]] for p in profiles if signature in p
            )
            term *= slots**multiplicity
            if term == 0:
                break
        total += term
    return total
