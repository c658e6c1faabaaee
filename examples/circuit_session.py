"""Circuit session: compile once, then weighted reads, a sweep and an update.

A 3-colouring of a small chorded cycle asks ``q = ∃x R(x, x)`` (some
edge is monochromatic), a #P-hard cell of Table 1.  The instance is
compiled once into a ``ValuationCircuit``; every later question is a
pass over that circuit: a weighted count, the per-null marginals, a
short sweep of weightings, and a ``ResolveNull`` update whose child
circuit shares the parent's compiled program and answers a read of its
own.  Each answer is checked against an independent route: weighted
enumeration of the valuations, and ``solve(..., method="lineage")`` (a
fresh search) on the updated instance.

Run:  python examples/circuit_session.py
"""

from fractions import Fraction

from repro import solve
from repro.compile import ValuationCircuit
from repro.db.deltas import ResolveNull
from repro.db.valuation import apply_valuation, iter_valuations
from repro.eval.homomorphism import satisfies_bcq
from repro.workloads.generators import scaling_hard_val_instance

db, query = scaling_hard_val_instance(6, chord_probability=0.3, seed=2)
nulls = db.nulls
colours = sorted(db.uniform_domain)


def satisfying(instance):
    """Every valuation of ``instance`` whose completion satisfies ``q``."""
    return [
        valuation for valuation in iter_valuations(instance)
        if satisfies_bcq(apply_valuation(instance, valuation), query)
    ]


def by_enumeration(instance, models, weights=None):
    """``(weighted #Val, weighted marginals)`` summed over ``models``."""
    total = 0
    mass: dict = {}
    for valuation in models:
        weight = 1
        for null, value in valuation.items():
            weight *= (weights or {}).get(null, {}).get(value, 1)
        total += weight
        for pair in valuation.items():
            mass[pair] = mass.get(pair, 0) + weight
    marginals = {
        null: {
            value: Fraction(mass.get((null, value), 0)) / total
            for value in sorted(instance.domain_of(null))
        }
        for null in instance.nulls
    }
    return total, marginals


# --- compile once ------------------------------------------------------------
compiled = ValuationCircuit(db, query)
print("instance: %d nulls, %d colours; circuit %r" % (len(nulls), len(colours), compiled.circuit))
assert compiled.count() == solve("val", db, query, method="lineage").count
print("#Val(q)(D) =", compiled.count())

# --- a weighted count and the marginals, one pass or two each ------------------
weights = {
    null: {colour: 1 + (index + position) % 3 for position, colour in enumerate(colours)}
    for index, null in enumerate(nulls)
}
models = satisfying(db)
expected_total, expected_marginals = by_enumeration(db, models, weights)
assert compiled.weighted_count(weights) == expected_total
assert compiled.marginals(weights) == expected_marginals
first = nulls[0]
print("weighted #Val =", expected_total)
print("P[%r = c | q] =" % first, {c: str(p) for c, p in expected_marginals[first].items()})

# --- a short sweep: five weightings of two nulls in one batched pass -----------
rows = [
    {null: {colour: step + position for position, colour in enumerate(colours)}
     for null in nulls[:2]}
    for step in range(1, 6)
]
sweep = compiled.weighted_count_many(rows)
assert sweep == [by_enumeration(db, models, row)[0] for row in rows]
print("sweep over %d weightings:" % len(rows), sweep)

# --- an update: resolve one null; the child conditions the parent circuit ------
delta = ResolveNull(first, colours[0])
child = compiled.condition(delta)
updated = db.apply(delta)
assert child.count() == solve("val", updated, query, method="lineage").count
child_weights = {null: weights[null] for null in updated.nulls}
child_total, _ = by_enumeration(updated, satisfying(updated), child_weights)
assert child.weighted_count(child_weights) == child_total
print("after %r = %s: #Val = %d, weighted #Val = %d" % (
    first, colours[0], child.count(), child.weighted_count(child_weights),
))
