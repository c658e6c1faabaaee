"""Differential tests: conditioning must be bit-identical to compiling
the updated instance from scratch.

Resolve and restrict deltas are exercised on randomized instances:
counts, weighted counts (exact :class:`~fractions.Fraction` weights
included), marginal tables, seeded sampling and chains of deltas.  An
insert or delete is refused, and every construction path — compile,
condition, derive through a circuit store, rehydrate, fetch from a
store — answers like a fresh compile.  The only
acceptable difference between ``condition`` and ``recompile`` is wall
time.
"""

import random
from fractions import Fraction

import pytest

from repro.compile.backend import (
    CompletionCircuit,
    ValuationCircuit,
    artifact_from_bytes,
)
from repro.complexity.cnf import CNF
from repro.compile.ddnnf_trace import TraceBuilder
from repro.compile.encode import compile_completion_cnf, compile_valuation_cnf
from repro.compile.sharpsat import ModelCounter
from repro.core.query import Atom, BCQ
from repro.db.deltas import (
    DeleteFacts,
    InsertFacts,
    ResolveNull,
    RestrictDomain,
)
from repro.db.fact import Fact
from repro.db.valuation import count_total_valuations
from repro.engine import CountCache, fingerprint_instance, instance_circuit
from repro.exact import planner
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_block_comp_instance,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
)

QUERY = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
SCHEMA = {"R": 2, "S": 1}


def random_update_db(seed):
    return random_incomplete_db(
        SCHEMA,
        seed=seed,
        num_nulls=3,
        facts_per_relation=(2, 4),
        domain_size=3,
        null_probability=0.6,
    )


def random_delta(rng, db):
    """One applicable random delta for ``db`` (None when none applies)."""
    kind = rng.choice(("resolve", "restrict", "insert", "delete"))
    nulls = sorted(db.nulls, key=repr)
    if kind in ("resolve", "restrict") and not nulls:
        kind = "insert"
    if kind == "resolve":
        null = rng.choice(nulls)
        return ResolveNull(null, rng.choice(sorted(db.domain_of(null), key=repr)))
    if kind == "restrict":
        null = rng.choice(nulls)
        domain = sorted(db.domain_of(null), key=repr)
        keep = rng.randint(1, len(domain))
        return RestrictDomain(null, frozenset(rng.sample(domain, keep)))
    if kind == "insert":
        relation = rng.choice(("R", "S"))
        arity = SCHEMA[relation]
        pool = ["v0", "v1", "v2"] + nulls
        terms = tuple(rng.choice(pool) for _ in range(arity))
        fact = Fact(relation, terms)
        if fact in db.facts:
            return None
        return InsertFacts(frozenset({fact}))
    victims = sorted(db.facts)
    if len(victims) <= 1:
        return None
    return DeleteFacts(frozenset({rng.choice(victims)}))


# -- DDNNF.condition against raw CNFs ---------------------------------------


def random_cnf(rng, max_variables=8, max_clauses=10):
    n = rng.randint(2, max_variables)
    cnf = CNF(n)
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        cnf.add_clause(v if rng.random() < 0.5 else -v for v in variables)
    return cnf


def traced(cnf):
    trace = TraceBuilder()
    counter = ModelCounter(cnf, trace=trace)
    count = counter.count()
    return trace.build(counter.trace_root, cnf.num_variables), count


def test_ddnnf_condition_matches_brute_force():
    rng = random.Random(20240807)
    for _ in range(60):
        cnf = random_cnf(rng)
        circuit, count = traced(cnf)
        assert circuit.count() == count
        pinned = {
            v: rng.random() < 0.5
            for v in rng.sample(
                range(1, cnf.num_variables + 1),
                rng.randint(1, cnf.num_variables),
            )
        }
        conditioned = circuit.condition(pinned)
        # brute-force the conditioned count over the full variable set
        expected = 0
        for model in range(1 << cnf.num_variables):
            assignment = {
                v: bool(model >> (v - 1) & 1)
                for v in range(1, cnf.num_variables + 1)
            }
            if any(assignment[v] != want for v, want in pinned.items()):
                continue
            if all(
                any(
                    assignment[abs(l)] == (l > 0) for l in clause
                )
                for clause in cnf.clauses
            ):
                expected += 1
        assert conditioned.count() == expected
        # node ids survive: the conditioned program keeps the same shape
        assert conditioned.num_variables == circuit.num_variables


def test_ddnnf_condition_rejects_uncountable_variables():
    cnf = CNF(2)
    cnf.add_clause([1, 2])
    trace = TraceBuilder()
    counter = ModelCounter(cnf, projection=frozenset({1}), trace=trace)
    counter.count()
    circuit = trace.build(counter.trace_root, 2, countable=frozenset({1}))
    with pytest.raises(ValueError):
        circuit.condition({2: True})
    with pytest.raises(ValueError):
        circuit.condition({7: True})


def test_ddnnf_condition_empty_assignment_is_identity():
    rng = random.Random(7)
    circuit, _count = traced(random_cnf(rng))
    assert circuit.condition({}) is circuit


# -- ValuationCircuit.condition: every question mode ------------------------


def test_condition_resolution_deltas_match_recompile():
    rng = random.Random(99)
    checked = 0
    for seed in range(40):
        db = random_update_db(seed)
        if not db.nulls:
            continue
        parent = ValuationCircuit(db, QUERY)
        delta = random_delta(rng, db)
        if delta is None or not isinstance(
            delta, (ResolveNull, RestrictDomain)
        ):
            continue
        child_db = db.apply(delta)
        derived = parent.condition(delta)
        fresh = ValuationCircuit(child_db, QUERY)
        assert derived.count() == fresh.count()
        assert derived.total_valuations == fresh.total_valuations
        checked += 1
    assert checked >= 10


def test_condition_weighted_and_fraction_weights():
    for seed in (3, 11, 19):
        db = random_update_db(seed)
        if not db.nulls:
            continue
        null = sorted(db.nulls, key=repr)[0]
        domain = sorted(db.domain_of(null), key=repr)
        if len(domain) < 2:
            continue
        delta = RestrictDomain(null, frozenset(domain[:2]))
        derived = ValuationCircuit(db, QUERY).condition(delta)
        fresh = ValuationCircuit(db.apply(delta), QUERY)
        assert derived.weighted_count() == fresh.weighted_count()
        weights = {
            n: {
                value: Fraction(1, 2 + i)
                for i, value in enumerate(
                    sorted(db.apply(delta).domain_of(n), key=repr)
                )
            }
            for n in db.apply(delta).nulls
        }
        assert derived.weighted_count(weights) == fresh.weighted_count(
            weights
        )
        assert isinstance(derived.weighted_count(weights), Fraction)


def test_condition_vectorized_sweep_both_lanes():
    # a conditioned circuit must agree with the fresh compile through the
    # batched pass on both lanes: small weights ride the numpy int64
    # column, huge weights overflow the magnitude bound onto the exact
    # object column
    db = random_update_db(3)
    nulls = sorted(db.nulls, key=repr)
    assert nulls
    null = nulls[0]
    domain = sorted(db.domain_of(null), key=repr)
    delta = RestrictDomain(null, frozenset(domain))
    derived = ValuationCircuit(db, QUERY).condition(delta)
    fresh = ValuationCircuit(db.apply(delta), QUERY)
    for scale in (1, 10**30):
        rows = [
            {
                n: {
                    value: scale * (1 + (index + position) % 3)
                    for position, value in enumerate(
                        sorted(db.domain_of(n), key=repr)
                    )
                }
                for n in db.apply(delta).nulls
            }
            for index in range(5)
        ]
        assert derived.weighted_count_many(rows) == fresh.weighted_count_many(
            rows
        )


def test_condition_marginals_and_sampling_match():
    db = random_update_db(5)
    nulls = sorted(db.nulls, key=repr)
    assert nulls
    null = nulls[0]
    value = sorted(db.domain_of(null), key=repr)[0]
    delta = ResolveNull(null, value)
    derived = ValuationCircuit(db, QUERY).condition(delta)
    fresh = ValuationCircuit(db.apply(delta), QUERY)
    if fresh.count() == 0:
        pytest.skip("query unsatisfiable after this delta")
    assert derived.marginals() == fresh.marginals()
    assert derived.sample_valuation(seed=123) == fresh.sample_valuation(
        seed=123
    )


def test_condition_chain_matches_recompile():
    rng = random.Random(2718)
    for seed in range(12):
        db = random_update_db(seed)
        node = db
        parent = ValuationCircuit(db, QUERY)
        for _step in range(3):
            nulls = sorted(node.nulls, key=repr)
            if not nulls:
                break
            null = rng.choice(nulls)
            domain = sorted(node.domain_of(null), key=repr)
            if rng.random() < 0.5:
                delta = ResolveNull(null, rng.choice(domain))
            else:
                keep = rng.randint(1, len(domain))
                delta = RestrictDomain(null, frozenset(rng.sample(domain, keep)))
            node = node.apply(delta)
            parent = parent.condition(delta)
            assert parent.count() == ValuationCircuit(node, QUERY).count()


def test_condition_rejects_insert_delete():
    db = random_update_db(1)
    circuit = ValuationCircuit(db, QUERY)
    with pytest.raises(ValueError, match="compile the updated instance"):
        circuit.condition(InsertFacts(frozenset({Fact("S", ("v0",))})))


def test_count_delta_helpers_require_and_use_provenance():
    db = random_update_db(2)
    with pytest.raises(ValueError):
        planner.run("val", "delta", db, QUERY)
    nulls = sorted(db.nulls, key=repr)
    null = nulls[0]
    value = sorted(db.domain_of(null), key=repr)[0]
    child = db.apply(ResolveNull(null, value))
    assert planner.run("val", "delta", child, QUERY) == ValuationCircuit(
        child, QUERY
    ).count()
    grown = db.apply(InsertFacts(frozenset({Fact("S", ("v1",))})))
    assert planner.run("val", "delta", grown, QUERY) == ValuationCircuit(
        grown, QUERY
    ).count()
    assert planner.run("comp", "delta", child, None) == CompletionCircuit(
        child, None
    ).count()


# -- every construction path answers like a fresh compile -------------------

PATHS = ("compile", "conditioned", "derived", "rehydrated", "stored")
# paths that condition a parent circuit: #Val only
CONDITIONING = ("conditioned", "derived")


def stats_of(artifact):
    names = ("num_clauses", "heuristic_width", "cache_entries",
             "components_split") + artifact.header
    return {name: getattr(artifact, name) for name in names}


def encoded(kind, db, query):
    """``(cnf, projection, header fields)`` of the kind's encoding."""
    if kind is ValuationCircuit:
        encoding = compile_valuation_cnf(db, query)
        return encoding.cnf, None, {
            "total_valuations": encoding.total_valuations,
            "num_matches": encoding.num_matches,
        }
    encoding = compile_completion_cnf(db, query)
    return encoding.cnf, encoding.projection, {}


def compile_stats(kind, db, query):
    """The stats a compile of ``(db, query)`` reports: the encoding's
    size and the trace-recording counter's own statistics."""
    cnf, projection, header = encoded(kind, db, query)
    counter = ModelCounter(cnf, projection=projection, trace=TraceBuilder())
    counter.count()
    stats = counter.stats()
    return dict(
        header,
        num_clauses=len(cnf),
        heuristic_width=stats["width"],
        cache_entries=stats["cache_entries"],
        components_split=stats["components_split"],
    )


def built_along(path, kind, db, query, delta=None):
    """The artifact of ``db.apply(delta)`` built along ``path``, and the
    stats it must report: a compile's, the parent compile's for an
    artifact conditioned directly or derived through a circuit store
    that holds the parent (with the child's valuation total), and
    unchanged after a round trip through bytes or through a store."""
    instance = db if delta is None else db.apply(delta)
    store = CountCache()
    if path in CONDITIONING:
        if path == "conditioned":
            built = kind(db, query).condition(delta)
        else:
            store.put_circuit(
                fingerprint_instance(db, query, kind.kind), kind(db, query)
            )
            built = instance_circuit(kind.kind, instance, query, store)
            assert store.parent_chain_hits == 1
        return built, dict(
            compile_stats(kind, db, query),
            total_valuations=count_total_valuations(instance),
        )
    if path == "stored":
        instance_circuit(kind.kind, instance, query, store)
        built = instance_circuit(kind.kind, instance, query, store)
        assert store.circuit_hits == 1
    else:
        built = kind(instance, query)
    if path == "rehydrated":
        built = artifact_from_bytes(built.to_bytes(), instance)
    return built, compile_stats(kind, instance, query)


def val_cases():
    db, query = scaling_hard_val_instance(8, seed=1)
    first = db.nulls[0]
    yield db, query, ResolveNull(first, sorted(db.domain_of(first))[0])
    for seed in (3, 5):
        db = random_update_db(seed)
        null = sorted(db.nulls, key=repr)[0]
        domain = sorted(db.domain_of(null), key=repr)
        yield db, QUERY, RestrictDomain(null, frozenset(domain[:2]))


def weight_rows(db, count):
    rng = random.Random(count)
    return [
        {
            null: {
                value: rng.randint(1, 4)
                for value in sorted(db.domain_of(null), key=repr)
            }
            for null in db.nulls
        }
        for _ in range(count)
    ]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", range(3))
def test_valuation_paths_answer_like_a_fresh_compile(path, case):
    db, query, delta = list(val_cases())[case]
    built, expected = built_along(path, ValuationCircuit, db, query, delta)
    instance = db.apply(delta)
    fresh = ValuationCircuit(instance, query)
    assert stats_of(built) == expected
    assert built.count() == fresh.count()
    rows = weight_rows(instance, 200)
    assert built.weighted_count(rows[0]) == fresh.weighted_count(rows[0])
    assert built.weighted_count_many(rows) == fresh.weighted_count_many(rows)
    if fresh.count():
        assert built.marginals(rows[1]) == fresh.marginals(rows[1])
        assert built.sample_valuation(
            seed=7, weights=rows[2]
        ) == fresh.sample_valuation(seed=7, weights=rows[2])


def comp_cases():
    yield scaling_hard_comp_instance(6, seed=6)
    yield scaling_block_comp_instance(4, seed=1)
    yield random_incomplete_db(
        {"R": 1, "S": 1}, seed=4, num_nulls=3,
        facts_per_relation=(1, 3), domain_size=3,
    ), BCQ([Atom("R", ["x"]), Atom("S", ["x"])])


@pytest.mark.parametrize(
    "path", [path for path in PATHS if path not in CONDITIONING]
)
@pytest.mark.parametrize("case", range(3))
def test_completion_paths_answer_like_a_fresh_compile(path, case):
    db, query = list(comp_cases())[case]
    built, expected = built_along(path, CompletionCircuit, db, query)
    fresh = CompletionCircuit(db, query)
    assert stats_of(built) == expected
    assert built.count() == fresh.count()
    facts = compile_completion_cnf(db, query).facts.facts()
    rng = random.Random(case)
    rows = [
        {fact: rng.randint(1, 4) for fact in facts if rng.random() < 0.5}
        for _ in range(200)
    ]
    assert built.weighted_count(rows[0]) == fresh.weighted_count(rows[0])
    assert built.weighted_count_many(rows) == fresh.weighted_count_many(rows)
    if fresh.count():
        assert built.fact_marginals() == fresh.fact_marginals()
        for seed in range(3):
            assert built.sample_completion(
                seed=seed
            ) == fresh.sample_completion(seed=seed)
