"""The incremental engine path: parent-chain cache, update jobs, planner
delta method, and the CLI/JSONL update surfaces.

The contract under test: an ``update`` job answers bit-identically to
compiling the updated instance from scratch.  The cache conditions a
cached ancestor circuit along a resolve/restrict suffix, any other
update compiles the updated instance like an uncached one, and a
derived child is an ordinary store entry that ``--cache-mb`` eviction
drops on its own.
"""

import json

import pytest

from repro.cli import main
from repro.compile.backend import ARTIFACTS, ValuationCircuit
from repro.core.query import Atom, BCQ, Negation, Var
from repro.db.deltas import (
    DeleteFacts,
    InsertFacts,
    ResolveNull,
    RestrictDomain,
    delta_chain,
)
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.engine import (
    BatchEngine,
    CountCache,
    CountJob,
    derive_instance_circuit,
    execute_job,
    fingerprint_instance,
    fingerprint_job,
    instance_circuit,
    instance_db,
    run_batch,
)
from repro.engine.incremental import conditioning_ancestors
from repro.engine.pool import _circuit_keys
from repro.exact import planner
from repro.exact.dispatch import solve

N1 = Null("n1")
N2 = Null("n2")
QUERY = BCQ([Atom("R", (Var("x"), Var("y"))), Atom("S", (Var("x"), Var("y")))])


def base_db():
    return IncompleteDatabase(
        [Fact("R", ("a", N1)), Fact("R", (N2, "b")), Fact("S", ("a", "b"))],
        uniform_domain=["a", "b", "c"],
    )


# -- delta_chain / ancestor lookup -----------------------------------------


def test_delta_chain_orders_nearest_first():
    db = base_db()
    c1 = db.apply(ResolveNull(N1, "b"))
    c2 = c1.apply(RestrictDomain(N2, frozenset({"a"})))
    chain = delta_chain(c2)
    assert [parent for parent, _deltas in chain] == [c1, db]
    assert chain[0][1] == [RestrictDomain(N2, frozenset({"a"}))]
    assert chain[1][1] == [
        ResolveNull(N1, "b"),
        RestrictDomain(N2, frozenset({"a"})),
    ]
    assert delta_chain(db) == []


def test_ancestor_lookup_finds_nearest():
    db = base_db()
    c1 = db.apply(ResolveNull(N1, "b"))
    c2 = c1.apply(RestrictDomain(N2, frozenset({"a"})))
    ancestry = [
        fingerprint_instance(parent, QUERY, "val")
        for parent, _deltas in delta_chain(c2)
    ]
    fp_c1, fp_db = ancestry
    cache = CountCache()
    assert cache.get_ancestor_circuit(ancestry) is None
    cache.put_circuit(fp_db, ValuationCircuit(db, QUERY))
    assert cache.get_ancestor_circuit(ancestry)[0] == fp_db
    cache.put_circuit(fp_c1, ValuationCircuit(c1, QUERY))
    assert cache.get_ancestor_circuit(ancestry)[0] == fp_c1
    assert cache.parent_chain_hits == 2


def test_derive_installs_the_child():
    db = base_db()
    child = db.apply(ResolveNull(N1, "b"))
    cache = CountCache()
    fp_db = fingerprint_instance(db, QUERY, "val")
    fp_child = fingerprint_instance(child, QUERY, "val")
    cache.put_circuit(fp_db, ValuationCircuit(db, QUERY))
    derived = derive_instance_circuit(child, QUERY, "val", cache)
    assert derived is not None
    assert derived.count() == ValuationCircuit(child, QUERY).count()
    assert cache.get_circuit(fp_child) is derived
    assert cache.parent_chain_hits == 1
    assert cache.stats()["circuits"] == 2


def test_derive_walks_the_chain_without_building_databases(monkeypatch):
    """Conditioning from a cached grandparent walks the chain's own nodes:
    no database is built, and the child answers as a fresh compile."""
    db = base_db()
    middle = db.apply(ResolveNull(N1, "b"))
    child = middle.apply(RestrictDomain(N2, frozenset({"a", "c"})))
    cache = CountCache()
    cache.put_circuit(
        fingerprint_instance(db, QUERY, "val"), ValuationCircuit(db, QUERY)
    )
    builds = []
    original = IncompleteDatabase.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IncompleteDatabase, "__init__", counting_init)
    derived = derive_instance_circuit(child, QUERY, "val", cache)
    monkeypatch.undo()
    assert builds == []
    fresh = ValuationCircuit(child, QUERY)
    weights = {N2: {"a": 3, "c": 2}}
    assert derived.count() == fresh.count()
    assert derived.weighted_count(weights) == fresh.weighted_count(weights)
    assert derived.marginals(weights) == fresh.marginals(weights)
    assert cache.parent_chain_hits == 1


def test_derive_without_provenance_or_ancestor_returns_none():
    db = base_db()
    cache = CountCache()
    assert derive_instance_circuit(db, QUERY, "val", cache) is None
    child = db.apply(ResolveNull(N1, "b"))
    assert derive_instance_circuit(child, QUERY, "val", cache) is None


# -- one derivation rule ----------------------------------------------------

RESOLVE = ResolveNull(N1, "b")
RESTRICT = RestrictDomain(N2, frozenset({"a", "b"}))
INSERT = InsertFacts(frozenset({Fact("S", ("b", "b"))}))
DELETE = DeleteFacts(frozenset({Fact("S", ("a", "b"))}))

# delta chain from base_db() -> how many of its nearest ancestors condition
CHAINS = {
    "root": ([], 0),
    "resolve": ([RESOLVE], 1),
    "resolve-restrict": ([RESOLVE, RESTRICT], 2),
    "insert": ([INSERT], 0),
    "delete": ([DELETE], 0),
    "insert-resolve": ([INSERT, RESOLVE], 1),
    "resolve-delete": ([RESOLVE, DELETE], 0),
    "restrict-insert-resolve": ([RESTRICT, INSERT, RESOLVE], 1),
}


def chain_nodes(deltas):
    """``base_db()`` and every instance along ``deltas``, root first."""
    nodes = [base_db()]
    for delta in deltas:
        nodes.append(nodes[-1].apply(delta))
    return nodes


@pytest.mark.parametrize("name", list(CHAINS))
def test_one_rule_for_which_ancestors_condition(name):
    """``conditioning_ancestors`` stops before the first suffix that
    starts with an insert or delete; the engine's circuit-store keys and
    the planner's ``delta`` row read the same rule."""
    deltas, reach = CHAINS[name]
    nodes = chain_nodes(deltas)
    db = nodes[-1]
    assert conditioning_ancestors(db, "val") == [
        (nodes[-2 - back], deltas[len(deltas) - 1 - back:])
        for back in range(reach)
    ]
    assert conditioning_ancestors(db, "comp") == []
    # delta applies exactly where conditioning reaches the root
    entry = next(
        c for c in planner.plan("val", db, QUERY).considered
        if c.method == "delta"
    )
    assert entry.applicable == (0 < reach == len(deltas))
    # the engine keys a job by its own instance, then by the ancestors it
    # conditions from, nearest first: a cached root serves it exactly
    # where conditioning reaches the root
    keys = _circuit_keys(CountJob(problem="val", db=db, query=QUERY), db)
    assert keys == [
        fingerprint_instance(node, QUERY, "val")
        for node in reversed(nodes[len(nodes) - 1 - reach:])
    ]
    root = fingerprint_instance(nodes[0], QUERY, "val")
    assert (root in keys[1:]) == (0 < reach == len(deltas))
    assert _circuit_keys(CountJob(problem="comp", db=db, query=QUERY), db) == [
        fingerprint_instance(db, QUERY, "comp")
    ]


@pytest.mark.parametrize(
    "kind, delta",
    [("val", INSERT), ("val", DELETE), ("comp", RESOLVE), ("comp", RESTRICT)],
    ids=["val-insert", "val-delete", "comp-resolve", "comp-restrict"],
)
def test_children_that_do_not_condition_compile_fresh(kind, delta):
    """A child whose circuit does not condition from its cached parent
    compiles like an uncached instance: no parent-chain hit, and the
    compiled child is installed beside the parent."""
    db = base_db()
    child = db.apply(delta)
    cache = CountCache()
    fp_db = fingerprint_instance(db, QUERY, kind)
    cache.put_circuit(fp_db, ARTIFACTS[kind](db, QUERY))
    assert derive_instance_circuit(child, QUERY, kind, cache) is None
    circuit = instance_circuit(kind, child, QUERY, cache)
    assert circuit.count() == ARTIFACTS[kind](child, QUERY).count()
    assert cache.parent_chain_hits == 0
    assert cache.has_circuit(fp_db)
    assert cache.get_circuit(fingerprint_instance(child, QUERY, kind)) is circuit


def test_conditioning_never_crosses_an_insert():
    """Below an insert only the inserted instance's circuit conditions:
    the cached root is passed over until that instance is cached."""
    db = base_db()
    grown = db.apply(INSERT)
    cache = CountCache()
    cache.put_circuit(
        fingerprint_instance(db, QUERY, "val"), ValuationCircuit(db, QUERY)
    )
    resolved = grown.apply(RESOLVE)
    circuit = instance_circuit("val", resolved, QUERY, cache)
    assert circuit.count() == ValuationCircuit(resolved, QUERY).count()
    assert cache.parent_chain_hits == 0
    cache.put_circuit(
        fingerprint_instance(grown, QUERY, "val"),
        ValuationCircuit(grown, QUERY),
    )
    restricted = grown.apply(RESTRICT)
    circuit = instance_circuit("val", restricted, QUERY, cache)
    assert circuit.count() == ValuationCircuit(restricted, QUERY).count()
    assert cache.parent_chain_hits == 1


def test_cache_stats_report_the_memo_and_the_circuit_store():
    db = base_db()
    cache = CountCache()
    jobs = [
        CountJob(problem="val", db=db, query=QUERY, method="circuit"),
        CountJob(problem="update", db=db, query=QUERY, deltas=[RESOLVE]),
        CountJob(problem="val", db=db, query=QUERY, method="circuit"),
    ]
    results = run_batch(jobs, cache=cache, workers=0)
    assert all(result.ok for result in results)
    stats = cache.stats()
    assert stats["entries"] == 2 and stats["hits"] == 1
    assert stats["circuits"] == 2 and stats["parent_chain_hits"] == 1
    assert not [key for key in stats if "component" in key]
    assert json.loads(json.dumps(stats)) == stats


# -- eviction coherence -----------------------------------------------------


def test_bounded_cache_keeps_children_past_their_parents():
    """A conditioned child holds its own reference to the program it
    shares with its parent, so evicting the parent leaves the child in
    the store, still answering (each entry is charged the whole shared
    program, which keeps the bound conservative)."""
    db = base_db()
    parent_circuit = ValuationCircuit(db, QUERY)
    child = db.apply(ResolveNull(N1, "b"))
    child_size = parent_circuit.condition(ResolveNull(N1, "b")).memory_bytes()
    other = IncompleteDatabase(
        [Fact("R", ("a", N1)), Fact("S", ("c", "c"))],
        uniform_domain=["a", "b", "c"],
    )
    other_circuit = ValuationCircuit(other, QUERY)
    assert other_circuit.memory_bytes() <= parent_circuit.memory_bytes()
    cache = CountCache(
        max_circuit_bytes=parent_circuit.memory_bytes() + child_size
    )
    fp_parent = fingerprint_instance(db, QUERY, "val")
    fp_child = fingerprint_instance(child, QUERY, "val")
    cache.put_circuit(fp_parent, parent_circuit)
    derive_instance_circuit(child, QUERY, "val", cache, fingerprint=fp_child)
    assert cache.has_circuit(fp_parent) and cache.has_circuit(fp_child)
    # the parent is the least recently used circuit, so an unrelated
    # one evicts it and only it
    cache.put_circuit(fingerprint_instance(other, QUERY, "val"), other_circuit)
    assert not cache.has_circuit(fp_parent)
    assert cache.circuit_evictions == 1
    kept = cache.get_circuit(fp_child)
    assert kept.count() == ValuationCircuit(child, QUERY).count()


# -- update jobs ------------------------------------------------------------


def test_update_job_matches_fresh_compile():
    db = base_db()
    deltas = [ResolveNull(N1, "b"), RestrictDomain(N2, frozenset({"a", "c"}))]
    job = CountJob(problem="update", db=db, query=QUERY, deltas=deltas)
    child = instance_db(job)
    result = execute_job(job, CountCache())
    assert result.ok
    assert result.count == ValuationCircuit(child, QUERY).count()


def test_update_job_validation():
    db = base_db()
    with pytest.raises(ValueError):
        CountJob(problem="update", db=db, query=QUERY)  # no deltas
    with pytest.raises(ValueError):
        CountJob(problem="update", db=db, query=QUERY, deltas=["bogus"])
    with pytest.raises(ValueError):
        CountJob(
            problem="val", db=db, query=QUERY,
            deltas=[ResolveNull(N1, "b")],  # deltas need problem=update
        )


def test_update_job_fingerprint_matches_val_on_child():
    db = base_db()
    delta = ResolveNull(N1, "b")
    update = CountJob(problem="update", db=db, query=QUERY, deltas=[delta])
    val = CountJob(problem="val", db=db.apply(delta), query=QUERY)
    assert fingerprint_job(update) == fingerprint_job(val)
    # an invalid chain is simply uncacheable, not an error
    bad = CountJob(
        problem="update", db=db, query=QUERY,
        deltas=[ResolveNull(Null("ghost"), "a")],
    )
    assert fingerprint_job(bad) is None


def test_update_batch_derives_from_cached_parent():
    db = base_db()
    cache = CountCache()
    jobs = [
        CountJob(problem="val", db=db, query=QUERY, method="circuit"),
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[ResolveNull(N1, "b")],
        ),
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[
                ResolveNull(N1, "b"),
                RestrictDomain(N2, frozenset({"a", "c"})),
            ],
        ),
    ]
    results = run_batch(jobs, cache=cache, workers=1)
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        expected = ValuationCircuit(instance_db(job), QUERY).count()
        assert result.count == expected
    assert results[1].method == "delta"
    assert results[2].method == "delta"
    assert cache.stats()["parent_chain_hits"] >= 2


def insert_delete_updates(db):
    return [
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[InsertFacts(frozenset({Fact("S", ("b", "b"))}))],
        ),
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[DeleteFacts(frozenset({Fact("S", ("a", "b"))}))],
        ),
    ]


def test_update_batch_compiles_insert_delete():
    db = base_db()
    cache = CountCache()
    jobs = [
        CountJob(problem="val", db=db, query=QUERY, method="circuit"),
        *insert_delete_updates(db),
    ]
    results = run_batch(jobs, cache=cache, workers=1)
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.count == ValuationCircuit(instance_db(job), QUERY).count()
        assert result.method == "circuit"
    assert cache.parent_chain_hits == 0


def test_engine_derives_only_by_conditioning():
    """One derivation rule: with the base circuit cached, an insert or
    delete child compiles in a worker like any uncached instance, and
    only the resolve child derives in the parent, by conditioning."""
    db = base_db()
    with BatchEngine(workers=2) as engine:
        (base,) = engine.run([
            CountJob(problem="val", db=db, query=QUERY, method="circuit")
        ])
        assert base.ok, base.error
        hits = engine.cache.parent_chain_hits
        jobs = [
            *insert_delete_updates(db),
            CountJob(
                problem="update", db=db, query=QUERY,
                deltas=[ResolveNull(N1, "b")],
            ),
        ]
        results = engine.run(jobs)
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.count == ValuationCircuit(instance_db(job), QUERY).count()
    for result in results[:2]:
        assert "queue_seconds" in result.meta["metrics"], result.meta
        assert result.method == "circuit"
    assert results[2].method == "delta"
    assert engine.cache.parent_chain_hits == hits + 1


def test_update_job_on_a_non_ucq_falls_back_to_brute():
    # Neither delta nor its circuit fallback compiles a negated query, so
    # the forced delta of an update job degrades along the chain to brute.
    db = base_db()
    delta = ResolveNull(N1, "b")
    update = execute_job(
        CountJob(
            problem="update", db=db, query=Negation(QUERY), deltas=[delta]
        ),
        CountCache(),
    )
    val = execute_job(
        CountJob(problem="val", db=db.apply(delta), query=Negation(QUERY)),
        CountCache(),
    )
    assert update.ok, update.error
    assert val.ok and val.method == "brute"
    assert (update.count, update.method) == (val.count, "brute")


def test_update_job_error_reporting():
    db = base_db()
    job = CountJob(
        problem="update", db=db, query=QUERY,
        deltas=[ResolveNull(Null("ghost"), "a")],
    )
    result = execute_job(job, CountCache())
    assert not result.ok
    assert result.error


def test_update_jobs_in_multiprocess_batch():
    db = base_db()
    cache = CountCache()
    jobs = [CountJob(problem="val", db=db, query=QUERY, method="circuit")] + [
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[ResolveNull(N1, value)],
        )
        for value in ("a", "b", "c")
    ]
    engine = BatchEngine(cache=cache, workers=2)
    results = engine.run(jobs)
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.count == ValuationCircuit(instance_db(job), QUERY).count()


# -- planner ----------------------------------------------------------------


def test_planner_prefers_delta_on_conditionable_chains():
    db = base_db()
    child = db.apply(ResolveNull(N1, "b"))
    built = planner.plan("val", child, QUERY)
    assert built.chosen == "delta"
    entry = next(c for c in built.considered if c.method == "delta")
    assert "conditioning" in entry.reason


def test_planner_degrades_delta_off_conditionable_chains():
    db = base_db()
    child = db.apply(InsertFacts(frozenset({Fact("S", ("b", "b"))})))
    built = planner.plan("val", child, QUERY)
    entry = next(c for c in built.considered if c.method == "delta")
    assert not entry.applicable
    assert entry.verdict == "n/a"
    assert "resolve/restrict" in entry.reason
    assert built.chosen != "delta"
    forced = planner.plan("val", child, QUERY, method="delta")
    assert forced.chosen == "circuit"
    (note,) = forced.notes
    assert "degrading to 'circuit'" in note
    answer = solve("val", child, QUERY, method="delta")
    assert answer.method == "circuit"
    assert answer.count == ValuationCircuit(child, QUERY).count()


def test_planner_delta_falls_back_without_provenance():
    db = base_db()
    built = planner.plan("val", db, QUERY, method="delta")
    assert built.chosen == "circuit"
    assert any("degrading" in note for note in built.notes)


def test_planner_delta_runs_bit_identical():
    db = base_db()
    child = db.apply(ResolveNull(N1, "b"))
    assert planner.run("val", "delta", child, QUERY) == (
        ValuationCircuit(child, QUERY).count()
    )


# -- CLI and JSONL surfaces -------------------------------------------------


DB_TEXT = "domain a b c\nR(a, ?n1)\nR(?n2, b)\nS(a, b)\n"


def test_cli_update_conditioning(tmp_path, capsys):
    path = tmp_path / "db.idb"
    path.write_text(DB_TEXT)
    rc = main([
        "update", "--db", str(path), "--query", "R(x,y), S(x,y)",
        "--resolve", "n1=b", "--restrict", "n2=a,c", "--json",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    db = base_db()
    child = db.apply(ResolveNull(N1, "b")).apply(
        RestrictDomain(N2, frozenset({"a", "c"}))
    )
    assert record["count"] == ValuationCircuit(child, QUERY).count()
    assert record["method"] == "delta"
    assert record["deltas"] == 2
    assert record["derivation"]


def test_cli_update_plan_shows_conditioning(tmp_path, capsys):
    path = tmp_path / "db.idb"
    path.write_text(DB_TEXT)
    rc = main([
        "update", "--db", str(path), "--query", "R(x,y), S(x,y)",
        "--resolve", "n1=b", "--plan",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta" in out
    assert "conditioning" in out


def test_cli_update_rejects_bad_delta(tmp_path, capsys):
    path = tmp_path / "db.idb"
    path.write_text(DB_TEXT)
    assert main(["update", "--db", str(path), "--query", "R(x,y)"]) == 2
    assert (
        main([
            "update", "--db", str(path), "--query", "R(x,y)",
            "--resolve", "ghost=z",
        ])
        == 2
    )


def test_jsonl_update_jobs_round_trip(tmp_path, capsys):
    db_path = tmp_path / "db.idb"
    db_path.write_text(DB_TEXT)
    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text(
        json.dumps({
            "problem": "val", "db": "db.idb",
            "query": "R(x,y), S(x,y)", "method": "circuit",
            "label": "base",
        }) + "\n" + json.dumps({
            "problem": "update", "db": "db.idb",
            "query": "R(x,y), S(x,y)",
            "deltas": [["resolve", "n1=b"]], "label": "u1",
        }) + "\n"
    )
    rc = main(["batch", "--jobs", str(jobs_path), "--workers", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert lines[1]["label"] == "u1"
    assert lines[1]["method"] == "delta"
    child = base_db().apply(ResolveNull(N1, "b"))
    assert lines[1]["count"] == ValuationCircuit(child, QUERY).count()
    assert "parent-chain" in captured.err


def test_jsonl_rejects_malformed_deltas(tmp_path):
    from repro.engine.jsonl import JobSyntaxError, read_jobs

    jobs_path = tmp_path / "jobs.jsonl"
    jobs_path.write_text(
        json.dumps({
            "problem": "update", "db_text": DB_TEXT,
            "query": "R(x,y)", "deltas": ["resolve n1=b"],
        }) + "\n"
    )
    with open(jobs_path) as handle:
        with pytest.raises(JobSyntaxError):
            list(read_jobs(handle, base_dir=str(tmp_path)))
