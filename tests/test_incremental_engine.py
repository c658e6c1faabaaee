"""The incremental engine path: parent-chain cache, update jobs, planner
delta method, and the CLI/JSONL update surfaces.

The contract under test: an ``update`` job answers bit-identically to
compiling the updated instance from scratch, while the cache serves the
answer from an ancestor circuit (conditioning) or the component store
(splicing) whenever it can — and ``--cache-mb`` eviction never leaves a
derived child outliving its parent.
"""

import json

import pytest

from repro.cli import main
from repro.compile.backend import ValuationCircuit
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
    instance_db,
    run_batch,
)
from repro.engine import cache as cache_module
from repro.exact import planner

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


def test_derive_installs_with_parent_link():
    db = base_db()
    child = db.apply(ResolveNull(N1, "b"))
    cache = CountCache()
    fp_db = fingerprint_instance(db, QUERY, "val")
    fp_child = fingerprint_instance(child, QUERY, "val")
    cache.put_circuit(fp_db, ValuationCircuit(db, QUERY))
    derived = derive_instance_circuit(child, QUERY, "val", cache)
    assert derived is not None
    assert derived.count() == ValuationCircuit(child, QUERY).count()
    assert cache.has_circuit(fp_child)
    assert cache.parent_chain_hits == 1
    # evicting the parent takes the derived child with it
    cache._drop_circuit_tree(fp_db)
    assert not cache.has_circuit(fp_child)
    assert cache.circuit_evictions == 2


def test_derive_without_provenance_or_ancestor_returns_none():
    db = base_db()
    cache = CountCache()
    assert derive_instance_circuit(db, QUERY, "val", cache) is None
    child = db.apply(ResolveNull(N1, "b"))
    assert derive_instance_circuit(child, QUERY, "val", cache) is None


# -- eviction coherence -----------------------------------------------------


def test_bounded_cache_drops_children_with_parents():
    db = base_db()
    parent_circuit = ValuationCircuit(db, QUERY)
    size = parent_circuit.memory_bytes()
    cache = CountCache(max_circuit_bytes=size * 3)
    fp_parent = fingerprint_instance(db, QUERY, "val")
    cache.put_circuit(fp_parent, parent_circuit)
    child = db.apply(ResolveNull(N1, "b"))
    fp_child = fingerprint_instance(child, QUERY, "val")
    derive_instance_circuit(child, QUERY, "val", cache, fingerprint=fp_child)
    assert cache.has_circuit(fp_parent) and cache.has_circuit(fp_child)
    # an unrelated circuit large enough to force eviction of the oldest
    # tree (the parent) must drop the derived child too
    other = IncompleteDatabase(
        [Fact("R", (N1, N2)), Fact("S", ("c", "c"))],
        uniform_domain=["a", "b", "c"],
    )
    fp_other = fingerprint_instance(other, QUERY, "val")
    cache.put_circuit(fp_other, ValuationCircuit(other, QUERY))
    if not cache.has_circuit(fp_parent):
        assert not cache.has_circuit(fp_child)


def test_component_store_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(cache_module, "DEFAULT_MAX_COMPONENTS", 2)
    cache = CountCache()
    cache.put_component(("a",), {"count": 1})
    cache.put_component(("b",), {"count": 2})
    assert cache.get_component(("a",)) == {"count": 1}
    cache.put_component(("c",), {"count": 3})  # evicts ("b",), the LRU
    assert cache.get_component(("b",)) is None
    assert cache.get_component(("a",)) is not None
    assert cache.stats()["components"] == 2


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


def test_update_batch_splices_insert_delete():
    db = base_db()
    cache = CountCache()
    jobs = [
        CountJob(problem="val", db=db, query=QUERY, method="circuit"),
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[InsertFacts(frozenset({Fact("S", ("b", "b"))}))],
        ),
        CountJob(
            problem="update", db=db, query=QUERY,
            deltas=[DeleteFacts(frozenset({Fact("S", ("a", "b"))}))],
        ),
    ]
    results = run_batch(jobs, cache=cache, workers=1)
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.count == ValuationCircuit(instance_db(job), QUERY).count()


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
    assert entry.detail["mode"] == "condition"
    assert "conditioning" in entry.reason


def test_planner_passes_over_delta_splices():
    db = base_db()
    child = db.apply(InsertFacts(frozenset({Fact("S", ("b", "b"))})))
    built = planner.plan("val", child, QUERY)
    entry = next(c for c in built.considered if c.method == "delta")
    assert entry.applicable
    assert entry.verdict == "passed over"
    assert entry.detail["mode"] == "splice"
    assert built.chosen != "delta"


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
