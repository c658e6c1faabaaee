"""Command-line interface: classify queries and count over database files.

Examples::

    repro-count classify "R(x,x)"
    repro-count count --mode val --query "R(x), S(x)" --db instance.idb
    repro-count count --mode comp --db instance.idb          # all completions
    repro-count count --mode val --query "R(x,x)" --db instance.idb \
        --method circuit --json                              # machine-readable
    repro-count explain --query "R(x,x)" --db instance.idb --marginals
    repro-count approx --query "R(x,y)" --db instance.idb --epsilon 0.05
    repro-count sweep --query "R(x,y)" --db instance.idb \
        --weights '[{"n1": {"a": 2, "b": 1}}, null]'     # one count per row
    repro-count batch --jobs jobs.jsonl --workers 4 --cache-mb 64 \
        --out results.jsonl
    repro-count show --db instance.idb

Database files use the :mod:`repro.io.databases` text format; batch job
files use the JSONL format of :mod:`repro.engine.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import __version__
from repro.core.classify import classify, outside_table1
from repro.core.query import BCQ, UCQ
from repro.db.valuation import count_total_valuations
from repro.engine.jsonl import JobSyntaxError
from repro.exact import planner
from repro.exact.brute import DEFAULT_BUDGET, BruteForceBudgetExceeded
from repro.exact.dispatch import solve
from repro.io.databases import DatabaseSyntaxError, parse_database
from repro.io.queries import QuerySyntaxError, parse_query

#: Bad input — an unreadable file, malformed query, database, job or
#: weights text, or a ``--method`` outside the problem's vocabulary.
#: :func:`main` reports one of these as one stderr line and exit status 2.
_INPUT_ERRORS = (
    OSError,
    QuerySyntaxError,
    DatabaseSyntaxError,
    JobSyntaxError,
    planner.UnknownMethod,
)

#: A well-formed question the requested method cannot answer: ``poly`` on
#: an instance no closed form covers, or brute force past its budget.
#: One stderr line, exit 1.
_UNANSWERED = (planner.NoPolynomialAlgorithm, BruteForceBudgetExceeded)


def _load_db(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_database(handle.read())


def _load_json(text: str, context: str):
    """``json.loads`` whose error names the flag or file line it read."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobSyntaxError("%s: invalid JSON (%s)" % (context, exc)) from exc


def _print_trace(captured) -> None:
    """Render a capture's phase tree to stderr (stdout stays parseable)."""
    from repro.obs import render_span_tree

    if captured.roots:
        print("phase trace:", file=sys.stderr)
        print(render_span_tree(captured.roots), file=sys.stderr)


def _cmd_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    outside = outside_table1(query)
    if outside is not None:
        print("repro-count classify: %s" % outside, file=sys.stderr)
        return 2
    assert isinstance(query, BCQ)  # outside_table1 admits only BCQs
    print(classify(query).to_table())
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from repro.obs import capture, span

    db = _load_db(args.db)
    query = parse_query(args.query) if args.query else None
    started = time.perf_counter()
    with capture() as captured:
        with span("cli.count", mode=args.mode):
            count, method = _count(args, db, query, args.budget)
    elapsed = time.perf_counter() - started
    if args.trace:
        _print_trace(captured)
    if args.json:
        print(
            json.dumps(
                {
                    "mode": args.mode,
                    "count": count,
                    "method": method,
                    "seconds": round(elapsed, 6),
                }
            )
        )
    else:
        print(count)
    return 0


def _count(args: argparse.Namespace, db, query, budget) -> tuple[int, str]:
    """``(count, method)`` of one ``--mode`` question: a single planned
    :func:`solve` call (``#Val`` without a query is the valuation total)."""
    if args.mode == "val" and query is None:
        return count_total_valuations(db), "total"
    answer = solve(args.mode, db, query, method=args.method, budget=budget)
    return answer.count, answer.method


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.compile.backend import explain

    if args.weights and not args.marginals:
        print(
            "--weights only applies together with --marginals",
            file=sys.stderr,
        )
        return 2
    if args.mode == "comp" and args.marginals:
        print(
            "--marginals applies to --mode val (per-null tables)",
            file=sys.stderr,
        )
        return 2
    if args.mode == "val" and not args.query:
        print("--mode val needs --query", file=sys.stderr)
        return 2
    from repro.obs import capture, span

    db = _load_db(args.db)
    query = parse_query(args.query) if args.query else None
    started = time.perf_counter()
    marginals = None
    with capture() as captured:
        with span("cli.explain", mode=args.mode):
            report, compiled = explain(args.mode, db, query)
            if args.marginals:
                weights = None
                if args.weights:
                    from repro.engine.jsonl import parse_weights

                    weights = parse_weights(
                        _load_json(args.weights, "--weights"), db, "--weights"
                    )
                try:
                    marginals = compiled.marginals(weights)
                except ValueError as exc:
                    # Unsatisfiable query, or weights zeroing out every
                    # satisfying valuation — either way there is no
                    # distribution to report on.
                    print("%s" % exc, file=sys.stderr)
                    return 1
    elapsed = time.perf_counter() - started
    if args.trace:
        _print_trace(captured)

    if args.json:
        record = {
            "mode": report.mode,
            "count": report.count,
            "num_variables": report.num_variables,
            "num_clauses": report.num_clauses,
            "heuristic_width": report.heuristic_width,
            "cache_entries": report.cache_entries,
            "components_split": report.components_split,
            "circuit_nodes": report.circuit_nodes,
            "circuit_edges": report.circuit_edges,
            "seconds": round(elapsed, 6),
        }
        if marginals is not None:
            from repro.engine.jobs import marginals_record

            record["marginals"] = marginals_record(marginals)
        print(json.dumps(record))
        return 0

    print("mode:             %s" % report.mode)
    print("count:            %d" % report.count)
    print("cnf:              %d variables, %d clauses"
          % (report.num_variables, report.num_clauses))
    print("heuristic width:  %s" % report.heuristic_width)
    print("circuit:          %d nodes, %d edges"
          % (report.circuit_nodes, report.circuit_edges))
    if marginals is not None:
        print("marginals (P[null = value | query holds]):")
        for null in sorted(marginals, key=repr):
            for value, probability in sorted(
                marginals[null].items(), key=repr
            ):
                print(
                    "  %-12s %-10s %s  (= %.6g)"
                    % (repr(null), repr(value), probability, float(probability))
                )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    db = _load_db(args.db)
    query = parse_query(args.query) if args.query else None
    if args.problem != "comp" and query is None:
        print("--problem %s needs --query" % args.problem, file=sys.stderr)
        return 2
    built = planner.plan(args.problem, db, query, args.method)
    if args.json:
        print(json.dumps(built.to_dict()))
    else:
        print(built.explain())
    # A plan that could not choose (poly with no closed form, no applicable
    # method) still prints its full analysis but signals failure.
    return 0 if built.chosen is not None else 1


class _DeltaAction(argparse.Action):
    """Collect ``--resolve/--restrict/--insert/--delete`` flags *in CLI
    order* into one ``deltas`` list — updates are a chain, and applying
    a resolve before or after a restrict of the same null differs."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest, None) or []
        items.append((self.const, values))
        setattr(namespace, self.dest, items)


def _cmd_update(args: argparse.Namespace) -> int:
    """Apply a delta chain to a database and count on the updated instance.

    The planner sees the derived instance's provenance and routes it to
    the ``delta`` method (``--plan`` shows the choice without solving);
    a one-shot command holds no ancestor circuit to condition, so the
    updated instance compiles once.
    """
    from repro.io.databases import parse_delta
    from repro.obs import capture, span

    db = _load_db(args.db)
    query = parse_query(args.query) if args.query else None
    if args.mode == "val" and query is None:
        print("--mode val needs --query", file=sys.stderr)
        return 2
    if not args.deltas:
        print(
            "provide at least one --resolve/--restrict/--insert/--delete",
            file=sys.stderr,
        )
        return 2
    deltas = [parse_delta(kind, text) for kind, text in args.deltas]
    child = db
    try:
        for delta in deltas:
            child = child.apply(delta)
    except (KeyError, ValueError) as exc:
        print("cannot apply delta: %s" % exc, file=sys.stderr)
        return 2

    if args.plan:
        built = planner.plan(args.mode, child, query, args.method)
        if args.json:
            print(json.dumps(built.to_dict()))
        else:
            print(built.explain())
        return 0 if built.chosen is not None else 1

    with capture() as captured:
        with span("cli.update", mode=args.mode, deltas=len(deltas)):
            answer = solve(
                args.mode, child, query,
                method=args.method, budget=args.budget,
            )
    if args.trace:
        _print_trace(captured)
    if args.json:
        from repro.engine.fingerprint import fingerprint_derivation

        print(
            json.dumps(
                {
                    "mode": args.mode,
                    "count": answer.count,
                    "method": answer.method,
                    "deltas": len(deltas),
                    "derivation": fingerprint_derivation(
                        child, query, kind=args.mode
                    ),
                    "seconds": round(answer.seconds, 6),
                }
            )
        )
    else:
        print(answer.count)
        print(
            "update: %d deltas, method %s, %.3fs"
            % (len(deltas), answer.method, answer.seconds),
            file=sys.stderr,
        )
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    from decimal import Decimal

    from repro.approx.fpras import KarpLubyEstimator

    if not (0 < args.epsilon < 1 and 0 < args.delta < 1):
        print("need 0 < --epsilon < 1 and 0 < --delta < 1", file=sys.stderr)
        return 2
    db = _load_db(args.db)
    query = parse_query(args.query)
    if not isinstance(query, (BCQ, UCQ)):
        print("the FPRAS applies to BCQs and UCQs", file=sys.stderr)
        return 2
    started = time.perf_counter()
    estimator = KarpLubyEstimator(db, query, seed=args.seed)
    report = estimator.estimate(args.epsilon, args.delta)
    elapsed = time.perf_counter() - started
    if args.json:
        print(
            json.dumps(
                {
                    "estimate": report.estimate,
                    "method": "karp-luby",
                    "epsilon": args.epsilon,
                    "delta": args.delta,
                    "events": report.num_events,
                    "samples": report.samples,
                    "seconds": round(elapsed, 6),
                }
            )
        )
        return 0
    estimate = report.estimate  # an int past the float range
    shown = "%.6g" % estimate if isinstance(estimate, float) else format(Decimal(estimate), ".6g")
    print(
        "%s  (events=%d, samples=%d, weight-bound=%d)"
        % (
            shown,
            report.num_events,
            report.samples,
            report.total_event_weight,
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Answer many weightings of one instance from a single plan/compile.

    Rows arrive as a JSON array (inline ``--weights`` or one-array-per-file
    ``--weights-jsonl`` with one JSON row object per line); ``null`` rows
    mean default (uniform-unit) weights.  The whole batch is one ``solve``
    call on the ``sweep`` problem, so a circuit-backed plan compiles once
    and evaluates every row as a vectorized pass.
    """
    from repro.engine.jsonl import parse_weights

    if (args.weights is None) == (args.weights_jsonl is None):
        print(
            "provide exactly one of --weights (inline JSON array) or "
            "--weights-jsonl (file of JSON row objects)",
            file=sys.stderr,
        )
        return 2
    db = _load_db(args.db)
    query = parse_query(args.query)
    if args.weights is not None:
        raw_rows = _load_json(args.weights, "--weights")
        if not isinstance(raw_rows, list):
            print("--weights must be a JSON array of rows", file=sys.stderr)
            return 2
        contexts = ["--weights[%d]" % i for i in range(len(raw_rows))]
    else:
        raw_rows = []
        contexts = []
        with open(args.weights_jsonl, "r", encoding="utf-8") as handle:
            for line_number, raw_line in enumerate(handle, start=1):
                line = raw_line.strip()
                if not line or line.startswith("#"):
                    continue
                context = "%s line %d" % (args.weights_jsonl, line_number)
                raw_rows.append(_load_json(line, context))
                contexts.append(context)
    rows = [
        None if row is None else parse_weights(row, db, context)
        for row, context in zip(raw_rows, contexts)
    ]

    answer = solve(
        "sweep", db, query,
        method=args.method, weights=rows, budget=args.budget,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "problem": "sweep",
                    "rows": len(rows),
                    "counts": answer.count,
                    "method": answer.method,
                    "seconds": round(answer.seconds, 6),
                }
            )
        )
        return 0
    for count in answer.count:
        print(count)
    print(
        "sweep: %d weightings, method %s, %.3fs"
        % (len(rows), answer.method, answer.seconds),
        file=sys.stderr,
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine import BatchEngine
    from repro.engine.jsonl import read_jobs, write_results

    base_dir = os.path.dirname(os.path.abspath(args.jobs))
    with open(args.jobs, "r", encoding="utf-8") as handle:
        jobs = list(read_jobs(handle, base_dir=base_dir))
    if not jobs:
        print("no jobs in %s" % args.jobs, file=sys.stderr)
        return 2

    cache = None
    if args.cache_mb is not None:
        from repro.engine import CountCache

        cache = CountCache(
            max_circuit_bytes=int(args.cache_mb * 1024 * 1024)
        )
    from repro.obs import (
        JsonlSink,
        add_sink,
        format_latency_summary,
        remove_sink,
        summarize_latencies,
    )

    engine = BatchEngine(workers=args.workers, cache=cache)
    sink = None
    if args.metrics_jsonl:
        sink = JsonlSink(args.metrics_jsonl)
        add_sink(sink)
    started = time.perf_counter()
    try:
        results = engine.run(jobs)
    finally:
        if sink is not None:
            remove_sink(sink)
            sink.close()
    elapsed = time.perf_counter() - started

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_results(handle, results)
    else:
        write_results(sys.stdout, results)

    errors = sum(1 for result in results if not result.ok)
    fallbacks = sum(1 for result in results if result.meta.get("fallback"))
    stats = engine.cache.stats()
    print(
        "batch: %d jobs, %d errors, %d serial fallbacks, "
        "cache hit rate %.1f%%, %d circuits "
        "(%.2f MiB held), %.3fs wall"
        % (
            len(results),
            errors,
            fallbacks,
            100.0 * engine.cache.hit_rate,
            stats["circuits"],
            stats["circuit_bytes"] / (1024.0 * 1024.0),
            elapsed,
        ),
        file=sys.stderr,
    )
    print(
        "cache: %d memo hits / %d misses, %d circuit hits / %d misses, "
        "%d circuits evicted, %d parent-chain derivations"
        % (
            stats["hits"],
            stats["misses"],
            stats["circuit_hits"],
            stats["circuit_misses"],
            stats["circuit_evictions"],
            stats["parent_chain_hits"],
        ),
        file=sys.stderr,
    )
    print(
        format_latency_summary(summarize_latencies(results)), file=sys.stderr
    )
    if sink is not None:
        print(
            "metrics: %d span/event records -> %s"
            % (sink.records, args.metrics_jsonl),
            file=sys.stderr,
        )
    return 1 if errors else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render an observability snapshot.

    Two sources: ``--metrics-jsonl`` aggregates a span/event stream a
    previous run wrote (exact quantiles, recomputed from the raw records);
    ``--db`` runs one instrumented solve right here and reports its
    capture: the solve's counters and a summary per span name.
    """
    from repro.obs import (
        aggregate_metrics_jsonl,
        capture,
        format_snapshot,
        render_span_tree,
        span,
        summarize_capture,
    )

    if args.metrics_jsonl:
        digest = aggregate_metrics_jsonl(args.metrics_jsonl)
        if args.json:
            print(json.dumps(digest))
            return 0
        print("records: %d" % digest["records"])
        print(
            format_snapshot(
                {"counters": digest["events"], "spans": digest["spans"]}
            )
        )
        return 0

    if not args.db:
        print("stats needs --metrics-jsonl or --db", file=sys.stderr)
        return 2
    db = _load_db(args.db)
    query = parse_query(args.query) if args.query else None
    with capture() as captured:
        with span("cli.stats", mode=args.mode):
            count, _method = _count(args, db, query, DEFAULT_BUDGET)
    snapshot = summarize_capture(captured)
    if args.json:
        print(
            json.dumps(
                {
                    "count": count,
                    "snapshot": snapshot,
                    "trace": [root.to_dict() for root in captured.roots],
                },
                default=str,
            )
        )
        return 0
    print("count: %d" % count)
    print(render_span_tree(captured.roots))
    print(format_snapshot(snapshot))
    return 0


def _cmd_cite(args: argparse.Namespace) -> int:
    from repro.paperindex import all_results, find_results, format_result

    results = find_results(args.result) if args.result else all_results()
    if not results:
        print("no indexed result matches %r" % args.result, file=sys.stderr)
        return 1
    print("\n\n".join(format_result(result) for result in results))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    db = _load_db(args.db)
    print(repr(db))
    print("relations: %s" % ", ".join(sorted(db.relations)))
    print("nulls: %s" % ", ".join(repr(n) for n in db.nulls))
    print("total valuations: %d" % count_total_valuations(db))
    return 0


def _method_help(*problems: str) -> str:
    """The ``--method`` vocabulary of ``problems``, read off the registry."""
    return " | ".join(
        dict.fromkeys(
            name for problem in problems for name in planner.method_names(problem)
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-count",
        description="Counting problems over incomplete databases "
        "(Arenas, Barcelo, Monet; PODS 2020)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version="repro-count %s" % __version__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="dichotomy verdicts (Table 1) for an sjfBCQ"
    )
    p_classify.add_argument("query", help="e.g. \"R(x,y), S(y)\"")
    p_classify.set_defaults(func=_cmd_classify)

    p_count = sub.add_parser("count", help="exact #Val / #Comp")
    p_count.add_argument("--mode", choices=("val", "comp"), required=True)
    p_count.add_argument("--db", required=True, help="database file")
    p_count.add_argument("--query", help="query text (optional for comp)")
    p_count.add_argument(
        "--method", default="auto", help=_method_help("val", "comp")
    )
    p_count.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max valuations for brute force",
    )
    p_count.add_argument(
        "--json",
        action="store_true",
        help="emit {mode, count, method, seconds} as JSON",
    )
    p_count.add_argument(
        "--trace",
        action="store_true",
        help="print the nested phase tree with timings to stderr",
    )
    p_count.set_defaults(func=_cmd_count)

    p_explain = sub.add_parser(
        "explain",
        help="compile one instance and report counter/circuit statistics",
    )
    p_explain.add_argument("--db", required=True, help="database file")
    p_explain.add_argument("--query", help="query text (optional for comp)")
    p_explain.add_argument("--mode", choices=("val", "comp"), default="val")
    p_explain.add_argument(
        "--marginals",
        action="store_true",
        help="report P[null = value | query holds] for every pair "
        "(mode val; one circuit, two passes)",
    )
    p_explain.add_argument(
        "--weights",
        default=None,
        help="JSON {null: {value: weight}} biasing the valuation "
        "distribution of --marginals",
    )
    p_explain.add_argument(
        "--json",
        action="store_true",
        help="emit the report (and marginals) as JSON",
    )
    p_explain.add_argument(
        "--trace",
        action="store_true",
        help="print the nested phase tree with timings to stderr",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_plan = sub.add_parser(
        "plan",
        help="explain the planner's method choice (chosen algorithm, "
        "rejected alternatives, reasons) without solving",
    )
    p_plan.add_argument(
        "--problem",
        choices=planner.PROBLEMS,
        default="val",
        help="problem kind the plan is for (default val)",
    )
    p_plan.add_argument("--db", required=True, help="database file")
    p_plan.add_argument("--query", help="query text (optional for comp)")
    p_plan.add_argument(
        "--method", default="auto", help=_method_help(*planner.PROBLEMS)
    )
    p_plan.add_argument(
        "--json",
        action="store_true",
        help="emit the plan record as JSON",
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_update = sub.add_parser(
        "update",
        help="apply a delta chain (resolve/restrict/insert/delete) and "
        "count on the updated instance; resolution-only chains are "
        "answered by conditioning the parent circuit",
    )
    p_update.add_argument("--mode", choices=("val", "comp"), default="val")
    p_update.add_argument("--db", required=True, help="database file")
    p_update.add_argument("--query", help="query text (optional for comp)")
    p_update.add_argument(
        "--resolve", dest="deltas", action=_DeltaAction, const="resolve",
        default=None, metavar="NULL=VALUE",
        help="pin a null to a constant of its domain (repeatable)",
    )
    p_update.add_argument(
        "--restrict", dest="deltas", action=_DeltaAction, const="restrict",
        metavar="NULL=V1,V2,...",
        help="shrink a null's domain to the listed values (repeatable)",
    )
    p_update.add_argument(
        "--insert", dest="deltas", action=_DeltaAction, const="insert",
        metavar="FACTS",
        help="add ';'-separated facts, e.g. \"R(a, ?n3) where n3: a b\" "
        "(repeatable)",
    )
    p_update.add_argument(
        "--delete", dest="deltas", action=_DeltaAction, const="delete",
        metavar="FACTS",
        help="remove ';'-separated existing facts (repeatable)",
    )
    p_update.add_argument(
        "--method",
        default="auto",
        help="auto | delta | circuit | ... (auto prefers the delta method "
        "on conditionable chains)",
    )
    p_update.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max valuations for brute force",
    )
    p_update.add_argument(
        "--plan",
        action="store_true",
        help="print the planner's choice for the updated instance and exit",
    )
    p_update.add_argument(
        "--json",
        action="store_true",
        help="emit {mode, count, method, deltas, derivation, seconds} as JSON",
    )
    p_update.add_argument(
        "--trace",
        action="store_true",
        help="print the nested phase tree with timings to stderr",
    )
    p_update.set_defaults(func=_cmd_update)

    p_approx = sub.add_parser("approx", help="FPRAS estimate of #Val")
    p_approx.add_argument("--db", required=True)
    p_approx.add_argument("--query", required=True)
    p_approx.add_argument("--epsilon", type=float, default=0.1)
    p_approx.add_argument("--delta", type=float, default=0.25)
    p_approx.add_argument("--seed", type=int, default=None)
    p_approx.add_argument(
        "--json",
        action="store_true",
        help="emit {estimate, method, epsilon, delta, events, samples, "
        "seconds} as JSON",
    )
    p_approx.set_defaults(func=_cmd_approx)

    p_sweep = sub.add_parser(
        "sweep",
        help="answer many weightings of one #Val instance from a single "
        "plan (circuit plans compile once, evaluate all rows vectorized)",
    )
    p_sweep.add_argument("--db", required=True, help="database file")
    p_sweep.add_argument("--query", required=True, help="query text")
    p_sweep.add_argument(
        "--weights", default=None,
        help="inline JSON array of rows, each {null: {value: weight}} or "
        "null for default weights",
    )
    p_sweep.add_argument(
        "--weights-jsonl", default=None,
        help="file with one JSON row object (or null) per line",
    )
    p_sweep.add_argument(
        "--method", default="auto", help=_method_help("sweep")
    )
    p_sweep.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="max valuations for brute force",
    )
    p_sweep.add_argument(
        "--json", action="store_true",
        help="emit {problem, rows, counts, method, seconds} as JSON",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_batch = sub.add_parser(
        "batch", help="run a JSONL job stream through the batch engine"
    )
    p_batch.add_argument(
        "--jobs", required=True,
        help="JSONL job file (see repro.engine.jsonl for the format)",
    )
    p_batch.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per CPU; 0/1 = in-process)",
    )
    p_batch.add_argument(
        "--out", default=None,
        help="write result JSONL here instead of stdout",
    )
    p_batch.add_argument(
        "--cache-mb", type=float, default=None,
        help="bound on memory held by cached circuits, in MiB "
        "(default: unbounded; bounds circuits only: cached answers "
        "stay when their circuit is evicted)",
    )
    p_batch.add_argument(
        "--metrics-jsonl", default=None,
        help="stream one JSON record per phase span / planner event here "
        "(aggregate later with 'stats --metrics-jsonl')",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_stats = sub.add_parser(
        "stats",
        help="observability snapshot: aggregate a --metrics-jsonl stream, "
        "or run one instrumented solve and report its counters and spans",
    )
    p_stats.add_argument(
        "--metrics-jsonl", default=None,
        help="span/event JSONL written by 'batch --metrics-jsonl'",
    )
    p_stats.add_argument("--db", default=None, help="database file")
    p_stats.add_argument("--query", help="query text (optional for comp)")
    p_stats.add_argument("--mode", choices=("val", "comp"), default="val")
    p_stats.add_argument(
        "--method", default="auto", help=_method_help("val", "comp")
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit the snapshot (and trace) as JSON",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_cite = sub.add_parser(
        "cite", help="map a paper result to the code implementing it"
    )
    p_cite.add_argument(
        "result", nargs="?", default="",
        help="e.g. 'Theorem 3.9' or 'FPRAS' (empty: list everything)",
    )
    p_cite.set_defaults(func=_cmd_cite)

    p_show = sub.add_parser("show", help="summarize a database file")
    p_show.add_argument("--db", required=True)
    p_show.set_defaults(func=_cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flushed here, so a reader that left early fails inside the try.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (``... | head -1``).  Point stdout at
        # devnull so the interpreter's final flush stays quiet, and exit
        # 128 + SIGPIPE, as a shell reports for ``yes | head``.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _UNANSWERED as exc:
        # Fails like a plan that cannot choose.
        print("repro-count %s: %s" % (args.command, exc), file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print("repro-count %s: %s" % (args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
