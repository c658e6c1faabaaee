#!/usr/bin/env python3
"""End-to-end question benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve_hard --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``solve_tractable``,
``solve_hard``, ``batch_mixed`` and ``circuit_session``.  Every
measurement runs in a fresh interpreter (``session.py``), so in-process
caches start cold.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
:data:`SETUP_SAMPLES` set-ups, each timed from process start to the
workload being ready), ``questions_per_s``, ``latency_p50_ms``,
``latency_p90_ms`` (one ``solve()`` call, one single-job engine
``run()``, or one whole batch on ``batch_mixed``) and ``peak_rss_mb``.
``--trace 1`` measures untraced first, then replays the same questions
traced, and prints the per-layer table and metrics, the tracing overhead
among them.  The last line of standard output is always the JSON result;
errors, timeouts and mismatches are printed separately before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from names import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("solve_tractable", "solve_hard", "batch_mixed", "circuit_session")
SETUP_SAMPLES = 3
#: Wall-clock guard for one session process.
SESSION_TIMEOUT = 150.0


class SessionFailed(RuntimeError):
    pass


def session(workload, seed, seconds, phase, count=0):
    """Run one ``session.py`` child; return ``((setup_s, factor), result)``.

    ``setup_s`` runs from process start to the child's ``READY`` line,
    which carries the CPU-speed factor the child measured during set-up.
    Other output lines are passed through to this process's stdout.
    """
    command = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--phase", phase, "--count", str(count),
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    setup_s = None
    result = None
    try:
        for line in process.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - started
                factor = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
            if time.perf_counter() - started > SESSION_TIMEOUT:
                raise SessionFailed("session exceeded %.0f s" % SESSION_TIMEOUT)
        code = process.wait(timeout=SESSION_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or setup_s is None or (phase != "setup" and result is None):
        raise SessionFailed("session %s/%s exited with code %s" % (workload, phase, code))
    return (setup_s, factor), result


def failure_line(result) -> str:
    return (
        "# failures: errors=%d timeouts=%d mismatches=%d failed_frac=%.4f "
        "(checked: %d against the reference, %d by an independent route)"
        % (
            result["errors"], result["timeouts"], result["mismatches"],
            result["failed_frac"], result["checked_by_reference"],
            result["checked_at_runtime"],
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/repro/__init__.py", "benchmarks/harness.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print("perfbench: %s not found under %s" % (needed, ROOT), file=sys.stderr)
            return 2

    try:
        setup_s, measured = session(args.workload, args.seed, args.seconds, "measure")
        print("# env " + json.dumps(measured["env"], sort_keys=True))
        print(
            "# measured: %d passes over %d questions (%d asked) in %.2f s"
            % (measured["passes"], measured["calls"], measured["attempted"],
               measured["elapsed_s"])
        )
        print(failure_line(measured))
        raw = measured["raw"]
        print(
            "# wall time as measured (before CPU-speed scaling, median speed "
            "factor %.3f): questions_per_s=%.4g latency_p50_ms=%.4g "
            "latency_p90_ms=%.4g"
            % (raw["speed"], raw["questions_per_s"], raw["latency_p50_ms"],
               raw["latency_p90_ms"])
        )
        correct = measured["mismatches"] == 0 and measured["errors"] == 0
        if args.trace:
            _setup, traced = session(
                args.workload, args.seed, args.seconds, "traced",
                count=measured["calls"],
            )
            correct = correct and traced["correct"]
            # Both sides in wall time as measured: the traced pass is one
            # pass, the untraced side the per-question medians of its passes.
            untraced = measured["raw"]["latency_sum_s"]
            overhead = traced["wall_s"] - untraced
            print(
                "# tracing overhead: %.3f s over %d calls (traced %.3f s, "
                "untraced %.3f s)"
                % (overhead, measured["calls"], traced["wall_s"], untraced)
            )
            values = dict(traced["metrics"])
            values.update(measured["layer"])
            values.update({
                "failed_frac": measured["failed_frac"],
                "failed.errors": measured["errors"],
                "failed.timeouts": measured["timeouts"],
                "failed.mismatches": measured["mismatches"],
                "trace.overhead_s": overhead,
            })
            units = PER_LAYER
        else:
            samples = [setup_s] + [
                session(args.workload, args.seed, args.seconds, "setup")[0]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            print(
                "# setup_s samples (wall s x speed factor): "
                + ", ".join("%.4f x %.3f" % sample for sample in samples)
            )
            values = {name: value for name, (value, _unit) in measured["metrics"].items()}
            values["setup_s"] = statistics.median(wall * factor for wall, factor in samples)
            units = END_TO_END
    except SessionFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
