"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "instance.idb"
    path.write_text(
        "domain a b\nR(?n1)\nS(?n1)\nS(a)\n", encoding="utf-8"
    )
    return str(path)


@pytest.fixture
def nonuniform_db_file(tmp_path):
    path = tmp_path / "nu.idb"
    path.write_text(
        "null n1: a b\nnull n2: a\nR(?n1, ?n2)\n", encoding="utf-8"
    )
    return str(path)


class TestClassify:
    def test_prints_table(self, capsys):
        assert main(["classify", "R(x,x)"]) == 0
        out = capsys.readouterr().out
        assert "#ValuCd" in out
        assert "#P-complete" in out

    def test_rejects_non_bcq(self, capsys):
        assert main(["classify", "!R(x)"]) == 2


class TestCount:
    def test_val(self, db_file, capsys):
        assert main(
            ["count", "--mode", "val", "--db", db_file, "--query", "R(x), S(x)"]
        ) == 0
        value = int(capsys.readouterr().out.strip())
        # brute-force check: n1 in {a,b}; R={n1}, S={n1,a}; always satisfied
        # when n1=a (R(a),S(a)); when n1=b: R(b), S contains b and a => need
        # common element: b in both => satisfied. So 2.
        assert value == 2

    def test_val_total(self, db_file, capsys):
        assert main(["count", "--mode", "val", "--db", db_file]) == 0
        assert int(capsys.readouterr().out.strip()) == 2

    def test_comp_total(self, db_file, capsys):
        assert main(["count", "--mode", "comp", "--db", db_file]) == 0
        assert int(capsys.readouterr().out.strip()) == 2

    def test_comp_poly_method(self, db_file, capsys):
        assert main(
            [
                "count", "--mode", "comp", "--db", db_file,
                "--query", "R(x), S(x)", "--method", "poly",
            ]
        ) == 0
        assert int(capsys.readouterr().out.strip()) == 2

    def test_nonuniform(self, nonuniform_db_file, capsys):
        assert main(
            [
                "count", "--mode", "val", "--db", nonuniform_db_file,
                "--query", "R(x, y)",
            ]
        ) == 0
        assert int(capsys.readouterr().out.strip()) == 2

    @pytest.mark.parametrize("command", ["count", "stats"])
    @pytest.mark.parametrize("mode", ["val", "comp"])
    def test_one_plan_per_invocation(self, db_file, capsys, command, mode):
        import json

        from repro.obs import capture

        with capture() as captured:
            assert main([
                command, "--mode", mode, "--db", db_file,
                "--query", "R(x), S(x)", "--json",
            ]) == 0
        chosen = {
            name: value for name, value in captured.counters.items()
            if name.startswith("planner.chosen.")
        }
        assert sum(chosen.values()) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["count"] == 2
        if command == "count":
            assert chosen == {"planner.chosen.%s" % record["method"]: 1}


class TestStats:
    def test_db_report_covers_this_solve_only(self, db_file, capsys):
        import json

        for _ in range(2):
            assert main([
                "stats", "--db", db_file, "--query", "R(x), S(x)", "--json",
            ]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["count"] == 2
            snapshot = record["snapshot"]
            assert snapshot["counters"]["planner.decision"] == 1
            assert snapshot["spans"]["cli.stats"]["count"] == 1
            assert snapshot["spans"]["planner.run"]["count"] == 1

    def test_text_report_lists_counters_and_spans(self, db_file, capsys):
        assert main(["stats", "--db", db_file, "--query", "R(x), S(x)"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count: 2\n")
        assert "counters:" in out and "planner.decision" in out
        assert "spans:" in out and "cli.stats" in out


class TestPlan:
    def test_val_auto_explains_choice_and_rejections(self, db_file, capsys):
        assert main(
            ["plan", "--db", db_file, "--query", "R(x), S(x)"]
        ) == 0
        out = capsys.readouterr().out
        assert "chosen:" in out
        assert "considered:" in out
        # The R(x),S(x) join rules out the Theorem 3.6 closed form — the
        # rejection and its reason must both be printed.
        assert "single-occurrence" in out
        assert "share a variable" in out

    def test_comp_without_query(self, db_file, capsys):
        assert main(["plan", "--problem", "comp", "--db", db_file]) == 0
        out = capsys.readouterr().out
        assert "problem:    comp" in out
        assert "uniform-unary" in out

    def test_weighted_and_marginals_problems(self, db_file, capsys):
        assert main(
            [
                "plan", "--problem", "val-weighted", "--db", db_file,
                "--query", "R(x), S(x)",
            ]
        ) == 0
        assert "chosen:     circuit" in capsys.readouterr().out
        assert main(
            [
                "plan", "--problem", "marginals", "--db", db_file,
                "--query", "R(x), S(x)",
            ]
        ) == 0
        assert "chosen:     circuit" in capsys.readouterr().out

    def test_poly_on_hard_cell_exits_nonzero_with_analysis(
        self, tmp_path, capsys
    ):
        # R(x,x) over a non-Codd naive table: every Table 1 closed form
        # is rejected, so a poly plan cannot choose.
        hard = tmp_path / "hard.idb"
        hard.write_text("domain a b\nR(?n1, ?n1)\nR(a, b)\n", encoding="utf-8")
        assert main(
            [
                "plan", "--db", str(hard), "--query", "R(x,x)",
                "--method", "poly",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "#P-hard" in out
        assert "considered:" in out

    def test_json_plan(self, db_file, capsys):
        import json

        assert main(
            ["plan", "--db", db_file, "--query", "R(x), S(x)", "--json"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["problem"] == "val"
        assert record["chosen"]
        assert any(
            not item["applicable"] and item["reason"]
            for item in record["considered"]
        )

    def test_unknown_method_is_a_usage_error(self, db_file, capsys):
        assert main(
            [
                "plan", "--db", db_file, "--query", "R(x), S(x)",
                "--method", "warp",
            ]
        ) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_missing_query_is_a_usage_error(self, db_file, capsys):
        assert main(["plan", "--db", db_file]) == 2


class TestBatchSummary:
    def test_summary_counts_fallbacks_and_circuits(
        self, tmp_path, db_file, capsys
    ):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"problem": "val", "db": "%s", "query": "R(x), S(x)"}\n'
            '{"problem": "marginals", "db": "%s", "query": "R(x), S(x)"}\n'
            % ("instance.idb", "instance.idb"),
            encoding="utf-8",
        )
        assert main(["batch", "--jobs", str(jobs), "--workers", "0"]) == 0
        err = capsys.readouterr().err
        assert "0 serial fallbacks" in err
        # The marginals job compiled the one circuit the parent holds.
        assert "1 circuits (" in err
        # Each cache figure is printed once, on one cache line.
        cache_lines = [
            line for line in err.splitlines() if line.startswith("cache:")
        ]
        assert cache_lines == [
            "cache: 0 memo hits / 2 misses, 0 circuit hits / 1 misses, "
            "0 circuits evicted, 0 parent-chain derivations"
        ]


class TestApproxAndShow:
    def test_approx(self, db_file, capsys):
        assert main(
            [
                "approx", "--db", db_file, "--query", "R(x), S(x)",
                "--epsilon", "0.2", "--seed", "7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "events=" in out
        estimate = float(out.split()[0])
        assert abs(estimate - 2.0) <= 0.5

    @pytest.mark.parametrize("as_json", [False, True])
    def test_approx_past_the_float_range(self, tmp_path, capsys, as_json):
        """An estimate of 330 digits prints as one line in both modes."""
        path = tmp_path / "wide.idb"
        path.write_text(
            "domain a %s\n" % " ".join("v%d" % i for i in range(999))
            + "".join("R(?n%d, a)\n" % i for i in range(110)),
            encoding="utf-8",
        )
        argv = [
            "approx", "--db", str(path), "--query", "R(x,x)",
            "--epsilon", "0.3", "--seed", "1",
        ]
        assert main(argv + (["--json"] if as_json else [])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        if as_json:
            estimate = Decimal(json.loads(lines[0])["estimate"])
        else:
            estimate = Decimal(lines[0].split()[0])
        exact = 1000**110 - 999**110
        assert abs(estimate - exact) <= Decimal("0.3") * exact

    def test_show(self, db_file, capsys):
        assert main(["show", "--db", db_file]) == 0
        out = capsys.readouterr().out
        assert "relations: R, S" in out
        assert "total valuations: 2" in out


class TestInputErrors:
    """Bad input exits cleanly: one stderr line, no traceback."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sweep", "--db", "@db", "--query", "R(x)", "--weights", "[{bad"], 2),
            (
                [
                    "explain", "--db", "@db", "--query", "R(x)",
                    "--marginals", "--weights", "{bad",
                ],
                2,
            ),
            (["count", "--mode", "val", "--db", "@missing", "--query", "R(x)"], 2),
            (["batch", "--jobs", "@missing"], 2),
            (
                [
                    "sweep", "--db", "@db", "--query", "R(x)",
                    "--weights-jsonl", "@missing",
                ],
                2,
            ),
            (["count", "--mode", "val", "--db", "@db", "--query", "R(x,"], 2),
            (["batch", "--jobs", "@jobs", "--workers", "0"], 2),
            (
                [
                    "count", "--mode", "val", "--db", "@hard",
                    "--query", "R(x,x)", "--method", "poly",
                ],
                1,
            ),
            (
                [
                    "count", "--mode", "val", "--db", "@db",
                    "--query", "R(x)", "--method", "nope",
                ],
                2,
            ),
            (["count", "--mode", "comp", "--db", "@db", "--method", "codd"], 2),
            (
                [
                    "update", "--db", "@db", "--query", "R(x)",
                    "--resolve", "n1=a", "--method", "nope",
                ],
                2,
            ),
            (["stats", "--db", "@db", "--query", "R(x)", "--method", "nope"], 2),
            (
                [
                    "sweep", "--db", "@db", "--query", "R(x)",
                    "--weights", "[null]", "--method", "nope",
                ],
                2,
            ),
            (["approx", "--db", "@db", "--query", "R(x)", "--epsilon", "2"], 2),
            (["approx", "--db", "@db", "--query", "R(x)", "--delta", "0"], 2),
            (["approx", "--db", "@db", "--query", "!R(x,y)"], 2),
            (
                [
                    "count", "--mode", "val", "--db", "@db", "--query", "R(x)",
                    "--method", "brute", "--budget", "1",
                ],
                1,
            ),
            (["classify", "R(x), R(y)"], 2),
            (["classify", "R(x, 'a')"], 2),
        ],
        ids=[
            "sweep-weights-json",
            "explain-weights-json",
            "missing-db",
            "missing-jobs",
            "missing-weights-jsonl",
            "query-syntax",
            "batch-job-syntax",
            "poly-on-hard-cell",
            "count-unknown-method",
            "count-val-method-on-comp",
            "update-unknown-method",
            "stats-unknown-method",
            "sweep-unknown-method",
            "approx-epsilon-out-of-range",
            "approx-delta-out-of-range",
            "approx-negation",
            "brute-over-budget",
            "classify-self-join",
            "classify-constant",
        ],
    )
    def test_exits_with_one_stderr_line(self, tmp_path, db_file, capsys, argv, code):
        hard = tmp_path / "hard.idb"
        hard.write_text("domain a b\nR(?n1, ?n1)\nR(a, b)\n", encoding="utf-8")
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"problem": "val", "db": "instance.idb", "query": "R(x)"}\n{oops\n',
            encoding="utf-8",
        )
        paths = {
            "@db": db_file,
            "@hard": str(hard),
            "@jobs": str(jobs),
            "@missing": str(tmp_path / "missing.txt"),
        }
        assert main([paths.get(arg, arg) for arg in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_weights_jsonl_line_names_file_and_line(
        self, tmp_path, db_file, capsys
    ):
        rows = tmp_path / "rows.jsonl"
        rows.write_text('{"n1": {"a": 2}}\n{bad\n', encoding="utf-8")
        assert main([
            "sweep", "--db", db_file, "--query", "R(x)",
            "--weights-jsonl", str(rows),
        ]) == 2
        assert "%s line 2" % rows in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_quietly_as_sigpipe(self, tmp_path, unbuffered):
        """A reader that left early (``... | head -1``) is not bad input:
        nothing on stderr and status 141 (128 + SIGPIPE), whether the
        write fails inside the command or at the final flush."""
        path = tmp_path / "db.idb"
        path.write_text(
            "domain a b c\nR(a, ?n1)\nR(?n2, b)\nS(a, b)\n", encoding="utf-8"
        )
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [
                    sys.executable, "-m", "repro", "plan", "--db", str(path),
                    "--query", "R(x,y), S(x,y)",
                ],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 141
