"""Command-line behavior: outputs, formats, and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg import cli, multiplicity, tl, verify
from diagalg.cli import main
from test_multiplicity import Count

ROOT = Path(__file__).resolve().parent.parent

COMPOSE_LEFT = {"n": 6, "blocks": [[1, 2, -2], [3], [4, 6, -6], [5], [-1], [-3], [-4], [-5]]}
COMPOSE_RIGHT = {"n": 6, "blocks": [[1], [2], [3, 4, 5], [6, -4, -6], [-1, -2, -3], [-5]]}
ACT_DIAGRAM = {"n": 6, "blocks": [[1, 2, -2], [3, 4], [5, -4], [6, -5], [-1], [-3], [-6]]}
ACT_INPUT = {"n": 6, "blocks": [[1, 3], [2], [4], [5], [6]], "labeled": [0, 3]}
ACT_NONZERO_DIAGRAM = {"n": 6, "blocks": [[1, 2, -2], [3, -3], [4], [5, -4], [6, -5], [-1], [-6]]}
WALLED_INPUT = {
    "m": 8,
    "n": 7,
    "blocks": [[1, 3], [2, 4, -6], [5, -5], [6], [7, -7], [8, -4], [-3, -1], [-2]],
    "labeled": [1, 2, 3, 6],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestMult:
    def test_agreeing_engines(self, capsys):
        assert main(["mult", "-p", "2", "-q", "2", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count(": 2") == 4
        assert "agree" in out

    def test_above_band_zero(self, capsys):
        assert main(["mult", "-p", "1", "-q", "1", "-r", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count(": 0") == 4

    def test_json_solutions(self, capsys):
        assert main(["mult", "-p", "1", "-q", "1", "-r", "1", "--format", "json", "--solutions"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["engines"]["closed"] == 1
        assert payload["solutions"] == [
            {
                "through_labeled": 1,
                "through_unlabeled": 0,
                "left_labeled": 0,
                "right_labeled": 0,
            }
        ]

    def test_solutions_text_output(self, capsys):
        assert main(["mult", "-p", "2", "-q", "2", "-r", "2", "--solutions"]) == 0
        assert capsys.readouterr().out == (
            "closed: 2\ne1: 2\ne2: 2\nbvo: 2\n"
            "  solution: through_labeled=0 through_unlabeled=1 left=1 right=1\n"
            "  solution: through_labeled=2 through_unlabeled=0 left=0 right=0\n"
            "agree\n"
        )

    def test_solutions_json_output(self, capsys):
        # Each solution is a walled index, keyed in the order U, T, L, R.
        assert main(["mult", "-p", "1", "-q", "1", "-r", "1", "--solutions", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"p": 1, "q": 1, "r": 1, "engines": {"closed": 1, "e1": 1, "e2": 1, "bvo": 1}, "agree": true, '
            '"solutions": [{"through_unlabeled": 0, "through_labeled": 1, "left_labeled": 0, "right_labeled": 0}]}\n'
        )

    def test_table_csv_row_count(self, capsys):
        assert main(["mult", "table", "--max", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,q,r,E"
        assert len(lines) == 1 + 64

    def test_table_csv_exact_output(self, capsys):
        # the csv module ends each row with \r\n
        assert main(["mult", "table", "--max", "1", "--format", "csv"]) == 0
        assert capsys.readouterr() == (
            "p,q,r,E\r\n0,0,0,1\r\n0,0,1,0\r\n0,1,0,0\r\n0,1,1,1\r\n"
            "1,0,0,0\r\n1,0,1,1\r\n1,1,0,1\r\n1,1,1,1\r\n",
            "",
        )

    def test_table_text_exact_output(self, capsys):
        # text, the default format, is the csv rows with a space between
        # fields and plain line ends
        for argv in (["mult", "table", "--max", "1"], ["mult", "table", "--max", "1", "--format", "text"]):
            assert main(argv) == 0
            assert capsys.readouterr() == (
                "p q r E\n0 0 0 1\n0 0 1 0\n0 1 0 0\n0 1 1 1\n1 0 0 0\n1 0 1 1\n1 1 0 1\n1 1 1 1\n",
                "",
            )

    def test_missing_flags_usage_error(self, capsys):
        assert main(["mult", "-p", "2"]) == 2

    def test_closed_engine_alone_is_fast(self, capsys):
        # The system enumeration costs r * min(p, q) steps; --engines closed must not run it.
        start = time.perf_counter()
        assert main(["mult", "-p", "30000", "-q", "30000", "-r", "30000", "--engines", "closed"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.splitlines()[0] == "closed: 15001"
        assert elapsed < 1.0

    def test_e1_engine_alone_is_fast(self, capsys):
        # Each T forces U, so the enumeration is linear in r.
        start = time.perf_counter()
        assert main(["mult", "-p", "30000", "-q", "30000", "-r", "30000", "--engines", "e1"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.splitlines() == ["e1: 15001", "agree"]
        assert elapsed < 1.0

    def test_table_json_is_written_as_it_is_encoded(self, capsys):
        # the rows are written one at a time, as the bytes of json.dumps of
        # their dicts; the traced peak stays under 1 MiB, where a dict per row
        # and then one string took 44 MiB at --max 50 (about 10 MiB at 30)
        for top in range(4):
            assert main(["mult", "table", "--max", str(top), "--format", "json"]) == 0
            grid = range(top + 1)
            rows = [{"p": p, "q": q, "r": r, "E": multiplicity.e_closed(p, q, r)} for p in grid for q in grid for r in grid]
            assert capsys.readouterr() == (json.dumps(rows) + "\n", "")
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
                assert main(["mult", "table", "--max", "30", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_table_size_budget(self, capsys, monkeypatch):
        assert main(["mult", "table", "--max", str(cli.MULT_TABLE_MAX + 1)]) == 2
        assert capsys.readouterr().err == "error: mult table is limited to --max <= 50, got 51\n"
        monkeypatch.setattr(cli, "MULT_TABLE_MAX", 3)
        assert main(["mult", "table", "--max", "3", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 64
        assert main(["mult", "table", "--max", "4", "--format", "csv"]) == 2
        assert capsys.readouterr().err == "error: mult table is limited to --max <= 3, got 4\n"

    def test_table_negative_max_usage_error(self, capsys):
        assert main(["mult", "table", "--max", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max must be a non-negative integer, got -1\n"
        assert main(["mult", "table", "--max", "0", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines() == ["p,q,r,E", "0,0,0,1"]

    @pytest.mark.parametrize(
        "extra",
        [["-p", "3"], ["-q", "0"], ["-r", "1", "--format", "csv"], ["--solutions"]],
        ids=["p", "q-zero", "r-csv", "solutions"],
    )
    def test_table_rejects_triple_options(self, capsys, extra):
        assert main(["mult", "table", "--max", "0", *extra]) == 2
        assert capsys.readouterr() == ("", "error: -p, -q, -r and --solutions are not for mult table\n")

    def test_csv_outside_table_usage_error(self, capsys):
        for argv in (["mult", "-p", "2", "-q", "2", "-r", "2"], ["mult"]):
            assert main([*argv, "--format", "csv"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --format csv is only for mult table\n"

    def test_e1_solution_budget(self, capsys, monkeypatch):
        # p = q = r = 2k has k + 1 solutions; 199,998 is at the budget of 100,000
        start = time.perf_counter()
        assert main(["mult", "-p", "199998", "-q", "199998", "-r", "199998", "--engines", "e1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["e1: 100000", "agree"]
        assert main(["mult", "-p", "200000", "-q", "200000", "-r", "200000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: e1 and --solutions enumerate at most 100000 solutions, got 100001; "
            "for the count use --engines closed\n"
        )
        # -p 4 -q 4 -r 4 has 3 solutions
        monkeypatch.setattr(cli, "MULT_E1_MAX_SOLUTIONS", 3)
        assert main(["mult", "-p", "4", "-q", "4", "-r", "4", "--engines", "closed", "--solutions"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3 + 1
        monkeypatch.setattr(cli, "MULT_E1_MAX_SOLUTIONS", 2)
        assert main(["mult", "-p", "4", "-q", "4", "-r", "4", "--engines", "e1"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: e1 and --solutions enumerate at most 2 solutions, got 3;"
        )
        assert main(["mult", "-p", "4", "-q", "4", "-r", "4", "--engines", "e2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["e2: 3", "agree"]

    def test_e2_and_bvo_budgets(self, capsys, monkeypatch):
        # e2 walks p + q - r lattice steps; bvo fills about max(p, q, r)
        # cells per Littlewood-Richardson coefficient, past Python's frame
        # limit had the fill been recursive
        assert main(["mult", "-p", "10000000", "-q", "0", "-r", "0", "--engines", "e2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["e2: 0", "agree"]
        for argv, value in (
            (["-p", "800", "-q", "800", "-r", "0"], 1),
            (["-p", "0", "-q", "800", "-r", "800"], 1),
            (["-p", "800", "-q", "800", "-r", "800"], 401),
        ):
            assert main(["mult", *argv, "--engines", "bvo"]) == 0
            assert capsys.readouterr().out.splitlines() == [f"bvo: {value}", "agree"]
        start = time.perf_counter()
        e2, bvo = "e2 is limited to p + q - r <= 10000000", "bvo is limited to p, q and r <= 800"
        big = ["-p", "100000000", "-q", "100000000", "-r", "100000000"]
        for argv, message in (
            (["-p", "10000001", "-q", "0", "-r", "0", "--engines", "e2"], f"{e2}, got 10000001"),
            ([*big, "--engines", "e2"], f"{e2}, got 100000000"),
            (["-p", "0", "-q", "0", "-r", "801", "--engines", "bvo"], f"{bvo}, got 801"),
            (["-p", "801", "-q", "801", "-r", "0", "--engines", "bvo"], f"{bvo}, got 801"),
            (["-p", "1000", "-q", "1000", "-r", "1000"], f"{bvo}, got 1000"),
            ([*big, "--engines", "bvo"], f"{bvo}, got 100000000"),
        ):
            assert main(["mult", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}; for the count use --engines closed\n"
        assert time.perf_counter() - start < 1.0
        # -p 4 -q 4 -r 4 walks p + q - r = 4 steps
        monkeypatch.setattr(cli, "MULT_E2_MAX_WALK", 4)
        monkeypatch.setattr(cli, "MULT_BVO_MAX_COUNT", 4)
        assert main(["mult", "-p", "4", "-q", "4", "-r", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == ["closed: 3", "e1: 3", "e2: 3", "bvo: 3", "agree"]
        for argv, engine in ((["-p", "5", "-q", "4", "-r", "4"], "e2"), (["-p", "4", "-q", "4", "-r", "5"], "bvo")):
            assert main(["mult", *argv]) == 2
            assert capsys.readouterr().err.startswith(f"error: {engine} is limited to ")

    def test_bvo_engine_on_one_part_labels_is_fast(self, capsys):
        # One-part labels leave one contained shape per size, so the
        # coefficient sum stays small even at large p, q, r.
        start = time.perf_counter()
        assert main(["mult", "-p", "40", "-q", "40", "-r", "40", "--engines", "bvo"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.splitlines() == ["bvo: 21", "agree"]
        assert elapsed < 2.0

    def test_negative_count_usage_error(self, capsys):
        for engines in ("all", "closed", "e1", "e2", "bvo"):
            assert main(["mult", "-p", "-1", "-q", "2", "-r", "2", "--engines", engines]) == 2
            assert capsys.readouterr().err == "error: p must be a non-negative integer, got -1\n"


class TestComposeAndAct:
    def test_compose_worked_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", COMPOSE_LEFT)
        b = write(tmp_path, "b.json", COMPOSE_RIGHT)
        assert main(["compose", a, b]) == 0
        assert capsys.readouterr() == ("δ^2 · {{1,2},{3},{4,6,6',4'},{5},{5'},{3',2',1'}}\n", "")

    def test_compose_json_format(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", COMPOSE_LEFT)
        b = write(tmp_path, "b.json", COMPOSE_RIGHT)
        assert main(["compose", a, b, "--format", "json"]) == 0
        assert capsys.readouterr() == (
            '{"t": 2, "diagram": {"n": 6, "blocks": [[1, 2], [3], [4, 6, -6, -4], [5], [-5], [-3, -2, -1]]}, '
            '"rendering": "\\u03b4^2 \\u00b7 {{1,2},{3},{4,6,6\',4\'},{5},{5\'},{3\',2\',1\'}}"}\n',
            "",
        )

    def test_act_vanishing(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", ACT_DIAGRAM)
        v = write(tmp_path, "v.json", ACT_INPUT)
        assert main(["act", d, v]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_act_vanishing_json(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", ACT_DIAGRAM)
        v = write(tmp_path, "v.json", ACT_INPUT)
        assert main(["act", d, v, "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"zero": true}\n'

    def test_act_non_zero_result(self, tmp_path, capsys):
        d = write(tmp_path, "d.json", ACT_NONZERO_DIAGRAM)
        v = write(tmp_path, "v.json", ACT_INPUT)
        assert main(["act", d, v]) == 0
        assert capsys.readouterr().out == "δ · {{1,2},{3}*,{4},{5},{6}*}\n"
        assert main(["act", d, v, "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"zero": false, "coeff": [{"delta_pow": 1, "coeff": 1}], '
            '"half_diagram": {"n": 6, "blocks": [[1, 2], [3], [4], [5], [6]], "labeled": [1, 4]}}\n'
        )

    def test_compose_reads_stdin_for_a_dash(self, tmp_path, capsys, monkeypatch):
        a = write(tmp_path, "a.json", COMPOSE_LEFT)
        b = write(tmp_path, "b.json", COMPOSE_RIGHT)
        assert main(["compose", a, b]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(COMPOSE_RIGHT)))
        assert main(["compose", a, "-"]) == 0
        assert capsys.readouterr().out == expected

    def test_unreadable_path_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        ok = write(tmp_path, "ok.json", COMPOSE_LEFT)
        assert main(["compose", ok, missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {missing}: ")

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        ok = write(tmp_path, "ok.json", COMPOSE_LEFT)
        assert main(["compose", str(bad), ok]) == 2

    @pytest.mark.parametrize("command", ["compose", "act", "walled", "stdin"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, monkeypatch, command):
        deep = "[" * 200_000 + "]" * 200_000
        bad = tmp_path / "deep.json"
        bad.write_text(deep)
        ok = write(tmp_path, "ok.json", COMPOSE_LEFT)
        monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
        path = "-" if command == "stdin" else str(bad)
        argv = {
            "compose": ["compose", path, ok],
            "act": ["act", ok, path],
            "walled": ["walled", "index", path],
            "stdin": ["compose", ok, path],
        }
        assert main(argv[command]) == 2
        assert capsys.readouterr() == ("", f"error: invalid JSON in {path}: nested too deeply\n")

    def test_invariant_violation_exit_3(self, tmp_path, capsys):
        broken = write(tmp_path, "broken.json", {"n": 2, "blocks": [[1, 2], [2, -1, -2]]})
        ok = write(tmp_path, "ok.json", {"n": 2, "blocks": [[1, -1], [2, -2]]})
        assert main(["compose", broken, ok]) == 3
        err = capsys.readouterr().err
        assert "more than one block" in err

    @pytest.mark.parametrize(
        "command, what, field, payload",
        [
            ("compose", "diagram", "blocks", {"n": 2, "blocks": 5}),
            ("compose", "diagram", "blocks", {"n": 2, "blocks": [5]}),
            ("walled", "walled half-diagram", "blocks", {"m": 1, "n": 1, "blocks": [["a"], [-1]]}),
            ("act", "half-diagram", "labeled", {"n": 2, "blocks": [[1], [2]], "labeled": 5}),
            ("act", "half-diagram", "labeled", {"n": 2, "blocks": [[1], [2]], "labeled": [[0]]}),
            ("walled", "walled half-diagram", "m", {**WALLED_INPUT, "m": True}),
            ("walled", "walled half-diagram", "blocks", {"m": 1, "n": 1, "blocks": 5}),
            ("walled", "walled half-diagram", "labeled", {"m": 1, "n": 1, "blocks": [[1], [-1]], "labeled": 5}),
            ("act", "half-diagram", "blocks", {"n": 2, "blocks": [["a"], [2]]}),
        ],
        ids=[
            "blocks-int", "block-int", "walled-string-dot", "labeled-int", "labeled-nested", "walled-bool-m",
            "walled-blocks-int", "walled-labeled-int", "half-string-dot",
        ],
    )
    def test_malformed_shape_exit_2(self, tmp_path, capsys, command, what, field, payload):
        bad = write(tmp_path, "bad.json", payload)
        ok = write(tmp_path, "ok.json", {"n": 2, "blocks": [[1, -1], [2, -2]]})
        argv = {"compose": ["compose", bad, ok], "act": ["act", ok, bad], "walled": ["walled", "index", bad]}
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed {what}: '{field}' "), err

    @pytest.mark.parametrize(
        "command, what, payload",
        [
            ("act", "half-diagram", {"n": 2, "blocks": [[1], [2]], "labeled": [0, 0]}),
            ("walled", "walled half-diagram", {"m": 1, "n": 1, "blocks": [[1], [-1]], "labeled": [1, 1]}),
        ],
        ids=["act", "walled"],
    )
    def test_repeated_label_index_exit_3(self, tmp_path, capsys, command, what, payload):
        bad = write(tmp_path, "bad.json", payload)
        ok = write(tmp_path, "ok.json", {"n": 2, "blocks": [[1, -1], [2, -2]]})
        argv = {"act": ["act", ok, bad], "walled": ["walled", "index", bad]}
        assert main(argv[command]) == 3
        index = payload["labeled"][0]
        assert capsys.readouterr() == ("", f"error: invalid {what}: labeled index {index} appears more than once\n")

    def test_degree_mismatch_exit_3(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", {"n": 2, "blocks": [[1, -1], [2, -2]]})
        b = write(tmp_path, "b.json", {"n": 3, "blocks": [[1, -1], [2, -2], [3, -3]]})
        assert main(["compose", a, b]) == 3


class TestWalled:
    def test_index_worked_example(self, tmp_path, capsys):
        w = write(tmp_path, "w.json", WALLED_INPUT)
        assert main(["walled", "index", w]) == 0
        assert capsys.readouterr() == ("2;2,1,1\n", "")
        assert main(["walled", "index", w, "--format", "json"]) == 0
        assert capsys.readouterr() == ('{"index": "2;2,1,1"}\n', "")

    def test_index_dot_zero_exit_3(self, tmp_path, capsys):
        w = write(tmp_path, "w.json", {"m": 2, "n": 2, "blocks": [[0, 1], [2], [-1], [-2]]})
        assert main(["walled", "index", w]) == 3
        message = "dot 0 is neither a left dot 1..2 nor a right dot 1'..2'"
        assert capsys.readouterr() == ("", f"error: invalid walled half-diagram: {message}\n")

    def test_census_json(self, capsys):
        assert main(["walled", "census", "-m", "1", "-n", "1", "-r", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"0;0,1,1": 1}

    def test_census_exact_output(self, capsys):
        assert main(["walled", "census", "-m", "2", "-n", "2", "-r", "1", "--format", "text"]) == 0
        assert capsys.readouterr() == (
            "0;0,0,1: 6\n0;0,1,0: 6\n0;1,0,0: 9\n1;0,0,1: 6\n1;0,1,0: 6\n1;1,0,0: 4\n",
            "",
        )
        assert main(["walled", "census", "-m", "2", "-n", "2", "-r", "1", "--format", "json"]) == 0
        assert capsys.readouterr() == (
            '{"0;0,0,1": 6, "0;0,1,0": 6, "0;1,0,0": 9, "1;0,0,1": 6, "1;0,1,0": 6, "1;1,0,0": 4}\n',
            "",
        )

    def test_census_size_budget(self, capsys):
        start = time.perf_counter()
        assert main(["walled", "census", "-m", "20", "-n", "20", "-r", "10"]) == 0
        assert time.perf_counter() - start < 1.0
        capsys.readouterr()
        assert main(["walled", "census", "-m", "20", "-n", "21", "-r", "0"]) == 2
        assert capsys.readouterr().err == "error: walled census is limited to m + n <= 40 dots, got 41\n"

    def test_census_negative_side_usage_error(self, capsys):
        for m, n, side in (("-1", "2", "m"), ("2", "-1", "n")):
            assert main(["walled", "census", "-m", m, "-n", n, "-r", "0"]) == 2
            assert capsys.readouterr().err == f"error: {side} must be a non-negative integer, got -1\n"

    def test_census_checks_each_count_before_the_dots_budget(self, capsys):
        for m, n, r, name in (("-1", "42", "0", "m"), ("42", "-1", "0", "n"), ("41", "0", "-1", "r")):
            assert main(["walled", "census", "-m", m, "-n", n, "-r", r]) == 2
            assert capsys.readouterr() == ("", f"error: {name} must be a non-negative integer, got -1\n")

    def test_census_negative_labels_usage_error(self, capsys):
        for fmt in ("json", "text"):
            assert main(["walled", "census", "-m", "2", "-n", "2", "-r", "-1", "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: r must be a non-negative integer, got -1\n")


class TestGeometry:
    def test_text_output(self, capsys):
        assert main(["geometry", "-p", "3", "-q", "4", "-r", "5"]) == 0
        assert capsys.readouterr() == (
            "tangent lengths: 3, 2, 1\n"
            "circle count:    2\n"
            "conic:           ellipse with a=7/2, c=5/2, gap=1 -> count 2\n"
            "parity:          tangents integral True, side sum even True\n",
            "",
        )

    def test_json_output(self, capsys):
        assert main(["geometry", "-p", "3", "-q", "3", "-r", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conic"]["kind"] == "ellipse"
        assert payload["conic_count"] == 2
        assert main(["geometry", "-p", "3", "-q", "4", "-r", "5", "--format", "json"]) == 0
        assert capsys.readouterr() == (
            '{"p": 3, "q": 4, "r": 5, "tangent_lengths": ["3", "2", "1"], "circle_count": 2, '
            '"conic": {"kind": "ellipse", "a": "7/2", "c": "5/2", "gap": "1"}, "conic_count": 2, '
            '"closed_form": 2, "parity": {"tangents_integral": true, "side_sum_even": true}}\n',
            "",
        )


class TestTL:
    def test_basis_count_only(self, capsys):
        assert main(["tl", "basis", "-n", "6", "-r", "2", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_basis_count_only_does_not_enumerate(self, capsys):
        start = time.perf_counter()
        assert main(["tl", "basis", "-n", "40", "-r", "0", "--count-only"]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.strip() == "6564120420"

    def test_basis_text_output(self, capsys):
        assert main(["tl", "basis", "-n", "6", "-r", "2"]) == 0
        assert capsys.readouterr().out == (
            "{{3,6},{4,5},{1}*,{2}*}\n"
            "{{3,4},{5,6},{1}*,{2}*}\n"
            "{{2,5},{3,4},{1}*,{6}*}\n"
            "{{2,3},{5,6},{1}*,{4}*}\n"
            "{{2,3},{4,5},{1}*,{6}*}\n"
            "{{1,4},{2,3},{5}*,{6}*}\n"
            "{{1,2},{5,6},{3}*,{4}*}\n"
            "{{1,2},{4,5},{3}*,{6}*}\n"
            "{{1,2},{3,4},{5}*,{6}*}\n"
        )

    def test_basis_json_output(self, capsys):
        assert main(["tl", "basis", "-n", "6", "-r", "2", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '[{"n": 6, "caps": [[3, 6], [4, 5]], "labels": [1, 2]}, '
            '{"n": 6, "caps": [[3, 4], [5, 6]], "labels": [1, 2]}, '
            '{"n": 6, "caps": [[2, 5], [3, 4]], "labels": [1, 6]}, '
            '{"n": 6, "caps": [[2, 3], [5, 6]], "labels": [1, 4]}, '
            '{"n": 6, "caps": [[2, 3], [4, 5]], "labels": [1, 6]}, '
            '{"n": 6, "caps": [[1, 4], [2, 3]], "labels": [5, 6]}, '
            '{"n": 6, "caps": [[1, 2], [5, 6]], "labels": [3, 4]}, '
            '{"n": 6, "caps": [[1, 2], [4, 5]], "labels": [3, 6]}, '
            '{"n": 6, "caps": [[1, 2], [3, 4]], "labels": [5, 6]}]\n'
        )

    def test_basis_is_written_as_it_is_made(self, capsys):
        # each row is written as the planar walk makes it: JSON as the bytes
        # of json.dumps of the row list, text one line per row.  The traced
        # peak stays under 1 MiB at -n 20 -r 0, whose basis holds 6 MiB, where
        # a dict per row and then one string read 24.7 MiB
        for n, r in ((0, 0), (1, 1), (5, 2), (6, 2), (8, 0), (9, 3)):
            rows = [cli._planar_json(row) for row in tl.tl_basis(n, r)]
            assert main(["tl", "basis", "-n", str(n), "-r", str(r), "--format", "json"]) == 0
            assert capsys.readouterr() == (json.dumps(rows) + "\n", "")
            assert main(["tl", "basis", "-n", str(n), "-r", str(r)]) == 0
            pieces = ([*(f"{{{a},{b}}}" for a, b in row["caps"]), *(f"{{{d}}}*" for d in row["labels"])] for row in rows)
            assert capsys.readouterr() == ("".join("{" + ",".join(p) + "}\n" for p in pieces), "")
        for fmt in ("json", "text"):
            tracemalloc.start()
            try:
                with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
                    assert main(["tl", "basis", "-n", "20", "-r", "0", "--format", fmt]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (fmt, peak)

    def test_basis_negative_degree_usage_error(self, capsys):
        for extra in ([], ["--count-only"]):
            assert main(["tl", "basis", "-n", "-1", "-r", "0", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: n must be a non-negative integer, got -1\n"
        assert main(["tl", "basis", "-n", "0", "-r", "0", "--count-only"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_basis_negative_labels_usage_error(self, capsys):
        for extra in ([], ["--count-only"]):
            assert main(["tl", "basis", "-n", "3", "-r", "-1", *extra]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: r must be a non-negative integer, got -1\n")

    def test_basis_size_budget(self, capsys, monkeypatch):
        start = time.perf_counter()
        assert main(["tl", "basis", "-n", "22", "-r", "0"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: tl basis is limited to 340000 listed dots (15454 diagrams at -n 22), "
            "got 58786 diagrams; for the count use --count-only\n"
        )
        # -n 6 -r 2 has 9 diagrams, 54 dots
        monkeypatch.setattr(cli, "TL_BASIS_MAX_DOTS", 54)
        assert main(["tl", "basis", "-n", "6", "-r", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 9
        monkeypatch.setattr(cli, "TL_BASIS_MAX_DOTS", 53)
        assert main(["tl", "basis", "-n", "6", "-r", "2", "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "error: tl basis is limited to 53 listed dots (8 diagrams at -n 6), "
            "got 9 diagrams; for the count use --count-only\n"
        )

    def test_basis_budget_counts_dots(self, capsys):
        # -n 21 -r 11: 14,364 diagrams, 301,644 dots, the largest listing the
        # former 15,000-diagram budget finished in under 1 s.  The bound is on
        # this process's CPU time, so other load on the host does not fail it.
        assert cli.TL_BASIS_MAX_DOTS >= 21 * 14_364
        start = time.process_time()
        assert main(["tl", "basis", "-n", "14298", "-r", "14298"]) == 0
        assert capsys.readouterr().out == "{" + ",".join(f"{{{dot}}}*" for dot in range(1, 14299)) + "}\n"
        assert main(["tl", "basis", "-n", "1200", "-r", "1200", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [{"n": 1200, "caps": [], "labels": list(range(1, 1201))}]
        # 14,297 diagrams of 14,298 dots each
        assert main(["tl", "basis", "-n", "14298", "-r", "14296"]) == 2
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: tl basis is limited to 340000 listed dots (23 diagrams at -n 14298), "
            "got 14297 diagrams; for the count use --count-only\n"
        )

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 14_298).flatmap(lambda n: st.tuples(st.just(n), st.integers(-1, n + 1))))
    def test_basis_at_any_accepted_size_exits_cleanly(self, n_r):
        # every -n the CLI takes, with the dots budget small enough to list quickly
        n, r = n_r
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            patch.setattr(cli, "TL_BASIS_MAX_DOTS", 3 * n + 40)
            code = main(["tl", "basis", "-n", str(n), "-r", str(r)])
        assert code == (0 if r >= 0 and n * tl.tl_basis_count(n, r) <= 3 * n + 40 else 2)

    def test_basis_degree_budget(self, capsys, monkeypatch):
        # the largest count at -n 14298 has 4,300 digits, the most Python prints of an int
        start = time.perf_counter()
        assert main(["tl", "basis", "-n", "14298", "-r", "118", "--count-only"]) == 0
        assert len(capsys.readouterr().out.strip()) == 4300
        for argv in (["-n", "14299", "-r", "119", "--count-only"], ["-n", "1000000", "-r", "0"]):
            assert main(["tl", "basis", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: tl basis is limited to -n <= 14298, got {argv[1]}\n"
        assert time.perf_counter() - start < 1.0
        monkeypatch.setattr(cli, "TL_BASIS_MAX_DEGREE", 6)
        assert main(["tl", "basis", "-n", "6", "-r", "2", "--count-only"]) == 0
        assert capsys.readouterr().out == "9\n"
        assert main(["tl", "basis", "-n", "7", "-r", "1", "--count-only"]) == 2
        assert capsys.readouterr().err == "error: tl basis is limited to -n <= 6, got 7\n"

    @staticmethod
    def _tl_basis_in_subprocess(argv, **env):
        inherited = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env = {**inherited, "PYTHONPATH": str(ROOT / "src"), **env}
        argv = [sys.executable, "-m", "diagalg.cli", "tl", "basis", *argv]
        return subprocess.run(argv, env=env, capture_output=True, encoding="utf-8")

    def test_degree_budget_under_the_default_digit_limit(self):
        done = self._tl_basis_in_subprocess(["-n", "14298", "-r", "118", "--count-only"])
        assert (done.returncode, len(done.stdout.strip()), done.stderr) == (0, 4300, "")
        done = self._tl_basis_in_subprocess(["-n", "14299", "-r", "119", "--count-only"])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: tl basis is limited to -n <= 14298, got 14299\n"

    def test_a_count_too_long_for_a_lower_digit_limit_exits_2(self):
        # Python refuses to print the count, in print or in the dots-budget message;
        # only the start of its message is the same in every version
        for argv in (["-n", "14298", "-r", "118", "--count-only"], ["-n", "14298", "-r", "118"]):
            done = self._tl_basis_in_subprocess(argv, PYTHONINTMAXSTRDIGITS="640")
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr.startswith("error: Exceeds the limit (640 digits) for integer string conversion")
        done = self._tl_basis_in_subprocess(["-n", "3000", "-r", "2998", "--count-only"], PYTHONINTMAXSTRDIGITS="640")
        assert (done.returncode, done.stdout, done.stderr) == (0, "2999\n", "")
        done = self._tl_basis_in_subprocess(["-n", "14299", "-r", "119", "--count-only"], PYTHONINTMAXSTRDIGITS="640")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: tl basis is limited to -n <= 14298, got 14299\n"

    def test_groth_expansion(self, capsys):
        assert main(["tl", "groth", "--left", "1:1", "--right", "1:1"]) == 0
        assert capsys.readouterr() == ('{"terms": [{"n": 2, "r": 0, "coeff": 1}, {"n": 2, "r": 2, "coeff": 1}]}\n', "")
        assert main(["tl", "groth", "--left", "1:1", "--right", "1:1", "--format", "text"]) == 0
        assert capsys.readouterr() == ("[V_2(0)] + [V_2(2)]\n", "")

    def test_groth_term_budget(self, capsys):
        # the band of [m, p]·[n, q] has min(p, q) + 1 terms: one past the budget exits before the
        # product, and labels far past it on one side pass when the other side's are few
        big = cli.TL_GROTH_MAX_TERMS
        assert main(["tl", "groth", "--left", f"{big}:{big}", "--right", f"{big + 2}:{big}"]) == 2
        message = f"error: tl groth is limited to {big} terms (min(p, q) + 1 for m:p times n:q), got {big + 1}\n"
        assert capsys.readouterr() == ("", message)
        assert main(["tl", "groth", "--left", f"{big + 1}:1", "--right", f"{10 * big}:{10 * big}", "--format", "text"]) == 0
        assert capsys.readouterr() == (f"[V_{11 * big + 1}({10 * big - 1})] + [V_{11 * big + 1}({10 * big + 1})]\n", "")

    def test_groth_builds_only_the_printed_format(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("built a format that is not printed")

        argv = ["tl", "groth", "--left", "4:2", "--right", "3:1"]
        monkeypatch.setattr(tl.GrothElement, "to_json", refuse)
        assert main([*argv, "--format", "text"]) == 0
        assert capsys.readouterr().out.strip()
        monkeypatch.undo()
        monkeypatch.setattr(tl.GrothElement, "render", refuse)
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_groth_json_is_written_as_it_is_encoded(self, capsys):
        # the JSON terms are written one at a time, as the bytes of
        # json.dumps(product.to_json()); the traced peak stays within 1 MiB of
        # the product, where a dict per term and then one string took about
        # three times it (122.5 MiB traced for a 44 MiB product at the budget)
        for left, right in (("1:1", "1:1"), ("4:2", "3:1"), ("7:3", "12:8"), ("2:0", "5:1")):
            assert main(["tl", "groth", "--left", left, "--right", right]) == 0
            product = tl.groth_multiply(*(tl.GrothElement.module_class(*cli._parse_class(c)) for c in (left, right)))
            assert capsys.readouterr() == (json.dumps(product.to_json()) + "\n", "")
        big = 20_000
        tracemalloc.start()
        try:
            product = tl.groth_multiply(*[tl.GrothElement.module_class(big, big)] * 2)
            size = tracemalloc.get_traced_memory()[0]
            del product
            tracemalloc.reset_peak()
            with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
                assert main(["tl", "groth", "--left", f"{big}:{big}", "--right", f"{big}:{big}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - size < 2**20, (size, peak)

    def test_groth_text_is_written_as_it_is_formatted(self, capsys):
        # the text terms are written one at a time, as the bytes of
        # print(product.render()); the traced peak stays within 1 MiB of the
        # product, where a list of every piece and then one joined string
        # read 1.8 MiB over it at 20,000 terms
        for left, right in (("1:1", "1:1"), ("4:2", "3:1"), ("7:3", "12:8"), ("2:0", "5:1")):
            assert main(["tl", "groth", "--left", left, "--right", right, "--format", "text"]) == 0
            product = tl.groth_multiply(*(tl.GrothElement.module_class(*cli._parse_class(c)) for c in (left, right)))
            assert capsys.readouterr() == (product.render() + "\n", "")
        big = 20_000
        tracemalloc.start()
        try:
            product = tl.groth_multiply(*[tl.GrothElement.module_class(big, big)] * 2)
            size = tracemalloc.get_traced_memory()[0]
            del product
            tracemalloc.reset_peak()
            with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
                argv = ["tl", "groth", "--left", f"{big}:{big}", "--right", f"{big}:{big}", "--format", "text"]
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - size < 2**20, (size, peak)

    def test_bad_class_argument_usage_error(self, capsys):
        assert main(["tl", "groth", "--left", "nonsense", "--right", "1:1"]) == 2

    @pytest.mark.parametrize(
        "text",
        ["2_0:0", " 2:0", "2:0 ", "2:\u0660", "2:", ":0", "2", "2:0:0", "+-2:0", "9" * 5000 + ":1"],
        ids=["underscore", "lead-space", "trail-space", "arabic-digit", "no-labels", "no-degree", "no-colon",
             "two-colons", "two-signs", "too-long"],
    )
    def test_class_takes_a_sign_and_ascii_digits_each_side(self, capsys, text):
        assert main(["tl", "groth", f"--left={text}", "--right", "1:1"]) == 2
        assert capsys.readouterr() == ("", f"error: class argument must look like 'degree:labels', got {text!r}\n")

    def test_class_takes_a_sign(self, capsys):
        assert main(["tl", "groth", "--left=+2:+0", "--right", "1:1", "--format", "text"]) == 0
        plus = capsys.readouterr().out
        assert main(["tl", "groth", "--left=2:0", "--right", "1:1", "--format", "text"]) == 0
        assert capsys.readouterr().out == plus
        # a sign parses, and the class band check still names the class
        assert main(["tl", "groth", "--left=-1:1", "--right", "1:1"]) == 2
        assert capsys.readouterr() == ("", "error: class (-1, 1) needs 0 <= labels <= degree with equal parity\n")

    @pytest.mark.parametrize(
        "left, right, klass",
        [("1:3", "1:1", "(1, 3)"), ("1:1", "1:3", "(1, 3)"), ("2:1", "1:1", "(2, 1)")],
        ids=["labels-above-degree", "right-option", "off-parity"],
    )
    def test_class_outside_the_band_is_a_usage_error(self, capsys, left, right, klass):
        # A class is an option, not an input diagram: exit 2, not 3.
        assert main(["tl", "groth", "--left", left, "--right", right]) == 2
        message = f"error: class {klass} needs 0 <= labels <= degree with equal parity\n"
        assert capsys.readouterr() == ("", message)


class TestVerify:
    def test_single_suite(self, capsys):
        assert main(["verify", "bell-identity"]) == 0
        out = capsys.readouterr().out
        assert "bell-identity: PASS" in out

    def test_all_suites_pass_at_their_default_bounds(self, capsys, monkeypatch):
        monkeypatch.delenv("DIAGALG_COLOR", raising=False)
        reports = verify.run_all()
        assert [r.suite for r in reports] == list(verify.SUITES)
        assert all(r.ok and r.cases > 0 for r in reports)
        # the CLI prints the same reports in each format; the suites run once
        monkeypatch.setattr(verify, "run_all", lambda limit: reports)
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out == "".join(f"{r.summary()}\n" for r in reports)
        assert main(["verify", "all", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [r.to_json() for r in reports]

    def test_text_report_lists_twenty_failures_then_counts_the_rest(self, capsys, monkeypatch):
        def many_failures(report, top):
            for k in range(23):
                report.check(False, f"failure {k}")

        monkeypatch.delenv("DIAGALG_COLOR", raising=False)
        monkeypatch.setitem(verify.SUITES, "many-failures", (many_failures, 1, 1))
        assert main(["verify", "many-failures"]) == 1
        head, *rest = capsys.readouterr().out.splitlines()
        assert head.startswith("many-failures: FAIL (23 failures) [23 cases, ")
        assert rest == [f"    failure {k}" for k in range(20)] + ["    ... and 3 more"]

    def test_unknown_suite_usage_error(self, capsys):
        assert main(["verify", "no-such-suite"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown suite 'no-such-suite'; choose from compose-assoc, ")
        assert err.endswith(" or 'all'\n")

    def test_json_report(self, capsys):
        assert main(["verify", "bell-identity", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is True

    def test_bound_below_one_usage_error(self, capsys):
        for argv in (["verify", "bell-identity", "--max", "0"], ["verify", "all", "--max", "-2"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: verify bound must be a positive integer, got {argv[-1]}\n"

    def test_run_suite_rejects_non_positive_int_bound(self):
        for limit in (True, 2.0, "3"):
            with pytest.raises(ValueError, match="verify bound must be a positive integer"):
                verify.run_suite("bell-identity", limit)
        assert verify.run_suite("bell-identity", 1).ok
        assert verify.run_suite("bell-identity", Count.THREE).ok

    @staticmethod
    def _forbid_suites(monkeypatch):
        # a missed ceiling then fails at once instead of running the sweep
        def must_not_run(report, top):
            raise AssertionError("a suite ran although its bound was refused")

        for name, (_, default, ceiling) in list(verify.SUITES.items()):
            monkeypatch.setitem(verify.SUITES, name, (must_not_run, default, ceiling))

    def test_bound_above_ceiling_usage_error(self, capsys, monkeypatch):
        assert verify.SUITES["action-assoc"][2] is None  # it ignores the bound
        assert verify.run_suite("action-assoc", 10**6).ok
        self._forbid_suites(monkeypatch)
        ceiling = verify.SUITES["transition-lemma"][2]
        assert ceiling == 4
        start = time.perf_counter()
        assert main(["verify", "transition-lemma", "--max", str(ceiling + 1)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verify transition-lemma is limited to --max <= 4, got 5\n"
        for name, (_, _, ceiling) in verify.SUITES.items():
            if ceiling is not None:
                with pytest.raises(ValueError, match=f"^verify {name} is limited to --max <= {ceiling}, got "):
                    verify.run_suite(name, ceiling + 1)

    def test_suite_defaults_within_ceilings(self):
        for name, (_, default, ceiling) in verify.SUITES.items():
            if name == "action-assoc":
                assert default is None and ceiling is None
            else:
                assert type(default) is int and 1 <= default <= ceiling, name

    def test_bound_ceiling_boundary(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "bell-identity", (verify.verify_bell_identity, 2, 2))
        assert main(["verify", "bell-identity", "--max", "2"]) == 0
        assert "bell-identity: PASS" in capsys.readouterr().out
        assert main(["verify", "bell-identity", "--max", "3"]) == 2
        assert capsys.readouterr().err == "error: verify bell-identity is limited to --max <= 2, got 3\n"

    def test_all_checks_every_ceiling_first(self, capsys, monkeypatch):
        self._forbid_suites(monkeypatch)
        last = list(verify.SUITES)[-1]
        monkeypatch.setitem(verify.SUITES, last, (*verify.SUITES[last][:2], 1))
        assert main(["verify", "all", "--max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify {last} is limited to --max <= 1, got 2\n"


class TestColor:
    """DIAGALG_COLOR=1 wraps the pass/fail line of verify and mult in green or red."""

    GREEN, RED, RESET = "\033[32m", "\033[31m", "\033[0m"

    @staticmethod
    def _failing_suite(report, top):
        report.check(False, "forced failure")

    def _lines(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "forced-failure", (self._failing_suite, 1, 1))
        assert main(["verify", "bell-identity", "--max", "2"]) == 0
        assert main(["verify", "forced-failure"]) == 1
        assert main(["mult", "-p", "2", "-q", "2", "-r", "2"]) == 0
        monkeypatch.setattr(multiplicity, "e2_lattice", lambda p, q, r: -1)
        assert main(["mult", "-p", "2", "-q", "2", "-r", "2"]) == 1
        return capsys.readouterr().out.splitlines()

    def test_set_wraps_pass_and_fail_lines(self, capsys, monkeypatch):
        monkeypatch.setenv("DIAGALG_COLOR", "1")
        lines = self._lines(capsys, monkeypatch)
        verdicts = [line for line in lines if line.startswith("\033[")]
        assert len(verdicts) == 4, lines
        passed, failed, agree, disagree = verdicts
        assert passed.startswith(self.GREEN + "bell-identity: PASS [") and passed.endswith(self.RESET)
        assert failed.startswith(self.RED + "forced-failure: FAIL (1 failures) [") and failed.endswith(self.RESET)
        assert (agree, disagree) == (self.GREEN + "agree" + self.RESET, self.RED + "DISAGREE" + self.RESET)

    def test_unset_prints_plain_lines(self, capsys, monkeypatch):
        monkeypatch.delenv("DIAGALG_COLOR", raising=False)
        lines = self._lines(capsys, monkeypatch)
        assert not any("\033" in line for line in lines), lines
        assert lines[0].startswith("bell-identity: PASS [")
        assert lines[1].startswith("forced-failure: FAIL (1 failures) [")
        assert "agree" in lines and "DISAGREE" in lines


class TestBudgetGuard:
    """Each budget of the CLI, at its limit and one past it, exits 0 or 2 and prints no traceback.

    The budgets that a run at the limit would take seconds to reach are
    lowered to the drawn size; walled census runs at its real budget.
    """

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("kind", ["e1", "e2", "bvo", "table", "census", "verify", "groth"])
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.tuples(*[st.integers(0, 14)] * 3), st.data())
    def test_at_and_just_past_every_budget(self, kind, pqr, data):
        p, q, r = pqr
        if kind == "e2":
            r = min(r, p + q)  # a walk of p + q - r >= 0 steps
        size = {"e1": multiplicity.e_closed(p, q, r), "e2": p + q - r, "bvo": max(p, q, r), "table": p % 6,
                "groth": min(p, q) + 1}.get(kind)
        m = data.draw(st.integers(0, cli.CENSUS_MAX_DOTS))
        labels = data.draw(st.integers(-1, cli.CENSUS_MAX_DOTS + 2))
        suite = data.draw(st.sampled_from([name for name, entry in verify.SUITES.items() if entry[2]]))
        for past in (0, 1):
            with pytest.MonkeyPatch.context() as patch:
                if kind in ("e1", "e2", "bvo"):
                    constant = {"e1": "MULT_E1_MAX_SOLUTIONS", "e2": "MULT_E2_MAX_WALK", "bvo": "MULT_BVO_MAX_COUNT"}
                    patch.setattr(cli, constant[kind], size - past)
                    argv = ["mult", "-p", str(p), "-q", str(q), "-r", str(r), "--engines", kind]
                elif kind == "table":
                    patch.setattr(cli, "MULT_TABLE_MAX", size)
                    argv = ["mult", "table", "--max", str(size + past), "--format", "csv" if q % 2 else "json"]
                elif kind == "groth":
                    patch.setattr(cli, "TL_GROTH_MAX_TERMS", size - past)
                    argv = ["tl", "groth", "--left", f"{p}:{p}", "--right", f"{q + 2 * r}:{q}"]
                elif kind == "census":
                    n = cli.CENSUS_MAX_DOTS + past - m
                    argv = ["walled", "census", "-m", str(m), "-n", str(n), "-r", str(labels)]
                else:
                    ceiling = 1 + p % 2
                    patch.setitem(verify.SUITES, suite, (verify.SUITES[suite][0], 1, ceiling))
                    argv = ["verify", suite, "--max", str(ceiling + past)]
                code, out, err = self._run(argv)
            assert "Traceback" not in err
            if past or (kind == "census" and labels < 0):
                assert (code, out) == (2, ""), argv
                assert err.startswith("error: ") and err.count("\n") == 1, err
            else:
                assert (code, err) == (0, ""), argv


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        assert main(["mult", "table", "--max", "2", "--format", "csv"]) == 0
        first = capsys.readouterr().out
        assert main(["mult", "table", "--max", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == first


# Flag values as the shell would pass them: small counts, negative and huge
# ints, bools, floats and arbitrary text.  Huge values lie past every budget,
# so a run that accepts one stays cheap.
SMALL = st.integers(0, 6).map(str)
NEGATIVE = st.integers(-(10**6), -1).map(str)
HUGE = st.sampled_from([10**8, 10**12, 2**63, 10**30]).map(str)
FLAG_VALUE = st.one_of(
    SMALL, NEGATIVE, HUGE, st.sampled_from(["True", "false"]), st.floats().map(repr), st.text(max_size=6)
)
# verify runs at most at its defaults: every --max drawn for it is refused
BAD_BOUND = st.one_of(NEGATIVE, st.just("0"), HUGE, st.sampled_from(["True", "2.0", "nan"]), st.text(max_size=6))
CHEAP_SUITES = [name for name in verify.SUITES if name not in ("transition-lemma", "compose-assoc")]

JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-8, 8), st.sampled_from([10**12, -(10**30)]), st.floats(), st.text(max_size=3)
)
JSON_ANY = st.recursive(
    JSON_SCALAR, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
)
DOTS = st.lists(st.lists(st.one_of(st.integers(-8, 8), JSON_SCALAR), max_size=4), max_size=8)
DIAGRAM_JSON = st.one_of(
    st.sampled_from([COMPOSE_LEFT, COMPOSE_RIGHT, ACT_DIAGRAM, ACT_NONZERO_DIAGRAM, ACT_INPUT, WALLED_INPUT]),
    st.fixed_dictionaries(
        {"n": st.one_of(st.integers(-1, 6), JSON_SCALAR), "blocks": DOTS},
        optional={"m": st.integers(-1, 6), "labeled": st.lists(st.integers(-1, 8), max_size=4)},
    ),
    JSON_ANY,
)


@st.composite
def cli_calls(draw):
    """(argv, {file name: JSON}, stdin text) for one in-process run of the command line.

    Half the calls are tame (every flag present, small counts, valid
    choices), so that runs reach the commands and not only argparse.
    """
    files, stdin = {}, ""
    wild = draw(st.booleans())

    def flags(*names):
        argv = []
        for name in names:
            if not wild or draw(st.booleans()):
                argv += [name, draw(FLAG_VALUE if wild else SMALL)]
        return argv

    def choice(name, options):
        if not draw(st.booleans()):
            return []
        return [name, draw(st.sampled_from(options) | st.text(max_size=4) if wild else st.sampled_from(options))]

    def json_input():
        nonlocal stdin
        kind = draw(st.sampled_from(["file", "file", "stdin", "missing"]))
        if kind == "missing":
            return "no-such-file.json"
        text = json.dumps(draw(DIAGRAM_JSON))
        if kind == "stdin":
            stdin = text
            return "-"
        name = f"input{len(files)}.json"
        files[name] = text
        return name

    command = draw(st.sampled_from(["mult", "mult table", "verify", "compose", "act", "index", "census", "geometry",
                                    "basis", "groth"]))
    if command == "mult":
        argv = ["mult", *flags("-p", "-q", "-r"), *choice("--engines", ["all", "closed", "e1", "e2", "bvo"])]
        argv += ["--solutions"] * draw(st.booleans())
    elif command == "mult table":
        argv = ["mult", "table", *flags("--max", "-p")]
    elif command == "verify":
        suite = draw(st.sampled_from([*verify.SUITES, "all"]) | st.text(max_size=4))
        bound = draw(BAD_BOUND) if suite not in CHEAP_SUITES or draw(st.booleans()) else None
        argv = ["verify", suite, *(["--max", bound] if bound is not None else [])]
    elif command == "compose":
        argv = ["compose", json_input(), json_input()]
    elif command == "act":
        argv = ["act", json_input(), json_input()]
    elif command == "index":
        argv = ["walled", "index", json_input()]
    elif command == "census":
        argv = ["walled", "census", *flags("-m", "-n", "-r")]
    elif command == "geometry":
        argv = ["geometry", *flags("-p", "-q", "-r")]
    elif command == "basis":
        argv = ["tl", "basis", *flags("-n", "-r"), *["--count-only"] * draw(st.booleans())]
    else:
        side = st.tuples(FLAG_VALUE, FLAG_VALUE).map(":".join) | st.text(max_size=6)
        argv = ["tl", "groth"]
        for name in ("--left", "--right"):
            argv += [name, draw(side)] if not wild or draw(st.booleans()) else []
    return [*argv, *choice("--format", ["text", "json", "csv"])], files, stdin


class TestFuzz:
    """The command line over its grammar: every run ends with exit 0, 2 or 3 and no escaping exception."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cli_calls())
    def test_every_run_exits_0_2_or_3(self, tmp_path_factory, call):
        argv, files, stdin = call
        folder = tmp_path_factory.getbasetemp() / "fuzz"
        folder.mkdir(exist_ok=True)
        for name, text in files.items():
            (folder / name).write_text(text)
        argv = [str(folder / arg) if arg in files or arg == "no-such-file.json" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "stdin", io.StringIO(stdin))
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
