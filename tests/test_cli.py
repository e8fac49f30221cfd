import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from crosscc import minilang
from crosscc.cli import main
from crosscc.dot import parse_dot

from conftest import FIXTURES


BIG = 10**400  # beyond float range


def copy_fixture(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(FIXTURES / name, dst)
    return dst


def deep_files(tmp_path, depth=10_000):
    """good.mini (Listing 1), then one file each of ``depth`` nested ifs,
    ifs nested in ``else`` blocks after a statement, ``else if`` arms,
    whiles and switches, one while under a chain of ``depth`` labels, and
    one straight-line run of ``10 * depth`` statements."""
    bodies = {
        "if_nest": "if (c) { " * depth + "x; " + "} " * depth,
        "else_nest": "if (c) { x; } else { y; " * depth + "z; " + "} " * depth,
        "else_if_chain": " else ".join(f"if (x == {i}) {{ y = {i}; }}" for i in range(depth)),
        "while_nest": "while (c) { " * depth + "x; " + "} " * depth,
        "switch_nest": "switch (k) { case 1: { " * depth + "x; " + "} } " * depth,
        "labels": "".join(f"L{i}: " for i in range(depth))
                  + f"while (c) {{ break L{depth - 1}; }}",
        "long_run": "x = x + 1; " * (10 * depth),
    }
    good = tmp_path / "good.mini"
    shutil.copy(FIXTURES / "listing1.mini", good)
    paths = [str(good)]
    for name, body in bodies.items():
        path = tmp_path / f"{name}.mini"
        path.write_text(f"fn {name}() {{ {body} }}\n", encoding="utf-8")
        paths.append(str(path))
    return paths


class TestAnalyze:
    def test_exact_mode_on_dot_cfg(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "ifelse_cfg.dot")
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        (rec,) = doc["records"]
        assert (rec["nu"], rec["omega"], rec["provenance"]) == (2, 4, "exact")

    def test_mini_file_records_per_function(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "listing1.mini")
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        recs = doc["records"]
        assert [r["unit"] for r in recs] == ["sumOfPrimes", "getWords"]
        assert [r["nu"] for r in recs] == [4, 4]
        assert recs[0]["omega"] != recs[1]["omega"]

    def test_treebound_mode_uses_marked_tree(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "bubble_sort.dot")
        assert main(["analyze", "--mode", "treebound", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        (rec,) = doc["records"]
        assert (rec["nu"], rec["omega"]) == (4, 12)
        assert rec["provenance"] == "tree-bound"

    def test_bad_tree_marks_fail_only_treebound_mode(self, tmp_path, capsys):
        # Three marks on a three-node graph cannot form a spanning tree.
        path = tmp_path / "marks.dot"
        path.write_text("digraph g { start=s; exit=r; s -> a [tree=true]; "
                        "a -> r [tree=true]; s -> r [tree=true]; }", encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        assert main(["analyze", "--mode", "treebound", str(path)]) == 1
        assert "marks.dot: error:" in capsys.readouterr().err

    def test_csv_format(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "atomic_seq.mini")
        assert main(["analyze", "--format", "csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("schema_version,")
        assert ",seq," in out.splitlines()[1]

    def test_parse_error_exits_one_but_processing_continues(self, tmp_path, capsys):
        bad = tmp_path / "bad.mini"
        bad.write_text("fn f() { if }", encoding="utf-8")
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        assert main(["analyze", str(bad), str(good)]) == 1
        captured = capsys.readouterr()
        assert "bad.mini" in captured.err
        doc = json.loads(captured.out)
        assert [r["unit"] for r in doc["records"]] == ["seq"]

    @pytest.mark.parametrize("mode", ["exact", "treebound"])
    def test_long_else_if_chain_is_analyzed(self, tmp_path, capsys, mode):
        # Each ``else if`` is an ``if`` alone in an ``else`` block, nested
        # through the explicit stacks of the parser and the lowerer.
        arms = " else ".join(f"if (x == {i}) {{ y = {i}; }}" for i in range(2000))
        chain = tmp_path / "chain.mini"
        chain.write_text(f"fn chain(x) {{ {arms} }}\n", encoding="utf-8")
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        assert main(["analyze", "--mode", mode, str(good), str(chain)]) == 0
        recs = json.loads(capsys.readouterr().out)["records"]
        assert sorted((r["unit"], r["nu"]) for r in recs) == [("chain", 2001), ("seq", 1)]

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["exact", "treebound"])
    def test_deep_nesting_and_label_chains_keep_the_batch(self, tmp_path, capsys, mode):
        # The parser and the lowerer keep explicit stacks, so no depth ends
        # the batch; dump-cfg shows each deep function's cycle rank.
        paths = deep_files(tmp_path)
        assert main(["analyze", "--mode", mode, *paths]) == 0
        recs = json.loads(capsys.readouterr().out)["records"]
        assert sorted((r["unit"], r["nu"]) for r in recs) == [
            ("else_if_chain", 10001), ("else_nest", 10001), ("getWords", 4),
            ("if_nest", 10001), ("labels", 2), ("long_run", 1), ("sumOfPrimes", 4),
            ("switch_nest", 10001), ("while_nest", 10001)]
        if mode == "exact":
            assert main(["dump-cfg", *paths[1:]]) == 0
            headers = [line.split()[-1] for line in capsys.readouterr().out.splitlines()
                       if line.startswith("// ")]
            assert headers == ["mcc=10001"] * 5 + ["mcc=2", "mcc=1"]

    def test_deep_files_need_no_tokens(self, tmp_path):
        with mock.patch.object(minilang, "_token_at", side_effect=AssertionError("token path")):
            for path in deep_files(tmp_path):
                minilang.parse(Path(path).read_text(encoding="utf-8"), path)

    def test_fail_above_gate(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "listing1.mini")
        # sumOfPrimes indicator is 15/4 = 3.75; getWords 11/4 = 2.75.
        assert main(["analyze", "--fail-above", "3.8", str(path), "-o",
                     str(tmp_path / "r.json")]) == 0
        assert main(["analyze", "--fail-above", "3.5", str(path), "-o",
                     str(tmp_path / "r.json")]) == 2
        assert "exceeds --fail-above 3.5" in capsys.readouterr().err

    def test_fail_above_is_strict(self, tmp_path):
        path = copy_fixture(tmp_path, "atomic_while.mini")  # indicator 2.0
        assert main(["analyze", "--fail-above", "2", str(path), "-o",
                     str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("weight, flags", [("0.5", []), ("1", []),
                                               ("1", ["--fail-above", "3"])])
    def test_omega_beyond_float_range_costs_only_its_file(self, tmp_path, capsys,
                                                          weight, flags):
        # omega = 10^400 + 1/2 would be written as a float; 10^400 + 1 as an
        # int, which the plot and the --fail-above message read as a float.
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        big = tmp_path / "big.dot"
        big.write_text(f"digraph g {{ a -> b [weight=1e400]; b -> a [weight={weight}]; }}",
                       encoding="utf-8")
        assert main(["analyze", *flags, str(big), str(good)]) == 1
        captured = capsys.readouterr()
        assert f"{big}: error: g: omega is out of float range" in captured.err
        assert [r["unit"] for r in json.loads(captured.out)["records"]] == ["seq"]

    def test_omega_beyond_the_digit_limit_costs_only_its_file(self, tmp_path, capsys):
        # Each weight has 4300 digits, the most a weight may have; their sum,
        # omega, has 4301, and is reported like any omega beyond float range.
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        big = tmp_path / "big.dot"
        big.write_text("digraph g { a -> b [weight=9e4299]; b -> a [weight=9e4299]; }",
                       encoding="utf-8")
        assert main(["analyze", str(big), str(good)]) == 1
        captured = capsys.readouterr()
        assert f"{big}: error: g: omega is out of float range" in captured.err
        assert [r["unit"] for r in json.loads(captured.out)["records"]] == ["seq"]

    @pytest.mark.parametrize("flag, value", [
        ("--slope", "foo"), ("--slope", "1/0"), ("--fail-above", "x"),
        pytest.param("--slope", f"1{'0' * 400}/3", id="--slope-10^400/3"),
        ("--fail-above", "1e400"), ("--slope", "1e100000000"),
        ("--fail-above", "1e-100000000"), ("--slope", "1e-4300")])
    def test_bad_number_is_a_usage_error(self, flag, value, tmp_path, capsys):
        path = copy_fixture(tmp_path, "atomic_seq.mini")
        with pytest.raises(SystemExit) as exited:
            main(["analyze", flag, value, str(path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}" in err

    def test_huge_exponent_costs_only_its_file(self, tmp_path, capsys):
        # Fraction would expand 10^100000000 in full, for minutes; 10^4300 has
        # one digit more than a weight may have.
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        big = tmp_path / "big.dot"
        for weight in ("1e100000000", "1e4300"):
            big.write_text(f"digraph g {{ start=a; exit=b;\n a -> b [weight={weight}]; }}\n",
                           encoding="utf-8")
            started = time.perf_counter()
            assert main(["analyze", str(big), str(good)]) == 1
            assert time.perf_counter() - started < 1
            captured = capsys.readouterr()
            assert f"{big}: error: {big}:2: bad weight '{weight}'" in captured.err
            assert [r["unit"] for r in json.loads(captured.out)["records"]] == ["seq"]

    def test_non_utf8_file_is_a_per_file_error(self, tmp_path, capsys):
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        bad = tmp_path / "bad.mini"
        bad.write_bytes(b"fn f() { x; }\xff")
        assert main(["analyze", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert f"{bad}: error:" in captured.err
        assert [r["unit"] for r in json.loads(captured.out)["records"]] == ["seq"]

    def test_dot_node_off_every_start_exit_path_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "stray.dot"
        path.write_text("digraph g { start=s; exit=r; s -> r; x -> s; x -> r; }",
                        encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert "'x' lies on no start-to-exit path" in captured.err
        assert json.loads(captured.out)["records"] == []

    def test_duplicate_dot_arc_is_a_warning(self, tmp_path, capsys):
        path = tmp_path / "dup.dot"
        path.write_text("digraph g { start=s; exit=r; s -> a; a -> r; a -> r; }",
                        encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"{path}: warning: arc a -> r declared more than once; "
                                "both kept as distinct edges\n")
        (rec,) = json.loads(captured.out)["records"]
        assert rec["nu"] == 2

    def test_diagnostics_of_a_loop_are_one_write(self, tmp_path, capsys, monkeypatch):
        # Two duplicate-arc warnings, then two --fail-above offenders, each
        # line colored on its own as a lone diagnostic is.
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        writes = []
        write = sys.stderr.write
        monkeypatch.setattr(sys.stderr, "write", lambda text: writes.append(text) or write(text))
        dup = tmp_path / "dup.dot"
        dup.write_text("digraph g { start=s; exit=r; s -> a; a -> r; a -> r; s -> a; }",
                       encoding="utf-8")
        assert main(["analyze", str(dup), "-o", str(tmp_path / "r.json")]) == 0
        warning = "{}: warning: arc {} -> {} declared more than once; both kept as distinct edges"
        assert writes == ["".join(f"\x1b[31m{warning.format(dup, *arc)}\x1b[0m\n"
                                  for arc in (("a", "r"), ("s", "a")))]
        writes.clear()
        path = copy_fixture(tmp_path, "listing1.mini")
        assert main(["analyze", "--fail-above", "1", str(path), "-o",
                     str(tmp_path / "r.json")]) == 2
        assert writes == [f"\x1b[31m{path}:sumOfPrimes: indicator 3.75 exceeds --fail-above 1"
                          f"\x1b[0m\n\x1b[31m{path}:getWords: indicator 2.75 exceeds "
                          "--fail-above 1\x1b[0m\n"]

    @pytest.mark.parametrize("name", ["listing1.mini", "ifelse_cfg.dot"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys, name):
        path = copy_fixture(tmp_path, name)
        commands = [["analyze", str(path)]]
        if path.suffix == ".mini":
            commands.append(["dump-cfg", str(path)])

        def run_all():
            for command in commands:
                assert main(command) == 0
            return capsys.readouterr()
        plain = run_all()
        path.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
        assert run_all() == plain
        assert plain.err == ""

    def test_dot_reachability_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "stray.dot"
        path.write_text("digraph g { start=s; exit=r; s -> r; x -> s; x -> r; }",
                        encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert (f"{path}: error: {path}: node 'x' lies on no start-to-exit path"
                in capsys.readouterr().err)

    def test_dot_token_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "tok.dot"
        path.write_text('digraph g {\n  a -> "b;\n}\n', encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert (f"{path}: error: {path}:2: unexpected character '\"'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", ["exact", "treebound"])
    def test_negative_dot_weight_is_a_located_error(self, tmp_path, capsys, mode):
        path = tmp_path / "w.dot"
        path.write_text("digraph g {\n  start=s; exit=e;\n  s -> a [weight=-5];\n"
                        "  a -> e;\n  a -> s;\n}\n", encoding="utf-8")
        assert main(["analyze", "--mode", mode, str(path)]) == 1
        captured = capsys.readouterr()
        assert f"{path}: error: {path}:3: negative weight '-5'" in captured.err
        assert json.loads(captured.out)["records"] == []

    def test_unsupported_extension(self, tmp_path, capsys):
        path = tmp_path / "what.txt"
        path.write_text("", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "unsupported" in capsys.readouterr().err

    def test_output_file_and_determinism(self, tmp_path):
        src = copy_fixture(tmp_path, "listing1.mini")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(src), "-o", str(out1)]) == 0
        assert main(["analyze", str(src), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_negative_weight_rejected_in_exact_mode(self, tmp_path, capsys):
        path = tmp_path / "neg.dot"
        path.write_text("digraph g { a -> b [weight=-1]; b -> a; }",
                        encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "weight" in capsys.readouterr().err

    def test_disconnected_bare_dot_graph_costs_only_its_file(self, tmp_path, capsys):
        # Without start and exit no reachability check runs, so the exact
        # basis is what refuses the graph.
        split = tmp_path / "split.dot"
        split.write_text("digraph g { a -> b; b -> a; c -> d; d -> c; }", encoding="utf-8")
        good = copy_fixture(tmp_path, "ifelse_cfg.dot")
        assert main(["analyze", str(split), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{split}: error: graph is not connected (unoriented)"]
        assert [r["unit"] for r in json.loads(captured.out)["records"]] == ["ifelse_cfg"]

    def test_empty_digraph_is_an_analysis_error(self, tmp_path, capsys):
        path = tmp_path / "empty.dot"
        path.write_text("digraph g { }", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        capsys.readouterr()

    def test_slope_flag_changes_region(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "atomic_while.mini")  # (2, 4)
        assert main(["analyze", str(path)]) == 0
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert rec["region"] == "non-trivial"
        assert main(["analyze", "--slope", "3", str(path)]) == 0
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert rec["region"] == "trivial-band"


class TestPlotCommand:
    def test_plot_outputs_svg_and_csv(self, tmp_path):
        src = copy_fixture(tmp_path, "listing1.mini")
        report = tmp_path / "report.json"
        assert main(["analyze", str(src), "-o", str(report)]) == 0
        out = tmp_path / "plot.svg"
        assert main(["plot", str(report), "-o", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "sumOfPrimes" in svg
        csv_text = (tmp_path / "plot.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "name,nu,omega"

    def test_plot_empty_report_fails_without_output(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({
            "schema_version": 1, "tool_version": "0", "config": {},
            "records": []}), encoding="utf-8")
        out = tmp_path / "plot.svg"
        assert main(["plot", str(report), "-o", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '[1,2]', '"x"', '{"records": 5}', '{"records": [1]}',
        '{"config": 5, "records": []}', '{"config": {"slope": "1/0"}, "records": []}',
        '{"records": [{"unit": "f", "source": "a", "nu": 1, "omega": "1/0",'
        ' "provenance": "exact", "region": "non-trivial", "indicator": 1}]}',
        '{"records": [{"unit": "f", "source": "a", "nu": 1e400, "omega": 1,'
        ' "provenance": "exact", "region": "non-trivial", "indicator": 1}]}',
        '{"records": [{"unit": "f", "source": "a", "nu": 1, "omega": 1}]}',
        # Numbers a float cannot hold.
        *(pytest.param(f'{{"records": [{{"unit": "f", "source": "a", "nu": {nu},'
                       f' "omega": {omega}, "provenance": "exact", "region": "non-trivial",'
                       f' "indicator": {indicator}}}]}}', id=f"{field}-10^400")
          for field, nu, omega, indicator in [("nu", BIG, 1, 1), ("omega", 1, BIG, 1),
                                              ("indicator", 1, 1, BIG)]),
        pytest.param('{"config": {"slope": "1e400"}, "records": [{"unit": "f", "source": "a",'
                     ' "nu": 1, "omega": 1, "provenance": "exact", "region": "non-trivial",'
                     ' "indicator": 1}]}', id="slope-1e400"),
        # Exponents that Fraction would expand in full, for minutes.
        *(pytest.param(f'{{"config": {{"slope": {slope}}}, "records": [{{"unit": "f",'
                       f' "source": "a", "nu": 1, "omega": {omega}, "provenance": "exact",'
                       f' "region": "non-trivial", "indicator": {indicator}}}]}}',
                       id=f"{field}-1e100000000")
          for field, slope, omega, indicator in [
              ("slope", '"1e100000000"', 1, 1), ("omega", 2, '"1e100000000"', 1),
              ("indicator", 2, 1, '"1e-100000000"')]),
        # A slope that fits a float, but not once scaled to the plot's x-span.
        pytest.param('{"config": {"slope": 1e308}, "records": [{"unit": "f", "source": "a",'
                     ' "nu": 1, "omega": 1, "provenance": "exact", "region": "non-trivial",'
                     ' "indicator": 1}]}', id="slope-1e308"),
    ])
    def test_plot_wrong_shape_is_a_diagnostic(self, tmp_path, capsys, text):
        report = tmp_path / "report.json"
        report.write_text(text, encoding="utf-8")
        out = tmp_path / "plot.svg"
        assert main(["plot", str(report), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"{report}: error: ")
        assert not out.exists()

    def test_csv_output_path_is_refused_before_writing(self, tmp_path, capsys):
        # The points CSV would land on the SVG's own path.
        src = copy_fixture(tmp_path, "listing1.mini")
        report = tmp_path / "report.json"
        assert main(["analyze", str(src), "-o", str(report)]) == 0
        out = tmp_path / "out.csv"
        assert main(["plot", str(report), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"{out}: error: ")
        assert not out.exists()

    def test_unit_utf8_cannot_encode_is_refused_before_writing(self, tmp_path, capsys):
        # JSON can spell a lone surrogate, which no UTF-8 file can hold.
        report = tmp_path / "report.json"
        report.write_text('{"records": [{"unit": "\\ud800", "source": "a", "nu": 1,'
                          ' "omega": 1, "provenance": "exact", "region": "non-trivial",'
                          ' "indicator": 1}]}', encoding="utf-8")
        out = tmp_path / "plot.svg"
        assert main(["plot", str(report), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"{report}: error: record 0: ")
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_text_utf8_cannot_encode_is_a_diagnostic_and_no_file(self, tmp_path, capsys):
        # Past report_from_json no unit can be such text; stand in a renderer.
        report = tmp_path / "report.json"
        assert main(["analyze", str(FIXTURES / "listing1.mini"), "-o", str(report)]) == 0
        out = tmp_path / "plot.svg"
        with mock.patch("crosscc.cli.halfplane_svg", return_value="\ud800"):
            assert main(["plot", str(report), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"{out}: error: ")
        assert not out.exists() and not out.with_suffix(".csv").exists()


class TestDumpCfg:
    def test_dump_is_valid_dot(self, tmp_path, capsys):
        path = copy_fixture(tmp_path, "atomic_while.mini")
        assert main(["dump-cfg", str(path)]) == 0
        out = capsys.readouterr().out
        doc = parse_dot(out[out.index("digraph"):])
        assert doc.is_cfg()
        assert doc.graph.vertex_count == 3

    def test_statement_over_several_lines_dumps_and_analyzes(self, tmp_path, capsys):
        path = tmp_path / "wrap.mini"
        path.write_text("fn f(a) {\n  x = a +\n    1;\n  while (x) {\n    x =\n x - 1; }\n}\n",
                        encoding="utf-8")
        assert main(["dump-cfg", str(path)]) == 0
        dumped = tmp_path / "wrap.dot"
        dumped.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main(["analyze", str(path), str(dumped)]) == 0
        recs = json.loads(capsys.readouterr().out)["records"]
        assert [(r["nu"], r["omega"]) for r in recs] == [(2, 5), (2, 5)]

    def test_non_utf8_file_is_a_per_file_error(self, tmp_path, capsys):
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        bad = tmp_path / "bad.mini"
        bad.write_bytes(b"\xff")
        assert main(["dump-cfg", str(bad), str(good)]) == 1
        captured = capsys.readouterr()
        assert f"{bad}: error:" in captured.err
        assert "// " + str(good) + ":seq" in captured.out

    @pytest.mark.parametrize("name", ["mccabe_g2.dot", "README.md"])
    def test_only_mini_files_are_dumped(self, tmp_path, capsys, name):
        good = copy_fixture(tmp_path, "atomic_seq.mini")
        other = tmp_path / name
        other.write_text("digraph g { a -> b; }\n/* never closed", encoding="utf-8")
        assert main(["dump-cfg", str(other), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (f"{other}: error: unsupported file type "
                                        f"{other.suffix!r} (expected .mini)")
        assert "// " + str(good) + ":seq" in captured.out

    def test_diagnostics_not_colored_with_env(self, tmp_path, capsys, monkeypatch):
        # Captured stderr is no terminal, so claim one: else nothing is colored.
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        bad = tmp_path / "bad.mini"
        bad.write_text("fn f() {", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 1
        colored = capsys.readouterr().err
        monkeypatch.setenv("CROSSCC_NO_COLOR", "1")
        assert main(["analyze", str(bad)]) == 1
        plain = capsys.readouterr().err
        assert "\x1b[" not in plain
        assert plain.startswith(f"{bad}: error: ")
        assert colored == f"\x1b[31m{plain[:-1]}\x1b[0m\n"


def run_python(*args):
    """``python args`` in a fresh interpreter, with this checkout's ``src``
    first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def run_module(*args):
    """``python -m crosscc args``."""
    return run_python("-m", "crosscc", *args)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every CI call pays for the import; dataclasses alone pulls in inspect,
    # ast, dis and tokenize.
    run = run_python("-c", "import sys; before = set(sys.modules); import crosscc.cli; "
                           "print(*sorted(set(sys.modules) - before))")
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "crosscc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_python_dash_m_runs_the_cli(capsys):
    path = str(FIXTURES / "listing1.mini")
    assert main(["analyze", path]) == 0
    expected = capsys.readouterr().out
    run = run_module("analyze", path)
    assert run.returncode == 0
    assert run.stdout == expected


@pytest.mark.parametrize("command", ["analyze", "dump-cfg", "plot"])
def test_unwritable_output_is_a_diagnostic(tmp_path, command):
    source = str(FIXTURES / "listing1.mini")
    if command == "plot":
        report = tmp_path / "r.json"
        assert main(["analyze", source, "-o", str(report)]) == 0
        source = str(report)
    out = tmp_path / "missing" / "out"
    run = run_module(command, source, "-o", str(out))
    assert run.returncode == 1
    assert f"{out}: error:" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("command", [["analyze", "--format", "csv"], ["dump-cfg"]])
def test_file_name_bytes_that_are_not_utf8_are_written_back(tmp_path, command):
    src = tmp_path / os.fsdecode(b"\xff.mini")
    try:
        shutil.copy(FIXTURES / "atomic_seq.mini", src)
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "out"
    assert main([*command, str(src), "-o", str(out)]) == 0
    assert os.fsencode(src) + b":seq" in out.read_bytes()


def test_a_stdout_without_a_byte_buffer_takes_the_text(tmp_path):
    src = copy_fixture(tmp_path, "listing1.mini")
    out = tmp_path / "out.json"
    assert main(["analyze", str(src), "-o", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["analyze", str(src)]) == 0
    assert stdout.getvalue() == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [["analyze", "--format", "csv"], ["dump-cfg"]])
def test_file_name_bytes_that_are_not_utf8_reach_a_strict_stdout(tmp_path, command):
    # Python's stdout would refuse the surrogate that stands for the byte.
    src = tmp_path / os.fsdecode(b"\xff.mini")
    try:
        shutil.copy(FIXTURES / "atomic_seq.mini", src)
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    out = tmp_path / "out"
    assert main([*command, str(src), "-o", str(out)]) == 0
    package = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict", PYTHONPATH=os.pathsep.join(
        filter(None, [package, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "crosscc", *command, src],
                         capture_output=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert b"Traceback" not in run.stderr
    assert run.stdout == out.read_bytes()
