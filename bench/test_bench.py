"""Tests of the benchmark itself, on tiny corpora.

    python3 -m pytest bench

They are not part of the crosscc test suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import corpus  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from crosscc.cfg import lower  # noqa: E402
from crosscc.graph import cycle_rank  # noqa: E402
from crosscc.minilang import parse  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_generated_functions_are_valid_and_have_the_designed_rank():
    for seed in range(400):
        rng = random.Random(seed)
        decisions = rng.choice([1, 2, 5, 13, 40])
        text = gen.mini_function(rng, "f", decisions, depth=rng.randint(1, 5),
                                 width=rng.randint(1, 4), chunk=rng.choice([0, 0, 4]))
        cfg = lower(parse(text).functions[0])
        assert cycle_rank(cfg.graph) == decisions + 1, text


def test_generator_is_a_function_of_the_seed(tmp_path):
    for name in corpus.WORKLOADS:
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        files = corpus.write_corpus(name, 5, a, scale=0.1).files
        assert files == corpus.write_corpus(name, 5, b, scale=0.1).files
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def test_dot_generator_rank():
    from crosscc.dot import parse_dot
    for seed in range(20):
        text, nu = gen.dot_cfg(random.Random(seed), "g", 30, 17, 3)
        assert cycle_rank(parse_dot(text).to_cfg().graph) == nu


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in corpus.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--scale", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_checker_flags_a_wrong_record(tmp_path):
    c = corpus.write_corpus("ci-exact", 3, tmp_path, scale=0.1)
    graphs = check.graphs_of(c, tmp_path)
    from crosscc.basis import horton_basis
    records = {}
    for source, (graph, _) in graphs.items():
        nu, omega = cycle_rank(graph), horton_basis(graph).total_weight
        band = "trivial-band" if omega < 2 * nu else "non-trivial"
        indicator = omega / nu
        shown = str(indicator.numerator) if indicator.denominator == 1 else repr(float(indicator))
        records[source] = (source.split(":")[1], str(nu), str(omega), "exact", band, shown)
    assert check.invariant_failures(c, records, graphs) == []
    victim = min(s for s in records if int(records[s][1]) <= check.ORACLE_MAX_NU)
    unit, nu, omega, *rest = records[victim]
    records[victim] = (unit, nu, str(int(omega) + 1), *rest)
    assert check.invariant_failures(c, records, graphs) == [victim]


def test_default_seed_report_matches_the_expected_report(tmp_path):
    c = corpus.write_corpus("dot-weighted", corpus.DEFAULT_SEED, tmp_path)
    result = run.run_child("cli", tmp_path, "report.out", *c.argv)
    expected = check.load_expected(c)
    assert result["exit_code"] == expected["exit_code"] == 0
    assert check.sha256((tmp_path / "report.out").read_bytes()) == expected["sha256"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ci-exact", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
