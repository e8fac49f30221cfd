"""The crosscc benchmark: ``crosscc analyze`` end to end, and layer by layer.

    python3 bench/run.py --workload ci-exact --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # every workload, both runs
    python3 bench/run.py --make-expected                 # rebuild bench/expected/

A run writes the workload's corpus for ``--seed`` under ``bench/.work``,
then measures for ``--seconds`` seconds, one pass after another, each pass in
a fresh interpreter.

* ``--trace 0`` times ``import crosscc.cli`` and then ``crosscc.cli.main``
  over the corpus with nothing traced, and reports the end-to-end metrics:
  ``wall_s``, the mean pass time, ``units_per_s``, ``peak_rss_mb``, the
  median peak resident set, and ``setup_s``, the median import time.
* ``--trace 1`` alternates untraced CLI passes with traced passes, which
  rebuild the report from the public call of each layer inside a span, and
  reports per-layer self times and counts, medians over the traced passes.
  A traced report must equal the CLI's byte for byte. The tracemalloc peak
  of the basis layer comes from a pass of its own.

Every time is in reference seconds. The shared host's speed drifts by tens
of percent over seconds and minutes, so this process times a fixed
calibration kernel (``calib.py``) before the first pass and after every
pass, and scales the run's times by ``calib.REFERENCE_S`` over the run's
mean kernel time. The mean kernel time is reported as ``host.calib_s``, and
the unscaled CLI time as ``cli.raw_wall_s``. The benchmark and every pass
run on one CPU, so that the kernel and the passes see the same core.

Every pass is checked (see ``check.py``). The last line of the output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
benchmark needs the crosscc sources in ``src/`` next to ``bench/`` and exits
with status 2 without them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

import calib  # noqa: E402
from check import (graphs_of, invariant_failures, load_expected,  # noqa: E402
                   make_expected, parse_report, sha256)
from corpus import DEFAULT_SEED, LADDER_VERTICES, WORKLOADS, write_corpus  # noqa: E402

SETUP_SAMPLES = 15
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10
LAYERS = ("minilang", "cfg", "graph", "basis", "metric", "dot", "report")
LADDER_RUNGS = len(LADDER_VERTICES)


END_TO_END = {"wall_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "minilang.parse_s": "s", "minilang.mb_per_s": "MB/s", "minilang.bytes": "bytes",
    "cfg.lower_s": "s", "cfg.vertices": "count", "cfg.edges": "count",
    "graph.cycle_rank_s": "s", "graph.spanning_tree_s": "s", "graph.nu_total": "count",
    "basis.horton_s": "s", "basis.horton_max_unit_s": "s", "basis.tree_bound_s": "s",
    "basis.vxe_total": "count",
    **{f"basis.horton_s.r{k}": "s" for k in range(LADDER_RUNGS)},
    "basis.scaling_exp": "slope", "basis.alloc_peak_mb": "MB",
    "metric.classify_s": "s", "dot.parse_s": "s",
    "report.build_s": "s", "report.serialize_s": "s", "cli.self_s": "s",
    "unit.p50_ms": "ms", "unit.tail_ms": "ms", "unit.tail_pct": "%",
    "unit.samples": "count", "trace.overhead_s": "s", "trace.spans": "count",
    "cli.raw_wall_s": "s", "host.calib_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), CROSSCC_NO_COLOR="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(mode: str, corpus_dir: Path, *args: str) -> dict:
    """One pass in a fresh interpreter; its JSON result, or an error entry."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passes.py"), mode, str(corpus_dir), *args],
            env=child_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} pass exited {proc.returncode}: {proc.stderr[-500:]}"}
    result = json.loads(lines[-1])
    if result.get("exit_code", 0) is None:
        result["error"] = f"traceback in {mode} pass: {proc.stderr[-500:]}"
    return result


def median(values):
    return statistics.median(values) if values else math.nan


class Run:
    """One workload's corpus, its passes, and their correctness tally."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.corpus = write_corpus(workload, seed, self.dir, scale)
        self.expected = load_expected(self.corpus) if scale == 1.0 else None
        self.reference = None     # source -> record every pass must match
        self.reference_sha = None
        self.attempted = 0
        self.failed = 0
        self.wrong = set()
        self.problems = []
        self.outputs = []         # (result, report bytes) of every CLI pass
        self.calibs = []          # calibration kernel seconds, between passes

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # checking -----------------------------------------------------------

    def _set_reference(self, records, data: bytes) -> None:
        if self.expected is not None:
            self.reference = self.expected["records"]
            self.reference_sha = self.expected["sha256"]
            return
        bad = set(invariant_failures(self.corpus, records, graphs_of(self.corpus, self.dir)))
        self.reference = {s: r for s, r in records.items()
                          if s in self.corpus.expected_nu and s not in bad}
        self.reference_sha = sha256(data)

    def finish(self) -> None:
        """Check every CLI pass made; after the timed loop, so checks cost no
        measured time."""
        for result, data in self.outputs:
            self.check(result, data)

    def check(self, result: dict, data: bytes) -> None:
        units = self.corpus.units
        self.attempted += units
        if "error" in result or result["exit_code"] != self.corpus.workload.expected_exit:
            self.failed += units
            self.problems.append(result.get("error") or f"exit code {result['exit_code']}")
            return
        try:
            records = parse_report(data.decode("utf-8"), self.corpus.report_format)
        except (ValueError, KeyError, IndexError) as ex:
            self.failed += units
            self.problems.append(f"unreadable report: {ex}")
            return
        if self.reference is None:
            self._set_reference(records, data)
        self.failed += len(set(self.corpus.expected_nu) - set(records))
        self.wrong |= {s for s, r in records.items() if self.reference.get(s) != r}
        if sha256(data) != self.reference_sha:
            self.problems.append("report bytes differ from the reference")

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.failed and not self.problems

    # passes -------------------------------------------------------------

    def calibrate(self) -> None:
        self.calibs.append(calib.sample())

    @property
    def factor(self) -> float:
        """Reference seconds per measured second in this run.

        A mean, not a median: the host switches between fast and slow states
        for seconds at a time, and means over the run weigh the states alike
        in the passes and in the kernel, where a median of either may land in
        one state or the other.
        """
        return calib.REFERENCE_S / statistics.fmean(self.calibs)

    def cli_pass(self) -> dict:
        report = self.dir / "report.out"
        report.unlink(missing_ok=True)
        result = run_child("cli", self.dir, report.name, *self.corpus.argv)
        data = report.read_bytes() if report.is_file() else b""
        self.calibrate()
        self.outputs.append((result, data))
        result["report"] = data
        return result

    def trace_pass(self, cli_report: bytes) -> dict:
        report = self.dir / "traced.out"
        spans_file = WORK / f"trace-{self.corpus.workload.name}-{self.corpus.seed}.jsonl"
        result = run_child("trace", self.dir, report.name, str(spans_file),
                           *self.corpus.argv)
        self.calibrate()
        if "error" in result:
            self.problems.append(result["error"])
            return result
        if report.read_bytes() != cli_report:
            self.problems.append("traced report differs from the CLI report")
        with open(spans_file, encoding="utf-8") as fh:
            result["spans"] = [json.loads(line) for line in fh]
        return result

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics over CLI passes for ``seconds``, in reference
        seconds: the mean pass time, and the median import time of the
        passes (topped up to SETUP_SAMPLES with import-only passes)."""
        run_child("setup", self.dir)   # compiles the bytecode cache; not timed
        self.calibrate()
        passes = []
        deadline = time.perf_counter() + seconds
        took = 0.0
        while not passes or time.perf_counter() + took / 2 < deadline:
            t0 = time.perf_counter()
            passes.append(self.cli_pass())
            took = time.perf_counter() - t0
        good = [p for p in passes if "error" not in p]
        setups = [p["setup_s"] for p in good]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.setup_sample())
            self.calibrate()
        wall = statistics.fmean([p["wall_s"] for p in good]) * self.factor if good else math.nan
        return {
            "wall_s": wall,
            "units_per_s": self.corpus.units / wall,
            "peak_rss_mb": median([p["peak_rss_mb"] for p in good]),
            "setup_s": median([t for t in setups if t is not None]) * self.factor,
            "_passes": len(passes),
            "_calib_s": statistics.fmean(self.calibs),
        }

    def setup_sample(self):
        return run_child("setup", self.dir).get("setup_s")

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics: medians over traced passes, alternated with CLI
        passes for ``seconds`` after the tracemalloc pass."""
        deadline = time.perf_counter() + seconds
        alloc = run_child("alloc", self.dir, *self.corpus.argv)
        if "error" in alloc:
            self.problems.append(alloc["error"])
        self.calibrate()
        walls, layers = [], []
        while not layers or time.perf_counter() < deadline:
            cli = self.cli_pass()
            traced = self.trace_pass(cli["report"])
            if "error" in cli or "error" in traced:
                break
            walls.append(cli["wall_s"])
            layers.append(layer_metrics(traced, self.corpus.workload.name))
        metrics = {name: median([m[name] for m in layers]) for name in PER_LAYER
                   if layers and name in layers[0]}
        metrics["basis.alloc_peak_mb"] = alloc.get("alloc_peak_mb", math.nan)
        metrics["trace.overhead_s"] = median([m["_pass_s"] for m in layers]) - median(walls)
        for name, unit in PER_LAYER.items():
            if name in metrics and unit in ("s", "ms"):
                metrics[name] *= self.factor
            elif name in metrics and unit == "MB/s":
                metrics[name] /= self.factor
        metrics["cli.raw_wall_s"] = median(walls)
        metrics["host.calib_s"] = statistics.fmean(self.calibs)
        return {name: metrics.get(name, math.nan) for name in PER_LAYER}


def layer_metrics(traced: dict, workload: str) -> dict:
    """Self times and counts of one traced pass."""
    spans = traced["spans"]
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name = {}
    for (name, *_), t in zip(spans, self_time):
        by_name[name] = by_name.get(name, 0.0) + t
    horton = [end - start for name, start, end, _, _ in spans if name == "basis.horton"]
    unit_ms = sorted((end - start) * 1e3 for name, start, end, _, _ in spans
                     if name == "unit")
    units = traced["units"]
    pass_s = next(end - start for name, start, end, parent, _ in spans if parent < 0)
    layer_s = sum(t for name, t in by_name.items() if name.split(".")[0] in LAYERS)
    parse_s = by_name.get("minilang.parse", 0.0)
    out = {
        "_pass_s": pass_s,
        "minilang.parse_s": parse_s,
        "minilang.bytes": traced["bytes"] if parse_s else 0,
        "minilang.mb_per_s": traced["bytes"] / parse_s / 1e6 if parse_s else 0.0,
        "cfg.lower_s": by_name.get("cfg.lower", 0.0),
        "cfg.vertices": sum(v for _, v, _, _ in units),
        "cfg.edges": sum(e for _, _, e, _ in units),
        "graph.cycle_rank_s": by_name.get("graph.cycle_rank", 0.0),
        "graph.spanning_tree_s": by_name.get("graph.spanning_tree", 0.0),
        "graph.nu_total": sum(nu for *_, nu in units),
        "basis.horton_s": by_name.get("basis.horton", 0.0),
        "basis.horton_max_unit_s": max(horton, default=0.0),
        "basis.tree_bound_s": by_name.get("basis.tree_bound", 0.0),
        "basis.vxe_total": sum(v * e for _, v, e, _ in units),
        "metric.classify_s": by_name.get("metric.classify", 0.0),
        "dot.parse_s": by_name.get("dot.parse", 0.0),
        "report.build_s": by_name.get("report.build", 0.0),
        "report.serialize_s": by_name.get("report.serialize", 0.0),
        "cli.self_s": pass_s - layer_s,
        "trace.spans": len(spans),
    }
    out.update(_unit_percentiles(unit_ms))
    rungs = [0.0] * LADDER_RUNGS
    out["basis.scaling_exp"] = 0.0
    if workload == "exact-ladder" and len(horton) == LADDER_RUNGS:
        rungs = horton
        (v_low, t_low), (v_high, t_high) = [(units[k][1], rungs[k]) for k in (-2, -1)]
        out["basis.scaling_exp"] = math.log(t_high / t_low) / math.log(v_high / v_low)
    out.update({f"basis.horton_s.r{k}": t for k, t in enumerate(rungs)})
    return out


def _unit_percentiles(unit_ms) -> dict:
    """Median unit time, and the highest whole percentile that leaves at
    least TAIL_BEYOND samples above it (the maximum when there are too few)."""
    n = len(unit_ms)
    if n > TAIL_BEYOND:
        pct = math.floor(100 * (n - TAIL_BEYOND) / n)
        tail = unit_ms[max(0, math.ceil(pct / 100 * n) - 1)]
    else:
        pct, tail = 100, unit_ms[-1]
    return {"unit.p50_ms": statistics.median(unit_ms), "unit.tail_ms": tail,
            "unit.tail_pct": pct, "unit.samples": n}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    run = Run(workload, seed, scale)
    try:
        if trace:
            metrics, units = run.measure_traced(seconds), PER_LAYER
        else:
            metrics, units = run.measure(seconds), END_TO_END
        run.finish()
    finally:
        run.close()
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": units[name]}
                    for name in units},
        "_notes": {k[1:]: v for k, v in metrics.items() if k.startswith("_")},
        "_wrong": sorted(run.wrong),
        "_problems": run.problems,
    }


def _finite(value):
    """JSON has no NaN: a metric no pass could measure is reported as null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}")
    for name, m in result["metrics"].items():
        value = math.nan if m["value"] is None else m["value"]
        print(f"  {name:28s} {value:>14.6g} {m['unit']}")
    for name, value in result["_notes"].items():
        print(f"  {name:28s} {value:>14.6g}")
    wrong, attempted = len(result["_wrong"]), result["attempted"]
    print(f"  {'wrong_units':28s} {wrong:>14d} count")
    print(f"  {'failed_ratio':28s} {result['failed'] / max(attempted, 1):>14.6g} "
          f"of {attempted} units attempted")
    for source in result["_wrong"][:10]:
        print(f"  wrong: {source}")
    for problem in result["_problems"][:10]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, with --workload all)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every corpus by this factor (smoke tests)")
    parser.add_argument("--make-expected", action="store_true",
                        help="rebuild and verify the default seed's expected reports")
    args = parser.parse_args(argv)

    if not (SRC / "crosscc" / "cli.py").is_file():
        print(f"error: no crosscc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crosscc
    if Path(crosscc.__file__).resolve().parent != (SRC / "crosscc").resolve():
        print(f"error: crosscc imported from {crosscc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})   # passes inherit it
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.make_expected:
        for name in workloads:
            run = Run(name, DEFAULT_SEED)
            try:
                counts = make_expected(run.corpus, run.dir, lambda: _one_pass(run))
            finally:
                run.close()
            print(f"{name}: expected report verified {counts}")
        return 0

    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        for trace in traces:
            result = run_workload(name, args.seed, args.seconds, trace, args.scale)
            print_table(f"{name} (trace {int(trace)}, seed {args.seed})", result)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def _one_pass(run: Run):
    result = run_child("cli", run.dir, "report.out", *run.corpus.argv)
    return result, (run.dir / "report.out").read_bytes()


if __name__ == "__main__":
    sys.exit(main())
