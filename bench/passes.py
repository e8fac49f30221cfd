"""One measured pass, run in a fresh interpreter by ``run.py``.

    python3 passes.py setup <corpus-dir>
    python3 passes.py cli   <corpus-dir> <report-file> <analyze args...>
    python3 passes.py trace <corpus-dir> <report-file> <spans-file> <analyze args...>
    python3 passes.py alloc <corpus-dir> <analyze args...>

The working directory becomes the corpus directory, and ``crosscc`` comes
from ``PYTHONPATH``. Each mode prints one JSON object as its last line.

* ``setup`` times ``import crosscc.cli``.
* ``cli`` times ``import crosscc.cli``, then ``crosscc.cli.main`` over the
  corpus, and reports the exit code and the peak resident set.
* ``trace`` rebuilds every record from the public calls the CLI makes
  (parse or parse_dot, lower, cycle_rank, horton_basis or spanning_tree and
  tree_bound, classify_region, AnalysisReport) with a span around each call,
  then writes the report and the spans.
* ``alloc`` takes the tracemalloc peak around the basis call of the
  largest unit (largest V * E).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

perf = time.perf_counter


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, unit id]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, unit=None):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf(), 0.0, parent, unit])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = perf()

    def call(self, name, unit, fn, *args):
        self.begin(name, unit)
        try:
            return fn(*args)
        finally:
            self.end()


def _analyze_args(argv):
    """The analyze options, read by the CLI's own argument parser."""
    from crosscc.cli import build_arg_parser
    return build_arg_parser().parse_args(argv)


def _read(tracer, path, stats):
    text = tracer.call("io.read", str(path), path.read_text, "utf-8")
    stats["bytes"] += len(text.encode("utf-8"))
    return text


def _mini_units(tracer, path, stats):
    from crosscc.cfg import lower
    from crosscc.minilang import parse
    program = tracer.call("minilang.parse", str(path), parse,
                          _read(tracer, path, stats), str(path))
    for position, fn in enumerate(program.functions):
        source = f"{path}:{fn.name}"
        tracer.begin("unit", source)
        cfg = tracer.call("cfg.lower", source, lower, fn, str(path))
        yield position, fn.name, source, cfg.graph, cfg.start
        tracer.end()


def _dot_units(tracer, path, stats):
    from crosscc.dot import parse_dot
    doc = tracer.call("dot.parse", str(path), parse_dot,
                      _read(tracer, path, stats), str(path))
    tracer.begin("unit", str(path))
    cfg = doc.to_cfg()
    yield 0, doc.name, str(path), cfg.graph, cfg.start
    tracer.end()


def traced_report(tracer, args, stats) -> str:
    """The CLI's report text, rebuilt from public calls, one span per call."""
    from crosscc import __version__
    from crosscc.basis import horton_basis, tree_bound
    from crosscc.graph import as_weight, cycle_rank, spanning_tree
    from crosscc.metric import classify_region
    from crosscc.report import AnalysisReport, UnitRecord

    slope = as_weight(args.slope)
    records = []
    for raw in args.paths:
        path = Path(raw)
        units = _mini_units if path.suffix == ".mini" else _dot_units
        for position, name, source, graph, start in units(tracer, path, stats):
            nu = tracer.call("graph.cycle_rank", source, cycle_rank, graph)
            if args.mode == "exact":
                basis = tracer.call("basis.horton", source, horton_basis, graph)
            else:
                tree = tracer.call("graph.spanning_tree", source, spanning_tree,
                                   graph, start)
                basis = tracer.call("basis.tree_bound", source, tree_bound, graph, tree)
            omega = basis.total_weight
            region = tracer.call("metric.classify", source, classify_region,
                                 nu, omega, slope)
            stats["units"].append([source, graph.vertex_count, graph.edge_count, nu])
            records.append(UnitRecord(
                unit=name, source=source, file=str(path), position=position,
                nu=nu, omega=omega, provenance=basis.provenance.value,
                region=region.value, indicator=omega / Fraction(nu)))
    report = tracer.call("report.build", None, AnalysisReport.build, records,
                         __version__, args.mode, slope)
    serialize = report.to_csv if args.format == "csv" else report.to_json
    return tracer.call("report.serialize", None, serialize)


def _setup():
    t0 = perf()
    import crosscc.cli  # noqa: F401
    return {"setup_s": perf() - t0}


def _cli(report_file, argv):
    t0 = perf()
    import crosscc.cli
    t1 = perf()
    try:
        code = crosscc.cli.main([*argv, "-o", report_file])
    except Exception:  # a traceback fails every unit of the pass
        import traceback
        traceback.print_exc()
        code = None
    t2 = perf()
    return {"setup_s": t1 - t0, "wall_s": t2 - t1, "exit_code": code,
            "peak_rss_mb": _peak_rss_mb()}


def _peak_rss_mb():
    """Peak resident set of this process image. ``ru_maxrss`` would also
    count the parent's resident set, which a spawned child inherits until it
    execs."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _trace(report_file, spans_file, argv):
    args = _analyze_args(argv)
    tracer = Tracer()
    stats = {"units": [], "bytes": 0}
    tracer.begin("pass")
    text = traced_report(tracer, args, stats)
    tracer.call("io.write", None, Path(report_file).write_text, text, "utf-8")
    tracer.end()
    with open(spans_file, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return stats


def _alloc(argv):
    """tracemalloc peak (MB) around the basis call of the largest unit."""
    import tracemalloc
    from crosscc.basis import horton_basis, tree_bound
    from crosscc.cfg import lower
    from crosscc.dot import parse_dot
    from crosscc.graph import spanning_tree
    from crosscc.minilang import parse

    args = _analyze_args(argv)
    cfgs = []
    for raw in args.paths:
        text = Path(raw).read_text(encoding="utf-8")
        if raw.endswith(".mini"):
            cfgs += [lower(fn, raw) for fn in parse(text, raw).functions]
        else:
            cfgs.append(parse_dot(text, raw).to_cfg())
    cfg = max(cfgs, key=lambda c: c.graph.vertex_count * c.graph.edge_count)
    tracemalloc.start()
    try:
        if args.mode == "exact":
            horton_basis(cfg.graph)
        else:
            tree_bound(cfg.graph, spanning_tree(cfg.graph, cfg.start))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"alloc_peak_mb": peak / 2**20}


def main(argv):
    mode, corpus_dir, rest = argv[0], argv[1], argv[2:]
    os.chdir(corpus_dir)
    if mode == "setup":
        result = _setup()
    elif mode == "cli":
        result = _cli(rest[0], rest[1:])
    elif mode == "trace":
        result = _trace(rest[0], rest[1], rest[2:])
    elif mode == "alloc":
        result = _alloc(rest)
    else:
        raise SystemExit(f"unknown pass {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
