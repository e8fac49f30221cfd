"""Command-line interface.

Subcommands:

* ``analyze``  — compute cross complexity for .mini and .dot files and emit
  a JSON (default) or CSV report. Exit code 0 on success, 1 if any file
  failed to parse or analyze, 2 when --fail-above is set and some unit's
  indicator exceeds it.
* ``plot``     — turn a saved JSON report into the halfplane SVG plus a CSV
  of points.
* ``dump-cfg`` — print the lowered control-flow graph of a .mini file in
  the DOT subset, for eyeballing the frontend.

Diagnostics go to stderr, colored unless CROSSCC_NO_COLOR is set or stderr
is not a terminal.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from . import __version__
from .basis import Provenance
from .cfg import lower
from .dot import dump_cfg_dot, parse_dot
from .errors import CrossCCError
from .graph import as_weight
from .metric import CrossComplexity, cross_complexity
from .minilang import parse
from .report import (AnalysisReport, UnitRecord, finite, halfplane_svg, points_csv,
                     report_from_json)


def _color_enabled() -> bool:
    if os.environ.get("CROSSCC_NO_COLOR"):
        return False
    return sys.stderr.isatty()


def _diag(*lines: str) -> None:
    """Write each line to stderr, colored on its own, in one write: a
    stderr that is not a terminal is line-buffered, so each ``print`` would
    be a write of its own."""
    if _color_enabled():
        lines = tuple(f"\x1b[31m{line}\x1b[0m" for line in lines)
    sys.stderr.write("".join(f"{line}\n" for line in lines))


def _read(path: Path) -> str:
    """The UTF-8 text of a source file, without a leading byte order mark."""
    return path.read_text(encoding="utf-8").removeprefix("\ufeff")


def _emit(text: str, output: Optional[str]) -> int:
    """Write ``text`` to the file ``output``, or to stdout when it is None.
    Returns 0, or 1 after a diagnostic when the text cannot be written.

    The text is encoded once, before a file is opened, so a failure creates
    no file; the bytes of a file name that were not UTF-8 are written back,
    to a file and to stdout alike. A stdout without a byte ``buffer`` (a
    ``StringIO`` put in its place) takes the text itself."""
    try:
        data = text.encode("utf-8", "surrogateescape")
        if output is not None:
            Path(output).write_bytes(data)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
        else:
            sys.stdout.write(text)
    except (OSError, UnicodeEncodeError) as ex:
        _diag(f"{'<stdout>' if output is None else output}: error: {ex}")
        return 1
    return 0


def _record(path: Path, position: int, unit: str, source: str,
            cc: CrossComplexity) -> UnitRecord:
    try:
        finite(cc.omega_min, "omega")  # the indicator, omega / nu, is no larger
    except ValueError as ex:
        raise CrossCCError(f"{unit}: {ex}") from None
    return UnitRecord(
        unit=unit, source=source, file=str(path), position=position,
        nu=cc.nu, omega=cc.omega_min, provenance=cc.provenance.value,
        region=cc.region.value, indicator=cc.indicator)


def _analyze_mini(path: Path, mode: Provenance, slope: Fraction) -> List[UnitRecord]:
    program = parse(_read(path), str(path))
    return [_record(path, position, fn.name, f"{path}:{fn.name}",
                    cross_complexity(lower(fn, str(path)), mode, slope))
            for position, fn in enumerate(program.functions)]


def _analyze_dot(path: Path, mode: Provenance, slope: Fraction) -> List[UnitRecord]:
    doc = parse_dot(_read(path), str(path))
    if doc.duplicate_arcs:
        _diag(*(f"{path}: warning: arc {src} -> {dst} declared more than once; "
                "both kept as distinct edges" for src, dst in doc.duplicate_arcs))
    subject = doc.to_cfg() if doc.is_cfg() else doc.graph
    # Marks are read only when used, so a bad mark never fails an exact run.
    marked = doc.marked_tree() if mode is Provenance.TREE_BOUND else None
    cc = cross_complexity(subject, mode, slope, tree=marked)
    return [_record(path, 0, doc.name, str(path), cc)]


def _cmd_analyze(args) -> int:
    mode = Provenance.EXACT if args.mode == "exact" else Provenance.TREE_BOUND
    slope = as_weight(args.slope)
    records: List[UnitRecord] = []
    failed = False
    for raw in args.paths:
        path = Path(raw)
        try:
            if path.suffix == ".mini":
                records.extend(_analyze_mini(path, mode, slope))
            elif path.suffix == ".dot":
                records.extend(_analyze_dot(path, mode, slope))
            else:
                raise CrossCCError(f"unsupported file type {path.suffix!r} "
                                   "(expected .mini or .dot)")
        except (CrossCCError, OSError, UnicodeDecodeError) as ex:
            _diag(f"{path}: error: {ex}")
            failed = True
    report = AnalysisReport.build(records, tool_version=__version__,
                                  mode=args.mode, slope=slope)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if _emit(text, args.output) or failed:
        return 1
    if args.fail_above is not None:
        threshold = as_weight(args.fail_above)
        offenders = [r for r in report.records if r.indicator > threshold]
        if offenders:
            _diag(*(f"{r.source}: indicator {float(r.indicator):g} exceeds "
                    f"--fail-above {args.fail_above}" for r in offenders))
            return 2
    return 0


def _cmd_plot(args) -> int:
    if Path(args.output).suffix == ".csv":
        _diag(f"{args.output}: error: the points CSV would overwrite the SVG; "
              "give -o a path that does not end in .csv")
        return 1
    try:
        report = report_from_json(Path(args.report).read_text(encoding="utf-8"))
        svg = halfplane_svg(report)
        csv_text = points_csv(report)
    except (CrossCCError, OSError, ValueError, OverflowError) as ex:
        _diag(f"{args.report}: error: {ex}")
        return 1
    return (_emit(svg, args.output)
            or _emit(csv_text, str(Path(args.output).with_suffix(".csv"))))


def _cmd_dump_cfg(args) -> int:
    status = 0
    chunks = []
    for raw in args.paths:
        path = Path(raw)
        try:
            if path.suffix != ".mini":
                raise CrossCCError(f"unsupported file type {path.suffix!r} (expected .mini)")
            program = parse(_read(path), str(path))
            for fn in program.functions:
                # lower has put every vertex on a start-to-exit path, so the
                # graph is connected and its cycle rank needs no search.
                cfg = lower(fn, str(path))
                g = cfg.graph
                chunks.append(f"// {path}:{fn.name}  mcc={g.edge_count - g.vertex_count + 1}")
                chunks.append(dump_cfg_dot(cfg))
        except (CrossCCError, OSError, UnicodeDecodeError) as ex:
            _diag(f"{path}: error: {ex}")
            status = 1
    return _emit("\n".join(chunks), args.output) or status


def _number(text: str) -> str:
    """argparse type for exact numbers such as ``2``, ``3.5`` or ``7/2``.

    The text is returned as typed, so diagnostics quote the user's spelling.
    """
    try:
        finite(as_weight(text), "number")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    return text


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscc",
        description="Cross cyclomatic complexity of programs and control-flow graphs")
    parser.add_argument("--version", action="version", version=f"crosscc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze .mini / .dot files")
    analyze.add_argument("paths", nargs="+", metavar="path")
    analyze.add_argument("--mode", choices=["exact", "treebound"], default="exact")
    analyze.add_argument("--slope", default="2", type=_number,
                         help="halfplane band boundary slope (default 2)")
    analyze.add_argument("--fail-above", dest="fail_above", default=None,
                         type=_number, help="exit 2 if any unit's omega/nu exceeds this ratio")
    analyze.add_argument("--format", choices=["json", "csv"], default="json")
    analyze.add_argument("-o", "--output", default=None)
    analyze.set_defaults(func=_cmd_analyze)

    plot = sub.add_parser("plot", help="render a saved JSON report")
    plot.add_argument("report", help="report JSON produced by analyze")
    plot.add_argument("-o", "--output", required=True,
                      help="SVG output path; a .csv of points lands next to it")
    plot.set_defaults(func=_cmd_plot)

    dump = sub.add_parser("dump-cfg", help="emit lowered CFGs as DOT")
    dump.add_argument("paths", nargs="+", metavar="path")
    dump.add_argument("-o", "--output", default=None)
    dump.set_defaults(func=_cmd_dump_cfg)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
