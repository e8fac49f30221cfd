"""Analysis reports: per-unit records, JSON and CSV emission, and the plot.

Reports are fully deterministic: records are sorted by (file, position in
file), numbers are exact, and no timestamps or ids appear anywhere, so the
same inputs and configuration produce byte-identical output. A report also
renders as the halfplane plot, hand-rolled SVG with no plotting dependency,
plus a CSV of its (nu, omega) points.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import EmptyReport, MalformedReport
from .graph import as_weight

SCHEMA_VERSION = 1


def _number(value: Fraction):
    """Exact int when integral, float otherwise (for JSON/CSV)."""
    if value.denominator == 1:
        return int(value)
    return float(value)


def _csv(header: List[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def finite(value, name: str):
    """``value``, which must convert to a finite float, as every number a
    report holds does: JSON, CSV, the plot and ``--fail-above`` read it as
    one. ValueError otherwise."""
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range") from None
    return value


class UnitRecord(NamedTuple):
    """One analyzed unit: a function of a .mini file or a whole .dot graph."""

    unit: str          # function or graph name
    source: str        # "file:unit" for functions, "file" for graphs
    file: str
    position: int      # order within the file, for stable sorting
    nu: int
    omega: Fraction
    provenance: str
    region: str
    indicator: Fraction

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "source": self.source,
            "nu": self.nu,
            "omega": _number(self.omega),
            "provenance": self.provenance,
            "region": self.region,
            "indicator": _number(self.indicator),
        }


class AnalysisReport(NamedTuple):
    records: Tuple[UnitRecord, ...]
    tool_version: str
    mode: str
    slope: Fraction

    @classmethod
    def build(cls, records: List[UnitRecord], tool_version: str, mode: str,
              slope: Fraction) -> "AnalysisReport":
        ordered = sorted(records, key=lambda r: (r.file, r.position))
        return cls(records=tuple(ordered), tool_version=tool_version,
                   mode=mode, slope=slope)

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config": {"mode": self.mode, "slope": _number(self.slope)},
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        return _csv(["schema_version", "unit", "source", "nu", "omega",
                     "provenance", "region", "indicator"],
                    ([SCHEMA_VERSION, *r.to_dict().values()] for r in self.records))


def report_from_json(text: str) -> AnalysisReport:
    """Rehydrate a report (e.g. for plotting a previously saved analysis).

    Text that is not JSON raises ``ValueError``; JSON that is not shaped
    like a report, or a unit name that UTF-8 cannot encode, raises
    ``MalformedReport``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("records"), list):
        raise MalformedReport('expected a JSON object with a "records" list')
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise MalformedReport('"config" is not a JSON object')
    records = []
    for i, rec in enumerate(doc["records"]):
        if not isinstance(rec, dict):
            raise MalformedReport(f"record {i} is not a JSON object")
        try:
            str(rec["unit"]).encode("utf-8")  # as the plot writes it
            records.append(UnitRecord(
                unit=rec["unit"], source=rec["source"], file=rec["source"],
                position=i, nu=finite(int(rec["nu"]), "nu"),
                omega=finite(as_weight(str(rec["omega"])), "omega"),
                provenance=rec["provenance"], region=rec["region"],
                indicator=finite(as_weight(str(rec["indicator"])), "indicator")))
        except KeyError as ex:
            raise MalformedReport(f"record {i} has no {ex} field") from None
        except (TypeError, ValueError, OverflowError) as ex:
            raise MalformedReport(f"record {i}: {ex}") from None
    try:
        slope = finite(as_weight(str(config.get("slope", 2))), "value")
    except ValueError as ex:
        raise MalformedReport(f"slope: {ex}") from None
    return AnalysisReport(
        records=tuple(records),
        tool_version=doc.get("tool_version", ""),
        mode=config.get("mode", "exact"),
        slope=slope)


_SIZE = 640
_MARGIN = 48
# What XML 1.0 forbids in text, each to U+FFFD: C0 controls but tab, LF and CR,
# and U+FFFE and U+FFFF. A DOT quoted name, so a unit name, may hold any of them.
_NOT_XML = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")


def points_csv(report: AnalysisReport) -> str:
    if not report.records:
        raise EmptyReport("no records to plot")
    return _csv(["name", "nu", "omega"],
                ([r.unit, r.nu, _number(r.omega)] for r in report.records))


def halfplane_svg(report: AnalysisReport) -> str:
    if not report.records:
        raise EmptyReport("no records to plot")
    slope = report.slope
    max_nu = max(r.nu for r in report.records)
    max_omega = max(float(r.omega) for r in report.records)
    span_x = max(max_nu + 1, 5)
    span_y = max(int(max_omega) + 2, int(slope * span_x) + 1, 5)
    inner = _SIZE - 2 * _MARGIN

    def sx(nu) -> float:
        return _MARGIN + float(nu) / span_x * inner

    def sy(omega) -> float:
        return _SIZE - _MARGIN - float(omega) / span_y * inner

    def pt(nu, omega) -> str:
        return f"{sx(nu):.1f},{sy(omega):.1f}"

    def line(nu1, omega1, nu2, omega2, stroke, width) -> str:
        return (f'<line x1="{sx(nu1):.1f}" y1="{sy(omega1):.1f}" x2="{sx(nu2):.1f}" '
                f'y2="{sy(omega2):.1f}" stroke="{stroke}" stroke-width="{width}"/>')

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]

    # Infeasible wedge: everything below omega = nu. span_y >= slope*span_x
    # by construction, so both wedges exit through the right edge.
    lines.append(
        f'<polygon points="{pt(0, 0)} {pt(span_x, 0)} {pt(span_x, span_x)}" '
        'fill="#9a9a9a" fill-opacity="0.55"/>')
    # Trivial band between omega = nu and omega = slope * nu.
    lines.append(
        f'<polygon points="{pt(0, 0)} {pt(span_x, span_x)} '
        f'{pt(span_x, slope * span_x)}" '
        'fill="#cccccc" fill-opacity="0.45"/>')

    # Integer gridlines (thinned when dense).
    step_x = max(1, span_x // 12)
    step_y = max(1, span_y // 12)
    for i in range(0, span_x + 1, step_x):
        lines.append(line(i, 0, i, span_y, "#e8e8e8", 1))
        lines.append(f'<text x="{sx(i):.1f}" y="{sy(0) + 16:.1f}" font-size="10" '
                     f'text-anchor="middle" fill="#444">{i}</text>')
    for j in range(0, span_y + 1, step_y):
        lines.append(line(0, j, span_x, j, "#e8e8e8", 1))
        lines.append(f'<text x="{sx(0) - 8:.1f}" y="{sy(j) + 3:.1f}" font-size="10" '
                     f'text-anchor="end" fill="#444">{j}</text>')

    # Axes and the two boundary lines.
    lines += [line(0, 0, span_x, 0, "black", 1.5), line(0, 0, 0, span_y, "black", 1.5),
              line(0, 0, span_x, span_x, "#666", 1.5),
              line(0, 0, span_x, slope * span_x, "#333", 1.5)]
    lines.append(f'<text x="{sx(span_x) + 6:.1f}" y="{sy(0) + 4:.1f}" '
                 'font-size="13" fill="black">nu</text>')
    lines.append(f'<text x="{sx(0):.1f}" y="{sy(span_y) - 8:.1f}" font-size="13" '
                 'fill="black">omega_min</text>')

    # One labeled point per record.
    for r in report.records:
        label = f"{r.unit}: ({r.nu},{_number(r.omega)})"
        lines.append(f'<circle cx="{sx(r.nu):.1f}" cy="{sy(float(r.omega)):.1f}" '
                     'r="4" fill="#1f4e9c"/>')
        lines.append(f'<text x="{sx(r.nu) + 7:.1f}" y="{sy(float(r.omega)) - 6:.1f}" '
                     f'font-size="11" fill="#1f4e9c">{_escape(label)}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .translate(_NOT_XML))
