"""Halfplane plot of (nu, omega) points as hand-rolled SVG plus a CSV of points.

No plotting dependency: the picture is two shaded wedges (the infeasible
region below omega = nu, then the trivial band up to omega = slope * nu),
integer gridlines, and one labeled dot per analyzed unit. Output is fully
deterministic for identical reports.
"""

from __future__ import annotations

import csv
import io

from .errors import EmptyReport
from .report import AnalysisReport, _number

_SIZE = 640
_MARGIN = 48
# What XML 1.0 forbids in text, each to U+FFFD: C0 controls but tab, LF and CR,
# and U+FFFE and U+FFFF. A DOT quoted name, so a unit name, may hold any of them.
_NOT_XML = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], "\ufffd")


def points_csv(report: AnalysisReport) -> str:
    if not report.records:
        raise EmptyReport("no records to plot")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "nu", "omega"])
    for r in report.records:
        writer.writerow([r.unit, r.nu, _number(r.omega)])
    return out.getvalue()


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
        lines.append(f'<line x1="{sx(i):.1f}" y1="{sy(0):.1f}" x2="{sx(i):.1f}" '
                     f'y2="{sy(span_y):.1f}" stroke="#e8e8e8" stroke-width="1"/>')
        lines.append(f'<text x="{sx(i):.1f}" y="{sy(0) + 16:.1f}" font-size="10" '
                     f'text-anchor="middle" fill="#444">{i}</text>')
    for j in range(0, span_y + 1, step_y):
        lines.append(f'<line x1="{sx(0):.1f}" y1="{sy(j):.1f}" x2="{sx(span_x):.1f}" '
                     f'y2="{sy(j):.1f}" stroke="#e8e8e8" stroke-width="1"/>')
        lines.append(f'<text x="{sx(0) - 8:.1f}" y="{sy(j) + 3:.1f}" font-size="10" '
                     f'text-anchor="end" fill="#444">{j}</text>')

    # Axes and the two boundary lines.
    lines.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(span_x):.1f}" '
                 f'y2="{sy(0):.1f}" stroke="black" stroke-width="1.5"/>')
    lines.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(0):.1f}" '
                 f'y2="{sy(span_y):.1f}" stroke="black" stroke-width="1.5"/>')
    lines.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(span_x):.1f}" '
                 f'y2="{sy(span_x):.1f}" stroke="#666" stroke-width="1.5"/>')
    lines.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(span_x):.1f}" '
                 f'y2="{sy(slope * span_x):.1f}" stroke="#333" stroke-width="1.5"/>')
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
