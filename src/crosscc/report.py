"""Analysis reports: per-unit records, JSON and CSV emission.

Reports are fully deterministic: records are sorted by (file, position in
file), numbers are exact, and no timestamps or ids appear anywhere, so the
same inputs and configuration produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import MalformedReport

SCHEMA_VERSION = 1


def _number(value: Fraction):
    """Exact int when integral, float otherwise (for JSON/CSV)."""
    if value.denominator == 1:
        return int(value)
    return float(value)


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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["schema_version", "unit", "source", "nu", "omega",
                         "provenance", "region", "indicator"])
        for r in self.records:
            writer.writerow([SCHEMA_VERSION, *r.to_dict().values()])
        return out.getvalue()


def report_from_json(text: str) -> AnalysisReport:
    """Rehydrate a report (e.g. for plotting a previously saved analysis).

    Text that is not JSON raises ``ValueError``; JSON that is not shaped
    like a report raises ``MalformedReport``.
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
            records.append(UnitRecord(
                unit=rec["unit"], source=rec["source"], file=rec["source"],
                position=i, nu=finite(int(rec["nu"]), "nu"),
                omega=finite(Fraction(str(rec["omega"])), "omega"),
                provenance=rec["provenance"], region=rec["region"],
                indicator=finite(Fraction(str(rec["indicator"])), "indicator")))
        except KeyError as ex:
            raise MalformedReport(f"record {i} has no {ex} field") from None
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as ex:
            raise MalformedReport(f"record {i}: {ex}") from None
    try:
        slope = finite(Fraction(str(config.get("slope", 2))), "value")
    except (ValueError, ZeroDivisionError) as ex:
        raise MalformedReport(f"slope: {ex}") from None
    return AnalysisReport(
        records=tuple(records),
        tool_version=doc.get("tool_version", ""),
        mode=config.get("mode", "exact"),
        slope=slope)
