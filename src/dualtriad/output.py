"""Serialization of exact results.

Values travel as decimal strings ("123" or "-4/7"), never as native JSON
numbers: entries outgrow 64-bit integers quickly and exactness is the
contract.  JSON and CSV round-trip losslessly; the pretty format is a
centered display only and is not meant to be parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .exact import Rational, format_exact, parse_exact


@dataclass
class OutputDocument:
    """One emitted result: a family tag, parameters, rows of exact strings,
    and an optional verification or fit summary."""

    family: str
    params: dict[str, str] = field(default_factory=dict)
    rows: list[list[str]] = field(default_factory=list)
    report: Optional[dict] = None

    @classmethod
    def from_values(
        cls,
        family: str,
        params: dict[str, str],
        value_rows: Sequence[Sequence[Rational]],
        report: Optional[dict] = None,
    ) -> "OutputDocument":
        rows = [[format_exact(v) for v in row] for row in value_rows]
        return cls(family=family, params=dict(params), rows=rows, report=report)

    def value_rows(self) -> list[list[Rational]]:
        return [[parse_exact(s) for s in row] for row in self.rows]

    def to_json(self) -> str:
        doc = {
            "family": self.family,
            "params": self.params,
            "rows": self.rows,
            "report": self.report,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "OutputDocument":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("document must be a JSON object")
        family = doc.get("family")
        params = doc.get("params")
        rows = doc.get("rows")
        report = doc.get("report")
        if (
            not isinstance(family, str)
            or not isinstance(params, dict)
            or not isinstance(rows, list)
            or not all(
                isinstance(r, list) and all(isinstance(s, str) for s in r)
                for r in rows
            )
            or not (report is None or isinstance(report, dict))
        ):
            raise ValueError("malformed document")
        return cls(family=family, params=dict(params), rows=rows, report=report)

    def to_csv(self) -> str:
        """One row per line, comma-separated, no padding for missing upper
        entries."""
        return "".join(",".join(row) + "\n" for row in self.rows)

    @classmethod
    def rows_from_csv(cls, text: str) -> list[list[Rational]]:
        return [
            [parse_exact(item) for item in line.split(",")]
            for line in text.splitlines()
            if line
        ]

    def to_pretty(self) -> str:
        """Rows centered under each other, like a printed triangle."""
        if not self.rows:
            return ""
        texts = [" ".join(row) for row in self.rows]
        width = max(len(t) for t in texts)
        return "".join(t.center(width).rstrip() + "\n" for t in texts)
