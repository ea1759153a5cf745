"""Serialization of exact results.

Values travel as decimal strings ("123" or "-4/7"), never as native JSON
numbers: entries outgrow 64-bit integers quickly and exactness is the
contract.  JSON and CSV round-trip losslessly; the pretty format is a
centered display only and is not meant to be parsed.

write_document is the one writer of every format.  Every format holds one
row at a time: JSON and CSV write each row as it arrives, and pretty reads
its rows twice, once for the widest row and once to write, so a caller that
streams rows from a recurrence never holds the whole document.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._record import Record
from .exact import Rational, format_exact, parse_exact


class OutputDocument(Record):
    """One emitted result: a family tag, parameters, rows of exact strings,
    and an optional verification or fit summary."""

    __slots__ = ("family", "params", "rows", "report")
    family: str
    params: dict[str, str]
    rows: list[list[str]]
    report: Optional[dict]

    def __init__(
        self,
        family: str,
        params: Optional[dict[str, str]] = None,
        rows: Optional[list[list[str]]] = None,
        report: Optional[dict] = None,
    ) -> None:
        self.family = family
        self.params = {} if params is None else params
        self.rows = [] if rows is None else rows
        self.report = report

    @classmethod
    def from_values(
        cls,
        family: str,
        params: dict[str, str],
        value_rows: Iterable[Sequence[Rational]],
        report: Optional[dict] = None,
    ) -> "OutputDocument":
        rows = list(format_rows(value_rows))
        return cls(family=family, params=dict(params), rows=rows, report=report)

    def value_rows(self) -> list[list[Rational]]:
        return [[parse_exact(s) for s in row] for row in self.rows]

    def _render(self, fmt: str) -> str:
        parts: list[str] = []
        write_document(parts.append, fmt, self.family, self.params, self.rows, self.report)
        return "".join(parts)

    def to_json(self) -> str:
        """json.dumps of the document with indent=2 (no final newline)."""
        return self._render("json")[:-1]

    @classmethod
    def from_json(cls, text: str) -> "OutputDocument":
        import json

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
        return self._render("csv")

    @classmethod
    def rows_from_csv(cls, text: str) -> list[list[Rational]]:
        return [
            [parse_exact(item) for item in line.split(",")]
            for line in text.splitlines()
            if line
        ]

    def to_pretty(self) -> str:
        """Rows centered under each other, like a printed triangle."""
        return self._render("pretty")


def format_rows(value_rows: Iterable[Sequence[Rational]]) -> Iterator[list[str]]:
    """Each row of exact values as decimal strings, one row at a time.

    A row that equals its reverse (binomial, q-binomial and fibonomial rows
    do) has only its first half formatted, and the strings are mirrored.
    """
    for row in value_rows:
        if row == row[::-1]:
            half = [format_exact(v) for v in row[: (len(row) + 1) // 2]]
            yield half + half[: len(row) // 2][::-1]
        else:
            yield [format_exact(v) for v in row]


def write_document(
    write: Callable[[str], object],
    fmt: str,
    family: str,
    params: dict,
    rows: Iterable[Sequence[str]],
    report: Optional[dict] = None,
) -> None:
    """Write a document in fmt ("json", "csv" or "pretty") through write.

    Every format makes one write per row and holds only that row.  csv and
    json read the rows once, as they arrive, and build each row's line by
    one join.  pretty reads them twice, first for the width of the widest
    row, then to write each row centred under it; so it needs rows that each
    pass restarts (a list or a triads.Restartable), and raises TypeError for
    an iterator.  The json text is json.dumps(document, indent=2) followed
    by a newline; csv and pretty end every row with one.
    """
    if fmt == "csv":
        for row in rows:
            write(_line("", ",", row, "\n"))
    elif fmt == "json":
        from json.encoder import encode_basestring_ascii as string

        write(f'{{\n  "family": {_nested(family)},\n  "params": {_nested(params)},\n  "rows": [')
        sep = "\n    "
        for row in rows:
            # json.dumps(row, indent=2) two levels deep, without the slow
            # pure-Python encoder that json.dumps uses whenever indent is set.
            write(sep + "[]" if not row else
                  _line(sep + "[\n      ", ",\n      ", list(map(string, row)), "\n    ]"))
            sep = ",\n    "
        close = "]" if sep == "\n    " else "\n  ]"
        write(f'{close},\n  "report": {_nested(report)}\n}}\n')
    elif fmt == "pretty":
        if isinstance(rows, Iterator):
            raise TypeError("pretty reads its rows twice: pass a list or a Restartable, not an iterator")
        # An empty row counts -1, which centres as width 0 does.
        width = max((sum(map(len, row)) + len(row) - 1 for row in rows), default=0)
        for row in rows:
            write(" ".join(row).center(width).rstrip() + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _line(head: str, sep: str, row: Sequence[str], tail: str) -> str:
    # head + sep.join(row) + tail as one join, so that the row's text is
    # copied once; only the first and the last entry are copied twice.
    if len(row) < 2:
        return head + "".join(row) + tail
    return sep.join([head + row[0], *row[1:-1], row[-1] + tail])


def _nested(value: object) -> str:
    # json.dumps(value, indent=2) as the value of a top-level key: JSON text
    # breaks lines only between tokens, never inside a string, so each line
    # break gains the one level of indent.
    import json

    return json.dumps(value, indent=2).replace("\n", "\n  ")
