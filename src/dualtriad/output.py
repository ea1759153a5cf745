"""Serialization of exact results.

Values travel as decimal strings ("123" or "-4/7"), never as native JSON
numbers: entries outgrow 64-bit integers quickly and exactness is the
contract.  JSON and CSV round-trip losslessly; the pretty format is a
centered display only and is not meant to be parsed.

write_document is the one writer of every format.  It holds one row at a
time, so a caller that streams rows from a recurrence never holds the whole
document, and writes a long row's line in pieces.  The collected document,
OutputDocument, and parse_exact live in reference.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import _forward
from .exact import Rational, format_exact

# Only perfbench/tracing.py reads these names here; they go once it wraps each at its home.
__getattr__ = _forward(__name__, reference="OutputDocument")
_PIECE = 1 << 16  # the most characters of a row's line in one write (see write_document)


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
    make: Callable[[], Iterable[Sequence[str]]],
    report: Optional[dict] = None,
) -> None:
    """Write a document in fmt ("json", "csv" or "pretty") through write.

    Every format holds one row, and writes its line in pieces of at most
    _PIECE characters (an entry may overrun one), so a long row's line and
    its encoded bytes never exist whole; a shorter row is one write.  make()
    starts a pass over the rows, first before anything is written.  csv and
    json make one pass; pretty makes two, for the widest row and then to
    centre each under it.
    The json text is json.dumps(document, indent=2); every line ends in a newline.
    """
    rows = make()
    if fmt == "csv":
        for row in rows:
            _write_row(write, "", ",", row, "\n")
    elif fmt == "json":
        from json.encoder import encode_basestring_ascii as string

        write(f'{{\n  "family": {_nested(family)},\n  "params": {_nested(params)},\n  "rows": [')
        sep = "\n    "
        for row in rows:
            # json.dumps(row, indent=2) two levels deep, without the slow
            # pure-Python encoder that json.dumps uses whenever indent is set;
            # a long row's entries are quoted as its pieces are written.
            quoted = map(string, row) if sum(map(len, row)) > _PIECE else list(map(string, row))
            indent = "\n      " if row else ""  # an empty row is []
            _write_row(write, sep + "[" + indent, "," + indent, quoted, indent[:-2] + "]")
            sep = ",\n    "
        close = "]" if sep == "\n    " else "\n  ]"
        write(f'{close},\n  "report": {_nested(report)}\n}}\n')
    elif fmt == "pretty":
        # An empty row counts -1, which centres as width 0 does.
        width = max((sum(map(len, row)) + len(row) - 1 for row in rows), default=0)
        for row in make():
            # " ".join(row).center(width).rstrip(): str.center's left pad (none on
            # a blank line), then the entries up to the last that is not blank.
            marg = width + 1 - sum(map(len, row)) - len(row)
            entries = list(row)
            while entries and not entries[-1].strip():
                entries.pop()
            entries[-1:] = [entry.rstrip() for entry in entries[-1:]]
            pad = marg // 2 + (marg & width & 1) if entries else 0
            for _ in range(pad // _PIECE):
                write(" " * _PIECE)
            _write_row(write, " " * (pad % _PIECE), " ", entries, "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _write_row(write: Callable[[str], object], head: str, sep: str, row: Iterable[str], tail: str) -> None:
    # head + sep.join(row) + tail: one write if row is a list whose line fits in _PIECE,
    # else pieces, each written before its next entry would take it past _PIECE.
    piece, size = [], len(head) + len(tail)
    if isinstance(row, list) and size + sum(map(len, row)) + len(sep) * (len(row) - 1) <= _PIECE:
        piece, row = row, ()
    for entry in row:
        if piece and size + len(entry) > _PIECE:
            write(head + sep.join(piece))
            head, piece, size = sep, [], len(sep) + len(tail)
        piece.append(entry)
        size += len(entry) + len(sep)
    write(head + sep.join(piece) + tail)


def _nested(value: object) -> str:
    # json.dumps(value, indent=2) as the value of a top-level key: JSON text
    # breaks lines only between tokens, never inside a string, so each line
    # break gains the one level of indent.
    import json

    return json.dumps(value, indent=2).replace("\n", "\n  ")
