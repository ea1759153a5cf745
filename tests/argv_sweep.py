"""The argv sweep: every command over every family, parameter, row count and
format, plus usage errors, each reduced to the hashes of what it printed.

tests/golden/argv_sweep.sha256 holds one line per argv:

    sha256(stdout) sha256(stderr) exit-code argv

A change that must keep the CLI's behaviour checks that the recomputed lines
equal the file byte for byte (tests/test_argv_sweep.py).  From Python 3.13
argparse wraps a usage line keeping each option with its metavar, so
tests/golden/argv_sweep-3.13.sha256 holds the lines that differ there, and
they replace those of the same argv.

Run as a script, it makes the same check on any Python, pytest or not, and
exits 1 naming the first argv whose line changed:

    COLUMNS=80 PYTHONPATH=src python tests/argv_sweep.py

With --write it writes the files instead.  Do that only when the output is
meant to change, first on Python 3.10-3.12, then on 3.13.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

from dualtriad.cli import main

SWEEP_FILE = Path(__file__).parent / "golden" / "argv_sweep.sha256"
SWEEP_FILE_313 = SWEEP_FILE.with_name("argv_sweep-3.13.sha256")

COMMANDS = ("generate", "dual", "verify", "fit", "solve-f", "phi")
FORMAT_COMMANDS = frozenset({"generate", "dual", "solve-f", "phi"})
FAMILIES = ("pascal", "q-gaussian", "catalan-shifted", "catalan-triad",
            "fibonomial", "stirling1", "eulerian", "lah")
# No parameter, three values of q, and three lah root patterns: arithmetic,
# geometric and an explicit list of 13 roots (enough for solve-f --rows 12),
# by the parameter they give.
PARAMS = {
    None: ((),),
    "q": (("--q", "2"), ("--q=-3/2",), ("--q", "2/3")),
    "roots": (("--roots=1/2,3/2,...",), ("--roots", "1,-2,..."),
              ("--roots", "0,1,-1,2,1/3,3,-2,4,1,5,-3,6,2")),
}
TAKES = {"q-gaussian": "q", "lah": "roots"}
ROWS = ("0", "1", "5", "12")
FORMATS = ("csv", "json", "pretty")
SEQUENCES = (("ones", "ones"), ("1,2", "3,-1/2"))

USAGE_ERRORS = (
    [],
    ["--ledger"],
    ["--help"],
    ["bogus"],
    ["verify", "--help"],
    ["generate", "--family", "pascal"],
    ["generate", "--family", "nope", "--rows", "3"],
    ["generate", "--family", "pascal", "--rows", "x"],
    ["generate", "--family", "pascal", "--rows", "-1"],
    ["generate", "--family", "pascal", "--rows", "600"],
    ["generate", "--family", "pascal", "--rows", "3", "--max-rows", "-1"],
    ["generate", "--family", "pascal", "--rows", "5", "--max-rows", "4"],
    ["generate", "--family", "pascal", "--rows", "3", "--format", "xml"],
    ["generate", "--family", "q-gaussian", "--rows", "3"],
    ["generate", "--family", "q-gaussian", "--q", "0", "--rows", "3"],
    ["generate", "--family", "q-gaussian", "--q", "junk", "--rows", "3"],
    ["generate", "--family", "q-gaussian", "--q", "1/0", "--rows", "3"],
    ["generate", "--family", "lah", "--rows", "3"],
    ["generate", "--family", "lah", "--roots", "x", "--rows", "3"],
    ["generate", "--family", "lah", "--roots", "1,,2", "--rows", "3"],
    ["generate", "--family", "lah", "--roots", "1,2,4,7,...", "--rows", "3"],
    ["generate", "--family", "lah", "--roots", "1,2", "--rows", "3"],
    ["fit", "--family", "pascal", "--rows", "4"],
    ["fit", "--family", "pascal", "--rows", "5", "--format", "csv"],
    ["convolve", "--family", "fibonomial", "--rows", "3"],
    ["convolve", "--family", "pascal", "--a", "ones", "--b", "ones", "--rows", "3"],
    ["convolve", "--family", "fibonomial", "--a", "bad,x", "--b", "ones", "--rows", "3"],
    ["convolve", "--family", "fibonomial", "--a", "1,2,3", "--b", "ones", "--rows", "1"],
)


def argvs() -> list[list[str]]:
    """Every argv of the sweep, in the order of the file."""
    out = []
    for command in COMMANDS:
        formats = FORMATS if command in FORMAT_COMMANDS else (None,)
        for family in FAMILIES:
            for kind, values in PARAMS.items():
                for params in values:
                    argv = [command, "--family", family, *params, "--rows"]
                    if kind != TAKES.get(family):
                        # A parameter the family does not take is refused
                        # before the row count or the format is read.
                        out.append([*argv, "5"])
                        continue
                    for rows in ROWS:
                        for fmt in formats:
                            out.append([*argv, rows] if fmt is None else [*argv, rows, "--format", fmt])
    for a, b in SEQUENCES:
        for rows in ROWS:
            for fmt in FORMATS:
                out.append(["convolve", "--family", "fibonomial", "--a", a, "--b", b,
                            "--rows", rows, "--format", fmt])
    out.extend(list(argv) for argv in USAGE_ERRORS)
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_line(argv: list[str]) -> str:
    """The file's line for argv, from one in-process run of the CLI.  The
    caller sets COLUMNS, to which argparse wraps its help and usage texts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{_sha(out.getvalue())} {_sha(err.getvalue())} {code} {shlex.join(argv)}\n"


def _argv_of(line: str) -> str:
    return line.split(" ", 3)[3]


def recorded_lines() -> list[str]:
    """The recorded line of every argv on this Python, in the order of the
    file."""
    lines = SWEEP_FILE.read_text().splitlines(keepends=True)
    if sys.version_info < (3, 13):
        return lines
    changed = {_argv_of(line): line for line in SWEEP_FILE_313.read_text().splitlines(keepends=True)}
    out = [changed.pop(_argv_of(line), line) for line in lines]
    if changed:
        raise ValueError(f"{SWEEP_FILE_313.name} names argvs outside the sweep: {sorted(changed)}")
    return out


if __name__ == "__main__":
    import os

    if os.environ.get("COLUMNS") != "80":
        raise SystemExit("run with COLUMNS=80: argparse wraps help to the terminal width")
    lines = [sweep_line(argv) for argv in argvs()]
    if "--write" not in sys.argv[1:]:
        recorded = recorded_lines()
        if len(lines) != len(recorded):
            raise SystemExit(f"the sweep has {len(lines)} argvs, the recorded files {len(recorded)}")
        changed = [line for line, old in zip(recorded, lines) if line != old]
        if changed:
            first = _argv_of(changed[0]).rstrip()
            raise SystemExit(f"{len(changed)} of {len(lines)} argvs changed, the first: {first}")
        print(f"all {len(lines)} argvs byte-identical")
    elif sys.version_info < (3, 13):
        SWEEP_FILE.write_text("".join(lines))
    else:
        base = SWEEP_FILE.read_text().splitlines(keepends=True)
        SWEEP_FILE_313.write_text("".join(line for line, old in zip(lines, base) if line != old))
