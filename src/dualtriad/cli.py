"""Command-line front end.

Subcommands: generate, dual, verify, fit, solve-f, phi, convolve.  Exit
codes: 0 for success (a no-fit analysis is a success), 1 for a mathematical
verification failure, a failed precondition or a closed output pipe, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from .dynsys import convolve_fibonomial, family_step_matrix, fit_banded
from .exact import Rational, Scaled, format_exact
from .output import format_rows, write_document
from .sequences import RootSequence
from .triads import FAMILIES, Family

DEFAULT_ROW_CAP = 512


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 2."""


# What --q, --roots, --a and --b read, alike on every Python: an integer, p/q or
# decimal (0.5, .5, 2.) in ASCII digits, with an optional sign and ASCII spaces
# around it; no exponent (1e400000 has 400,001 digits) or digit separator.
_EXACT_TEXT = re.compile(r"\s*[-+]?(\d+/\d+|\d+\.?\d*|\.\d+)\s*", re.ASCII)


def _exact(text: str, message: str) -> Fraction:
    """A flag's exact value in the grammar of _EXACT_TEXT, or UsageError(message)."""
    if _EXACT_TEXT.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(message)


def parse_roots(text: str) -> RootSequence:
    """Parse --roots: a comma list of exact values, optionally ending in an
    ellipsis that continues an arithmetic or geometric pattern."""
    items = [t.strip(" \t\n\r\f\v") for t in text.split(",")]
    continued = bool(items) and items[-1] in ("…", "...")
    if continued:
        items = items[:-1]
    if not items or any(not t for t in items):
        raise UsageError(f"cannot parse roots {text!r}")
    values = [_exact(t, f"cannot parse roots {text!r}") for t in items]
    if not continued:
        return RootSequence.explicit(values)
    if len(values) == 1:
        return RootSequence.constant(values[0])
    steps = {values[i + 1] - values[i] for i in range(len(values) - 1)}
    if len(steps) == 1:
        return RootSequence.arithmetic(values[0], steps.pop())
    if all(v != 0 for v in values):
        ratios = {values[i + 1] / values[i] for i in range(len(values) - 1)}
        if len(ratios) == 1:
            return RootSequence.geometric(ratios.pop(), first=values[0])
    raise UsageError(
        f"roots {text!r}: the ellipsis continues only arithmetic or geometric patterns"
    )


def _checked_rows(args: argparse.Namespace) -> int:
    rows = args.rows
    if rows < 0:
        raise UsageError("--rows must be nonnegative")
    cap = args.max_rows
    if cap < 0:
        raise UsageError("--max-rows must be nonnegative")
    if rows > cap:
        raise UsageError(f"--rows {rows} exceeds the cap {cap}; raise it with --max-rows")
    return rows


def _family_inputs(args: argparse.Namespace, levels: int) -> tuple[Family, Any, dict[str, str]]:
    """The family flags, checked: the Family, its parsed parameter (q, roots
    or None) and the parameter text that output documents carry.  levels is
    how many roots r_1, r_2, ... the command reads, which an explicit
    --roots list must cover."""
    entry = FAMILIES[args.family]
    q = None if args.q is None else _exact(args.q, f"cannot parse q value {args.q!r}")
    if q == 0:
        raise UsageError("q must be nonzero")
    roots = parse_roots(args.roots) if args.roots is not None else None
    texts = {"q": None if q is None else format_exact(q), "roots": args.roots}
    for flag, text in texts.items():
        if entry.param == flag and text is None:
            raise UsageError(f"family {args.family} needs --{flag}")
        if entry.param != flag and text is not None:
            owner = next(name for name, e in FAMILIES.items() if e.param == flag)
            raise UsageError(f"--{flag} only applies to family {owner}")
    if roots is not None and roots.rule == "explicit" and len(roots.data) < levels:
        raise UsageError(f"explicit root sequence has only {len(roots.data)} levels")
    params = {} if entry.param is None else {entry.param: texts[entry.param]}
    return entry, (roots if entry.param == "roots" else q), params


def _emit(family: str, params: dict[str, str], make: Callable[[], Iterable[Sequence[Rational]]],
          fmt: str) -> None:
    # make() starts a pass over the value rows (pretty makes two), and the
    # first runs before anything is written: a stream's failed argument
    # check, like every precondition the caller checked, writes nothing.
    write_document(sys.stdout.write, fmt, family, params, lambda: format_rows(make()))


def cmd_generate(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    family, value, params = _family_inputs(args, rows)
    source = family.scaled_rows(value, rows)
    _emit(args.family, params, lambda: map(Scaled.values, source), args.format)
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    family, value, params = _family_inputs(args, rows)
    dual = FAMILIES.get(family.dual)
    if dual is None or dual.recurrence is None:
        raise UsageError(
            f"family {args.family} has no banded dual recurrence; "
            "use the phi command for the step-matrix sequence"
        )
    _emit(args.family, params, lambda: dual.phis(value, rows), args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    family, value, _ = _family_inputs(args, rows)
    report = family.verify(value, rows)
    print(f"route: {family.route}")
    if report.holds:
        print(f"holds up to n={report.verified_up_to}")
        return 0
    n, residual = report.first_failure
    print(f"fails at n={n}; residual = {residual}")
    return 1


def cmd_fit(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    if rows < 5:
        raise UsageError("fit needs --rows of at least 5")
    family, value, _ = _family_inputs(args, rows)
    result = fit_banded(family.scaled_rows(value, rows))
    if result.fits:
        rec = result.recurrence
        print("fit: banded time-independent recurrence found")
        print("k\ti_k\tq_k\td_k")
        for k in range(rec.depth + 1):
            print(k, *(format_exact(w[k]) for w in (rec.up, rec.stay, rec.down)), sep="\t")
    else:
        print("fit: no banded time-independent recurrence")
        print(f"inconsistent column: k={result.column}")
        pairs = " ".join(f"({n},{k})" for n, k in result.witness)
        print(f"witness equations (n,k): {pairs}")
    return 0


def cmd_solve_f(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    family, value, params = _family_inputs(args, rows + 1)
    _emit(args.family, params, lambda: family_step_matrix(family, value, rows), args.format)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    family, value, params = _family_inputs(args, rows)
    _emit(args.family, params, lambda: family.phis(value, rows), args.format)
    return 0


def _parse_sequence(text: str, length: int, flag: str) -> list[Rational]:
    if text == "ones":
        return [1] * length
    values = [_exact(t, f"cannot parse {flag} value {text!r}") for t in text.split(",")]
    if len(values) > length:
        raise UsageError(f"{flag} has {len(values)} entries, more than rows+1 = {length}")
    return values + [0] * (length - len(values))


def cmd_convolve(args: argparse.Namespace) -> int:
    rows = _checked_rows(args)
    _family_inputs(args, rows + 1)  # fibonomial takes neither --q nor --roots
    a = _parse_sequence(args.a, rows + 1, "--a")
    b = _parse_sequence(args.b, rows + 1, "--b")
    values = convolve_fibonomial(a, b, rows)
    _emit("fibonomial", {"a": args.a, "b": args.b}, lambda: [values], args.format)
    return 0


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: the family flags, --format when the command
    emits rows, and the sequences it convolves.

    It adds its arguments when it first parses.  A run parses one
    subcommand, so the others never build theirs; the help and usage texts
    are those of a parser built whole.
    """

    def __init__(
        self, *args: object, handler: Callable[[argparse.Namespace], int], fmt: bool = True,
        families: Collection[str] = FAMILIES, sequences: Sequence[str] = (), **kwargs: object
    ) -> None:
        super().__init__(*args, **kwargs)
        self.set_defaults(handler=handler)
        self._unbuilt: Optional[tuple[bool, Collection[str], Sequence[str]]] = (fmt, families, sequences)

    def parse_known_args(self, args=None, namespace=None):  # type: ignore[no-untyped-def]
        if self._unbuilt is not None:
            (fmt, families, sequences), self._unbuilt = self._unbuilt, None
            add = self.add_argument
            add("--family", required=True, choices=families)
            add("--q", help="q parameter for the q-gaussian family (exact, e.g. 2 or 1/2)")
            add("--roots", help="roots for the lah family: comma list, optionally ending in ...")
            add("--rows", type=int, required=True, help="largest row index N (rows 0..N)")
            add("--max-rows", type=int, default=DEFAULT_ROW_CAP,
                help=f"row cap guarding against runaway exact computation (default {DEFAULT_ROW_CAP})")
            if fmt:
                add("--format", choices=("json", "csv", "pretty"), default="csv")
            for flag in sequences:
                add(flag, required=True, help="'ones' or a comma list of exact values")
        return super().parse_known_args(args, namespace)

    def _get_values(self, action, arg_strings):  # type: ignore[no-untyped-def]
        # Some argparse versions drop "--" as an option's value (--rows=-- read as []): read it as text.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualtriad",
        description="Exact Pascal-like triangles, dual polynomial sequences, "
        "and banded-recurrence analysis.",
    )
    parser.add_argument("--ledger", action="store_true",
                        help="print the ledger of known published-value discrepancies and exit")
    sub = parser.add_subparsers(dest="command", parser_class=_Subcommand)
    sub.add_parser("generate", help="emit a triangle", handler=cmd_generate)
    sub.add_parser("dual", help="emit the dual polynomial sequence of a banded or root family",
                   handler=cmd_dual)
    sub.add_parser("verify", help="check x^n = sum_k c[n][k] phi_k(x) exactly", handler=cmd_verify, fmt=False)
    sub.add_parser("fit", help="decide whether banded time-independent weights reproduce the triangle",
                   handler=cmd_fit, fmt=False)
    sub.add_parser("solve-f", help="emit rows 0..N of the one-step transition matrix", handler=cmd_solve_f)
    sub.add_parser("phi", help="emit the step-matrix polynomial sequence of a unipotent family",
                   handler=cmd_phi)
    sub.add_parser("convolve", help="convolve two sequences with fibonomial weights",
                   handler=cmd_convolve, families=("fibonomial",), sequences=("--a", "--b"))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does.  Point the descriptor at
        # devnull so that the flush at interpreter exit cannot fail again (the
        # recipe of the Python docs' note on SIGPIPE).
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.ledger:
        from .misprints import format_ledger

        sys.stdout.write(format_ledger())
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required (or --ledger)", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
