"""Command-line contract: golden outputs, exit codes, round-trips."""

import io
import contextlib
import errno
import functools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualtriad import dynsys, reference, triads
from dualtriad.cli import DEFAULT_ROW_CAP, main, parse_roots
from dualtriad.dynsys import convolve_fibonomial
from dualtriad.output import format_rows
from dualtriad.reference import (
    OutputDocument,
    generate_named,
    parse_exact,
    phi_from_step_matrix,
    q_binomial,
    solve_step_matrix,
)
from dualtriad.sequences import RootSequence

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


GOLDEN_CASES = [
    ("generate_fibonomial_rows6.txt", 0,
     ["generate", "--family", "fibonomial", "--rows", "6", "--format", "csv"]),
    ("generate_qgaussian_q5_rows3.txt", 0,
     ["generate", "--family", "q-gaussian", "--q", "5", "--rows", "3", "--format", "csv"]),
    ("generate_pascal_rows0.txt", 0,
     ["generate", "--family", "pascal", "--rows", "0", "--format", "csv"]),
    ("generate_qgaussian_q2_rows3_json.txt", 0,
     ["generate", "--family", "q-gaussian", "--q", "2", "--rows", "3", "--format", "json"]),
    ("generate_catalan_shifted_rows5_pretty.txt", 0,
     ["generate", "--family", "catalan-shifted", "--rows", "5", "--format", "pretty"]),
    ("verify_qgaussian_q2_rows12.txt", 0,
     ["verify", "--family", "q-gaussian", "--q", "2", "--rows", "12"]),
    ("verify_lah_rows10.txt", 0,
     ["verify", "--family", "lah", "--roots", "0,1,2,3,…", "--rows", "10"]),
    ("verify_catalan_triad_rows1.txt", 0,
     ["verify", "--family", "catalan-triad", "--rows", "1"]),
    ("verify_catalan_shifted_rows5.txt", 1,
     ["verify", "--family", "catalan-shifted", "--rows", "5"]),
    ("fit_catalan_triad_rows10.txt", 0,
     ["fit", "--family", "catalan-triad", "--rows", "10"]),
    ("fit_fibonomial_rows10.txt", 0,
     ["fit", "--family", "fibonomial", "--rows", "10"]),
    ("fit_qgaussian_q2_rows10.txt", 0,
     ["fit", "--family", "q-gaussian", "--q", "2", "--rows", "10"]),
    ("solve_f_fibonomial_rows5.txt", 0,
     ["solve-f", "--family", "fibonomial", "--rows", "5"]),
    ("phi_fibonomial_rows1.txt", 0,
     ["phi", "--family", "fibonomial", "--rows", "1"]),
    ("convolve_ones_rows4.txt", 0,
     ["convolve", "--family", "fibonomial", "--a", "ones", "--b", "ones", "--rows", "4"]),
    ("dual_qgaussian_q2_rows4.txt", 0,
     ["dual", "--family", "q-gaussian", "--q", "2", "--rows", "4"]),
    ("phi_catalan_shifted_rows6.txt", 0,
     ["phi", "--family", "catalan-shifted", "--rows", "6"]),
    ("phi_lah_roots_thirds_rows6.txt", 0,
     ["phi", "--family", "lah", "--roots=2/3,1/3,1/6,...", "--rows", "6"]),
    ("phi_stirling1_rows6.txt", 0,
     ["phi", "--family", "stirling1", "--rows", "6"]),
    ("dual_catalan_shifted_rows4.txt", 0,
     ["dual", "--family", "catalan-shifted", "--rows", "4"]),
    ("verify_stirling1_rows8.txt", 0,
     ["verify", "--family", "stirling1", "--rows", "8"]),
    ("ledger.txt", 0, ["--ledger"]),
    # Rational families, where the certificate and fit carry denominators.
    ("verify_qgaussian_qm2_3_rows12.txt", 0,
     ["verify", "--family", "q-gaussian", "--q=-2/3", "--rows", "12"]),
    ("verify_lah_roots_halves_rows10.txt", 0,
     ["verify", "--family", "lah", "--roots=1/2,3/2,...", "--rows", "10"]),
    ("fit_qgaussian_qm3_2_rows10.txt", 0,
     ["fit", "--family", "q-gaussian", "--q=-3/2", "--rows", "10"]),
    ("fit_lah_roots_thirds_rows10.txt", 0,
     ["fit", "--family", "lah", "--roots=1/3,1/9,...", "--rows", "10"]),
    ("dual_qgaussian_q2_3_rows6.txt", 0,
     ["dual", "--family", "q-gaussian", "--q=2/3", "--rows", "6"]),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name,expected_code,argv", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_byte_exact(self, name, expected_code, argv):
        code, out, _ = run_cli(argv)
        assert code == expected_code
        assert out == (GOLDEN / name).read_text()

    def test_key_lines(self):
        # Spot-checks of the values the golden files pin down.
        _, out, _ = run_cli(["generate", "--family", "fibonomial", "--rows", "6",
                             "--format", "csv"])
        assert out.splitlines()[-1] == "1,8,40,60,40,8,1"
        _, out, _ = run_cli(["generate", "--family", "q-gaussian", "--q", "5",
                             "--rows", "3", "--format", "csv"])
        assert out.splitlines()[-1] == "1,31,31,1"
        _, out, _ = run_cli(["solve-f", "--family", "fibonomial", "--rows", "5"])
        assert out.splitlines()[-1] == "0,2,-10,0,15,3,1"
        _, out, _ = run_cli(["phi", "--family", "fibonomial", "--rows", "1"])
        assert out.splitlines()[-1] == "-1,1"
        _, out, _ = run_cli(["convolve", "--family", "fibonomial", "--a", "ones",
                             "--b", "ones", "--rows", "4"])
        assert out.splitlines()[-1].endswith("14")
        _, out, _ = run_cli(["verify", "--family", "q-gaussian", "--q", "2",
                             "--rows", "12"])
        assert "holds up to n=12" in out


def test_verify_makes_each_dual_once(monkeypatch):
    # A passing certificate without phis proves the triad from the up
    # weights and makes no dual; a failing one hands over to the scan,
    # which makes each dual it reads once.
    from dualtriad import triads

    levels = []
    step = triads._dual_step

    def counted(rec, k, cur, prev):
        levels.append(k)
        return step(rec, k, cur, prev)

    monkeypatch.setattr(triads, "_dual_step", counted)
    code, out, _ = run_cli(["verify", "--family", "q-gaussian", "--q=2", "--rows", "40"])
    assert (code, out) == (0, "route: banded dual recurrence\nholds up to n=40\n")
    assert levels == []
    code, out, _ = run_cli(["verify", "--family", "catalan-shifted", "--rows", "40"])
    assert code == 1 and out.splitlines()[1] == "fails at n=1; residual = -2"
    assert levels == [0]


# Help and usage texts as the parser printed them when it built every
# subcommand whole: (file under golden/parser, exit code, argv).  From
# Python 3.13 argparse wraps a usage line keeping each option with its
# metavar; the texts that differ there are recorded under golden/parser-3.13.
PARSER_TEXTS = [
    ("top_help", 0, ["--help"]),
    ("top_no_command", 2, []),
    ("top_invalid_choice", 2, ["bogus"]),
    ("top_unrecognized", 2, ["fit", "--family", "pascal", "--rows", "5", "--format", "csv"]),
    ("generate_help", 0, ["generate", "--help"]),
    ("dual_help", 0, ["dual", "--help"]),
    ("verify_help", 0, ["verify", "--help"]),
    ("fit_help", 0, ["fit", "--help"]),
    ("solve_f_help", 0, ["solve-f", "--help"]),
    ("phi_help", 0, ["phi", "--help"]),
    ("convolve_help", 0, ["convolve", "-h"]),
    ("generate_missing", 2, ["generate"]),
    ("generate_bad_family", 2, ["generate", "--family", "nope", "--rows", "3"]),
    ("convolve_missing", 2, ["convolve", "--family", "fibonomial", "--rows", "3"]),
    ("verify_bad_rows", 2, ["verify", "--family", "pascal", "--rows", "x"]),
]


def parser_text(name):
    """The recorded text of PARSER_TEXTS entry name on this Python."""
    path = GOLDEN / "parser-3.13" / f"{name}.txt"
    if sys.version_info < (3, 13) or not path.exists():
        path = GOLDEN / "parser" / f"{name}.txt"
    return path.read_text()


class TestParserTexts:
    @pytest.mark.parametrize("name,expected_code,argv", PARSER_TEXTS,
                             ids=[c[0] for c in PARSER_TEXTS])
    def test_byte_exact(self, monkeypatch, name, expected_code, argv):
        # argparse wraps its text to the terminal width.
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(argv)
        assert code == expected_code
        # Help goes to stdout, usage errors to stderr.
        assert (out, err)[code != 0] == parser_text(name)
        assert not (out, err)[code == 0]

    def test_one_subcommand_builds_its_arguments(self):
        from dualtriad import cli

        common = {"ledger", "command", "handler", "family", "q", "roots", "rows", "max_rows"}
        for command, handler, family, flags, more in (
            ("generate", cli.cmd_generate, "pascal", [], {"format"}),
            ("dual", cli.cmd_dual, "pascal", [], {"format"}),
            ("verify", cli.cmd_verify, "pascal", [], set()),
            ("fit", cli.cmd_fit, "pascal", [], set()),
            ("solve-f", cli.cmd_solve_f, "pascal", [], {"format"}),
            ("phi", cli.cmd_phi, "pascal", [], {"format"}),
            ("convolve", cli.cmd_convolve, "fibonomial", ["--a", "ones", "--b", "1,2"], {"format", "a", "b"}),
        ):
            parser = cli.build_parser()
            args = parser.parse_args([command, "--family", family, "--rows", "5", *flags])
            assert set(vars(args)) == common | more, command
            assert (args.handler, args.family, args.rows, args.max_rows) == (handler, family, 5, 512)
            subparsers = next(a for a in parser._actions if a.dest == "command")
            built = {name for name, sub in subparsers.choices.items() if len(sub._actions) > 1}
            assert built == {command}, command


# Each flag that takes exact values: the argv before it, the text of its
# error message, and what a text must be written as to be one value.
VALUE_FLAGS = {
    "--q": (["generate", "--family", "q-gaussian"], "q value {!r}", "{}"),
    "--roots": (["generate", "--family", "lah"], "roots {!r}", "{},..."),
    "--a": (["convolve", "--family", "fibonomial", "--b=ones"], "--a value {!r}", "{}"),
    "--b": (["convolve", "--family", "fibonomial", "--a=ones"], "--b value {!r}", "{}"),
}


class TestExitCodes:
    def test_usage_errors_are_2(self):
        assert run_cli(["generate", "--family", "nonsense", "--rows", "3"])[0] == 2
        assert run_cli(["generate", "--family", "pascal"])[0] == 2
        assert run_cli(["generate", "--family", "q-gaussian", "--rows", "3"])[0] == 2
        assert run_cli(["generate", "--family", "q-gaussian", "--q", "junk", "--rows", "3"])[0] == 2
        assert run_cli(["generate", "--family", "q-gaussian", "--q", "0", "--rows", "3"])[0] == 2
        assert run_cli(["generate", "--family", "lah", "--rows", "3"])[0] == 2
        assert run_cli(["generate", "--family", "pascal", "--q", "2", "--rows", "3"])[0] == 2
        assert run_cli(["generate", "--family", "pascal", "--rows", "-1"])[0] == 2
        assert run_cli(["dual", "--family", "fibonomial", "--rows", "5"])[0] == 2
        assert run_cli(["fit", "--family", "pascal", "--rows", "4"])[0] == 2
        assert run_cli(["convolve", "--family", "fibonomial", "--a", "bad,x",
                        "--b", "ones", "--rows", "3"])[0] == 2
        # convolve checks --q and --roots as every command does; it took them
        # and ignored them before.
        for flags, message in ((["--q=1e9", "--roots=zz"], "cannot parse q value '1e9'"),
                               (["--q=2"], "--q only applies to family q-gaussian"),
                               (["--roots=1,2,..."], "--roots only applies to family lah")):
            argv = ["convolve", "--family", "fibonomial", *flags, "--a", "ones", "--b", "ones", "--rows", "3"]
            assert run_cli(argv) == (2, "", f"error: {message}\n"), flags
        assert run_cli([])[0] == 2
        for argv in (
            ["generate", "--family", "pascal", "--rows", "3", "--max-rows", "-1"],
            ["generate", "--family", "lah", "--roots", "1/0", "--rows", "3"],
            ["generate", "--family", "lah", "--roots", "x", "--rows", "3"],
        ):
            assert run_cli(argv)[:2] == (2, ""), argv

    def test_convolve_explicit_lists(self):
        # Explicit --a and --b lists are padded with zeros to rows+1 entries;
        # a longer list is a usage error.
        assert run_cli(["convolve", "--family", "fibonomial", "--a", "1,2", "--b", "3,1",
                        "--rows", "4"]) == (0, "3,7,2,0,0\n", "")
        assert convolve_fibonomial((1, 2, 0, 0, 0), (3, 1, 0, 0, 0), 4) == (3, 7, 2, 0, 0)
        code, out, err = run_cli(["convolve", "--family", "fibonomial", "--a", "1,2,3",
                                  "--b", "ones", "--rows", "1"])
        assert (code, out) == (2, "")
        assert "more than rows+1" in err

    def test_exponents_are_refused(self):
        # Fraction reads 1e3 as 1000, and a larger exponent as an integer
        # whose size, and so whose cost, the flag alone sets.
        for argv, message in (
            (["generate", "--family", "q-gaussian", "--q=1e3"], "q value '1e3'"),
            (["verify", "--family", "q-gaussian", "--q=1E3"], "q value '1E3'"),
            (["generate", "--family", "lah", "--roots=1e3,..."], "roots '1e3,...'"),
            (["convolve", "--family", "fibonomial", "--a=1e3", "--b=ones"], "--a value '1e3'"),
            (["convolve", "--family", "fibonomial", "--a=ones", "--b=1,1e3"], "--b value '1,1e3'"),
        ):
            assert run_cli(argv + ["--rows", "1"]) == (2, "", f"error: cannot parse {message}\n"), argv
        # The library still carries every digit of a q past the int-string limit.
        assert generate_named("q-gaussian", 1, q=10**5000).params == (("q", "1" + "0" * 5000),)

    @pytest.mark.parametrize("flag", sorted(VALUE_FLAGS))
    def test_one_value_grammar_on_every_python(self, flag):
        # Fraction() reads digit separators from 3.11 on, spaces around "/"
        # from 3.12 on, and the digits and spaces of any script; a flag reads
        # none of them.
        argv, message, form = VALUE_FLAGS[flag]
        for text in ("1_0", "2 /3", "٣", "١/٢", "１", "\xa02", "2\u2003"):
            value = form.format(text)
            expected = (2, "", f"error: cannot parse {message.format(value)}\n")
            assert run_cli([*argv, f"{flag}={value}", "--rows", "3"]) == expected, text
        # What every Python reads alike: a sign, p/q, decimals, outer spaces.
        for text, same in ((" 2 ", "2"), ("+2", "2"), ("0.5", "1/2"), (".5", "1/2"), ("2.", "2"),
                           ("-2.50", "-5/2"), (" -3/4", "-3/4")):
            result = run_cli([*argv, f"{flag}={form.format(text)}", "--rows", "3"])
            assert result == run_cli([*argv, f"{flag}={form.format(same)}", "--rows", "3"]), text
            assert result[0] == 0, text

    def test_row_cap(self):
        assert run_cli(["generate", "--family", "pascal", "--rows", "600"])[0] == 2
        code, out, _ = run_cli(["generate", "--family", "pascal", "--rows", "600",
                                "--max-rows", "700", "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) == 601

    def test_precondition_failures_are_1(self):
        # eulerian is not unipotent: no step matrix, no inverse basis, no dual
        for command in ("phi", "solve-f"):
            for rows in ("0", "3"):
                assert run_cli([command, "--family", "eulerian", "--rows", rows]) == (
                    1, "", "error: step matrix requires a unipotent triangle (unit diagonal)\n")
        code, out, err = run_cli(["verify", "--family", "eulerian", "--rows", "5"])
        assert (code, out) == (1, "")
        assert err == ("error: family eulerian admits no dual construction "
                       "(not unipotent and no banded recurrence)\n")

    def test_verification_failure_is_1(self):
        code, out, _ = run_cli(["verify", "--family", "catalan-shifted", "--rows", "8"])
        assert code == 1
        assert "fails at n=1" in out
        assert "residual = -2" in out

    def test_ledger_exits_0(self):
        code, out, _ = run_cli(["--ledger"])
        assert code == 0
        assert "published" in out and "33880" in out


COMMANDS = ("generate", "dual", "verify", "fit", "solve-f", "phi", "convolve")
ROUTE_MATRIX = {
    # family: exit codes of COMMANDS at --rows 0, at --rows 6; verify's route
    "pascal": ((0, 0, 0, 2, 0, 0, 2), (0, 0, 0, 0, 0, 0, 2), "banded dual recurrence"),
    "q-gaussian": ((0, 0, 0, 2, 0, 0, 2), (0, 0, 0, 0, 0, 0, 2), "banded dual recurrence"),
    "catalan-shifted": ((0, 0, 0, 2, 0, 0, 2), (0, 0, 1, 0, 0, 0, 2),
                        "banded dual recurrence (catalan polynomials)"),
    "catalan-triad": ((0, 0, 0, 2, 0, 0, 2), (0, 0, 0, 0, 0, 0, 2), "banded dual recurrence"),
    "fibonomial": ((0, 2, 0, 2, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0), "step-matrix polynomials"),
    "stirling1": ((0, 2, 0, 2, 0, 0, 2), (0, 2, 0, 0, 0, 0, 2), "step-matrix polynomials"),
    "eulerian": ((0, 2, 1, 2, 1, 1, 2), (0, 2, 1, 0, 1, 1, 2), None),
    "lah": ((0, 0, 0, 2, 0, 0, 2), (0, 0, 0, 0, 0, 0, 2), "persistent-root polynomials"),
}


ROUTE_FAMILIES = [
    ("pascal", None, None),
    ("q-gaussian", "-5/2", None),
    ("catalan-shifted", None, None),
    ("catalan-triad", None, None),
    ("fibonomial", None, None),
    ("stirling1", None, None),
    ("lah", None, "1/2,3/2,..."),
]


class TestPhiRoutes:
    @pytest.mark.parametrize("family,q,roots", ROUTE_FAMILIES)
    def test_solve_f_equals_dense_solve(self, family, q, roots):
        # Banded families print their recurrence as F, and fibonomial and
        # stirling1 stream their closed forms of F; the dense solve of
        # C F = (shift of C) on the collected triangle is the oracle.
        rows = 64 if family in ("fibonomial", "stirling1") else 12
        argv = ["solve-f", "--family", family, "--rows", str(rows)]
        argv += [f"--q={q}"] if q else []
        argv += ["--roots", roots] if roots else []
        code, out, _ = run_cli(argv)
        assert code == 0
        tri = generate_named(family, rows + 1, q=q and Fraction(q), roots=roots and parse_roots(roots))
        assert OutputDocument.rows_from_csv(out) == [list(row) for row in solve_step_matrix(tri).rows]

    @pytest.mark.parametrize("family,q,roots", ROUTE_FAMILIES)
    def test_phi_equals_step_matrix_eigen_recursion(self, family, q, roots):
        # phi takes a family's own recurrence or its inverse's structure; the dense
        # step matrix and its eigen-recursion are the oracle for both.
        argv = ["phi", "--family", family, "--rows", "24"]
        argv += [f"--q={q}"] if q else []
        argv += ["--roots", roots] if roots else []
        code, out, _ = run_cli(argv)
        assert code == 0
        tri = generate_named(family, 24, q=q and Fraction(q), roots=roots and parse_roots(roots))
        oracle = phi_from_step_matrix(solve_step_matrix(tri))
        assert OutputDocument.rows_from_csv(out) == [list(p.coeffs) for p in oracle]

    @pytest.mark.parametrize("command", ["phi", "verify", "solve-f"])
    @pytest.mark.parametrize("family", ["fibonomial", "stirling1"])
    def test_no_command_inverts_a_triangle(self, monkeypatch, command, family):
        # invert_unipotent and solve_step_matrix both forward-substitute;
        # phi and verify read these families' phi from their structure, and
        # solve-f streams their F, building no StepMatrix.
        runs = [["--rows", rows] for rows in ("0", "1", "6", "24")]
        expected = [run_cli([command, "--family", family] + argv) for argv in runs]

        def refuse(*args):
            raise AssertionError("forward substitution or a collected step matrix")

        monkeypatch.setattr(reference, "forward_substitute", refuse)
        monkeypatch.setattr(dynsys, "StepMatrix", refuse)
        for argv, (code, out, err) in zip(runs, expected):
            assert (code, err) == (0, "")
            assert run_cli([command, "--family", family] + argv) == (code, out, err)

    def test_each_command_looks_its_family_up_once(self, monkeypatch):
        # _family_inputs hands each command the Family it found; no command
        # resolves a family name again through the library's lookup.
        families = [["--family", family] for family in ROUTE_MATRIX if family not in ("q-gaussian", "lah")]
        families += [["--family", "q-gaussian", q] for q in ("--q=2", "--q=-2/3")]
        families.append(["--family", "lah", "--roots=1/2,3/2,..."])
        runs = [[command, *family, "--rows", rows]
                for command in COMMANDS[:-1] for family in families for rows in ("0", "6")]
        expected = [run_cli(argv) for argv in runs]

        def refuse(*args):
            raise AssertionError("a second lookup of the family")

        monkeypatch.setattr(reference, "_resolve", refuse)
        for argv, result in zip(runs, expected):
            assert run_cli(argv) == result, argv


class ClosedPipe:
    """A stdout whose reader has gone after the first write."""

    def __init__(self, fd):
        self.fd = fd
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes >= 2:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedOutputPipe:
    @pytest.mark.parametrize("argv", [
        ["generate", "--family", "pascal", "--rows", "20"],
        ["dual", "--family", "q-gaussian", "--q", "2", "--rows", "6", "--format", "json"],
        ["verify", "--family", "pascal", "--rows", "4"],
    ])
    def test_exits_1_without_traceback(self, argv, tmp_path):
        with open(tmp_path / "stdout", "wb") as f:
            out, err = ClosedPipe(f.fileno()), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, out.writes, err.getvalue()) == (1, 2, "")
            # The descriptor now points at devnull, so the flush at
            # interpreter exit cannot raise again.
            assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))


class CountingSink:
    """A stdout that counts what is written and keeps none of it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)  # the CLI writes ASCII only: characters are bytes
        return len(text)

    def flush(self):
        pass


class CountingRaw(io.RawIOBase):
    """A binary stream that counts the bytes written to it and keeps none."""

    size = 0

    def writable(self):
        return True

    def write(self, data):
        self.size += len(data)
        return len(data)


class TestStreamedOutputMemory:
    @pytest.mark.parametrize("argv", [
        ["generate", "--family", "pascal", "--rows", "400", "--format", "csv"],
        ["generate", "--family", "pascal", "--rows", "400", "--format", "json"],
        ["dual", "--family", "q-gaussian", "--q=2/3", "--rows", "80"],
        ["generate", "--family", "pascal", "--rows", "400", "--format", "pretty"],
        ["generate", "--family", "eulerian", "--rows", "192", "--format", "pretty"],
    ])
    def test_peak_is_a_small_part_of_the_output(self, argv):
        # Rows go from the recurrence to stdout one at a time, in pretty on
        # each of its two passes; holding the whole triangle, its strings or
        # the joined text would cost more than the output itself.
        sink = CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.size > 2_000_000
        assert peak < sink.size / 4, (peak, sink.size)

    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    def test_peak_is_below_the_longest_row(self, fmt):
        # The longest row of q=10 N=136 is 409 KiB of digits.  Its line is
        # written in pieces, so the peak holds that row's strings, the
        # integer rows they come from and one piece, not the joined line and
        # its encoded bytes besides (3.1 to 3.5 times the row when it did).
        # The sink encodes what it is given, as sys.stdout does.
        raw = CountingRaw()
        sink = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["generate", "--family", "q-gaussian", "--q=10", "--rows", "136", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sink.flush()
        assert code == 0 and raw.size > 2_000_000
        longest = longest_row_text("q-gaussian", 136, 10)
        assert longest > 400_000
        assert peak < 2.75 * longest, (peak, longest)


@functools.lru_cache(maxsize=None)
def longest_row_text(family, rows, q):
    """The characters of the longest row joined by commas."""
    triangle = generate_named(family, rows, q=q).rows
    return max(sum(map(len, row)) + len(row) - 1 for row in format_rows(triangle))


class TestStreamedProofMemory:
    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_peak_is_a_small_part_of_the_triangle(self, command):
        # fit reads row pairs and verify's certificate reads rows and phis in
        # lockstep, so neither holds the triangle (about 4 MB of q = 2
        # entries at N = 160) nor, for verify, the phis (larger still).
        rows = 160
        triangle = generate_named("q-gaussian", rows, q=2)
        size = sum(sys.getsizeof(r) + sum(map(sys.getsizeof, r)) for r in triangle.rows)
        del triangle
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main([command, "--family", "q-gaussian", "--q=2", "--rows", str(rows)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.getvalue().startswith(("fit: banded", "route: banded"))
        assert peak < size / 2, (peak, size)


class TestRouteMatrix:
    @pytest.mark.parametrize("family", sorted(ROUTE_MATRIX))
    def test_exit_codes_and_verify_route(self, family):
        at_rows0, at_rows6, route = ROUTE_MATRIX[family]
        extra = {"q-gaussian": ["--q", "2"], "lah": ["--roots", "1,2,3,..."]}.get(family, [])
        for rows, expected in (("0", at_rows0), ("6", at_rows6)):
            for command, code in zip(COMMANDS, expected):
                argv = [command, "--family", family, "--rows", rows] + extra
                if command == "convolve":
                    argv += ["--a", "ones", "--b", "ones"]
                got, out, _ = run_cli(argv)
                assert got == code, (command, rows)
                if command == "verify":
                    lines = out.splitlines()
                    assert lines[:1] == ([] if route is None else [f"route: {route}"])


# Texts that a flag's value often takes, shared by every flag: numbers in
# forms that int() or Fraction() accept or refuse, patterns, separators and
# option-like words.
EDGE_TEXTS = ["", " ", "-", "--", "0", "-0", "1", "-1", "+3", " 3 ", "1_0", "٣", "0x10", "1e3",
              "1/0", "2/3", "-2/3", "1" + "0" * 40, "abc", "nan", "inf", "…", "...", ",", "1,,2",
              "0,1,2,...", "1/2,3/2,…", "1,2,4,...", "3,1", "1,2,5,...", "0,0,...", "ones", "1,-1/2",
              "pascal", "Pascal", "q_gaussian", "lah", "csv", "json", "pretty", "xml", "\x00", "é",
              "--help", "-h"]
# Texts that each flag parses, so that most argvs reach the command (a --rows
# of 513 is past the default cap).
GOOD_TEXTS = {
    "family": sorted(triads.FAMILIES),
    "q": ["2", "-2/3", "1/2", "-1", "1" + "0" * 40],
    "roots": ["0,1,2,...", "1/2,3/2,…", "1,2,4,...", "3,1", "3,1,4,1,5,9,2,6,5,3,5,8,9", "0,0,..."],
    "rows": [*map(str, range(13)), "513"],
    "max-rows": ["0", "5", "12"],
    "a": ["ones", "1,-1/2", "0,0,1"],
    "b": ["ones", "2/3"],
    "format": ["csv", "json", "pretty"],
}


def _int_at_most(text, bound, or_above=None):
    """False when int(text), as argparse reads --rows and --max-rows, is a
    row count above bound (and at most or_above): a run of that many rows
    would cost seconds, while a count past the row cap is refused."""
    try:
        value = int(text)
    except ValueError:
        return True
    return value <= bound or (or_above is not None and value > or_above)


# The free texts --rows and --max-rows may take: (bound, or_above).
ROW_BOUNDS = {"rows": (12, DEFAULT_ROW_CAP), "max-rows": (12,)}


@st.composite
def fuzzed_argvs(draw):
    """An argv of any command in which each of --family, --q, --roots,
    --rows, --max-rows, --a, --b and --format may take free text (an edge
    text or any short string), as `--flag=text` or as two tokens.  A flag
    that the command and family take is left out one time in eight, takes
    free text one time in eight and a text it accepts otherwise; any other
    flag (a usage error) is given one time in eight.  A numeric --rows is at
    most 12 or past the default cap, and --max-rows at most 12, so that no
    run costs seconds."""
    command = draw(st.sampled_from(COMMANDS))
    family = draw(st.sampled_from(GOOD_TEXTS["family"]))
    own = {"family", "rows", triads.FAMILIES[family].param}
    own.update(("a", "b") if command == "convolve" else ())
    own.update(() if command in ("verify", "fit") else ("format",))
    free = st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=8))
    flags = []
    for flag, good in GOOD_TEXTS.items():
        choice = draw(st.integers(0, 7))
        if (choice == 0) == (flag in own):
            continue
        parsed = choice > 1 if flag in own else draw(st.booleans())
        if parsed:
            text = family if flag == "family" else draw(st.sampled_from(good))
        elif flag in ROW_BOUNDS:
            text = draw(free.filter(lambda t: _int_at_most(t, *ROW_BOUNDS[flag])))
        else:
            text = draw(free)
        flags.append([f"--{flag}={text}"] if draw(st.booleans()) else [f"--{flag}", text])
    argv = [command]
    for tokens in draw(st.permutations(flags)):
        argv += tokens
    return argv


def _asks_for_help(argv):
    """True when argparse reads a token of argv as -h or --help (or a prefix
    of --help): a bare token before any bare "--", since argparse never takes
    an option-like token as a flag's value."""
    tokens = argv[:argv.index("--")] if "--" in argv else argv
    return any(t == "-h" or (len(t) > 2 and "--help".startswith(t)) for t in tokens)


class TestArgvFuzz:
    # The argv sweep pins the outputs of the argvs it lists; this covers
    # the combinations it does not.
    @settings(max_examples=300, deadline=None)
    @given(fuzzed_argvs())
    @example(["generate", "--b", "--help"])
    def test_exit_code_and_parsable_output(self, argv):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        if code == 0 and _asks_for_help(argv):
            # argparse prints the command's help and exits 0 when it reads
            # --help, also after a flag the command does not take (which it
            # sets aside as unrecognized until the end of the argv).
            assert (out, err) == (run_cli([argv[0], "--help"])[1], ""), argv
        elif code == 1 and out:
            # A failed triad: verify's verdict on stdout, nothing on stderr.
            assert argv[0] == "verify" and err == "", argv
            assert out.startswith("route: ") and "\nfails at n=" in out, argv
        elif code:
            assert out == "" and "error:" in err, argv
        elif argv[0] not in ("verify", "fit"):
            # Each flag is given at most once, as --format=text or as two tokens.
            fmt = next((t[9:] if "=" in t else argv[i + 1] for i, t in enumerate(argv)
                        if t.split("=")[0] == "--format"), "csv")
            if fmt == "csv":
                OutputDocument.rows_from_csv(out)
            elif fmt == "json":
                OutputDocument.from_json(out)

    @pytest.mark.parametrize("flag", sorted(GOOD_TEXTS))
    def test_double_dash_value_is_a_usage_error(self, flag):
        # Before Python 3.13 argparse dropped a "--" given as an option's
        # value, which left a list where a text was read: a TypeError.
        argv = ["convolve", "--family", "fibonomial", "--rows", "3", "--a", "ones", "--b", "ones"]
        code, out, err = run_cli([*argv, f"--{flag}=--"])
        assert (code, out) == (2, "") and "'--'" in err


class TestRootsParsing:
    def test_arithmetic_continuation(self):
        r = parse_roots("0,1,2,3,…")
        assert r == RootSequence.arithmetic(0, 1)
        assert parse_roots("0,1,2,3,...") == r

    def test_geometric_continuation(self):
        r = parse_roots("1,2,4,…")
        assert r == RootSequence.geometric(2, first=1)
        assert r.prefix(6) == (1, 2, 4, 8, 16, 32)

    def test_constant_continuation(self):
        assert parse_roots("5,…").prefix(3) == (5, 5, 5)

    def test_explicit_list(self):
        from fractions import Fraction

        r = parse_roots("3,-1/2,7")
        assert r.prefix(3) == (3, Fraction(-1, 2), 7)

    def test_unrecognized_pattern(self):
        from dualtriad.cli import UsageError

        with pytest.raises(UsageError):
            parse_roots("1,2,4,5,…")
        with pytest.raises(UsageError):
            parse_roots("")
        with pytest.raises(UsageError):
            parse_roots("1,,2")

    def test_explicit_list_too_short_for_rows(self):
        # Rows 0..N read the roots r_1..r_N, so two roots cover exactly N = 2.
        code, out, _ = run_cli(["verify", "--family", "lah", "--roots", "1,2",
                                "--rows", "2"])
        assert code == 0
        assert "holds up to n=2" in out
        for rows in ("3", "10"):
            code, _, err = run_cli(["verify", "--family", "lah", "--roots", "1,2",
                                    "--rows", rows])
            assert code == 2
            assert "only 2 levels" in err

    def test_explicit_list_too_short_exits_2_on_every_command(self):
        # Five roots cover rows 0..5; solve-f reads the triangle to row N + 1,
        # so for it they cover rows 0..4 only.
        for command in ("generate", "dual", "verify", "fit", "solve-f", "phi"):
            for rows in ("5", "6"):
                code, _, err = run_cli([command, "--family", "lah", "--roots", "1,2,3,4,5",
                                        "--rows", rows])
                if rows == "5" and command != "solve-f":
                    assert code == 0, command
                else:
                    assert (code, "only 5 levels" in err) == (2, True), (command, rows)


class TestCliRoundTrips:
    def test_json_output_parses_back(self):
        for family, q in (("fibonomial", None), ("q-gaussian", 3), ("eulerian", None)):
            argv = ["generate", "--family", family, "--rows", "16", "--format", "json"]
            if q is not None:
                argv += ["--q", str(q)]
            code, out, _ = run_cli(argv)
            assert code == 0
            doc = OutputDocument.from_json(out)
            tri = generate_named(family, 16, q=q)
            assert [tuple(r) for r in doc.value_rows()] == list(tri.rows)

    def test_csv_output_parses_back(self):
        code, out, _ = run_cli(["generate", "--family", "catalan-shifted",
                                "--rows", "16", "--format", "csv"])
        assert code == 0
        rows = OutputDocument.rows_from_csv(out)
        tri = generate_named("catalan-shifted", 16)
        assert [tuple(r) for r in rows] == list(tri.rows)

    def test_entries_past_the_int_string_limit(self):
        # The middle entry of row 132 at q = 10 has more digits than the
        # default limit (4300) of int <-> str conversion.
        code, out, err = run_cli(["generate", "--family", "q-gaussian", "--q", "10", "--rows", "132"])
        assert (code, err) == (0, "")
        middle = out.splitlines()[-1].split(",")[66]
        assert len(middle) > 4300
        assert parse_exact(middle) == q_binomial(132, 66, 10)

    def test_fit_weights_past_the_int_string_limit(self):
        code, out, err = run_cli(["fit", "--family", "q-gaussian", "--q", str(10**200), "--rows", "23"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "\t".join(("22", "1", "1" + "0" * 4400, "0"))


class TestSubprocessEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dualtriad", "generate", "--family", "fibonomial",
             "--rows", "6", "--format", "csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "generate_fibonomial_rows6.txt").read_text()

    def test_module_invocation_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dualtriad", "verify", "--family",
             "catalan-shifted", "--rows", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1

    def test_import_loads_only_what_the_commands_run(self):
        # Every command is a fresh process, so what `import dualtriad.cli`
        # loads is paid on each one: not dataclasses (which pulls in inspect,
        # ast and dis), not json, and not the misprint ledger.  The compute
        # modules stay imported at module level: perfbench/tracing.py wraps
        # their functions by reading them from sys.modules after importing
        # dualtriad.cli.
        code = (
            "import sys, dualtriad.cli\n"
            "print(' '.join(m for m in ('dataclasses', 'json', 'dualtriad.misprints')"
            " if m in sys.modules))\n"
            "print(' '.join(m for m in ('exact', 'sequences', 'triads', 'output', 'dynsys')"
            " if 'dualtriad.' + m not in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n\n", f"loaded / missing: {proc.stdout!r}"

        from dualtriad.misprints import format_ledger

        proc = subprocess.run([sys.executable, "-m", "dualtriad", "--ledger"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, format_ledger(), "")
        assert "geometric-q3-row6" in proc.stdout
