"""What a command run loads: no command imports the reference routes
(dualtriad.reference), and only a failing verify, which expands rows to
report the failure, imports dualtriad.polynomial.  Each run is a fresh
process, because a module a run imports is compiled on every run."""

import subprocess
import sys

import pytest

# Runs dualtriad.cli.main on argv in this process, and prints its exit code
# and which of the two modules it loaded.
PROBE = """
import contextlib, io, sys
from dualtriad.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(m for m in ("dualtriad.reference", "dualtriad.polynomial") if m in sys.modules))
"""

STREAMS = [
    ["--ledger"],
    ["generate", "--family", "fibonomial", "--rows", "8"],
    ["generate", "--family", "q-gaussian", "--q=-2/3", "--rows", "8", "--format", "json"],
    ["generate", "--family", "eulerian", "--rows", "8", "--format", "pretty"],
    ["dual", "--family", "lah", "--roots=1/2,3/2,...", "--rows", "8"],
    ["dual", "--family", "q-gaussian", "--q=2", "--rows", "8"],
    ["fit", "--family", "q-gaussian", "--q=-2/3", "--rows", "8"],
    ["fit", "--family", "stirling1", "--rows", "8"],
    ["solve-f", "--family", "fibonomial", "--rows", "8"],
    ["solve-f", "--family", "stirling1", "--rows", "8"],
    ["solve-f", "--family", "catalan-triad", "--rows", "8"],
    ["phi", "--family", "stirling1", "--rows", "8"],
    ["phi", "--family", "pascal", "--rows", "8"],
    ["convolve", "--family", "fibonomial", "--rows", "8", "--a", "ones", "--b", "1,2"],
    ["verify", "--family", "q-gaussian", "--q=2", "--rows", "8"],
    ["verify", "--family", "lah", "--roots=1/2,3/2,...", "--rows", "8"],
    ["verify", "--family", "catalan-triad", "--rows", "8"],
    ["verify", "--family", "fibonomial", "--rows", "8"],
    ["verify", "--family", "stirling1", "--rows", "8"],
]


def loads(argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv", STREAMS, ids=" ".join)
def test_a_passing_stream_or_certificate_loads_neither(argv):
    assert loads(argv) == ["0"]


@pytest.mark.parametrize("argv,code", [
    (["verify", "--family", "catalan-shifted", "--rows", "8"], "1"),
], ids=["failed-certificate"])
def test_an_expanding_verify_loads_polynomial_only(argv, code):
    assert loads(argv) == [code, "dualtriad.polynomial"]
