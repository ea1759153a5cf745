"""Output checks for benchmark jobs, computed without importing dualtriad.

Every expected value is recomputed here in plain int / Fraction arithmetic:
triangles from closed forms (binomial, Gaussian-binomial, ballot and
fibonomial products, the rising factorial) or, for Eulerian and Lah
triangles, their defining row recurrences.  `check` compares one job's exit
code and standard output against them and returns the reason for a mismatch.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional, Union

from jobs import Job

Value = Union[int, Fraction]
Rows = list[list[Value]]

# Decimal strings are parsed in chunks below the interpreter's default
# int-to-string limit, so outputs that a later fix of the limit defect emits
# still parse without changing the limit for the program under test.
_CHUNK_DIGITS = 4000
_CHUNK_SCALE = 10 ** _CHUNK_DIGITS


def parse_int(text: str) -> int:
    digits = text[1:] if text.startswith("-") else text
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    if len(digits) <= _CHUNK_DIGITS:
        return int(text)
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    value = int(digits[:head])
    for start in range(head, len(digits), _CHUNK_DIGITS):
        value = value * _CHUNK_SCALE + int(digits[start:start + _CHUNK_DIGITS])
    return -value if text.startswith("-") else value


def parse_exact(text: str) -> Value:
    num, slash, den = text.partition("/")
    if not slash:
        return parse_int(num)
    d = parse_int(den)
    if d <= 0:
        raise ValueError(f"bad denominator in {text[:40]!r}")
    value = Fraction(parse_int(num), d)
    if value.denominator != d:
        raise ValueError(f"not in lowest terms: {text[:40]!r}")
    return value


def bits(value: Value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return value.bit_length()


# --- reference triangles -------------------------------------------------


def _q_gaussian(n_max: int, q: Fraction) -> Rows:
    # [n, k] = [n, k-1] * (q^(n-k+1) - 1) / (q^k - 1); for integer q every
    # partial product is divisible, so integer division stays exact.
    qv: Value = q.numerator if q.denominator == 1 else q
    less_one = [qv ** m - 1 for m in range(n_max + 1)]
    integral = isinstance(qv, int)
    rows = []
    for n in range(n_max + 1):
        row: list[Value] = [1]
        for k in range(1, n + 1):
            num = row[-1] * less_one[n - k + 1]
            row.append(num // less_one[k] if integral else num / less_one[k])
        rows.append(row)
    return rows


def _pascal(n_max: int) -> Rows:
    rows = []
    for n in range(n_max + 1):
        row = [1]
        for k in range(1, n + 1):
            row.append(row[-1] * (n - k + 1) // k)
        rows.append(row)
    return rows


def _catalan_triad(n_max: int) -> Rows:
    # Ballot numbers: entry (n, k) = C(2n+2, n-k) (k+1) / (n+1).
    rows = []
    for n in range(n_max + 1):
        row = [math.comb(2 * n + 2, n) // (n + 1)]
        for k in range(1, n + 1):
            row.append(row[-1] * (n - k + 1) * (k + 1) // ((n + k + 2) * k))
        rows.append(row)
    return rows


def _fibonomial(n_max: int) -> Rows:
    fib = [0, 1]
    while len(fib) < n_max + 2:
        fib.append(fib[-1] + fib[-2])
    rows = []
    for n in range(n_max + 1):
        row = [1]
        for k in range(1, n + 1):
            row.append(row[-1] * fib[n - k + 1] // fib[k])
        rows.append(row)
    return rows


def _recurrence(n_max: int, step) -> Rows:
    rows: Rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([step(n, k, prev[k - 1] if k else 0, prev[k]) for k in range(n + 2)])
    return rows


def reference_triangle(family: str, n_max: int, q: Optional[Fraction] = None, roots=None) -> Rows:
    """Rows 0..n_max of a named triangle."""
    if family == "pascal":
        return _pascal(n_max)
    if family == "q-gaussian":
        return _q_gaussian(n_max, q)
    if family == "catalan-triad":
        return _catalan_triad(n_max)
    if family == "catalan-shifted":
        return [[1]] + [[0] + row for row in _catalan_triad(n_max - 1)]
    if family == "fibonomial":
        return _fibonomial(n_max)
    if family == "stirling1":
        # Coefficients of the rising factorial x (x+1) ... (x+n-1).
        return _recurrence(n_max, lambda n, k, left, here: left + n * here)
    if family == "eulerian":
        return _recurrence(n_max, lambda n, k, left, here: (k + 1) * here + (n + 1 - k) * left)
    if family == "lah":
        r = [None] + [roots.value(s) for s in range(1, n_max + 2)]
        return _recurrence(n_max, lambda n, k, left, here: left + r[k + 1] * here)
    raise ValueError(f"no reference for family {family!r}")


def triangle_rows(job: Job) -> int:
    """Largest row index of the triangle the job's command works on."""
    return job.rows + 1 if job.command == "solve-f" else job.rows


def triangle_family(job: Job) -> str:
    return "fibonomial" if job.command == "convolve" else job.family


class References:
    """Reference triangles for a job list, each family built once at the
    largest size any job needs."""

    def __init__(self, jobs: list[Job]) -> None:
        sizes: dict[tuple, int] = {}
        for job in jobs:
            key = (triangle_family(job), job.q, job.roots)
            sizes[key] = max(sizes.get(key, 0), triangle_rows(job))
        self._rows = {key: reference_triangle(key[0], n, key[1], key[2]) for key, n in sizes.items()}

    def triangle(self, job: Job) -> Rows:
        return self._rows[(triangle_family(job), job.q, job.roots)][: triangle_rows(job) + 1]

    def entry_bits_max(self, job: Job) -> int:
        return max(bits(v) for row in self.triangle(job) for v in row)


# --- output parsing --------------------------------------------------------


def parse_rows(job: Job, text: str) -> Rows:
    if job.fmt == "json":
        doc = json.loads(text)
        if doc.get("family") != job.family or doc.get("report") is not None:
            raise ValueError("wrong family or report in the JSON document")
        lines = doc["rows"]
    elif job.fmt == "pretty":
        lines = [line.split() for line in text.splitlines()]
    else:
        lines = [line.split(",") for line in text.splitlines()]
    return [[parse_exact(item) for item in line] for line in lines]


def _combine(coeffs: list[Value], rows: Rows, width: int) -> list[Value]:
    """sum_k coeffs[k] * rows[k], each row zero-padded to width."""
    acc: list[Value] = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for j, v in enumerate(row):
                acc[j] += c * v
    return acc


def _dual_weights(job: Job, k: int) -> tuple[Value, Value]:
    """(stay, down) at level k of the family's banded recurrence; up is 1."""
    if job.family == "pascal":
        return 1, 0
    if job.family == "q-gaussian":
        return job.q ** k, 0
    if job.family in ("catalan-triad", "catalan-shifted"):
        return 2, 1
    return job.roots.value(k + 1), 0


def _check_dual(job: Job, rows: Rows) -> Optional[str]:
    # x phi_k = down_k phi_{k-1} + stay_k phi_k + phi_{k+1}, from phi_0 = 1.
    if len(rows) != job.rows + 1 or rows[0] != [1]:
        return "wrong number of polynomials or phi_0 != 1"
    for k in range(job.rows):
        stay, down = _dual_weights(job, k)
        shifted = [0] + rows[k]
        prev = rows[k - 1] if k else []
        expect = [
            shifted[j] - stay * (rows[k][j] if j <= k else 0) - down * (prev[j] if j < len(prev) else 0)
            for j in range(k + 2)
        ]
        if rows[k + 1] != expect:
            return f"phi_{k + 1} breaks the three-term recurrence"
    return None


def _check_product(tri: Rows, rows: Rows, count: int, width, expect) -> Optional[str]:
    """Row n of tri @ rows must equal expect(n), for n in 0..count-1."""
    if len(rows) != count:
        return f"{len(rows)} rows, expected {count}"
    for n in range(count):
        if _combine(tri[n], rows, width(n)) != expect(n):
            return f"product row {n} is wrong"
    return None


def _consistent(equations: list[tuple[list[Value], Value]]) -> bool:
    """Whether A w = b has a solution, by exact Gaussian elimination."""
    pivots: list[tuple[int, list[Fraction], Fraction]] = []
    for a, b in equations:
        row = [Fraction(x) for x in a]
        rhs = Fraction(b)
        for col, prow, prhs in pivots:
            f = row[col]
            if f:
                row = [x - f * y for x, y in zip(row, prow)]
                rhs -= f * prhs
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            if rhs:
                return False
            continue
        pivots.append((col, [x / row[col] for x in row], rhs / row[col]))
    return True


def _check_fit(job: Job, text: str, tri: Rows) -> Optional[str]:
    lines = text.splitlines()
    n_max = job.rows
    at = lambda n, k: tri[n][k] if 0 <= k <= n else 0  # noqa: E731
    if job.family in ("pascal", "q-gaussian", "catalan-triad"):
        if lines[:2] != ["fit: banded time-independent recurrence found", "k\ti_k\tq_k\td_k"]:
            return "expected a fit"
        table = [line.split("\t") for line in lines[2:]]
        if [int(r[0]) for r in table] != list(range(n_max)):
            return "weight table does not cover levels 0..N-1"
        up, stay, down = ([parse_exact(r[i]) for r in table] + [0, 0] for i in (1, 2, 3))
        regen: Rows = [[1]]
        for n in range(n_max):
            prev = regen[-1] + [0, 0]
            regen.append([
                (up[k - 1] * prev[k - 1] if k else 0) + stay[k] * prev[k] + down[k + 1] * prev[k + 1]
                for k in range(n + 2)
            ])
        return None if regen == tri else "the fitted weights do not regenerate the triangle"
    if lines[:1] != ["fit: no banded time-independent recurrence"] or len(lines) != 3:
        return "expected a no-fit witness"
    column = int(lines[1].removeprefix("inconsistent column: k="))
    pairs = lines[2].removeprefix("witness equations (n,k): ").split()
    witness = [tuple(int(x) for x in p.strip("()").split(",")) for p in pairs]
    if any(k != column or not 0 <= n < n_max for n, k in witness):
        return "witness pairs outside the reported column or the triangle"
    equations = [([at(n, column - 1), at(n, column), at(n, column + 1)], at(n + 1, column)) for n, _ in witness]
    return "the witness equations are consistent" if _consistent(equations) else None


def expected_verify(job: Job) -> str:
    route = {
        "pascal": "banded dual recurrence",
        "q-gaussian": "banded dual recurrence",
        "catalan-triad": "banded dual recurrence",
        "catalan-shifted": "banded dual recurrence (catalan polynomials)",
        "lah": "persistent-root polynomials",
        "fibonomial": "step-matrix polynomials",
        "stirling1": "step-matrix polynomials",
    }[job.family]
    if job.family == "catalan-shifted" and job.rows >= 1:
        # Row 1 is (0, 1) and phi_1 = x - 2, so the residual at n = 1 is -2.
        return f"route: {route}\nfails at n=1; residual = -2\n"
    return f"route: {route}\nholds up to n={job.rows}\n"


def check(job: Job, exit_code: int, text: str, refs: References) -> tuple[Optional[str], bool]:
    """(why the job failed, or None; whether it printed a wrong answer).

    A job fails on an unexpected exit code or a rejected output.  The answer
    is wrong when the output is rejected and the program printed something
    or claimed success; an error exit with nothing printed is only a failure.
    """
    reason = None
    if text or exit_code == job.expect_exit:
        try:
            reason = _check_output(job, text, refs)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
            reason = f"unparseable output ({type(exc).__name__}: {exc})"
    wrong = reason is not None
    if exit_code != job.expect_exit:
        reason = f"exit {exit_code}, expected {job.expect_exit}" + (f"; {reason}" if reason else "")
    return reason, wrong


def _check_output(job: Job, text: str, refs: References) -> Optional[str]:
    if job.command == "verify":
        return None if text == expected_verify(job) else f"verify printed {text[:120]!r}"
    tri = refs.triangle(job)
    if job.command == "fit":
        return _check_fit(job, text, tri)
    rows = parse_rows(job, text)
    n = job.rows
    if job.command == "generate":
        return None if rows == tri else "triangle entries differ from the reference"
    if job.command == "dual":
        return _check_dual(job, rows)
    if job.command == "solve-f":
        # C F = E C: row n of C times F is row n + 1 of C.
        return _check_product(tri, rows, n + 1, lambda m: m + 2, lambda m: tri[m + 1])
    if job.command == "phi":
        # C Phi = I, Phi holding the coefficient rows of phi_0..phi_N.
        return _check_product(tri, rows, n + 1, lambda m: m + 1, lambda m: [0] * m + [1])
    if job.command == "convolve":
        # With a = b = ones, c_n is the row sum of the fibonomial triangle.
        return None if rows == [[sum(row) for row in tri]] else "convolution differs from the row sums"
    raise ValueError(f"no oracle for command {job.command!r}")
