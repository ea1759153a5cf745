"""The reference routes, which no command runs: the collected Triangle and
its builders, collected duals, basis expansion, Catalan conversions, dense
step-matrix solve, phi and inversion, evolution, closed-form sequences,
parsing and OutputDocument.  The tests check the commands' streams against
them."""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction
from itertools import pairwise
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from ._record import Frozen, Record
from .dynsys import StepMatrix, _require_unipotent
from .exact import _CHUNK, _CHUNK_DIGITS, Rational, Scaled, as_exact, exact_div, format_exact, forward_substitute
from .output import format_rows, write_document
from .polynomial import Polynomial
from .sequences import RootSequence, eulerian_rows, fibonacci, stirling_first_rows
from .triads import FAMILIES, BandedRecurrence, Family, banded_step, checked_rows, iter_dual_polynomials
from .triads import root_recurrence, scaled_banded_rows

_EXACT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


class Triangle(Frozen):
    """Lower-triangular array of exact entries plus family metadata.

    rows[n] holds entries k = 0..n; anything outside the triangle reads as 0
    through entry().
    """

    __slots__ = ("rows", "family", "params")
    rows: tuple[tuple[Rational, ...], ...]
    family: str
    params: tuple[tuple[str, str], ...]

    def __init__(self, rows: Iterable[Union[Sequence[Rational], Scaled]], family: str = "",
                 params: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(tuple(map(Scaled.values, checked_rows(tuple(rows)))), family, params)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Rational, ...]]:
        return iter(self.rows)

    @property
    def max_row(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Rational:
        if 0 <= n < len(self.rows) and 0 <= k <= n:
            return self.rows[n][k]
        return 0

    def is_unipotent(self) -> bool:
        return all(row[n] == 1 for n, row in enumerate(self.rows))

    def params_dict(self) -> dict[str, str]:
        return dict(self.params)


def generate_from_banded(rec: BandedRecurrence, rows: int, family: str = "banded",
                         params: tuple[tuple[str, str], ...] = ()) -> Triangle:
    """The triangle of scaled_banded_rows(rec, rows)."""
    return Triangle(rows=scaled_banded_rows(rec, rows), family=family, params=params)


def _resolve(family: str, q: Optional[Rational], roots: Optional[RootSequence]) -> tuple[str, Family, Any]:
    name = family.strip().lower().replace("_", "-")
    entry = FAMILIES.get(name)
    if entry is None:
        raise ValueError(f"unknown family {family!r}")
    given = {"q": q, "roots": roots}
    for param, supplied in given.items():
        if supplied is not None and param != entry.param:
            raise ValueError(f"family {name!r} does not take the parameter {param}")
    value = given.get(entry.param)
    if entry.param is not None and value is None:
        raise ValueError(f"family {name!r} needs the parameter {entry.param}")
    return name, entry, value


def banded_for_family(family: str, depth: int, q: Optional[Rational] = None,
                      roots: Optional[RootSequence] = None) -> BandedRecurrence:
    """The banded time-independent recurrence of a named family.

    The root families (pascal, q-gaussian, lah) and both Catalan triangles
    have one; fibonomial, stirling1 and eulerian provably do not (their
    update weights depend on the row index).
    """
    name, entry, value = _resolve(family, q, roots)
    if entry.recurrence is None:
        raise ValueError(f"family {name!r} has no banded time-independent recurrence")
    return entry.recurrence(value, depth)


def generate_named(family: str, rows: int, q: Optional[Rational] = None,
                   roots: Optional[RootSequence] = None) -> Triangle:
    """The triangle of FAMILIES[family].scaled_rows, the name and parameters checked."""
    # scaled_rows checks the row count before q is formatted; _resolve lets
    # only a family that takes q receive one.
    name, entry, value = _resolve(family, q, roots)
    stream = entry.scaled_rows(value, rows)
    params = () if q is None else (("q", format_exact(q)),)
    return Triangle(stream, family=name, params=params)


def lah_from_roots(roots: RootSequence, rows: int, params: tuple[tuple[str, str], ...] = ()) -> Triangle:
    """Connection constants of the persistent-root basis with the given roots.

    Rows satisfy c[n+1][k] = c[n][k-1] + r_{k+1} * c[n][k] from the seed 1 at
    (0, 0); the result is unipotent.
    """
    return generate_from_banded(root_recurrence(roots, rows - 1), rows, family="lah", params=params)


def dual_polynomials(rec: BandedRecurrence, count: int) -> list[Polynomial]:
    """The polynomials of iter_dual_polynomials(rec, count), phi_0..phi_count."""
    return list(map(Polynomial, iter_dual_polynomials(rec, count)))


def persistent_root_polys(roots: RootSequence, count: int) -> list[Polynomial]:
    """Monic phi_k(x) = (x - r_1)(x - r_2)...(x - r_k) for k = 0..count.

    Each polynomial keeps all roots of its predecessor, hence the name; they
    are the duals of root_recurrence(roots).
    """
    return dual_polynomials(root_recurrence(roots, count - 1), count)


def expand_in_basis(p: Polynomial, phis: Sequence[Polynomial]) -> list[Rational]:
    """Coefficients a_k with p = sum a_k phi_k, by back-substitution.

    Requires deg phi_k = k for every k up to deg p (graded basis); the
    returned list has deg p + 1 entries, empty for the zero polynomial.
    """
    deg = p.degree
    if deg < 0:
        return []
    if len(phis) < deg + 1:
        raise ValueError(f"basis covers {len(phis)} levels, need {deg + 1}")
    for k in range(deg + 1):
        if phis[k].degree != k:
            raise ValueError(f"basis polynomial {k} must have degree {k}")
    coeffs: list[Rational] = [0] * (deg + 1)
    rest = p
    for k in range(deg, -1, -1):
        c = exact_div(rest.coefficient(k), phis[k].leading)
        coeffs[k] = c
        if c:
            rest = rest - c * phis[k]
    if rest:  # pragma: no cover - eliminated degree by degree
        raise ArithmeticError("back-substitution left a nonzero remainder")
    return coeffs


def catalan_triad_from_shifted(tri: Triangle) -> Triangle:
    """Drop the zero column and the seed row of the shifted Catalan triangle.

    Entry (n, k) of the result is entry (n+1, k+1) of the input; the result
    is the triangle whose rows complete the triad with the Catalan
    polynomials.
    """
    if tri.max_row < 1:
        raise ValueError("need at least rows 0..1 to unshift")
    return Triangle(tuple(row[1:] for row in tri.rows[1:]), family="catalan-triad")


def catalan_shifted_from_triad(tri: Triangle) -> Triangle:
    """Inverse of catalan_triad_from_shifted: prepend the zero column and the
    bare seed row."""
    return Triangle(((1,), *((0, *row) for row in tri.rows)), family="catalan-shifted")


def solve_step_matrix(tri: Triangle) -> StepMatrix:
    """Solve C F = (row shift of C) by forward substitution.

    A unipotent triangle with rows 0..N yields F rows 0..N-1, and row n of
    C F is row n + 1 of C by construction.
    """
    _require_unipotent(tri.is_unipotent())
    if tri.max_row < 1:
        raise ValueError("need at least rows 0..1 to solve for a step matrix")
    return StepMatrix(forward_substitute(pairwise(tri.rows)))


def phi_from_step_matrix(sm: StepMatrix, count: Optional[int] = None) -> list[Polynomial]:
    """Solve x*phi_n = sum_l F[n][l]*phi_l upward from phi_0 = 1.

    Needs a unit superdiagonal so phi_{n+1} isolates; each phi_n comes out
    monic of degree n.  Returns phi_0..phi_count (count defaults to the
    number of available rows).
    """
    if count is None:
        count = sm.row_count
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > sm.row_count:
        raise ValueError(f"{count} polynomials need {count} rows, have {sm.row_count}")
    phis = [Polynomial((1,))]
    for n in range(count):
        row = sm.rows[n]
        if row[n + 1] != 1:
            raise ValueError(f"non-unit superdiagonal at row {n}: {row[n + 1]}")
        # Coefficients of x*phi_n - sum_l F[n][l]*phi_l, in one pass each.
        nxt = [0, *phis[n].coeffs]
        for l in range(n + 1):
            f = row[l]
            if f:
                for j, c in enumerate(phis[l].coeffs):
                    nxt[j] -= f * c
        phis.append(Polynomial(nxt))
    return phis


def invert_unipotent(tri: Triangle) -> Triangle:
    """Exact inverse of a unipotent triangle; row n holds the coefficients of
    the degree-n basis polynomial dual to the triangle's expansion."""
    _require_unipotent(tri.is_unipotent())
    units = [(0,) * n + (1,) for n in range(tri.max_row + 1)]
    inv = forward_substitute(zip(tri.rows, units))
    family = f"{tri.family}-inverse" if tri.family else "inverse"
    return Triangle(tuple(inv), family=family, params=tri.params)


def evolve(state: Sequence[Rational], transition: Union[BandedRecurrence, StepMatrix],
           steps: int) -> tuple[Rational, ...]:
    """Apply a transition matrix to a row vector a given number of times.

    The vector's length is the truncation window.  Each step can widen the
    support by one index, so the window must hold the initial support plus
    one slot per step; anything narrower would silently drop mass and is
    refused instead.
    """
    vec = [as_exact(v) for v in state]
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return tuple(vec)
    support = max((j + 1 for j, v in enumerate(vec) if v), default=0)
    if len(vec) < support + steps:
        raise ValueError(
            f"window too narrow: width {len(vec)} cannot hold {support} initial "
            f"entries plus {steps} steps without truncation"
        )
    reach = support + steps - 1  # largest level index that can be touched
    if isinstance(transition, BandedRecurrence):
        if transition.depth < reach:
            raise ValueError(
                f"transition tabulated to level {transition.depth}, evolution reaches level {reach}"
            )
        for _ in range(steps):
            vec = banded_step(transition, vec, len(vec))
        return tuple(map(as_exact, vec))
    if isinstance(transition, StepMatrix):
        if transition.row_count < reach:
            raise ValueError(
                f"step matrix has {transition.row_count} rows, evolution reaches level {reach}"
            )
        for _ in range(steps):
            nxt: list[Rational] = [0] * len(vec)
            for j, v in enumerate(vec):
                if not v:
                    continue
                for l, f in enumerate(transition.rows[j]):
                    if f:
                        nxt[l] += v * f
            vec = nxt
        return tuple(map(as_exact, vec))
    raise TypeError(f"cannot evolve with {type(transition).__name__}")


def solve_unit_lower(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> tuple[Rational, ...]:
    """Forward substitution for L y = rhs, L lower triangular with unit diagonal.

    Rows may carry their full width or just columns 0..i; anything above the
    diagonal is ignored.  Only unipotent systems are supported, so the solve
    is division-free and exact.
    """
    n = len(rhs)
    if len(matrix) != n:
        raise ValueError("matrix and right-hand side sizes differ")
    lower = []
    for i in range(n):
        row = matrix[i]
        if len(row) <= i:
            raise ValueError(f"row {i} is shorter than its diagonal")
        if as_exact(row[i]) != 1:
            raise ValueError(
                f"diagonal entry at row {i} is {row[i]}; only unit-diagonal "
                "systems are supported"
            )
        lower.append(tuple(as_exact(v) for v in row[:i]))
    solved = forward_substitute(zip(lower, [(as_exact(v),) for v in rhs]))
    return tuple(as_exact(y) for (y,) in solved)


def _parse_digits(digits: str) -> int:
    # int() refuses strings longer than sys.get_int_max_str_digits(); past
    # that the digits are read in blocks small enough to stay under it.
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    value = int(digits[:head])
    for i in range(head, len(digits), _CHUNK_DIGITS):
        value = value * _CHUNK + int(digits[i : i + _CHUNK_DIGITS])
    return value


def parse_exact(text: str) -> Rational:
    """Inverse of format_exact; rejects anything but integer or p/q strings.

    Returns an int when the value is integral, a Fraction otherwise.
    """
    if not _EXACT_RE.match(text):
        raise ValueError(f"not an exact value: {text!r}")
    num, _, den = text.partition("/")
    sign, digits = (-1, num[1:]) if num.startswith("-") else (1, num)
    value = sign * _parse_digits(digits)
    if not den:
        return value
    d = _parse_digits(den)
    if d == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return as_exact(Fraction(value, d))


def binomial(n: int, k: int) -> int:
    """Ordinary binomial coefficient; 0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def q_int(n: int, q: Rational) -> Rational:
    """The q-integer (1 - q^n)/(1 - q) = 1 + q + ... + q^(n-1); n at q = 1."""
    qf = as_exact(q)
    if qf == 0:
        raise ValueError("q must be nonzero")
    if n < 0:
        raise ValueError("q-integer index must be nonnegative")
    if qf == 1:
        return n
    return exact_div(1 - qf**n, 1 - qf)


def q_factorial(n: int, q: Rational) -> Rational:
    """Product of the q-integers 1..n; empty product 1 for n = 0."""
    result = 1
    for m in range(1, n + 1):
        result *= q_int(m, q)
    return as_exact(result)


def q_binomial(n: int, k: int, q: Rational) -> Rational:
    """Gaussian binomial: falling q-factorial of length k over the q-factorial
    of k.  Returns 0 outside 0 <= k <= n and 1 at k = 0.

    Over the rationals a denominator q-integer can vanish only at q = -1,
    where this factored form is undefined; that case raises.  After step j
    the running product is the Gaussian binomial of n - k + j over j, so it
    stays an int for integer q.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    result = 1
    for j in range(1, k + 1):
        den = q_int(j, q)
        if den == 0:
            raise ValueError(
                f"q-integer {j} vanishes at q = {as_exact(q)}; the "
                "factorial form of the coefficient is undefined there"
            )
        result = exact_div(result * q_int(n - k + j, q), den)
    return result


def fibonomial(n: int, k: int) -> int:
    """F_n!/(F_k! F_{n-k}!) built from Fibonacci factorials; always an integer.

    0 outside 0 <= k <= n.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    result = 1
    for j in range(1, k + 1):
        result = exact_div(result * fibonacci(n - k + j), fibonacci(j))
    if not isinstance(result, int):  # pragma: no cover - integrality is a theorem
        raise ArithmeticError(f"fibonomial({n}, {k}) evaluated non-integral")
    return result


def catalan_entry(n: int, k: int) -> int:
    """Ballot-style closed form binom(2n, n-k) * k / n for rows n >= 1.

    0 for k <= 0 or k > n.  Entry (n, 1) is the n-th Catalan number.
    """
    if n < 1:
        raise ValueError("closed-form rows start at n = 1")
    if k <= 0 or k > n:
        return 0
    value = exact_div(math.comb(2 * n, n - k) * k, n)
    if not isinstance(value, int):  # pragma: no cover - integrality is a theorem
        raise ArithmeticError(f"catalan_entry({n}, {k}) evaluated non-integral")
    return value


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: entry k of row n of
    stirling_first_rows.  0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return deque(stirling_first_rows(n), maxlen=1)[0][k]


def eulerian(n: int, k: int) -> int:
    """Eulerian number, the permutations of {1..n} with exactly k descents:
    entry k of row n of eulerian_rows.  0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return deque(eulerian_rows(n), maxlen=1)[0][k]


class OutputDocument(Record):
    """One emitted result: a family tag, parameters, rows of exact strings,
    and an optional verification or fit summary."""

    __slots__ = ("family", "params", "rows", "report")
    family: str
    params: dict[str, str]
    rows: list[list[str]]
    report: Optional[dict]
    _defaults = {"params": dict, "rows": list, "report": None}

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
        write_document(parts.append, fmt, self.family, self.params, self.rows.__iter__, self.report)
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
