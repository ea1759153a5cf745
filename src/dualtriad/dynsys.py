"""The discrete-time view: one-step transition matrices for triangles.

Reading triangle rows as states of a walk, the row shift E (which maps row n
to row n+1) factors through a single matrix F with C F = E C, so that
C F^n = E^n C.  For a unipotent triangle F = C^{-1} E C is unique and lower
Hessenberg with a unit superdiagonal.  Its eigen-style recursion
x*phi = F*phi yields the phi whose coefficient rows are the rows of C^{-1}:
the basis in which x^n expands with the triangle's own rows.
family_step_matrix streams F off each family's structure, as Family.phis
streams phi; the dense solves in reference are the oracle of both.

This module also decides, exactly, whether a triangle admits banded
time-independent update weights at all (fit_banded), and carries the weighted
convolution built from fibonomial coefficients.
"""

from __future__ import annotations

from math import gcd
from typing import Any, Iterable, Iterator, Optional, Sequence

from . import _forward
from ._record import Frozen
from .exact import Rational, Scaled, as_exact, exact_div
from .sequences import fibonomial_rows
from .triads import _NOT_UNIPOTENT, BandedRecurrence, Family, RowSource, _check_levels, checked_rows

# Only perfbench/tracing.py reads these names here; they go once it wraps each at its home.
__getattr__ = _forward(__name__, reference="solve_step_matrix phi_from_step_matrix")


class StepMatrix(Frozen):
    """Lower-Hessenberg truncation of a one-step transition matrix.

    Row n spans columns 0..n+1; everything above the superdiagonal is zero.
    Entry (k, l) of the n-th power counts the weighted walks from level k to
    level l in n steps.
    """

    __slots__ = ("rows",)
    rows: tuple[tuple[Rational, ...], ...]

    def __init__(self, rows: Iterable[Sequence[Rational]]) -> None:
        coerced = []
        for n, row in enumerate(rows):
            if len(row) != n + 2:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 2}")
            coerced.append(tuple(as_exact(v) for v in row))
        super().__init__(tuple(coerced))

    @property
    def row_count(self) -> int:
        return len(self.rows)


def _require_unipotent(unipotent: bool) -> None:
    if not unipotent:
        raise ValueError(_NOT_UNIPOTENT)


def banded_step_matrix(rec: BandedRecurrence, rows: int) -> Iterator[tuple[Rational, ...]]:
    """Rows 0..rows of the tridiagonal step matrix of rec, one at a time: row
    n holds down[n], stay[n] and up[n] in columns n-1, n and n+1.  The
    arguments are checked here, before the first row.

    With unit up weights this is the F of rec's triangle, because F is unique
    for a unipotent triangle: solve_step_matrix finds the same rows in O(N^3)
    where this reads them off in O(N^2).
    """
    _check_levels(rec, "rows", rows, rows + 1, "rows")
    return ((0,) * (n - 1) + (rec.down[n], rec.stay[n], rec.up[n]) if n else (rec.stay[0], rec.up[0])
            for n in range(rows + 1))


def family_step_matrix(family: Family, value: Any, rows: int) -> Iterator[tuple[Rational, ...]]:
    """Rows 0..rows of a family's F (value is its parameter), one at a time,
    each made from the family's structure in O(N^2): a family with a
    recurrence has up weights 1, so banded_step_matrix reads F off it, and
    the others stream their step_rows.  A family with neither is not
    unipotent; it is refused here, before its first row, as is rows < 0."""
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    if family.recurrence is not None:
        return banded_step_matrix(family.recurrence(value, rows), rows)
    _require_unipotent(family.step_rows is not None)
    return family.step_rows(rows)


class FitResult(Frozen):
    """Outcome of the banded-fit decision.

    On a fit, recurrence regenerates the triangle exactly, which its
    consistent column equations prove.  Otherwise witness lists (row, column)
    index pairs whose update equations are jointly inconsistent - substituting
    them back gives a linear system with no solution, which is an exact
    certificate that no time-independent weights exist.
    """

    __slots__ = ("recurrence", "column", "witness")
    recurrence: Optional[BandedRecurrence]
    column: Optional[int]
    witness: tuple[tuple[int, int], ...]
    _defaults = {"column": None, "witness": ()}

    @property
    def fits(self) -> bool:
        return self.recurrence is not None


_PIVOT_ORDER = (1, 0, 2)  # prefer pinning stay, then up, then down

_Equation = tuple[int, tuple[int, int, int], int]


class _Column:
    """Exact Gaussian elimination on one column's 3-unknown system, fed one
    integer equation at a time.

    Besides its pivots the column keeps the original equation of each pivot
    row (at most 3): the tags of a conflict only ever name pivot rows and the
    failing row, so those equations are all a witness needs.  Once three
    pivots pin the solution p/s (Scaled), an equation is checked as
    a*p == b*s in ints.
    """

    __slots__ = ("pivots", "equations", "pinned")

    def __init__(self) -> None:
        self.pivots: list[tuple[int, list[Rational], Rational, frozenset[int]]] = []
        self.equations: list[_Equation] = []
        self.pinned: Optional[Scaled] = None

    def add(self, tag: int, a: tuple[int, int, int], b: int) -> Optional[frozenset[int]]:
        """Feed a*(up, stay, down) = b; None while the system stays
        consistent, else the tags of equations combining to 0 = nonzero."""
        pinned = self.pinned
        if pinned is not None:
            p, s = pinned
            if a[0] * p[0] + a[1] * p[1] + a[2] * p[2] == (b if s == 1 else b * s):
                return None  # reducing by all three pivots would leave 0 = b - a*solution
        coeffs = list(a)
        rhs = b
        tags = frozenset((tag,))
        for var, pc, pr, pt in self.pivots:
            factor = coeffs[var]
            if factor:
                coeffs = [c - factor * d for c, d in zip(coeffs, pc)]
                rhs -= factor * pr
                tags |= pt
        var = next((v for v in _PIVOT_ORDER if coeffs[v]), None)
        if var is None:
            return tags if rhs else None
        pivot = coeffs[var]
        self.pivots.append((var, [exact_div(c, pivot) for c in coeffs], exact_div(rhs, pivot), tags))
        self.equations.append((tag, a, b))
        if len(self.pivots) == 3:
            self.pinned = Scaled.of(self.solution())
        return None

    def solution(self) -> tuple[Rational, Rational, Rational]:
        """The solution with free unknowns set to 0."""
        solution: list[Rational] = [0] * 3
        for var, coeffs, rhs, _ in reversed(self.pivots):
            solution[var] = rhs - sum(
                coeffs[v] * solution[v] for v in range(3) if v != var
            )
        return (solution[0], solution[1], solution[2])


def _minimal_conflict(equations: Sequence[_Equation], tags: frozenset[int]) -> list[int]:
    by_tag = {eq[0]: eq for eq in equations}
    current = sorted(tags)

    def inconsistent(subset: Sequence[int]) -> bool:
        column = _Column()
        return any(column.add(*by_tag[t]) is not None for t in subset)

    # A superset of an inconsistent system is inconsistent, so a tag kept
    # once stays needed as others go: one deletion pass leaves a minimal set.
    for t in sorted(tags):
        trial = [x for x in current if x != t]
        if len(trial) >= 2 and inconsistent(trial):
            current = trial
    return current


def fit_banded(rows: RowSource) -> FitResult:
    """Decide whether time-independent banded weights reproduce the triangle.

    rows is a RowSource of rows 0..N, read once through checked_rows and
    never held whole.  Column k's update equations, one per row pair (n, n+1)
    for n >= k-1, are solved exactly for the three weights touching that
    column; every column takes its equation from each row pair as it passes,
    until a column at or below it has turned inconsistent.  The rows are read
    as Scaled vectors and each row pair's equations are multiplied by the
    pair's common denominator, so that a rational triangle is checked in
    integers; only the fitted weights are built as reduced values.
    Underdetermined columns take the minimal-support solution (down weight 0
    first, then up).  Consistent columns are a fit: column k's equation for
    (n, n+1) is entry k of the banded step of row n, scaled by the pair's
    common denominator, every weight the step reads is solved in exactly one
    column, and those the fit drops (up[-1], stay[N], down[N], down[N+1])
    multiply only zeros outside the triangle, so each row is the step of the
    one before.  Otherwise the smallest inconsistent column is reported with
    a minimal inconsistent equation set as its witness.
    """
    n_max = len(rows) - 1
    if n_max < 4:
        raise ValueError("need rows 0..4 at least to overdetermine the fit")
    stream = checked_rows(rows)
    row, d = next(stream)
    if row[0] != d:
        raise ValueError("fit requires the seed entry 1 at (0, 0)")
    columns = [_Column()]
    fed = n_max + 1  # columns below this one still take equations
    witness: tuple[tuple[int, int], ...] = ()  # of column fed, once one fails
    for n, (nxt, e) in enumerate(stream):
        # Rows n and n+1 are row/d and nxt/e: times lcm(d, e), the pair's
        # equations hold in integers.
        rhs = nxt
        g = gcd(d, e)
        if e != g:
            row = [e // g * v for v in row]
        if d != g:
            rhs = [d // g * v for v in nxt]
        # Unknowns per column k: (up[k-1], stay[k], down[k+1]); entry j + 1
        # of padded is c[n][j], zero outside the triangle.
        padded = (0, *row, 0, 0)
        columns.append(_Column())
        for k in range(min(n + 2, fed)):
            a = padded[k : k + 3]
            column = columns[k]
            tags = column.add(n, a, rhs[k])
            if tags is not None:
                conflict = _minimal_conflict([*column.equations, (n, a, rhs[k])], tags)
                fed, witness = k, tuple((m, k) for m in conflict)
                break
        row, d = nxt, e
    if witness:
        return FitResult(None, column=fed, witness=witness)
    up: list[Rational] = [0] * n_max
    stay: list[Rational] = [0] * n_max
    down: list[Rational] = [0] * n_max
    for k, column in enumerate(columns):
        up_km1, stay_k, down_kp1 = column.solution()
        if 1 <= k:
            up[k - 1] = up_km1
        if k <= n_max - 1:
            stay[k] = stay_k
        if k + 1 <= n_max - 1:
            down[k + 1] = down_kp1
    return FitResult(BandedRecurrence(tuple(up), tuple(stay), tuple(down)))


def convolve_fibonomial(
    a: Sequence[Rational], b: Sequence[Rational], upto: int
) -> tuple[Rational, ...]:
    """Weighted convolution c_n = sum_k fibonomial(n, k) * a_k * b_{n-k}.

    Both sequences must cover indices 0..upto.  Bilinear and commutative by
    the symmetry of the weights, which come one row at a time from the
    fibonomial row recurrence.
    """
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if len(a) < upto + 1 or len(b) < upto + 1:
        raise ValueError(f"sequences must cover indices 0..{upto}")
    av = [as_exact(v) for v in a[: upto + 1]]
    bv = [as_exact(v) for v in b[: upto + 1]]
    out = []
    for n, weights in enumerate(fibonomial_rows(upto)):
        total = 0
        for k, w in enumerate(weights):
            if av[k] and bv[n - k]:
                total += w * av[k] * bv[n - k]
        out.append(as_exact(total))
    return tuple(out)
