"""Fibonacci numbers, root sequences, and the rows of the Pascal-like
triangles whose weights depend on the row index.

pascal_like_rows builds the fibonomial, stirling1 and eulerian triangles
from one row recurrence, and the numerators of the inverse of the
q-binomial triangle, which q_binomial_inverse_rows puts over their known
denominators.  The closed forms the tests check these rows against
(binomial, q_binomial, fibonomial, catalan_entry, stirling_first, ...) live
in reference.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from . import _forward
from ._record import Frozen
from .exact import Rational, Scaled, as_exact, coprime_fraction

# Only perfbench/tracing.py reads these names here; they go once it wraps each at its home.
__getattr__ = _forward(__name__, reference="binomial q_int q_factorial q_binomial fibonomial "
                                           "catalan_entry stirling_first eulerian")


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0 and F_1 = F_2 = 1."""
    if n < 0:
        raise ValueError("fibonacci index must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def pascal_like_rows(
    rows: int, left: Callable[[int], Sequence[int]], right: Callable[[int], Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the triangle c(n+1, k) = left(n)[k] * c(n, k-1) +
    right(n)[k] * c(n, k), k = 0..n+1, from c(0, 0) = 1, one at a time.

    left(n) and right(n) give row n's weights for k = 0..n+1; entries outside
    the triangle read as 0, so left(n)[0] and right(n)[n+1] multiply nothing.
    Weights of any other length raise ValueError, naming row n and the
    side, as row n + 1 is made, so row n has n + 1 entries.  Only the
    previous row is held.
    """
    row: tuple[int, ...] = (1,)
    yield row
    for n in range(rows):
        lefts, rights = left(n), right(n)
        for side, weights in ("left", lefts), ("right", rights):
            if len(weights) != n + 2:
                raise ValueError(f"row {n}: {len(weights)} {side} weights, expected {n + 2}")
        # Entry k of (0, *row) is c(n, k-1) and of (*row, 0) is c(n, k).
        row = tuple(a * u + b * v for a, u, b, v in zip(lefts, (0, *row), rights, (*row, 0)))
        yield row


def q_binomial_inverse_rows(q: Rational, rows: int) -> Iterator[tuple[Rational, ...]]:
    """Rows 0..rows of C^-1 for the q-binomial C, one at a time: the
    coefficients of phi_n = (x - 1)(x - q)...(x - q^(n-1)).  By Gauss's
    q-binomial theorem coefficient k is (-1)^j * q^(j(j-1)/2) * [n k]_q, with
    j = n - k.

    For q = a/b in lowest terms, coefficient k of row n is c(n, k) over
    b^((n-k)(n+k-1)/2), where c is pascal_like_rows with left weight
    b^(n+1-k) and right weight -a^n.  Modulo b, c(n, k) is -a^(n-1) times
    c(n-1, k) for k < n, and c(n, n) = 1, so c(n, k) is coprime to b: each
    value is in lowest terms as it stands and is built without a gcd.  An
    integer q gives ints alone.  The arguments are checked here, before the
    first row.
    """
    q = as_exact(q)
    if q == 0:
        raise ValueError("geometric ratio must be nonzero")
    if rows < 0:
        raise ValueError("count must be nonnegative")
    a, b = q.numerator, q.denominator
    powers = [b**i for i in range(rows + 1)]
    nums = pascal_like_rows(rows, lambda n: powers[n + 1 :: -1], lambda n: (-a**n,) * (n + 2))
    if b == 1:
        return nums

    def over_denominators(row: tuple[int, ...]) -> tuple[Rational, ...]:
        # Coefficient n is 1, and the denominator of coefficient k is that
        # of coefficient k + 1 times b^k; it is 1 only in row 1.
        out: list[Rational] = list(row)
        den = 1
        for k in range(len(row) - 2, -1, -1):
            den *= powers[k]
            if den != 1:
                out[k] = coprime_fraction(row[k], den)
        return tuple(out)

    return map(over_denominators, nums)


def fibonomial_rows(rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the fibonomial triangle: left weight F_{n-k} (1 at
    k = n+1, where F_{-1} = 1) and right weight F_{k+1}."""
    fibs = [fibonacci(i) for i in range(rows + 2)]
    return pascal_like_rows(rows, lambda n: (*fibs[n::-1], 1), lambda n: fibs[1 : n + 3])


def fibonomial_inverse_rows(rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of C^-1 for the fibonomial C: w_{n-k} * C[n][k], where w_0 = 1
    and w_n = -sum_{i<n} C[n][i] * w_i, as for any generalized binomial coefficients."""
    w: list[int] = []
    for n, row in enumerate(fibonomial_rows(rows)):
        w.append(-sum(c * v for c, v in zip(row, w)) if n else 1)
        yield tuple(w[n - k] * c for k, c in enumerate(row))


def fibonomial_step_rows(rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the fibonomial F (C F = E C), in one pass over C: F[n][l] = C[n][l-1] * g_{n-l+1},
    plus F_{n+1} at l = n, from C[j+1][l] = F_{j-l} * C[j][l-1] + F_{l+1} * C[j][l] and [n j][j l-1] =
    [n l-1][n-l+1 j-l+1].  Column 1 of C F = E C fixes g as column 0 of C C^-1 = I fixes w: sum_{k<=n}
    C[n][k] * g_k = C[n+1][1] - C[n][1] = F_{n-1}, with F_{-1} = 1."""
    fibs = [fibonacci(i) for i in range(rows + 2)]
    shifted, g = (1, *fibs), []
    for n, row in enumerate(fibonomial_rows(rows)):
        g.append(shifted[n] - sum(c * v for c, v in zip(row, g)))
        step = [0, *[c * g[n - k] for k, c in enumerate(row)]]
        step[n] += fibs[n + 1]
        yield tuple(step)


def fibonomial_proof(rows: Iterable[Scaled], phis: Iterable[Sequence[Rational]], count: int) -> bool:
    """Whether rows 0..count, Scaled vectors of widths 1..count + 1, are the
    fibonomial triangle C and phis the rows of C^-1, in O(N^2) exact
    multiplications.

    Row n is C's when its entries are integers with c[n][0] = 1 and
    c[n][k] * F_k = c[n][k-1] * F_{n-k+1} for k = 1..n, the closed form
    F_n...F_{n-k+1} / (F_1...F_k).  For such coefficients C^-1 = w o C, whose
    entry (n, k) is w_{n-k} * C[n][k], exactly when the w_n = phi_n[0] satisfy
    sum_{k<=n} C[n][k] * w_k = [n = 0]: [n k][k m] = [n m][n-m k-m] gives
    sum_k C[n][k] * w_{k-m} * C[k][m] = C[n][m] * sum_i C[n-m][i] * w_i.  So
    phi_n must be row n of w o C.  The streams are read in lockstep and must
    be equally long.
    """
    fibs = [fibonacci(i) for i in range(count + 2)]
    w: list[Rational] = []
    for n, ((row, den), phi) in enumerate(zip(rows, phis, strict=True)):
        if den != 1 or row[0] != 1:
            return False
        for k in range(1, n + 1):
            if row[k] * fibs[k] != row[k - 1] * fibs[n - k + 1]:
                return False
        w.append(phi[0])
        if sum(c * v for c, v in zip(row, w)) != (n == 0):
            return False
        if tuple(phi) != tuple([w[n - k] * c for k, c in enumerate(row)]):
            return False
    return True


def stirling_first_proof(rows: Iterable[Scaled], phis: Iterable[Sequence[Rational]],
                         duals: Iterable[tuple[int, ...]], lah_rows: Iterable[Scaled]) -> bool:
    """Whether rows are the stirling1 triangle S and phis its phi, given the
    duals and the rows L of the lah triad with roots 0, -1, -2, ..., each made
    by that triad's recurrence; O(N^2) exact comparisons.

    The banded certificate proves x^n = sum_k L[n][k] * dual_k(x) for the
    lah triad, so L times the triangle of the duals' coefficients is I.  Row
    n must be dual n's coefficients, x(x + 1)...(x + n - 1), and phi_n row n
    of L.  Then L S = I, so S L = I for these unit lower triangles, which is
    x^n = sum_k S[n][k] * phi_k(x).  The streams are read in lockstep and
    must be equally long.
    """
    for row, phi, dual, lah in zip(rows, phis, duals, lah_rows, strict=True):
        if row != (dual, 1) or lah != (tuple(phi), 1):
            return False
    return True


def stirling_first_rows(rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the unsigned Stirling numbers of the first kind:
    left weight 1, right weight n."""
    return pascal_like_rows(rows, lambda n: (1,) * (n + 2), lambda n: (n,) * (n + 2))


def stirling_first_step_rows(rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the stirling1 F with C F = E C: F[n][l] = binom(n, l-1),
    Pascal's rows moved one column right, the production matrix of the
    exponential Riordan array [1, -ln(1-x)] (Deutsch, Ferrari and Rinaldi, 2005)."""
    return ((0, *row) for row in pascal_like_rows(rows, lambda n: (1,) * (n + 2), lambda n: (1,) * (n + 2)))


def eulerian_rows(rows: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..rows of the Eulerian numbers: left weight n+1-k, right weight
    k+1."""
    return pascal_like_rows(rows, lambda n: range(n + 1, -1, -1), lambda n: range(1, n + 3))


class RootSequence(Frozen):
    """Level-indexed roots r_1, r_2, ... produced by a simple rule.

    Rules: constant value, arithmetic progression, geometric progression, or
    an explicit finite list (which errors past its end).
    """

    __slots__ = ("rule", "data")
    rule: str
    data: tuple[Rational, ...]

    @classmethod
    def constant(cls, value: Rational) -> "RootSequence":
        return cls("constant", (as_exact(value),))

    @classmethod
    def arithmetic(cls, start: Rational = 0, step: Rational = 1) -> "RootSequence":
        """r_s = start + (s - 1) * step; the default gives 0, 1, 2, ..."""
        return cls("arithmetic", (as_exact(start), as_exact(step)))

    @classmethod
    def geometric(cls, ratio: Rational, first: Rational = 1) -> "RootSequence":
        """r_s = first * ratio**(s - 1); the default gives 1, q, q^2, ..."""
        r = as_exact(ratio)
        if r == 0:
            raise ValueError("geometric ratio must be nonzero")
        return cls("geometric", (as_exact(first), r))

    @classmethod
    def explicit(cls, values) -> "RootSequence":
        return cls("explicit", tuple(as_exact(v) for v in values))

    def value(self, level: int) -> Rational:
        """Root r_level; levels are indexed from 1."""
        if level < 1:
            raise ValueError("root levels are indexed from 1")
        if self.rule == "constant":
            return self.data[0]
        if self.rule == "arithmetic":
            return as_exact(self.data[0] + (level - 1) * self.data[1])
        if self.rule == "geometric":
            return as_exact(self.data[0] * self.data[1] ** (level - 1))
        if self.rule == "explicit":
            if level > len(self.data):
                raise ValueError(
                    f"explicit root sequence has only {len(self.data)} levels"
                )
            return self.data[level - 1]
        raise ValueError(f"unknown root rule {self.rule!r}")

    def prefix(self, count: int) -> tuple[Rational, ...]:
        """Roots r_1..r_count."""
        return tuple(self.value(s) for s in range(1, count + 1))
