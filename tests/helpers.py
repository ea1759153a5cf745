"""Independent oracles and small utilities shared by the test modules.

Everything here deliberately recomputes values along a different route than
the library: recursive definitions instead of iterative ones, raw coefficient
lists instead of Polynomial, brute-force enumeration instead of closed forms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from dualtriad.reference import Triangle


# Published triangle rows as printed in circulation.  The row-6 middle
# entries of the q = 3 and q = 5 tables are misprints (see the in-package
# misprint ledger): the recomputed values are 33880 and 2558556.
PUBLISHED_Q2_ROWS = (
    (1,),
    (1, 1),
    (1, 3, 1),
    (1, 7, 7, 1),
    (1, 15, 35, 15, 1),
    (1, 31, 155, 155, 31, 1),
    (1, 63, 651, 1395, 651, 63, 1),
)

PUBLISHED_Q3_ROWS = (
    (1,),
    (1, 1),
    (1, 4, 1),
    (1, 13, 13, 1),
    (1, 40, 130, 40, 1),
    (1, 121, 1210, 1210, 121, 1),
    (1, 364, 11011, 3388, 11011, 364, 1),
)

PUBLISHED_Q5_ROWS = (
    (1,),
    (1, 1),
    (1, 6, 1),
    (1, 31, 31, 1),
    (1, 156, 806, 156, 1),
    (1, 781, 20306, 20306, 781, 1),
    (1, 3906, 508431, 16401, 508431, 3906, 1),
)

PUBLISHED_CATALAN_SHIFTED_ROWS = (
    (1,),
    (0, 1),
    (0, 2, 1),
    (0, 5, 4, 1),
    (0, 14, 14, 6, 1),
    (0, 42, 48, 27, 8, 1),
)

PUBLISHED_FIBONOMIAL_ROWS = (
    (1,),
    (1, 1),
    (1, 1, 1),
    (1, 2, 2, 1),
    (1, 3, 6, 3, 1),
    (1, 5, 15, 15, 5, 1),
    (1, 8, 40, 60, 40, 8, 1),
)


@lru_cache(maxsize=None)
def fib_oracle(n: int) -> int:
    """Recursive Fibonacci, F_0 = 0, F_1 = F_2 = 1."""
    if n < 2:
        return n
    return fib_oracle(n - 1) + fib_oracle(n - 2)


def qint_oracle(n: int, q) -> Fraction:
    """q-integer as the literal power sum 1 + q + ... + q^(n-1)."""
    qf = Fraction(q)
    return sum((qf**i for i in range(n)), Fraction(0))


def qbinom_recurrence_rows(q, n_max: int) -> list[list[Fraction]]:
    """Gaussian-coefficient rows built purely from the additive recurrence
    (new entry = q^k * above + above-left), boundary column 1."""
    qf = Fraction(q)
    rows = [[Fraction(1)]]
    for n in range(n_max):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            above = prev[k] if k < len(prev) else Fraction(0)
            left = prev[k - 1] if 0 <= k - 1 < len(prev) else Fraction(0)
            row.append(qf**k * above + left)
        rows.append(row)
    return rows


def fibonomial_factorial_oracle(n: int, k: int) -> int:
    """Fibonomial via full Fibonacci factorials (not the falling product)."""
    if k < 0 or k > n or n < 0:
        return 0

    def ffact(m: int) -> int:
        out = 1
        for i in range(1, m + 1):
            out *= fib_oracle(i)
        return out

    value = Fraction(ffact(n), ffact(k) * ffact(n - k))
    assert value.denominator == 1
    return value.numerator


@lru_cache(maxsize=None)
def stirling1_oracle(n: int, k: int) -> int:
    """Unsigned first-kind Stirling number by memoized recursion."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k < 0 or k > n:
        return 0
    return stirling1_oracle(n - 1, k - 1) + (n - 1) * stirling1_oracle(n - 1, k)


@lru_cache(maxsize=None)
def eulerian_oracle(n: int, k: int) -> int:
    """Eulerian number by memoized recursion."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n:
        return 0
    return (k + 1) * eulerian_oracle(n - 1, k) + (n - k) * eulerian_oracle(n - 1, k - 1)


def set_partition_count(n: int, k: int) -> int:
    """Count partitions of an n-set into exactly k nonempty blocks by
    enumerating restricted-growth strings."""
    if n == 0:
        return 1 if k == 0 else 0

    count = 0

    def place(i: int, blocks_used: int) -> None:
        nonlocal count
        if i == n:
            if blocks_used == k:
                count += 1
            return
        for b in range(blocks_used):
            place(i + 1, blocks_used)
        place(i + 1, blocks_used + 1)

    place(0, 0)
    return count


def expand_product_oracle(roots) -> list[Fraction]:
    """Coefficients of prod (x - r) by repeated distribution on raw lists."""
    coeffs = [Fraction(1)]
    for r in roots:
        rf = Fraction(r)
        shifted = [Fraction(0)] + coeffs  # multiply by x
        scaled = [-rf * c for c in coeffs] + [Fraction(0)]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def brute_solve(matrix, rhs) -> list[Fraction]:
    """Dense Gaussian elimination with partial pivot, exact rationals."""
    n = len(rhs)
    aug = [
        [Fraction(matrix[i][j]) if j < len(matrix[i]) else Fraction(0) for j in range(n)]
        + [Fraction(rhs[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


class Passes:
    """A sized source that counts the passes made over the source it wraps."""

    def __init__(self, source) -> None:
        self.source, self.count = source, 0

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self):
        self.count += 1
        return iter(self.source)


def random_unipotent_rows(rng: random.Random, n_max: int, lo: int = -9, hi: int = 9):
    """Rows of a random unipotent integer triangle."""
    rows = []
    for n in range(n_max + 1):
        row = [Fraction(rng.randint(lo, hi)) for _ in range(n)] + [Fraction(1)]
        rows.append(tuple(row))
    return tuple(rows)


def random_unipotent_triangle(rng: random.Random, n_max: int, lo: int = -9, hi: int = 9) -> Triangle:
    return Triangle(random_unipotent_rows(rng, n_max, lo, hi), family="random")


def triangle_times_step(tri_rows, step_rows) -> list[list[Fraction]]:
    """Row-by-row product of a triangular-ish matrix with a lower-Hessenberg
    step matrix, computed by the definition (plain triple loop).  A row with
    entries 0..m can reach column m+1, hence the +1 output width."""
    out = []
    for crow in tri_rows:
        acc = [Fraction(0)] * (len(crow) + 1)
        for k, c in enumerate(crow):
            if c:
                for j, f in enumerate(step_rows[k]):
                    acc[j] += c * f
        out.append(acc)
    return out


# --- the collecting routes that streamed fit and verify replaced -------------

_PIVOT_ORDER = (1, 0, 2)


def _reference_eliminate(equations):
    """Gaussian elimination over one column's whole equation list; returns
    (solution, None) or (None, tags of the equations combining to 0 = b)."""
    pivots = []
    for tag, a, b in equations:
        coeffs = [Fraction(v) for v in a]
        rhs = Fraction(b)
        tags = frozenset((tag,))
        for var, pc, pr, pt in pivots:
            factor = coeffs[var]
            if factor:
                coeffs = [c - factor * d for c, d in zip(coeffs, pc)]
                rhs -= factor * pr
                tags |= pt
        var = next((v for v in _PIVOT_ORDER if coeffs[v]), None)
        if var is None:
            if rhs:
                return None, tags
            continue
        pivot = coeffs[var]
        pivots.append((var, [c / pivot for c in coeffs], rhs / pivot, tags))
    solution = [Fraction(0)] * 3
    for var, coeffs, rhs, _ in reversed(pivots):
        solution[var] = rhs - sum(coeffs[v] * solution[v] for v in range(3) if v != var)
    return tuple(solution), None


def reference_fit(tri: Triangle):
    """The banded fit column by column over the whole triangle: column k
    collects all its equations, is solved, and the first inconsistent column
    stops the scan.  Returns (column, witness, (up, stay, down)) with column
    and witness None and () on a fit, weights None otherwise."""
    n_max = tri.max_row
    up, stay, down = ([Fraction(0)] * n_max for _ in range(3))
    for k in range(n_max + 1):
        eqs = [(n, (tri.entry(n, k - 1), tri.entry(n, k), tri.entry(n, k + 1)), tri.entry(n + 1, k))
               for n in range(max(k - 1, 0), n_max)]
        solution, tags = _reference_eliminate(eqs)
        if solution is None:
            by_tag = {tag: (tag, a, b) for tag, a, b in eqs}
            current = sorted(tags)
            changed = True
            while changed:
                changed = False
                for t in list(current):
                    trial = [x for x in current if x != t]
                    if len(trial) >= 2 and _reference_eliminate([by_tag[x] for x in trial])[0] is None:
                        current, changed = trial, True
                        break
            return k, tuple((n, k) for n in current), None
        if k >= 1:
            up[k - 1] = solution[0]
        if k <= n_max - 1:
            stay[k] = solution[1]
        if k + 1 <= n_max - 1:
            down[k + 1] = solution[2]
    return None, (), (tuple(up), tuple(stay), tuple(down))


def reference_verify(rows, phis):
    """First n with sum_k c[n][k] phi_k != x^n, and that residual's raw
    coefficient list (None, None when every row holds), by plain loops."""
    for n, row in enumerate(rows):
        acc = [Fraction(0)] * (n + 1)
        for c, phi in zip(row, phis):
            for j, p in enumerate(phi.coeffs):
                if j >= len(acc):
                    acc.extend([Fraction(0)] * (j + 1 - len(acc)))
                acc[j] += c * p
        acc[n] -= 1
        while acc and not acc[-1]:
            acc.pop()
        if acc:
            return n, acc
    return None, None
