"""Exact scalars, univariate polynomials and unit-triangular solves.

A scalar is an int when integral, a Fraction otherwise: both are arbitrary
precision, Fraction keeps every value in lowest terms with a positive
denominator, and an integral value is never held as a Fraction.  Python's
int arithmetic is native while every Fraction operation pays for a gcd, so
the integer families never touch Fraction at all.  Floats are rejected so
nothing silently leaves exact arithmetic.

Two rules keep the representation: values are stored through as_exact, and
every division goes through exact_div (int / int would give a float).  A
caller that knows a quotient's terms coprime builds it with coprime_fraction,
which skips the gcd that exact_div pays.

A vector of scalars has a second form, Scaled: integers over one positive
denominator.  The proofs that print no value (the triad certificate and the
banded fit) run on that form in native int arithmetic and reduce once per
vector, in the Scaled constructor, instead of once per operation; an integer
vector has denominator 1 and is never reduced.  Scaled.values gives reduced
scalars back where a value leaves those proofs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def as_exact(value: Rational) -> Rational:
    """An int for an int or integral Fraction, the Fraction otherwise; refuse
    anything inexact.  A bool becomes the int 0 or 1."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(
        f"exact arithmetic accepts int or Fraction, got {type(value).__name__}"
    )


def exact_div(a: Rational, b: Rational) -> Rational:
    """a / b as an int when the quotient is integral, a Fraction otherwise.

    Both operands must already be exact; b == 0 raises ZeroDivisionError.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_exact(a / b)


def coprime_fraction(num: int, den: int) -> Fraction:
    """num/den as a Fraction, with no gcd: num and den must be coprime and
    den > 1, which the caller knows.  Fraction(num, den) would spend a gcd
    of their full size to find that out.  The terms are stored in
    Fraction's own slots, as its _from_coprime_ints does from 3.12 on."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = num, den
    return value


class Scaled(tuple):
    """A vector of exact values as integers over one denominator.

    Scaled(nums, den) is the vector nums[i] / den, held as the pair
    (nums, den) content-reduced: den > 0 and gcd(den, *nums) == 1.  Each
    vector of values has one such form, so two Scaled vectors are equal
    exactly when their values are, and comparing them is a tuple
    comparison.  With den 1 the constructor does no gcd and no division.
    """

    __slots__ = ()

    def __new__(cls, nums: Iterable[int], den: int = 1) -> "Scaled":
        nums = tuple(nums)
        if den != 1:
            if not den:
                raise ZeroDivisionError("Scaled vector over denominator 0")
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = tuple([v // g for v in nums])
                den //= g
        return tuple.__new__(cls, (nums, den))

    def __getnewargs__(self) -> tuple[tuple[int, ...], int]:
        # copy and pickle rebuild through __new__(cls, *args): pass nums and
        # den, not the pair as one argument.
        return tuple(self)

    @classmethod
    def of(cls, values: Iterable[Rational]) -> "Scaled":
        """The Scaled form of exact values, each passed through as_exact."""
        vals = [as_exact(v) for v in values]
        # as_exact leaves an int or a Fraction with denominator above 1.
        dens = [v.denominator for v in vals if type(v) is not int]
        if not dens:
            return tuple.__new__(cls, (tuple(vals), 1))
        den = lcm(*dens)
        # Over the least common denominator the content is already 1.
        return tuple.__new__(cls, (tuple([v.numerator * (den // v.denominator) for v in vals]), den))

    def values(self) -> tuple[Rational, ...]:
        """The values, each an int or a reduced Fraction as as_exact gives."""
        nums, den = self
        if den == 1:
            return nums
        return tuple([as_exact(Fraction(v, den)) for v in nums])


_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS
_EXACT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def _int_str(n: int) -> str:
    # str() refuses ints longer than sys.get_int_max_str_digits(); past that
    # the digits are produced in blocks small enough to stay under it.
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    blocks = []
    while n:
        n, low = divmod(n, _CHUNK)
        blocks.append(low)
    head, *rest = reversed(blocks)
    return sign + str(head) + "".join(str(b).zfill(_CHUNK_DIGITS) for b in rest)


def format_exact(value: Rational) -> str:
    """Render as 'p' or 'p/q' in lowest terms with a positive denominator,
    however many digits p and q have."""
    v = as_exact(value)
    if type(v) is int:
        return _int_str(v)
    return f"{_int_str(v.numerator)}/{_int_str(v.denominator)}"


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


class Polynomial:
    """Dense polynomial in one indeterminate x over the rationals.

    Coefficients are stored ascending in the power of x with trailing zeros
    trimmed, so equality is plain coefficient-wise comparison.  The zero
    polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()) -> None:
        cs = [as_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rational, ...] = tuple(cs)

    @classmethod
    def monomial(cls, power: int, coeff: Rational = 1) -> "Polynomial":
        """coeff * x**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Rational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Rational:
        """Coefficient of x**power (0 beyond the degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    @staticmethod
    def _coerce(value: object) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial((value,))
        return None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.coeffs == coerced.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: object) -> "Polynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        a, b = self.coeffs, coerced.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, v in enumerate(b):
            out[j] += v
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "Polynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.__add__(-coerced)

    def __rsub__(self, other: object) -> "Polynomial":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced.__add__(-self)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            f = as_exact(other)
            return Polynomial(tuple(c * f for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> "Polynomial":
        f = as_exact(scalar)
        if f == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Polynomial(tuple(exact_div(c, f) for c in self.coeffs))

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers")
        result = Polynomial((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, point: Rational) -> Rational:
        """Evaluate at an exact point (Horner)."""
        x = as_exact(point)
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return as_exact(total)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = format_exact(mag)
            else:
                xpart = "x" if power == 1 else f"x^{power}"
                body = xpart if mag == 1 else f"{format_exact(mag)}*{xpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


X = Polynomial((0, 1))


def linear_combination(
    coeffs: Sequence[Rational], polys: Sequence[Polynomial]
) -> Polynomial:
    """Exact sum of coeffs[j] * polys[j]; the lists must have equal length."""
    if len(coeffs) != len(polys):
        raise ValueError(
            f"{len(coeffs)} coefficients given for {len(polys)} polynomials"
        )
    acc: list[Rational] = []
    for c, p in zip(coeffs, polys):
        cf = as_exact(c)
        if cf == 0 or not p:
            continue
        if len(p.coeffs) > len(acc):
            acc.extend([0] * (len(p.coeffs) - len(acc)))
        for j, pj in enumerate(p.coeffs):
            acc[j] += cf * pj
    return Polynomial(acc)


def forward_substitute(
    pairs: Iterable[tuple[Sequence[Rational], Sequence[Rational]]]
) -> list[tuple[Rational, ...]]:
    """Rows Y with L Y = R for a unit lower-triangular L, by forward substitution.

    pairs yields (row i of L, row i of R), read once; row i of Y is row i of R
    minus L[i][j] * Y[j] summed over j < i.  L's diagonal is taken to be 1 and
    never read, nor is anything above it; no Y[j] may be wider than R's row i.
    """
    out: list[tuple[Rational, ...]] = []
    for i, (row, rhs) in enumerate(pairs):
        acc = list(rhs)
        for j in range(i):
            c = row[j]
            if c:
                for k, v in enumerate(out[j]):
                    acc[k] -= c * v
        out.append(tuple(acc))
    return out


def solve_unit_lower(
    matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> tuple[Rational, ...]:
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
