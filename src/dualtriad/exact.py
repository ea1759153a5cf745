"""Exact scalars and their decimal strings.

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
scalars back where a value leaves those proofs.  Polynomials live in
polynomial, parsing and the dense solves in reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from . import _forward

Rational = Union[int, Fraction]
# Only perfbench/tracing.py reads these names here; they go once it wraps each at its home.
__getattr__ = _forward(__name__, polynomial="Polynomial linear_combination")


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
        den = lcm(*[v.denominator for v in vals if type(v) is not int])
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
