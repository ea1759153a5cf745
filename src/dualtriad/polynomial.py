"""Dense polynomials over the rationals, and the row expansion of
verify_triad's brute scan, first_residual.  A command expands rows, and
loads this module, only when its verify fails, to report the first failing
row."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence

from .exact import Rational, Scaled, as_exact, exact_div, format_exact


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
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        if not self.coeffs or not coerced.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(coerced.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(coerced.coeffs):
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


def linear_combination(coeffs: Sequence[Rational], polys: Sequence[Polynomial]) -> Polynomial:
    """Exact sum of coeffs[j] * polys[j]; the lists must have equal length."""
    if len(coeffs) != len(polys):
        raise ValueError(f"{len(coeffs)} coefficients given for {len(polys)} polynomials")
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


def first_residual(
    pairs: Iterable[tuple[Scaled, Optional[Polynomial]]], start: int, duals: Iterable[Sequence[Rational]]
) -> Optional[tuple[int, Polynomial]]:
    """Expand rows start, start + 1, ... in their phis, one pass, and return
    the first row n whose residual sum_k c[n][k] * phi_k - x^n is not zero,
    as (n, residual); None when every row holds.

    pairs yields (row n as a Scaled vector, phi_n or None) from row start on.
    duals yields the coefficients of phi_0, phi_1, ...: phi_0..phi_{start-1}
    are read from it, and so is every phi_n that pairs leaves None.  The
    phis read so far are held.
    """
    duals = map(Polynomial, duals)
    seen = list(islice(duals, start))
    for n, (row, phi) in enumerate(pairs, start):
        seen.append(next(duals) if phi is None else phi)
        residual = linear_combination(row.values(), seen) - Polynomial.monomial(n)
        if residual:
            return n, residual
    return None
