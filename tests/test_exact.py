"""Polynomial arithmetic and the unipotent triangular solve."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtriad.polynomial import Polynomial, X, linear_combination
from dualtriad.reference import solve_unit_lower

from helpers import brute_solve, expand_product_oracle, random_unipotent_rows
import random

fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)
poly_st = st.builds(Polynomial, st.lists(fractions_st, max_size=9))


class TestPolynomial:
    def test_mul_two_linear_factors(self):
        assert Polynomial((-1, 1)) * Polynomial((-2, 1)) == Polynomial((2, -3, 1))

    def test_mul_identity(self):
        p = Polynomial((3, 0, Fraction(1, 2)))
        assert p * Polynomial((1,)) == p

    def test_mul_three_factors_against_distribution_oracle(self):
        # prod (x - r) for r in (1, 2, 4), expanded by repeated distribution
        expected = expand_product_oracle([1, 2, 4])
        assert expected == [Fraction(-8), Fraction(14), Fraction(-7), Fraction(1)]
        product = Polynomial((-1, 1)) * Polynomial((-2, 1)) * Polynomial((-4, 1))
        assert product == Polynomial(expected)

    def test_zero_polynomial_degree_sentinel(self):
        assert Polynomial().degree == -1
        assert Polynomial((0, 0, 0)).degree == -1
        assert not Polynomial((0,))

    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))

    def test_monomial_and_x(self):
        assert Polynomial.monomial(3) == X**3
        assert Polynomial.monomial(0, 5) == 5
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((0.5, 1))
        with pytest.raises(TypeError):
            X * 0.5

    def test_scalar_arithmetic(self):
        p = (X - 1) * (X - 2)
        assert p / 2 == Polynomial((1, Fraction(-3, 2), Fraction(1, 2)))
        assert 2 * p == Polynomial((4, -6, 2))
        for scalar, coeffs in ((3, (6, -9, 3)), (Fraction(-3, 2), (-3, Fraction(9, 2), Fraction(-3, 2))),
                               (Fraction(4, 2), (4, -6, 2)), (True, (2, -3, 1)), (0, ())):
            for product in (p * scalar, scalar * p):
                assert product.coeffs == coeffs
                assert [type(c) for c in product.coeffs] == [type(c) for c in coeffs]
        assert p + 1 == Polynomial((3, -3, 1))
        with pytest.raises(ZeroDivisionError):
            p / 0

    def test_evaluation(self):
        p = (X - 1) * (X - 2) * (X - 4)
        assert p(1) == 0 and p(2) == 0 and p(4) == 0
        assert p(0) == -8
        assert p(Fraction(1, 2)) == Fraction(-21, 8)

    def test_str(self):
        assert str(Polynomial()) == "0"
        assert str(X - 1) == "x - 1"
        assert str((X - 1) * (X - 2) * (X - 4)) == "x^3 - 7*x^2 + 14*x - 8"
        assert str(Polynomial((Fraction(1, 2), 0, -2))) == "-2*x^2 + 1/2"

    def test_coefficient_accessor(self):
        p = Polynomial((5, 0, 7))
        assert p.coefficient(0) == 5
        assert p.coefficient(2) == 7
        assert p.coefficient(9) == 0
        assert p.leading == 7
        with pytest.raises(ValueError):
            Polynomial().leading

    @given(a=poly_st, b=poly_st, c=poly_st)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c

    @given(a=poly_st, b=poly_st)
    @settings(max_examples=60, deadline=None)
    def test_degree_of_product(self, a, b):
        if a and b:
            assert (a * b).degree == a.degree + b.degree
        else:
            assert (a * b).degree == -1

    @given(a=poly_st, b=poly_st, t=fractions_st)
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_a_homomorphism(self, a, b, t):
        assert (a * b)(t) == a(t) * b(t)
        assert (a + b)(t) == a(t) + b(t)

    @given(a=poly_st, b=poly_st)
    @settings(max_examples=40, deadline=None)
    def test_coefficients_stay_canonical(self, a, b):
        # Fraction guarantees lowest terms and positive denominator; make sure
        # nothing in our arithmetic path breaks that.
        from math import gcd

        for c in (a * b + a - b).coeffs:
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1


class TestLinearCombination:
    def test_single_constant(self):
        assert linear_combination([1], [Polynomial((1,))]) == 1

    def test_row_reassembles_monomial(self):
        # coefficients 1, 3, 1 against 1, x-1, (x-1)(x-2)
        polys = [Polynomial((1,)), X - 1, (X - 1) * (X - 2)]
        assert linear_combination([1, 3, 1], polys) == X**2

    def test_zero_coefficients(self):
        assert linear_combination([0, 0], [X, X**2]) == Polynomial()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_combination([1, 2], [X])


class TestSolveUnitLower:
    def test_identity(self):
        rhs = (Fraction(3), Fraction(-1), Fraction(7))
        assert solve_unit_lower([[1], [0, 1], [0, 0, 1]], rhs) == rhs

    def test_two_by_two(self):
        assert solve_unit_lower([[1], [1, 1]], (1, 3)) == (1, 2)

    def test_pascal_column_of_inverse(self):
        pascal = [[1], [1, 1], [1, 2, 1]]
        expected = brute_solve(pascal, (1, 0, 0))
        assert expected == [1, -1, 1]
        assert solve_unit_lower(pascal, (1, 0, 0)) == (1, -1, 1)

    def test_full_width_rows_accepted(self):
        assert solve_unit_lower([[1, 0], [5, 1]], (2, 3)) == (2, -7)

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(ValueError):
            solve_unit_lower([[1], [0, 2]], (1, 1))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_unit_lower([[1]], (1, 2))

    def test_multiply_back_random_unipotent(self):
        rng = random.Random(20240811)
        for _ in range(25):
            n = rng.randint(1, 16)
            rows = random_unipotent_rows(rng, n - 1)
            rhs = tuple(Fraction(rng.randint(-99, 99)) for _ in range(n))
            y = solve_unit_lower(rows, rhs)
            back = tuple(
                sum((rows[i][j] * y[j] for j in range(i + 1)), Fraction(0))
                for i in range(n)
            )
            assert back == rhs
