"""Closed-form scalar sequences and the Pascal-like row kernel against
independent oracles and published rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtriad.reference import (
    binomial,
    catalan_entry,
    eulerian,
    fibonomial,
    q_binomial,
    q_factorial,
    q_int,
    stirling_first,
)
from dualtriad.sequences import (
    RootSequence,
    eulerian_rows,
    fibonacci,
    fibonomial_rows,
    pascal_like_rows,
    stirling_first_rows,
)

from helpers import (
    eulerian_oracle,
    fib_oracle,
    fibonomial_factorial_oracle,
    qbinom_recurrence_rows,
    qint_oracle,
    stirling1_oracle,
)

class TestFibonacci:
    def test_base_cases(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1

    def test_small_values(self):
        assert fibonacci(7) == 13
        assert fibonacci(10) == 55

    def test_against_recursive_oracle(self):
        for n in range(40):
            assert fibonacci(n) == fib_oracle(n)

    def test_cassini_identity(self):
        for n in range(65):
            lhs = fibonacci(n) * fibonacci(n + 2) - fibonacci(n + 1) ** 2
            assert lhs == (-1) ** (n + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci(-1)


class TestQInt:
    def test_zero(self):
        assert q_int(0, 2) == 0
        assert q_int(0, Fraction(7, 3)) == 0

    def test_power_sum_oracle(self):
        assert qint_oracle(4, 2) == 15
        assert q_int(4, 2) == 15
        for n in range(9):
            for q in (2, 3, 5, Fraction(1, 2), Fraction(-3, 7)):
                assert q_int(n, q) == qint_oracle(n, q)

    def test_classical_limit(self):
        assert q_int(3, 1) == 3
        assert q_int(12, 1) == 12

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            q_int(3, 0)

    def test_factorial(self):
        assert q_factorial(0, 2) == 1
        assert q_factorial(4, 2) == 1 * 3 * 7 * 15


class TestQBinomial:
    def test_published_values(self):
        assert q_binomial(4, 2, 2) == 35
        assert q_binomial(3, 1, 5) == 31

    def test_recurrence_oracle_row6_q3(self):
        # The factorial formula against a triangle built purely from the
        # additive recurrence; this pins the corrected row-6 middle entries.
        rows = qbinom_recurrence_rows(3, 6)
        assert rows[6][3] == 33880
        assert q_binomial(6, 3, 3) == 33880
        rows5 = qbinom_recurrence_rows(5, 6)
        assert rows5[6][3] == 2558556
        assert q_binomial(6, 3, 5) == 2558556

    def test_matches_recurrence_everywhere(self):
        for q in (2, 3, 5, Fraction(1, 2)):
            rows = qbinom_recurrence_rows(q, 12)
            for n in range(13):
                for k in range(n + 1):
                    assert q_binomial(n, k, q) == rows[n][k]

    def test_boundaries(self):
        assert q_binomial(5, 0, 3) == 1
        assert q_binomial(5, 5, 3) == 1
        assert q_binomial(5, 6, 3) == 0
        assert q_binomial(5, -1, 3) == 0
        assert q_binomial(-2, 0, 3) == 0

    def test_symmetry(self):
        for q in (2, 3, 5, Fraction(1, 2), Fraction(-2)):
            for n in range(25):
                for k in range(n + 1):
                    assert q_binomial(n, k, q) == q_binomial(n, n - k, q)

    def test_classical_specialization(self):
        for n in range(25):
            for k in range(n + 1):
                assert q_binomial(n, k, 1) == binomial(n, k)

    def test_minus_one_edge(self):
        # (n, 1) is the power sum, fine at q = -1; k >= 2 hits the vanishing
        # denominator q-integer and is refused rather than silently wrong.
        assert q_binomial(4, 1, -1) == 0
        assert q_binomial(5, 1, -1) == 1
        with pytest.raises(ValueError):
            q_binomial(4, 2, -1)

    @given(
        n=st.integers(min_value=0, max_value=14),
        k=st.integers(min_value=-2, max_value=16),
        q=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
            lambda v: v not in (0, -1)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, n, k, q):
        assert q_binomial(n, k, q) == q_binomial(n, n - k, q)


class TestFibonomial:
    def test_published_row6(self):
        assert fibonomial(6, 2) == 40
        assert fibonomial(6, 3) == 60

    def test_factorial_oracle(self):
        assert fibonomial_factorial_oracle(7, 3) == 260
        assert fibonomial(7, 3) == 260
        for n in range(15):
            for k in range(n + 1):
                assert fibonomial(n, k) == fibonomial_factorial_oracle(n, k)

    def test_boundaries(self):
        for n in range(10):
            assert fibonomial(n, 0) == 1
        assert fibonomial(3, 5) == 0
        assert fibonomial(3, -1) == 0

    def test_symmetry_and_integrality(self):
        for n in range(33):
            for k in range(n + 1):
                v = fibonomial(n, k)
                assert isinstance(v, int)
                assert v == fibonomial(n, n - k)


class TestCatalanEntry:
    def test_published_values(self):
        assert catalan_entry(5, 2) == 48
        assert catalan_entry(4, 1) == 14  # the 4th Catalan number

    def test_diagonal(self):
        for n in range(1, 12):
            assert catalan_entry(n, n) == 1

    def test_catalan_numbers_column(self):
        import math

        for n in range(1, 16):
            assert catalan_entry(n, 1) == math.comb(2 * n, n) // (n + 1)

    def test_out_of_range(self):
        assert catalan_entry(5, 0) == 0
        assert catalan_entry(5, 6) == 0
        assert catalan_entry(5, -2) == 0
        with pytest.raises(ValueError):
            catalan_entry(0, 0)

    def test_three_term_recurrence(self):
        # entry(n+1, k) = entry(n, k-1) + 2 entry(n, k) + entry(n, k+1),
        # reading the k = 0 column as 0.
        def at(n, k):
            return catalan_entry(n, k) if k >= 1 else 0

        for n in range(1, 33):
            for k in range(1, n + 2):
                assert catalan_entry(n + 1, k) == at(n, k - 1) + 2 * at(n, k) + at(n, k + 1)


class TestStirlingFirst:
    def test_diagonal(self):
        for n in range(10):
            assert stirling_first(n, n) == 1

    def test_recurrence_oracle(self):
        assert stirling1_oracle(3, 1) == 2
        assert stirling1_oracle(4, 2) == 11
        assert stirling_first(3, 1) == 2
        assert stirling_first(4, 2) == 11
        for n in range(12):
            for k in range(-1, n + 2):
                assert stirling_first(n, k) == stirling1_oracle(n, k)

    def test_row_sums_are_factorials(self):
        import math

        for n in range(10):
            assert sum(stirling_first(n, k) for k in range(n + 1)) == math.factorial(n)


class TestEulerian:
    def test_first_column(self):
        for n in range(10):
            assert eulerian(n, 0) == 1

    def test_recurrence_oracle(self):
        assert eulerian_oracle(3, 1) == 4
        assert eulerian_oracle(4, 2) == 11
        assert eulerian(3, 1) == 4
        assert eulerian(4, 2) == 11
        for n in range(12):
            for k in range(-1, n + 2):
                assert eulerian(n, k) == eulerian_oracle(n, k)

    def test_row_sums_are_factorials(self):
        import math

        for n in range(10):
            assert sum(eulerian(n, k) for k in range(n + 1)) == math.factorial(n)


class TestPascalLikeRows:
    """Each row stream of the kernel against a definition that does not use
    it: the fibonomial closed form and the memoized recursions."""

    N = 64

    @pytest.mark.parametrize("rows,entry", [
        (fibonomial_rows, fibonomial),
        (stirling_first_rows, stirling1_oracle),
        (eulerian_rows, eulerian_oracle),
    ], ids=["fibonomial", "stirling1", "eulerian"])
    def test_rows_equal_the_definition(self, rows, entry):
        got = list(rows(self.N))
        assert got == [tuple(entry(n, k) for k in range(n + 1)) for n in range(self.N + 1)]
        assert [list(rows(n)) for n in range(4)] == [got[: n + 1] for n in range(4)]

    def test_constant_weights_give_pascal(self):
        got = pascal_like_rows(20, lambda n: (1,) * (n + 2), lambda n: (1,) * (n + 2))
        assert list(got) == [tuple(binomial(n, k) for k in range(n + 1)) for n in range(21)]

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_weights_of_the_wrong_length_are_refused_at_their_row(self, side, extra):
        # Row 3 is made from row 2 with weights one entry short or long: rows
        # 0..2 come out, and making row 3 raises.
        ones = lambda n: (1,) * (n + 2)
        wrong = lambda n: (1,) * (n + 2 + (extra if n == 2 else 0))
        rows = pascal_like_rows(5, wrong, ones) if side == "left" else pascal_like_rows(5, ones, wrong)
        assert [next(rows) for _ in range(3)] == [(1,), (1, 1), (1, 2, 1)]
        with pytest.raises(ValueError, match=f"^row 2: {4 + extra} {side} weights, expected 4$"):
            next(rows)

    @pytest.mark.parametrize("left,right,message", [
        (lambda n: range(n + 1), lambda n: range(n + 2), "row 0: 1 left weights, expected 2"),
        (lambda n: range(n + 2), lambda n: range(n + 3), "row 0: 3 right weights, expected 2"),
        # Both sides wrong: the left side is named.
        (lambda n: (), lambda n: (), "row 0: 0 left weights, expected 2"),
    ], ids=["left-short", "right-long", "both-empty"])
    def test_wrong_weights_name_the_row_the_side_and_the_lengths(self, left, right, message):
        rows = pascal_like_rows(3, left, right)
        assert next(rows) == (1,)
        with pytest.raises(ValueError, match=f"^{message}$"):
            next(rows)


class TestRootSequence:
    def test_constant(self):
        r = RootSequence.constant(Fraction(3, 2))
        assert r.prefix(4) == (Fraction(3, 2),) * 4

    def test_arithmetic_default_counts_from_zero(self):
        r = RootSequence.arithmetic()
        assert r.prefix(5) == (0, 1, 2, 3, 4)

    def test_geometric_default_starts_at_one(self):
        r = RootSequence.geometric(2)
        assert r.prefix(5) == (1, 2, 4, 8, 16)
        with pytest.raises(ValueError):
            RootSequence.geometric(0)

    def test_explicit(self):
        r = RootSequence.explicit([5, -1, Fraction(1, 3)])
        assert r.value(1) == 5
        assert r.value(3) == Fraction(1, 3)
        with pytest.raises(ValueError):
            r.value(4)
        with pytest.raises(ValueError):
            r.value(0)
