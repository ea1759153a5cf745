"""Scaled vectors, and the proofs that run on them, against the value routes.

verify_triad's certificate and fit_banded read rows and duals as integers
over one denominator.  These tests check that form itself, and check both
proofs on random tridiagonal recurrences with rational weights against the
brute row scan and against the same proof fed a Triangle of values.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtriad import triads
from dualtriad.dynsys import fit_banded
from dualtriad.exact import Scaled, as_exact
from dualtriad.polynomial import Polynomial
from dualtriad.reference import (
    Triangle,
    banded_for_family,
    dual_polynomials,
    generate_from_banded,
)
from dualtriad.sequences import RootSequence
from dualtriad.triads import (
    FAMILIES,
    BandedRecurrence,
    Restartable,
    scaled_banded_rows,
    verify_triad,
)

values_st = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=30) | st.integers(-10**30, 10**30),
    max_size=8,
)
weight_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# Zero stay and down weights are common in the families, so draw them often.
stay_down_st = st.one_of(st.just(Fraction(0)), weight_st)
up_st = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])


class TestScaledForm:
    @given(values_st)
    @settings(max_examples=100, deadline=None)
    def test_values_round_trip_in_lowest_terms(self, values):
        scaled = Scaled.of(values)
        nums, den = scaled
        assert scaled.values() == tuple(as_exact(v) for v in values)
        assert all(type(v) is int for v in nums) and den > 0
        assert gcd(den, *nums) == 1

    @given(values_st, st.integers(-10**12, 10**12).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_one_form_per_vector(self, values, factor):
        # Any integer vector over any nonzero denominator that stands for the
        # same values reduces to the same pair.
        nums, den = Scaled.of(values)
        assert Scaled([factor * v for v in nums], factor * den) == Scaled.of(values)

    def test_copies_and_pickles_keep_the_pair(self):
        scaled = Scaled((1, -2), 3)
        for twin in (copy.copy(scaled), copy.deepcopy(scaled), pickle.loads(pickle.dumps(scaled))):
            assert twin == ((1, -2), 3) and type(twin) is Scaled

    def test_zero_denominator_refused(self):
        # As Fraction(1, 0) does: no pair with den 0, and no bare // error.
        for nums in ((1, 2), (), (0,)):
            with pytest.raises(ZeroDivisionError):
                Scaled(nums, 0)

    def test_integer_vectors_have_denominator_one(self):
        for values in ([3, -4, 0], [Fraction(-8, 2), True, 10**40], []):
            nums, den = Scaled.of(values)
            assert (nums, den) == (tuple(values), 1)
            assert all(type(v) is int for v in nums) and type(den) is int
        assert Scaled.of([Fraction(6, 3), Fraction(1, 2)]) == ((4, 1), 2)
        assert Scaled(()) == ((), 1) and Scaled((0, 0), 7) == ((0, 0), 1)

    def test_integer_families_stay_over_denominator_one(self):
        for name, q in (("catalan-triad", None), ("q-gaussian", 2), ("pascal", None),
                        ("catalan-shifted", None), ("fibonomial", None), ("eulerian", None)):
            assert {den for _, den in FAMILIES[name].scaled_rows(q, 20)} == {1}
        rec = banded_for_family("q-gaussian", 19, q=-3)
        assert {Scaled.of(p.coeffs)[1] for p in dual_polynomials(rec, 20)} == {1}
        # Every family recurrence with integer weights clears to itself over 1.
        cases = (("pascal", None), ("q-gaussian", 2), ("q-gaussian", -3), ("catalan-shifted", None),
                 ("catalan-triad", None), ("lah", RootSequence.arithmetic(0, 1)))
        assert {name for name, _ in cases} == {name for name, f in FAMILIES.items() if f.recurrence}
        for name, value in cases:
            rec = FAMILIES[name].recurrence(value, 12)
            ints, den = triads._cleared(rec)
            assert (ints, den) == (rec, 1)
            assert all(type(v) is int for v in ints.up + ints.stay + ints.down), name

    def test_rational_rows_and_duals_equal_the_value_routes(self):
        rec = banded_for_family("q-gaussian", 15, q=Fraction(-2, 3))
        tri = generate_from_banded(rec, 16)
        assert [s.values() for s in scaled_banded_rows(rec, 16)] == list(tri.rows)
        # The certificate makes the duals as Scaled vectors and compares each
        # with the Scaled form of the value route's.
        assert verify_triad(tri, dual_polynomials(rec, 16), rec).method == "certificate"


@st.composite
def recurrences(draw, min_depth=0, max_depth=9):
    depth = draw(st.integers(min_depth, max_depth))
    levels = depth + 1
    return BandedRecurrence(
        draw(st.lists(up_st, min_size=levels, max_size=levels)),
        draw(st.lists(stay_down_st, min_size=levels, max_size=levels)),
        draw(st.lists(stay_down_st, min_size=levels, max_size=levels)),
    )


def _streams(rows, phis):
    """Restartable sources over fixed Scaled rows and Polynomial duals."""
    return Restartable(lambda: iter(rows), len(rows)), Restartable(lambda: iter(phis), len(phis))


def _perturbed(vectors, data, delta):
    """The Scaled vectors with one entry raised by delta."""
    vectors = list(vectors)
    n = data.draw(st.integers(0, len(vectors) - 1))
    values = list(vectors[n].values())
    values[data.draw(st.integers(0, len(values) - 1))] += delta
    vectors[n] = Scaled.of(values)
    return vectors


delta_st = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


class TestCertificateAgainstBrute:
    @given(recurrences())
    @settings(max_examples=60, deadline=None)
    def test_unperturbed_certified(self, rec):
        top = rec.depth + 1
        rows = list(scaled_banded_rows(rec, top))
        phis = dual_polynomials(rec, top)
        report = verify_triad(*_streams(rows, phis), rec)
        assert report.holds and report.method == "certificate"
        assert verify_triad(_streams(rows, phis)[0], rec=rec) == report
        assert verify_triad(*_streams(rows, phis)).holds

    @given(recurrences(), st.booleans(), delta_st, st.data())
    @settings(max_examples=120, deadline=None)
    def test_perturbed_reports_equal(self, rec, on_row, delta, data):
        top = rec.depth + 1
        rows = list(scaled_banded_rows(rec, top))
        phis = [Scaled.of(p.coeffs) for p in dual_polynomials(rec, top)]
        if on_row:
            rows = _perturbed(rows, data, delta)
        else:
            phis = _perturbed(phis, data, delta)
        tri = Triangle(s.values() for s in rows)
        polys = [Polynomial(s.values()) for s in phis]
        streamed = verify_triad(*_streams(rows, polys), rec)
        collected = verify_triad(tri, polys, rec)
        brute = verify_triad(tri, polys)
        assert streamed == collected
        assert (streamed.holds, streamed.first_failure) == (brute.holds, brute.first_failure)
        assert not streamed.holds and streamed.method == "brute"
        if on_row:
            # Without phis the certificate makes the duals it checks, and the
            # brute scan expands in iter_dual_polynomials(rec, N).
            assert verify_triad(_streams(rows, polys)[0], rec=rec) == streamed


class TestFitAgainstValues:
    @given(recurrences(min_depth=4), st.booleans(), delta_st, st.data())
    @settings(max_examples=120, deadline=None)
    def test_same_result_and_regeneration(self, rec, perturb, delta, data):
        top = rec.depth + 1
        rows = list(scaled_banded_rows(rec, top))
        if perturb:
            # Row 0 stays the seed 1 that fit requires.
            rows = rows[:1] + _perturbed(rows[1:], data, delta)
        tri = Triangle(s.values() for s in rows)
        streamed = fit_banded(Restartable(lambda: iter(rows), len(rows)))
        assert fit_banded(tri) == streamed
        if streamed.fits:
            assert generate_from_banded(streamed.recurrence, top).rows == tri.rows
        else:
            assert streamed.column is not None and streamed.witness
        if not perturb:
            assert streamed.fits
