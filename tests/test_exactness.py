"""Scalar representation: an int for every integral value, a Fraction otherwise.

Every result of every family and route is checked twice: each stored value is
an int or a Fraction whose denominator is not 1 (never a float, never an
integral Fraction), and the values equal a reference computed here on raw
lists in Fraction arithmetic alone.
"""

from fractions import Fraction as F

import pytest

from dualtriad.dynsys import convolve_fibonomial, fit_banded
from dualtriad.polynomial import Polynomial, X
from dualtriad.reference import (
    banded_for_family,
    dual_polynomials,
    evolve,
    expand_in_basis,
    generate_from_banded,
    generate_named,
    invert_unipotent,
    phi_from_step_matrix,
    q_binomial,
    q_factorial,
    q_int,
    solve_step_matrix,
    solve_unit_lower,
)
from dualtriad.sequences import RootSequence
from dualtriad.triads import FAMILIES, BandedRecurrence, verify_triad

from helpers import (
    brute_solve,
    eulerian_oracle,
    fibonomial_factorial_oracle,
    qbinom_recurrence_rows,
    stirling1_oracle,
)

N = 12

# (family, q, explicit lah roots r_1, r_2, ...).  The q = 4/2 and the roots
# 0, 1/2, 1, 3/2, ... arrive as integral Fractions that must come out as ints.
CASES = [
    ("pascal", None, None),
    ("q-gaussian", 2, None),
    ("q-gaussian", -3, None),
    ("q-gaussian", F(4, 2), None),
    ("q-gaussian", F(2, 3), None),
    ("q-gaussian", F(-5, 2), None),
    ("lah", None, list(range(N + 2))),
    ("lah", None, [F(s, 2) for s in range(N + 2)]),
    ("lah", None, [F(1, 3) ** s for s in range(1, N + 3)]),
    ("lah", None, [1, -1, F(5, 2)] + [-s for s in range(N)]),
    ("catalan-shifted", None, None),
    ("catalan-triad", None, None),
    ("fibonomial", None, None),
    ("stirling1", None, None),
    ("eulerian", None, None),
]
NOT_BANDED = ("fibonomial", "stirling1", "eulerian")


def case_id(case):
    name, q, roots = case
    if q is not None:
        return f"{name}-q{q}" + ("-fraction" if isinstance(q, F) else "")
    if roots is not None:
        return f"{name}-roots{','.join(str(r) for r in roots[:3])}"
    return name


def assert_exact(values):
    for v in values:
        assert type(v) is int or (type(v) is F and v.denominator != 1), repr(v)


def assert_rows_exact(rows):
    for row in rows:
        assert_exact(row)


def ref_weights(name, q, roots, levels):
    """Fraction (up, stay, down) lists of a banded family, or None."""
    ones, zeros = [F(1)] * levels, [F(0)] * levels
    if name == "pascal":
        return ones, ones, zeros
    if name == "q-gaussian":
        return ones, [F(q) ** k for k in range(levels)], zeros
    if name == "lah":
        return ones, [F(r) for r in roots[:levels]], zeros
    if name == "catalan-triad":
        return ones, [F(2)] * levels, ones
    return None


def ref_banded_rows(up, stay, down, n_max):
    rows = [[F(1)]]
    for n in range(n_max):
        prev = [F(0)] + rows[-1] + [F(0), F(0)]  # prev[k + 1] is entry k
        rows.append([up[k - 1] * prev[k] + stay[k] * prev[k + 1] + down[k + 1] * prev[k + 2]
                     for k in range(n + 2)])
    return rows


def ref_rows(name, q, roots):
    weights = ref_weights(name, q, roots, N + 2)
    if weights is not None:
        return ref_banded_rows(*weights, N)
    if name == "catalan-shifted":
        triad = ref_banded_rows(*ref_weights("catalan-triad", None, None, N + 2), N)
        return [[F(1)]] + [[F(0)] + row for row in triad[:N]]
    oracle = {"fibonomial": fibonomial_factorial_oracle, "stirling1": stirling1_oracle,
              "eulerian": eulerian_oracle}[name]
    return [[F(oracle(n, k)) for k in range(n + 1)] for n in range(N + 1)]


def ref_dual(up, stay, down, count):
    phis, prev = [[F(1)]], []
    for k in range(count):
        cur = phis[-1]
        nxt = [F(0)] + cur
        for j, c in enumerate(cur):
            nxt[j] -= stay[k] * c
        for j, c in enumerate(prev):
            nxt[j] -= down[k] * c
        phis.append([t / up[k] for t in nxt])
        prev = cur
    return phis


def ref_inverse(rows):
    n = len(rows)
    cols = [brute_solve(rows, [F(int(i == j)) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(i + 1)] for i in range(n)]


def ref_apply_banded(vec, up, stay, down):
    width = len(vec)
    pad = [F(0)] + list(vec) + [F(0)]  # pad[k + 1] is entry k
    return [up[k - 1] * pad[k] + stay[k] * pad[k + 1] + down[k + 1] * pad[k + 2]
            for k in range(width)]


def ref_apply_rows(vec, rows):
    out = [F(0)] * len(vec)
    for j, v in enumerate(vec):
        for l, f in enumerate(rows[j] if v else ()):
            out[l] += v * f
    return out


def test_cases_cover_every_family():
    assert {name for name, _, _ in CASES} == set(FAMILIES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_route_stores_exact_values_equal_to_fraction_reference(case):
    name, q, root_list = case
    roots = None if root_list is None else RootSequence.explicit(root_list)
    ref = ref_rows(name, q, root_list)
    tri = generate_named(name, N, q=q, roots=roots)
    assert_rows_exact(tri.rows)
    assert tri.rows == tuple(tuple(row) for row in ref)

    dual = FAMILIES[name].dual
    if dual is not None and FAMILIES[dual].recurrence is not None:
        rec = banded_for_family(dual, N - 1, q=q, roots=roots)
        assert_rows_exact((rec.up, rec.stay, rec.down))
        phis = dual_polynomials(rec, N)
        expected = ref_dual(*ref_weights(dual, q, root_list, N), N)
        assert_rows_exact(p.coeffs for p in phis)
        assert [list(p.coeffs) for p in phis] == expected
        report = verify_triad(tri, phis)
        assert report.holds is (name != "catalan-shifted")
        if not report.holds:
            assert_exact(report.first_failure[1].coeffs)

    if tri.is_unipotent():
        inv_ref = ref_inverse(ref)
        inv = invert_unipotent(tri)
        assert_rows_exact(inv.rows)
        assert inv.rows == tuple(tuple(row) for row in inv_ref)

        step_ref = [[sum((inv_ref[n][j] * ref[j + 1][l] for j in range(n + 1) if l <= j + 1), F(0))
                     for l in range(n + 2)] for n in range(N)]
        sm = solve_step_matrix(tri)
        assert_rows_exact(sm.rows)
        assert sm.rows == tuple(tuple(row) for row in step_ref)

        phis = phi_from_step_matrix(sm)
        assert_rows_exact(p.coeffs for p in phis)
        assert [list(p.coeffs) for p in phis] == inv_ref

        state = [1, F(-1, 2)] + [0] * (N - 2)
        got = evolve(state, sm, N - 2)
        assert_exact(got)
        expected = [F(v) for v in state]
        for _ in range(N - 2):
            expected = ref_apply_rows(expected, step_ref)
        assert list(got) == expected

    result = fit_banded(tri)
    assert result.fits is (name not in NOT_BANDED)
    if result.fits:
        rec = result.recurrence
        assert_rows_exact((rec.up, rec.stay, rec.down))
        pad = [F(0)] * 2
        fitted = ref_banded_rows(list(rec.up) + pad, list(rec.stay) + pad, list(rec.down) + pad, N)
        assert fitted == ref

    weights = ref_weights(name, q, root_list, N + 3)
    if weights is not None:
        rec = banded_for_family(name, N + 1, q=q, roots=roots)
        for state in ([1] + [0] * (N + 1), [F(1, 2), F(-1, 3)] + [0] * N):
            got = evolve(state, rec, N)
            assert_exact(got)
            expected = [F(v) for v in state]
            for _ in range(N):
                expected = ref_apply_banded(expected, *weights)
            assert list(got) == expected


@pytest.mark.parametrize("a, b", [
    ([1] * (N + 1), [1] * (N + 1)),
    ([k - 3 for k in range(N + 1)], [F(k, 2) for k in range(N + 1)]),
    ([F(1, k + 1) for k in range(N + 1)], [F(k + 1, 3) for k in range(N + 1)]),
])
def test_convolution_exact_and_equal_to_fraction_reference(a, b):
    got = convolve_fibonomial(a, b, N)
    assert_exact(got)
    expected = [sum((F(fibonomial_factorial_oracle(n, k)) * a[k] * b[n - k] for k in range(n + 1)), F(0))
                for n in range(N + 1)]
    assert list(got) == expected


def test_root_sequences_normalize_their_values():
    cases = [
        (RootSequence.constant(F(6, 3)), lambda s: F(2)),
        (RootSequence.arithmetic(F(1, 2), F(1, 2)), lambda s: F(s, 2)),
        (RootSequence.geometric(F(-2, 1), first=F(3, 4)), lambda s: F(3, 4) * (-2) ** (s - 1)),
    ]
    for seq, ref in cases:
        assert_exact(seq.data)
        prefix = seq.prefix(N)
        assert_exact(prefix)
        assert list(prefix) == [ref(s) for s in range(1, N + 1)]


class TestDivisionSites:
    """Each division site, given integral inputs whose quotient is not
    integral, returns a Fraction; an integral quotient comes back as an int."""

    def test_polynomial_truediv(self):
        half = Polynomial((1, 3)) / 2
        assert half.coeffs == (F(1, 2), F(3, 2))
        assert_exact(half.coeffs)
        whole = Polynomial((2, -4)) / 2
        assert whole.coeffs == (1, -2)
        assert_exact(whole.coeffs)

    def test_dual_polynomials(self):
        phis = dual_polynomials(BandedRecurrence.tabulate(2, 1, 1, 4), 5)
        assert [list(p.coeffs) for p in phis] == ref_dual([F(2)] * 5, [F(1)] * 5, [F(1)] * 5, 5)
        assert phis[1].coeffs == (F(-1, 2), F(1, 2))
        assert_rows_exact(p.coeffs for p in phis)

    def test_expand_in_basis(self):
        coeffs = expand_in_basis(X**2 + 1, [Polynomial((1,)), Polynomial((0, 2)), Polynomial((1, 0, 4))])
        assert coeffs == [F(3, 4), 0, F(1, 4)]
        assert_exact(coeffs)

    def test_fit_elimination(self):
        # Up weight 2 and down weight 1/2: every walk to level k weighs 2^k,
        # so the triangle is integral while the fitted down weight is not.
        tri = generate_from_banded(BandedRecurrence.tabulate(2, 1, F(1, 2), 8), 9)
        assert all(type(v) is int for row in tri.rows for v in row)
        rec = fit_banded(tri).recurrence
        assert rec.up == (2,) * 9
        assert rec.down[1:] == (F(1, 2),) * 8
        assert_rows_exact((rec.up, rec.stay, rec.down))

    def test_q_int_and_q_binomial(self):
        for q in (2, -3, F(2, 3), F(-5, 2)):
            ref = qbinom_recurrence_rows(q, 8)
            for n in range(9):
                assert q_int(n, q) == sum((F(q) ** i for i in range(n)), F(0))
                row = [q_binomial(n, k, q) for k in range(n + 1)]
                assert_exact(row)
                assert row == ref[n]
            assert_exact([q_int(n, q) for n in range(9)] + [q_factorial(8, q)])
        assert type(q_int(5, 3)) is int and type(q_binomial(6, 3, -2)) is int
        assert q_int(3, F(1, 2)) == F(7, 4)

    def test_convolve_fibonomial(self):
        got = convolve_fibonomial([1] * 7, [1] * 7, 6)
        assert all(type(v) is int for v in got)
        assert got[6] == sum(fibonomial_factorial_oracle(6, k) for k in range(7))

    def test_solve_unit_lower_and_evaluation(self):
        y = solve_unit_lower([[1], [F(1, 2), 1]], [1, 1])
        assert y == (1, F(1, 2))
        assert_exact(y)
        assert type((X / 2 + F(1, 2))(3)) is int
