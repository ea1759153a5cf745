"""Triangle generation, dual polynomial sequences, and the triad identity."""

import contextlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtriad import cli, dynsys, polynomial, reference, triads
from dualtriad.dynsys import fit_banded
from dualtriad.exact import as_exact
from dualtriad.polynomial import Polynomial, X, linear_combination
from dualtriad.reference import (
    Triangle,
    banded_for_family,
    binomial,
    catalan_entry,
    catalan_shifted_from_triad,
    catalan_triad_from_shifted,
    dual_polynomials,
    expand_in_basis,
    fibonomial,
    generate_from_banded,
    generate_named,
    lah_from_roots,
    persistent_root_polys,
    phi_from_step_matrix,
    q_binomial,
    solve_step_matrix,
)
from dualtriad.sequences import RootSequence, q_binomial_inverse_rows
from dualtriad.triads import (
    FAMILIES,
    BandedRecurrence,
    Family,
    Restartable,
    TriadReport,
    root_recurrence,
    verify_triad,
)

from helpers import (
    PUBLISHED_CATALAN_SHIFTED_ROWS,
    PUBLISHED_FIBONOMIAL_ROWS,
    PUBLISHED_Q2_ROWS,
    Passes,
    brute_solve,
    eulerian_oracle,
    expand_product_oracle,
    reference_verify,
    set_partition_count,
    stirling1_oracle,
)


class TestTriangleType:
    def test_entry_reads_zero_outside(self):
        tri = generate_named("pascal", 3)
        assert tri.entry(2, 3) == 0
        assert tri.entry(-1, 0) == 0
        assert tri.entry(5, 1) == 0
        assert tri.entry(2, 1) == 2

    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            Triangle(((Fraction(1), Fraction(2)),))

    def test_unipotence(self):
        assert generate_named("fibonomial", 5).is_unipotent()
        assert not generate_named("eulerian", 5).is_unipotent()

    def test_triangle_is_a_row_source(self):
        # verify_triad and fit_banded read a Triangle as they read its rows.
        rec = banded_for_family("q-gaussian", 7, q=Fraction(-2, 3))
        tri = Triangle(generate_from_banded(rec, 8).rows)
        phis = dual_polynomials(rec, 8)
        assert len(tri) == tri.max_row + 1 and tuple(tri) == tri.rows
        assert Triangle(tri) == tri
        assert verify_triad(tri, phis, rec) == verify_triad(tri.rows, phis, rec)
        assert verify_triad(tri, rec=rec) == verify_triad(tri.rows, rec=rec)
        fib = generate_named("fibonomial", 8)
        for source in (tri, fib):
            assert fit_banded(source) == fit_banded(source.rows)


class TestGenerateFromBanded:
    def test_geometric_weights_give_q2_triangle(self):
        rec = BandedRecurrence.tabulate(1, lambda k: 2**k, 0, 6)
        tri = generate_from_banded(rec, 6)
        assert tri.rows == PUBLISHED_Q2_ROWS

    def test_catalan_weights_first_rows(self):
        # Iterating (up, stay, down) = (1, 2, 1) by hand from the seed:
        # (1), (2, 1), (5, 4, 1), (14, 14, 6, 1).
        rec = BandedRecurrence.tabulate(1, 2, 1, 3)
        tri = generate_from_banded(rec, 3)
        assert tri.rows == ((1,), (2, 1), (5, 4, 1), (14, 14, 6, 1))

    def test_stay_zero_gives_identity_triangle(self):
        rec = BandedRecurrence.tabulate(1, 0, 0, 5)
        tri = generate_from_banded(rec, 5)
        for n in range(6):
            for k in range(n + 1):
                assert tri.entry(n, k) == (1 if n == k else 0)

    def test_depth_must_cover_rows(self):
        rec = BandedRecurrence.tabulate(1, 1, 0, 2)
        with pytest.raises(ValueError):
            generate_from_banded(rec, 4)

    def test_level_spec_forms(self):
        explicit = BandedRecurrence(
            (Fraction(1),) * 3, (Fraction(1), Fraction(2), Fraction(4)), (Fraction(0),) * 3
        )
        tabulated = BandedRecurrence.tabulate(1, lambda k: 2**k, 0, 2)
        assert explicit == tabulated
        from_seq = BandedRecurrence.tabulate([1, 1, 1], (1, 2, 4), [0, 0, 0], 2)
        assert from_seq == tabulated
        with pytest.raises(ValueError):
            BandedRecurrence.tabulate([1], [1, 2], [0], 1)


class TestGenerateNamed:
    def test_fibonomial_row6(self):
        tri = generate_named("fibonomial", 6)
        assert tri.rows == PUBLISHED_FIBONOMIAL_ROWS

    def test_q3_row4(self):
        tri = generate_named("q-gaussian", 4, q=3)
        assert tri.rows[4] == (1, 40, 130, 40, 1)

    def test_catalan_shifted_rows(self):
        tri = generate_named("catalan-shifted", 5)
        assert tri.rows == PUBLISHED_CATALAN_SHIFTED_ROWS

    def test_pascal_matches_binomials(self):
        tri = generate_named("pascal", 12)
        for n in range(13):
            for k in range(n + 1):
                assert tri.entry(n, k) == binomial(n, k)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_named("nonsense", 3)

    def test_q_required(self):
        with pytest.raises(ValueError):
            generate_named("q-gaussian", 3)

    def test_parameter_of_another_family_rejected(self):
        with pytest.raises(ValueError, match="does not take the parameter q"):
            generate_named("pascal", 3, q=2)
        with pytest.raises(ValueError, match="does not take the parameter roots"):
            generate_named("q-gaussian", 3, q=2, roots=RootSequence.constant(1))
        with pytest.raises(ValueError, match="does not take the parameter q"):
            banded_for_family("lah", 3, q=2, roots=RootSequence.arithmetic())
        assert generate_named("pascal", 3, q=None, roots=None) == generate_named("pascal", 3)

    @pytest.mark.parametrize("call,message", [
        (lambda: generate_named("pascal", 3, q=2.0), "does not take the parameter q"),
        (lambda: generate_named("q-gaussian", -1, q=2.0), "rows must be nonnegative"),
    ])
    def test_arguments_checked_before_q_is_formatted(self, call, message):
        # A float q cannot be formatted exactly; the row count, family and
        # parameter checks come first and report the real fault.
        with pytest.raises(ValueError, match=message):
            call()

    def test_underscore_names_accepted(self):
        assert generate_named("catalan_triad", 3).rows == generate_named("catalan-triad", 3).rows

    def test_recurrence_equals_closed_form_q_gaussian(self):
        for q in (2, 3, 5):
            tri = generate_named("q-gaussian", 16, q=q)
            for n in range(17):
                for k in range(n + 1):
                    assert tri.entry(n, k) == q_binomial(n, k, q)

    def test_recurrence_equals_closed_form_fibonomial(self):
        tri = generate_named("fibonomial", 16)
        for n in range(17):
            for k in range(n + 1):
                assert tri.entry(n, k) == fibonomial(n, k)

    def test_recurrence_equals_closed_form_catalan(self):
        tri = generate_named("catalan-shifted", 16)
        for n in range(1, 17):
            assert tri.entry(n, 0) == 0
            for k in range(1, n + 1):
                assert tri.entry(n, k) == catalan_entry(n, k)

    def test_stirling_and_eulerian_rows(self):
        # Against the memoized recursions: stirling_first and eulerian read
        # the rows that generate_named reads.
        s = generate_named("stirling1", 10)
        e = generate_named("eulerian", 10)
        for n in range(11):
            for k in range(n + 1):
                assert s.entry(n, k) == stirling1_oracle(n, k)
                assert e.entry(n, k) == eulerian_oracle(n, k)


class TestDualPolynomials:
    def test_catalan_first_step(self):
        phis = dual_polynomials(banded_for_family("catalan-triad", 4), 4)
        assert phis[0] == 1
        assert phis[1] == X - 2
        assert phis[2] == (X - 2) ** 2 - 1

    def test_geometric_matches_product_form(self):
        rec = banded_for_family("q-gaussian", 6, q=2)
        phis = dual_polynomials(rec, 6)
        assert phis[2] == (X - 1) * (X - 2)
        roots = RootSequence.geometric(2)
        assert phis == persistent_root_polys(roots, 6)

    def test_degrees_and_monicity(self):
        rec = BandedRecurrence.tabulate(1, lambda k: Fraction(k, 2), lambda k: k + 1, 9)
        phis = dual_polynomials(rec, 9)
        for k, p in enumerate(phis):
            assert p.degree == k
            assert p.leading == 1

    def test_zero_up_weight_rejected(self):
        rec = BandedRecurrence.tabulate(lambda k: 1 if k != 2 else 0, 1, 0, 5)
        with pytest.raises(ValueError, match="level 2"):
            dual_polynomials(rec, 5)


class TestPersistentRootPolys:
    def test_empty_and_first(self):
        roots = RootSequence.explicit([7])
        phis = persistent_root_polys(roots, 1)
        assert phis[0] == 1
        assert phis[1] == X - 7

    def test_falling_factorial(self):
        phis = persistent_root_polys(RootSequence.arithmetic(), 3)
        assert phis[3] == X * (X - 1) * (X - 2)

    def test_against_distribution_oracle(self):
        roots = RootSequence.explicit([1, 2, 4, -3, Fraction(1, 2)])
        phis = persistent_root_polys(roots, 5)
        assert phis[5] == Polynomial(expand_product_oracle(roots.prefix(5)))


GAUSS_QS = [1, -1, 2, -3, 10, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3),
            Fraction(4, 9), Fraction(-6, 35), Fraction(12, 5), Fraction(-7, 3), Fraction(5, 7),
            Fraction(7, 2), Fraction(-3, 2), Fraction(1, 3)]


def _old_q_gaussian_phis(q, rows):
    """q-gaussian's phi as the duals of its recurrence, each coefficient reduced."""
    return list(triads.iter_dual_polynomials(banded_for_family("q-gaussian", rows - 1, q=q), rows))


class TestGaussInverse:
    """q-gaussian's phi stream, read off Gauss's q-binomial theorem with its
    Fractions built without a gcd, against the duals of the recurrence."""

    @pytest.mark.parametrize("q", GAUSS_QS, ids=str)
    def test_equals_the_duals_term_for_term(self, q):
        for rows in (0, 1, 2, 5, 40):
            new = list(q_binomial_inverse_rows(q, rows))
            assert new == _old_q_gaussian_phis(q, rows), rows
            for row in new:
                for v in row:
                    # An integral value is an int, and a Fraction's terms are
                    # the ones Fraction(num, den) reduces to, with equal hash.
                    if type(v) is not int:
                        assert type(v) is Fraction and v.denominator > 1
                        assert gcd(v.numerator, v.denominator) == 1
                        reduced = Fraction(v.numerator, v.denominator)
                        assert (v, hash(v)) == (reduced, hash(reduced))

    @pytest.mark.parametrize("q", [q for q in GAUSS_QS if q != -1], ids=str)
    def test_gauss_closed_form(self, q):
        # Coefficient k of phi_n is (-1)^j q^(j(j-1)/2) [n k]_q, j = n - k.
        for n, row in enumerate(q_binomial_inverse_rows(q, 8)):
            assert row == tuple((-1) ** (n - k) * as_exact(q) ** ((n - k) * (n - k - 1) // 2) * q_binomial(n, k, q)
                                for k in range(n + 1))

    def test_row_one_constant_is_an_int(self):
        rows = list(q_binomial_inverse_rows(Fraction(2, 3), 1))
        assert rows == [(1,), (-1, 1)]
        assert [type(v) for v in rows[1]] == [int, int]

    @pytest.mark.parametrize("q,rows,error,message", [
        (Fraction(2, 3), -1, ValueError, "count must be nonnegative"),
        (2, -1, ValueError, "count must be nonnegative"),
        (0.5, 3, TypeError, "exact arithmetic accepts int or Fraction, got float"),
        (0, 3, ValueError, "geometric ratio must be nonzero"),
        (Fraction(0), 3, ValueError, "geometric ratio must be nonzero"),
    ])
    def test_arguments_checked_before_the_first_row(self, q, rows, error, message):
        # The errors are the old route's, and the call raises them: no row
        # is read.
        for call in (lambda: q_binomial_inverse_rows(q, rows), lambda: FAMILIES["q-gaussian"].phis(q, rows),
                     lambda: _old_q_gaussian_phis(q, rows)):
            with pytest.raises(error, match=f"^{message}$"):
                call()

    def test_cli_routes(self, monkeypatch):
        # dual and phi on q-gaussian read the Gauss stream and never the dual
        # recurrence; dual on the other banded families still reads it.
        runs = [[command, "--family", "q-gaussian", f"--q={q}", "--rows", rows]
                for command in ("dual", "phi") for q in ("2", "-2/3") for rows in ("0", "1", "6")]

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            return out.getvalue()

        expected = [run(argv) for argv in runs]
        reached = []
        original = triads.iter_dual_polynomials

        def recording(rec, count):
            reached.append(count)
            return original(rec, count)

        monkeypatch.setattr(triads, "iter_dual_polynomials", recording)
        for family, extra in (("pascal", []), ("lah", ["--roots=1/2,3/2,..."]), ("catalan-triad", [])):
            run(["dual", "--family", family, "--rows", "6", *extra])
        assert reached == [6, 6, 6]

        def refuse(*args):
            raise AssertionError("the dual recurrence")

        monkeypatch.setattr(triads, "iter_dual_polynomials", refuse)
        assert [run(argv) for argv in runs] == expected


class TestVerifyTriad:
    def test_q2_gaussian_holds(self):
        tri = generate_named("q-gaussian", 12, q=2)
        phis = dual_polynomials(banded_for_family("q-gaussian", 11, q=2), 12)
        report = verify_triad(tri, phis)
        assert report.holds and report.verified_up_to == 12

    def test_catalan_triad_holds(self):
        tri = generate_named("catalan-triad", 10)
        phis = dual_polynomials(banded_for_family("catalan-triad", 9), 10)
        assert verify_triad(tri, phis).holds

    def test_row_zero_alone(self):
        tri = generate_named("pascal", 0)
        assert verify_triad(tri, [Polynomial((1,))]).holds

    def test_shifted_catalan_fails_against_catalan_polys(self):
        # The printed indexing does not complete the triad: at n = 1 the sum
        # gives x - 2 instead of x, so the exact residual is the constant -2.
        tri = generate_named("catalan-shifted", 5)
        phis = dual_polynomials(banded_for_family("catalan-triad", 4), 5)
        report = verify_triad(tri, phis)
        assert not report.holds
        n, residual = report.first_failure
        assert n == 1
        assert residual == Polynomial((-2,))

    def test_count_mismatch_rejected(self):
        tri = generate_named("pascal", 3)
        with pytest.raises(ValueError):
            verify_triad(tri, [Polynomial((1,))])

    def test_banded_triad_theorem_seeded_random(self):
        # Any banded weights with nonzero up produce a triangle and dual
        # polynomials that complete the triad; exercised with rational
        # weights, depth 8, plus one deeper run.
        rng = random.Random(20240812)
        ups = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
        for _ in range(20):
            depth = 8
            up = tuple(rng.choice(ups) for _ in range(depth + 1))
            stay = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(depth + 1))
            down = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(depth + 1))
            rec = BandedRecurrence(up, stay, down)
            tri = generate_from_banded(rec, depth + 1)
            phis = dual_polynomials(rec, depth + 1)
            assert verify_triad(tri, phis).holds

    def test_banded_triad_theorem_depth_24(self):
        rec = BandedRecurrence.tabulate(1, lambda k: k + 1, lambda k: Fraction(1, k + 1), 24)
        tri = generate_from_banded(rec, 24)
        assert verify_triad(tri, dual_polynomials(rec, 24)).holds


CERT_N = 40
# (family, q, explicit lah roots r_1, r_2, ...), the parameters of
# test_exactness.py at CERT_N rows.
CERT_CASES = [
    ("pascal", None, None),
    ("q-gaussian", 2, None),
    ("q-gaussian", -3, None),
    ("q-gaussian", Fraction(2, 3), None),
    ("q-gaussian", Fraction(-5, 2), None),
    ("catalan-shifted", None, None),
    ("catalan-triad", None, None),
    ("fibonomial", None, None),
    ("stirling1", None, None),
    ("eulerian", None, None),
    ("lah", None, list(range(CERT_N + 1))),
    ("lah", None, [Fraction(s, 2) for s in range(CERT_N + 1)]),
    ("lah", None, [Fraction(1, 3) ** s for s in range(1, CERT_N + 2)]),
    ("lah", None, [1, -1, Fraction(5, 2)] + [-s for s in range(CERT_N)]),
]
SELF_DUAL = ("pascal", "q-gaussian", "catalan-triad", "lah")


def _same_outcome(a, b):
    return (a.verified_up_to, a.holds, a.first_failure) == (b.verified_up_to, b.holds, b.first_failure)


def _random_banded(rng, depth):
    ups = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
    up = tuple(rng.choice(ups) for _ in range(depth + 1))
    stay = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(depth + 1))
    down = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(depth + 1))
    return BandedRecurrence(up, stay, down)


class TestVerifyCertificate:
    @pytest.mark.parametrize("name,q,roots", CERT_CASES)
    def test_report_equals_brute_on_every_family(self, name, q, roots):
        # The rows and phis that verify checks on each route.  Families without
        # a banded dual get the Pascal recurrence, which their rows do not
        # follow, so the certificate must fail and hand over to the scan.
        seq = RootSequence.explicit(roots) if roots is not None else None
        tri = generate_named(name, CERT_N, q=q, roots=seq)
        dual = FAMILIES[name].dual
        if dual is None or FAMILIES[dual].recurrence is None:
            rec = root_recurrence(RootSequence.constant(1), CERT_N - 1)
            if dual is None:
                phis = dual_polynomials(rec, CERT_N)
            else:
                phis = phi_from_step_matrix(solve_step_matrix(tri), CERT_N)
        else:
            rec = banded_for_family(dual, CERT_N - 1, q=q, roots=seq)
            phis = dual_polynomials(rec, CERT_N)
        fast = verify_triad(tri, phis, rec)
        brute = verify_triad(tri, phis)
        assert _same_outcome(fast, brute)
        assert brute.method == "brute"
        assert fast.method == ("certificate" if name in SELF_DUAL else "brute")
        assert fast.holds == (name not in ("catalan-shifted", "eulerian"))

    def test_perturbed_triads_agree_with_brute(self):
        # One change to a triad that holds: a triangle entry, a coefficient of
        # one phi_k, or the seed c[0][0] (the whole triangle scaled, so the
        # rows still follow the recurrence and only R_0 is wrong).
        rng = random.Random(20261018)
        kinds = {"entry": 0, "phi": 0, "seed": 0}
        for trial in range(120):
            depth = rng.randint(1, 10)
            rec = _random_banded(rng, depth)
            rows = [list(r) for r in generate_from_banded(rec, depth + 1).rows]
            phis = dual_polynomials(rec, depth + 1)
            kind = ("entry", "phi", "seed")[trial % 3]
            delta = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            if kind == "entry":
                n = rng.randint(0, depth + 1)
                rows[n][rng.randint(0, n)] += delta
            elif kind == "phi":
                k = rng.randint(0, depth + 1)
                coeffs = list(phis[k].coeffs)
                coeffs[rng.randint(0, k)] += delta
                phis[k] = Polynomial(coeffs)
            else:
                rows = [[(1 + delta) * v for v in r] for r in rows]
            tri = Triangle(tuple(tuple(r) for r in rows))
            fast = verify_triad(tri, phis, rec)
            brute = verify_triad(tri, phis)
            assert _same_outcome(fast, brute), (trial, kind)
            assert not fast.holds and fast.method == "brute"
            kinds[kind] += 1
        assert min(kinds.values()) == 40

    @pytest.mark.parametrize("name,q", [("q-gaussian", Fraction(-2, 3)), ("q-gaussian", 2),
                                        ("catalan-triad", None)])
    def test_failed_certificate_expands_from_the_failing_row(self, monkeypatch, name, q):
        # Rows before the first that leaves rec hold by the certificate's
        # induction, so one perturbed row at N/2 is the only row expanded.
        n = 16
        rows = [list(r) for r in generate_named(name, n, q=q).rows]
        rows[n // 2][1] += 1
        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            return linear_combination(*args)

        monkeypatch.setattr(polynomial, "linear_combination", counting)
        report = verify_triad(Triangle(rows), rec=banded_for_family(name, n - 1, q=q))
        assert (report.holds, report.first_failure[0], report.method) == (False, n // 2, "brute")
        assert calls == [n // 2 + 1]

    def test_unperturbed_random_triads_certified(self):
        rng = random.Random(7)
        for _ in range(30):
            depth = rng.randint(0, 12)
            rec = _random_banded(rng, depth)
            tri = generate_from_banded(rec, depth + 1)
            report = verify_triad(tri, dual_polynomials(rec, depth + 1), rec)
            assert report.holds and report.method == "certificate"

    def test_zero_up_weight_agrees_with_brute(self):
        # The rows follow a recurrence with one up weight 0; the phis follow
        # the same stay and down weights with every up weight 1.  The
        # certificate reaches the zero weight and must hand over to the scan.
        rng = random.Random(20261018)
        for trial in range(300):
            depth = rng.randint(0, 8)
            base = _random_banded(rng, depth)
            ones = (Fraction(1),) * (depth + 1)
            up = list(ones)
            up[rng.randint(0, depth)] = Fraction(0)
            rec = BandedRecurrence(tuple(up), base.stay, base.down)
            tri = generate_from_banded(rec, depth + 1)
            phis = dual_polynomials(BandedRecurrence(ones, base.stay, base.down), depth + 1)
            fast = verify_triad(tri, phis, rec)
            brute = verify_triad(tri, phis)
            assert _same_outcome(fast, brute), trial
            assert not fast.holds and fast.method == "brute"

    def test_zero_up_weight_beyond_the_rows_certified(self):
        # Rows 0..6 read the up weights of levels 0..5 only, so a zero at
        # level 6 leaves every dual they need defined.
        rec = BandedRecurrence.tabulate(lambda k: 1 if k != 6 else 0, 1, 0, 6)
        report = verify_triad(generate_from_banded(rec, 6), rec=rec)
        assert report.holds and report.method == "certificate"

    def test_recurrence_too_shallow_falls_back(self):
        rec = banded_for_family("catalan-triad", 3)
        tri = generate_named("catalan-triad", 6)
        phis = dual_polynomials(banded_for_family("catalan-triad", 5), 6)
        report = verify_triad(tri, phis, rec)
        assert report.holds and report.method == "brute"

    @pytest.mark.parametrize("family,extra,method", [
        ("pascal", [], "certificate"),
        ("q-gaussian", ["--q=-5/2"], "certificate"),
        ("catalan-triad", [], "certificate"),
        ("lah", ["--roots", "1/2,3/2,..."], "certificate"),
        ("catalan-shifted", [], "brute"),
        ("fibonomial", [], "certificate"),
        ("stirling1", [], "certificate"),
    ])
    def test_cli_verify_route_method(self, monkeypatch, family, extra, method):
        # One Family.verify per run.  A family whose dual has a recurrence
        # calls verify_triad once; fibonomial and stirling1 pass by their own
        # proof and call it not at all.  Each route reads the rows once,
        # through checked_rows; catalan-shifted's pass stops at its failing
        # row 1.
        reports, triad_reports, reads = [], [], []
        family_verify, checked = triads.Family.verify, triads.checked_rows

        def recording(*args):
            reports.append(family_verify(*args))
            return reports[-1]

        def triad_recording(*args):
            triad_reports.append(verify_triad(*args))
            return triad_reports[-1]

        def spy(rows):
            for n, row in enumerate(checked(rows)):
                reads.append(n)
                yield row

        monkeypatch.setattr(triads.Family, "verify", recording)
        monkeypatch.setattr(triads, "verify_triad", triad_recording)
        monkeypatch.setattr(triads, "checked_rows", spy)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--family", family, "--rows", "12"] + extra)
        assert [r.method for r in reports] == [method]
        assert triad_reports == ([] if FAMILIES[family].proof else reports)
        if family == "catalan-shifted":
            assert code == 1
            assert out.getvalue().splitlines()[1] == "fails at n=1; residual = -2"
            assert reads == [0, 1]
        else:
            assert code == 0
            assert reads == list(range(13))

    def test_no_passing_verify_expands_a_row(self, monkeypatch):
        # With the expansion refused, verify passes on every family with a
        # dual whose triad holds; catalan-shifted's fails, so it expands.
        def refuse(*args):
            raise AssertionError("expanded a row")

        monkeypatch.setattr(polynomial, "linear_combination", refuse)
        with_dual = [name for name, family in FAMILIES.items() if family.dual is not None]
        assert len(with_dual) == 7
        for name in with_dual:
            argv = ["verify", "--family", name, "--rows", "24"] + {
                "q-gaussian": ["--q=-2/3"], "lah": ["--roots", "1/2,3/2,..."]}.get(name, [])
            with contextlib.redirect_stdout(io.StringIO()):
                if name == "catalan-shifted":
                    with pytest.raises(AssertionError, match="^expanded a row$"):
                        cli.main(argv)
                else:
                    assert cli.main(argv) == 0, name

    @pytest.mark.parametrize("family,extra", [
        ("pascal", []),
        ("q-gaussian", ["--q=-5/2"]),
        ("catalan-shifted", []),
        ("catalan-triad", []),
        ("lah", ["--roots", "1/2,3/2,..."]),
        ("fibonomial", []),
        ("stirling1", []),
        ("eulerian", []),
    ])
    def test_cli_takes_the_family_routes(self, monkeypatch, family, extra):
        # verify and solve-f take the routes their Family decides: on a family
        # with a recurrence the certificate and the read-off F, which need no
        # phi stream, no expansion and no dense solve; on the others the
        # family's proof over the dual's phi and the dense solve of streamed
        # row pairs, which need no banded F.  No command calls
        # solve_step_matrix, which collects a triangle first.
        # catalan-shifted's certificate fails, so its report expands row 1.
        runs = [[command, "--family", family, "--rows", rows, *extra]
                for command in ("verify", "solve-f") for rows in ("0", "1", "6")]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        expected = [run(argv) for argv in runs]

        def refuse(*args):
            raise AssertionError("the other route")

        monkeypatch.setattr(reference, "solve_step_matrix", refuse)
        if FAMILIES[family].recurrence is not None:
            monkeypatch.setattr(dynsys, "forward_substitute", refuse)
            monkeypatch.setattr(triads.Family, "phis", refuse)
            if family != "catalan-shifted":
                monkeypatch.setattr(polynomial, "linear_combination", refuse)
        else:
            # verify passes fibonomial and stirling1 by their own proofs,
            # with no expansion; stirling1's reads the duals of the lah
            # recurrence whose rows are its phi.
            monkeypatch.setattr(dynsys, "banded_step_matrix", refuse)
            monkeypatch.setattr(polynomial, "linear_combination", refuse)
            if family != "stirling1":
                monkeypatch.setattr(triads, "iter_dual_polynomials", refuse)
        for argv, result in zip(runs, expected):
            assert run(argv) == result, argv


class TestFamilyProofs:
    """The O(N^2) proofs of fibonomial and stirling1, the families whose dual
    has no banded recurrence, give the brute scan's verdict on their rows and
    phi with one entry changed, and Family.verify reports a failed proof by
    the brute scan."""

    PROVED = ("fibonomial", "stirling1")

    @staticmethod
    def _inputs(name, n_max):
        family = FAMILIES[name]
        return [list(r) for r in family.rows(n_max)], [list(p) for p in family.phis(None, n_max)]

    @staticmethod
    def _verdicts(name, rows, phis):
        proved = FAMILIES[name].proof(triads.checked_rows(rows), iter(phis), len(rows) - 1)
        return proved, verify_triad(rows, [Polynomial(p) for p in phis]).holds

    @staticmethod
    def _changed(table, n, k, delta):
        out = [list(r) for r in table]
        out[n][k] += delta
        return out

    @pytest.mark.parametrize("name", PROVED)
    def test_every_single_entry_change_fails_both(self, name):
        # Every entry of rows 0..9 and of phi_0..phi_9, by an integer and by
        # a fraction: among them fibonomial's entry (4, 2), which only the
        # ratio check sees (w_2 = 0 hides it from the sums), and phi_9[0],
        # which only the last row's w sum sees.
        rows, phis = self._inputs(name, 9)
        assert self._verdicts(name, rows, phis) == (True, True)
        for n in range(10):
            for k in range(n + 1):
                for delta in (1, Fraction(-1, 2)):
                    assert self._verdicts(name, self._changed(rows, n, k, delta), phis) == (False, False), (n, k)
                    assert self._verdicts(name, rows, self._changed(phis, n, k, delta)) == (False, False), (n, k)

    @pytest.mark.parametrize("name", PROVED)
    def test_random_changes_up_to_64_rows_fail_both(self, name):
        rng = random.Random(name)
        for n_max in (0, 1, 2, 33, 64):
            rows, phis = self._inputs(name, n_max)
            assert self._verdicts(name, rows, phis) == (True, True)
            for _ in range(6):
                n = rng.randint(0, n_max)
                k = rng.randint(0, n)
                delta = rng.choice((1, -3, Fraction(1, 2), Fraction(-2, 3)))
                if rng.random() < 0.5:
                    verdicts = self._verdicts(name, self._changed(rows, n, k, delta), phis)
                else:
                    verdicts = self._verdicts(name, rows, self._changed(phis, n, k, delta))
                assert verdicts == (False, False), (n_max, n, k, delta)

    @pytest.mark.parametrize("name", PROVED)
    @pytest.mark.parametrize("n,k", [(0, 0), (5, 3), (12, 12)])
    def test_a_failed_proof_reports_the_brute_scan(self, name, n, k):
        # A Family with the registered one's proof and dual, over rows with
        # one entry changed: verify reports what the brute scan over those
        # rows and the dual's phi reports.
        rows, phis = self._inputs(name, 12)
        changed = self._changed(rows, n, k, 1)
        registered = FAMILIES[name]
        family = Family(name, dual=name, route=registered.route, proof=registered.proof,
                        rows=lambda n_max: map(tuple, changed[: n_max + 1]))
        report = family.verify(None, 12)
        assert report == verify_triad(changed, [Polynomial(p) for p in phis])
        assert (report.holds, report.first_failure[0], report.method) == (False, n, "brute")
        assert registered.verify(None, 12) == TriadReport(12, True, None, "certificate")


# A parameter value for each family that takes one.
_FAMILY_VALUES = {"q-gaussian": Fraction(-2, 3), "lah": RootSequence.arithmetic(Fraction(1, 2), 1)}


class TestRestartable:
    """A Restartable makes one iterator per pass, when the pass starts, and
    holds none between passes."""

    def test_each_pass_calls_make_once(self):
        made = []
        source = Restartable(lambda: made.append(None) or iter(range(4)), 4)
        assert made == [] and len(source) == 4 and made == []
        passes = [list(source) for _ in range(3)]
        assert passes == [[0, 1, 2, 3]] * 3 and len(made) == 3

    def test_a_failed_make_raises_at_each_pass(self):
        def make():
            raise ValueError("refused")

        source = Restartable(make, 3)
        assert len(source) == 3
        for _ in range(2):
            with pytest.raises(ValueError, match="^refused$"):
                iter(source)


class TestFamilyScaledRows:
    """Family.scaled_rows(value, N) is the sized source of rows 0..N that the
    proofs and commands read: each pass makes the rows afresh."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_each_pass_makes_the_rows_once(self, monkeypatch, name):
        # The row maker is the recurrence's row stream or the family's own,
        # replaced by one that records its calls.
        family, value, made = FAMILIES[name], _FAMILY_VALUES.get(name), []
        if family.recurrence is None:
            family = Family(name, dual=family.dual, route=family.route, phi_rows=family.phi_rows,
                            rows=lambda n: made.append(n) or FAMILIES[name].rows(n))
        else:
            banded = triads.scaled_banded_rows
            monkeypatch.setattr(triads, "scaled_banded_rows", lambda rec, n: made.append(n) or banded(rec, n))
        with pytest.raises(ValueError, match="^rows must be nonnegative$"):
            family.scaled_rows(value, -1)
        assert made == []
        for n_max in (0, 1, 9):
            source = family.scaled_rows(value, n_max)
            assert len(source) == n_max + 1 and made == []
            first = list(source)
            assert made == [n_max]
            assert list(source) == first and made == [n_max] * 2
            assert [len(row[0]) for row in first] == list(range(1, n_max + 2))
            assert Triangle(first).rows == generate_named(name, n_max, **(
                {} if family.param is None else {family.param: value})).rows
            made.clear()

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "fibonomial", "--rows", "9"],
        ["verify", "--family", "stirling1", "--rows", "9"],
        ["fit", "--family", "fibonomial", "--rows", "9"],
        ["fit", "--family", "stirling1", "--rows", "9"],
        ["fit", "--family", "eulerian", "--rows", "9"],
    ], ids="-".join)
    def test_a_command_checks_each_row_once(self, monkeypatch, argv):
        # Every pass through checked_rows, in triads (verify_triad, or the
        # pass Family.verify gives a family's proof) or in dynsys
        # (fit_banded), is counted row by row.
        reads, checked = [], triads.checked_rows

        def spy(rows):
            for n, row in enumerate(checked(rows)):
                reads.append(n)
                yield row

        monkeypatch.setattr(triads, "checked_rows", spy)
        monkeypatch.setattr(dynsys, "checked_rows", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert reads == list(range(10))


class CountedSource(Restartable):
    """A Restartable over fixed items that records how many items each pass
    read."""

    def __init__(self, items):
        self.reads = []

        def make():
            self.reads.append(0)
            for item in items:
                self.reads[-1] += 1
                yield item

        super().__init__(make, len(items))


def _cert_inputs(name, q, roots):
    """The triangle, phis and recurrence of test_report_equals_brute_on_every_family."""
    seq = RootSequence.explicit(roots) if roots is not None else None
    tri = generate_named(name, CERT_N, q=q, roots=seq)
    dual = FAMILIES[name].dual
    if dual is None or FAMILIES[dual].recurrence is None:
        rec = root_recurrence(RootSequence.constant(1), CERT_N - 1)
        phis = dual_polynomials(rec, CERT_N) if dual is None else phi_from_step_matrix(solve_step_matrix(tri), CERT_N)
    else:
        rec = banded_for_family(dual, CERT_N - 1, q=q, roots=seq)
        phis = dual_polynomials(rec, CERT_N)
    return tri, phis, rec


class TestStreamedVerify:
    """verify_triad over restartable sources, against the collected
    Triangle and list and against a plain-loop residual."""

    @pytest.mark.parametrize("name,q,roots", CERT_CASES)
    def test_streams_equal_collected(self, name, q, roots):
        tri, phis, rec = _cert_inputs(name, q, roots)
        rows, polys = CountedSource(tri.rows), CountedSource(phis)
        streamed = verify_triad(rows, polys, rec)
        collected = verify_triad(tri, phis, rec)
        assert _same_outcome(streamed, collected) and streamed.method == collected.method
        if not streamed.holds:
            n, residual = streamed.first_failure
            assert reference_verify(tri.rows, phis) == (n, list(residual.coeffs))
            # The one pass stops at the first failing row.
            assert rows.reads == [n + 1] and polys.reads == [n + 1]
        assert len(rows.reads) == 1 and len(polys.reads) == 1

    def test_list_rows_are_checked_as_a_triangle_checks_them(self):
        rec = banded_for_family("q-gaussian", 11, q=2)
        lists = [list(row) for row in generate_from_banded(rec, 12).rows]
        phis = dual_polynomials(rec, 12)
        report = verify_triad(lists, phis, rec)
        assert report.holds and report.method == "certificate"
        assert _same_outcome(verify_triad(lists, phis), report)
        floats = lists[:5] + [[float(v) for v in lists[5]]] + lists[6:]
        short = lists[:4] + [lists[4][:4]] + lists[5:]
        for check in (rec, None):
            with pytest.raises(TypeError, match="float"):
                verify_triad(floats, phis, check)
            with pytest.raises(ValueError, match="row 4 has 4 entries"):
                verify_triad(short, phis, check)

    @pytest.mark.parametrize("kind,late", [("entry", 20), ("phi", 22)])
    def test_certificate_failing_late(self, kind, late):
        # The certificate checks rows and phis up to the late change, fails
        # there, and the same pass must expand from it to report what the
        # collected route and the plain-loop residual report.
        rec = banded_for_family("q-gaussian", 23, q=2)
        rows = [list(r) for r in generate_from_banded(rec, 24).rows]
        phis = dual_polynomials(rec, 24)
        if kind == "entry":
            rows[late][7] += 1
        else:
            coeffs = list(phis[late].coeffs)
            coeffs[3] -= 5
            phis[late] = Polynomial(coeffs)
        tri = Triangle(tuple(map(tuple, rows)))
        source, polys = CountedSource(tri.rows), CountedSource(phis)
        streamed = verify_triad(source, polys, rec)
        assert streamed.method == "brute" and streamed.first_failure[0] == late
        assert _same_outcome(streamed, verify_triad(tri, phis, rec))
        assert _same_outcome(streamed, verify_triad(tri, phis))
        n, residual = streamed.first_failure
        assert reference_verify(tri.rows, phis) == (n, list(residual.coeffs))
        assert source.reads == [late + 1]
        assert polys.reads == [late + 1]

    def test_family_verify_makes_its_rows_once(self, monkeypatch):
        # catalan-shifted's certificate fails at row 1, and the expansion
        # goes on from there in the same pass over the family's rows.
        calls, sources = [], []
        scaled_rows = triads.Family.scaled_rows

        def counting(self, *args):
            calls.append(args)
            sources.append(Passes(scaled_rows(self, *args)))
            return sources[-1]

        monkeypatch.setattr(triads.Family, "scaled_rows", counting)
        report = FAMILIES["catalan-shifted"].verify(None, 64)
        assert (report.holds, report.first_failure[0], report.method) == (False, 1, "brute")
        assert calls == [(None, 64)] and sources[0].count == 1

    def test_family_with_no_dual_refused(self):
        # eulerian completes no triad: verify refuses it before a row is
        # made, as phis refuses a family with no phi, in the words the CLI
        # prints.
        made = []
        spied = Family("spied", dual=None, route=None, rows=lambda n: made.append(n))
        for family in (FAMILIES["eulerian"], spied):
            with pytest.raises(ValueError, match=(
                    f"^family {family.name} admits no dual construction "
                    r"\(not unipotent and no banded recurrence\)$")):
                family.verify(None, 6)
        assert made == []

    def test_count_mismatch_rejected_before_reading(self):
        rows, polys = CountedSource(generate_named("pascal", 3).rows), CountedSource([Polynomial((1,))])
        with pytest.raises(ValueError, match="counts must match"):
            verify_triad(rows, polys, banded_for_family("pascal", 2))
        assert rows.reads == [] and polys.reads == []


class TestExpandInBasis:
    def test_basis_element(self):
        phis = persistent_root_polys(RootSequence.geometric(2), 4)
        assert expand_in_basis(phis[3], phis) == [0, 0, 0, 1]

    def test_x_squared_in_catalan_basis(self):
        # Solving the 3x3 triangular system by brute force gives (5, 4, 1).
        phis = dual_polynomials(banded_for_family("catalan-triad", 2), 2)
        matrix = [[phis[j].coefficient(i) for j in range(3)] for i in range(3)]
        brute = brute_solve(matrix, [0, 0, 1])
        assert brute == [5, 4, 1]
        assert expand_in_basis(X**2, phis) == [5, 4, 1]

    def test_x_squared_in_q2_basis(self):
        phis = persistent_root_polys(RootSequence.geometric(2), 2)
        assert expand_in_basis(X**2, phis) == [1, 3, 1]

    def test_zero_polynomial(self):
        phis = persistent_root_polys(RootSequence.geometric(2), 2)
        assert expand_in_basis(Polynomial(), phis) == []

    def test_degree_condition_enforced(self):
        with pytest.raises(ValueError):
            expand_in_basis(X**2, [Polynomial((1,)), X, X])
        with pytest.raises(ValueError):
            expand_in_basis(X**2, [Polynomial((1,)), X])

    @given(
        data=st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_linear_combination(self, data):
        phis = persistent_root_polys(RootSequence.arithmetic(-2, 1), len(data) - 1)
        p = linear_combination(data, phis)
        back = expand_in_basis(p, phis)
        padded = back + [Fraction(0)] * (len(data) - len(back))
        assert padded == [Fraction(c) for c in data]
        assert linear_combination(back, phis[: len(back)]) == p


class TestLahFromRoots:
    def test_geometric_roots_reproduce_q_triangles(self):
        for q in (2, 3, 5):
            lah = lah_from_roots(RootSequence.geometric(q), 16)
            named = generate_named("q-gaussian", 16, q=q)
            assert lah.rows == named.rows

    def test_empty_root_list_covers_row_zero(self):
        # Row 0 and phi_0 read no root at all.
        empty = RootSequence.explicit([])
        assert lah_from_roots(empty, 0).rows == ((1,),)
        assert persistent_root_polys(empty, 0) == [Polynomial((1,))]
        with pytest.raises(ValueError, match="only 0 levels"):
            lah_from_roots(empty, 1)

    def test_zero_roots_give_identity(self):
        lah = lah_from_roots(RootSequence.constant(0), 6)
        for n in range(7):
            for k in range(n + 1):
                assert lah.entry(n, k) == (1 if n == k else 0)

    def test_arithmetic_roots_count_set_partitions(self):
        lah = lah_from_roots(RootSequence.arithmetic(), 8)
        assert lah.entry(4, 2) == 7
        for n in range(9):
            for k in range(n + 1):
                assert lah.entry(n, k) == set_partition_count(n, k)

    def test_duality_for_assorted_root_sequences(self):
        candidates = [
            RootSequence.geometric(Fraction(1, 2)),
            RootSequence.arithmetic(3, -2),
            RootSequence.constant(Fraction(-5, 3)),
            RootSequence.explicit([1, 1, 2, 3, 5, 8, 13, 21, 34, 55]),
        ]
        for roots in candidates:
            tri = lah_from_roots(roots, 9)
            phis = persistent_root_polys(roots, 9)
            assert verify_triad(tri, phis).holds


class TestCatalanConversions:
    def test_shift_relation_entrywise(self):
        shifted = generate_named("catalan-shifted", 12)
        triad = generate_named("catalan-triad", 11)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert shifted.entry(n, k) == triad.entry(n - 1, k - 1)

    def test_round_trip(self):
        shifted = generate_named("catalan-shifted", 9)
        assert catalan_triad_from_shifted(shifted).rows == generate_named("catalan-triad", 8).rows
        triad = generate_named("catalan-triad", 8)
        assert catalan_shifted_from_triad(triad).rows == shifted.rows

    def test_unshift_needs_two_rows(self):
        with pytest.raises(ValueError):
            catalan_triad_from_shifted(generate_named("catalan-shifted", 0))
