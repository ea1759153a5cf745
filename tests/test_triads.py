"""Triangle generation, dual polynomial sequences, and the triad identity."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtriad import cli
from dualtriad.dynsys import phi_from_step_matrix, solve_step_matrix
from dualtriad.exact import Polynomial, X, linear_combination
from dualtriad.sequences import (
    RootSequence,
    binomial,
    catalan_entry,
    fibonomial,
    q_binomial,
)
from dualtriad.triads import (
    FAMILIES,
    BandedRecurrence,
    Restartable,
    Triangle,
    banded_for_family,
    catalan_shifted_from_triad,
    catalan_triad_from_shifted,
    dual_polynomials,
    expand_in_basis,
    generate_from_banded,
    generate_named,
    lah_from_roots,
    named_rows,
    persistent_root_polys,
    root_recurrence,
    verify_triad,
)

from helpers import (
    PUBLISHED_CATALAN_SHIFTED_ROWS,
    PUBLISHED_FIBONOMIAL_ROWS,
    PUBLISHED_Q2_ROWS,
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
        (lambda: named_rows("pascal", 3, q=2.0), "does not take the parameter q"),
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
        ("fibonomial", [], "brute"),
        ("stirling1", [], "brute"),
    ])
    def test_cli_verify_route_method(self, monkeypatch, family, extra, method):
        reports = []

        def recording(*args):
            reports.append(verify_triad(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "verify_triad", recording)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--family", family, "--rows", "12"] + extra)
        assert [r.method for r in reports] == [method]
        if family == "catalan-shifted":
            assert code == 1
            assert out.getvalue().splitlines()[1] == "fails at n=1; residual = -2"
        else:
            assert code == 0


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
            # The brute pass stops at the first failing row.
            assert rows.reads[-1] == n + 1 and polys.reads[-1] == n + 1
        passes = 1 if streamed.method == "certificate" else 2
        assert len(rows.reads) == passes and len(polys.reads) == passes

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
        # there, and a fresh brute pass must report what the collected route
        # and the plain-loop residual report.
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
        assert source.reads == [late + 1, late + 1]
        assert polys.reads == [late + 1, late + 1]

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
