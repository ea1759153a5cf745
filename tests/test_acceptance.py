"""Acceptance suite: one test per criterion, all tolerances exact (zero).

Run with -s to see the one-line PASS/FAIL verdicts:

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import random
from fractions import Fraction

from dualtriad.dynsys import fit_banded
from dualtriad.misprints import (
    COMPUTED_FIBONOMIAL_STEP_ROW_6,
    LEDGER,
    PUBLISHED_FIBONOMIAL_STEP_ROWS,
)
from dualtriad.polynomial import X
from dualtriad.reference import (
    banded_for_family,
    catalan_entry,
    dual_polynomials,
    fibonomial,
    generate_named,
    invert_unipotent,
    lah_from_roots,
    persistent_root_polys,
    phi_from_step_matrix,
    q_binomial,
    solve_step_matrix,
)
from dualtriad.sequences import RootSequence
from dualtriad.triads import verify_triad

from helpers import (
    PUBLISHED_CATALAN_SHIFTED_ROWS,
    PUBLISHED_FIBONOMIAL_ROWS,
    PUBLISHED_Q2_ROWS,
    PUBLISHED_Q3_ROWS,
    PUBLISHED_Q5_ROWS,
    random_unipotent_triangle,
    set_partition_count,
    triangle_times_step,
)


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


def test_criterion_1_golden_triangles():
    with criterion(1, "published q=2, shifted-catalan and fibonomial rows match exactly"):
        assert generate_named("q-gaussian", 6, q=2).rows == PUBLISHED_Q2_ROWS
        assert generate_named("catalan-shifted", 5).rows == PUBLISHED_CATALAN_SHIFTED_ROWS
        assert generate_named("fibonomial", 6).rows == PUBLISHED_FIBONOMIAL_ROWS


def test_criterion_2_misprint_adjudication():
    with criterion(2, "q=3/q=5 rows match the print except the ledgered row-6 entries; symmetry holds"):
        flagged = {(6, 3)}
        for q, published, corrected in (
            (3, PUBLISHED_Q3_ROWS, 33880),
            (5, PUBLISHED_Q5_ROWS, 2558556),
        ):
            tri = generate_named("q-gaussian", 6, q=q)
            for n in range(7):
                for k in range(n + 1):
                    if (n, k) in flagged:
                        continue
                    assert tri.entry(n, k) == published[n][k]
            # at the flagged position the closed-form oracle value prevails
            assert tri.entry(6, 3) == q_binomial(6, 3, q) == corrected
            assert tri.entry(6, 3) != published[6][3]
            # and the published value is ledgered, not silently dropped
            assert any(e.published == str(published[6][3]) for e in LEDGER)
            # symmetry of the computed rows
            for n in range(7):
                for k in range(n + 1):
                    assert tri.entry(n, k) == tri.entry(n, n - k)


def test_criterion_3_recurrence_vs_closed_form_n32():
    with criterion(3, "recurrence and closed forms agree entrywise up to N=32"):
        for q in (2, 3, 5):
            tri = generate_named("q-gaussian", 32, q=q)
            for n in range(33):
                for k in range(n + 1):
                    assert tri.entry(n, k) == q_binomial(n, k, q)
        fib_tri = generate_named("fibonomial", 32)
        for n in range(33):
            for k in range(n + 1):
                assert fib_tri.entry(n, k) == fibonomial(n, k)
        cat = generate_named("catalan-shifted", 32)
        for n in range(1, 33):
            assert cat.entry(n, 0) == 0
            for k in range(1, n + 1):
                assert cat.entry(n, k) == catalan_entry(n, k)


def test_criterion_4_triad_theorem_suite():
    with criterion(4, "x^n = sum c[n][k] phi_k(x) exactly for n <= 24 across all five constructions"):
        # (a) geometric families with the product-form polynomials
        for q in (2, 3, 5):
            tri = generate_named("q-gaussian", 24, q=q)
            phis = persistent_root_polys(RootSequence.geometric(q), 24)
            assert verify_triad(tri, phis).holds
        # (b) catalan triad with its three-term polynomials
        tri = generate_named("catalan-triad", 24)
        phis = dual_polynomials(banded_for_family("catalan-triad", 23), 24)
        assert verify_triad(tri, phis).holds
        # (c) pascal with (x - 1)^k
        tri = generate_named("pascal", 24)
        assert verify_triad(tri, [(X - 1) ** k for k in range(25)]).holds
        # (d) 50 random persistent-root sequences
        rng = random.Random(20240816)
        for _ in range(50):
            vals = [
                Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                for _ in range(24)
            ]
            roots = RootSequence.explicit(vals)
            tri = lah_from_roots(roots, 24)
            assert verify_triad(tri, persistent_root_polys(roots, 24)).holds
        # (e) the generalized fibonomial triad through the step matrix
        tri = generate_named("fibonomial", 24)
        phis = phi_from_step_matrix(solve_step_matrix(tri), 24)
        assert verify_triad(tri, phis).holds


def test_criterion_5_step_matrix_reproduction():
    with criterion(5, "step-matrix rows match the print (row 6 ledgered), and CF=EC, CF^2=E^2C at N=32"):
        sm = solve_step_matrix(generate_named("fibonomial", 7))
        for n in range(6):
            assert sm.rows[n] == PUBLISHED_FIBONOMIAL_STEP_ROWS[n]
        assert sm.rows[6] == COMPUTED_FIBONOMIAL_STEP_ROW_6
        # the printed row-6 column-4 entry is ledgered
        assert PUBLISHED_FIBONOMIAL_STEP_ROWS[6][4] == -100
        assert sm.rows[6][4] == 0
        assert any(e.ident == "fibonomial-step-row6-col4" for e in LEDGER)
        # full truncation: C F = (shift of C) and C F^2 = (double shift of C)
        tri = generate_named("fibonomial", 34)
        sm = solve_step_matrix(tri)
        once = triangle_times_step(tri.rows[:33], sm.rows)
        for n in range(33):
            assert tuple(once[n]) == tri.rows[n + 1]
        twice = triangle_times_step(once, sm.rows)
        for n in range(33):
            assert tuple(twice[n]) == tri.rows[n + 2]


def test_criterion_6_oracle_equivalence():
    with criterion(6, "eigen-recursion rows equal inverse-triangle rows, named + 100 random, N=12"):

        def rows_agree(tri):
            phis = phi_from_step_matrix(solve_step_matrix(tri), tri.max_row)
            inv = invert_unipotent(tri)
            for n in range(tri.max_row + 1):
                assert tuple(phis[n].coefficient(k) for k in range(n + 1)) == inv.rows[n]

        for family, q in (
            ("pascal", None),
            ("q-gaussian", 2),
            ("q-gaussian", 3),
            ("q-gaussian", 5),
            ("fibonomial", None),
            ("catalan-triad", None),
            ("catalan-shifted", None),
            ("stirling1", None),
        ):
            rows_agree(generate_named(family, 12, q=q))
        rng = random.Random(20240817)
        for _ in range(100):
            rows_agree(random_unipotent_triangle(rng, 12))


def test_criterion_7_fit_classification():
    with criterion(7, "fit detector: geometric/catalan families fit exactly; the rest no-fit with certificates"):
        result = fit_banded(generate_named("q-gaussian", 10, q=2))
        assert result.fits
        assert result.recurrence.up == (1,) * 10
        assert result.recurrence.stay == tuple(Fraction(2) ** k for k in range(10))
        assert result.recurrence.down == (0,) * 10
        for q in (3, 5):
            r = fit_banded(generate_named("q-gaussian", 10, q=q))
            assert r.fits
            assert r.recurrence.up == (1,) * 10
            assert r.recurrence.stay == tuple(Fraction(q) ** k for k in range(10))
            assert r.recurrence.down == (0,) * 10

        result = fit_banded(generate_named("catalan-triad", 10))
        assert result.fits
        assert result.recurrence.up == (1,) * 10
        assert result.recurrence.stay == (2,) * 10
        assert result.recurrence.down == (0,) + (1,) * 9  # down[0] unused by convention

        for family in ("fibonomial", "stirling1", "eulerian"):
            tri = generate_named(family, 10)
            result = fit_banded(tri)
            assert not result.fits
            assert result.witness
            # exact inconsistency certificate: coefficient rank < augmented rank
            k = result.column
            rows = [
                [tri.entry(n, k - 1), tri.entry(n, k), tri.entry(n, k + 1)]
                for n, _ in result.witness
            ]
            rhs = [tri.entry(n + 1, k) for n, _ in result.witness]

            def rank(mat):
                mat = [r[:] for r in mat]
                r = 0
                for col in range(len(mat[0])):
                    piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
                    if piv is None:
                        continue
                    mat[r], mat[piv] = mat[piv], mat[r]
                    inv = 1 / mat[r][col]
                    mat[r] = [v * inv for v in mat[r]]
                    for i in range(len(mat)):
                        if i != r and mat[i][col]:
                            f = mat[i][col]
                            mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
                    r += 1
                return r

            assert rank([row + [b] for row, b in zip(rows, rhs)]) == rank(rows) + 1


def test_criterion_8_lah_identities():
    with criterion(8, "persistent-root constants: geometric roots = q-triangles, arithmetic roots = block counts"):
        for q in (2, 3, 5):
            lah = lah_from_roots(RootSequence.geometric(q), 16)
            assert lah.rows == generate_named("q-gaussian", 16, q=q).rows
        lah = lah_from_roots(RootSequence.arithmetic(), 8)
        for n in range(9):
            for k in range(n + 1):
                assert lah.entry(n, k) == set_partition_count(n, k)


def test_criterion_9_cli_contract():
    with criterion(9, "CLI golden outputs byte-exact; JSON/CSV round-trip; exit codes per contract"):
        from pathlib import Path

        from dualtriad.reference import OutputDocument
        from test_cli import GOLDEN_CASES, run_cli

        golden_dir = Path(__file__).parent / "golden"
        for name, expected_code, argv in GOLDEN_CASES:
            code, out, _ = run_cli(argv)
            assert code == expected_code, name
            assert out == (golden_dir / name).read_text(), name

        # round-trips
        code, out, _ = run_cli(["generate", "--family", "fibonomial", "--rows", "16",
                                "--format", "json"])
        assert code == 0
        doc = OutputDocument.from_json(out)
        tri = generate_named("fibonomial", 16)
        assert [tuple(r) for r in doc.value_rows()] == list(tri.rows)
        code, out, _ = run_cli(["generate", "--family", "fibonomial", "--rows", "16",
                                "--format", "csv"])
        assert [tuple(r) for r in OutputDocument.rows_from_csv(out)] == list(tri.rows)

        # exit-code contract: 0 success, 1 math/precondition failure, 2 usage
        assert run_cli(["fit", "--family", "fibonomial", "--rows", "10"])[0] == 0
        assert run_cli(["verify", "--family", "catalan-shifted", "--rows", "5"])[0] == 1
        assert run_cli(["phi", "--family", "eulerian", "--rows", "5"])[0] == 1
        assert run_cli(["generate", "--family", "nonsense", "--rows", "5"])[0] == 2
        assert run_cli(["generate", "--family", "pascal", "--rows", "600"])[0] == 2
