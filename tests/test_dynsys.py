"""Step matrices, triangle inversion, the banded-fit detector, convolution."""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from dualtriad import dynsys, reference, sequences
from dualtriad.cli import main
from dualtriad.dynsys import (
    FitResult,
    StepMatrix,
    banded_step_matrix,
    convolve_fibonomial,
    family_step_matrix,
    fit_banded,
)
from dualtriad.misprints import (
    COMPUTED_FIBONOMIAL_STEP_ROW_6,
    LEDGER,
    PUBLISHED_FIBONOMIAL_STEP_ROWS,
)
from dualtriad.polynomial import X
from dualtriad.reference import (
    Triangle,
    banded_for_family,
    binomial,
    dual_polynomials,
    evolve,
    fibonomial,
    generate_from_banded,
    generate_named,
    invert_unipotent,
    lah_from_roots,
    phi_from_step_matrix,
    solve_step_matrix,
)
from dualtriad.sequences import RootSequence, fibonacci, fibonomial_inverse_rows
from dualtriad.triads import (
    FAMILIES,
    BandedRecurrence,
    Family,
    Restartable,
    iter_dual_polynomials,
    scaled_banded_rows,
    verify_triad,
)

from helpers import (
    Passes,
    random_unipotent_triangle,
    reference_fit,
    triangle_times_step,
)


class TestSolveStepMatrix:
    def test_fibonomial_published_rows(self):
        sm = solve_step_matrix(generate_named("fibonomial", 7))
        assert sm.rows[0] == (1, 1)
        assert sm.rows[4] == (0, -2, 0, 6, 2, 1)
        assert sm.rows[5] == (0, 2, -10, 0, 15, 3, 1)
        # Rows 0..5 agree with the published matrix; row 6 differs at column
        # 4 (published -100, computed 0) - see the misprint ledger.
        for n in range(6):
            assert sm.rows[n] == PUBLISHED_FIBONOMIAL_STEP_ROWS[n]
        assert sm.rows[6] == COMPUTED_FIBONOMIAL_STEP_ROW_6
        assert sm.rows[6] != PUBLISHED_FIBONOMIAL_STEP_ROWS[6]

    def test_pascal_rows_are_shifted_unit_pairs(self):
        sm = solve_step_matrix(generate_named("pascal", 9))
        for n, row in enumerate(sm.rows):
            expected = tuple(1 if j in (n, n + 1) else 0 for j in range(n + 2))
            assert row == expected

    def test_defining_equation_exactly(self):
        # (C F) row n must equal C row n+1 for n <= 24, checked with an
        # independent triple-loop product; likewise (C F^2) row n = C row n+2.
        for family, q in (
            ("pascal", None),
            ("q-gaussian", 2),
            ("fibonomial", None),
            ("catalan-triad", None),
        ):
            tri = generate_named(family, 26, q=q)
            sm = solve_step_matrix(tri)
            once = triangle_times_step(tri.rows[:25], sm.rows)
            for n in range(25):
                assert tuple(once[n]) == tri.rows[n + 1]
            twice = triangle_times_step(once[:25], sm.rows)
            for n in range(25):
                assert tuple(twice[n]) == tri.rows[n + 2]

    def test_superdiagonal_is_unit(self):
        sm = solve_step_matrix(generate_named("stirling1", 10))
        for n, row in enumerate(sm.rows):
            assert row[n + 1] == 1

    def test_non_unipotent_rejected(self):
        with pytest.raises(ValueError):
            solve_step_matrix(generate_named("eulerian", 6))

    def test_family_not_unipotent_refused_before_its_rows(self, monkeypatch):
        # eulerian has no inverse, so solve-f refuses it without making the
        # N + 2 rows whose diagonal would show it, and before any format
        # writes a byte (json writes its header before its first row).
        calls = []
        monkeypatch.setattr(Family, "scaled_rows", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^step matrix requires a unipotent triangle \(unit diagonal\)$"):
            family_step_matrix(FAMILIES["eulerian"], None, 512)
        assert calls == []
        for fmt in ("csv", "json", "pretty"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["solve-f", "--family", "eulerian", "--rows", "3", "--format", fmt])
            assert (code, out.getvalue(), err.getvalue()) == (
                1, "", "error: step matrix requires a unipotent triangle (unit diagonal)\n"), fmt
        assert calls == []

    @pytest.mark.parametrize("family", ["fibonomial", "stirling1"])
    def test_solve_f_streams_its_rows_once(self, monkeypatch, family):
        # solve-f makes each row of F from the family's step_rows after the
        # row before it is written, in one pass; it makes no pass over the
        # family's rows and collects no Triangle or StepMatrix.
        argv = ["solve-f", "--family", family, "--rows", "12"]
        expected = cli_output(argv)
        registered, events = FAMILIES[family], []

        def step_rows(rows):
            events.append(("pass", rows))
            for row in registered.step_rows(rows):
                events.append("row")
                yield row

        class Recorder(io.StringIO):
            def write(self, text):
                events.append("write")
                return super().write(text)

        def refuse(*args, **kwargs):
            raise AssertionError("a pass over the rows, or a collected triangle or step matrix")

        fields = {field: getattr(registered, field) for field in Family.__slots__}
        monkeypatch.setitem(FAMILIES, family, Family(**{**fields, "step_rows": step_rows}))
        monkeypatch.setattr(Family, "scaled_rows", refuse)
        monkeypatch.setattr(reference, "Triangle", refuse)
        monkeypatch.setattr(dynsys, "StepMatrix", refuse)
        out = Recorder()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == expected
        assert events == [("pass", 12)] + ["row", "write"] * 13

    @pytest.mark.parametrize("family", ["fibonomial", "stirling1"])
    def test_closed_form_f_equals_dense_solve(self, family):
        # F's rows 0..N depend only on C's rows 0..N + 1, so one dense solve
        # on rows 0..41 is the oracle of every N <= 40.
        dense = solve_step_matrix(generate_named(family, 41)).rows
        for rows in range(41):
            assert tuple(FAMILIES[family].step_rows(rows)) == dense[: rows + 1], rows

    def test_fibonomial_g_solves_its_sums_over_c(self):
        # F[n][1] = C[n][0] * g_n = g_n, plus F_2 = 1 at n = 1.  Column 1 of
        # C F = E C reads sum_{k<=n} C[n][k] * g_k = F_{n-1} with F_{-1} = 1,
        # so g = C^-1 (F_{n-1}), and g_m = sum_i phi_m[i] * F_{i-1} on the phi
        # stream, a route F does not take, cross-checks it.  g_3 = 0 makes the
        # ledger's F[6][4] = C[6][3] * g_3 zero.
        rows = list(FAMILIES["fibonomial"].step_rows(64))
        g = [row[1] - (n == 1) for n, row in enumerate(rows)]
        assert g[:10] == [1, -1, 1, 0, -2, 2, 36, -240, -3572, 125072]
        fibs = (1, *map(fibonacci, range(65)))  # F_{-1}..F_64
        for n in range(65):
            assert sum(fibonomial(n, k) * g[k] for k in range(n + 1)) == fibs[n], n
        assert g == [sum(c * f for c, f in zip(phi, fibs)) for phi in fibonomial_inverse_rows(64)]
        entry = next(entry for entry in LEDGER if entry.ident == "fibonomial-step-row6-col4")
        assert rows[6][4] == int(entry.computed) == 0

    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    def test_fibonomial_f_makes_no_phi(self, monkeypatch, fmt):
        # solve-f fibonomial makes F in one pass over C's rows for each pass
        # of its stream (pretty makes the stream twice): it never starts the
        # phi stream, and its output is unchanged.
        argv = ["solve-f", "--family", "fibonomial", "--rows", "12", "--format", fmt]
        expected, passes, kernel = cli_output(argv), [], sequences.fibonomial_rows

        def fibonomial_rows(rows):
            passes.append(rows)
            return kernel(rows)

        def refuse(*args, **kwargs):
            raise AssertionError("solve-f read the phi stream")

        monkeypatch.setattr(sequences, "fibonomial_rows", fibonomial_rows)
        monkeypatch.setattr(sequences, "fibonomial_inverse_rows", refuse)
        assert cli_output(argv) == expected
        assert passes == [12] * (2 if fmt == "pretty" else 1)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            solve_step_matrix(generate_named("pascal", 0))

    @pytest.mark.parametrize("name,q,roots", [
        ("pascal", None, None),
        ("q-gaussian", 2, None),
        ("q-gaussian", Fraction(-3, 2), None),
        ("catalan-shifted", None, None),
        ("catalan-triad", None, None),
        ("lah", None, RootSequence.arithmetic(Fraction(1, 2), 1)),
    ])
    def test_banded_families_read_f_off_their_recurrence(self, name, q, roots):
        # F = C^-1 E C is unique for a unipotent C, so the dense solve must
        # give back the family's tridiagonal recurrence.
        for rows in range(13):
            rec = banded_for_family(name, rows, q=q, roots=roots)
            tri = generate_named(name, rows + 1, q=q, roots=roots)
            assert StepMatrix(banded_step_matrix(rec, rows)) == solve_step_matrix(tri)
            assert StepMatrix(family_step_matrix(FAMILIES[name], q or roots, rows)) == solve_step_matrix(tri)

    def test_banded_step_matrix_needs_the_levels(self):
        with pytest.raises(ValueError, match="need level 4"):
            banded_step_matrix(banded_for_family("pascal", 3), 4)


class TestPhiFromStepMatrix:
    def test_fibonomial_first_polynomials(self):
        sm = solve_step_matrix(generate_named("fibonomial", 6))
        phis = phi_from_step_matrix(sm)
        assert phis[1] == X - 1
        assert phis[2] == X**2 - X
        assert phis[3] == X**3 - 2 * X**2 + 1

    def test_pascal_powers_of_x_minus_one(self):
        sm = solve_step_matrix(generate_named("pascal", 9))
        phis = phi_from_step_matrix(sm)
        for n, p in enumerate(phis):
            assert p == (X - 1) ** n

    def test_monic_of_full_degree(self):
        sm = solve_step_matrix(generate_named("stirling1", 9))
        for n, p in enumerate(phi_from_step_matrix(sm)):
            assert p.degree == n and p.leading == 1

    def test_non_unit_superdiagonal_rejected(self):
        bad = StepMatrix(((Fraction(1), Fraction(2)),))
        with pytest.raises(ValueError):
            phi_from_step_matrix(bad)

    def test_count_bounds(self):
        sm = solve_step_matrix(generate_named("pascal", 4))
        assert len(phi_from_step_matrix(sm, 2)) == 3
        with pytest.raises(ValueError):
            phi_from_step_matrix(sm, 9)


class TestInvertUnipotent:
    def test_identity(self):
        rec = BandedRecurrence.tabulate(1, 0, 0, 5)
        tri = generate_from_banded(rec, 5)
        assert invert_unipotent(tri).rows == tri.rows

    def test_pascal_alternating_signs(self):
        inv = invert_unipotent(generate_named("pascal", 10))
        for n in range(11):
            for k in range(n + 1):
                assert inv.entry(n, k) == (-1) ** (n - k) * binomial(n, k)

    def test_fibonomial_row3(self):
        inv = invert_unipotent(generate_named("fibonomial", 5))
        assert inv.rows[3] == (1, 0, -2, 1)

    def test_multiply_back_gives_identity(self):
        rng = random.Random(4)
        tri = random_unipotent_triangle(rng, 12)
        inv = invert_unipotent(tri)
        for n in range(13):
            for k in range(n + 1):
                total = sum(
                    (tri.entry(n, j) * inv.entry(j, k) for j in range(k, n + 1)),
                    Fraction(0),
                )
                assert total == (1 if n == k else 0)

    def test_non_unipotent_rejected(self):
        with pytest.raises(ValueError):
            invert_unipotent(generate_named("eulerian", 5))


class TestOracleEquivalence:
    @staticmethod
    def assert_phi_rows_equal_inverse(tri):
        sm = solve_step_matrix(tri)
        phis = phi_from_step_matrix(sm, tri.max_row)
        inv = invert_unipotent(tri)
        for n in range(tri.max_row + 1):
            row = tuple(phis[n].coefficient(k) for k in range(n + 1))
            assert row == inv.rows[n]

    def test_named_families(self):
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
            self.assert_phi_rows_equal_inverse(generate_named(family, 12, q=q))

    @pytest.mark.parametrize("family,q,roots", [
        ("pascal", None, None),
        ("q-gaussian", 2, None),
        ("q-gaussian", Fraction(-5, 2), None),
        ("catalan-triad", None, None),
        ("catalan-shifted", None, None),
        ("lah", None, RootSequence.arithmetic(Fraction(1, 2), 1)),
    ])
    def test_own_recurrence_duals_equal_step_matrix_phi(self, family, q, roots):
        # A banded recurrence with unit up weights is the step matrix of the
        # triangle it generates, so its duals are the eigen-recursion's phi.
        tri = generate_named(family, 24, q=q, roots=roots)
        rec = banded_for_family(family, 23, q=q, roots=roots)
        assert dual_polynomials(rec, 24) == phi_from_step_matrix(solve_step_matrix(tri))

    def test_seeded_random_triangles(self):
        rng = random.Random(20240813)
        for _ in range(30):
            self.assert_phi_rows_equal_inverse(random_unipotent_triangle(rng, 12))

    def test_generalized_triad_identity_random(self):
        # For any unipotent triangle the step-matrix polynomials complete the
        # expansion of x^n with the triangle's own rows.
        rng = random.Random(20240814)
        for _ in range(20):
            tri = random_unipotent_triangle(rng, 10)
            phis = phi_from_step_matrix(solve_step_matrix(tri), tri.max_row)
            assert verify_triad(tri, phis).holds


def cli_output(argv):
    """The standard output of a CLI run that must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


class TestStructuredInverses:
    """Each family's phi stream against one inversion."""

    @pytest.mark.parametrize("family,q,roots,top", [
        ("pascal", None, None, 24),
        ("q-gaussian", 2, None, 24),
        ("q-gaussian", Fraction(-5, 2), None, 24),
        ("catalan-triad", None, None, 24),
        ("catalan-shifted", None, None, 24),
        ("lah", None, RootSequence.arithmetic(Fraction(1, 2), 1), 24),
        ("fibonomial", None, None, 64),
        ("stirling1", None, None, 64),
    ], ids=["pascal", "q-gaussian-2", "q-gaussian--5/2", "catalan-triad", "catalan-shifted",
            "lah-1/2,3/2,...", "fibonomial", "stirling1"])
    def test_phi_stream_equals_inverse_rows(self, family, q, roots, top):
        # Every family with a dual streams its phi through Family.phis: the
        # duals of its recurrence or its inverse's structure.  Each N is its
        # own stream, so a stream that stops short or runs on fails.
        value = q if roots is None else roots
        for n in range(top + 1):
            inv = invert_unipotent(generate_named(family, max(n, 1), q=q, roots=roots))
            assert list(FAMILIES[family].phis(value, n)) == list(inv.rows[: n + 1]), n

    def test_no_phi_without_unit_diagonal(self):
        with pytest.raises(ValueError, match=r"^step matrix requires a unipotent triangle \(unit diagonal\)$"):
            FAMILIES["eulerian"].phis(None, 3)

    def test_stirling1_and_lah_swap_sides(self):
        # stirling1 is the lah triad with roots 0, -1, -2, ... read the other
        # way round: each family's rows are the other's phi.
        lah = ["--family", "lah", "--roots=0,-1,-2,...", "--rows", "24"]
        stirling1 = ["--family", "stirling1", "--rows", "24"]
        assert cli_output(["phi"] + stirling1) == cli_output(["generate"] + lah)
        assert cli_output(["generate"] + stirling1) == cli_output(["phi"] + lah)


class TestEvolve:
    def test_zero_steps(self):
        state = (Fraction(2), Fraction(0), Fraction(5))
        assert evolve(state, BandedRecurrence.tabulate(1, 1, 0, 2), 0) == state

    def test_catalan_three_steps(self):
        rec = banded_for_family("catalan-triad", 7)
        state = (1,) + (0,) * 7
        assert evolve(state, rec, 3) == (14, 14, 6, 1, 0, 0, 0, 0)

    def test_fibonomial_step_matrix_five_steps(self):
        sm = solve_step_matrix(generate_named("fibonomial", 6))
        got = evolve((1, 0, 0, 0, 0, 0, 0), sm, 5)
        assert got == (1, 5, 15, 15, 5, 1, 0)

    def test_window_too_narrow(self):
        rec = banded_for_family("catalan-triad", 9)
        with pytest.raises(ValueError, match="window too narrow"):
            evolve((1, 0, 0), rec, 3)

    def test_step_matrix_too_small(self):
        sm = solve_step_matrix(generate_named("fibonomial", 3))
        with pytest.raises(ValueError):
            evolve((1, 0, 0, 0, 0, 0, 0), sm, 6)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            evolve((1,), banded_for_family("pascal", 1), -1)

    def test_matches_banded_generation(self):
        rec = BandedRecurrence.tabulate(1, lambda k: k + 1, 1, 9)
        tri = generate_from_banded(rec, 9)
        state = (1,) + (0,) * 9
        for n in range(10):
            got = evolve(state, rec, n)
            assert got[: n + 1] == tri.rows[n]
            assert all(v == 0 for v in got[n + 1 :])


class TestFitBanded:
    def test_q_gaussian_exact_weights(self):
        result = fit_banded(generate_named("q-gaussian", 10, q=2))
        assert result.fits
        rec = result.recurrence
        assert rec.up == (1,) * 10
        assert rec.stay == tuple(Fraction(2) ** k for k in range(10))
        assert rec.down == (0,) * 10

    def test_catalan_triad_weights(self):
        result = fit_banded(generate_named("catalan-triad", 10))
        assert result.fits
        rec = result.recurrence
        assert rec.up == (1,) * 10
        assert rec.stay == (2,) * 10
        # down[0] multiplies nothing and is reported as 0 by convention.
        assert rec.down == (0,) + (1,) * 9

    def test_shifted_catalan_also_fits(self):
        # The zero-padded column shifts the solved weights by one level.
        result = fit_banded(generate_named("catalan-shifted", 10))
        assert result.fits
        rec = result.recurrence
        assert rec.stay == (0,) + (2,) * 9
        assert rec.down == (0, 0) + (1,) * 8
        assert rec == banded_for_family("catalan-shifted", 9)

    def test_fibonomial_no_fit_with_witness(self):
        result = fit_banded(generate_named("fibonomial", 10))
        assert not result.fits
        assert result.column == 1
        assert result.witness == ((0, 1), (1, 1), (2, 1), (4, 1))

    def test_stirling_and_eulerian_no_fit(self):
        assert not fit_banded(generate_named("stirling1", 10)).fits
        assert not fit_banded(generate_named("eulerian", 10)).fits

    @staticmethod
    def assert_witness_inconsistent(tri, result: FitResult):
        # Substituting the witness equations back must give a linear system
        # with no solution: rank of the coefficient matrix below the rank of
        # the augmented matrix, checked by exact elimination.
        assert result.witness
        k = result.column
        rows = []
        rhs = []
        for n, kk in result.witness:
            assert kk == k
            rows.append([tri.entry(n, k - 1), tri.entry(n, k), tri.entry(n, k + 1)])
            rhs.append(tri.entry(n + 1, k))

        def rank(mat):
            mat = [row[:] for row in mat]
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

        coeff_rank = rank(rows)
        aug_rank = rank([row + [b] for row, b in zip(rows, rhs)])
        assert aug_rank == coeff_rank + 1

    def test_no_fit_witnesses_are_verified_inconsistent(self):
        for family in ("fibonomial", "stirling1", "eulerian"):
            tri = generate_named(family, 10)
            self.assert_witness_inconsistent(tri, fit_banded(tri))

    def test_witness_drops_every_equation_it_can(self):
        # u + s = 2 pivots on s, s = 1 then pins u, and s = 3 conflicts
        # through both pivots, so the tags name all three equations; but
        # s = 1 and s = 3 alone are inconsistent, so the witness drops the first.
        equations = [(0, (1, 1, 0), 2), (1, (0, 1, 0), 1), (2, (0, 1, 0), 3)]
        column = dynsys._Column()
        assert [column.add(*eq) for eq in equations] == [None, None, {0, 1, 2}]
        assert dynsys._minimal_conflict(equations, frozenset({0, 1, 2})) == [1, 2]

    def test_witness_is_minimal_on_random_columns(self):
        # Every witness is inconsistent, and dropping any one of its
        # equations (while two are left) makes it consistent.
        rng = random.Random(20261020)

        def inconsistent(chosen):
            column = dynsys._Column()
            return any(column.add(*eq) is not None for eq in chosen)

        conflicts = 0
        while conflicts < 200:
            column, equations = dynsys._Column(), []
            for tag in range(rng.randint(2, 10)):
                a = tuple(rng.choice((0, 0, 1, -1, rng.randint(-5, 5))) for _ in range(3))
                equations.append((tag, a, rng.randint(-3, 3)))
                tags = column.add(*equations[-1])
                if tags is not None:
                    break
            else:
                continue
            conflicts += 1
            witness = dynsys._minimal_conflict(equations, tags)
            chosen = [eq for eq in equations if eq[0] in witness]
            assert witness == sorted(witness) and inconsistent(chosen)
            if len(chosen) > 2:
                assert not any(inconsistent(chosen[:i] + chosen[i + 1:]) for i in range(len(chosen)))

    def test_round_trip_on_random_banded(self):
        rng = random.Random(20240815)
        for _ in range(15):
            depth = rng.randint(5, 9)
            stay = tuple(Fraction(rng.randint(-5, 5)) for _ in range(depth + 1))
            down = tuple(Fraction(rng.randint(-5, 5)) for _ in range(depth + 1))
            rec = BandedRecurrence((Fraction(1),) * (depth + 1), stay, down)
            tri = generate_from_banded(rec, depth + 1)
            result = fit_banded(tri)
            assert result.fits
            got = result.recurrence
            d = got.depth
            assert got.up == rec.up[: d + 1]
            assert got.stay == rec.stay[: d + 1]
            # down[0] is conventionally 0; the rest must match exactly.
            assert got.down[1:] == rec.down[1 : d + 1]

    def test_regeneration_matches_on_fit(self):
        # fit_banded reads its rows once, and its consistent columns prove
        # that the fitted weights regenerate them; this checks it, value for
        # value, on every banded family with weights of both signs, integral
        # and rational, growing and shrinking.
        for name, value in REGENERATION_CASES:
            for n_max in (5, 12, 40):
                rows = Triangle(FAMILIES[name].scaled_rows(value, n_max)).rows
                result = fit_banded(FAMILIES[name].scaled_rows(value, n_max))
                assert result.fits, (name, value, n_max)
                regen = generate_from_banded(result.recurrence, n_max)
                assert regen.rows == rows, (name, value, n_max)

    def test_lah_triangles_fit(self):
        roots = RootSequence.explicit([3, -1, 4, 1, -5, 9, 2, 6])
        tri = lah_from_roots(roots, 8)
        result = fit_banded(tri)
        assert result.fits
        assert result.recurrence.stay == roots.prefix(8)
        assert result.recurrence.down == (0,) * 8

    def test_pairs_over_equal_denominators(self):
        # Down weight 1/2 on Catalan's walk: rows 8 and 9 are over 8, rows 10
        # and 11 over 16, so neither row of those pairs is scaled.
        rec = BandedRecurrence.tabulate(1, 0, Fraction(1, 2), 11)
        assert [den for _, den in scaled_banded_rows(rec, 12)][8:12] == [8, 8, 16, 16]
        got = fit_banded(generate_from_banded(rec, 12)).recurrence
        assert (got.up, got.stay, got.down) == ((1,) * 12, (0,) * 12, (0,) + (Fraction(1, 2),) * 11)
        assert all(type(v) is int for v in got.up + got.stay + got.down[:1])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_banded(generate_named("pascal", 3))


# (family, value) for the regeneration check: every family that fits.
REGENERATION_CASES = [
    ("pascal", None),
    *(("q-gaussian", Fraction(q)) for q in ("2", "-2", "3", "3/2", "-3/2", "2/3", "-2/3", "5/7", "1/2")),
    ("lah", RootSequence.arithmetic(0, 1)),
    ("lah", RootSequence.arithmetic(Fraction(1, 2), 1)),
    ("lah", RootSequence.arithmetic(Fraction(-1, 2), -1)),
    ("lah", RootSequence.geometric(Fraction(1, 3), first=Fraction(1, 3))),
    ("catalan-triad", None),
    ("catalan-shifted", None),
]

# (family, q, roots) for the streamed-fit cross-check: every family, and q
# and roots of both signs, integral and rational, growing and shrinking.
FIT_CASES = [
    ("pascal", None, None),
    ("q-gaussian", 2, None),
    ("q-gaussian", -3, None),
    ("q-gaussian", Fraction(2, 3), None),
    ("q-gaussian", Fraction(-5, 2), None),
    ("q-gaussian", -1, None),
    ("catalan-shifted", None, None),
    ("catalan-triad", None, None),
    ("fibonomial", None, None),
    ("stirling1", None, None),
    ("eulerian", None, None),
    ("lah", None, RootSequence.arithmetic(0, 1)),
    ("lah", None, RootSequence.arithmetic(Fraction(1, 2), 1)),
    ("lah", None, RootSequence.geometric(Fraction(1, 3), first=Fraction(1, 3))),
    ("lah", None, RootSequence.explicit([1, -1, Fraction(5, 2)] + [-s for s in range(40)])),
    ("lah", None, RootSequence.constant(0)),
]


def _fit_outcome(result: FitResult):
    rec = result.recurrence
    return result.column, result.witness, None if rec is None else (rec.up, rec.stay, rec.down)


def _streamed(rows):
    """The rows as a Restartable that generates them afresh on each pass."""
    return Restartable(lambda: iter(rows), len(rows))


class TestStreamedFit:
    """fit_banded reads a stream of row pairs; the reference solves one whole
    column at a time over the collected triangle, as fit did before."""

    @pytest.mark.parametrize("n_max", [5, 9, 24, 40])
    @pytest.mark.parametrize("name,q,roots", FIT_CASES)
    def test_equals_column_at_a_time_route(self, name, q, roots, n_max):
        tri = generate_named(name, n_max, q=q, roots=roots)
        value = q if roots is None else roots
        source = FAMILIES[name].scaled_rows(value, n_max)
        streamed = _fit_outcome(fit_banded(source))
        assert streamed == reference_fit(tri)
        assert _fit_outcome(fit_banded(tri)) == streamed
        assert _fit_outcome(fit_banded(tri.rows)) == streamed

    def test_larger_column_failing_first(self):
        # Pascal's columns pin all three weights by row k+1.  Raising c[6][3]
        # breaks column 3 at its row-5 equation (c[6][3] is its right side)
        # and column 4 at row 6; raising c[10][1] breaks column 1 only at
        # row 9.  The smallest inconsistent column is 1 although column 3
        # failed four rows earlier.
        rows = [list(r) for r in generate_named("pascal", 14).rows]
        rows[6][3] += 1
        rows[10][1] += 1
        tri = Triangle(tuple(map(tuple, rows)))
        early = Triangle(tri.rows[:9])
        assert reference_fit(early)[0] == 3
        assert _fit_outcome(fit_banded(_streamed(early.rows))) == reference_fit(early)
        result = fit_banded(_streamed(tri.rows))
        assert result.column == 1
        assert max(n for n, _ in result.witness) == 9
        assert _fit_outcome(result) == reference_fit(tri)
        TestFitBanded.assert_witness_inconsistent(tri, result)

    def test_random_perturbations_equal_reference(self):
        # One or two entries of a random banded triangle raised: any column
        # may fail first, at any row.
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(60):
            depth = rng.randint(5, 11)
            stay = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(depth + 1))
            down = tuple(Fraction(rng.randint(-4, 4)) for _ in range(depth + 1))
            rec = BandedRecurrence((1,) * (depth + 1), stay, down)
            rows = [list(r) for r in generate_from_banded(rec, depth + 1).rows]
            for _ in range(rng.randint(1, 2)):
                n = rng.randint(2, depth + 1)
                rows[n][rng.randint(0, n - 1)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
            tri = Triangle(tuple(map(tuple, rows)))
            expected = reference_fit(tri)
            assert _fit_outcome(fit_banded(_streamed(tri.rows))) == expected
            outcomes.add(expected[0])
        assert len(outcomes) > 4

    def test_list_rows_are_checked_as_a_triangle_checks_them(self):
        tri = generate_named("pascal", 9)
        lists = [list(row) for row in tri.rows]
        assert _fit_outcome(fit_banded(lists)) == _fit_outcome(fit_banded(tri))
        assert fit_banded(lists).fits
        with pytest.raises(TypeError, match="float"):
            fit_banded(lists[:6] + [[1.0] + lists[6][1:]] + lists[7:])
        with pytest.raises(ValueError, match="row 3 has 3 entries"):
            fit_banded(lists[:3] + [lists[3][:3]] + lists[4:])
        with pytest.raises(ValueError, match="read 10 rows of a source of length 11"):
            fit_banded(Restartable(lambda: iter(lists), 11))

    @pytest.mark.parametrize("name,value,fits", [
        ("q-gaussian", Fraction(-3, 2), True),
        ("pascal", None, True),
        ("catalan-triad", None, True),
        ("lah", RootSequence.arithmetic(Fraction(1, 2), 1), True),
        ("fibonomial", None, False),
        ("stirling1", None, False),
        ("eulerian", None, False),
    ])
    def test_reads_its_source_once(self, name, value, fits):
        # A fit is proved by the pass that solves its columns, and a no-fit
        # by its witness: neither restarts the rows.
        source = Passes(FAMILIES[name].scaled_rows(value, 12))
        assert fit_banded(source).fits == fits
        assert source.count == 1

    def test_preconditions_before_any_row_is_read(self):
        with pytest.raises(ValueError, match="rows 0..4"):
            fit_banded(Restartable(lambda: iter([(2,)] * 4), 4))
        with pytest.raises(ValueError, match="seed entry"):
            fit_banded(_streamed([(2,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1)]))


class TestConvolveFibonomial:
    def test_delta_is_identity(self):
        b = [Fraction(v) for v in (3, -1, 4, 1, 5)]
        delta = [1, 0, 0, 0, 0]
        assert convolve_fibonomial(delta, b, 4) == tuple(b)

    def test_ones_give_row_sums(self):
        # Row sums of the fibonomial triangle: 1, 2, 3, 6, 14.
        sums = [sum(fibonomial(n, k) for k in range(n + 1)) for n in range(5)]
        assert sums == [1, 2, 3, 6, 14]
        assert convolve_fibonomial([1] * 5, [1] * 5, 4) == tuple(sums)

    def test_streamed_weights_match_closed_form(self):
        rng = random.Random(4)
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(31)]
        b = [rng.randint(-9, 9) for _ in range(31)]
        expected = tuple(
            sum(fibonomial(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(31)
        )
        assert convolve_fibonomial(a, b, 30) == expected

    def test_shifted_delta(self):
        delta1 = [0, 1, 0]
        out = convolve_fibonomial(delta1, delta1, 2)
        assert out == (0, 0, fibonomial(2, 1))
        assert out[2] == 1

    def test_commutative_and_bilinear(self):
        rng = random.Random(99)
        for _ in range(10):
            a = [Fraction(rng.randint(-5, 5)) for _ in range(7)]
            b = [Fraction(rng.randint(-5, 5)) for _ in range(7)]
            c = [Fraction(rng.randint(-5, 5)) for _ in range(7)]
            assert convolve_fibonomial(a, b, 6) == convolve_fibonomial(b, a, 6)
            left = convolve_fibonomial([x + y for x, y in zip(a, c)], b, 6)
            split = tuple(
                u + v
                for u, v in zip(convolve_fibonomial(a, b, 6), convolve_fibonomial(c, b, 6))
            )
            assert left == split

    def test_associativity_checked_and_reported(self, capsys):
        # Deliberately reported rather than asserted: associativity of this
        # weighted convolution is not part of the contract here.
        rng = random.Random(7)
        trials = 30
        held = 0
        for _ in range(trials):
            a = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
            b = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
            c = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
            ab_c = convolve_fibonomial(convolve_fibonomial(a, b, 5), c, 5)
            a_bc = convolve_fibonomial(a, convolve_fibonomial(b, c, 5), 5)
            held += ab_c == a_bc
        print(f"fibonomial convolution associativity held in {held}/{trials} sampled cases")
        assert len(convolve_fibonomial([1] * 6, [1] * 6, 5)) == 6

    def test_sequence_coverage_checked(self):
        with pytest.raises(ValueError):
            convolve_fibonomial([1, 2], [1, 2, 3], 2)


_PASCAL_DEPTH_3 = BandedRecurrence.tabulate(1, 1, 0, 3)
_PASCAL_ROWS = tuple(generate_named("pascal", 6).rows)
_PASCAL_PHIS = dual_polynomials(_PASCAL_DEPTH_3, 2)
_UP2_ZERO = BandedRecurrence.tabulate(lambda k: 1 if k != 2 else 0, 1, 0, 5)


@pytest.mark.parametrize("call,error,message", [
    (lambda: BandedRecurrence((1,), (1, 1), (0,)), ValueError,
     "up, stay and down must cover the same levels"),
    (lambda: BandedRecurrence.tabulate(1, 1, 0, -2), ValueError, "depth must be at least -1"),
    (lambda: scaled_banded_rows(_PASCAL_DEPTH_3, -1), ValueError, "rows must be nonnegative"),
    (lambda: iter_dual_polynomials(_PASCAL_DEPTH_3, -1), ValueError, "count must be nonnegative"),
    (lambda: iter_dual_polynomials(_PASCAL_DEPTH_3, 5), ValueError,
     "recurrence tabulated to level 3; 5 polynomials need level 4"),
    (lambda: banded_for_family("fibonomial", 3), ValueError,
     "family 'fibonomial' has no banded time-independent recurrence"),
    (lambda: StepMatrix(((1, 1), (0, 1))), ValueError, "row 1 has 2 entries, expected 3"),
    (lambda: phi_from_step_matrix(solve_step_matrix(generate_named("fibonomial", 3)), -1),
     ValueError, "count must be nonnegative"),
    (lambda: evolve((1, 0, 0, 0), BandedRecurrence.tabulate(1, 1, 0, 1), 3), ValueError,
     "transition tabulated to level 1, evolution reaches level 3"),
    (lambda: evolve((1, 0), "x", 1), TypeError, "cannot evolve with str"),
    (lambda: convolve_fibonomial((1,), (1,), -1), ValueError, "upto must be nonnegative"),
    # Cases added later carry ids, so that the ids above stay as they are.
    pytest.param(lambda: banded_step_matrix(_PASCAL_DEPTH_3, -1), ValueError,
                 "rows must be nonnegative", id="banded_step_matrix-negative"),
    pytest.param(lambda: verify_triad(_PASCAL_ROWS), ValueError,
                 "verify_triad needs phis, rec or both", id="verify_triad-no-phis-no-rec"),
    pytest.param(lambda: fit_banded(Restartable(lambda: iter([]), 6)), ValueError,
                 "a pass read 0 rows of a source of length 6", id="fit_banded-empty-pass"),
    pytest.param(lambda: fit_banded(Restartable(lambda: iter(_PASCAL_ROWS), 8)), ValueError,
                 "a pass read 7 rows of a source of length 8", id="fit_banded-short-pass"),
    # A long pass stops at its first row too many.
    pytest.param(lambda: fit_banded(Restartable(lambda: iter(_PASCAL_ROWS), 5)), ValueError,
                 "a pass read 6 rows of a source of length 5", id="fit_banded-long-pass"),
    # verify_triad over rows 0..2 with phis and rec, with rec only and with
    # phis only; each pass reads none, two or four rows.
    *(
        pytest.param(lambda read=read, given=given: verify_triad(
            Restartable(lambda: iter(_PASCAL_ROWS[:read]), 3), *given), ValueError,
            f"a pass read {read} rows of a source of length 3", id=f"verify_triad-{name}-{pass_}")
        for name, given in (
            ("phis-rec", (_PASCAL_PHIS, _PASCAL_DEPTH_3)),
            ("rec-only", (None, _PASCAL_DEPTH_3)),
            ("phis-only", (_PASCAL_PHIS,)),
        )
        for pass_, read in (("empty-pass", 0), ("short-pass", 2), ("long-pass", 4))
    ),
    pytest.param(lambda: scaled_banded_rows(_PASCAL_DEPTH_3, 6), ValueError,
                 "recurrence tabulated to level 3; 6 rows need level 5", id="scaled_banded_rows-depth"),
    pytest.param(lambda: banded_step_matrix(_PASCAL_DEPTH_3, 4), ValueError,
                 "recurrence tabulated to level 3; 5 rows need level 4",
                 id="banded_step_matrix-depth"),
    # Support 1 plus 3 steps reaches level 3, as on the recurrence itself.
    pytest.param(lambda: evolve((1, 0, 0, 0),
                                StepMatrix(banded_step_matrix(BandedRecurrence.tabulate(1, 1, 0, 1), 1)), 3),
                 ValueError, "step matrix has 2 rows, evolution reaches level 3",
                 id="evolve-step-matrix-reach"),
    # The rows follow a recurrence whose duals do not exist (up[2] = 0) or
    # are not tabulated far enough, so the certificate must not prove them:
    # the scan then asks for the duals, which cannot be made.
    pytest.param(lambda: verify_triad(generate_from_banded(_UP2_ZERO, 6), rec=_UP2_ZERO), ValueError,
                 "dual recurrence not solvable at level 2: up weight is 0",
                 id="verify_triad-rec-only-zero-up-weight"),
    pytest.param(lambda: verify_triad(generate_named("catalan-triad", 6),
                                      rec=banded_for_family("catalan-triad", 3)), ValueError,
                 "recurrence tabulated to level 3; 6 polynomials need level 5",
                 id="verify_triad-rec-only-depth"),
    pytest.param(lambda: iter_dual_polynomials(BandedRecurrence((1, 1, 0), (1, 1, 1), (0, 0, 0)), 3),
                 ValueError, "dual recurrence not solvable at level 2: up weight is 0",
                 id="iter_dual_polynomials-last-level-zero-up-weight"),
])
def test_library_preconditions(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# A parameter value for each family that takes one.
_FAMILY_VALUES = {"q-gaussian": Fraction(2), "lah": RootSequence.arithmetic(1, 1)}


@pytest.mark.parametrize("name", FAMILIES)
def test_negative_row_count_refused_first(name):
    # Every family refuses rows -1 with the words of the streams, before it
    # calls its recurrence, row stream or phi stream: each is replaced by one
    # that records its call.
    family, made = FAMILIES[name], []
    spied = Family(name, dual=family.dual, route=family.route, param=family.param, **{
        field: (lambda *args, field=field: made.append(field)) if getattr(family, field) else None
        for field in ("recurrence", "rows", "phi_rows", "step_rows")
    })
    value = _FAMILY_VALUES.get(name)
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        spied.phis(value, -1)
    with pytest.raises(ValueError, match="^rows must be nonnegative$"):
        family_step_matrix(spied, value, -1)
    assert made == []
    # The families themselves give the same errors.
    with pytest.raises(ValueError, match="^count must be nonnegative$"):
        family.phis(value, -1)
    with pytest.raises(ValueError, match="^rows must be nonnegative$"):
        family_step_matrix(family, value, -1)
