"""The discrete-time view: one-step transition matrices for triangles.

Reading triangle rows as states of a walk, the row shift E (which maps row n
to row n+1) factors through a single matrix F with C F = E C, so that
C F^n = E^n C.  For a unipotent triangle F = C^{-1} E C is unique, lower
Hessenberg with a unit superdiagonal, and found by forward substitution.
Its eigen-style recursion x*phi = F*phi yields the phi whose coefficient
rows are the rows of C^{-1}, which one inversion gives directly: the basis
in which x^n expands with the triangle's own rows as coefficients.  A banded
recurrence with unit up weights is the F of its triangle, so its duals are
that triangle's phi.

This module also decides, exactly, whether a triangle admits banded
time-independent update weights at all (fit_banded), and carries the weighted
convolution built from fibonomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .exact import Polynomial, Rational, as_exact, exact_div, forward_substitute
from .triads import BandedRecurrence, Triangle, banded_step, fibonomial_rows, generate_from_banded


@dataclass(frozen=True)
class StepMatrix:
    """Lower-Hessenberg truncation of a one-step transition matrix.

    Row n spans columns 0..n+1; everything above the superdiagonal is zero.
    Entry (k, l) of the n-th power counts the weighted walks from level k to
    level l in n steps.
    """

    rows: tuple[tuple[Rational, ...], ...]

    def __post_init__(self) -> None:
        coerced = []
        for n, row in enumerate(self.rows):
            if len(row) != n + 2:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 2}")
            coerced.append(tuple(as_exact(v) for v in row))
        object.__setattr__(self, "rows", tuple(coerced))

    @property
    def row_count(self) -> int:
        return len(self.rows)


def _require_unipotent(tri: Triangle) -> None:
    if not tri.is_unipotent():
        raise ValueError("step matrix requires a unipotent triangle (unit diagonal)")


def solve_step_matrix(tri: Triangle) -> StepMatrix:
    """Solve C F = (row shift of C) by forward substitution.

    A triangle with rows 0..N yields F rows 0..N-1; each row of the product
    C F is checked against the shifted triangle implicitly by construction.
    Requires a unipotent triangle.
    """
    _require_unipotent(tri)
    if tri.max_row < 1:
        raise ValueError("need at least rows 0..1 to solve for a step matrix")
    return StepMatrix(tuple(forward_substitute(tri.rows, tri.rows[1:])))


def phi_from_step_matrix(
    sm: StepMatrix, count: Optional[int] = None
) -> list[Polynomial]:
    """Solve x*phi_n = sum_l F[n][l]*phi_l upward from phi_0 = 1.

    Needs a unit superdiagonal so phi_{n+1} isolates; each phi_n comes out
    monic of degree n.  Returns phi_0..phi_count (count defaults to the
    number of available rows).
    """
    if count is None:
        count = sm.row_count
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > sm.row_count:
        raise ValueError(f"{count} polynomials need {count} rows, have {sm.row_count}")
    phis = [Polynomial((1,))]
    for n in range(count):
        row = sm.rows[n]
        if row[n + 1] != 1:
            raise ValueError(f"non-unit superdiagonal at row {n}: {row[n + 1]}")
        # Coefficients of x*phi_n - sum_l F[n][l]*phi_l, in one pass each.
        nxt = [0, *phis[n].coeffs]
        for l in range(n + 1):
            f = row[l]
            if f:
                for j, c in enumerate(phis[l].coeffs):
                    nxt[j] -= f * c
        phis.append(Polynomial(nxt))
    return phis


def invert_unipotent(tri: Triangle) -> Triangle:
    """Exact inverse of a unipotent triangle; row n holds the coefficients of
    the degree-n basis polynomial dual to the triangle's expansion."""
    _require_unipotent(tri)
    units = [(0,) * n + (1,) for n in range(tri.max_row + 1)]
    inv = forward_substitute(tri.rows, units)
    family = f"{tri.family}-inverse" if tri.family else "inverse"
    return Triangle(tuple(inv), family=family, params=tri.params)


def evolve(
    state: Sequence[Rational],
    transition: Union[BandedRecurrence, StepMatrix],
    steps: int,
) -> tuple[Rational, ...]:
    """Apply a transition matrix to a row vector a given number of times.

    The vector's length is the truncation window.  Each step can widen the
    support by one index, so the window must hold the initial support plus
    one slot per step; anything narrower would silently drop mass and is
    refused instead.
    """
    vec = [as_exact(v) for v in state]
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return tuple(vec)
    support = max((j + 1 for j, v in enumerate(vec) if v), default=0)
    if len(vec) < support + steps:
        raise ValueError(
            f"window too narrow: width {len(vec)} cannot hold {support} initial "
            f"entries plus {steps} steps without truncation"
        )
    reach = support + steps - 1  # largest level index that can be touched
    if isinstance(transition, BandedRecurrence):
        if transition.depth < reach:
            raise ValueError(
                f"transition tabulated to level {transition.depth}, evolution reaches level {reach}"
            )
        for _ in range(steps):
            vec = banded_step(transition, vec, len(vec))
        return tuple(map(as_exact, vec))
    if isinstance(transition, StepMatrix):
        if transition.row_count < reach:
            raise ValueError(
                f"step matrix has {transition.row_count} rows, evolution reaches level {reach - 1}"
            )
        for _ in range(steps):
            nxt: list[Rational] = [0] * len(vec)
            for j, v in enumerate(vec):
                if not v:
                    continue
                for l, f in enumerate(transition.rows[j]):
                    if f:
                        nxt[l] += v * f
            vec = nxt
        return tuple(map(as_exact, vec))
    raise TypeError(f"cannot evolve with {type(transition).__name__}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of the banded-fit decision.

    On a fit, recurrence regenerates the triangle exactly.  Otherwise witness
    lists (row, column) index pairs whose update equations are jointly
    inconsistent - substituting them back gives a linear system with no
    solution, which is an exact certificate that no time-independent weights
    exist.
    """

    recurrence: Optional[BandedRecurrence]
    column: Optional[int] = None
    witness: tuple[tuple[int, int], ...] = ()

    @property
    def fits(self) -> bool:
        return self.recurrence is not None


_PIVOT_ORDER = (1, 0, 2)  # prefer pinning stay, then up, then down


def _eliminate(
    equations: Sequence[tuple[int, tuple[Rational, Rational, Rational], Rational]],
) -> tuple[Optional[tuple[Rational, Rational, Rational]], Optional[frozenset[int]]]:
    """Exact Gaussian elimination on a 3-unknown column system.

    Returns (solution, None) with free unknowns set to 0, or (None, tags)
    where tags are the row indices of equations combining to 0 = nonzero.
    """
    pivots: list[tuple[int, list[Rational], Rational, frozenset[int]]] = []
    for tag, a, b in equations:
        coeffs = list(a)
        rhs = b
        tags = frozenset((tag,))
        for var, pc, pr, pt in pivots:
            factor = coeffs[var]
            if factor:
                coeffs = [c - factor * d for c, d in zip(coeffs, pc)]
                rhs -= factor * pr
                tags |= pt
        var = next((v for v in _PIVOT_ORDER if coeffs[v]), None)
        if var is None:
            if rhs:
                return None, tags
            continue
        pivot = coeffs[var]
        pivots.append(
            (var, [exact_div(c, pivot) for c in coeffs], exact_div(rhs, pivot), tags)
        )
    solution: list[Rational] = [0] * 3
    for var, coeffs, rhs, _ in reversed(pivots):
        solution[var] = rhs - sum(
            coeffs[v] * solution[v] for v in range(3) if v != var
        )
    return (solution[0], solution[1], solution[2]), None


def _column_equations(
    tri: Triangle, k: int
) -> list[tuple[int, tuple[Rational, Rational, Rational], Rational]]:
    # Unknowns per column k: (up[k-1], stay[k], down[k+1]).
    eqs = []
    for n in range(max(k - 1, 0), tri.max_row):
        a = (tri.entry(n, k - 1), tri.entry(n, k), tri.entry(n, k + 1))
        eqs.append((n, a, tri.entry(n + 1, k)))
    return eqs


def _minimal_conflict(
    equations: Sequence[tuple[int, tuple[Rational, Rational, Rational], Rational]],
    tags: frozenset[int],
) -> list[int]:
    by_tag = {tag: (tag, a, b) for tag, a, b in equations}
    current = sorted(tags)

    def inconsistent(subset: Sequence[int]) -> bool:
        solution, _ = _eliminate([by_tag[t] for t in subset])
        return solution is None

    changed = True
    while changed:
        changed = False
        for t in list(current):
            trial = [x for x in current if x != t]
            if len(trial) >= 2 and inconsistent(trial):
                current = trial
                changed = True
                break
    return current


def fit_banded(tri: Triangle) -> FitResult:
    """Decide whether time-independent banded weights reproduce the triangle.

    For each column k the update equations over all available rows are solved
    exactly for the three weights touching that column; underdetermined
    columns take the minimal-support solution (down weight 0 first, then up).
    A fit is returned only if every column is consistent and regeneration
    from the fitted weights reproduces the triangle entry for entry;
    otherwise the witness carries a minimal inconsistent equation set.
    """
    n_max = tri.max_row
    if n_max < 4:
        raise ValueError("need rows 0..4 at least to overdetermine the fit")
    if tri.rows[0][0] != 1:
        raise ValueError("fit requires the seed entry 1 at (0, 0)")
    up: list[Rational] = [0] * n_max
    stay: list[Rational] = [0] * n_max
    down: list[Rational] = [0] * n_max
    for k in range(n_max + 1):
        eqs = _column_equations(tri, k)
        solution, tags = _eliminate(eqs)
        if solution is None:
            witness = tuple((n, k) for n in _minimal_conflict(eqs, tags))
            return FitResult(None, column=k, witness=witness)
        up_km1, stay_k, down_kp1 = solution
        if 1 <= k:
            up[k - 1] = up_km1
        if k <= n_max - 1:
            stay[k] = stay_k
        if k + 1 <= n_max - 1:
            down[k + 1] = down_kp1
    rec = BandedRecurrence(tuple(up), tuple(stay), tuple(down))
    regen = generate_from_banded(rec, n_max)
    if regen.rows != tri.rows:  # pragma: no cover - consistency implies regeneration
        raise ArithmeticError("consistent column fits failed to regenerate the triangle")
    return FitResult(rec)


def convolve_fibonomial(
    a: Sequence[Rational], b: Sequence[Rational], upto: int
) -> tuple[Rational, ...]:
    """Weighted convolution c_n = sum_k fibonomial(n, k) * a_k * b_{n-k}.

    Both sequences must cover indices 0..upto.  Bilinear and commutative by
    the symmetry of the weights, which come one row at a time from the
    fibonomial row recurrence.
    """
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    if len(a) < upto + 1 or len(b) < upto + 1:
        raise ValueError(f"sequences must cover indices 0..{upto}")
    av = [as_exact(v) for v in a[: upto + 1]]
    bv = [as_exact(v) for v in b[: upto + 1]]
    out = []
    for n, weights in enumerate(fibonomial_rows(upto)):
        total = 0
        for k, w in enumerate(weights):
            if av[k] and bv[n - k]:
                total += w * av[k] * bv[n - k]
        out.append(as_exact(total))
    return tuple(out)
