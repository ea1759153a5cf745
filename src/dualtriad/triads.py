"""Coefficient triangles, banded level recurrences, and duality checks.

A triangle is a lower-triangular array c[n][k] read as the state history of a
walk on levels 0, 1, 2, ...: row n + 1 follows from row n through per-level
weights for moving up one level, staying, or dropping down one.  When those
weights do not depend on the step number, the same three sequences define a
polynomial recurrence whose solutions complete the triangle to a duality
triad:

    x^n  =  sum_k  c[n][k] * phi_k(x)     exactly, for every n.

A persistent-root (generalized Lah) triangle is the banded case up = 1,
stay[k] = r_{k+1}, down = 0; Pascal (every root 1) and the q-gaussian family
(roots 1, q, q^2, ...) are root families of that kind.

This module builds triangles (from weights, from named families, from root
sequences), builds the polynomial side, converts between the two Catalan
triangle conventions, and checks the expansion identity symbolically.  Every
named family is declared once, in FAMILIES; fibonomial, stirling1 and
eulerian, whose weights depend on n, come from sequences.pascal_like_rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Any, Callable, Generic, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from ._record import Frozen
from .exact import Polynomial, Rational, Scaled, as_exact, exact_div, format_exact, linear_combination
from .sequences import RootSequence, eulerian_rows, fibonomial_rows, stirling_first_rows

LevelSpec = Union[Rational, Callable[[int], Rational], Sequence[Rational]]


def canonical_family(name: str) -> str:
    return name.strip().lower().replace("_", "-")


class Triangle(Frozen):
    """Lower-triangular array of exact entries plus family metadata.

    rows[n] holds entries k = 0..n; anything outside the triangle reads as 0
    through entry().
    """

    __slots__ = ("rows", "family", "params")
    rows: tuple[tuple[Rational, ...], ...]
    family: str
    params: tuple[tuple[str, str], ...]

    def __init__(
        self,
        rows: Iterable[Union[Sequence[Rational], Scaled]],
        family: str = "",
        params: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._set(tuple(map(Scaled.values, checked_rows(tuple(rows)))), family, params)

    @property
    def max_row(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Rational:
        if 0 <= n < len(self.rows) and 0 <= k <= n:
            return self.rows[n][k]
        return 0

    def is_unipotent(self) -> bool:
        return all(row[n] == 1 for n, row in enumerate(self.rows))

    def params_dict(self) -> dict[str, str]:
        return dict(self.params)


def checked_rows(rows: RowSource) -> Iterator[Scaled]:
    """One pass over a sized row source as Scaled vectors, one at a time: a
    Scaled row passes as it is, any other row as Scaled.of gives it, row n
    must have n + 1 entries, and the pass must read len(rows) rows.  A pass
    that goes on past them is stopped at the first row too many."""
    n = -1
    for n, row in enumerate(rows):
        if n == len(rows):
            break
        scaled = type(row) is Scaled
        width = len(row[0]) if scaled else len(row)
        if width != n + 1:
            raise ValueError(f"row {n} has {width} entries, expected {n + 1}")
        yield row if scaled else Scaled.of(row)
    if n + 1 != len(rows):
        raise ValueError(f"a pass read {n + 1} rows of a source of length {len(rows)}")


T = TypeVar("T")


class Restartable(Generic[T]):
    """A sized iterable that restarts an iterator for every pass.

    make() is called once here, so a stream that checks its arguments on
    the call (as banded_rows and iter_dual_polynomials do) raises before
    the first pass; each later pass calls make() afresh.  A pass holds only
    what one iterator holds, and length is the number of items a pass
    yields.
    """

    def __init__(self, make: Callable[[], Iterator[T]], length: int) -> None:
        self._make = make
        self._first: Optional[Iterator[T]] = make()
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[T]:
        first, self._first = self._first, None
        return first if first is not None else self._make()


# The rows 0..N of a triangle as verify_triad and fit_banded read them: a
# Triangle, its rows, or any other sized source that each pass reads afresh,
# such as a Restartable over named_rows or named_scaled_rows.  A row is a
# sequence of values or a Scaled vector.
RowSource = Union[
    Triangle,
    Sequence[Union[Sequence[Rational], Scaled]],
    Restartable[tuple[Rational, ...]],
    Restartable[Scaled],
]


def _levels(spec: LevelSpec, depth: int) -> tuple[Rational, ...]:
    if callable(spec):
        return tuple(as_exact(spec(k)) for k in range(depth + 1))
    if isinstance(spec, (int, Fraction)):
        return (as_exact(spec),) * (depth + 1)
    vals = tuple(as_exact(v) for v in spec)
    if len(vals) < depth + 1:
        raise ValueError(f"level sequence covers {len(vals)} levels, need {depth + 1}")
    return vals[: depth + 1]


class BandedRecurrence(Frozen):
    """Per-level walk weights: up[k] to level k+1, stay[k], down[k] to k-1.

    The weights are independent of the step number by construction; that time
    independence is what makes a dual polynomial sequence exist.  down[0] is
    carried for uniform indexing but never multiplies anything.
    """

    __slots__ = ("up", "stay", "down")
    up: tuple[Rational, ...]
    stay: tuple[Rational, ...]
    down: tuple[Rational, ...]

    def __init__(
        self, up: Iterable[Rational], stay: Iterable[Rational], down: Iterable[Rational]
    ) -> None:
        self._set(*(tuple(as_exact(v) for v in w) for w in (up, stay, down)))
        if not (len(self.up) == len(self.stay) == len(self.down)):
            raise ValueError("up, stay and down must cover the same levels")

    @property
    def depth(self) -> int:
        """Largest tabulated level index."""
        return len(self.up) - 1

    @classmethod
    def tabulate(
        cls, up: LevelSpec, stay: LevelSpec, down: LevelSpec, depth: int
    ) -> "BandedRecurrence":
        """Build weights for levels 0..depth from scalars, callables of the
        level, or existing sequences.  Depth -1 tabulates no level, which is
        all that row 0 alone needs."""
        if depth < -1:
            raise ValueError("depth must be at least -1")
        return cls(_levels(up, depth), _levels(stay, depth), _levels(down, depth))


class TriadReport(Frozen):
    """Outcome of a triad verification.

    holds is True iff the expansion residual vanished for every checked row;
    otherwise first_failure carries the first failing row index and the exact
    residual polynomial.  method names the proof: "certificate" when the
    banded recurrence checks of verify_triad proved every row at once,
    "brute" when each row was expanded.
    """

    __slots__ = ("verified_up_to", "holds", "first_failure", "method")
    verified_up_to: int
    holds: bool
    first_failure: Optional[tuple[int, Polynomial]]
    method: str

    def __init__(
        self,
        verified_up_to: int,
        holds: bool,
        first_failure: Optional[tuple[int, Polynomial]] = None,
        method: str = "brute",
    ) -> None:
        self._set(verified_up_to, holds, first_failure, method)


def root_recurrence(roots: RootSequence, depth: int) -> BandedRecurrence:
    """The persistent-root recurrence: up 1, stay r_{k+1} and down 0 at level k.

    Levels 0..depth read the roots r_1..r_{depth+1}; depth -1 reads none.
    """
    levels = depth + 1
    return BandedRecurrence((1,) * levels, roots.prefix(levels), (0,) * levels)


def banded_step(rec: BandedRecurrence, vec: Sequence[Rational], width: int) -> list[Rational]:
    """Row vector vec times the tridiagonal step matrix of rec, cut to width.

    Entry k is up[k-1]*vec[k-1] + stay[k]*vec[k] + down[k+1]*vec[k+1].  vec is
    at most width long, weights are read only at levels where vec is nonzero,
    and unit weights and zero down-weights cost no multiplication.
    """
    up, stay, down = rec.up, rec.stay, rec.down
    out = [(v if s == 1 else s * v) if v else v for s, v in zip(stay, vec)]
    out.extend([0] * (width - len(out)))
    for k, v in enumerate(vec):
        if v:
            if k + 1 < width:
                u = up[k]
                out[k + 1] += v if u == 1 else u * v
            if k and down[k]:
                out[k - 1] += down[k] * v
    return out


def _cleared(rec: BandedRecurrence) -> tuple[BandedRecurrence, int]:
    """The weights of rec as integers over one positive denominator D: the
    recurrence D * rec, and D.  Integer weights come back as rec and 1."""
    levels = len(rec.up)
    weights, den = Scaled.of(rec.up + rec.stay + rec.down)
    if den == 1:
        return rec, 1
    return BandedRecurrence(weights[:levels], weights[levels : 2 * levels], weights[2 * levels :]), den


def _row_step(ints: BandedRecurrence, den: int, row: Scaled, width: int) -> Scaled:
    """The banded step of row, cut to width, where ints is den times the
    recurrence: banded_step on the integers, reduced once."""
    nums, d = row
    return Scaled(banded_step(ints, nums, width), den * d)


def _check_levels(rec: BandedRecurrence, name: str, value: int, count: int, items: str) -> None:
    """Raise ValueError unless the argument name has a nonnegative value and
    rec tabulates the levels 0..count-1 that count items read."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    if rec.depth < count - 1:
        raise ValueError(
            f"recurrence tabulated to level {rec.depth}; {count} {items} need level {count - 1}"
        )


def scaled_banded_rows(rec: BandedRecurrence, rows: int) -> Iterator[Scaled]:
    """Rows 0..rows of the banded recurrence from the seed entry 1 at (0, 0),
    as Scaled vectors, one at a time, holding only the previous row.

    Row n+1 entry k is up[k-1]*c[n][k-1] + stay[k]*c[n][k] + down[k+1]*c[n][k+1].
    With nonnegative weights, c[n][k] counts the walks from level 0 that reach
    level k in n steps.  The step runs in integers on the weights cleared to
    one denominator, so integer weights give denominator 1 and no gcd.  The
    arguments are checked here, before the first row.
    """
    _check_levels(rec, "rows", rows, rows, "rows")
    ints, den = _cleared(rec)
    return accumulate(range(1, rows + 1), lambda row, n: _row_step(ints, den, row, n + 1),
                      initial=Scaled((1,)))


def banded_rows(rec: BandedRecurrence, rows: int) -> Iterator[tuple[Rational, ...]]:
    """The rows of scaled_banded_rows(rec, rows) as values."""
    return map(Scaled.values, scaled_banded_rows(rec, rows))


def generate_from_banded(
    rec: BandedRecurrence,
    rows: int,
    family: str = "banded",
    params: tuple[tuple[str, str], ...] = (),
) -> Triangle:
    """The triangle of banded_rows(rec, rows)."""
    return Triangle(rows=scaled_banded_rows(rec, rows), family=family, params=params)


_BANDED_ROUTE = "banded dual recurrence"


class Family(Frozen):
    """How one named family is built, what it takes, and where its duals are.

    recurrence maps (parameter value, depth) to the family's banded weights
    for levels 0..depth; a family without one yields its rows 0..N from
    rows(N) instead: a stream of sequences.pascal_like_rows, whose weights
    depend on the row index, holding only the previous row.  param names the
    parameter the family needs (None, "q" or "roots").  dual names the
    family whose phi sequence completes this one's triad: the duals of that
    family's recurrence, or the rows of its inverse triangle when it has no
    recurrence; None when there is no dual.  route is the line verify prints
    for that dual.
    """

    __slots__ = ("dual", "route", "param", "recurrence", "rows")
    dual: Optional[str]
    route: Optional[str]
    param: Optional[str]
    recurrence: Optional[Callable[[Any, int], BandedRecurrence]]
    rows: Optional[Callable[[int], Iterator[tuple[int, ...]]]]

    def __init__(
        self,
        dual: Optional[str],
        route: Optional[str],
        param: Optional[str] = None,
        recurrence: Optional[Callable[[Any, int], BandedRecurrence]] = None,
        rows: Optional[Callable[[int], Iterator[tuple[int, ...]]]] = None,
    ) -> None:
        self._set(dual, route, param, recurrence, rows)


FAMILIES: dict[str, Family] = {
    "pascal": Family(dual="pascal", route=_BANDED_ROUTE,
                     recurrence=lambda _, depth: root_recurrence(RootSequence.constant(1), depth)),
    "q-gaussian": Family(dual="q-gaussian", route=_BANDED_ROUTE, param="q",
                         recurrence=lambda q, depth: root_recurrence(RootSequence.geometric(q), depth)),
    # Its recurrence is catalan-triad's moved up one level: nothing stays at
    # level 0 or drops back to it.  Checked against the Catalan polynomials on
    # purpose: the printed indexing does not complete the triad (see the
    # misprint ledger), so verify reports the exact failure instead of hiding it.
    "catalan-shifted": Family(dual="catalan-triad", route=_BANDED_ROUTE + " (catalan polynomials)",
                              recurrence=lambda _, depth: BandedRecurrence.tabulate(
                                  1, lambda k: 2 if k else 0, lambda k: 1 if k > 1 else 0, depth)),
    "catalan-triad": Family(dual="catalan-triad", route=_BANDED_ROUTE,
                            recurrence=lambda _, depth: BandedRecurrence.tabulate(1, 2, 1, depth)),
    "fibonomial": Family(dual="fibonomial", route="step-matrix polynomials", rows=fibonomial_rows),
    "stirling1": Family(dual="stirling1", route="step-matrix polynomials", rows=stirling_first_rows),
    "eulerian": Family(dual=None, route=None, rows=eulerian_rows),
    "lah": Family(dual="lah", route="persistent-root polynomials", param="roots",
                  recurrence=root_recurrence),
}


def _resolve(
    family: str, q: Optional[Rational], roots: Optional[RootSequence]
) -> tuple[str, Family, Any]:
    name = canonical_family(family)
    entry = FAMILIES.get(name)
    if entry is None:
        raise ValueError(f"unknown family {family!r}")
    given = {"q": q, "roots": roots}
    for param, supplied in given.items():
        if supplied is not None and param != entry.param:
            raise ValueError(f"family {name!r} does not take the parameter {param}")
    value = given.get(entry.param)
    if entry.param is not None and value is None:
        raise ValueError(f"family {name!r} needs the parameter {entry.param}")
    return name, entry, value


def banded_for_family(
    family: str,
    depth: int,
    q: Optional[Rational] = None,
    roots: Optional[RootSequence] = None,
) -> BandedRecurrence:
    """The banded time-independent recurrence of a named family.

    The root families (pascal, q-gaussian, lah) and both Catalan triangles
    have one; fibonomial, stirling1 and eulerian provably do not (their
    update weights depend on the row index).
    """
    name, entry, value = _resolve(family, q, roots)
    if entry.recurrence is None:
        raise ValueError(f"family {name!r} has no banded time-independent recurrence")
    return entry.recurrence(value, depth)


def named_scaled_rows(
    family: str,
    rows: int,
    q: Optional[Rational] = None,
    roots: Optional[RootSequence] = None,
) -> Iterator[Scaled]:
    """Rows 0..rows of a named triangle family as Scaled vectors, one at a
    time.

    Banded families are generated by their recurrence, so that the closed
    forms in the sequences module stay an independent cross-check;
    fibonomial, stirling1 and eulerian read their row stream in sequences,
    whose widths checked_rows checks.  The arguments are checked here,
    before the first row, and only the previous row is held.
    """
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    _, entry, value = _resolve(family, q, roots)
    if entry.recurrence is None:
        return checked_rows(Restartable(lambda: map(Scaled, entry.rows(rows)), rows + 1))
    return scaled_banded_rows(entry.recurrence(value, rows - 1), rows)


def named_rows(
    family: str,
    rows: int,
    q: Optional[Rational] = None,
    roots: Optional[RootSequence] = None,
) -> Iterator[tuple[Rational, ...]]:
    """The rows of named_scaled_rows(family, rows, q, roots) as values."""
    return map(Scaled.values, named_scaled_rows(family, rows, q, roots))


def generate_named(
    family: str,
    rows: int,
    q: Optional[Rational] = None,
    roots: Optional[RootSequence] = None,
) -> Triangle:
    """The triangle of named_rows(family, rows, q, roots)."""
    # named_scaled_rows checks the arguments before q is formatted; _resolve lets
    # only a family that takes q receive one.
    stream = named_scaled_rows(family, rows, q, roots)
    params = () if q is None else (("q", format_exact(q)),)
    return Triangle(stream, family=canonical_family(family), params=params)


def lah_from_roots(
    roots: RootSequence, rows: int, params: tuple[tuple[str, str], ...] = ()
) -> Triangle:
    """Connection constants of the persistent-root basis with the given roots.

    Rows satisfy c[n+1][k] = c[n][k-1] + r_{k+1} * c[n][k] from the seed 1 at
    (0, 0); the result is unipotent.
    """
    return generate_from_banded(root_recurrence(roots, rows - 1), rows, family="lah", params=params)


def _dual_step(
    rec: BandedRecurrence, k: int, cur: Sequence[Rational], prev: Sequence[Rational]
) -> list[Rational]:
    """Coefficients of phi_{k+1} from those of phi_k (cur) and phi_{k-1}
    (prev), of any lengths: the one step of the dual recurrence,

        phi_{k+1} = (x*phi_k - stay[k]*phi_k - down[k]*phi_{k-1}) / up[k].

    up[k] must be nonzero; every coefficient made is reduced.
    """
    up, stay, down = rec.up[k], rec.stay[k], rec.down[k]
    out = [0, *cur]
    if stay:
        for j, c in enumerate(cur):
            out[j] -= stay * c
    if down:
        out.extend([0] * (len(prev) - len(out)))
        for j, c in enumerate(prev):
            out[j] -= down * c
    return out if up == 1 else [exact_div(t, up) for t in out]


def iter_dual_polynomials(rec: BandedRecurrence, count: int) -> Iterator[Polynomial]:
    """Solve the polynomial recurrence dual to a banded recurrence, yielding
    phi_0..phi_count one at a time and holding only phi_{k-1} and phi_k.

    x*phi_k = down[k]*phi_{k-1} + stay[k]*phi_k + up[k]*phi_{k+1}, with
    phi_0 = 1 and phi_{-1} = 0.  Each up[k] must be nonzero to isolate
    phi_{k+1}; deg phi_k = k follows.  The arguments and the up weights are
    checked here, before the first polynomial.  Every coefficient is reduced
    as it is made, which is what printing them needs.
    """
    _check_levels(rec, "count", count, count, "polynomials")
    for k in range(count):
        if rec.up[k] == 0:
            raise ValueError(f"dual recurrence not solvable at level {k}: up weight is 0")

    def step(
        pair: tuple[tuple[Rational, ...], Polynomial], k: int
    ) -> tuple[tuple[Rational, ...], Polynomial]:
        prev, phi = pair
        return phi.coeffs, Polynomial(_dual_step(rec, k, phi.coeffs, prev))

    # Each item is the pair (coefficients of phi_{k-1}, phi_k).
    return (phi for _, phi in accumulate(range(count), step, initial=((), Polynomial((1,)))))


def dual_polynomials(rec: BandedRecurrence, count: int) -> list[Polynomial]:
    """The polynomials of iter_dual_polynomials(rec, count), phi_0..phi_count."""
    return list(iter_dual_polynomials(rec, count))


def persistent_root_polys(roots: RootSequence, count: int) -> list[Polynomial]:
    """Monic phi_k(x) = (x - r_1)(x - r_2)...(x - r_k) for k = 0..count.

    Each polynomial keeps all roots of its predecessor, hence the name; they
    are the duals of root_recurrence(roots).
    """
    return dual_polynomials(root_recurrence(roots, count - 1), count)


def _certified(
    rows: Iterable[Scaled], rec: BandedRecurrence, phis: Optional[Iterable[Polynomial]]
) -> bool:
    """True when row 0 is the seed 1, the rows follow rec, the duals of rec
    exist for them, and the phis, if given, are those duals.

    With phi_k the duals (phi_0 = 1) and R_n = sum_k c[n][k] phi_k - x^n,
    the two recurrences give R_{n+1} = x * R_n, so R_0 = 0 makes every R_n
    vanish.  phi_{k+1} exists when rec tabulates level k with a nonzero up
    weight, so rows 0..N need that of every level k < N and no dual
    arithmetic.  One lockstep pass reads row n+1 and checks it against the
    row step of row n, holding only those two rows; the row step runs in
    integers on rec's weights cleared to one denominator and compares two
    Scaled vectors.  Given phis are read alongside: the pass then makes
    phi_{n+1} by one dual step, holding phi_{n-1} and phi_n too, and
    compares it with the given one.
    """
    ints, den = _cleared(rec)
    pairs = ((r, None) for r in rows) if phis is None else zip(rows, phis, strict=True)
    row, prev, phi = Scaled(()), (), Polynomial((1,))
    for n, (nxt_row, given) in enumerate(pairs):
        if n == 0:
            if nxt_row != Scaled((1,)):  # c[0][0] * phi_0 = 1
                return False
        else:
            k = n - 1
            # A zero up weight leaves phi_{k+1} undefined.
            if rec.depth < k or not rec.up[k] or _row_step(ints, den, row, n + 1) != nxt_row:
                return False
            if given is not None:
                prev, phi = phi.coeffs, Polynomial(_dual_step(rec, k, phi.coeffs, prev))
        if given is not None and given != phi:
            return False
        row = nxt_row
    return True


def verify_triad(
    rows: RowSource,
    phis: Optional[Union[Sequence[Polynomial], Restartable[Polynomial]]] = None,
    rec: Optional[BandedRecurrence] = None,
) -> TriadReport:
    """Check x^n = sum_k c[n][k] * phi_k(x) symbolically for every row.

    rows is a RowSource of rows 0..N: a Triangle, its rows, or a
    Restartable over a row generator; each pass reads them through
    checked_rows.  phis holds the Polynomials phi_0..phi_N, as a sequence or
    a Restartable; each pass reads it in lockstep with the rows, so the
    certificate never holds a restartable pair whole.

    rec is the banded recurrence the caller says the rows follow, and whose
    duals the phis are; without phis, its duals are the phis.  Given rec,
    the identity is first certified for every row at once in O(N^2):
    c[0][0] = 1, each row is the banded step of the one before, and rec
    tabulates every level k < N with a nonzero up weight, so that phi_0 = 1
    and x*phi_k = down[k]*phi_{k-1} + stay[k]*phi_k + up[k]*phi_{k+1} define
    phi_1..phi_N.  Without phis that is the whole proof and no dual is made;
    given phis, the certificate makes phi_1..phi_N and compares each with
    the given one.  The row checks run on Scaled vectors, so rational
    families pay one gcd per row rather than per operation, and Scaled rows
    (named_scaled_rows) pass to them as they are.  If rec is absent or any
    check fails, a fresh pass expands every row (O(N^3)) in the phis, or in
    iter_dual_polynomials(rec, N) without them, holding the phis read so
    far; the residual is computed exactly, and the pass stops at the first
    failing row, whose index and residual polynomial the report carries as
    a concrete counterexample.
    """
    if isinstance(rows, Triangle):
        rows = rows.rows
    top = len(rows) - 1
    if phis is None:
        if rec is None:
            raise ValueError("verify_triad needs phis, rec or both")
    elif len(phis) != top + 1:
        raise ValueError(f"{len(phis)} polynomials for rows 0..{top}; counts must match")
    if rec is not None and _certified(checked_rows(rows), rec, phis):
        return TriadReport(top, True, None, "certificate")
    seen: list[Polynomial] = []
    duals = iter_dual_polynomials(rec, top) if phis is None else phis
    for n, (row, phi) in enumerate(zip(checked_rows(rows), duals, strict=True)):
        seen.append(phi)
        residual = linear_combination(row.values(), seen) - Polynomial.monomial(n)
        if residual:
            return TriadReport(top, False, (n, residual))
    return TriadReport(top, True, None)


def expand_in_basis(p: Polynomial, phis: Sequence[Polynomial]) -> list[Rational]:
    """Coefficients a_k with p = sum a_k phi_k, by back-substitution.

    Requires deg phi_k = k for every k up to deg p (graded basis); the
    returned list has deg p + 1 entries, empty for the zero polynomial.
    """
    deg = p.degree
    if deg < 0:
        return []
    if len(phis) < deg + 1:
        raise ValueError(f"basis covers {len(phis)} levels, need {deg + 1}")
    for k in range(deg + 1):
        if phis[k].degree != k:
            raise ValueError(f"basis polynomial {k} must have degree {k}")
    coeffs: list[Rational] = [0] * (deg + 1)
    rest = p
    for k in range(deg, -1, -1):
        c = exact_div(rest.coefficient(k), phis[k].leading)
        coeffs[k] = c
        if c:
            rest = rest - c * phis[k]
    if rest:  # pragma: no cover - eliminated degree by degree
        raise ArithmeticError("back-substitution left a nonzero remainder")
    return coeffs


def catalan_triad_from_shifted(tri: Triangle) -> Triangle:
    """Drop the zero column and the seed row of the shifted Catalan triangle.

    Entry (n, k) of the result is entry (n+1, k+1) of the input; the result
    is the triangle whose rows complete the triad with the Catalan
    polynomials.
    """
    if tri.max_row < 1:
        raise ValueError("need at least rows 0..1 to unshift")
    rows = tuple(
        tuple(tri.rows[n + 1][k + 1] for k in range(n + 1))
        for n in range(tri.max_row)
    )
    return Triangle(rows, family="catalan-triad")


def catalan_shifted_from_triad(tri: Triangle) -> Triangle:
    """Inverse of catalan_triad_from_shifted: prepend the zero column and the
    bare seed row."""
    rows = [(1,)]
    for n in range(tri.max_row + 1):
        rows.append((0,) + tri.rows[n])
    return Triangle(tuple(rows), family="catalan-shifted")
