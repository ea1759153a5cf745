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

This module streams a family's rows and its phi as coefficient rows, and
proves the expansion identity.  Every named family is declared once, in
FAMILIES; fibonomial, stirling1 and eulerian, whose weights depend on n,
come from sequences.pascal_like_rows, and the first two read their phi and
F off their structure.  The collecting builders are in reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, repeat
from typing import (TYPE_CHECKING, Any, Callable, Collection, Generic, Iterable, Iterator, Optional, Sequence,
                    TypeVar, Union)

from . import _forward
from ._record import Frozen
from .exact import Rational, Scaled, as_exact, exact_div
from .sequences import (RootSequence, eulerian_rows, fibonomial_inverse_rows, fibonomial_proof, fibonomial_rows,
                        fibonomial_step_rows, q_binomial_inverse_rows, stirling_first_proof, stirling_first_rows,
                        stirling_first_step_rows)

if TYPE_CHECKING:
    from .polynomial import Polynomial

# Only perfbench/tracing.py reads these names here; they go once it wraps each at its home.
__getattr__ = _forward(__name__, reference="generate_named generate_from_banded lah_from_roots "
                       "dual_polynomials persistent_root_polys")

LevelSpec = Union[Rational, Callable[[int], Rational], Sequence[Rational]]
RowStream = Callable[[int], Iterator[tuple[int, ...]]]


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
    """A sized iterable that makes a fresh iterator for every pass.

    Each pass calls make() when it starts, so a stream that checks its
    arguments on the call (as scaled_banded_rows and iter_dual_polynomials do)
    raises there, before the pass reads an item.  A pass holds only what
    one iterator holds, and length, which len() reads without a pass, is
    the number of items a pass yields.
    """

    def __init__(self, make: Callable[[], Iterator[T]], length: int) -> None:
        self._make = make
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[T]:
        return self._make()


# The rows 0..N of a triangle as verify_triad and fit_banded read them, each
# proof in one pass: a sized iterable (a Triangle, its rows, a Family's
# scaled_rows), whose rows are sequences of values or Scaled vectors.
RowSource = Collection


def _levels(spec: LevelSpec, depth: int) -> tuple[Rational, ...]:
    if callable(spec):
        return tuple(map(as_exact, map(spec, range(depth + 1))))
    if isinstance(spec, (int, Fraction)):
        return (as_exact(spec),) * (depth + 1)
    vals = tuple(map(as_exact, spec))
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
        super().__init__(*(tuple(map(as_exact, w)) for w in (up, stay, down)))
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
    _defaults = {"first_failure": None, "method": "brute"}


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
    recurrence D * rec, and D.  Integer weights give D = 1."""
    levels = len(rec.up)
    weights, den = Scaled.of(rec.up + rec.stay + rec.down)
    return BandedRecurrence(weights[:levels], weights[levels : 2 * levels], weights[2 * levels :]), den


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
    return accumulate(range(1, rows + 1),
                      lambda row, n: Scaled(banded_step(ints, row[0], n + 1), den * row[1]),
                      initial=Scaled((1,)))


_BANDED_ROUTE = "banded dual recurrence"
_NOT_UNIPOTENT = "step matrix requires a unipotent triangle (unit diagonal)"


class Family(Frozen):
    """How one named family is built, what it takes, and where its duals are.

    name is the family's key in FAMILIES; any other field is None unless
    given.  recurrence maps (parameter value, depth) to the family's banded
    weights for levels 0..depth, whose duals are its phi.  A family without
    one yields its rows 0..N from rows(N), a stream of pascal_like_rows,
    which fixes each row's width, and if unipotent its F from step_rows(N).
    phi_rows maps (parameter value, N) to the coefficients of phi_0..phi_N,
    the rows of the inverse; None when the family is not unipotent, or when
    phis reads the duals of its recurrence (q-gaussian has both, and its
    phi_rows streams those duals by Gauss's closed form).  Both read its
    structure; scaled_rows and phis stream either route.  param names the
    parameter the family needs ("q" or "roots").  dual names the family
    whose phi completes this one's triad, and route is the line verify
    prints.  proof(rows, phis, N), for a family whose dual has no
    recurrence, says in O(N^2) whether the Scaled rows 0..N and the dual's
    phi_0..phi_N, read in lockstep, complete the triad
    (sequences.fibonomial_proof and stirling_first_proof).  The recurrences
    decide the routes, so that no command branches on them: verify proves
    the triad by the certificate on the dual's or by the family's proof, and
    only a failing verify expands rows; dynsys.family_step_matrix streams F
    off the recurrence or step_rows.
    """

    __slots__ = tuple("name dual route param recurrence rows phi_rows step_rows proof".split())
    name: str
    dual: Optional[str]
    route: Optional[str]
    param: Optional[str]
    recurrence: Optional[Callable[[Any, int], BandedRecurrence]]
    rows: Optional[RowStream]
    phi_rows: Optional[Callable[[Any, int], Iterator[tuple[Rational, ...]]]]
    step_rows: Optional[RowStream]
    proof: Optional[Callable[..., bool]]
    _defaults = dict.fromkeys(__slots__[1:])

    def scaled_rows(self, value: Any, rows: int) -> Restartable[Scaled]:
        """Rows 0..rows as Scaled vectors, made afresh on each pass; value is
        the family's parameter (None when it takes none).

        A banded family's rows come from its recurrence; only the tests
        compare them with the closed forms in the sequences module, which no
        command reads.  The others read their row stream.  The row count is
        checked and the recurrence tabulated here; each pass makes its
        stream when it starts and holds only the previous row.
        """
        if rows < 0:
            raise ValueError("rows must be nonnegative")
        if self.recurrence is None:
            return Restartable(lambda: map(Scaled, self.rows(rows)), rows + 1)
        return Restartable(partial(scaled_banded_rows, self.recurrence(value, rows - 1), rows), rows + 1)

    def phis(self, value: Any, rows: int) -> Iterator[tuple[Rational, ...]]:
        """The coefficients of phi_0..phi_rows, one row per phi: the phi_rows
        stream, or else the duals of the recurrence.  No phi is zero: phi_k
        has degree k."""
        if rows < 0:
            raise ValueError("count must be nonnegative")
        if self.phi_rows is not None:
            return self.phi_rows(value, rows)
        if self.recurrence is None:
            raise ValueError(_NOT_UNIPOTENT)
        return iter_dual_polynomials(self.recurrence(value, rows - 1), rows)

    def verify(self, value: Any, rows: int) -> TriadReport:
        """The TriadReport of rows 0..rows against the phi of the dual family,
        which must exist: verify_triad's certificate on the dual's recurrence,
        or else the family's own proof over one pass of its rows and of the
        dual's phi stream.  Only a failed proof expands the rows, as verify_triad's brute
        scan does, in a second pass of both streams that stops at the first failing row.
        A family with no dual is refused before a row is made."""
        dual = FAMILIES.get(self.dual)
        if dual is None:
            raise ValueError(f"family {self.name} admits no dual construction "
                             "(not unipotent and no banded recurrence)")
        source = self.scaled_rows(value, rows)
        if dual.recurrence is not None:
            return verify_triad(source, None, dual.recurrence(value, rows - 1))
        if self.proof(checked_rows(source), dual.phis(value, rows), rows):
            return TriadReport(rows, True, None, "certificate")
        from .polynomial import Polynomial, first_residual

        failure = first_residual(zip(checked_rows(source), map(Polynomial, dual.phis(value, rows)), strict=True), 0, ())
        return TriadReport(rows, failure is None, failure)


_LAH_FROM_ZERO = partial(root_recurrence, RootSequence.arithmetic(0, -1))
FAMILIES: dict[str, Family] = {family.name: family for family in (
    Family("pascal", dual="pascal", route=_BANDED_ROUTE,
           recurrence=lambda _, depth: root_recurrence(RootSequence.constant(1), depth)),
    Family("q-gaussian", dual="q-gaussian", route=_BANDED_ROUTE, param="q",
           recurrence=lambda q, depth: root_recurrence(RootSequence.geometric(q), depth),
           phi_rows=q_binomial_inverse_rows),
    # Its recurrence is catalan-triad's moved up one level: nothing stays at
    # level 0 or drops back to it.  Checked against the Catalan polynomials on
    # purpose: the printed indexing does not complete the triad (see the
    # misprint ledger), so verify reports the exact failure instead of hiding it.
    Family("catalan-shifted", dual="catalan-triad", route=_BANDED_ROUTE + " (catalan polynomials)",
           recurrence=lambda _, depth: BandedRecurrence.tabulate(
               1, (0,) + (2,) * depth, (0, 0) + (1,) * depth, depth)),
    Family("catalan-triad", dual="catalan-triad", route=_BANDED_ROUTE,
           recurrence=lambda _, depth: BandedRecurrence.tabulate(1, 2, 1, depth)),
    Family("fibonomial", dual="fibonomial", route="step-matrix polynomials", rows=fibonomial_rows,
           phi_rows=lambda _, rows: fibonomial_inverse_rows(rows), step_rows=fibonomial_step_rows,
           proof=fibonomial_proof),
    # The lah triad with roots 0, -1, -2, ... with its sides swapped: its duals
    # x(x + 1)...(x + k - 1) have these rows as coefficients; its rows are the phi.
    Family("stirling1", dual="stirling1", route="step-matrix polynomials", rows=stirling_first_rows,
           phi_rows=lambda _, rows: map(Scaled.values, scaled_banded_rows(_LAH_FROM_ZERO(rows - 1), rows)),
           step_rows=stirling_first_step_rows, proof=lambda rows, phis, n: stirling_first_proof(
               rows, phis, iter_dual_polynomials(_LAH_FROM_ZERO(n - 1), n),
               scaled_banded_rows(_LAH_FROM_ZERO(n - 1), n))),
    Family("eulerian", rows=eulerian_rows),
    Family("lah", dual="lah", route="persistent-root polynomials", param="roots",
           recurrence=root_recurrence),
)}


def _dual_step(
    rec: BandedRecurrence, k: int, cur: Sequence[Rational], prev: Sequence[Rational]
) -> tuple[Rational, ...]:
    """Coefficients of phi_{k+1} from those of phi_k (cur) and phi_{k-1}
    (prev), of any lengths: the one step of the dual recurrence,

        phi_{k+1} = (x*phi_k - stay[k]*phi_k - down[k]*phi_{k-1}) / up[k].

    up[k] must be nonzero; every coefficient made is reduced, an int when
    integral.
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
    return tuple(map(as_exact, out)) if up == 1 else tuple([exact_div(t, up) for t in out])


def iter_dual_polynomials(rec: BandedRecurrence, count: int) -> Iterator[tuple[Rational, ...]]:
    """Solve the polynomial recurrence dual to a banded recurrence, yielding
    the coefficients of phi_0..phi_count, ascending in the power of x, one
    at a time and holding only phi_{k-1} and phi_k.

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

    def duals() -> Iterator[tuple[Rational, ...]]:
        prev, phi = (), (1,)
        yield phi
        for k in range(count):
            prev, phi = phi, _dual_step(rec, k, phi, prev)
            yield phi

    return duals()


def verify_triad(
    rows: RowSource,
    phis: Optional[Union[Sequence[Polynomial], Restartable[Polynomial]]] = None,
    rec: Optional[BandedRecurrence] = None,
) -> TriadReport:
    """Check x^n = sum_k c[n][k] * phi_k(x) symbolically for every row.

    rows is a RowSource of rows 0..N, read once through checked_rows.  phis
    holds the Polynomials phi_0..phi_N, as a sequence or a Restartable, read
    once in lockstep with the rows, so neither is held whole.

    rec is the banded recurrence the caller says the rows follow, and whose
    duals the phis are; without phis, its duals are the phis.  Given rec,
    the identity is first proved for every row at once in O(N^2): when rec
    tabulates every level k < N with a nonzero up weight, the duals exist,
    and the rows follow rec (each row is row n of scaled_banded_rows(rec, N),
    so c[0][0] = 1 and each row is the banded step of the one before) and
    the phis, if given, are those duals, then every row holds.  Without phis
    no dual is made.  The row checks run on Scaled vectors, so rational
    families pay one gcd per row rather than per operation.  Without rec,
    or with one that cannot certify, the pass expands every row (O(N^3),
    polynomial.first_residual) in the phis, or in rec's duals without them;
    if a check fails at row n, the pass expands from row n on, with
    phi_0..phi_{n-1} taken from rec's duals, which the checks showed the
    given phis equal.  The report carries the first failing row's index and
    exact residual.  Only the expansion loads polynomial, and no passing
    verify command expands a row.
    """
    top = len(rows) - 1
    if phis is None:
        if rec is None:
            raise ValueError("verify_triad needs phis, rec or both")
    elif len(phis) != top + 1:
        raise ValueError(f"{len(phis)} polynomials for rows 0..{top}; counts must match")
    stream = checked_rows(rows)
    pairs = zip(stream, repeat(None)) if phis is None else zip(stream, phis, strict=True)
    # phi_0 = 1 and x*phi_k = down[k]*phi_{k-1} + stay[k]*phi_k + up[k]*phi_{k+1}
    # define phi_1..phi_N when up[k] != 0 for k < N.  With R_n = sum_k c[n][k]
    # phi_k - x^n, rows that follow rec give R_{n+1} = x * R_n, so R_0 = 0
    # makes every R_n vanish; rows and phis that first leave rec at n make
    # R_0..R_{n-1} vanish, so the expansion starts at row n.
    start = 0
    if rec is not None and rec.depth >= top - 1 and all(rec.up[k] for k in range(top)):
        steps = scaled_banded_rows(rec, max(top, 0))
        duals = iter_dual_polynomials(rec, top) if phis else None  # none to make when top is -1
        for start, (row, phi) in enumerate(pairs):
            if row != next(steps) or (phi is not None and phi.coeffs != next(duals)):
                pairs = chain([(row, phi)], pairs)
                break
        else:
            return TriadReport(top, True, None, "certificate")
    from .polynomial import first_residual

    failure = first_residual(pairs, start, iter_dual_polynomials(rec, top) if phis is None or start else ())
    return TriadReport(top, failure is None, failure)
