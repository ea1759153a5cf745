"""Known discrepancies between published table values and exact recomputation.

The triangle families implemented here circulate in print, and a few of the
printed values do not survive exact recomputation.  Tests must never "match
the print" silently, so each known discrepancy is recorded with the published
value and the computed value side by side; the CLI prints this ledger via
--ledger.  Published values are kept as reference data only and are never
asserted anywhere.
"""

from __future__ import annotations

from ._record import Frozen


class MisprintEntry(Frozen):
    __slots__ = ("ident", "location", "published", "computed", "note")
    ident: str
    location: str
    published: str
    computed: str
    note: str
    _defaults = {"note": ""}


LEDGER: tuple[MisprintEntry, ...] = (
    MisprintEntry(
        ident="geometric-q3-row6",
        location="geometric (q-binomial) triangle, q=3, row 6, entry 3",
        published="3388",
        computed="33880",
        note="the factorial formula is the arbiter; the printed value looks "
        "like a truncated 33880",
    ),
    MisprintEntry(
        ident="geometric-q5-row6",
        location="geometric (q-binomial) triangle, q=5, row 6, entry 3",
        published="16401",
        computed="2558556",
        note="the factorial formula is the arbiter",
    ),
    MisprintEntry(
        ident="fibonomial-step-row6-col4",
        location="fibonomial one-step matrix, row 6, column 4",
        published="-100",
        computed="0",
        note="forward substitution from the fibonomial triangle is the arbiter",
    ),
    MisprintEntry(
        ident="fibonomial-eigen-sequence",
        location="fibonomial eigen recursion x*phi = F*phi, levels 2..5",
        published="phi_2 = 0, phi_3 = 1 - x, phi_4 = -(x - 1)^2, "
        "phi_5 = (2 - x)*(x - 1)^2 + 8*(x - 1)",
        computed="phi_2 = x^2 - x, phi_3 = x^3 - 2*x^2 + 1, "
        "phi_4 = x^4 - 3*x^3 + 3*x - 1, phi_5 = x^5 - 5*x^4 + 15*x^2 - 5*x - 6",
        note="the unit superdiagonal makes the monic solution unique; the "
        "published list is kept as reference only and never asserted",
    ),
    MisprintEntry(
        ident="geometric-dual-factor",
        location="dual recurrence of the geometric-root family",
        published="n*phi_n(x) = q^n*phi_n(x) + phi_{n+1}(x)",
        computed="x*phi_n(x) = q^n*phi_n(x) + phi_{n+1}(x)",
        note="consistency with the persistent-root product "
        "phi_{n+1} = (x - q^n)*phi_n forces the factor x",
    ),
    MisprintEntry(
        ident="catalan-completion-index",
        location="completion identity for the shifted Catalan triangle",
        published="x^n = sum_{1<=k<=n} binom(2n, n-k)*(k/n)*C_k(x)",
        computed="x^n = sum_k T[n][k]*C_k(x) with T the seed-1 triangle, "
        "i.e. T[n][k] = shifted entry (n+1, k+1)",
        note="the published weights already fail at n = 1 (they give x - 2); "
        "the seed-1 normalization verifies exactly at every row",
    ),
    MisprintEntry(
        ident="fibonomial-recurrence-forms",
        location="row recurrence for fibonomial coefficients",
        published="(n+1, k) = F_{k-1}*(n, k) + F_{n-k+2}*(n, k-1)  and  "
        "(n+1, k) = F_{k+1}*(n, k) + F_{n-k}*(n, k-1)",
        computed="both printed forms reproduce the factorial definition "
        "exactly (each reduces to a Fibonacci addition identity); the second "
        "form is the one used for generation",
        note="the factorial formula stays the arbiter either way",
    ),
)


# Reference data, never asserted: the published fibonomial step-matrix rows
# (row 6 disagrees with the exact solve at column 4) and the published eigen
# sequence rendered next to the computed one.
PUBLISHED_FIBONOMIAL_STEP_ROWS: tuple[tuple[int, ...], ...] = (
    (1, 1),
    (0, 0, 1),
    (0, 1, 1, 1),
    (0, 0, 2, 1, 1),
    (0, -2, 0, 6, 2, 1),
    (0, 2, -10, 0, 15, 3, 1),
    (0, 36, 16, -80, -100, 40, 5, 1),
)

COMPUTED_FIBONOMIAL_STEP_ROW_6: tuple[int, ...] = (0, 36, 16, -80, 0, 40, 5, 1)


def format_ledger() -> str:
    """Human-readable ledger text (ends with a newline)."""
    lines = ["known published-value discrepancies (published vs computed)", ""]
    for entry in LEDGER:
        lines.append(f"[{entry.ident}] {entry.location}")
        lines.append(f"  published: {entry.published}")
        lines.append(f"  computed:  {entry.computed}")
        if entry.note:
            lines.append(f"  note: {entry.note}")
        lines.append("")
    return "\n".join(lines[:-1]) + "\n"
