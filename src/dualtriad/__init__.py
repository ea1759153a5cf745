"""Exact Pascal-like coefficient triangles and their duality triads.

A duality triad is three things that determine each other: a triangle
recurrence for connection constants c[n][k], a dual three-term recurrence for
polynomials phi_k, and the completing identity x^n = sum_k c[n][k] phi_k(x).
This package generates the classical triangle families exactly (an int for
every integral value, a Fraction only for a true rational), constructs and
verifies their triads symbolically, and decides algorithmically whether a
triangle admits banded time-independent update weights at all.
"""

from .exact import (
    Polynomial,
    X,
    as_exact,
    exact_div,
    format_exact,
    linear_combination,
    parse_exact,
    solve_unit_lower,
)
from .sequences import (
    RootSequence,
    binomial,
    catalan_entry,
    eulerian,
    fibonacci,
    fibonomial,
    q_binomial,
    q_factorial,
    q_int,
    stirling_first,
)
from .triads import (
    BandedRecurrence,
    Triangle,
    TriadReport,
    banded_for_family,
    catalan_shifted_from_triad,
    catalan_triad_from_shifted,
    dual_polynomials,
    expand_in_basis,
    generate_from_banded,
    generate_named,
    lah_from_roots,
    persistent_root_polys,
    verify_triad,
)
from .dynsys import (
    FitResult,
    StepMatrix,
    convolve_fibonomial,
    evolve,
    fit_banded,
    invert_unipotent,
    phi_from_step_matrix,
    solve_step_matrix,
)
from .misprints import LEDGER, MisprintEntry, format_ledger
from .output import OutputDocument

__version__ = "0.1.0"

__all__ = [
    "BandedRecurrence",
    "FitResult",
    "LEDGER",
    "MisprintEntry",
    "OutputDocument",
    "Polynomial",
    "RootSequence",
    "StepMatrix",
    "Triangle",
    "TriadReport",
    "X",
    "as_exact",
    "banded_for_family",
    "binomial",
    "catalan_entry",
    "catalan_shifted_from_triad",
    "catalan_triad_from_shifted",
    "convolve_fibonomial",
    "dual_polynomials",
    "eulerian",
    "evolve",
    "exact_div",
    "expand_in_basis",
    "fibonacci",
    "fibonomial",
    "fit_banded",
    "format_exact",
    "format_ledger",
    "generate_from_banded",
    "generate_named",
    "invert_unipotent",
    "lah_from_roots",
    "linear_combination",
    "parse_exact",
    "persistent_root_polys",
    "phi_from_step_matrix",
    "q_binomial",
    "q_factorial",
    "q_int",
    "solve_step_matrix",
    "solve_unit_lower",
    "stirling_first",
    "verify_triad",
]
