"""Exact Pascal-like coefficient triangles and their duality triads.

A duality triad is three things that determine each other: a triangle
recurrence for connection constants c[n][k], a dual three-term recurrence for
polynomials phi_k, and the completing identity x^n = sum_k c[n][k] phi_k(x).
This package generates the classical triangle families exactly (an int for
every integral value, a Fraction only for a true rational), constructs and
verifies their triads symbolically, and decides algorithmically whether a
triangle admits banded time-independent update weights at all.
"""

import importlib

__version__ = "0.1.0"

# The public names by defining module.  Nothing is imported here: a name or a
# submodule is imported on its first use (PEP 562), so a command pays only
# for the modules it runs.
_EXPORTS = {
    "exact": ("Polynomial", "X", "as_exact", "exact_div", "format_exact",
              "linear_combination", "parse_exact", "solve_unit_lower"),
    "sequences": ("RootSequence", "binomial", "catalan_entry", "eulerian", "fibonacci",
                  "fibonomial", "q_binomial", "q_factorial", "q_int", "stirling_first"),
    "triads": ("BandedRecurrence", "Triangle", "TriadReport", "banded_for_family",
               "catalan_shifted_from_triad", "catalan_triad_from_shifted", "dual_polynomials",
               "expand_in_basis", "generate_from_banded", "generate_named", "lah_from_roots",
               "persistent_root_polys", "verify_triad"),
    "dynsys": ("FitResult", "StepMatrix", "convolve_fibonomial", "evolve", "fit_banded",
               "invert_unipotent", "phi_from_step_matrix", "solve_step_matrix"),
    "misprints": ("LEDGER", "MisprintEntry", "format_ledger"),
    "output": ("OutputDocument",),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
