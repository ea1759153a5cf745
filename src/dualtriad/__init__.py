"""Exact Pascal-like coefficient triangles and their duality triads.

A duality triad is three things that determine each other: a triangle
recurrence for connection constants c[n][k], a dual three-term recurrence for
polynomials phi_k, and the completing identity x^n = sum_k c[n][k] phi_k(x).
This package generates the classical triangle families exactly (an int for
every integral value, a Fraction only for a true rational), constructs and
verifies their triads symbolically, and decides algorithmically whether a
triangle admits banded time-independent update weights at all.

A command loads cli, exact, sequences, triads, dynsys and output.  Every
verify proves its triad in O(N^2), and only a failing one expands rows, to
report the first failing row, and loads polynomial; no command loads
reference, the collecting builders, closed forms and dense solves that the
tests check the streams against.
"""

import importlib

__version__ = "0.1.0"

# The public names by defining module.  Nothing is imported here: a name or a
# submodule is imported on its first use (PEP 562), so a command pays only
# for the modules it runs.
_EXPORTS = {
    "exact": "as_exact exact_div format_exact",
    "polynomial": "Polynomial X linear_combination",
    "sequences": "RootSequence fibonacci",
    "triads": "BandedRecurrence TriadReport verify_triad",
    "dynsys": "FitResult StepMatrix convolve_fibonomial fit_banded",
    "misprints": "LEDGER MisprintEntry format_ledger",
    "reference": "OutputDocument Triangle banded_for_family binomial catalan_entry catalan_shifted_from_triad "
                 "catalan_triad_from_shifted dual_polynomials eulerian evolve expand_in_basis fibonomial "
                 "generate_from_banded generate_named invert_unipotent lah_from_roots parse_exact "
                 "persistent_root_polys phi_from_step_matrix q_binomial q_factorial q_int solve_step_matrix "
                 "solve_unit_lower stirling_first",
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "output"}

__all__ = sorted(" ".join(_EXPORTS.values()).split())


def _forward(module: str, **moved: str):
    """A module __getattr__ (PEP 562) that serves each name listed, space
    separated, in moved[submodule] from that submodule, imported on first
    use.  This package is served so, as are the moved names the tracer reads."""
    home = {name: target for target, names in moved.items() for name in names.split()}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{home[name]}"), name)

    return __getattr__


_public = _forward(__name__, **_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    value = globals()[name] = _public(name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
