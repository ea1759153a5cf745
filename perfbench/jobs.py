"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation, `python -m dualtriad <argv>`.  The seed picks the
sign of every q and of every root sequence, and the order of the jobs.  Row
counts are fixed per job: the cost of the exact O(N^3) loops grows like N^4 to
N^5 with the entry bit-lengths, so a row count drawn from a range would let the
seed, not the program, set the run-to-run spread.  Flipping a sign keeps every
magnitude (roots) or nearly every magnitude (q), so it keeps the cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional


@dataclass(frozen=True)
class Roots:
    """An arithmetic (first, first + step, ...) or geometric
    (first, first * step, ...) root sequence r_1, r_2, ..."""

    kind: str
    first: Fraction
    step: Fraction

    def value(self, level: int) -> Fraction:
        if self.kind == "arithmetic":
            return self.first + (level - 1) * self.step
        return self.first * self.step ** (level - 1)

    def text(self) -> str:
        # Three leading values: with two, the CLI reads any pattern as
        # arithmetic, so a geometric sequence would be misread.
        return ",".join(str(self.value(s)) for s in (1, 2, 3)) + ",..."

    def signed(self, sign: int) -> "Roots":
        """The sequence itself for sign 1, every root negated for sign -1."""
        if sign > 0:
            return self
        if self.kind == "arithmetic":
            return Roots(self.kind, -self.first, -self.step)
        return Roots(self.kind, -self.first, self.step)


@dataclass(frozen=True)
class Job:
    command: str
    family: str
    rows: int
    q: Optional[Fraction] = None
    roots: Optional[Roots] = None
    fmt: Optional[str] = None
    expect_exit: int = 0

    def argv(self) -> list[str]:
        args = [self.command, "--family", self.family, "--rows", str(self.rows)]
        # `--q=-3/2`, not `--q -3/2`: argparse takes a separate value that
        # starts with '-' for a flag and exits 2.  The same holds for --roots.
        if self.q is not None:
            args.append(f"--q={self.q}")
        if self.roots is not None:
            args.append(f"--roots={self.roots.text()}")
        if self.fmt is not None:
            args += ["--format", self.fmt]
        if self.command == "convolve":
            args += ["--a", "ones", "--b", "ones"]
        return args


def _verify_bigint(sign: Callable[[], int]) -> list[Job]:
    # Integer entries of up to 2.3 kbit: brute-force Polynomial and
    # linear_combination work and the step-matrix solves take nearly all the
    # time; outputs are small.
    return [
        Job("verify", "q-gaussian", 78, q=Fraction(2 * sign())),
        Job("verify", "q-gaussian", 76, q=Fraction(3 * sign())),
        Job("verify", "fibonomial", 68),
        Job("verify", "stirling1", 72),
        Job("verify", "lah", 88, roots=Roots("arithmetic", Fraction(0), Fraction(1)).signed(sign())),
        Job("verify", "catalan-triad", 88),
        Job("phi", "fibonomial", 72),
        Job("phi", "stirling1", 72),
        # Small jobs so that no layer's time reads 0: fit and convolve.
        Job("fit", "fibonomial", 96),
        Job("convolve", "fibonomial", 96),
    ]


def _verify_rational(sign: Callable[[], int]) -> list[Job]:
    # The same layers as verify-bigint, but every value is a Fraction that
    # pays for a gcd.
    return [
        Job("verify", "q-gaussian", 60, q=Fraction(2, 3) * sign()),
        Job("verify", "q-gaussian", 52, q=Fraction(3, 4) * sign()),
        Job("verify", "q-gaussian", 52, q=Fraction(5, 2) * sign()),
        Job("verify", "lah", 88, roots=Roots("arithmetic", Fraction(1, 2), Fraction(1)).signed(sign())),
        Job("verify", "lah", 60, roots=Roots("geometric", Fraction(1, 3), Fraction(1, 3)).signed(sign())),
        Job("dual", "q-gaussian", 96, q=Fraction(2, 3) * sign()),
        Job("fit", "q-gaussian", 88, q=Fraction(3, 2) * sign()),
        # Small jobs so that no layer's time reads 0: the step-matrix route
        # on rational roots, and convolve.
        Job("phi", "lah", 48, roots=Roots("geometric", Fraction(2, 3), Fraction(1, 2)).signed(sign())),
        Job("convolve", "fibonomial", 64),
    ]


def _cli_batch(sign: Callable[[], int]) -> list[Job]:
    # Small entries at large N: generation, serialization, fit_banded and
    # process start-up do the work; brute-force verification is nearly idle.
    return [
        Job("generate", "pascal", 512, fmt="csv"),
        Job("generate", "pascal", 384, fmt="json"),
        Job("generate", "stirling1", 288),
        Job("generate", "eulerian", 192, fmt="pretty"),
        Job("generate", "catalan-shifted", 224),
        Job("generate", "q-gaussian", 144, q=Fraction(2 * sign()), fmt="json"),
        # Entries pass 4300 decimal digits from row 132 on, so this job hits
        # the interpreter's int-to-string limit: a known defect, counted.
        Job("generate", "q-gaussian", 136, q=Fraction(10 * sign())),
        Job("dual", "catalan-triad", 224),
        Job("fit", "q-gaussian", 112, q=Fraction(2 * sign())),
        Job("fit", "catalan-triad", 112),
        Job("fit", "fibonomial", 224),
        Job("fit", "stirling1", 320),
        Job("fit", "eulerian", 256),
        Job("solve-f", "stirling1", 72),
        Job("convolve", "fibonomial", 112),
        Job("phi", "pascal", 48),
        Job("verify", "catalan-shifted", 192, expect_exit=1),
    ]


WORKLOADS: dict[str, Callable[[Callable[[], int]], list[Job]]] = {
    "verify-bigint": _verify_bigint,
    "verify-rational": _verify_rational,
    "cli-batch": _cli_batch,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The workload's jobs for this seed, in run order.  `tiny` shrinks every
    job to a few rows for the harness self-test."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](lambda: rng.choice((1, -1)))
    if tiny:
        jobs = [replace(job, rows=6) for job in jobs]
    rng.shuffle(jobs)
    return jobs
