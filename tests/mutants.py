"""Mutation check of the checks that prove a triad row by row, of fit's
elimination, minimal witness, pair scaling and weight assembly, of the phi
streams that stand in for an inversion, of the family's row, phi, proof and
step-matrix routes and the closed forms of F, of forward substitution, of the
records' constructor, of the writer of every output format, of what a command
loads and of the names a module serves through its __getattr__.

Each entry of MUTANTS names a file, a text that occurs in it once, the text
that replaces it and what the replacement breaks.  The script copies src/
tests/ and perfbench/ (whose tracer test_package reads) to one temporary
directory per worker, min(os.cpu_count(), 4) of them, applies each entry
alone to a free copy and runs

    python -m pytest -x -q tests/test_records.py tests/test_dynsys.py tests/test_output.py \
        tests/test_triads.py tests/test_scaled.py tests/test_sequences.py tests/test_loads.py \
        tests/test_package.py

there, one pytest process per worker at a time.  The tests must pass on an
unchanged copy and fail on every mutant.  The verdicts are printed in the
order of MUTANTS.  Run it from any directory, with pytest and hypothesis
installed:

    python3 tests/mutants.py

It exits 0 when every mutant is killed, and 1 when the unchanged copy fails,
an entry's text does not occur exactly once, or a mutant survives.  pytest
does not collect this file.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pytest -x stops at the first failure, so the files that kill mutants
# soonest run first: test_records takes a second, with test_dynsys it kills
# most mutants, test_output kills the writer's, the hypothesis classes of
# test_scaled come next, then test_sequences, which only the row kernel's
# mutant reaches, then test_loads, whose fresh processes only the mutant
# that makes a command load the reference routes reaches, and last
# test_package, which only the mutant that forwards a name reaches.
TESTS = ("tests/test_records.py", "tests/test_dynsys.py", "tests/test_output.py", "tests/test_triads.py",
         "tests/test_scaled.py", "tests/test_sequences.py", "tests/test_loads.py", "tests/test_package.py")
TRIADS = "src/dualtriad/triads.py"
EXACT = "src/dualtriad/exact.py"
SEQUENCES = "src/dualtriad/sequences.py"
DYNSYS = "src/dualtriad/dynsys.py"
OUTPUT = "src/dualtriad/output.py"
RECORD = "src/dualtriad/_record.py"
CLI = "src/dualtriad/cli.py"
POLYNOMIAL = "src/dualtriad/polynomial.py"
REFERENCE = "src/dualtriad/reference.py"

# (file, old text, new text, what the new text breaks)
MUTANTS = [
    (TRIADS, "if row != next(steps) or", "if (row != next(steps) and start) or",
     "verify_triad: row 0 is not compared with the seed 1"),
    (TRIADS, "if row != next(steps) or", "if (row != next(steps) and not start) or",
     "verify_triad: rows after row 0 are not compared with the row step"),
    (TRIADS, "phi is not None and phi.coeffs != next(duals))", "phi is not None and next(duals) is None)",
     "verify_triad: the given phis are not compared with the duals of rec"),
    (TRIADS, "chain([(row, phi)], pairs)", "chain([], pairs)",
     "verify_triad: the expansion after a failed certificate drops the failing row"),
    (POLYNOMIAL, "islice(duals, start)", "islice(duals, start - 1)",
     "first_residual: the expansion holds one dual too few before the failing row"),
    (TRIADS, "if phis is None or start else ()", "if phis is None else ()",
     "verify_triad: the given phis' prefix is not taken from rec's duals"),
    (POLYNOMIAL, "enumerate(pairs, start)", "enumerate(pairs, start + 1)",
     "first_residual: the expansion's row index is one row late"),
    (TRIADS, "rec.depth >= top - 1 and ", "",
     "verify_triad: no check that rec tabulates the levels the duals read"),
    (TRIADS, "rec.depth >= top - 1 and ", "rec.depth >= top and ",
     "verify_triad: a recurrence tabulated exactly to level N-1 is refused"),
    (TRIADS, "all(rec.up[k] for k in range(top))", "True",
     "verify_triad: no check that the up weights below level N are nonzero"),
    (TRIADS, "all(rec.up[k] for k in range(top))", "all(rec.up[k] for k in range(top - 1))",
     "verify_triad: the up weight of level N-1 is not checked"),
    (TRIADS, "for k in range(count):\n        if rec.up[k] == 0:",
     "for k in range(count - 1):\n        if rec.up[k] == 0:",
     "iter_dual_polynomials: the up weight of the last level is not checked"),
    (TRIADS, "n + 1), den * row[1])", "n + 1), row[1])",
     "scaled_banded_rows: a step on rational weights drops their common denominator"),
    (TRIADS, "out[j] -= stay * c", "out[j] += stay * c",
     "_dual_step: the stay weight enters the dual with the wrong sign"),
    (TRIADS, "out[j] -= down * c", "out[j] -= stay * c",
     "_dual_step: phi_{k-1} is weighted by stay[k], not down[k]"),
    (TRIADS, "if width != n + 1:", "if width > n + 1:",
     "checked_rows: a short row passes"),
    (TRIADS, "if n + 1 != len(rows):", "if n + 1 > len(rows):",
     "checked_rows: a pass that reads too few rows passes"),
    (TRIADS, "        self._make = make\n", "        self._make = (lambda first: lambda: first)(make())\n",
     "Restartable: one iterator, made when it is built, serves every pass"),
    (SEQUENCES, "if len(weights) != n + 2:", "if False:",
     "pascal_like_rows: weights of the wrong length are cut to the row, not refused"),
    (TRIADS, "(v if s == 1 else s * v) if v else v", "v",
     "banded_step: the stay weight is dropped"),
    (TRIADS, "out[k + 1] += v if u == 1 else u * v", "out[k + 1] += v",
     "banded_step: the up weight is dropped"),
    (TRIADS, "out[k - 1] += down[k] * v", "out[k - 1] += v",
     "banded_step: the down weight is dropped"),
    (TRIADS, "if k and down[k]:", "if down[k]:",
     "banded_step: down[0] drops from level 0 into the last entry"),
    (EXACT, "g = gcd(den, *nums)", "g = gcd(den)",
     "Scaled.__new__: the content ignores the numerators"),
    (EXACT, "if den < 0:\n                g = -g", "if den < 0:\n                g = g",
     "Scaled.__new__: a negative denominator stays negative"),
    (EXACT, "nums = tuple([v // g for v in nums])", "nums = tuple(nums)",
     "Scaled.__new__: the numerators are not divided by the content"),
    (SEQUENCES, "if n else 1)", "if n else -1)",
     "fibonomial_inverse_rows: the seed w_0 is -1"),
    (SEQUENCES, "w.append(-sum(", "w.append(sum(",
     "fibonomial_inverse_rows: w_n enters with the wrong sign"),
    (TRIADS, "RootSequence.arithmetic(0, -1)", "RootSequence.arithmetic(0, 1)",
     "stirling1's phi: the lah roots step up, not down"),
    (SEQUENCES, "den *= powers[k]", "den *= powers[k + 1]",
     "q_binomial_inverse_rows: coefficient k's denominator is k + 1's times b^(k+1), not b^k"),
    (SEQUENCES, "lambda n: (-a**n,) * (n + 2)", "lambda n: (a**n,) * (n + 2)",
     "q_binomial_inverse_rows: the right weight a^n enters with the wrong sign"),
    (TRIADS, "phi_rows=q_binomial_inverse_rows),", "),",
     "q-gaussian's phi: dual and phi reduce the dual recurrence, not Gauss's closed form"),
    (TRIADS, "iter_dual_polynomials(self.recurrence(value, rows - 1), rows)",
     "iter_dual_polynomials(self.recurrence(value, rows - 1), rows - 1)",
     "Family.phis: the banded route yields one phi too few"),
    (TRIADS, "scaled_banded_rows, self.recurrence(value, rows - 1), rows)",
     "scaled_banded_rows, self.recurrence(value, rows - 2), rows)",
     "Family.scaled_rows: the recurrence is tabulated one level short"),
    (TRIADS, "if dual.recurrence is not None:", "if False:",
     "Family.verify: a dual with a recurrence is scanned, not certified"),
    (SEQUENCES, "if row != (dual, 1) or ", "if ",
     "stirling_first_proof: the rows are not compared with the lah duals"),
    (SEQUENCES, " or lah != (tuple(phi), 1):", ":",
     "stirling_first_proof: the phis are not compared with the lah rows"),
    (SEQUENCES, "if row[k] * fibs[k] != row[k - 1] * fibs[n - k + 1]:", "if False:",
     "fibonomial_proof: the column ratios of a row are not checked"),
    (SEQUENCES, "if sum(c * v for c, v in zip(row, w)) != (n == 0):", "if False:",
     "fibonomial_proof: the sums that define w are not checked"),
    (SEQUENCES, "if tuple(phi) != tuple([w[n - k] * c for k, c in enumerate(row)]):", "if False:",
     "fibonomial_proof: phi is not compared with w o C"),
    (TRIADS, "if self.proof(checked_rows(source), dual.phis(value, rows), rows):",
     "if self.proof(checked_rows(source), dual.phis(value, rows), rows) or True:",
     "Family.verify: a failed proof passes"),
    (TRIADS, "return TriadReport(rows, failure is None, failure)", "return TriadReport(rows, False, None)",
     "Family.verify: a failed proof is reported without the brute scan's failing row"),
    (TRIADS, "dual = FAMILIES.get(self.dual)", 'dual = FAMILIES.get(self.dual, FAMILIES["pascal"])',
     "Family.verify: a family with no dual is checked against pascal's phi, not refused"),
    (DYNSYS, "if family.recurrence is not None:", "if False:",
     "family_step_matrix: a family with a recurrence is refused, not read off it"),
    (DYNSYS, "_require_unipotent(family.step_rows is not None)", "_require_unipotent(True)",
     "family_step_matrix: a family with no F is not refused as not unipotent"),
    (DYNSYS, "    _require_unipotent(family.step_rows is not None)\n    return family.step_rows(rows)",
     "    return (row for _ in [0] for row in _require_unipotent(family.step_rows is not None)"
     " or family.step_rows(rows))",
     "family_step_matrix: the refusal waits for the first row, after json's header is written"),
    (DYNSYS, "(rec.down[n], rec.stay[n], rec.up[n])", "(0, rec.stay[n], rec.up[n])",
     "banded_step_matrix: the down weight is dropped"),
    (SEQUENCES, "g.append(shifted[n] -", "g.append(fibs[n] -",
     "fibonomial_step_rows: g's sums over C equal F_n, not F_{n-1}"),
    (SEQUENCES, "zip(row, g)", "zip(row[1:], g[1:])",
     "fibonomial_step_rows: g's sums over C skip column 0"),
    (SEQUENCES, "step = [0, *[c * g[n - k] for k, c in enumerate(row)]]",
     "step = [*[c * g[n - k] for k, c in enumerate(row)], 0]",
     "fibonomial_step_rows: C[n][l-1] * g_{n-l+1} lands in column l - 1, not l"),
    (SEQUENCES, "step[n] += fibs[n + 1]", "step[n] += fibs[n]",
     "fibonomial_step_rows: the diagonal adds F_n, not F_{n+1}"),
    (SEQUENCES, "((0, *row) for row in pascal_like_rows", "((*row, 0) for row in pascal_like_rows",
     "stirling_first_step_rows: Pascal's rows lose their leading 0 and are not moved one column right"),
    (TRIADS, 'if rows < 0:\n            raise ValueError("count', 'if rows < -1:\n            raise ValueError("count',
     "Family.phis: rows -1 reaches the family's phi stream"),
    (DYNSYS, 'if rows < 0:\n        raise ValueError("rows', 'if rows < -1:\n        raise ValueError("rows',
     "family_step_matrix: rows -1 reaches the family's route"),
    (REFERENCE, "acc = list(rhs)", "acc = list(row)",
     "forward_substitute: row i of L is taken as its own right-hand side"),
    (DYNSYS, "tags |= pt", "tags = tags",
     "_Column.add: a reduced equation does not carry the tags of the pivots it used"),
    (DYNSYS, "for t in sorted(tags):", "for t in sorted(tags)[1:]:",
     "_minimal_conflict: the witness keeps its first equation where it could drop it"),
    (DYNSYS, "row = [e // g * v for v in row]", "row = [v for v in row]",
     "fit_banded: row n is not scaled to the pair's common denominator"),
    (DYNSYS, "rhs = [d // g * v for v in nxt]", "rhs = [v for v in nxt]",
     "fit_banded: row n + 1 is not scaled to the pair's common denominator"),
    (DYNSYS, "if k + 1 <= n_max - 1:", "if k + 1 < n_max - 1:",
     "fit_banded: the down weight of the last level is left 0"),
    (DYNSYS, "up[k - 1] = up_km1", "up[k - 1] = stay_k",
     "fit_banded: each up weight is assembled from its column's stay weight"),
    (DYNSYS, "if k <= n_max - 1:", "if k < n_max - 1:",
     "fit_banded: the stay weight of the last level is left 0"),
    (RECORD, "values[field] = value() if isinstance(value, type) else value", "values[field] = value",
     "Record.__init__: a type default is stored uncalled, not as a fresh instance"),
    (RECORD, "if field in values or field not in names:", "if field in values:",
     "Record.__init__: an unknown field is accepted"),
    (OUTPUT, "for row in rows), default=0)", "for row in list(rows)[:1]), default=0)",
     "write_document: pretty takes its width from the first row only"),
    (OUTPUT, "rows = make()\n", "rows = (row for _ in [0] for row in make())\n",
     "write_document: the first pass is made after the json header is written"),
    (OUTPUT, '_write_row(write, "", ",", row, "\\n")', '_write_row(write, "", ",", row, "")',
     "write_document: csv drops the line end"),
    (OUTPUT, "head, piece, size = sep, [],", 'head, piece, size = "", [],',
     "_write_row: the separator between two pieces is dropped"),
    (OUTPUT, "write(head + sep.join(piece))", "write(head + sep.join(piece) + tail)",
     "_write_row: the tail is written after every piece"),
    (OUTPUT, "marg // 2 + (marg & width & 1)", "marg // 2",
     "write_document: pretty's left pad is not str.center's on an odd width"),
    # At the top of triads or dynsys an import of reference fails as a cycle
    # (reference reads names from both), which every test sees; cli imports
    # it after them.
    (CLI, "from .triads import FAMILIES, Family\n", "from .triads import FAMILIES, Family\nfrom . import reference\n",
     "cli: importing the module loads the reference routes on every command"),
    (TRIADS, "    from .polynomial import first_residual\n",
     "    from .reference import Polynomial\n    from .polynomial import first_residual\n",
     "verify_triad: the expansion loads the reference routes"),
    (DYNSYS, 'reference="solve_step_matrix phi_from_step_matrix")',
     'reference="solve_step_matrix phi_from_step_matrix evolve")',
     "dynsys: the module serves evolve, which the benchmark's tracer does not read there"),
]


def run_tests(copy: Path) -> bool:
    """True when the test files pass in copy.  No bytecode is
    written, so that a mutant of a file's size, written within the second
    of the text before it, is never read from a stale cache."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    started = time.perf_counter()
    failed = False
    runnable = []
    for mutant in MUTANTS:
        path, old = mutant[:2]
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{path}: the text {old!r} occurs {count} times, not once")
            failed = True
        else:
            runnable.append(mutant)
    workers = min(os.cpu_count() or 1, 4)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="dualtriad-mutants-") as tmp:
        copies: queue.Queue[Path] = queue.Queue()
        for worker in range(workers):
            copy = Path(tmp, str(worker))
            for part in ("src", "tests", "perfbench"):
                shutil.copytree(ROOT / part, copy / part, ignore=ignore)
            copies.put(copy)
        if not run_tests(Path(tmp, "0")):
            print("the tests fail on the unchanged copy")
            return 1

        def killed(mutant: tuple[str, str, str, str]) -> tuple[bool, float]:
            """Whether the tests fail with the mutant applied to a free copy,
            and how long they ran; the copy is restored and freed after."""
            path, old, new, _ = mutant
            copy = copies.get()
            target = copy / path
            text = target.read_text()
            start = time.perf_counter()
            target.write_text(text.replace(old, new))
            try:
                return not run_tests(copy), time.perf_counter() - start
            finally:
                target.write_text(text)
                copies.put(copy)

        with ThreadPoolExecutor(workers) as pool:
            for mutant, (dead, seconds) in zip(runnable, pool.map(killed, runnable)):
                verdict = "killed" if dead else "SURVIVED"
                print(f"{verdict:8} {seconds:5.1f} s  {mutant[3]}", flush=True)
                failed |= not dead
    print(f"{len(runnable)} mutants, {workers} at a time, in {time.perf_counter() - started:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
