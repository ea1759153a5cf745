"""Benchmark of the dualtriad CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the source tree in `src/` next
to this directory.  Each workload is a seeded list of CLI jobs (see jobs.py),
run one at a time by this single process: a closed loop with one client.

--trace 0 runs every job as a `python -m dualtriad` subprocess, in PASSES
passes over the job list.  The pass count is fixed, so that every commit's
job times are taken over the same number of samples; the job lists are sized
so that the passes take about --seconds, and slower code runs longer (up to
RUN_BUDGET_S) rather than fewer passes.  It reports end-to-end metrics: a
job's time is its largest over the passes (see end_to_end), and a command's
time (generate_s, verify_s, ...) is the sum over its jobs.  setup_s is the
median time of a no-op `python -m dualtriad --ledger`, sampled at evenly
spaced points over all passes.

--trace 1 runs the job list in this process through dualtriad.cli.main, once
plain and once with every layer wrapped (tracing.py), and reports per-layer
metrics from the traced pass.

Every output is checked by oracles.py.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Per-job and per-run
records, and the traced spans, go to .perfbench/ in the source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import jobs as joblists
import oracles
import tracing
from jobs import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_ARGV = ["--ledger"]
SETUP_SAMPLES = 15
PASSES = 3
# Whatever the program does, a run ends within 180 s: jobs still to start
# after RUN_BUDGET_S are skipped, and a job still running then is killed.
# Both count as failed.
RUN_BUDGET_S = 150.0

# The end-to-end metrics in the result line.  Per-command times (verify_s,
# fit_s, ...) are printed above it for the commands a workload runs; they stay
# out of the result because no command runs in every workload but verify, and
# a command with one job in a workload is too noisy to gate on.
END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobRecord:
    job: int
    pass_no: int
    argv: list[str]
    exit_code: int
    wall_s: float
    output_bytes: int
    entry_bits_max: int
    max_rss_kib: Optional[int] = None
    failure: Optional[str] = None
    wrong: bool = False


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


# --- subprocess jobs --------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Jobs run under the interpreter's default int-to-string limit, so the
    # known defect at that limit shows.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The launcher.py process, which starts each job and reports its exit
    code, wall time and peak RSS."""

    def __init__(self) -> None:
        self.out_path, self.err_path = OUT / "stdout", OUT / "stderr"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")), str(self.out_path), str(self.err_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)

    def run(self, argv: list[str], timeout: float) -> tuple[int, float, int, bytes]:
        """Exit code, wall seconds, peak RSS in KiB and standard output."""
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": max(timeout, 0.0)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited")
        reply = json.loads(line)
        return reply["exit"], reply["wall_s"], reply["max_rss_kib"], self.out_path.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_subprocess(job_list: list[Job], launcher: Launcher, refs: oracles.References,
                   passes: int = PASSES) -> tuple[list[JobRecord], list[float]]:
    deadline = Deadline(RUN_BUDGET_S)
    code, *_ = launcher.run(SETUP_ARGV, deadline.left())  # warm the file cache
    if code != 0:
        sys.exit(f"error: `python -m dualtriad {' '.join(SETUP_ARGV)}` exited {code}")
    entry_bits = [refs.entry_bits_max(job) for job in job_list]
    # The no-op is sampled after evenly spaced jobs over all passes, so that
    # its median spans the whole run rather than one spell of CPU speed.
    total = passes * len(job_list)
    sample_after = {(k + 1) * total // SETUP_SAMPLES - 1 for k in range(SETUP_SAMPLES)}
    setup: list[float] = []
    records: list[JobRecord] = []
    verdicts: dict[int, tuple[str, int, Optional[str], bool]] = {}
    for n in range(total):
        pass_no, i = divmod(n, len(job_list))
        job = job_list[i]
        if deadline.left() <= 0:
            records.append(JobRecord(i, pass_no, job.argv(), -1, 0.0, 0, entry_bits[i],
                                     failure="not started: run budget spent"))
            continue
        code, wall, rss, out = launcher.run(job.argv(), deadline.left())
        # An output identical to one already checked for this job needs no
        # second check.
        digest = hashlib.sha256(out).hexdigest()
        if i in verdicts and verdicts[i][:2] == (digest, code):
            failure, wrong = verdicts[i][2:]
        else:
            failure, wrong = oracles.check(job, code, out.decode("utf-8", "replace"), refs)
            verdicts.setdefault(i, (digest, code, failure, wrong))
        records.append(JobRecord(i, pass_no, job.argv(), code, wall, len(out), entry_bits[i], rss, failure, wrong))
        if n in sample_after:
            code, wall, *_ = launcher.run(SETUP_ARGV, deadline.left())
            if code == 0:
                setup.append(wall)
    return records, setup


def end_to_end(job_list: list[Job], records: list[JobRecord],
               setup: list[float]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the time of each command the workload runs.

    A job's time is its largest over the PASSES passes.  On a shared VM the
    CPU runs some passes up to 1.7x faster than others, in spells of a few to
    tens of seconds; the median then depends on how many passes fell in a fast
    spell, while the largest time, the common contended speed, repeats more
    often from run to run.
    """
    commands: dict[str, float] = {}
    peak_kib = 0.0
    for i, job in enumerate(job_list):
        mine = [r for r in records if r.job == i]
        name = job.command.replace("-", "_") + "_s"
        commands[name] = commands.get(name, 0.0) + max(r.wall_s for r in mine)
        peak_kib = max(peak_kib, statistics.median(r.max_rss_kib or 0 for r in mine))
    metrics = {
        "total_s": sum(commands.values()),
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    return metrics, dict(sorted(commands.items()))


# --- in-process jobs ----------------------------------------------------------


def call_main(main, argv: list[str]) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # an uncaught exception: the interpreter exits 1
            code = 1
    return code, time.perf_counter() - start, out.getvalue()


def run_traced(job_list: list[Job], refs: oracles.References) -> tuple[list[JobRecord], dict[str, float], list[list]]:
    # Jobs run under the interpreter's default int-to-string limit, so the
    # known defect at that limit shows.
    if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
        sys.exit("error: --trace 1 runs the jobs in this process; unset PYTHONINTMAXSTRDIGITS "
                 "and -X int_max_str_digits so that they run under the default limit")
    sys.path.insert(0, str(SRC))
    import dualtriad.cli

    if not Path(dualtriad.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported dualtriad from {dualtriad.cli.__file__}, not from {SRC}")
    tracer = tracing.Tracer()
    records: list[JobRecord] = []
    plain_wall = traced_wall = 0.0
    verify_rows = bits_max = out_bytes = 0
    for i, job in enumerate(job_list):
        # Each job runs plain and traced back to back, in alternating order,
        # so that neither run gains from the other having warmed the heap.
        runs = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            tracer.job = i
            if traced:
                tracer.install()
            try:
                runs[traced] = call_main(dualtriad.cli.main, job.argv())
            finally:
                tracer.uninstall()
        code, wall, text = runs[True]
        plain_wall += runs[False][1]
        traced_wall += wall
        for name, result in tracer.take_results():
            if name == "triads.verify":
                verify_rows += result.verified_up_to + 1 if result.holds else result.first_failure[0] + 1
            else:
                bits_max = max(bits_max, max(oracles.bits(v) for row in result.rows for v in row))
        out_bytes += len(text.encode())
        failure, wrong = oracles.check(job, code, text, refs)
        if failure is None and runs[False][2] != text:
            failure, wrong = "traced and untraced outputs differ", True
        records.append(JobRecord(i, 0, job.argv(), code, wall, len(text.encode()),
                                 refs.entry_bits_max(job), None, failure, wrong))
    metrics = tracing.layer_metrics(tracer.spans, verify_rows, bits_max, out_bytes, traced_wall - plain_wall)
    return records, metrics, tracer.spans


# --- records -----------------------------------------------------------------


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # git is not installed
        return None
    return proc.stdout.strip() or None


def write_records(args: argparse.Namespace, records: list[JobRecord], spans: Optional[list[list]]) -> Path:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": None if args.trace else PASSES,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        # The jobs' limit: subprocess jobs run without PYTHONINTMAXSTRDIGITS,
        # and in-process jobs only under the default (run_traced).
        "int_max_str_digits": sys.int_info.default_max_str_digits,
        "git_commit": git_commit(),
        "jobs": [asdict(r) for r in records],
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(run_info, indent=1) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for name, start, end, parent, job, _raised in spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblists.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dualtriad" / "__init__.py").is_file():
        print(f"error: no dualtriad source tree at {SRC}", file=sys.stderr)
        return 2

    job_list = joblists.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    commands: dict[str, float] = {}
    if args.trace:
        records, metrics, spans = run_traced(job_list, oracles.References(job_list))
        units = tracing.PER_LAYER_UNITS
    else:
        # The launcher starts before the reference triangles are built, so it
        # stays small.
        launcher = Launcher()
        try:
            records, setup = run_subprocess(job_list, launcher, oracles.References(job_list))
        finally:
            launcher.close()
        (metrics, commands), spans = end_to_end(job_list, records, setup), None
        units = END_TO_END_UNITS
    path = write_records(args, records, spans)

    outcome = result(records, metrics, units)
    for r in records:
        if r.failure:
            print(f"failed: {' '.join(r.argv)}: {r.failure}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for name, value in commands.items():
        print(f"{name} {value} s")
    print(f"failed_ratio {outcome['failed'] / outcome['attempted']} ({outcome['failed']}/{outcome['attempted']} jobs)")
    print(f"records {path.relative_to(ROOT)}")
    print(json.dumps(outcome))
    return 0


def result(records: list[JobRecord], metrics: dict[str, float], units: dict[str, str]) -> dict:
    """The result line: a job fails on an unexpected exit code or a rejected
    output, and the run is incorrect when any job printed a wrong answer."""
    return {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failure),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
