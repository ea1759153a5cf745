"""Self-test of the benchmark harness, at a few rows per job.

    python3 perfbench/selftest.py

For every workload it builds the job list, runs it in process with tracing
and as subprocesses, and checks that every output passes its oracle, that
the traced self times add up to no more than the traced wall time, and that
a corrupted output of every job is counted as failed and wrong.  Exits 1 and
names each problem found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import jobs
import oracles
import run
import tracing


def corrupt(text: str) -> str:
    """The output with its last digit changed."""
    i = max(text.rfind(d) for d in "0123456789")
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def check_workload(workload: str, main) -> list[str]:
    problems = []
    job_list = jobs.build(workload, seed=0, tiny=True)
    if job_list != jobs.build(workload, seed=0, tiny=True):
        problems.append("the same seed gave different jobs")
    refs = oracles.References(job_list)

    records, metrics, spans = run.run_traced(job_list, refs)
    problems += [f"traced {' '.join(r.argv)}: {r.failure}" for r in records if r.failure]
    if list(metrics) != list(tracing.PER_LAYER_UNITS):
        problems.append(f"per-layer metrics {list(metrics)}")
    self_s, _, _ = tracing.self_times(spans)
    traced_wall = sum(r.wall_s for r in records)
    if sum(self_s.values()) > traced_wall or min(self_s.values()) < -1e-9:
        problems.append(f"self times {dict(self_s)} do not fit in the traced wall time {traced_wall}")

    for job in job_list:
        code, _, text = run.call_main(main, job.argv())
        failure, wrong = oracles.check(job, code, corrupt(text), refs)
        if failure is None or not wrong:
            problems.append(f"a corrupted output of {' '.join(job.argv())} passed")
        bad = run.JobRecord(0, 0, job.argv(), code, 0.0, len(text), 0, None, failure, wrong)
        outcome = run.result([bad] + records, {}, {})
        if outcome["failed"] != 1 or outcome["correct"]:
            problems.append(f"a corrupted output is not counted: {outcome}")

    launcher = run.Launcher()
    try:
        records, setup = run.run_subprocess(job_list, launcher, refs, passes=1)
    finally:
        launcher.close()
    problems += [f"subprocess {' '.join(r.argv)}: {r.failure}" for r in records if r.failure]
    metrics, commands = run.end_to_end(job_list, records, setup)
    if list(metrics) != list(run.END_TO_END_UNITS) or not all(v > 0 for v in metrics.values()):
        problems.append(f"end-to-end metrics {metrics}")
    if abs(sum(commands.values()) - metrics["total_s"]) > 1e-9:
        problems.append("command times do not add up to total_s")
    return [f"{workload}: {p}" for p in problems]


def main() -> int:
    problems = []
    tree = ast.parse(Path(oracles.__file__).read_text())
    for node in ast.walk(tree):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
            [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(n.startswith("dualtriad") for n in names):
            problems.append("oracles.py imports dualtriad")
    sys.path.insert(0, str(run.SRC))
    import dualtriad.cli

    run.OUT.mkdir(exist_ok=True)
    for workload in jobs.WORKLOADS:
        problems += check_workload(workload, dualtriad.cli.main)
    for p in problems:
        print(p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
