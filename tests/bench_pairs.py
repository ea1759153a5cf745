"""Alternating benchmark pairs of two checkouts, summarised as one JSON file.

    python3 tests/bench_pairs.py PARENT CHANGE --seeds 1-10 --out BENCH_x.json \
        [--workloads verify-bigint verify-rational cli-batch] \
        [--parent-commit SHA] [--change-commit SHA]

PARENT and CHANGE are two source trees (from `git archive` or `git clone`)
that each hold perfbench/ and src/; name the commits of archived trees, which
git cannot read there.  Give the two directories names of the same length:
the path alone moves peak_rss_mb by about 0.1 MB, so the script exits 2 when
the resolved paths of PARENT and CHANGE differ in length.  For every workload
and seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once in each tree, one after the other, and swaps which goes first from one
seed to the next, so that a drift of the machine falls on both alike.  The
file holds the environment, and per workload the median and quartiles of
total_s, setup_s and peak_rss_mb on each side, the IQR of the parent's runs,
in how many pairs the change read lower, and the failed and attempted job
counts.  It also names the job that set each run's peak_rss_mb: run.py takes
the peak as the largest, over the jobs, of a job's median max_rss_kib over
its passes, and writes each pass's max_rss_kib to
.perfbench/W-seedS-trace0.json in the tree; peak_rss_jobs counts, per side,
the runs whose peak each job set.  It prints one line per run as it goes.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

METRICS = ("total_s", "setup_s", "peak_rss_mb")
SECONDS = 30  # BENCHMARK.json's run_seconds


def seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8'."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def run(tree: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    outcome = json.loads(done.stdout.splitlines()[-1])
    outcome["peak_job"] = peak_job(tree / ".perfbench" / f"{workload}-seed{seed}-trace0.json")
    return outcome


def peak_job(records: Path) -> str:
    """The argv, joined by spaces, of the job that set a run's peak_rss_mb:
    the largest median max_rss_kib over a job's passes, as run.py's
    end_to_end takes it; of tied jobs, the first in the job list."""
    passes: dict[int, list[dict]] = {}
    for record in json.loads(records.read_text())["jobs"]:
        passes.setdefault(record["job"], []).append(record)
    medians = {job: statistics.median(r["max_rss_kib"] or 0 for r in passes[job]) for job in sorted(passes)}
    return " ".join(passes[max(medians, key=medians.get)][0]["argv"])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def commit(tree: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=["verify-bigint", "verify-rational", "cli-batch"])
    parser.add_argument("--parent-commit", help="recorded as the parent's commit (default: git rev-parse HEAD)")
    parser.add_argument("--change-commit", help="recorded as the change's commit (default: git rev-parse HEAD)")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        parser.error(f"PARENT {trees['parent']} and CHANGE {trees['change']} differ in path length; "
                     "the path alone moves peak_rss_mb, so give both the same length")
    result = {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "platform": platform.platform(),
            "parent_commit": args.parent_commit or commit(trees["parent"]),
            "change_commit": args.change_commit or commit(trees["change"]),
        },
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0, "
                   "alternating parent and change",
        "workloads": {},
    }
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                outcome = run(trees[side], workload, seed)
                runs[side].append(outcome)
                values = " ".join(f"{m} {outcome['metrics'][m]['value']:.4f}" for m in METRICS)
                print(f"{workload} seed {seed} {side}: {values} failed {outcome['failed']} "
                      f"peak set by {outcome['peak_job']}", flush=True)
        entry: dict = {"seeds": args.seeds, "pairs": len(args.seeds)}
        for metric in METRICS:
            sides = {side: [o["metrics"][metric]["value"] for o in runs[side]] for side in runs}
            parent, change = summary(sides["parent"]), summary(sides["change"])
            entry[metric] = {
                "parent": parent,
                "change": change,
                "parent_iqr": parent["q3"] - parent["q1"],
                "change_lower_in": sum(c < p for p, c in zip(sides["parent"], sides["change"])),
            }
        for side in runs:
            entry[f"{side}_failed"] = sum(o["failed"] for o in runs[side])
            entry[f"{side}_attempted"] = sum(o["attempted"] for o in runs[side])
            entry[f"{side}_correct"] = all(o["correct"] for o in runs[side])
        entry["peak_rss_jobs"] = {side: dict(Counter(o["peak_job"] for o in runs[side]).most_common())
                                  for side in runs}
        result["workloads"][workload] = entry
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
