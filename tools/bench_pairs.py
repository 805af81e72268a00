"""Alternating-pair benchmark runs of two revisions, summarised as BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --pr 30 \\
        --workloads haar-growth,embedding-many --pairs 10 --seed 1,5

Each revision is exported with ``git archive`` into its own temporary
directory, so both sides run from committed files only.  For every
workload and every seed of the comma-separated ``--seed`` list,
``bench/run.py`` runs N pairs of times for BENCHMARK.json's
``run_seconds``, one process at a time; even pairs run the parent first
and odd pairs the change first.  BENCH_<pr>.json, at the repository root,
holds per workload a list with one entry per seed, in the order given;
an entry holds per side the summed attempted and failed claim counts,
whether every run was correct, and for each end-to-end metric of
BENCHMARK.json the median, the quartiles (statistics.quantiles, inclusive
method) and every run's value; ``change_better_in_pairs`` counts the pairs
in which the change's value was better, and ``verdict`` reads each metric
by the rule of verdict().  The file is rewritten after each workload and
seed, so an interrupted run keeps what it finished.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WHAT = ("End-to-end metrics of bench/run.py, parent commit against this change, each side run "
        "from a fresh `git archive` of its commit; pairs alternate which side runs first.  "
        "Medians and quartiles (inclusive method) over the runs.")
COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds}"


def summary(values: list) -> dict:
    """Median, inclusive quartiles and the runs themselves, rounded to 6 places."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(v, 6) for v in values]}


def side_summary(results: list, metrics: list) -> dict:
    """One side's runs (the last-line JSON objects of bench/run.py) summarised."""
    out = {"failed": sum(r["failed"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "all_correct": all(r["correct"] for r in results)}
    for name in metrics:
        out[name] = summary([r["metrics"][name]["value"] for r in results])
    return out


def verdict(metric: dict, parent: dict, change: dict, wins: int, pairs: int) -> str:
    """One metric's reading from the two sides' summaries and the pairs the
    change won (ties count for neither); metric is its BENCHMARK.json entry.

    "better": the change won at least 9 in 10 pairs and its median is better
    than the parent's by more than the parent's q3 - q1.  "worse": its
    median is worse than the parent's by more than bound x the parent's
    median.  "unresolved": anything else.
    """
    sign = 1 if metric["better"] == "lower" else -1
    gain = sign * (parent["median"] - change["median"])
    if 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]:
        return "better"
    if -gain > metric["bound"] * abs(parent["median"]):
        return "worse"
    return "unresolved"


def workload_entry(seed: int, parent: list, change: list, end_to_end: list) -> dict:
    """The BENCH file's entry for one workload and seed; parent[i] and
    change[i] are the two runs of pair i."""
    if len(parent) != len(change):
        raise ValueError("every pair needs a parent and a change run")
    names = [m["name"] for m in end_to_end]
    sides = {"parent": side_summary(parent, names), "change": side_summary(change, names)}
    better, verdicts = {}, {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        better[name] = sum(sign * c["metrics"][name]["value"] < sign * p["metrics"][name]["value"]
                           for p, c in zip(parent, change))
        verdicts[name] = verdict(m, sides["parent"][name], sides["change"][name],
                                 better[name], len(parent))
    return {"seed": seed, "pairs": len(parent), **sides, "change_better_in_pairs": better,
            "verdict": verdicts}


def seeds(text: str) -> list:
    """The seeds of a comma-separated list such as "1,5"."""
    return [int(s) for s in text.split(",")]


def export(rev: str, into: Path) -> str:
    """git archive rev into the directory; returns the full commit hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", full], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return full


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 and not proc.stdout.strip():
        raise RuntimeError(f"bench/run.py failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--workloads", default="transport-large,embedding-many,haar-growth,projection")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=seeds, default="1",
                    help="comma-separated seeds, one entry per seed and workload")
    args = ap.parse_args(argv)
    out_path = ROOT / f"BENCH_{args.pr}.json"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        doc = {"what": WHAT, "command": COMMAND.format(seconds=seconds),
               "parent_rev": export(args.parent_rev, sides["parent"]),
               "change_rev": export(args.change_rev, sides["change"]),
               "nproc": os.cpu_count(), "python": platform.python_version(), "workloads": {}}
        for workload in args.workloads.split(","):
            entries = doc["workloads"][workload] = []
            for seed in args.seed:
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        result = run_once(sides[side], workload, seed, seconds)
                        runs[side].append(result)
                        print(f"{workload} seed {seed} pair {i + 1}/{args.pairs} {side}: "
                              + " ".join(f"{k}={v['value']:.4g}"
                                         for k, v in result["metrics"].items()),
                              file=sys.stderr, flush=True)
                entries.append(workload_entry(seed, runs["parent"], runs["change"], end_to_end))
                out_path.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
