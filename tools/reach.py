"""Reach timings of two revisions, each instance in fresh processes, printed as JSON.

Usage (from the repository root):

    python3 tools/reach.py PARENT_REV CHANGE_REV --pairs 3 \\
        --instances D5-transport-0,D6-quotient-0

The instances are the reach sizes of ROADMAP.md, on x =
random_edge_vector(random.Random(seed), g): the boundary transports
ae_norm(graph_metric(g), boundary(x)) on D_5 and L_4 at seeds 0-2, and the
quotient norms quotient_norm(x) on D_6 and D_7 at seed 0.  Each revision
is exported with ``git archive`` into its own temporary directory (as
tools/bench_pairs.py does), and every run is one fresh process that builds
the graph, the vector and the metric untimed and then times the one solve
with perf_counter.  Per instance, N pairs of runs alternate which side
runs first: even pairs run the parent first, odd pairs the change.  The
JSON on stdout holds per instance and side the median and quartiles of
the seconds (bench_pairs.summary), the largest peak RSS in MB
(ru_maxrss), the value as a string, whether both sides' values agree on
every run, and the pairs in which the change was faster; progress goes to
stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, summary  # noqa: E402

# name -> (solve, graph family in freelip.graphs, level, seed of random_edge_vector)
INSTANCES = {
    **{f"{g}{n}-transport-{seed}": ("transport", family, n, seed)
       for g, family, n in (("D", "diamond", 5), ("L", "laakso", 4)) for seed in range(3)},
    "D6-quotient-0": ("quotient", "diamond", 6, 0),
    "D7-quotient-0": ("quotient", "diamond", 7, 0),
}

CHILD = """
import json, random, resource, sys, time
from freelip import graphs
from freelip.cyclespace import boundary, quotient_norm
from freelip.freenorm import ae_norm
from freelip.metric import graph_metric
from freelip.randgen import random_edge_vector

solve, family, n, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
g = getattr(graphs, family)(n)
x = random_edge_vector(random.Random(seed), g)
if solve == "transport":
    space, m = graph_metric(g), boundary(x)
    start = time.perf_counter()
    value = ae_norm(space, m)[0]
else:
    start = time.perf_counter()
    value = quotient_norm(x)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "value": str(value), "peak_mb": peak}))
"""


def run_once(checkout: Path, name: str) -> dict:
    """One fresh process on the checkout's src: {"seconds", "value", "peak_mb"}."""
    solve, family, n, seed = INSTANCES[name]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, solve, family, str(n), str(seed)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def instance_entry(parent: list, change: list) -> dict:
    """One instance's entry from the runs of each side; parent[i] and
    change[i] are the two runs of pair i."""
    if len(parent) != len(change):
        raise ValueError("every pair needs a parent and a change run")
    values = {r["value"] for r in parent + change}
    sides = {side: {"seconds": summary([r["seconds"] for r in runs]),
                    "peak_mb": round(max(r["peak_mb"] for r in runs), 1),
                    "value": runs[0]["value"]}
             for side, runs in (("parent", parent), ("change", change))}
    return {"pairs": len(parent), **sides, "values_equal": len(values) == 1,
            "change_faster_in_pairs": sum(c["seconds"] < p["seconds"]
                                          for p, c in zip(parent, change))}


def names(text: str) -> list:
    """The instances of a comma-separated list, each a key of INSTANCES."""
    out = text.split(",")
    unknown = [n for n in out if n not in INSTANCES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown instances {unknown}; known: {list(INSTANCES)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--instances", type=names, default=",".join(INSTANCES))
    args = ap.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        doc = {"parent_rev": export(args.parent_rev, sides["parent"]),
               "change_rev": export(args.change_rev, sides["change"]),
               "nproc": os.cpu_count(), "python": platform.python_version(), "instances": {}}
        for name in args.instances:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_once(sides[side], name)
                    runs[side].append(result)
                    print(f"{name} pair {i + 1}/{args.pairs} {side}: {result['seconds']:.3f} s",
                          file=sys.stderr, flush=True)
            doc["instances"][name] = instance_entry(runs["parent"], runs["change"])
    finally:
        shutil.rmtree(tmp)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
