"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload haar-growth --seeds 1-10

Runs bench/run.py once per seed with its default run length, one process
at a time, and prints each metric's median, first and third quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, plus each run's wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args(argv)
    values: dict[str, list] = {}
    shares = set()
    for seed in args.seeds:
        start = perf_counter()
        out = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                              "--seed", str(seed)],
                             capture_output=True, text=True, check=True).stdout
        wall = perf_counter() - start
        result = json.loads(out.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: wall {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"failed share(s): {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            print(f"{name}: median {med:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
