"""Exact-certification benchmark for freelip.

Usage (from the repository root):

    python3 bench/run.py --workload transport-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

One workload runs in this process; ``all`` runs each workload in its own
fresh process, one after another.  A run imports freelip from ./src
(untimed), then builds the workload's pool of rounds at least
SETUP_MIN_REPS times (``setup_s`` is the median build time).  It certifies
rounds from the pool in turn; another round starts only while it would
still end within ``--seconds``, and at least one runs.  Every round has the
same claim slots.  Each claim's program time is divided by the time of a
fixed reference computation taken just before and just after it
(``reference_seconds``), so changes in the machine's speed cancel.
``certify_ref`` is the sum over slots of the slot's median ratio across
rounds, so bursts that slow some rounds drop out; the independent checks,
which run between calls, are not timed.  ``peak_rss_mb`` is the process's
ru_maxrss.

With ``--trace 1`` the public functions of freelip's layers are wrapped
(bench/tracing.py), the pool is built once, and exactly one pass over the
pool runs, so call and size counts depend only on the seed; the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy, with set-up
times, raw seconds (``certify_s``), round ratios and slot medians, goes to
.bench_results/ (and the whole trace, with caller -> callee edges, under
--trace 1).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".bench_results"
WORKLOAD_NAMES = ("transport-large", "embedding-many", "haar-growth", "projection")
SETUP_MIN_REPS = 3        # set-up runs at least this often ...
SETUP_MIN_SECONDS = 0.5   # ... and until it has taken this long in total,
SETUP_MAX_REPS = 100      # so that millisecond set-ups get a stable median
REF_EVERY = 0.25          # seconds between reference samples within a round


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_freelip():
    """Import freelip from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import freelip
    elapsed = perf_counter() - start
    if Path(freelip.__file__).resolve().parent != src / "freelip":
        raise ImportError(f"freelip was imported from {freelip.__file__}, not from {src}")
    return elapsed


def reference_seconds():
    """Time of a fixed exact computation: Gauss-Jordan elimination of a
    12 x 12 rational system, twice (16-30 ms on the reference machine).
    Fraction arithmetic and list churn, like the program's own hot paths,
    so it slows down with them when the machine does."""
    start = perf_counter()
    for _ in range(2):
        n = 12
        a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i)]
             for i in range(n)]
        for c in range(n):
            a[c] = [x / a[c][c] for x in a[c]]
            for r in range(n):
                if r != c:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return perf_counter() - start


def certify_round(claims, log):
    """Run every claim once, bracketed by reference samples.

    A reference sample is taken at the start and end of the round and
    before any claim that follows more than REF_EVERY seconds after the
    last one.  Returns (program seconds per claim, reference seconds per
    claim as the mean of the samples just before and just after it,
    failed, wrong)."""
    from checks import CheckError

    times = []
    marks = [(0, reference_seconds())]       # (claims done, reference seconds)
    last_mark = perf_counter()
    failed = wrong = 0
    for claim in claims:
        if perf_counter() - last_mark > REF_EVERY:
            marks.append((len(times), reference_seconds()))
            last_mark = perf_counter()
        start = perf_counter()
        try:
            result = claim.run()
        except Exception:  # a failing claim must not stop the round
            times.append(perf_counter() - start)
            failed += 1
            log.append(f"{claim.name}: program raised\n{traceback.format_exc()}")
            continue
        times.append(perf_counter() - start)
        try:
            claim.check(result)
        except CheckError as exc:
            failed += 1
            wrong += 1
            log.append(f"{claim.name}: check failed: {exc}")
    marks.append((len(times), reference_seconds()))
    refs = []
    for i in range(len(times)):
        before = next(v for done, v in reversed(marks) if done <= i)
        after = next(v for done, v in marks if done > i)
        refs.append((before + after) / 2)
    return times, refs, failed, wrong


def run_workload(args):
    import_s = import_freelip()
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_times = []
    while True:
        pool = None          # every build starts from the same heap
        gc.collect()
        start = perf_counter()
        pool = WORKLOADS[args.workload](args.seed)
        setup_times.append(perf_counter() - start)
        reps, spent = len(setup_times), sum(setup_times)
        if args.trace or reps >= SETUP_MIN_REPS and (
                spent >= SETUP_MIN_SECONDS or reps >= SETUP_MAX_REPS):
            break
    # Inputs live for the whole run; keep the collector from re-scanning them
    # so that certify time does not depend on how much the set-up built.
    gc.collect()
    gc.freeze()

    log: list[str] = []
    round_times = []     # per round, each slot's program seconds
    round_refs = []      # per round, the reference seconds around each slot
    attempted = failed = wrong = 0
    start = perf_counter()
    while True:
        claims = pool[len(round_times) % len(pool)]
        round_start = perf_counter()
        times, refs, f, w = certify_round(claims, log)
        round_wall = perf_counter() - round_start
        round_times.append(times)
        round_refs.append(refs)
        attempted += len(claims)
        failed += f
        wrong += w
        if args.trace:
            if len(round_times) == len(pool):
                break
        elif perf_counter() - start + round_wall > args.seconds:
            break
    for line in log:
        print(line, file=sys.stderr)

    slots = [claim.name for claim in pool[0]]
    ratios = [[t / r for t, r in zip(ts, rs)] for ts, rs in zip(round_times, round_refs)]
    slot_seconds = [statistics.median(col) for col in zip(*round_times)]
    slot_refs = [statistics.median(col) for col in zip(*ratios)]
    if tracer is not None:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "certify_ref": {"value": sum(slot_refs), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    all_refs = [r for rs in round_refs for r in rs]
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, import_s=import_s, setup_times=setup_times,
                  certify_s=sum(slot_seconds),
                  reference_s=statistics.median(all_refs) if all_refs else None,
                  round_seconds=[sum(t) for t in round_times],
                  slot_seconds=dict(zip(slots, slot_seconds)),
                  slot_refs=dict(zip(slots, slot_refs)),
                  round_refs=ratios,
                  python=sys.version.split()[0], nproc=os.cpu_count())
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump(), indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
