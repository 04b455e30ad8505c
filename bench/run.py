"""Benchmark of the dyntv MM-GKS solver on three workloads.

    python3 bench/run.py --workload deblur-sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run it from the root of a checkout: it imports dyntv from ``src/`` there.
One run builds the workload's inputs from ``--seed`` (set-up repeated a few
times and timed), repeats the workload's solves for ``--seconds`` seconds (at
least twice), checks every solve, and prints a report whose last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
solves run with per-layer wrappers installed and the metrics are per layer.

Each workload runs in a fresh process whose BLAS/OpenMP thread variables are
pinned before numpy is imported.  ``--workload all`` starts one such process
per workload.  Exit code 0 means the run finished and printed its result
(``correct`` says whether every check passed); 2 means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("deblur-stress", "tomo-gcv", "deblur-sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
CHILD_TIMEOUT_S = 900


def blas_threads():
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def run_one(args):
    threads = str(blas_threads())
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.dont_write_bytecode = True
    try:
        import workloads  # imports numpy, so only after the pinning above
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    try:
        reference, rre_bound = workloads.load_reference()
    except (OSError, KeyError, StopIteration, ValueError) as exc:
        print(f"error: reference RREs or bounds unreadable: {exc!r}", file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           reference, rre_bound)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """One fresh process per workload; prints each report and a summary table."""
    table, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran longer than {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 2
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
        table.append((name, result))

    keys = list(table[0][1]["metrics"])
    print()
    print(f"{'metric':28s}{'unit':>8s}" + "".join(f"{n:>16s}" for n, _ in table))
    for key in keys:
        unit = table[0][1]["metrics"][key]["unit"]
        print(f"{key:28s}{unit:>8s}"
              + "".join(f"{r['metrics'][key]['value']:16.6g}" for _, r in table))
    print(f"{'failed_frac':28s}{'1':>8s}"
          + "".join(f"{r['failed'] / r['attempted']:16.4f}" for _, r in table))
    print(f"verdict: {'correct' if total['correct'] else 'INCORRECT'} "
          f"({total['failed']} of {total['attempted']} solves failed)")
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
