"""crysref benchmark: one workload per call, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh worker processes (``worker.py``), one at a
time, each single-threaded.  The inputs are fixed families and ranks, so
``--seed`` is recorded but changes nothing.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of seven
fresh processes, from process start until crysref is imported and the
inputs are built), ``wall_s`` (median time of one round, from its first
check to its last verdict), ``slowest_check_s`` (the largest per-check
median) and ``peak_rss_mb`` (peak resident memory of the worker).

``--trace 1`` runs the workload once untraced and once traced and prints
the per-layer metrics of the traced worker, plus ``proc.cpu_s`` (CPU time
of one untraced round) and ``trace.overhead_s`` (traced minus untraced
``wall_s``).

``--out FILE`` also appends the result, with the workload and seed, to
FILE as one JSON line, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("search-a4", "replay-c3", "classes", "certify-small")
SETUP_SAMPLES = 7
# each call must end within 180 s; leave room for start-up and output
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def worker(workload: str, seconds: float, mode: str, deadline: float):
    """Start one worker, wait for it, and return (start time, result)."""
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seconds), mode],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed nothing")
    return started, json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, seconds, deadline):
    started, res = worker(workload, seconds, "run", deadline)
    setups = [res["setup_done"] - started]
    for _ in range(SETUP_SAMPLES - 1):
        t0, probe = worker(workload, seconds, "setup", deadline)
        setups.append(probe["setup_done"] - t0)
    slowest = max(statistics.median(d) for d in res["durations"].values())
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(res["round_walls"]), "s"),
        "slowest_check_s": metric(slowest, "s"),
        "peak_rss_mb": metric(res["maxrss_kb"] / 1024, "MB"),
    }
    return res, metrics


def traced(workload, seconds, deadline):
    _, plain = worker(workload, seconds, "run", deadline)
    _, res = worker(workload, seconds, "trace", deadline)
    metrics = {}
    for name, value in res["layers"].items():
        metrics[name] = metric(value, "s" if name.endswith("_s") else (
            "ratio" if name.endswith("_ratio") else "count"))
    metrics["proc.cpu_s"] = metric(plain["cpu_s"] / plain["rounds"], "s")
    overhead = (statistics.median(res["round_walls"])
                - statistics.median(plain["round_walls"]))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    combined = {
        "correct": plain["correct"] and res["correct"],
        "attempted": plain["attempted"] + res["attempted"],
        "failed": plain["failed"] + res["failed"],
    }
    return combined, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res, metrics = traced(args.workload, args.seconds, deadline)
        else:
            res, metrics = untraced(args.workload, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
