"""Compare two sets of benchmark results.

    python3 bench/compare.py BEFORE.jsonl [AFTER.jsonl]

Each file holds the lines that ``run.py --out FILE`` appends.  For every
workload and end-to-end metric in ``BENCHMARK.json`` this prints the
median and quartiles of each file, the spread (quartile distance over
median) and, given two files, the change of the median.  A change worse
than the metric's bound is flagged ``WORSE``, and so is a different share
of failed operations.  The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    by_workload: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def summary(values):
    """Median, first and third quartile; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 64
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load(p) for p in argv]
    flagged = False
    header = f"{'workload':14s} {'metric':16s} {'n':>3s} {'median':>10s} " \
             f"{'q1':>10s} {'q3':>10s} {'spread':>7s}"
    if len(sets) == 2:
        header += f" {'n':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} " \
                  f"{'spread':>7s} {'change':>8s} {'bound':>6s}"
    print(header)
    for wl in spec["workloads"]:
        name = wl["name"]
        recs = [s.get(name, []) for s in sets]
        if not all(recs):
            print(f"{name:14s} (no results in {'both files' if len(sets) == 2 else 'file'})")
            continue
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in recs]
        for m in spec["end_to_end"]:
            row = f"{name:14s} {m['name']:16s}"
            meds = []
            for rs in recs:
                values = [r["metrics"][m["name"]]["value"] for r in rs]
                med, q1, q3 = summary(values)
                meds.append(med)
                row += f" {len(values):3d} {med:10.4f} {q1:10.4f} {q3:10.4f} " \
                       f"{(q3 - q1) / med:7.1%}"
            if len(sets) == 2:
                change = (meds[1] - meds[0]) / meds[0]
                worse = change if m["better"] == "lower" else -change
                row += f" {change:+8.1%} {m['bound']:6.0%}"
                if worse > m["bound"]:
                    row += "  WORSE"
                    flagged = True
            print(row)
        if len(shares) == 2 and shares[0] != shares[1]:
            print(f"{name:14s} failed share {shares[0]:.4f} -> {shares[1]:.4f}  WORSE")
            flagged = True
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
