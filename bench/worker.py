"""Run one workload in this fresh process and print one JSON line.

    python3 bench/worker.py WORKLOAD SECONDS MODE

MODE is ``setup`` (build the inputs and stop), ``run`` (untraced rounds)
or ``trace`` (rounds with every wrapped call recorded; the spans are
written to ``bench/out/``).  A run does whole rounds until SECONDS have
passed, then checks every output.  ``run.py`` starts this script; it is
not meant to be called by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    name, seconds, mode = argv[0], float(argv[1]), argv[2]
    sys.path.insert(0, SRC)
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    import crysref
    if not os.path.abspath(crysref.__file__).startswith(SRC + os.sep):
        print(f"crysref imported from {crysref.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    ops = workloads.WORKLOADS[name]()
    setup_done = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    if tracer is not None:
        tracer.begin_rounds()
    outputs = []
    durations: dict[str, list[float]] = {op.name: [] for op in ops}
    round_walls = []
    failed = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                traceback.print_exc()
                failed += 1
                out = None
            durations[op.name].append(time.perf_counter() - t)
            outputs.append((op, out))
        round_walls.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.run_id += 1
    cpu_s = time.process_time() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_done": setup_done,
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "durations": durations,
        "cpu_s": cpu_s,
        "maxrss_kb": maxrss_kb,
        "attempted": len(outputs),
        "failed": failed,
    }
    if tracer is not None:
        tracer.active = False
        result["layers"] = tracer.layer_metrics(len(round_walls))
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{name}.jsonl"))

    problems = []
    for op, out in outputs:
        if out is not None:
            problems += op.check(out)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result["correct"] = not problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
