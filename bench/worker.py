"""One benchmark process: set up a workload, then run it in a closed loop.

run.py starts this script with the BLAS/OpenMP thread caps already in its
environment, so they hold before numpy loads.  Set-up (imports, input
generation and one warm-up task per task kind) is timed from the moment
run.py spawned the process.  Tasks then run one at a time, each started when
the previous one has finished, until their summed wall time reaches the
budget; each task's inputs are generated just before its timer starts.  With --trace
each task runs twice, untraced and traced, alternating which goes first, so
the traced pass measures the tracer's overhead on the same work.

Prints one JSON line; spans of the traced pass go to --spans.
"""

import argparse
import json
import resource
import sys
import time
import traceback


def run_task(task, i, tr, failed_cls):
    tr.begin_task(i)
    t0 = time.perf_counter()
    err = why = None
    try:
        err = task(tr)
    except failed_cls as e:
        why = str(e)
    except Exception as e:  # a failing task is counted, the loop goes on
        why = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    tr.end_task()
    return {"i": i, "kind": task.kind, "wall": wall, "ok": why is None,
            "err": err, "why": why}


def library_facts(np):
    import scipy
    facts = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    return facts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run one cycle at the smallest sizes")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the process was started")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import numpy as np
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    null = spans.NullTracer()
    warm = [run_task(t, -1, null, workloads.CheckFailed)
            for t in wl.warmup()]
    setup_s = time.monotonic() - args.spawned

    tracer = spans.Tracer() if args.trace else None
    records, traced = [r for r in warm if not r["ok"]], []
    i = args.start
    busy = 0.0      # task time only; inputs are generated between tasks
    while (i - args.start < len(wl.SLOTS) if args.smoke
           else busy < args.budget):
        task = wl.task(i)
        if tracer is None:
            records.append(run_task(task, i, null, workloads.CheckFailed))
            busy += records[-1]["wall"]
        else:
            order = (null, tracer) if i % 2 == 0 else (tracer, null)
            for tr in order:
                rec = run_task(task, i, tr, workloads.CheckFailed)
                (traced if tr is tracer else records).append(rec)
                busy += rec["wall"]
        i += 1

    out = {"setup_s": setup_s, "next": i,
           "records": records, "traced": traced,
           "checks": sorted(wl.checks.seen),
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "libraries": library_facts(np)}
    if tracer is not None:
        out["busy"] = tracer.busy()
        out["counts"] = dict(tracer.counts)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent",
                                      "task"], "spans": tracer.spans}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
