"""pndislo benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload {profile,extend,nonlocal,survey}
        --seed N --seconds T --trace {0,1} [--smoke]

Run from the repository root; pndislo is imported from ./src.  The run is
split over PROCESSES fresh worker processes that each set up the workload
and then run its tasks for T / PROCESSES seconds, continuing the task cycle
where the previous one stopped; `setup_s` is the median of their set-up
times.  BLAS/OpenMP pools are capped at the number of usable cores through
the workers' environment, before numpy loads.

--trace 0 prints the end-to-end metrics, --trace 1 the per-module metrics
(see spec.py for what each should move).  The second-to-last stdout line is
the full record (machine and provenance facts, the tail percentile and its
sample count, failures); the last line is the summary
{"correct", "attempted", "failed", "metrics"}.  Records and spans are also
written to bench/out/.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def worker_env(nproc):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_workers(args, nproc, out_dir, deadline):
    n_proc = 1 if args.smoke else PROCESSES
    results, start = [], 0
    for k in range(n_proc):
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--budget", repr(args.seconds / n_proc), "--start", str(start),
               "--trace", str(args.trace), "--spawned", repr(spawned),
               "--spans", str(out_dir / f"spans-{args.workload}-p{k}.json")]
        if args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, env=worker_env(nproc), cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"worker {k} exceeded the time limit") from e
        if proc.returncode != 0:
            raise BenchError(f"worker {k} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker {k} printed nothing")
        res = json.loads(lines[-1])
        start = res["next"]
        results.append(res)
    return results


def tail(walls):
    """Highest percentile with at least 10 tasks beyond it."""
    s = sorted(walls)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(results, records):
    walls = [r["wall"] for r in records]
    n_ok = sum(r["ok"] for r in records)
    figures = [r["err"] for r in records if r["err"] is not None]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "tasks_per_s": n_ok / sum(walls),
        "task_s_p50": statistics.median(walls),
        "task_s_tail": tail_value,
        "setup_s": statistics.median(res["setup_s"] for res in results),
        # 1.0 (all digits lost) when no task produced an accuracy figure
        "err_max": max(figures) if figures else 1.0,
        "peak_rss_mb": max(res["rss_mb"] for res in results),
    }
    return metrics, {"task_s_tail": {"percentile": tail_pct,
                                     "samples": len(walls)}}


def per_layer(results, records, traced):
    n = len(traced)
    busy, counts = {}, {}
    for res in results:
        for name, v in res["busy"].items():
            busy[name] = busy.get(name, 0.0) + v
        for name, v in res["counts"].items():
            counts[name] = counts.get(name, 0) + v
    metrics = {}
    for metric, names in spec.SPAN_METRICS.items():
        metrics[metric] = sum(busy.get(x, 0.0) for x in names) / n
    for metric, prefix in spec.MODULE_BUSY.items():
        metrics[metric] = sum(v for x, v in busy.items()
                              if x.startswith(prefix)) / n
    for metric in spec.COUNTERS:
        metrics[metric] = counts.get(metric, 0) / n
    # both passes ran the same tasks; the gap is what tracing costs
    metrics["trace.overhead_frac"] = (sum(r["wall"] for r in traced)
                                      / sum(r["wall"] for r in records) - 1.0)
    every = records + traced
    metrics["failed_frac"] = sum(not r["ok"] for r in every) / len(every)
    return metrics


def machine_facts(nproc, libraries):
    facts = {"nproc": nproc, "python": platform.python_version(),
             "platform": platform.platform(), **libraries}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                 if ln.startswith("model name")), "unknown")
    except OSError:
        facts["cpu"] = "unknown"
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (d / "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    return facts


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one cycle at the smallest sizes, one process")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    # SIGTERM unwinds through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not any((ROOT / "src" / "pndislo").glob("*.py")):
        print(f"pndislo sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        results = run_workers(args, nproc, out_dir, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    records = [r for res in results for r in res["records"]]
    traced = [r for res in results for r in res["traced"]]
    if not records:
        print("benchmark failed: no task ran", file=sys.stderr)
        return 1
    if args.trace:
        values, extra = per_layer(results, records, traced), {}
        units = {m: u for m, (u, _, _) in spec.PER_LAYER.items()}
    else:
        values, extra = end_to_end(results, records)
        units = {m: u for m, (u, _, _) in spec.END_TO_END.items()}
    every = records + traced
    failed = sum(not r["ok"] for r in every)
    finite = all(math.isfinite(v) for v in values.values())
    summary = {"correct": failed == 0 and finite,
               "attempted": len(every), "failed": failed,
               "metrics": {m: {"value": values[m], "unit": units[m]}
                           for m in units}}
    kinds = {}
    for r in records:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    record = {
        "workload": args.workload, "why": spec.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "processes": len(results),
        "setup_samples": [res["setup_s"] for res in results],
        "tasks_by_kind": kinds, "checks": results[-1]["checks"],
        "failures": [r["why"] for r in every if not r["ok"]][:10],
        "machine": machine_facts(nproc, results[0]["libraries"]),
        "provenance": {"commit": git_commit(), "src_lines": src_lines(),
                       "thread_cap": nproc},
        **extra, **summary}
    if args.trace:
        record["moves"] = {m: moves for m, (_, _, moves)
                           in spec.PER_LAYER.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
