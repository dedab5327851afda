"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload once at its smallest sizes, untraced and traced, and
checks that each run passes, prints every metric named in BENCHMARK.json
with its unit, and runs every check listed in CHECKS.  It also checks that
BENCHMARK.json and spec.py name the same workloads and metrics.  Exits 1 on
the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHECKS = {
    "profile": {"profile.residual", "profile.m_e", "profile.in_region",
                "profile.lambda_min", "profile.oracle_linf",
                "profile.energy_plancherel"},
    "extend": {"extend.slip_trace", "extend.interior_residual",
               "extend.energy_density"},
    "nonlocal": {"nonlocal.duality", "nonlocal.energy_monotone"},
    "survey": {"survey.elliptic", "survey.circle_min_le_grid",
               "survey.membership_sign", "survey.symbol_upper_bound",
               "survey.symbol_lower_bound", "survey.symbol_case3_bounds",
               "survey.scan_sign", "survey.cli_exit", "survey.cli_json",
               "survey.cli_csv_identical"},
}


def fail(msg):
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def check_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {w["name"]: w["why"] for w in bench["workloads"]} != spec.WORKLOADS:
        fail("BENCHMARK.json workloads differ from spec.WORKLOADS")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]}
    if e2e != spec.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from spec.END_TO_END")
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if layer != {k: v[:2] for k, v in spec.PER_LAYER.items()}:
        fail("BENCHMARK.json per_layer differs from spec.PER_LAYER")


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record, summary = json.loads(lines[-2]), json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: summary keys {sorted(summary)}")
    if not summary["correct"] or summary["failed"]:
        fail(f"{workload} trace={trace}: {record['failures']}")
    names = spec.PER_LAYER if trace else spec.END_TO_END
    got = {m: v["unit"] for m, v in summary["metrics"].items()}
    if got != {m: v[0] for m, v in names.items()}:
        fail(f"{workload} trace={trace}: metrics {sorted(got)}")
    missing = CHECKS[workload] - set(record["checks"])
    if missing:
        fail(f"{workload}: checks never ran: {sorted(missing)}")
    print(f"smoke: {workload} trace={trace} ok "
          f"({summary['attempted']} tasks)")


def main():
    check_benchmark_json()
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            run(workload, trace)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
