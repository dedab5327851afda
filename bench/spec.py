"""Names, units and intent of everything the benchmark reports.

BENCHMARK.json at the repository root carries the same workloads and metrics
(its format allows only name, unit, direction and bound); this module adds
what that format has no room for: which end-to-end metric each per-module
metric is expected to move, and on which workload.  `smoke.py` checks that the
two agree.
"""

WORKLOADS = {
    "profile": "solve_profile + check_stability + reconstruct_2d + energy "
               "over cases I/II/III, several directions, quartic and cosine "
               "potentials: the solver and LOBPCG do the work",
    "extend": "extension.extend of real multi-mode slip-plane fields, perp and "
              "parallel, 81 normal samples: the per-frequency propagator loop "
              "no other workload runs",
    "nonlocal": "kernel quadrature vs spectral multiplier for I/II/III and the "
                "integral half-Laplacian, plus ball-localised energies: both "
                "uses of nonlocal_ops, grids inside and beyond L2",
    "survey": "material screening with the closed-form modules, region scans "
              "and CLI subcommands: per-call Python overhead, not array work",
}

# name -> (unit, better, bound).  On a shared 2-vCPU host the same task's
# time drifts by up to 2x over a minute, so run-to-run spreads of timings
# reach 0.15-0.2; the bounds sit above that.  err_max is deterministic for a
# seed, and losing digits moves it by orders of magnitude, not by 24 %.
END_TO_END = {
    "tasks_per_s": ("1/s", "higher", 0.24),
    "task_s_p50": ("s", "lower", 0.24),
    "task_s_tail": ("s", "lower", 0.24),
    "setup_s": ("s", "lower", 0.25),
    "err_max": ("rel", "lower", 0.24),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# name -> (unit, better, {workload: [end-to-end metrics it should move]})
PER_LAYER = {
    "extension.extend_s": ("s/task", "lower", {
        "extend": ["tasks_per_s", "task_s_p50", "task_s_tail"]}),
    "extension.mode_samples": ("count/task", "lower", {
        "extend": ["tasks_per_s", "task_s_p50", "task_s_tail"]}),
    "extension.residual_s": ("s/task", "lower", {"extend": ["tasks_per_s"]}),
    "extension.stress_s": ("s/task", "lower", {"extend": ["tasks_per_s"]}),
    "nonlocal_ops.quadrature_s": ("s/task", "lower", {
        "nonlocal": ["tasks_per_s", "task_s_p50"]}),
    "nonlocal_ops.energy_s": ("s/task", "lower", {
        "nonlocal": ["task_s_tail", "peak_rss_mb"]}),
    "nonlocal_ops.multiplier_s": ("s/task", "lower", {
        "nonlocal": ["tasks_per_s"], "profile": ["tasks_per_s"]}),
    "nonlocal_ops.points": ("count/task", "lower", {
        "nonlocal": ["tasks_per_s"], "profile": ["tasks_per_s"]}),
    "solver.solve_s": ("s/task", "lower", {"profile": ["tasks_per_s"]}),
    "solver.stability_s": ("s/task", "lower", {
        "profile": ["task_s_p50", "task_s_tail"]}),
    "solver.reconstruct_s": ("s/task", "lower", {"profile": ["tasks_per_s"]}),
    "solver.dw_evals": ("count/task", "lower", {"profile": ["tasks_per_s"]}),
    "solver.d2w_evals": ("count/task", "lower", {"profile": ["tasks_per_s"]}),
    "regions.scan_s": ("s/task", "lower", {
        "survey": ["task_s_tail", "tasks_per_s"]}),
    "regions.cells": ("count/task", "lower", {
        "survey": ["task_s_tail", "tasks_per_s"]}),
    "kernels.circle_min_s": ("s/task", "lower", {"survey": ["task_s_p50"]}),
    "kernels.eval_s": ("s/task", "lower", {"survey": ["task_s_p50"]}),
    "symbols.busy_s": ("s/task", "lower", {"survey": ["task_s_p50"]}),
    "symbols.points": ("count/task", "lower", {"survey": ["task_s_p50"]}),
    "moduli.busy_s": ("s/task", "lower", {"survey": ["task_s_p50"]}),
    "cli.main_s": ("s/task", "lower", {"survey": ["tasks_per_s", "setup_s"]}),
    "cli.calls": ("count/task", "lower", {
        "survey": ["tasks_per_s", "setup_s"]}),
    "trace.overhead_frac": ("frac", "lower", {}),
    "failed_frac": ("frac", "lower", {}),
}

# Span names recorded by the workloads, grouped into the busy-time metrics.
SPAN_METRICS = {
    "extension.extend_s": ("extension.extend",),
    "extension.residual_s": ("extension.interior_residual",),
    "extension.stress_s": ("extension.stress_strain",),
    "nonlocal_ops.quadrature_s": ("nonlocal_ops.apply_kernel_quadrature",
                                  "nonlocal_ops.aniso_half_laplacian"),
    "nonlocal_ops.energy_s": ("nonlocal_ops.energy",),
    "nonlocal_ops.multiplier_s": ("nonlocal_ops.apply_multiplier",),
    "solver.solve_s": ("solver.solve_profile",),
    "solver.stability_s": ("solver.check_stability",),
    "solver.reconstruct_s": ("solver.reconstruct_2d",),
    "regions.scan_s": ("regions.scan",),
    "kernels.circle_min_s": ("kernels.circle_min",),
    "kernels.eval_s": ("kernels.eval",),
    "cli.main_s": ("cli.main",),
}
# every span of these modules counts towards the module's busy time
MODULE_BUSY = {"symbols.busy_s": "symbols.", "moduli.busy_s": "moduli."}
COUNTERS = ("extension.mode_samples", "nonlocal_ops.points", "solver.dw_evals",
            "solver.d2w_evals", "regions.cells", "symbols.points",
            "cli.calls")
