"""The four workloads: seeded tasks in a fixed slot pattern, with checks.

Task i of a workload takes its shape (function, case, grid size) from slot
i mod len(SLOTS) and its numbers (material, field, direction, potential) from
a generator seeded by (seed, workload, i).  So every seed runs the same mix
of work on fresh inputs, and a run averages over many inputs.  With
`smoke=True` every slot runs at the workload's smallest size.

A task is a callable taking a tracer and returning the task's accuracy figure
(None when it has none); a failed check raises `CheckFailed`.  Every call
into pndislo goes through `tr.call(span_name, fn, ...)`, so the traced run
can attribute time to modules.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from pndislo import (cli, extension, kernels, moduli, nonlocal_ops, regions,
                     solver, symbols)

import inputs

SYMBOL = {"I": symbols.symbol_case1, "II": symbols.symbol_case2,
          "III": symbols.symbol_case3}
MEMBER = {"I": regions.in_region_case1, "II": regions.in_region_case2}


class CheckFailed(Exception):
    pass


class Checks:
    """Raises on a failed check and remembers which checks ran."""

    def __init__(self):
        self.seen = set()

    def __call__(self, name, ok, detail=""):
        self.seen.add(name)
        if not ok:
            raise CheckFailed(f"{name} failed: {detail}")


class Task:
    def __init__(self, kind, fn, *args):
        self.kind, self.fn, self.args = kind, fn, args

    def __call__(self, tr):
        return self.fn(tr, *self.args)


def derive(tr, case, ec):
    if case == "III":
        return tr.call("moduli.derive_parallel", moduli.derive_parallel, ec)
    return tr.call("moduli.derive_perp", moduli.derive_perp, ec)


def material(rng, case, j):
    """Material inside the positivity window of `case`, anchor j."""
    if case == "III":
        return inputs.parallel_material(
            rng, inputs.PARALLEL_INSIDE[j % len(inputs.PARALLEL_INSIDE)])
    return inputs.perp_material(
        rng, inputs.PERP_INSIDE[j % len(inputs.PERP_INSIDE)])


def symbol_fn(case, params):
    return lambda k1, k2: SYMBOL[case](params, k1, k2)


def counting_potential(tr, base):
    """`base` with dW and d2W routed through counters (solver.*_evals)."""
    def dw(u):
        tr.count("solver.dw_evals")
        return base.dw(u)

    def d2w(u):
        tr.count("solver.d2w_evals")
        return base.d2w(u)

    return solver.Potential(base.kind, base.scale, base.w, dw, d2w)


class Workload:
    NAME = ""
    SLOTS = ()

    def __init__(self, seed, smoke):
        self.seed, self.smoke = seed, smoke
        self.checks = Checks()

    def task(self, i):
        slot = self.SLOTS[i % len(self.SLOTS)]
        return self.make(i, slot, inputs.generator(self.seed, self.NAME, i),
                         self.smoke)

    def warmup(self):
        """One task per kind, at the workload's smallest size."""
        first = {}
        for i, slot in enumerate(self.SLOTS):
            first.setdefault(self.kind(slot), (i, slot))
        return [self.make(i, slot, inputs.generator(
            self.seed, self.NAME + "-warmup", i), True)
            for i, slot in first.values()]


# ------------------------------------------------------------------ profile

class Profile(Workload):
    NAME = "profile"
    X = 200.0
    REC_N = 256
    SMALL_N = 4096          # the largest N at which every slot is resolved
    # case, quartic scale in units of m(e) (None: cosine oracle), theta
    # centre, N, method.  Scaling W by m(e) gives every material the same
    # core width; scale and N keep the core resolved, so |lambda_min| stays
    # well below its 1e-4 limit.
    SLOTS = (("II", 1.5, 0.0, 4096, "newton"),
             ("I", 1.0, 0.5, 2048, "newton"),
             ("III", None, -0.4, 4096, "newton"),
             ("I", 1.5, -0.3, 8192, "newton"),
             ("III", 1.5, 0.3, 2048, "gradient-flow"),
             ("II", None, 0.6, 2048, "newton"),
             ("III", 3.0, 0.0, 4096, "newton"))

    @staticmethod
    def kind(slot):
        return "oracle" if slot[1] is None else slot[4]

    def make(self, i, slot, rng, small):
        case, scale, theta, N, method = slot
        if scale is not None:
            scale = inputs.potential_scale(rng, scale)
        return Task(self.kind(slot), self.run, case, material(rng, case, i),
                    scale, inputs.direction(rng, theta),
                    min(N, self.SMALL_N) if small else N, method)

    def run(self, tr, case, ec, scale, theta, N, method):
        ck = self.checks
        params = derive(tr, case, ec)
        c, s = math.cos(theta), math.sin(theta)
        m_e = float(tr.call("symbols.symbol", SYMBOL[case], params, c, s))
        tr.count("symbols.points")
        base = (solver.Potential.cosine(m_e) if scale is None
                else solver.Potential.quartic(scale * m_e))
        pot = counting_potential(tr, base)
        sol = tr.call("solver.solve_profile", solver.solve_profile, case,
                      params, potential=pot, theta=theta, X=self.X, N=N,
                      method=method)
        ck("profile.residual", sol.residual <= 1e-10, f"{sol.residual:.3e}")
        ck("profile.m_e", abs(sol.m_e - m_e) <= 1e-12 * m_e,
           f"{sol.m_e!r} vs {m_e!r}")
        ck("profile.in_region", sol.in_region is True, repr(sol.in_region))
        tr.call("solver.check_stability", solver.check_stability, sol,
                n_eig=4)
        ck("profile.lambda_min", abs(sol.lambda_min) <= 1e-4,
           f"{sol.lambda_min:.3e}")
        if scale is None:
            linf = float(np.max(np.abs(sol.psi
                                       - (2 / np.pi) * np.arctan(sol.x))))
            ck("profile.oracle_linf", linf <= 1e-3, f"{linf:.3e}")
        fld, rec = tr.call("solver.reconstruct_2d", solver.reconstruct_2d,
                           sol, self.REC_N, self.REC_N)
        sym = symbol_fn(case, params)
        en = tr.call("nonlocal_ops.energy", nonlocal_ops.energy, fld,
                     potential=pot, symbol=sym)
        lu = tr.call("nonlocal_ops.apply_multiplier",
                     nonlocal_ops.apply_multiplier, sym, fld)
        tr.count("nonlocal_ops.points", 2 * fld.values.size)
        # Plancherel: the whole-cell nonlocal energy is (1/2) <u, L u>
        half_form = 0.5 * float(np.mean(fld.values * lu.values)) \
            * fld.L1 * fld.L2
        ck("profile.energy_plancherel",
           en.total > 0.0
           and abs(en.nonlocal_part - half_form)
           <= 1e-9 * abs(en.nonlocal_part),
           f"{en.nonlocal_part!r} vs {half_form!r}")
        return rec


# ------------------------------------------------------------------- extend

class Extend(Workload):
    NAME = "extend"
    L = 2.0 * math.pi
    X_NORMAL = np.concatenate([-0.1 * np.arange(1, 41)[::-1],
                               0.1 * np.arange(0, 41)])     # 81 samples
    # 8x8 tasks cost the same in both orientations; one task in nine is
    # 16x16 (perp, then parallel), few enough that the median and the tail
    # percentile both fall among the 8x8 tasks at this run length.
    SLOTS = tuple((("perp", "parallel")[k % 2], 16 if k in (4, 13) else 8)
                  for k in range(18))
    KMAX = 3                # every field has the same band on both grids
    # build_halfspace raises LinAlgError ("inconsistent multiplicities") for
    # perp materials with 0 < |delta - 1| < ~3e-3, where r1 and r2 nearly
    # coincide; the anchors at delta = 1 would draw such materials, so the
    # perp tasks use the others.
    PERP_ANCHORS = tuple(a for a in inputs.PERP_INSIDE if abs(a[1] - 1) > 0.1)
    # the interior residual grows like (decay rate x spacing)^8, so a few %
    # of material jitter would move err_max by tens of %
    JITTER = 0.1

    @staticmethod
    def kind(slot):
        return slot[0]

    def make(self, i, slot, rng, small):
        ori, n = slot
        if small:
            n = 8
        if ori == "perp":
            ec = inputs.perp_material(
                rng, self.PERP_ANCHORS[i % len(self.PERP_ANCHORS)],
                self.JITTER)
        else:
            ec = inputs.parallel_material(
                rng, inputs.PARALLEL_INSIDE[i % len(inputs.PARALLEL_INSIDE)],
                self.JITTER)
        ua = inputs.band_limited_field(rng, n, self.L, self.KMAX)
        ub = inputs.band_limited_field(rng, n, self.L, self.KMAX)
        return Task(ori, self.run, ori, ec, ua, ub)

    def run(self, tr, ori, ec, ua, ub):
        ck = self.checks
        fld = tr.call("extension.extend", extension.extend, ori, ec, ua, ub,
                      self.X_NORMAL)
        tr.count("extension.mode_samples", ua.values.size * self.X_NORMAL.size)
        i0 = int(np.searchsorted(fld.x_normal, 0.0))
        ia, ib = (0, 2) if ori == "perp" else (0, 1)
        trace_err = max(float(np.max(np.abs(fld.u[ia, i0] - ua.values))),
                        float(np.max(np.abs(fld.u[ib, i0] - ub.values))))
        ck("extend.slip_trace", trace_err <= 1e-12, f"{trace_err:.3e}")
        res = tr.call("extension.interior_residual",
                      extension.interior_residual, fld)
        ck("extend.interior_residual", res <= 1e-4, f"{res:.3e}")
        _, _, dens = tr.call("extension.stress_strain",
                             extension.stress_strain, fld)
        # the stiffness is positive definite, so is the energy density
        ck("extend.energy_density",
           bool(np.all(np.isfinite(dens)))
           and float(dens.min()) >= -1e-12 * float(np.abs(dens).max()),
           f"min {float(dens.min()):.3e}")
        return res


# ----------------------------------------------------------------- nonlocal

class Nonlocal(Workload):
    NAME = "nonlocal"
    Q_CELL = 60.0
    E_CELL = 64.0
    # ("quad", case or "aniso", n) | ("energy", case, n, radii).  Most
    # tasks are 128x128 quadratures of about equal cost, so the median and
    # the tail percentile fall among them; the cheaper 512x512 energy and
    # the dearer 1024x1024 energy and 256x256 quadrature sit at the ends.
    SLOTS = (("quad", "I", 128), ("quad", "II", 128),
             ("energy", "II", 512, (4.0, 8.0, 16.0, 32.0)),
             ("quad", "III", 128), ("quad", "aniso", 128),
             ("energy", "I", 1024, (8.0, 32.0)), ("quad", "II", 256))

    @staticmethod
    def kind(slot):
        return "quadrature" if slot[0] == "quad" else "energy"

    def make(self, i, slot, rng, small):
        case, n = slot[1], slot[2]
        if slot[0] == "quad":
            f = inputs.band_limited_field(rng, 128 if small else n,
                                          self.Q_CELL, 12)
            if case == "aniso":
                return Task("quadrature", self.aniso,
                            float(rng.uniform(0.5, 2.0)), f)
            return Task("quadrature", self.quad, case,
                        material(rng, case, i), f)
        f = inputs.band_limited_field(rng, 512 if small else n,
                                      self.E_CELL, 8)
        return Task("energy", self.energy, case, material(rng, case, i), f,
                    slot[3])

    def _duality(self, tr, q, field, sym):
        s = tr.call("nonlocal_ops.apply_multiplier",
                    nonlocal_ops.apply_multiplier, sym, field)
        tr.count("nonlocal_ops.points", 2 * field.values.size)
        err = float(np.max(np.abs(q.values - s.values))
                    / np.max(np.abs(s.values)))
        self.checks("nonlocal.duality", err <= 1e-3, f"{err:.3e}")
        return err

    def quad(self, tr, case, ec, field):
        params = derive(tr, case, ec)
        kf = tr.call("kernels.build_kernel", kernels.build_kernel, case,
                     params)
        q = tr.call("nonlocal_ops.apply_kernel_quadrature",
                    nonlocal_ops.apply_kernel_quadrature, kf, field)
        return self._duality(tr, q, field, symbol_fn(case, params))

    def aniso(self, tr, rho, field):
        q = tr.call("nonlocal_ops.aniso_half_laplacian",
                    nonlocal_ops.aniso_half_laplacian, rho, field,
                    mode="integral")
        return self._duality(tr, q, field,
                             lambda k1, k2: np.sqrt(k1 ** 2 + rho * k2 ** 2))

    def energy(self, tr, case, ec, field, radii):
        params = derive(tr, case, ec)
        kf = tr.call("kernels.build_kernel", kernels.build_kernel, case,
                     params)
        pot = solver.Potential.quartic(1.0)
        prev = 0.0
        for R in radii:
            en = tr.call("nonlocal_ops.energy", nonlocal_ops.energy, field,
                         potential=pot, kf=kf, R=R)
            tr.count("nonlocal_ops.points", field.values.size)
            # a positive kernel and W >= 0: a larger ball adds pairs
            self.checks("nonlocal.energy_monotone",
                        en.total > 0.0 and en.total >= prev,
                        f"E({R}) = {en.total!r} after {prev!r}")
            prev = en.total
        return None


# ------------------------------------------------------------------- survey

def _survey_slots():
    """12 perp screening materials interleaved with 6 parallel materials,
    3 region scans and 4 CLI commands."""
    slots = []
    for j in range(len(inputs.PERP_SCREEN)):
        slots.append(("perp", j))
        if j % 2 == 1:
            slots.append(("parallel", j // 2))
        if j % 4 == 3:
            slots.append(("scan", ("I", "II", "III")[j // 4]))
        if j % 3 == 2:
            slots.append(("cli", ("validate", "symbol", "kernel",
                                  "region")[j // 3]))
    return tuple(slots)


class Survey(Workload):
    NAME = "survey"
    SLOTS = _survey_slots()
    N_DENSE = 4096
    N_SYMBOL_DIRS = 64
    # |kmin| below this share of max |K| is too close to a region boundary
    # for the sign comparison
    SIGN_TOL = 1e-6

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        th = (np.arange(self.N_DENSE) + 0.5) * np.pi / self.N_DENSE
        self.cos_t, self.sin_t = np.cos(th), np.sin(th)
        self.workdir = os.path.join(os.path.dirname(os.path.abspath(
            __file__)), "out", "work")
        os.makedirs(self.workdir, exist_ok=True)

    @staticmethod
    def kind(slot):
        return "material" if slot[0] in ("perp", "parallel") else slot[0]

    def make(self, i, slot, rng, small):
        what, arg = slot
        if what == "perp":
            return Task("material", self.perp_material, inputs.perp_material(
                rng, inputs.PERP_SCREEN[arg]),
                rng.uniform(0.0, np.pi, self.N_SYMBOL_DIRS))
        if what == "parallel":
            return Task("material", self.parallel_material,
                        inputs.parallel_material(
                            rng, inputs.PARALLEL_INSIDE[arg]),
                        rng.uniform(0.0, np.pi, self.N_SYMBOL_DIRS))
        n = 8 if small else 16
        lo1, lo2 = (float(v) for v in rng.uniform(-0.01, 0.01, size=2))
        if what == "scan":
            if arg == "III":     # (mu, nu) of the isotropic embedding
                axes = (np.linspace(0.5 + lo1, 2.0, n // 2),
                        np.linspace(-0.4 + lo2, 0.45, n // 2))
            else:                # (nu, delta)
                axes = (np.linspace(-0.9 + lo1, 0.49, n),
                        np.linspace(0.05 + lo2, 3.95, n))
            return Task("scan", self.scan, arg, *axes)
        m = material(rng, "I", i)
        t = rng.uniform(0.0, np.pi)
        # --flag=value: argparse takes "-6e-05" after a space for an option
        five = [f"--{k}={float(getattr(m, k))!r}"
                for k in ("c11", "c13", "c33", "c44", "c66")]
        argv = {"validate": ["validate"] + five,
                "symbol": ["symbol", "--case", "II"] + five
                + [f"--k1={math.cos(t)!r}", f"--k2={math.sin(t)!r}"],
                "kernel": ["kernel", "--case", "I", f"--nu={0.25 + lo1!r}",
                           f"--delta={1.0 + lo2!r}"],
                "region": ["region", "--case", "II",
                           f"--nu-range={-0.4 + lo1!r}:0.49:{n}",
                           f"--delta-range={0.1 + lo2!r}:3.9:{n}"]}[arg]
        return Task("cli", self.cli, arg, argv, arg in ("kernel", "region"))

    def _circle(self, tr, case, params, member):
        ck = self.checks
        kf = tr.call("kernels.build_kernel", kernels.build_kernel, case,
                     params)
        _, kmin = tr.call("kernels.circle_min", kernels.circle_min, kf,
                          params)
        vals = tr.call("kernels.eval", kf, self.cos_t, self.sin_t)
        scale = float(np.max(np.abs(vals)))
        gap = (float(np.min(vals)) - kmin) / scale
        ck("survey.circle_min_le_grid", gap >= -1e-12, f"gap {gap:.3e}")
        if abs(kmin) > self.SIGN_TOL * scale:
            ck("survey.membership_sign", member == (kmin > 0.0),
               f"case {case}: member {member}, kmin {kmin!r}")
        return abs(gap)

    def perp_material(self, tr, ec, angles):
        ck = self.checks
        rep = tr.call("moduli.validate", moduli.validate, ec)
        ck("survey.elliptic", rep.valid, repr(rep))
        dp = tr.call("moduli.derive_perp", moduli.derive_perp, ec)
        worst = 0.0
        for case in ("I", "II"):
            member = tr.call("regions.in_region", MEMBER[case], dp.nu,
                             dp.delta)
            worst = max(worst, self._circle(tr, case, dp, member))
        k1, k3 = np.cos(angles), np.sin(angles)
        c = tr.call("symbols.symbol_lower_constant",
                    symbols.symbol_lower_constant, dp)
        for case, idx in (("I", 1), ("II", 2)):
            up = tr.call("symbols.symbol_upper_constant",
                         symbols.symbol_upper_constant, dp, case=idx)
            m = tr.call("symbols.symbol", SYMBOL[case], dp, k1, k3)
            tr.count("symbols.points", k1.size)
            # the upper constant is a maximum over a direction grid
            ck("survey.symbol_upper_bound",
               bool(np.all(m <= dp.mu * up * (1.0 + 1e-5))),
               f"case {case}: max m/mu {float(np.max(m)) / dp.mu!r} > {up!r}")
            if case == "I":
                ck("survey.symbol_lower_bound",
                   bool(np.all(m >= 2.0 * dp.mu * c * (1.0 - 1e-12))),
                   f"min m {float(np.min(m))!r}, c {c!r}")
        return worst

    def parallel_material(self, tr, ec, angles):
        ck = self.checks
        rep = tr.call("moduli.validate", moduli.validate, ec)
        ck("survey.elliptic", rep.valid, repr(rep))
        dpar = tr.call("moduli.derive_parallel", moduli.derive_parallel, ec)
        member = tr.call("regions.in_region", regions.in_region_case3, ec)
        worst = self._circle(tr, "III", dpar, member)
        k1, k2 = np.cos(angles), np.sin(angles)
        m = tr.call("symbols.symbol", symbols.symbol_case3, dpar, k1, k2)
        tr.count("symbols.points", k1.size)
        lo, hi = sorted((dpar.eta1, dpar.eta2))
        # on the unit circle m lies between eta1 and eta2
        ck("survey.symbol_case3_bounds",
           bool(np.all((m >= lo * (1 - 1e-12)) & (m <= hi * (1 + 1e-12)))),
           f"[{float(np.min(m))!r}, {float(np.max(m))!r}] vs [{lo!r}, {hi!r}]")
        return worst

    def scan(self, tr, region, axis1, axis2):
        sc = tr.call("regions.scan", regions.scan, region, axis1, axis2)
        tr.count("regions.cells", sc.member.size)
        off = ~sc.boundary & np.isfinite(sc.kmin)
        self.checks("survey.scan_sign",
                    bool(np.all((sc.kmin[off] > 0.0) == sc.member[off])),
                    f"region {region}")
        return None

    def _run_cli(self, tr, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = tr.call("cli.main", cli.main, argv)
        tr.count("cli.calls")
        self.checks("survey.cli_exit", rc == 0, f"{argv[0]} exit {rc}")
        try:
            json.loads(buf.getvalue())
            detail = ""
        except json.JSONDecodeError as e:
            detail = f"{argv[0]}: {e}"
        self.checks("survey.cli_json", not detail, detail)

    def cli(self, tr, name, argv, csv):
        if not csv:
            self._run_cli(tr, argv)
            return None
        blobs = []
        for k in range(2):
            path = os.path.join(self.workdir, f"{name}{k}.csv")
            self._run_cli(tr, argv + ["--out", path])
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        self.checks("survey.cli_csv_identical",
                    blobs[0] == blobs[1] and len(blobs[0]) > 0, name)
        return None


WORKLOADS = {w.NAME: w for w in (Profile, Extend, Nonlocal, Survey)}
