"""Command-line front end.

Subcommands: validate, region, symbol, kernel, solve, extend, verify.
Exit codes: 0 success, 1 validation/property failure, 2 numerical
non-convergence, 3 bad input.  Machine-readable JSON summaries go to
standard output; CSV files use shortest round-trip (.17g) formatting with a
header row.  A flat ``key = value`` config file can preload any flag of the
chosen subcommand; explicit flags override it, unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import regions

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_INPUT = 3

#: `region`'s range flags and their defaults; each case takes only its own
#: `axis_names`
_RANGE_DEFAULTS = {"nu": None, "delta": None, "mu": "0.5:2:20"}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting (for exit-code control).

    Any token starting with '-' and a digit is a value, so negative numbers
    in exponent form (``--c13 -6.25e-05``) are not mistaken for options.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _ArgumentError(message)


def _add_material(p):
    p.add_argument("--c11", type=float)
    p.add_argument("--c13", type=float)
    p.add_argument("--c33", type=float)
    p.add_argument("--c44", type=float)
    p.add_argument("--c66", type=float)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)


def _material_constants(args):
    from .moduli import ElasticConstants, perp_from_parameters, \
        perp_to_constants
    cs = [args.c11, args.c13, args.c33, args.c44, args.c66]
    if all(c is not None for c in cs):
        if (args.mu, args.nu, args.delta) != (None, None, None):
            raise _ArgumentError("give the five constants or "
                                 "--mu/--nu/--delta, not both")
        return ElasticConstants(*cs)
    if any(c is not None for c in cs):
        raise _ArgumentError("give all five constants or none")
    if args.nu is None:
        raise _ArgumentError("material missing: five constants or "
                             "--mu/--nu/--delta")
    mu = 1.0 if args.mu is None else args.mu
    delta = 1.0 if args.delta is None else args.delta
    return perp_to_constants(perp_from_parameters(mu, args.nu, delta))


def _parse_range(spec: str):
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as e:
        raise _ArgumentError(f"range must be 'start:stop:count', got "
                             f"{spec!r}") from e
    if n < 2:
        raise _ArgumentError("range count must be >= 2")
    return np.linspace(a, b, n)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------- subcommands

def _cmd_validate(args):
    from .moduli import check_special_condition, validate
    ec = _material_constants(args)
    rep = validate(ec)
    root, equal = check_special_condition(ec)
    _emit({"elliptic": rep.valid,
           "c66_window": rep.c66_window,
           "c13_bound": rep.c13_bound,
           "c44_positive": rep.c44_positive,
           "special_root": root, "special_equal": equal,
           "special": root and equal})
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_region(args):
    c = regions.case(args.case)
    scans = f"case {c.name} scans {' x '.join(c.axis_names)}"
    for name in _RANGE_DEFAULTS:
        if (name not in c.axis_names
                and getattr(args, f"{name}_range") is not None):
            raise _ArgumentError(f"{scans}: --{name}-range does not apply")
    axes = []
    for name in c.axis_names:
        spec = getattr(args, f"{name}_range")
        spec = _RANGE_DEFAULTS[name] if spec is None else spec
        if spec is None:
            raise _ArgumentError(f"{scans}: --{name}-range is missing")
        axes.append(_parse_range(spec))
    sc = regions.scan(c.name, *axes, n_theta=args.n_theta)
    if args.out:
        sc.to_csv(args.out)
    _emit({"case": args.case,
           "cells": int(sc.member.size),
           "members": int(np.count_nonzero(sc.member)),
           "boundary": int(np.count_nonzero(sc.boundary)),
           "out": args.out, "stats": sc.stats})
    return EXIT_OK


def _cmd_symbol(args):
    c = regions.case(args.case)
    ec = _material_constants(args)
    if not (math.isfinite(args.k1) and math.isfinite(args.k2)):
        raise _ArgumentError("k must be finite")
    if args.k1 == 0.0 and args.k2 == 0.0:
        raise _ArgumentError("k must be nonzero")
    params = c.derive(ec)
    # m and dtn are 1-homogeneous and det is 2-homogeneous: evaluated at
    # k 2^-e, where squaring k cannot overflow or underflow, and scaled back
    # exactly; a det beyond the float range is null
    e = math.frexp(max(abs(args.k1), abs(args.k2)))[1]
    k1, k2 = math.ldexp(args.k1, -e), math.ldexp(args.k2, -e)
    (a11, a12), (a21, a22) = c.dtn(params, k1, k2).tolist()
    det = a11 * a22 - a12 * a21
    try:
        m, a11, a12, a21, a22 = (math.ldexp(v, e) for v in (
            float(c.symbol(params, k1, k2)), a11, a12, a21, a22))
    except OverflowError:
        raise _ArgumentError("k is too large: the symbol overflows") from None
    try:
        det = math.ldexp(det, 2 * e)
    except OverflowError:
        det = None
    _emit({"case": c.name, "k1": args.k1, "k2": args.k2, "m": m,
           "dtn": {"a11": a11, "a12": a12, "a21": a21, "a22": a22,
                   "det": det}})
    return EXIT_OK


def _cmd_kernel(args):
    from . import kernels
    c = regions.case(args.case)
    params = c.derive(_material_constants(args))
    kf = c.kernel(params)
    th, kv = kernels.circle_profile(kf, n_theta=args.n_theta)
    tmin, kmin = kernels.circle_min(kf)
    if args.out:
        _write_csv(args.out, ["theta", "K"], zip(th, kv))
    _emit({"case": args.case, "min": kmin, "argmin_theta": tmin,
           "positive": bool(kmin > 0.0), "out": args.out})
    return EXIT_OK


def _cmd_solve(args):
    from . import solver
    c = regions.case(args.case)
    params = c.derive(_material_constants(args))
    pot = None
    if args.potential == "quartic":
        pot = solver.Potential.quartic(
            1.0 if args.scale is None else args.scale)
    elif args.potential != "cosine":
        raise _ArgumentError(f"unknown potential {args.potential!r}")
    elif args.scale is not None:
        raise _ArgumentError("--scale applies to --potential quartic only")
    if args.n_eig < 1:
        raise _ArgumentError("--n-eig must be at least 1")
    if args.n_eig > args.N // 4:
        raise _ArgumentError(f"--n-eig must be at most N/4 = {args.N // 4}")
    try:
        sol = solver.solve_profile(c.name, params, potential=pot,
                                   theta=args.theta, X=args.X, N=args.N,
                                   method=args.method)
    except solver.SolverError as e:
        _emit({"error": str(e), "history": e.history[-5:]})
        return EXIT_NO_CONVERGENCE
    eigs = solver.check_stability(sol, n_eig=args.n_eig)
    if args.out:
        _write_csv(args.out, ["x", "psi"], zip(sol.x, sol.psi))
    _emit({"case": args.case, "theta": sol.theta, "m_e": sol.m_e,
           "residual": sol.residual, "lambda_min": sol.lambda_min,
           "eigenvalues": [float(v) for v in eigs],
           "in_region": sol.in_region, "X": sol.X, "N": sol.N,
           "out": args.out, "stats": sol.stats})
    # an unconverged spectrum is reported, not passed off as a result
    return EXIT_OK if sol.stats["lobpcg_converged"] else EXIT_NO_CONVERGENCE


def _cmd_extend(args):
    from . import extension
    from .nonlocal_ops import GridField2D
    ec = _material_constants(args)
    L, n = args.L, args.n
    m1, m2 = args.m1, args.m2
    if m1 == 0 and m2 == 0:
        raise _ArgumentError("mode indices (m1, m2) must not both be 0")
    if not (math.isfinite(L) and L > 0.0):
        raise _ArgumentError("--L must be finite and positive")
    # the lower half-space gets n2 samples; interior_residual needs 17
    if args.n2 < 17:
        raise _ArgumentError("--n2 must be at least 17")
    amp = args.amplitude
    # log|u| fits the decay rate; x2_max sets the normal step
    if not (math.isfinite(amp) and amp != 0.0):
        raise _ArgumentError("--amplitude must be finite and nonzero")
    if not (math.isfinite(args.x2_max) and args.x2_max > 0.0):
        raise _ArgumentError("--x2-max must be finite and positive")

    def f_a(x, y):
        return amp * np.cos(2.0 * np.pi * (m1 * x + m2 * y) / L)

    ua = GridField2D.from_function(L, L, n, n, f_a)
    ub = GridField2D.from_function(L, L, n, n, lambda x, y: 0.0 * x * y)
    h = args.x2_max / args.n2
    xn = np.concatenate([-h * np.arange(1, args.n2 + 1)[::-1],
                         h * np.arange(0, args.n2 + 1)])
    fld = extension.extend(args.orientation, ec, ua, ub, xn)
    res = extension.interior_residual(fld)
    deep = fld.x_normal > 0.5 * args.x2_max
    amps = np.max(np.abs(fld.u[:, deep]), axis=(0, 2, 3))
    rate = -np.polyfit(fld.x_normal[deep], np.log(amps), 1)[0]
    if args.out:
        i0, j0 = 0, 0
        rows = [(x, fld.u[0, i, i0, j0], fld.u[1, i, i0, j0],
                 fld.u[2, i, i0, j0]) for i, x in enumerate(fld.x_normal)]
        _write_csv(args.out + ".csv", ["xn", "u1", "u2", "u3"], rows)
        fld.tofile(args.out + ".bin", args.out + ".json")
    _emit({"orientation": args.orientation, "interior_residual": res,
           "decay_rate": float(rate), "normal_samples": len(xn),
           "out": args.out, "stats": fld.stats})
    return EXIT_OK if res <= 1e-4 else EXIT_NO_CONVERGENCE


def _pair_sum_energy(field, kf, R):
    """The nonlocal part of E(u; B_R) as the direct sum of
    -(u(x)-u(y))^2 l(x-y) dA / 4 over the grid pairs not both outside B_R,
    l = irfft2 of the quadrature multiplier at every periodic offset."""
    from .nonlocal_ops import quadrature_multiplier
    n1, n2 = field.shape
    ell = np.fft.irfft2(quadrature_multiplier(kf, field), s=field.shape)
    x1, x2 = field.axes()
    inside = (x1[:, None] ** 2 + x2 ** 2 <= R * R).ravel()
    i1, i2 = np.indices((n1, n2)).reshape(2, -1)
    pair = inside[:, None] | inside
    u = field.values.ravel()
    terms = (u[:, None] - u) ** 2 * ell[(i1[:, None] - i1) % n1,
                                        (i2[:, None] - i2) % n2]
    return -0.25 * float(np.sum(terms[pair])) * field.L1 / n1 * field.L2 / n2


def _cmd_verify(args):
    from .moduli import ElasticConstants, from_isotropic, \
        perp_from_parameters, perp_to_constants, derive_parallel
    from . import kernels
    from .nonlocal_ops import GridField2D, apply_kernel_quadrature, \
        apply_multiplier, energy
    from . import extension

    rng = np.random.default_rng(args.seed)
    checks = {}

    iso = from_isotropic(1.0, 0.25)
    case1, case2 = regions.case("I"), regions.case("II")
    dp = case1.derive(iso)
    dpar = regions.case("III").derive(iso)

    # kernel PDE residuals on a few circle points
    th = np.linspace(0.05, np.pi / 2 - 0.05, 10)
    worst = 0.0
    for case, params in (("I_K1", dp), ("I_K2", dp), ("II", dp),
                         ("III", dpar)):
        for t in th:
            r = kernels.pde_residual(case, params, math.cos(t), math.sin(t))
            worst = max(worst, float(r))
    checks["kernel_pde_residual"] = worst
    ok = worst <= 1e-6

    # each scalar symbol is the Schur complement of its DtN matrix on the
    # slip component
    ks = rng.standard_normal((2, 200))
    mat_err = 0.0
    for c in regions.CASES.values():
        params = c.derive(iso)
        a = c.dtn(params, *ks)
        s, f = c.slip, 1 - c.slip
        schur = a[..., s, s] - a[..., s, f] * a[..., f, s] / a[..., f, f]
        m = c.symbol(params, *ks)
        mat_err = max(mat_err, float(np.max(np.abs(schur - m) / np.abs(m))))
    checks["symbol_vs_matrix"] = mat_err
    ok = ok and mat_err <= 1e-12

    # kernel-symbol duality at modest resolution
    f = GridField2D.from_function(30.0, 30.0, 128, 128,
                                  lambda x, y: np.exp(-(x * x + y * y) / 4))
    q = apply_kernel_quadrature(case2.kernel(dp), f)
    s = apply_multiplier(lambda a, b: case2.symbol(dp, a, b), f)
    dual = float(np.max(np.abs(q.values - s.values))
                 / np.max(np.abs(s.values)))
    checks["duality"] = dual
    ok = ok and dual <= 1e-3

    # region cross-check: closed form vs numeric minimum on random samples
    bad = 0
    for _ in range(50):
        nu = rng.uniform(-0.5, 0.49)
        delta = rng.uniform(0.1, 3.9)
        if not regions.in_ellipticity_strip(nu, delta):
            continue
        dpx = perp_from_parameters(1.0, nu, delta)
        _, kmin = kernels.circle_min(case1.kernel(dpx))
        member = case1.member(dpx)
        if abs(kmin) > 1e-6 * (1 + abs(kmin)) and member != (kmin > 0):
            bad += 1
    checks["region_mismatches"] = bad
    ok = ok and bad == 0

    # extension at a random frequency on every closed-form branch:
    # bplus(0) = I, and the closed-form propagators against expm(D x)
    import scipy.linalg
    k1, k2 = float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2))
    e_ext = 0.0
    mats = [("perp", perp_to_constants(perp_from_parameters(1.0, 0.25, d)))
            for d in (1.0, 1 + 1e-6, 0.3)]
    for ori, ec in mats + [("parallel", from_isotropic(1.0, 0.25)), (
            "parallel", ElasticConstants(3.0, 1.0, 2.5, 1.2, 0.8))]:
        sys_ = extension.build_halfspace(ori, ec, k1, k2)
        e_ext = max(e_ext, float(np.max(np.abs(sys_.bplus(0.0) - np.eye(3)))))
        ref = scipy.linalg.expm(sys_.D_decay * 1.3)
        e = np.abs(sys_.propagate([1.3], np.eye(3))[0] - ref)
        e_ext = max(e_ext, float(np.max(e) / np.max(np.abs(ref))))
    checks["extension_identity"] = e_ext
    ok = ok and e_ext <= 1e-12

    # dtn_parallel against the 3D traction map at the last material above,
    # (3, 1, 2.5, 1.2, 0.8)
    A = extension.traction_map("parallel", ec, k1, k2)
    dtn = regions.case("III").dtn(derive_parallel(ec), k1, k2)
    gap = float(np.max(np.abs(A - dtn)) / np.max(np.abs(dtn)))
    checks["parallel_traction_map"] = gap
    ok = ok and gap <= 1e-12

    # ball-localized energy by FFT convolutions against the direct pair sum,
    # case II, on a 16 x 32 cell with h1 != h2
    fld = GridField2D(30.0, 24.0, rng.standard_normal((16, 32)))
    kf = case2.kernel(dp)
    pair = _pair_sum_energy(fld, kf, 5.0)
    gap = abs(energy(fld, kf=kf, R=5.0).nonlocal_part - pair) / abs(pair)
    checks["localized_energy_pair_sum"] = gap
    ok = ok and gap <= 1e-12

    checks["ok"] = bool(ok)
    _emit(checks)
    return EXIT_OK if ok else EXIT_INVALID


# -------------------------------------------------------------------- driver

@functools.cache
def _global_parser():
    g = _Parser(add_help=False)
    g.add_argument("--config", default=None,
                   help="flat key = value file preloading subcommand flags")
    g.add_argument("--seed", type=int, default=12345,
                   help="seed for randomized property checks")
    return g


@functools.cache
def _build_parser():
    """The whole argparse tree, built on first use and reused: parsing does
    not change it."""
    p = _Parser(prog="pndislo", parents=[_global_parser()])
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate")
    _add_material(sp)
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("region")
    sp.add_argument("--case", required=True, choices=tuple(regions.CASES))
    for name in _RANGE_DEFAULTS:
        sp.add_argument(f"--{name}-range", dest=f"{name}_range")
    sp.add_argument("--n-theta", dest="n_theta", type=int, default=512)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_region)

    sp = sub.add_parser("symbol")
    sp.add_argument("--case", required=True, choices=tuple(regions.CASES))
    _add_material(sp)
    sp.add_argument("--k1", type=float, required=True)
    sp.add_argument("--k2", type=float, required=True)
    sp.set_defaults(fn=_cmd_symbol)

    sp = sub.add_parser("kernel")
    sp.add_argument("--case", required=True, choices=tuple(regions.CASES))
    _add_material(sp)
    sp.add_argument("--n-theta", dest="n_theta", type=int, default=512)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("solve")
    sp.add_argument("--case", required=True, choices=tuple(regions.CASES))
    _add_material(sp)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--X", type=float, default=200.0)
    sp.add_argument("--N", type=int, default=4096)
    sp.add_argument("--method", default="newton",
                    choices=["newton", "gradient-flow"])
    sp.add_argument("--potential", default="cosine")
    sp.add_argument("--scale", type=float, default=None)
    sp.add_argument("--n-eig", dest="n_eig", type=int, default=6)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("extend")
    sp.add_argument("--orientation", required=True,
                    choices=["perp", "parallel"])
    _add_material(sp)
    sp.add_argument("--L", type=float, default=2.0 * math.pi)
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--m1", type=int, default=0)
    sp.add_argument("--m2", type=int, default=1)
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.add_argument("--x2-max", dest="x2_max", type=float, default=4.0)
    sp.add_argument("--n2", type=int, default=40)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_extend)

    sp = sub.add_parser("verify")
    sp.set_defaults(fn=_cmd_verify)
    return p


def _load_config(path):
    pairs = []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _ArgumentError(f"{path}:{ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            pairs.append((key.replace("_", "-"), val))
    return pairs


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        # the global options come off first; what is left starts with the
        # subcommand
        pre, rest = _global_parser().parse_known_args(argv)
        # anything left before the subcommand that looks like an option is
        # not a global one; argparse would report its value as the command
        if rest and rest[0].startswith("-") and rest[0] not in ("-h",
                                                                 "--help"):
            raise _ArgumentError(f"unknown option {rest[0].split('=')[0]} "
                                 "before the subcommand")
        spliced = []
        if pre.config:
            if not rest:
                raise _ArgumentError("config given without a subcommand")
            # config values preload the subcommand: spliced right after it,
            # explicit flags (parsed later) take precedence; one
            # "--key=value" token per pair, so a value that starts with '-'
            # is not read as an option
            spliced = [f"--{key}={val}"
                       for key, val in _load_config(pre.config)]
        args = parser.parse_args(rest[:1] + spliced + rest[1:], namespace=pre)
        return args.fn(args)
    except _ArgumentError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, OSError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
