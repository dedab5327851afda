"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line so the
suite output doubles as a checklist.  Tolerances are part of the contract
and are not loosened to match observed behavior.
"""

import math
import time

import numpy as np

from pndislo import extension, kernels, regions, solver, symbols
from pndislo.moduli import (derive_parallel, derive_perp, from_isotropic,
                            perp_from_parameters, perp_to_constants)
from pndislo.nonlocal_ops import (GridField2D, apply_kernel_quadrature,
                                  apply_multiplier, energy)

ISO = from_isotropic(1.0, 0.25)
DP_ISO = derive_perp(ISO)
DPAR_ISO = derive_parallel(ISO)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{extra}")
    assert ok, f"criterion {num:02d} {name}{extra}"


def test_criterion_01_isotropic_collapse():
    th = np.linspace(1e-3, np.pi - 1e-3, 1000)
    x1, x3 = np.cos(th), np.sin(th)
    ref = kernels.kernel_isotropic(1.0, 0.75)(x1, x3)
    # cases II and III carry the in-plane weight on the other coordinate,
    # so they reproduce the isotropic kernel with arguments swapped
    errs = [
        np.max(np.abs(kernels.kernel_case1(DP_ISO)(x1, x3) / ref - 1.0)),
        np.max(np.abs(kernels.kernel_case2(DP_ISO)(x3, x1) / ref - 1.0)),
        np.max(np.abs(kernels.kernel_case3(DPAR_ISO)(x3, x1) / ref - 1.0)),
    ]
    dpar = derive_parallel(from_isotropic(2.0, -0.3))
    ref2 = kernels.kernel_isotropic(dpar.eta1 / 2.0,
                                    dpar.eta1 / dpar.eta2)(x1, x3)
    errs.append(np.max(np.abs(
        kernels.kernel_case3(dpar)(x3, x1) / ref2 - 1.0)))
    worst = float(max(errs))
    _report(1, "isotropic-collapse", worst <= 1e-10, f"max rel {worst:.2e}")


def test_criterion_02_kernel_pde_residuals():
    dp = perp_from_parameters(1.0, 0.25, 2.0)
    th = np.linspace(0.0, np.pi, 100, endpoint=False) + 0.013
    t0 = time.monotonic()
    worst = 0.0
    for case, par in (("I_K1", dp), ("I_K2", dp), ("II", dp),
                      ("III", DPAR_ISO)):
        for t in th:
            worst = max(worst, kernels.pde_residual(case, par, math.cos(t),
                                                    math.sin(t)))
    dt = time.monotonic() - t0
    _report(2, "kernel-pde-residuals", worst <= 1e-6 and dt < 10.0,
            f"worst {worst:.2e}, {dt:.1f}s")


def test_criterion_03_kernel_symbol_duality():
    f = GridField2D.from_function(
        60.0, 60.0, 512, 512, lambda x, y: np.exp(-(x * x + y * y) / 9.0))
    pairs = [(kernels.kernel_case1(DP_ISO),
              lambda a, b: symbols.symbol_case1(DP_ISO, a, b)),
             (kernels.kernel_case2(DP_ISO),
              lambda a, b: symbols.symbol_case2(DP_ISO, a, b)),
             (kernels.kernel_case3(DPAR_ISO),
              lambda a, b: symbols.symbol_case3(DPAR_ISO, a, b))]
    worst = 0.0
    for kf, sym in pairs:
        q = apply_kernel_quadrature(kf, f).values
        s = apply_multiplier(sym, f).values
        worst = max(worst, float(np.max(np.abs(q - s))
                                 / np.max(np.abs(s))))
    _report(3, "kernel-symbol-duality", worst <= 1e-3,
            f"max rel {worst:.2e}")


def test_criterion_04_positivity_windows():
    # (a) isotropic window 2/3 < q < 3/2 on a 200-point grid
    qs = np.linspace(0.4, 1.8, 200)
    ok_a = all((kernels.circle_min(kernels.kernel_isotropic(1.0, q),
                                   (1.0, q))[1] > 0.0)
               == (2.0 / 3.0 < q < 1.5) for q in qs)

    # (b) case-I closed form vs numeric circle minimum, 100 x 100 grid,
    # one-cell boundary band excluded
    sc1 = regions.scan("I", np.linspace(-0.9, 0.49, 100),
                       np.linspace(0.05, 3.95, 100))
    off = ~sc1.boundary & np.isfinite(sc1.kmin)
    ok_b = bool(np.all((sc1.kmin[off] > 0.0) == sc1.member[off]))

    # (c) case-II membership (sign conditions + r~) on a 50 x 50 grid
    sc2 = regions.scan("II", np.linspace(-0.9, 0.49, 50),
                       np.linspace(0.05, 3.95, 50))
    off2 = ~sc2.boundary & np.isfinite(sc2.kmin)
    ok_c = bool(np.all((sc2.kmin[off2] > 0.0) == sc2.member[off2]))

    # (d) case-III ratio window, isotropic embedding value
    ratio = DPAR_ISO.eta1 / DPAR_ISO.eta2
    ok_d = abs(ratio - 0.75) <= 1e-12 and regions.in_region_case3(ISO)

    ok = ok_a and ok_b and ok_c and ok_d
    _report(4, "positivity-windows", ok,
            f"iso {ok_a}, caseI {ok_b} ({int(off.sum())} cells), "
            f"caseII {ok_c} ({int(off2.sum())} cells), ratio {ratio:.12f}")


def _exact_profile():
    return solver.solve_profile("II", DP_ISO, X=200.0, N=4096)


def test_criterion_05_exact_profile_oracle():
    t0 = time.monotonic()
    sol = _exact_profile()
    dt = time.monotonic() - t0
    linf = float(np.max(np.abs(sol.psi - (2 / np.pi) * np.arctan(sol.x))))
    ok = linf <= 1e-3 and sol.residual <= 1e-10 and dt < 60.0
    _report(5, "exact-profile-oracle", ok,
            f"Linf {linf:.2e}, residual {sol.residual:.2e}, {dt:.1f}s")


def test_criterion_06_stability_spectrum():
    sol = _exact_profile()
    solver.check_stability(sol, n_eig=4)
    _report(6, "stability-spectrum", abs(sol.lambda_min) <= 1e-4,
            f"lambda_min {sol.lambda_min:.2e}")


def test_criterion_07_symbol_lower_bound():
    # 2 mu c r2 <= m~(k) on 10^4 random admissible (nu, delta, k) samples.
    # The advertised constant c = min(1, p)/(max(1, delta^-1/2) + max(0, -nu))
    # holds on the whole strip and reduces to min{1, p} for delta >= 1,
    # nu >= 0, where the plain min{1, p} bound is checked literally as well.
    rng = np.random.default_rng(20260824)
    count = viol = sub = subviol = 0
    while count < 10_000:
        nu = float(rng.uniform(-1.0, 0.4999))
        delta = float(rng.uniform(1e-3, 3.999))
        if not regions.in_ellipticity_strip(nu, delta):
            continue
        count += 1
        dp = perp_from_parameters(1.0, nu, delta)
        c = symbols.symbol_lower_constant(dp)
        t = float(rng.uniform(0.0, np.pi))
        m = float(symbols.symbol_case1(dp, math.cos(t), math.sin(t)))
        if m < 2.0 * dp.mu * c * (1.0 - 1e-12):
            viol += 1
        if delta >= 1.0 and nu >= 0.0:
            sub += 1
            if m < 2.0 * dp.mu * min(1.0, dp.p) * (1.0 - 1e-12):
                subviol += 1
    ok = viol == 0 and subviol == 0 and sub > 1000
    _report(7, "symbol-lower-bound", ok,
            f"{count} samples, {viol} violations; "
            f"min(1,p) on {sub} restricted samples, {subviol} violations")


def test_criterion_08_extension_correctness():
    # propagator identities at the slip plane
    sys_ = extension.build_halfspace("perp", ISO, 1.0, 0.5)
    e_id = float(np.max(np.abs(sys_.bplus(0.0) - np.eye(3))))
    # reflection: the lower propagator at -x, J bplus(x) J, is conj(bplus(x))
    J = np.diag([-1.0, 1.0, -1.0])
    e_cj = max(float(np.max(np.abs(J @ sys_.bplus(x) @ J
                                   - np.conj(sys_.bplus(x)))))
               for x in (0.4, 1.7))

    # interior residual of a single-mode extension
    L, n = 2.0 * np.pi, 16
    ua = GridField2D.from_function(L, L, n, n,
                                   lambda x, y: np.cos(2 * x) + 0.0 * y)
    ub = GridField2D.from_function(L, L, n, n, lambda x, y: 0.0 * x * y)
    xn = np.concatenate([-0.1 * np.arange(1, 41)[::-1],
                         0.1 * np.arange(0, 41)])
    res = extension.interior_residual(extension.extend("perp", ISO,
                                                       ua, ub, xn))

    # decay rate: distinct-root material, mode along the second slip axis,
    # measured on the component that decays at exactly min(r1, r2)
    ec = perp_to_constants(perp_from_parameters(1.0, 0.25, 2.0))
    ua2 = GridField2D.from_function(L, L, n, n,
                                    lambda x, y: np.cos(2 * y) + 0.0 * x)
    fld = extension.extend("perp", ec, ua2, ub, xn)
    dp = perp_from_parameters(1.0, 0.25, 2.0)
    r1, r2 = (float(v) for v in symbols.roots_r(dp, 0.0, 2.0))
    deep = fld.x_normal > 2.0
    amp = np.max(np.abs(fld.u[0][deep]), axis=(1, 2))
    rate = -np.polyfit(fld.x_normal[deep], np.log(amp), 1)[0]
    rate_err = abs(rate - min(r1, r2)) / min(r1, r2)

    ok = e_id <= 1e-14 and e_cj <= 1e-12 and res <= 1e-4 \
        and rate_err <= 0.02
    _report(8, "extension-correctness", ok,
            f"identity {e_id:.1e}, reflection {e_cj:.1e}, "
            f"residual {res:.1e}, rate off by {100 * rate_err:.3f}%")


def test_criterion_09_root_oracle():
    worst = 0.0
    for q in (0.6, 0.75, 0.9):
        coeffs = np.array([-8.0 * (-1.0 + q),
                           -11.0 + 14.0 * q + 13.0 * q * q,
                           2.0 * q * (1.0 - 18.0 * q + q * q),
                           q * q * (13.0 + 14.0 * q - 11.0 * q * q),
                           8.0 * (-1.0 + q) * q ** 3])
        # brute force: first sign change on a 1e-6 step scan, sharpened by
        # bisection inside the bracketing step
        x = np.arange(1, 2_000_001) * 1e-6
        v = np.polyval(coeffs, x)
        i = np.nonzero(np.signbit(v[1:]) != np.signbit(v[:-1]))[0][0]
        lo, hi = x[i], x[i + 1]
        flo = np.polyval(coeffs, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = np.polyval(coeffs, mid)
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        brute = 0.5 * (lo + hi)
        worst = max(worst,
                    abs(regions.smallest_positive_root_rtilde(q) - brute))
    tail = regions.smallest_positive_root_rtilde(0.999)
    ok = worst <= 1e-8 and tail is not None and tail <= 1e-3
    _report(9, "root-oracle", ok,
            f"max dev {worst:.2e}, r~(0.999) = {tail:.2e}")


def test_criterion_10_energy_growth():
    sol = solver.solve_profile("II", DP_ISO, X=40.0, N=2048)
    fld, _ = solver.reconstruct_2d(sol, n1=1024, n2=1024)
    kf = kernels.kernel_case2(DP_ISO)
    pot = sol.potential
    # L* = max(2, C^2 norm of W); for the cosine well the norm is m(e)
    l_star = max(2.0, sol.m_e)
    radii = np.array([4.0, 8.0, 16.0, 32.0])
    vals = np.array([energy(fld, potential=lambda u: pot(u), kf=kf,
                            R=R).total for R in radii])
    growth = radii * np.log(l_star * radii) ** 2
    c_r = vals / growth
    c_fit = float(np.max(c_r))     # smallest admissible constant
    # bounded by C R log^2(L* R): the per-radius constants must not grow
    ok = bool(np.all(vals > 0.0) and np.all(np.diff(c_r) <= 0.0)
              and np.all(vals <= c_fit * growth * (1.0 + 1e-12)))
    _report(10, "energy-growth", ok,
            "C = %.3f, c_R = %s" % (c_fit,
                                    np.array2string(c_r, precision=3)))
