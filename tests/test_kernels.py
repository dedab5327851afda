import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pndislo import kernels, regions
from pndislo.moduli import (derive_parallel, derive_perp, from_isotropic,
                            perp_from_parameters)

ISO = from_isotropic(1.0, 0.25)
DP_ISO = derive_perp(ISO)
DPAR_ISO = derive_parallel(ISO)
DP_ANISO = perp_from_parameters(1.0, 0.25, 2.0)

angles = st.floats(1e-3, math.pi - 1e-3)


def _circle(n):
    th = np.linspace(0.04, np.pi - 0.04, n)
    return np.cos(th), np.sin(th)


def test_isotropic_collapse_pointwise():
    # delta = 1 collapses case I to the isotropic kernel with q = 1 - nu;
    # cases II and III match it with the in-plane coordinates swapped (their
    # weighted denominator carries q on the first coordinate), case III
    # under mu = eta1/2, q = eta1/eta2
    x1, x3 = _circle(100)
    ref = kernels.kernel_isotropic(1.0, 0.75)(x1, x3)
    assert kernels.kernel_case1(DP_ISO)(x1, x3) == pytest.approx(
        ref, rel=1e-12)
    assert kernels.kernel_case2(DP_ISO)(x3, x1) == pytest.approx(
        ref, rel=1e-12)
    assert kernels.kernel_case3(DPAR_ISO)(x3, x1) == pytest.approx(
        ref, rel=1e-12)


def test_case3_matches_isotropic_for_any_ratio():
    # the case-III kernel depends on (eta1, eta2) only through mu = eta1/2
    # and q = eta1/eta2 (exact scaling identity, coordinates swapped)
    dpar = derive_parallel(from_isotropic(2.0, -0.3))
    x1, x3 = _circle(64)
    ref = kernels.kernel_isotropic(dpar.eta1 / 2.0,
                                   dpar.eta1 / dpar.eta2)(x1, x3)
    assert kernels.kernel_case3(dpar)(x3, x1) == pytest.approx(ref, rel=1e-12)


@given(t=angles, lam=st.floats(0.01, 100.0))
@settings(max_examples=80, deadline=None)
def test_kernels_even_and_homogeneous_minus3(t, lam):
    z1, z3 = math.cos(t), math.sin(t)
    for kf in (kernels.kernel_case1(DP_ANISO), kernels.kernel_case2(DP_ANISO),
               kernels.kernel_case3(DPAR_ISO),
               kernels.kernel_isotropic(1.0, 0.9)):
        v = float(kf(z1, z3))
        assert float(kf(-z1, -z3)) == pytest.approx(v, rel=1e-13)
        assert float(kf(lam * z1, lam * z3)) == pytest.approx(
            v / lam ** 3, rel=1e-10)


def test_kernel_origin_rejected():
    with pytest.raises(ValueError):
        kernels.kernel_case2(DP_ISO)(0.0, 0.0)


def test_pde_residuals_spot_checks():
    pts = [(math.cos(t), math.sin(t)) for t in (0.3, 1.0, 2.4)]
    for case, par in (("I_K1", DP_ANISO), ("I_K2", DP_ANISO),
                      ("II", DP_ANISO), ("III", DPAR_ISO)):
        for x1, x3 in pts:
            assert kernels.pde_residual(case, par, x1, x3) <= 1e-6


@pytest.mark.parametrize("case", ["I_K1", "I_K2", "II", "III"])
def test_pde_residual_tells_a_wrong_kernel(monkeypatch, case):
    # one numerator coefficient off by 1e-4 (each nonzero one in turn) moves
    # the worst residual over 10 angles from <= 1e-6 to >= 2e-5
    par = DPAR_ISO if case == "III" else DP_ANISO
    build, q = kernels._PDE[case]
    term = build(par).terms[0]
    th = np.linspace(0.05, np.pi / 2 - 0.05, 10)

    def worst():
        return max(kernels.pde_residual(case, par, math.cos(t), math.sin(t))
                   for t in th)

    assert worst() <= 1e-6
    for j, a in enumerate(term.num_coeffs):
        if a == 0.0:
            continue
        num = list(term.num_coeffs)
        num[j] = a * (1.0 + 1e-4)
        wrong = kernels.KernelForm(
            case, (replace(term, num_coeffs=tuple(num)),))
        monkeypatch.setitem(kernels._PDE, case, (lambda _: wrong, q))
        assert worst() > 1e-6, j


def test_pde_residual_rejects_origin_neighborhood():
    with pytest.raises(ValueError):
        kernels.pde_residual("II", DP_ISO, 1e-8, 0.0)
    with pytest.raises(ValueError):
        kernels.pde_residual("bogus", DP_ISO, 1.0, 0.0)


def test_circle_min_frozen_case2_isotropic():
    # q = 3/4, p = 1: minimum at theta = 0 with value 2 A / q^3 = 8/9
    t, v = kernels.circle_min(kernels.kernel_case2(DP_ISO), DP_ISO)
    assert v == pytest.approx(8.0 / 9.0, rel=1e-12)
    assert min(t, abs(t - np.pi)) == pytest.approx(0.0, abs=1e-6)


def test_circle_min_frozen_case1():
    dp = perp_from_parameters(1.0, 0.25, 1.5)
    t, v = kernels.circle_min(kernels.kernel_case1(dp), dp)
    assert v == pytest.approx(1.666666666666666, rel=1e-12)
    assert t == pytest.approx(0.5 * np.pi, abs=1e-6)


@pytest.mark.parametrize("q", [0.7, 1.05, 1.4, 1.45])
def test_circle_min_matches_dense_grid_isotropic(q):
    kf = kernels.kernel_isotropic(1.0, q)
    _, v = kernels.circle_min(kf, (1.0, q))
    th = np.linspace(0.0, np.pi, 20001, endpoint=False) + 1e-9
    dense = float(np.min(kf(np.cos(th), np.sin(th))))
    assert v <= dense + 1e-12
    assert v == pytest.approx(dense, abs=1e-7)


def test_circle_min_case3_minimum_on_an_axis():
    # the case-III K(cos^2 theta) has no interior minimum for any eta1/eta2
    # (a dense scan of the ratio over (0.2, 5) finds none): at nu = -0.45,
    # eta1/eta2 in (4/3, 3/2), the minimum is the candidate pi/2 itself
    dpar = derive_parallel(from_isotropic(1.0, -0.45))
    assert 4.0 / 3.0 < dpar.eta1 / dpar.eta2 < 1.5
    kf = kernels.kernel_case3(dpar)
    t, v = kernels.circle_min(kf, dpar)
    assert t == 0.5 * np.pi
    th = np.linspace(0.0, np.pi, 20001, endpoint=False) + 1e-9
    dense = float(np.min(kf(np.cos(th), np.sin(th))))
    assert v <= dense + 1e-12           # refined min can only be lower
    assert v == pytest.approx(dense, abs=1e-6)


def test_circle_min_exact_critical_values():
    # K is taken as it is at the critical angles: 0 and pi/2, and the interior
    # ones, here checked against the closed-form case-II roots of K'(u) = 0,
    # u = (-b - 2a +- 2 sqrt(a^2 + b^2)) / (b - a) for P = a z1^2 + b z3^2
    dp = perp_from_parameters(1.0, 0.25, 2.0)
    kf = kernels.kernel_case1(dp)
    assert kernels.circle_min(kf) == (0.0, float(kf(1.0, 0.0)))
    dp = perp_from_parameters(1.0, 0.05, 0.1)     # interior case-II minimum
    kf = kernels.kernel_case2(dp)
    a, b = dp.q, dp.p
    (u,) = [u for u in ((-b - 2.0 * a + s * 2.0 * np.hypot(a, b)) / (b - a)
                        for s in (1.0, -1.0)) if 0.0 < u < 1.0]
    t, v = kernels.circle_min(kf)
    assert 0.1 < t < 0.5 * np.pi - 0.1
    assert t == pytest.approx(np.arccos(np.sqrt(u)), abs=1e-12)
    assert v == float(kf(np.cos(t), np.sin(t)))


def test_circle_min_skips_the_zero_of_p_below_nu_minus_one():
    # c < 0: P vanishes at theta = 1.41432, where float evaluation is noise
    # and a guard angle used to lead the zoom to K = -6.4e9; away from it,
    # K >= 0.193 (at theta = 0) and the cell is a member
    dp = perp_from_parameters(1.0, -1.0290082670616292, 0.7509458979275522)
    assert dp.c < 0.0
    kf = kernels.kernel_case1(dp)
    zeros = kernels._p_zeros(kf)
    assert zeros[0] == pytest.approx(1.41432, abs=1e-5)
    assert sum(zeros) == pytest.approx(np.pi, rel=1e-15)
    th = np.linspace(0.0, np.pi, 20001)
    th = th[np.all([np.abs(th - z) > 1e-3 for z in zeros], axis=0)]
    clear = float(np.min(kf(np.cos(th), np.sin(th))))
    t, v = kernels.circle_min(kf, dp)
    assert v == pytest.approx(clear, rel=1e-12) and v > 0.19
    assert regions.case("I").member(dp) is True
    # c > 0: no zero to skip
    assert kernels._p_zeros(kernels.kernel_case1(DP_ANISO)) == ()


def test_circle_profile_blanks_the_zero_of_p():
    # (nu, delta) = (-1.2, 0.6): c < 0, and next to the zero of P the raw
    # profile read -16384; every finite value is at least the minimum
    dp = perp_from_parameters(1.0, -1.2, 0.6)
    kf = kernels.kernel_case1(dp)
    th, vals = kernels.circle_profile(kf, 20000)
    _, kmin = kernels.circle_min(kf, dp)
    assert kmin == pytest.approx(0.578, abs=1e-3)
    assert np.nanmin(vals) >= kmin
    near = np.any([np.abs(th - z) < kernels.P_ZERO_GAP
                   for z in kernels._p_zeros(kf)], axis=0)
    assert near.any() and np.array_equal(np.isnan(vals), near)


def test_circle_min_does_not_read_params():
    # one rule for every case, interior minima (II) and zeros of P (I,
    # nu < -1) included
    for case, cell in (("I", (0.25, 1.5)), ("I", (-1.2, 0.6)),
                       ("II", (0.05, 0.1)), ("III", (1.0, -0.45))):
        c = regions.case(case)
        params = c.scan_params(*cell)
        kf = c.kernel(params)
        assert kernels.circle_min(kf, params) == kernels.circle_min(kf)


_DENSE = np.linspace(0.0, np.pi, 20001, endpoint=False)


@given(delta=st.floats(0.01, 3.99), s=st.floats(1e-6, 1.0 - 1e-6),
       nu_iso=st.floats(-0.999, 0.499))
@settings(max_examples=100, deadline=None)
def test_circle_min_brackets_dense_grid(delta, s, nu_iso):
    lo = 1.0 - 2.0 / delta
    dp = perp_from_parameters(1.0, lo + s * (0.5 - lo), delta)
    # case I below nu = -1 (delta < 1) has c < 0: P vanishes on the circle,
    # and the dense grid is blanked there by `on_circle`, as circle_min's
    # candidates are
    lo1 = max(lo, -1.0)
    dp1 = perp_from_parameters(1.0, lo1 + s * (0.5 - lo1), delta)
    forms = [(kernels.kernel_case1(dp1), dp1), (kernels.kernel_case2(dp), dp)]
    if lo < -1.0:
        dpb = perp_from_parameters(1.0, lo + s * (-1.0 - lo), delta)
        forms.append((kernels.kernel_case1(dpb), dpb))
    dpar = derive_parallel(from_isotropic(1.0, nu_iso))
    forms.append((kernels.kernel_case3(dpar), dpar))
    for kf, par in forms:
        t, v = kernels.circle_min(kf, par)
        assert v == float(kf(np.cos(t), np.sin(t)))
        vals = kernels.on_circle(kf, np.cos(_DENSE), np.sin(_DENSE))
        i = int(np.nanargmin(vals))
        scale = float(np.nanmax(np.abs(vals)))
        assert v <= vals[i] + 1e-12 * scale
        # a sharp minimum can fall between two dense angles by more than
        # 1e-7 max|K|: the lower reference adds a fine grid around the best
        local = _DENSE[i] + np.linspace(-1.0, 1.0, 2001) * (_DENSE[1] - _DENSE[0])
        floor = min(vals[i], float(np.nanmin(
            kernels.on_circle(kf, np.cos(local), np.sin(local)))))
        assert v >= floor - 1e-7 * scale


def test_composite_case1_combination():
    # K = 2 mu delta (sqrt(delta) K1 + nu K2) term-by-term
    k1, k2 = kernels.kernel_case1_parts(DP_ANISO)
    kf = kernels.kernel_case1(DP_ANISO)
    x1, x3 = _circle(32)
    combo = 2.0 * DP_ANISO.mu * DP_ANISO.delta * (
        math.sqrt(DP_ANISO.delta) * k1(x1, x3) + DP_ANISO.nu * k2(x1, x3))
    assert kf(x1, x3) == pytest.approx(combo, rel=1e-13)


def test_build_kernel_dispatch():
    assert kernels.build_kernel("I", DP_ANISO).case == "I"
    assert kernels.build_kernel("II", DP_ANISO).case == "II"
    assert kernels.build_kernel("III", DPAR_ISO).case == "III"
    with pytest.raises(ValueError):
        kernels.build_kernel("IV", DP_ANISO)


def test_circle_profile_shape_and_positivity_inside_region():
    th, vals = kernels.circle_profile(kernels.kernel_case2(DP_ISO), 256)
    assert th.shape == vals.shape == (256,)
    assert np.all(vals > 0.0)   # (nu, delta) = (1/4, 1) is in the region
    with pytest.raises(ValueError):
        kernels.circle_profile(kernels.kernel_case2(DP_ISO), 4)


@pytest.mark.parametrize("dp", [
    DP_ISO, DP_ANISO, perp_from_parameters(1.3, -1.2, 0.6),
    perp_from_parameters(0.7, 0.45, 3.5)], ids=["iso", "aniso", "c<0", "edge"])
def test_kernel_case1_is_the_weighted_pair(dp):
    # K = 2 mu delta (sqrt(delta) K1 + nu K2) from the unweighted parts
    k1, k2 = (kf.terms[0] for kf in kernels.kernel_case1_parts(dp))
    de = dp.delta
    assert kernels.kernel_case1(dp) == kernels.KernelForm("I", (
        replace(k1, prefactor=2.0 * dp.mu * de * np.sqrt(de)),
        replace(k2, prefactor=2.0 * dp.mu * de * dp.nu)))


@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_on_circle_of_a_list_is_one_row_per_kernel(case):
    # one call for the list; each row bitwise equal to its own kernel's,
    # blanked at its own zeros of P (nu < -1 for case I)
    c = regions.case(case)
    cells = {"I": [(-1.2, 0.6), (0.25, 2.0), (-1.0290082670616292, 0.75)],
             "II": [(0.25, 2.0), (0.05, 0.1), (-0.3, 1.5)],
             "III": [(1.0, 0.25), (2.0, -0.3), (0.5, 0.4)]}[case]
    forms = [c.kernel(c.scan_params(a, b)) for a, b in cells]
    th = np.linspace(0.0, np.pi, 4096, endpoint=False)
    z1, z3 = np.cos(th), np.sin(th)
    rows = kernels.on_circle(forms, z1, z3)
    assert rows.shape == (3, th.size)
    for row, kf in zip(rows, forms):
        assert np.array_equal(row, kernels.on_circle(kf, z1, z3),
                              equal_nan=True)
    assert np.isnan(rows).any() == (case == "I")


@pytest.mark.parametrize("with_params", [False, True], ids=["bare", "params"])
def test_circle_min_skips_a_candidate_next_to_a_zero_of_p(with_params):
    # just below nu = -1, P vanishes 6.8e-5 rad from pi/2; within
    # P_ZERO_GAP of its zeros the float K of the composite is noise, as low
    # as -1e9, and some critical angles fall there: none of them may win
    dp = perp_from_parameters(1.0, -1.0 - 1e-8, 0.3)
    kf = kernels.kernel_case1(dp)
    zeros = kernels._p_zeros(kf)
    assert 0.5 * np.pi - zeros[0] == pytest.approx(6.79e-5, rel=1e-3)
    gap = np.add.outer(zeros, np.linspace(-1.0, 1.0, 2001)
                       * kernels.P_ZERO_GAP).ravel()
    theta, kmin = kernels.circle_min(kf, dp if with_params else None)
    assert float(np.min(kf(np.cos(gap), np.sin(gap)))) < -1e5
    assert min(abs(theta - z) for z in zeros) > kernels.P_ZERO_GAP
    assert (theta, kmin) == (0.0, float(kf(1.0, 0.0)))
    assert kmin > 0.5


def test_circle_min_rejects_a_lone_case1_term_with_a_pole():
    # below nu = -1 each part of the composite has a real pole where P
    # vanishes; only the weighted pair cancels it
    dp = perp_from_parameters(1.0, -1.169, 0.522)
    for part in kernels.kernel_case1_parts(dp):
        with pytest.raises(ValueError, match="pole"):
            kernels.circle_min(part)
    t, v = kernels.circle_min(kernels.kernel_case1(dp))
    assert t == 0.0 and v == pytest.approx(0.7204350137275721, rel=1e-12)
    # above nu = -1 the parts have no zero of P and keep their minimum
    for part in kernels.kernel_case1_parts(DP_ANISO):
        assert np.isfinite(kernels.circle_min(part)[1])
