import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pndislo import kernels, moduli, regions
from pndislo.moduli import from_isotropic, perp_from_parameters


def test_ellipticity_strip():
    assert regions.in_ellipticity_strip(0.25, 1.0)
    assert regions.in_ellipticity_strip(-5.0, 0.3)
    assert not regions.in_ellipticity_strip(0.25, 4.0)
    assert not regions.in_ellipticity_strip(0.5, 1.0)
    assert not regions.in_ellipticity_strip(0.4, 3.5)   # below 1 - 2/delta
    # one source: perp_from_parameters checks the same strip
    assert regions.in_ellipticity_strip is moduli.in_ellipticity_strip


def test_case1_region_samples():
    assert regions.in_region_case1(0.25, 1.0)
    assert regions.in_region_case1(0.0, 1.2)
    # large nu falls above the upper branch
    assert not regions.in_region_case1(0.49, 1.0)
    # outside the strip is never a member
    assert not regions.in_region_case1(0.25, 5.0)


def test_case1_region_matches_kernel_sign_spot():
    for nu, delta in [(0.25, 1.0), (0.0, 0.5), (0.3, 2.0), (0.45, 1.0),
                      (-0.4, 0.9), (0.1, 3.0)]:
        if not regions.in_ellipticity_strip(nu, delta):
            continue
        dp = perp_from_parameters(1.0, nu, delta)
        _, kmin = kernels.circle_min(kernels.kernel_case1(dp), dp)
        if abs(kmin) > 1e-8:
            assert regions.in_region_case1(nu, delta) == (kmin > 0.0)


def test_case2_region_matches_kernel_sign_spot():
    for nu, delta in [(0.25, 1.0), (0.0, 0.5), (0.3, 2.0), (-0.3, 1.5),
                      (0.45, 0.7), (-0.49, 1.1)]:
        dp = perp_from_parameters(1.0, nu, delta)
        _, kmin = kernels.circle_min(kernels.kernel_case2(dp), dp)
        if abs(kmin) > 1e-8:
            assert regions.in_region_case2(nu, delta) == (kmin > 0.0)


def test_case3_window():
    # ratio eta1/eta2 = 1 - nu for the isotropic embedding
    assert regions.in_region_case3(from_isotropic(1.0, 0.25))
    assert not regions.in_region_case3(from_isotropic(1.0, 0.4))   # 0.6 < 2/3
    assert not regions.in_region_case3(from_isotropic(1.0, -0.55))  # > 3/2


def test_rtilde_frozen_value():
    assert regions.smallest_positive_root_rtilde(0.75) == pytest.approx(
        0.10670020137474345, abs=1e-12)


def test_rtilde_vanishes_toward_one():
    assert regions.smallest_positive_root_rtilde(0.999) <= 1e-3
    assert regions.smallest_positive_root_rtilde(0.9999) <= 1e-4


@pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-12, 5e-14, 2e-14, 1e-14,
                                 5e-15, 2e-15, 1.1e-16])
def test_rtilde_keeps_its_root_as_q_tends_to_one(eps):
    # r~(q) = (1 - q)/2 (1 + O(1 - q)): the root stays found, and is not
    # replaced by the next one near 1, however small it gets
    q = 1.0 - eps
    x = regions.smallest_positive_root_rtilde(q)
    assert x is not None
    assert abs(x / (0.5 * (1.0 - q)) - 1.0) <= 1e-4 + eps


def _rtilde_coeffs(q):
    return [-8.0 * (-1.0 + q),
            (-11.0 + 14.0 * q + 13.0 * q * q),
            2.0 * q * (1.0 - 18.0 * q + q * q),
            q * q * (13.0 + 14.0 * q - 11.0 * q * q),
            8.0 * (-1.0 + q) * q ** 3]


def test_rtilde_is_a_root():
    for q in (0.6, 0.75, 0.9):
        x = regions.smallest_positive_root_rtilde(q)
        assert abs(np.polyval(_rtilde_coeffs(q), x)) <= 1e-9


@pytest.mark.parametrize("q", [0.6, 0.75, 0.99, 0.9999])
def test_rtilde_brackets_exact_sign_change(q):
    # the quartic on the same float coefficients, evaluated exactly, changes
    # sign within 64 ulps of the returned root
    x = regions.smallest_positive_root_rtilde(q)
    coeffs = [Fraction(c) for c in _rtilde_coeffs(q)]

    def f(t):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * t + c
        return acc

    step = 64 * Fraction(math.ulp(x))
    assert f(Fraction(x) - step) * f(Fraction(x) + step) <= 0


@given(q=st.floats(0.5, 1.0 - 1e-9, exclude_min=True),
       frac=st.floats(0.0, 1.0, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_case2_third_condition_is_the_rtilde_boundary(q, frac):
    # on the branch p <= 3q/4, q in (1/2, 1), the third membership condition
    # e3 > 0 is p > r~(q): criterion 09's root is that boundary.  Cells
    # within rounding of p = r~ are skipped; for 1 - q near 1e-13 and below
    # r~ itself loses its root (it vanishes with 1 - q), hence the bound
    p = frac * 0.75 * q
    r = regions.smallest_positive_root_rtilde(q)
    assume(abs(p - r) > 1e-6 * r)
    e3 = regions._case2_conditions(p, q)[2]
    assert (e3 > 0.0) == (p > r)


def test_rtilde_domain():
    with pytest.raises(ValueError):
        regions.smallest_positive_root_rtilde(0.4)
    with pytest.raises(ValueError):
        regions.smallest_positive_root_rtilde(1.0)


def test_scan_shapes_and_boundary_band():
    nu = np.linspace(-0.4, 0.49, 12)
    de = np.linspace(0.2, 3.8, 12)
    sc = regions.scan("I", nu, de)
    assert sc.member.shape == sc.boundary.shape == sc.kmin.shape == (12, 12)
    assert sc.axis_names == ("nu", "delta")
    # every membership flip between horizontal neighbors is flagged boundary
    flips = sc.member[:-1, :] != sc.member[1:, :]
    assert np.all(sc.boundary[:-1, :][flips])
    assert np.all(sc.boundary[1:, :][flips])
    # members off the boundary band must have positive kernel minimum
    ok = np.isfinite(sc.kmin) & ~sc.boundary
    assert np.all((sc.kmin[ok] > 0.0) == sc.member[ok])


def test_scan_case3_grid():
    sc = regions.scan("III", np.linspace(0.5, 2.0, 6),
                      np.linspace(-0.6, 0.45, 9))
    assert sc.axis_names == ("mu", "nu")
    # membership depends only on nu here; mu scales the kernel positively
    for j in range(9):
        col = sc.member[:, j]
        assert np.all(col == col[0])


def _boundary_reference(member, admissible):
    n1, n2 = member.shape
    out = np.zeros((n1, n2), dtype=bool)
    for i in range(n1):
        for j in range(n2):
            for k in range(max(i - 1, 0), min(i + 2, n1)):
                for m in range(max(j - 1, 0), min(j + 2, n2)):
                    out[i, j] |= (member[k, m] != member[i, j]
                                  or admissible[k, m] != admissible[i, j])
    return out


def test_boundary_matches_8_neighbour_reference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        shape = tuple(rng.integers(2, 9, size=2))
        admissible = rng.random(shape) < 0.8
        member = admissible & (rng.random(shape) < rng.random())
        assert np.array_equal(regions._boundary(member, admissible),
                              _boundary_reference(member, admissible))


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        regions.scan("I", [0.1], [0.5, 1.0])
    with pytest.raises(ValueError):
        regions.scan("X", [0.1, 0.2], [0.5, 1.0])


def test_scan_csv_deterministic(tmp_path):
    nu = np.linspace(-0.2, 0.4, 5)
    de = np.linspace(0.5, 2.5, 5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    regions.scan("II", nu, de).to_csv(p1)
    regions.scan("II", nu, de).to_csv(p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0] == "axis1,axis2,member,boundary,kmin"
    assert len(lines) == 1 + 25


def _scan_reference(region, axis1, axis2, n_theta):
    """A kernel call and a minimum per admissible cell, one cell at a time:
    the loop `regions.scan` batches by rows."""
    c = regions.case(region)
    member = np.zeros((len(axis1), len(axis2)), dtype=bool)
    kmin = np.full(member.shape, np.nan)
    th = np.linspace(0.0, np.pi, n_theta, endpoint=False) \
        + 0.5 * np.pi / n_theta
    cos_t, sin_t = np.cos(th), np.sin(th)
    for i, a in enumerate(axis1):
        for j, b in enumerate(axis2):
            try:
                params = c.scan_params(a, b)
            except ValueError:
                continue
            member[i, j] = c.member(params)
            kmin[i, j] = float(np.fmin.reduce(
                kernels.on_circle(c.kernel(params), cos_t, sin_t)))
    return member, regions._boundary(member, np.isfinite(kmin)), kmin


@pytest.mark.parametrize("n_theta", [8, 512])
@pytest.mark.parametrize("region, axis1, axis2, empty_rows", [
    # nu < -1: P vanishes on the circle; at 512 angles 8 are blanked
    ("I", np.linspace(-1.5, 0.49, 9), np.linspace(0.1, 3.9, 7), 0),
    # inadmissible cells; the row nu = 0.6 has no admissible cell
    ("I", np.linspace(-0.9, 0.6, 7), np.linspace(0.05, 4.2, 8), 1),
    ("II", np.linspace(-0.9, 0.6, 7), np.linspace(0.05, 4.2, 8), 1),
    ("III", np.linspace(0.5, 2.0, 5), np.linspace(-1.2, 0.6, 8), 0),
], ids=["I-blanked", "I-inadmissible", "II-inadmissible", "III"])
def test_scan_matches_per_cell_reference(region, axis1, axis2, empty_rows,
                                         n_theta):
    sc = regions.scan(region, axis1, axis2, n_theta=n_theta)
    member, boundary, kmin = _scan_reference(region, axis1, axis2, n_theta)
    assert np.array_equal(sc.member, member)
    assert np.array_equal(sc.boundary, boundary)
    assert np.array_equal(sc.kmin, kmin, equal_nan=True)
    admissible = np.isfinite(kmin)
    assert sc.stats == {"admissible_cells": int(admissible.sum()),
                        "angles": n_theta,
                        "kernel_calls": len(axis1) - empty_rows}
    assert np.count_nonzero(~admissible.any(axis=1)) == empty_rows


def test_scan_of_inadmissible_grid_is_all_nan():
    sc = regions.scan("I", [0.1, 0.2, 0.3], [4.5, 5.0])
    assert np.all(np.isnan(sc.kmin))
    assert not sc.member.any() and not sc.boundary.any()
    assert sc.stats == {"admissible_cells": 0, "angles": 512,
                        "kernel_calls": 0}


@pytest.mark.parametrize("n_theta", [0, 1, 7])
def test_scan_rejects_too_few_angles(n_theta):
    with pytest.raises(ValueError, match="n_theta must be at least 8"):
        regions.scan("I", [0.1, 0.2], [0.5, 1.0], n_theta=n_theta)
