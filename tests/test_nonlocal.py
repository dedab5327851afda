import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pndislo import kernels, nonlocal_ops, regions, symbols
from pndislo.moduli import (ElasticConstants, derive_parallel, derive_perp,
                            from_isotropic, perp_from_parameters)
from pndislo.nonlocal_ops import (N_THETA, GridField2D, aniso_half_laplacian,
                                  apply_kernel_quadrature, apply_multiplier,
                                  energy, localized_energies,
                                  quadrature_multiplier)

ISO = from_isotropic(1.0, 0.25)
DP = derive_perp(ISO)
DPAR = derive_parallel(ISO)
DP_ANISO = perp_from_parameters(1.0, 0.2, 1.5)

L = 30.0
N = 128


def bump(width=4.0):
    return GridField2D.from_function(
        L, L, N, N, lambda x, y: np.exp(-(x * x + y * y) / width))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridField2D(L, L, np.zeros((100, 128)))    # not a power of two
    with pytest.raises(ValueError):
        GridField2D(L, L, np.zeros((4, 4)))        # too small
    with pytest.raises(ValueError):
        GridField2D(-1.0, L, np.zeros((16, 16)))
    # an infinite cell has k = -0 on every row; a NaN one fails no '>'
    for bad in (np.inf, -np.inf, np.nan):
        for lengths in ((bad, L), (L, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                GridField2D(*lengths, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        GridField2D(L, L, np.full((16, 16), np.nan))
    with pytest.raises(ValueError, match="values must be a 2-d array"):
        GridField2D(L, L, np.zeros(16))

    # from_function checks the counts before cell_axes divides by them and
    # before f is sampled
    def f(x, y):
        raise AssertionError("sampled")

    with pytest.raises(ValueError, match=r"sample counts \(0, 8\) must be "
                       "powers of two >= 8"):
        GridField2D.from_function(1, 1, 0, 8, f)
    # a float count is named, not failed on by n & (n - 1)
    for n in (16.0, 16.5):
        with pytest.raises(ValueError, match=rf"sample counts \(10, {n}\)"):
            GridField2D.from_function(10, 10, 10, n, f)
        with pytest.raises(ValueError, match=rf"sample counts \({n}, 16\)"):
            GridField2D.from_function(10, 10, n, 16, f)


def test_axes_and_kgrid_layout():
    f = bump()
    x1, x2 = f.axes()
    assert x1[0] == -L / 2 and len(x1) == N
    k1, k2 = f.kgrid()
    assert k1[0, 0] == 0.0
    assert k1[1, 0] == pytest.approx(2 * np.pi / L, rel=1e-15)
    # the rfft2 half spectrum: k2 >= 0, ending at +pi n2/L2
    g = GridField2D(20.0, 60.0, np.zeros((32, 16)))
    k1, k2 = g.kgrid()
    assert k1.shape == k2.shape == (32, 9)
    assert k2[0, -1] == pytest.approx(np.pi * 16 / 60.0, rel=1e-15)
    assert k1[16, 0] == pytest.approx(-np.pi * 32 / 20.0, rel=1e-15)


def test_multiplier_on_single_mode_is_exact():
    # cos(k.x) is an eigenfunction of any multiplier with eigenvalue m(k)
    k = (2 * np.pi / L * 3, 2 * np.pi / L * 5)
    f = GridField2D.from_function(
        L, L, N, N, lambda x, y: np.cos(k[0] * x + k[1] * y))
    m_exact = float(symbols.symbol_case2(DP, *k))
    out = apply_multiplier(lambda a, b: symbols.symbol_case2(DP, a, b), f)
    assert out.values == pytest.approx(m_exact * f.values, rel=1e-12,
                                       abs=1e-12)


def test_multiplier_kills_constants():
    f = GridField2D(L, L, np.full((N, N), 2.5))
    out = apply_multiplier(lambda a, b: np.hypot(a, b), f)
    assert np.max(np.abs(out.values)) == 0.0


@pytest.mark.parametrize("case,par,kf_builder,sym", [
    ("I", DP, kernels.kernel_case1, symbols.symbol_case1),
    ("II", DP, kernels.kernel_case2, symbols.symbol_case2),
    ("III", DPAR, kernels.kernel_case3, symbols.symbol_case3),
])
def test_quadrature_matches_symbol(case, par, kf_builder, sym):
    f = bump()
    q = apply_kernel_quadrature(kf_builder(par), f)
    s = apply_multiplier(lambda a, b: sym(par, a, b), f)
    err = np.max(np.abs(q.values - s.values)) / np.max(np.abs(s.values))
    assert err <= 1e-3
    assert err <= 1e-4
    assert err <= 3e-5    # exact radial factor: observed ~1.3e-5


def test_case1_kernel_below_nu_minus_one_matches_symbol():
    # (nu, delta) = (-1.2, 0.6) has c < 0, so P vanishes on the unit circle;
    # the zero of N/P^3 there is removable, and the closed-form kernel still
    # reproduces symbol_case1 as well as at the control nu = -0.5 (1.3e-5)
    dp = perp_from_parameters(1.0, -1.2, 0.6)
    assert dp.c < 0.0
    kf = kernels.kernel_case1(dp)
    f = bump()
    q = apply_kernel_quadrature(kf, f)
    s = apply_multiplier(lambda a, b: symbols.symbol_case1(dp, a, b), f)
    err = np.max(np.abs(q.values - s.values)) / np.max(np.abs(s.values))
    assert err <= 3e-5     # observed ~1.3e-5
    # the minimum is the genuine value on the x1 axis, not rounding noise
    # from the neighbourhood of P's zero
    assert kernels.circle_min(kf, dp)[1] == float(kf(1.0, 0.0))


def _direct_sum_multiplier(kernel, field):
    """(pi/2N) sum_j K(e_j) |k.e_j| over the N = N_THETA midpoint
    directions, one direction at a time."""
    th = (np.arange(N_THETA) + 0.5) * np.pi / N_THETA
    kv = kernel(np.cos(th), np.sin(th))
    k1, k2 = field.kgrid()
    m = np.zeros(k1.shape)
    for kj, c, s in zip(kv, np.cos(th), np.sin(th)):
        m += kj * np.abs(k1 * c + k2 * s)
    return 0.5 * np.pi / N_THETA * m


def _aniso_integral_kernel(rho):
    return lambda z1, z2: (z1 ** 2 + z2 ** 2 / rho) ** -1.5 / np.sqrt(rho)


@pytest.mark.parametrize("kf", [
    kernels.kernel_case1(DP_ANISO), kernels.kernel_case2(DP_ANISO),
    kernels.kernel_case3(DPAR), kernels.kernel_isotropic(1.0, 0.75),
    _aniso_integral_kernel(2.0)], ids=["I", "II", "III", "iso", "aniso"])
@pytest.mark.parametrize("n1,n2,L1,L2", [(128, 128, 30.0, 30.0),
                                         (32, 128, 30.0, 47.0),
                                         (128, 16, 20.0, 60.0)])
def test_quadrature_multiplier_matches_direct_sum(kf, n1, n2, L1, L2):
    # the per-arc linear form against the sum over directions; non-square
    # cells and shapes put grid angles close to the arc breakpoints
    f = GridField2D(L1, L2, np.zeros((n1, n2)))
    np.testing.assert_allclose(quadrature_multiplier(kf, f),
                               _direct_sum_multiplier(kf, f),
                               rtol=1e-13, atol=0.0)


def test_quadrature_multiplier_is_linear_and_symmetric():
    f = bump()
    m = quadrature_multiplier(kernels.kernel_case2(DP), f)
    assert m[0, 0] == 0.0
    assert np.all(m >= 0.0)
    # multiplier grids inherit the evenness of the kernel: m(k) = m(-k) on
    # the pairs the half spectrum stores, +-k1 in the k2 = 0 column, and
    # (k1, K) with (-k1, K) in the Nyquist column k2 = K, where -(k1, K)
    # aliases (-k1, K)
    assert m.shape == (N, N // 2 + 1)
    flipped = m[(-np.arange(N)) % N][:, [0, -1]]
    assert flipped == pytest.approx(m[:, [0, -1]], rel=1e-13)


def test_operator_self_adjoint_and_positive():
    rng = np.random.default_rng(7)
    u = GridField2D(L, L, rng.standard_normal((64, 64)))
    v = GridField2D(L, L, rng.standard_normal((64, 64)))
    kf = kernels.kernel_case2(DP)
    Lu = apply_kernel_quadrature(kf, u).values
    Lv = apply_kernel_quadrature(kf, v).values
    ip_uv = float(np.sum(Lu * v.values))
    ip_vu = float(np.sum(u.values * Lv))
    assert ip_uv == pytest.approx(ip_vu, rel=1e-10)
    assert float(np.sum(Lu * u.values)) >= 0.0


def test_half_laplacian_modes_match():
    f = bump()
    a = aniso_half_laplacian(2.0, f, mode="symbol")
    b = aniso_half_laplacian(2.0, f, mode="integral")
    err = np.max(np.abs(a.values - b.values)) / np.max(np.abs(a.values))
    assert err <= 1e-4
    with pytest.raises(ValueError):
        aniso_half_laplacian(1.0, f, mode="bogus")


@pytest.mark.parametrize("mode", ["symbol", "integral"])
@pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_half_laplacian_rejects_rho_outside_0_inf(rho, mode):
    # rejected before any transform, in both modes
    with pytest.raises(ValueError, match="rho"):
        aniso_half_laplacian(rho, bump(), mode=mode)


def test_whole_cell_energy_single_mode():
    # u = eps cos(k.x): energy = m(k) eps^2 |cell| / 4
    eps = 0.01
    k = (2 * np.pi / L * 2, 2 * np.pi / L * 1)
    f = GridField2D.from_function(
        L, L, N, N, lambda x, y: eps * np.cos(k[0] * x + k[1] * y))
    rep = energy(f, symbol=lambda a, b: symbols.symbol_case2(DP, a, b))
    exact = float(symbols.symbol_case2(DP, *k)) * eps ** 2 * L * L / 4.0
    assert rep.nonlocal_part == pytest.approx(exact, rel=1e-12)
    assert rep.potential_part == 0.0
    assert rep.total == rep.nonlocal_part
    assert rep.radius is None


def test_whole_cell_energy_matches_full_spectrum_plancherel():
    # non-square grid and cell, with content in column n2/2 - 1 (the last
    # one weighted 2) and in the Nyquist row and column (weighted 1)
    n1, n2, L1, L2 = 32, 16, 20.0, 60.0
    rng = np.random.default_rng(11)
    u = rng.standard_normal((n1, n2))
    x2 = np.arange(n2) * (L2 / n2)
    u += 3.0 * np.cos(2 * np.pi * (n2 // 2 - 1) * x2 / L2)[None, :]
    f = GridField2D(L1, L2, u)

    def sym(a, b):
        return symbols.symbol_case2(DP_ANISO, a, b)

    k1, k2 = np.meshgrid(2 * np.pi * np.fft.fftfreq(n1, d=L1 / n1),
                         2 * np.pi * np.fft.fftfreq(n2, d=L2 / n2),
                         indexing="ij")
    k1[0, 0] = 1.0
    m = sym(k1, k2)
    m[0, 0] = 0.0
    c = np.fft.fft2(u) / (n1 * n2)
    full = 0.5 * float(np.sum(m * np.abs(c) ** 2)) * L1 * L2
    assert energy(f, symbol=sym).nonlocal_part == pytest.approx(full,
                                                                rel=1e-13)


def test_whole_cell_energy_frozen_value():
    eps = 0.01
    k = (2 * np.pi / L * 2, 2 * np.pi / L * 1)
    f = GridField2D.from_function(
        L, L, N, N, lambda x, y: eps * np.cos(k[0] * x + k[1] * y))
    rep = energy(f, symbol=lambda a, b: np.hypot(a, b))
    # |k| eps^2 L^2 / 4 with |k| = (2 pi/30) sqrt(5)
    assert rep.nonlocal_part == pytest.approx(
        2 * np.pi / 30.0 * np.sqrt(5.0) * 2.5e-3 * 9.0, rel=1e-12)


def test_localized_energy_monotone_in_radius():
    f = GridField2D.from_function(L, L, 256, 256,
                                  lambda x, y: np.tanh(x) + 0.0 * y)
    kf = kernels.kernel_isotropic(1.0, 0.75)
    vals = [energy(f, potential=lambda u: 0.25 * (1 - u ** 2) ** 2,
                   kf=kf, R=R).total for R in (3.0, 6.0, 12.0)]
    assert vals[0] < vals[1] < vals[2]
    assert all(v > 0.0 for v in vals)


def _localized_energy_reference(field, kf, R):
    """-(1/4) sum of (u(x)-u(y))^2 l(x-y) dA over every grid pair not both
    outside B_R, with l = irfft2 of the quadrature multiplier, the grid
    kernel of L, at every periodic offset."""
    n1, n2 = field.shape
    ell = np.fft.irfft2(quadrature_multiplier(kf, field), s=field.shape)
    x1, x2 = field.axes()
    inside = ((x1[:, None] ** 2 + x2[None, :] ** 2) <= R * R).ravel()
    i1, i2 = (a.ravel() for a in np.meshgrid(np.arange(n1), np.arange(n2),
                                             indexing="ij"))
    d1 = (i1[:, None] - i1[None, :]) % n1
    d2 = (i2[:, None] - i2[None, :]) % n2
    pair = inside[:, None] | inside[None, :]
    u = field.values.ravel()
    du2 = (u[:, None] - u[None, :]) ** 2
    total = float(np.sum(du2[pair] * ell[d1[pair], d2[pair]]))
    return -0.25 * total * (field.L1 / n1) * (field.L2 / n2)


@pytest.mark.parametrize("kf", [kernels.kernel_isotropic(1.0, 0.75),
                                kernels.kernel_case2(DP)],
                         ids=["isotropic", "case2"])
@pytest.mark.parametrize("R", [5.0, 12.0])
def test_localized_energy_matches_pair_sum(kf, R):
    rng = np.random.default_rng(11)
    # n1 != n2 and h1 != h2: the offsets wrap per axis
    for shape in ((16, 16), (16, 32)):
        f = GridField2D(30.0, 24.0, rng.standard_normal(shape))
        rep = energy(f, kf=kf, R=R)
        assert rep.nonlocal_part == pytest.approx(
            _localized_energy_reference(f, kf, R), rel=1e-12)
        assert rep.potential_part == 0.0 and rep.radius == R


def _quartic(u):
    return 0.25 * (1 - u ** 2) ** 2


def test_localized_energies_match_single_radius_calls():
    rng = np.random.default_rng(5)
    f = GridField2D(40.0, 28.0, np.tanh(rng.standard_normal((64, 32))))
    kf = kernels.kernel_case2(DP_ANISO)
    radii = (3.0, 7.5, 14.0)
    reps = localized_energies(f, kf, radii, potential=_quartic)
    assert [r.radius for r in reps] == list(radii)
    x1, x2 = f.axes()
    dA = 40.0 / 64 * 28.0 / 32
    for rep, R in zip(reps, radii):
        inside = x1[:, None] ** 2 + x2[None, :] ** 2 <= R * R
        assert rep.potential_part == pytest.approx(
            float(np.sum(_quartic(f.values)[inside])) * dA, rel=1e-13)
        one = energy(f, potential=_quartic, kf=kf, R=R)
        assert rep.nonlocal_part == pytest.approx(one.nonlocal_part,
                                                  rel=1e-13)
        assert rep.potential_part == pytest.approx(one.potential_part,
                                                   rel=1e-13)
        assert rep.total == pytest.approx(one.total, rel=1e-13)
    with pytest.raises(ValueError):
        localized_energies(f, kf, (3.0, 15.0))   # 15 > min(L1, L2)/2


def test_localized_energy_validation():
    f = bump()
    with pytest.raises(ValueError):
        energy(f, kf=kernels.kernel_isotropic(1.0, 0.75), R=100.0)
    with pytest.raises(ValueError):
        energy(f, R=3.0)       # kernel missing
    with pytest.raises(ValueError):
        energy(f)              # symbol missing


def test_localized_energy_takes_a_bare_kernel_callable():
    # the kernel is read at the quadrature's directions only, as by
    # apply_kernel_quadrature: any even, (-3)-homogeneous callable will do
    iso = kernels.kernel_isotropic(1.0, 0.75)
    f = bump()
    radii = (3.0, 9.0)
    assert (localized_energies(f, lambda z1, z2: iso(z1, z2), radii,
                               _quartic)
            == localized_energies(f, iso, radii, _quartic))


@pytest.mark.parametrize("L_cell", [20.0, 40.0])
@pytest.mark.parametrize("n", [128, 256, 512])
def test_localized_energy_of_a_bump_in_the_ball_is_the_whole_cell_energy(
        L_cell, n):
    # the bump is below 5e-11 outside B_8, so E(B_8) is the whole-cell
    # energy of the symbol up to the quadrature's angular error, at every h
    f = GridField2D.from_function(
        L_cell, L_cell, n, n,
        lambda x, y: np.exp(-((x - 1.0) ** 2 + 0.5 * (y + 0.5) ** 2)))
    whole = energy(f, symbol=lambda a, b: symbols.symbol_case2(DP, a, b))
    ball = energy(f, kf=kernels.kernel_case2(DP), R=8.0)
    assert ball.nonlocal_part == pytest.approx(whole.nonlocal_part, rel=5e-5)


@pytest.mark.parametrize("kf", [kernels.kernel_case1(DP_ANISO),
                                kernels.kernel_case2(DP),
                                kernels.kernel_case3(DPAR)],
                         ids=["case1", "case2", "case3"])
def test_localized_energy_of_a_field_zero_outside_the_ball(kf):
    # (2 - chi) u = u and (1 - chi) u^2 = 0: E(B_R) is (1/2) <u, L u> with
    # apply_kernel_quadrature's L
    rng = np.random.default_rng(7)
    n1, n2, R = 64, 32, 9.0
    f = GridField2D(30.0, 24.0, rng.standard_normal((n1, n2)))
    x1, x2 = f.axes()
    f = f.like(np.where(x1[:, None] ** 2 + x2 ** 2 <= R * R, f.values, 0.0))
    Lu = apply_kernel_quadrature(kf, f).values
    whole = 0.5 * float(np.sum(f.values * Lu)) * (30.0 / n1) * (24.0 / n2)
    assert energy(f, kf=kf, R=R).nonlocal_part == pytest.approx(whole,
                                                                rel=1e-12)


@st.composite
def in_region_kernels(draw):
    """The kernel of a random material inside the region of case I, II or
    III."""
    name = draw(st.sampled_from(["I", "II", "III"]))
    if name == "III":
        ec = ElasticConstants(*(draw(st.floats(lo, hi)) for lo, hi in (
            (2.0, 5.0), (0.3, 1.5), (2.0, 4.0), (0.8, 1.5), (0.5, 2.5))))
        assume(regions.in_region_case3(ec))
        return kernels.kernel_case3(derive_parallel(ec))
    nu, delta = draw(st.floats(-0.9, 0.49)), draw(st.floats(0.1, 3.9))
    assume(regions.in_ellipticity_strip(nu, delta))
    dp = perp_from_parameters(draw(st.floats(0.5, 2.0)), nu, delta)
    assume(regions.case(name).member(dp))
    return regions.case(name).kernel(dp)


@given(kf=in_region_kernels(), seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from([32, 64]), L_cell=st.floats(8.0, 60.0),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_localized_energy_positive_and_nondecreasing_in_radius(
        kf, seed, n, L_cell, data):
    # band-limited fields (|m1|, |m2| <= kmax <= n/8) resolve the grid
    # kernel's ripple; the benchmark's energy_monotone check rests on this
    kmax = data.draw(st.integers(1, n // 8))
    rng = np.random.default_rng(seed)
    c = np.zeros((n, n), dtype=complex)
    m = np.arange(-kmax, kmax + 1) % n
    c[np.ix_(m, m)] = (rng.standard_normal((m.size, m.size))
                       + 1j * rng.standard_normal((m.size, m.size)))
    f = GridField2D(L_cell, L_cell, np.fft.ifft2(c).real)
    radii = np.linspace(L_cell / n, L_cell / 2, 25)
    e = np.array([r.nonlocal_part for r in localized_energies(f, kf, radii)])
    assert e[0] > 0.0 and np.all(np.diff(e) >= 0.0), e


@given(c=st.floats(-2.0, 2.0))
@settings(max_examples=8, deadline=None)
def test_quadrature_invariant_under_constant_shift(c):
    # L(u + c) = L(u): the operator annihilates constants by construction
    f = bump()
    g = f.like(f.values + c)
    kf = kernels.kernel_case2(DP)
    a = apply_kernel_quadrature(kf, f).values
    b = apply_kernel_quadrature(kf, g).values
    assert b == pytest.approx(a, abs=1e-12)


_NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


@pytest.mark.parametrize("in_place", [
    False,
    pytest.param(True, marks=pytest.mark.skipif(
        not _NUMPY_2, reason="np.fft takes out= from numpy 2.0"))],
    ids=["allocating", "in_place"])
@pytest.mark.parametrize("shape", [(64, 64), (128, 32), (32, 256),
                                   (1024, 1024)])
def test_apply_is_bitwise_rfft2_irfft2(shape, in_place, monkeypatch):
    # _apply is rfft2 and irfft2 written out, on either transform path
    monkeypatch.setattr(nonlocal_ops, "_FFT_OUT", in_place)
    rng = np.random.default_rng(3)
    n1, n2 = shape
    u = rng.standard_normal(shape)
    u0 = u.copy()
    m = rng.standard_normal((n1, n2 // 2 + 1))
    full = np.fft.irfft2(m * np.fft.rfft2(u), s=shape)
    for rows in (slice(None), slice(1, n1 // 3), slice(n1 // 2, n1 - 2)):
        assert np.array_equal(nonlocal_ops._apply(m, u, rows), full[rows])
        assert np.array_equal(u, u0)


@pytest.mark.skipif(not _NUMPY_2, reason="np.fft takes out= from numpy 2.0")
def test_localized_energy_memory_peak():
    # one complex half spectrum (about one field size) and one real work
    # array per call, next to the field and the real half-spectrum multiplier
    rng = np.random.default_rng(9)
    f = GridField2D(64.0, 64.0, rng.standard_normal((256, 256)))
    kf = kernels.kernel_isotropic(1.0, 0.75)
    energy(f, kf=kf, R=8.0)                  # warm any lazy allocations
    tracemalloc.start()
    try:
        energy(f, kf=kf, R=8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * f.values.nbytes
