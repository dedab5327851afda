import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pndislo import regions, symbols
from pndislo.moduli import (ElasticConstants, derive_parallel, derive_perp,
                            from_isotropic, perp_from_parameters)

ISO = from_isotropic(1.0, 0.25)
DP_ISO = derive_perp(ISO)
DPAR_ISO = derive_parallel(ISO)
DP_ANISO = perp_from_parameters(1.0, 0.25, 2.0)
DPAR_ANISO = derive_parallel(ElasticConstants(3.0, 1.0, 2.5, 1.2, 0.8))

nonzero_k = st.tuples(st.floats(-10, 10), st.floats(-10, 10)).filter(
    lambda k: abs(k[0]) + abs(k[1]) > 1e-3)


def test_roots_reference_values():
    r1, r2 = symbols.roots_r(DP_ANISO, 0.0, 2.0)
    assert r1 == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert r2 == 2.0
    r1, r2 = symbols.roots_r(DP_ISO, 3.0, 4.0)
    assert r1 == pytest.approx(5.0, rel=1e-15)
    assert r2 == pytest.approx(5.0, rel=1e-15)


def test_zero_frequency_rejected():
    for fn in (lambda: symbols.roots_r(DP_ISO, 0.0, 0.0),
               lambda: symbols.symbol_case2(DP_ISO, 0.0, 0.0),
               lambda: symbols.symbol_case3(DPAR_ISO, 0.0, 0.0),
               lambda: symbols.dtn_parallel(DPAR_ISO, 0.0, 0.0)):
        with pytest.raises(ValueError):
            fn()


def test_dtn_perp_frozen_point():
    # independently computed at mu=1, nu=1/4, delta=1, k=(1,2):
    # s = (8/3) sqrt(5); a11 = s(p + (1-nu) 4)/5 = s 4/5, a12 = s nu 2/5,
    # a22 = s(5 - 1/4)/5, det = 80/3
    m = symbols.dtn_perp(DP_ISO, 1.0, 2.0)
    s = (8.0 / 3.0) * math.sqrt(5.0)
    assert m.shape == (2, 2)
    assert m[0, 0] == pytest.approx(s * 0.8, rel=1e-14)
    assert m[0, 1] == pytest.approx(s / 10.0, rel=1e-14)
    assert m[1, 1] == pytest.approx(s * 4.75 / 5.0, rel=1e-14)
    assert np.linalg.det(m) == pytest.approx(80.0 / 3.0, rel=1e-13)
    assert m[0, 1] == m[1, 0]  # symmetric at delta = 1


def test_symbol_case1_frozen_point():
    # 2 sqrt(5) * 5 / 4.75 at the same point
    val = symbols.symbol_case1(DP_ISO, 1.0, 2.0)
    assert val == pytest.approx(10.0 * math.sqrt(5.0) / 4.75, rel=1e-14)
    assert val == pytest.approx(4.707511531578504, rel=1e-15)


def test_symbol_case2_frozen_point():
    # 2 sqrt(5) (1 + 4) / (1 + 3) at mu=1, nu=1/4, delta=1
    assert symbols.symbol_case2(DP_ISO, 1.0, 2.0) == pytest.approx(
        2.5 * math.sqrt(5.0), rel=1e-14)


def test_symbol_case3_frozen_point():
    # eta1=2, eta2=8/3: (16/3) 5^{3/2} / (8/3 + 8) = 5^{3/2}/2
    assert symbols.symbol_case3(DPAR_ISO, 1.0, 2.0) == pytest.approx(
        0.5 * 5.0 ** 1.5, rel=1e-14)
    assert symbols.symbol_case3(DPAR_ISO, 1.0, 2.0) == pytest.approx(
        5.5901699437494745, rel=1e-15)


def test_dtn_parallel_eigenstructure():
    # eigenvector k gives eta2 |k|, eigenvector k-perp gives eta1 |k|
    k = np.array([0.6, -1.1])
    kk = float(np.hypot(*k))
    A = symbols.dtn_parallel(DPAR_ISO, *k)
    assert A @ k == pytest.approx(DPAR_ISO.eta2 * kk * k, rel=1e-13)
    perp = np.array([-k[1], k[0]])
    assert A @ perp == pytest.approx(DPAR_ISO.eta1 * kk * perp, rel=1e-13)


@given(k=nonzero_k)
@settings(max_examples=100, deadline=None)
def test_scalar_symbols_are_schur_complements(k):
    # m = det A / a_ff with f the component W does not act on: m~ = det/a22
    # (case I) and m = det/a11 (cases II and III)
    k1, k3 = k
    for c in regions.CASES.values():
        par = DP_ANISO if c.derive is derive_perp else DPAR_ANISO
        a = c.dtn(par, k1, k3)
        f = 1 - c.slip
        m = float(c.symbol(par, k1, k3))
        assert np.linalg.det(a) / a[f, f] == pytest.approx(m, rel=1e-10)


def test_dtn_maps_on_arrays_match_pointwise():
    k1 = np.array([[1.0, 0.0, -2.0], [0.3, -0.7, 4.0]])
    k2 = np.array([[0.0, 2.0, 1.0], [-1.1, 0.0, 2.5]])
    for fn, par in ((symbols.dtn_perp, DP_ANISO),
                    (symbols.dtn_parallel, DPAR_ISO)):
        a = fn(par, k1, k2)
        assert a.shape == k1.shape + (2, 2)
        for i in np.ndindex(k1.shape):
            assert np.array_equal(a[i], fn(par, float(k1[i]), float(k2[i])))


@given(k=nonzero_k, lam=st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_symbols_are_even_and_degree_one_homogeneous(k, lam):
    k1, k3 = k
    for fn, par in ((symbols.symbol_case1, DP_ANISO),
                    (symbols.symbol_case2, DP_ANISO),
                    (symbols.symbol_case3, DPAR_ISO)):
        v = float(fn(par, k1, k3))
        assert float(fn(par, -k1, -k3)) == pytest.approx(v, rel=1e-12)
        assert float(fn(par, lam * k1, lam * k3)) == pytest.approx(
            lam * v, rel=1e-10)


@given(k=nonzero_k)
@settings(max_examples=200, deadline=None)
def test_case1_lower_bound(k):
    # 2 mu c r2 <= m~(k) with the elementary constant c(delta, nu)
    k1, k3 = k
    for dp in (DP_ISO, DP_ANISO, perp_from_parameters(2.0, -0.1, 0.8),
               perp_from_parameters(1.0, -0.9, 1.05)):
        _, r2 = symbols.roots_r(dp, k1, k3)
        c = symbols.symbol_lower_constant(dp)
        lower = 2.0 * dp.mu * c * float(r2)
        assert float(symbols.symbol_case1(dp, k1, k3)) >= lower * (1 - 1e-12)


def test_lower_constant_reduces_to_min_one_p():
    # on delta >= 1, nu >= 0 the constant is exactly min(1, p)
    for nu, delta in [(0.0, 1.0), (0.25, 2.0), (0.45, 3.5), (0.1, 1.0)]:
        dp = perp_from_parameters(1.0, nu, delta)
        assert symbols.symbol_lower_constant(dp) == min(1.0, dp.p)


def test_symbols_vectorized():
    k1 = np.array([1.0, 0.0, -2.0])
    k3 = np.array([0.0, 2.0, 1.0])
    v = symbols.symbol_case1(DP_ANISO, k1, k3)
    assert v.shape == (3,)
    for i in range(3):
        assert v[i] == float(symbols.symbol_case1(DP_ANISO, k1[i], k3[i]))


def test_upper_constant_dominates_circle():
    for case in (1, 2):
        C = symbols.symbol_upper_constant(DP_ANISO, case=case)
        th = np.linspace(0.1, 3.0, 57)
        fn = symbols.symbol_case1 if case == 1 else symbols.symbol_case2
        m = fn(DP_ANISO, np.cos(th), np.sin(th))
        assert np.all(m <= C * DP_ANISO.mu * (1 + 1e-9))


# a dense angle grid on [0, pi/2]; both symbols depend on cos^2 theta only
DENSE = np.linspace(0.0, 0.5 * np.pi, 100_001)


# the examples put a real root of the case-I quadratic strictly inside the
# s interval, on both sides of delta = 1
@example(delta=1.5, frac=(0.18 + 1 / 3) / (0.5 + 1 / 3))
@example(delta=0.5, frac=(-0.49 + 3.0) / 3.5)
@given(delta=st.floats(0.02, 3.98), frac=st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_upper_constant_is_max_over_dense_grid(delta, frac):
    lo = 1.0 - 2.0 / delta
    dp = perp_from_parameters(1.0, lo + frac * (0.5 - lo), delta)
    for case, fn in ((1, symbols.symbol_case1), (2, symbols.symbol_case2)):
        C = symbols.symbol_upper_constant(dp, case=case)
        grid = float(np.max(fn(dp, np.cos(DENSE), np.sin(DENSE))))
        assert C >= grid * (1.0 - 4e-16)
        assert C <= grid * (1.0 + 1e-12)


def test_upper_constant_rejects_other_cases():
    dp = perp_from_parameters(1.0, 0.2, 1.5)
    assert symbols.symbol_upper_constant(dp, case=1) == pytest.approx(
        2.625, rel=1e-12)
    assert symbols.symbol_upper_constant(dp, case=2) == pytest.approx(
        2.5, rel=1e-12)
    for case in (3, 0, "I", "II"):
        with pytest.raises(ValueError):
            symbols.symbol_upper_constant(dp, case=case)
