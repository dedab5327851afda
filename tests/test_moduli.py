import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pndislo import moduli


def test_validate_reference_constants():
    rep = moduli.validate(moduli.ElasticConstants(3, 1, 3, 1, 1))
    assert rep.valid
    assert rep.c66_window and rep.c13_bound and rep.c44_positive


def test_validate_flags_each_condition():
    assert not moduli.validate(
        moduli.ElasticConstants(3, 5, 3, 1, 1)).c13_bound
    assert not moduli.validate(
        moduli.ElasticConstants(3, 1, 3, 1, 4)).c66_window
    assert not moduli.validate(
        moduli.ElasticConstants(3, 1, 3, -1, 1)).c44_positive


def test_nonfinite_constants_rejected():
    with pytest.raises(ValueError):
        moduli.ElasticConstants(3, float("nan"), 3, 1, 1)


def test_special_condition_reference():
    # sqrt(9) - 1 - 2 = 0 and C11 = C33
    root, equal = moduli.check_special_condition(
        moduli.ElasticConstants(3, 1, 3, 1, 1))
    assert root and equal
    root, equal = moduli.check_special_condition(
        moduli.ElasticConstants(3, 1, 2.5, 1, 1))
    assert not root and not equal


@given(mu=st.floats(0.1, 10.0), nu=st.floats(-0.9, 0.45))
@settings(max_examples=50, deadline=None)
def test_isotropic_embedding_is_valid_and_special(mu, nu):
    ec = moduli.from_isotropic(mu, nu)
    assert moduli.validate(ec).valid
    root, equal = moduli.check_special_condition(ec)
    assert root and equal
    assert ec.c44 == ec.c66 == mu


def test_isotropic_embedding_rejects_half():
    with pytest.raises(ValueError):
        moduli.from_isotropic(1.0, 0.5)


@pytest.mark.parametrize("mu,nu", [(1.0, -1.5), (-1.0, 0.25), (1.0, -1.0),
                                   (0.0, 0.25)])
def test_isotropic_embedding_rejects_non_elliptic(mu, nu):
    with pytest.raises(ValueError):
        moduli.from_isotropic(mu, nu)


def test_isotropic_embedding_is_delta_one_member():
    rng = np.random.default_rng(18)
    for mu, nu in zip(rng.uniform(0.01, 100.0, 1000),
                      rng.uniform(-0.999, 0.499, 1000)):
        ec = moduli.from_isotropic(mu, nu)
        assert ec == moduli.perp_to_constants(
            moduli.perp_from_parameters(mu, nu, 1.0))
        # the closed form of the docstring, bit for bit
        lam = 2.0 * mu / (1.0 - 2.0 * nu)
        assert ec.astuple() == (lam * (1.0 - nu), lam * nu, lam * (1.0 - nu),
                                mu, mu)


def test_derive_perp_reference_values():
    # mu = 1, nu = 1/4, delta = 2
    dp = moduli.perp_from_parameters(1.0, 0.25, 2.0)
    assert dp.p == pytest.approx(1.0, abs=0)      # 2(1.5 - 2*0.5) = 1
    assert dp.q == 0.75
    assert dp.b == 3.0
    assert dp.c == pytest.approx(2.0 * (1.0 - 0.0625), abs=0)


def test_derive_perp_from_isotropic_gives_delta_one():
    dp = moduli.derive_perp(moduli.from_isotropic(1.0, 0.25))
    assert dp.delta == pytest.approx(1.0, rel=1e-14)
    assert dp.nu == pytest.approx(0.25, rel=1e-14)
    assert dp.mu == 1.0


def test_derive_perp_requires_special_condition():
    with pytest.raises(ValueError):
        moduli.derive_perp(moduli.ElasticConstants(3, 1, 2.9, 1, 1))


@given(mu=st.floats(0.1, 10.0), delta=st.floats(0.05, 3.95),
       frac=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_perp_parameter_round_trip(mu, delta, frac):
    lo = 1.0 - 2.0 / delta
    nu = lo + frac * (0.499 - lo)
    dp = moduli.perp_from_parameters(mu, nu, delta)
    ec = moduli.perp_to_constants(dp)
    dp2 = moduli.derive_perp(ec)
    assert dp2.mu == pytest.approx(mu, rel=1e-12)
    assert dp2.nu == pytest.approx(nu, rel=1e-10, abs=1e-12)
    assert dp2.delta == pytest.approx(delta, rel=1e-12)


def test_perp_from_parameters_rejects_strip_violations():
    for mu, nu, delta in [(1, 0.25, 4.0), (1, 0.25, 0.0), (1, 0.5, 1.0),
                          (1, -0.9, 1.5), (-1, 0.25, 1.0)]:
        with pytest.raises(ValueError):
            moduli.perp_from_parameters(mu, nu, delta)


def test_derive_parallel_reference_values():
    # (3, 1, 3, 1, 1): eta1 = 2, eta2 = 8/3, all characteristic roots 1
    dpar = moduli.derive_parallel(moduli.ElasticConstants(3, 1, 3, 1, 1))
    assert dpar.eta1 == pytest.approx(2.0, rel=1e-14)
    assert dpar.eta2 == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert dpar.eta1 / dpar.eta2 == pytest.approx(0.75, rel=1e-14)
    assert dpar.tau == pytest.approx(1.0, rel=1e-14)
    assert dpar.theta1 == pytest.approx(1.0, rel=1e-14)
    assert dpar.theta2 == pytest.approx(1.0, rel=1e-12)
    assert dpar.theta3 == pytest.approx(1.0, rel=1e-12)


def test_derive_parallel_complex_branch():
    # sqrt(C11 C33) - C13 - 2 C44 < 0 makes the characteristic roots a
    # conjugate pair
    dpar = moduli.derive_parallel(
        moduli.ElasticConstants(3.0, 1.0, 2.5, 1.2, 0.8))
    assert dpar.theta2.imag != 0.0
    assert complex(dpar.theta2) == pytest.approx(
        complex(np.conj(dpar.theta3)), rel=1e-12)
    assert dpar.theta2.real > 0.0


@given(mu=st.floats(0.1, 10.0), nu=st.floats(-0.9, 0.45))
@settings(max_examples=50, deadline=None)
def test_derive_parallel_isotropic_oracle(mu, nu):
    # isotropic embedding: eta1 = 2 mu, eta2 = 2 mu / (1 - nu),
    # all characteristic decay rates equal to 1
    dpar = moduli.derive_parallel(moduli.from_isotropic(mu, nu))
    assert dpar.eta1 == pytest.approx(2.0 * mu, rel=1e-12)
    assert dpar.eta2 == pytest.approx(2.0 * mu / (1.0 - nu), rel=1e-10)
    for th in (dpar.theta1, dpar.theta2, dpar.theta3):
        assert complex(th) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("c", [(3.0, 1.0, 2.5, 1.2, 0.8),
                               (2.0, 0.5, 4.0, 1.5, 0.5),
                               (5.0, -1.0, 2.0, 1.0, 2.5)])
def test_eta2_is_twice_the_basal_edge_energy_factor(c):
    # textbook energy factor of a basal edge dislocation in a transversely
    # isotropic medium, Cb = sqrt(C11 C33):
    # (Cb + C13) sqrt(C44 (Cb - C13) / (C33 (Cb + C13 + 2 C44)))
    c11, c13, c33, c44, _ = c
    cb = np.sqrt(c11 * c33)
    factor = (cb + c13) * np.sqrt(c44 * (cb - c13)
                                  / (c33 * (cb + c13 + 2.0 * c44)))
    dpar = moduli.derive_parallel(moduli.ElasticConstants(*c))
    assert dpar.eta2 == pytest.approx(2.0 * factor, rel=1e-14)
    assert dpar.eta1 == pytest.approx(2.0 * np.sqrt(c[3] * c[4]), rel=1e-15)


def test_derive_parallel_rejects_invalid():
    with pytest.raises(ValueError):
        moduli.derive_parallel(moduli.ElasticConstants(3, 5, 3, 1, 1))


def test_stiffness_symmetries_and_voigt_entries():
    ec = moduli.ElasticConstants(3.0, 1.0, 2.5, 1.2, 0.8)
    c11, c13, c33, c44, c66 = ec.astuple()
    C = moduli.stiffness(ec)
    assert C.shape == (3, 3, 3, 3)
    assert np.array_equal(C, C.transpose(1, 0, 2, 3))     # minor, ij
    assert np.array_equal(C, C.transpose(0, 1, 3, 2))     # minor, kl
    assert np.array_equal(C, C.transpose(2, 3, 0, 1))     # major
    voigt = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 3,
             (0, 2): 4, (2, 0): 4, (0, 1): 5, (1, 0): 5}
    table = {(0, 0): c11, (1, 1): c11, (0, 1): c11 - 2 * c66, (0, 2): c13,
             (1, 2): c13, (2, 2): c33, (3, 3): c44, (4, 4): c44, (5, 5): c66}
    for idx in np.ndindex(C.shape):
        pair = tuple(sorted((voigt[idx[:2]], voigt[idx[2:]])))
        assert C[idx] == table.get(pair, 0.0), idx
