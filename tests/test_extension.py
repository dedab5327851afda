import json

import numpy as np
import pytest
import scipy.linalg

from pndislo import extension, symbols
from pndislo.moduli import (ElasticConstants, derive_parallel, derive_perp,
                            from_isotropic, perp_from_parameters,
                            perp_to_constants, stiffness)
from pndislo.nonlocal_ops import GridField2D, cell_axes

ISO = from_isotropic(1.0, 0.25)
ANISO = ElasticConstants(3.0, 1.0, 2.5, 1.2, 0.8)   # complex parallel roots
# anisotropic material satisfying the perpendicular-case special condition
# (delta = C66/C44 = 2)
PERP2 = perp_to_constants(perp_from_parameters(1.0, 0.25, 2.0))

MATERIALS = [("perp", ISO, 0.7, -1.2), ("perp", ISO, 1.0, 0.0),
             ("parallel", ISO, 0.5, 0.5), ("parallel", ANISO, 1.3, 0.4),
             ("perp", PERP2, 0.9, 1.1)]


@pytest.mark.parametrize("orientation,ec,k1,k2", MATERIALS)
def test_propagator_identity_at_zero(orientation, ec, k1, k2):
    sys = extension.build_halfspace(orientation, ec, k1, k2)
    assert np.max(np.abs(sys.bplus(0.0) - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("orientation,ec,k1,k2", MATERIALS)
def test_conjugate_reflection_identity(orientation, ec, k1, k2):
    # the growing-mode propagator at -x, J bplus(x) J, equals the complex
    # conjugate of the decaying-mode propagator at +x (real-coefficient ODE)
    sys = extension.build_halfspace(orientation, ec, k1, k2)
    J = _jump(orientation)
    for xn in (0.4, 1.7):
        assert np.max(np.abs(J @ sys.bplus(xn) @ J
                             - np.conj(sys.bplus(xn)))) <= 1e-12


def test_propagator_decays():
    sys = extension.build_halfspace("perp", ISO, 1.0, 0.5)
    n1 = np.linalg.norm(sys.bplus(1.0))
    n4 = np.linalg.norm(sys.bplus(4.0))
    assert n4 < n1 < np.linalg.norm(sys.bplus(0.0)) + 1e-12
    # asymptotic slope matches the smallest decay rate; the generalized-mode
    # polynomial prefactor contributes O(1/x), so compare deep and correct
    # for the x e^(-rx) factor by fitting log(norm/x)
    xs = np.array([20.0, 24.0, 28.0])
    ln = np.log([np.linalg.norm(sys.bplus(x)) / x for x in xs])
    slope = -np.polyfit(xs, ln, 1)[0]
    r_min = float(np.min(np.abs(sys.eigvals.real)))
    assert slope == pytest.approx(r_min, rel=1e-2)


@pytest.mark.parametrize("orientation,ec,k1,k2", MATERIALS)
def test_propagator_array_matches_stacked_scalar(orientation, ec, k1, k2):
    sys = extension.build_halfspace(orientation, ec, k1, k2)
    xs = np.array([0.0, 0.4, 1.7, 0.1, 5.0])
    arr = sys.bplus(xs)
    stacked = np.stack([sys.bplus(float(v)) for v in xs])
    assert arr.shape == (xs.size, 3, 3)
    assert np.max(np.abs(arr - stacked)) <= 1e-14


# delta = C66/C44 within ~3e-3 of 1 but not 1: r1 and r2 nearly coincide,
# so the eigenvectors of the companion matrix are nearly dependent; the
# generator, from the cubic in the companion matrix, never forms them.
NEAR_DELTA_ONE = [
    # delta - 1 = 5.4e-4
    (ElasticConstants(2.049273081042775, -0.02701979487712576,
                      2.049273081042775, 1.0381464379599503,
                      1.0387052955728222), -4.0, 1.0),
    # delta - 1 = 1e-6
    (perp_to_constants(perp_from_parameters(1.0, 0.25, 1.0 + 1e-6)),
     1.0, 1.0),
]


@pytest.mark.parametrize("ec,k1,k2", NEAR_DELTA_ONE)
def test_build_halfspace_near_delta_one(ec, k1, k2):
    sys = extension.build_halfspace("perp", ec, k1, k2)
    assert np.max(np.abs(sys.bplus(0.0) - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("d", [1e-9, 1e-6, 1e-4])
def test_propagator_continuous_through_delta_one(d):
    # B depends smoothly on delta, so the confluent limit r1 -> r2 is
    # approached at rate O(delta - 1)
    iso = perp_to_constants(perp_from_parameters(1.0, 0.25, 1.0))
    near = perp_to_constants(perp_from_parameters(1.0, 0.25, 1.0 + d))
    xs = np.array([0.3, 1.0, 2.5])
    for k1, k2 in [(1.0, 1.0), (-4.0, 1.0), (0.0, 2.0), (3.0, 0.0)]:
        b_iso = extension.build_halfspace("perp", iso, k1, k2).bplus(xs)
        b_near = extension.build_halfspace("perp", near, k1, k2).bplus(xs)
        assert np.max(np.abs(b_near - b_iso)) <= d


def test_build_halfspace_validation():
    with pytest.raises(ValueError):
        extension.build_halfspace("perp", ISO, 0.0, 0.0)
    with pytest.raises(ValueError):
        extension.build_halfspace("perp",
                                  ElasticConstants(3, 5, 3, 1, 1), 1.0, 0.0)
    with pytest.raises(ValueError):
        extension.build_halfspace("sideways", ISO, 1.0, 0.0)


def _single_mode_field(orientation="perp", ec=None, m=2, n=16,
                       L=2 * np.pi, x_max=4.0, h=0.1):
    ec = ISO if ec is None else ec

    def f(x, y):
        return np.cos(m * x) + 0.0 * y

    ua = GridField2D.from_function(L, L, n, n, f)
    ub = GridField2D.from_function(L, L, n, n, lambda x, y: 0.0 * x * y)
    steps = int(round(x_max / h))
    xn = np.concatenate([-h * np.arange(1, steps + 1)[::-1],
                         h * np.arange(0, steps + 1)])
    return extension.extend(orientation, ec, ua, ub, xn)


def test_extension_interior_residual_small():
    fld = _single_mode_field()
    assert extension.interior_residual(fld) <= 1e-6


def test_extension_boundary_values_match():
    fld = _single_mode_field()
    i0 = np.nonzero(fld.x_normal == 0.0)[0][0]
    a, b = cell_axes(fld.L1, fld.L2, *fld.u.shape[2:])
    assert fld.u[0, i0] == pytest.approx(
        np.cos(2 * a)[:, None] * np.ones_like(b)[None, :], abs=1e-12)


def test_extension_decay_rate():
    # mode along the second slip axis: u1 decouples and decays at exactly
    # r1 = sqrt(k3^2/delta) without a polynomial prefactor
    ec = PERP2
    fld = _single_mode_field(
        orientation="perp", ec=ec, m=2, x_max=4.0)
    # vary along axis b instead: rebuild with the cosine on the second axis
    n, L = 16, 2 * np.pi
    ua = GridField2D.from_function(L, L, n, n,
                                   lambda x, y: np.cos(2 * y) + 0.0 * x)
    ub = GridField2D.from_function(L, L, n, n, lambda x, y: 0.0 * x * y)
    fld = extension.extend("perp", ec, ua, ub, fld.x_normal)
    deep = fld.x_normal > 2.0
    amp = np.max(np.abs(fld.u[0][deep]), axis=(1, 2))
    rate = -np.polyfit(fld.x_normal[deep], np.log(amp), 1)[0]
    assert rate == pytest.approx(np.sqrt(2.0), rel=1e-10)   # k3^2/delta = 2


def test_extension_mirror_symmetry():
    # u(-x) = J u(+x) with J = diag(-1, 1, -1) for the "perp" orientation
    fld = _single_mode_field()
    xs = fld.x_normal
    J = np.diag([-1.0, 1.0, -1.0])
    for xv in (0.5, 1.5):
        ip = np.nonzero(np.isclose(xs, xv))[0][0]
        im = np.nonzero(np.isclose(xs, -xv))[0][0]
        mirrored = np.einsum("ab,bij->aij", J, fld.u[:, ip])
        assert fld.u[:, im] == pytest.approx(mirrored, abs=1e-12)


def test_normal_closure_zeroes_plane_stress():
    # sigma_nn(0+) = 0 at the mode level, machine precision
    c11, c13, c33, c44, c66 = ISO.astuple()
    for k1, k3 in [(2.0, 0.0), (0.0, 2.0), (1.0, -1.5)]:
        sys = extension.build_halfspace("perp", ISO, k1, k3)
        ua, ub = 1.0 + 0.4j, -0.3 + 0.0j
        u2 = extension.normal_closure(sys, ISO, ua, ub)
        D = sys.dbplus0()
        u = np.array([ua, u2, ub])
        s22 = ((c11 - 2 * c66) * 1j * k1 * ua + c13 * 1j * k3 * ub
               + c11 * (D[1] @ u))
        assert abs(s22) <= 1e-12 * max(abs(c11 * (D[1] @ u)), 1.0)


def test_energy_density_nonnegative():
    # density = (1/2) eps : C : eps >= 0 by positive definiteness, for any
    # strain field
    fld = _single_mode_field()
    _, stress, density = extension.stress_strain(fld)
    scale = float(np.max(np.abs(stress)))
    assert np.min(density) >= -1e-12 * scale


def test_stress_strain_uniaxial_oracle():
    # linear displacement u1 = s x1 on a non-periodic check is not available
    # on the slip grid, so probe the constitutive table directly through a
    # uniform normal gradient: u2 = s * x2 ("perp": normal axis is x2)
    s = 1e-3
    n, nn = 16, 21
    xn = np.linspace(-1.0, 1.0, nn)
    u, du = np.zeros((3, nn, n, n)), np.zeros((3, nn, n, n))
    u[1], du[1] = s * xn[:, None, None], s
    fld = extension.Field3D("perp", 2 * np.pi, 2 * np.pi, xn, u,
                            du_normal=du, ec=ISO)
    strain, stress, density = extension.stress_strain(fld)
    c11, c13, c12 = ISO.c11, ISO.c13, ISO.c11 - 2 * ISO.c66
    assert strain[1, 1] == pytest.approx(s * np.ones((nn, n, n)), rel=1e-10)
    assert stress[1, 1] == pytest.approx(c11 * s, rel=1e-10)
    assert stress[0, 0] == pytest.approx(c12 * s, rel=1e-10)
    assert stress[2, 2] == pytest.approx(c13 * s, rel=1e-10)
    assert density == pytest.approx(0.5 * c11 * s * s, rel=1e-10)


@pytest.mark.parametrize("orientation,ec", [("perp", PERP2),
                                            ("parallel", ANISO)])
def test_stress_strain_slip_derivatives_are_spectral(orientation, ec):
    # extend is linear and commutes with slip shifts, so the slip derivative
    # of extend(cos k.x) is -k_s extend(sin k.x); at 8^2, |m| = 3 is the
    # highest mode below Nyquist
    L1, L2, n = 2 * np.pi, 3.0, 8
    k = (3 * 2 * np.pi / L1, -3 * 2 * np.pi / L2)
    xn = np.linspace(-1.0, 1.0, 21)

    def field(f):
        def g(amp):
            return GridField2D.from_function(
                L1, L2, n, n, lambda x, y: amp * f(k[0] * x + k[1] * y))
        return extension.extend(orientation, ec, g(1.0), g(-0.4), xn)

    strain = extension.stress_strain(field(np.cos))[0]
    u = field(np.sin).u
    sa, sb = (a for a in range(3) if a != extension.NORMAL_AXIS[orientation])
    expect = {(sa, sa): -k[0] * u[sa], (sb, sb): -k[1] * u[sb],
              (sa, sb): -0.5 * (k[0] * u[sb] + k[1] * u[sa])}
    scale = np.max(np.abs(strain))
    for (i, j), e in expect.items():
        assert np.max(np.abs(strain[i, j] - e)) <= 1e-12 * scale


def test_stress_strain_without_lower_samples():
    # no sample below the slip plane: u2 = s x2 has strain22 = s
    s, xn = 1e-3, np.array([0.0, 0.1, 0.2])
    u, du = np.zeros((3, xn.size, 8, 8)), np.zeros((3, xn.size, 8, 8))
    u[1], du[1] = s * xn[:, None, None], s
    fld = extension.Field3D("perp", 1.0, 1.0, xn, u, du_normal=du, ec=ISO)
    strain, _, _ = extension.stress_strain(fld)
    assert strain[1, 1] == pytest.approx(s * np.ones((3, 8, 8)), rel=1e-12)


def test_stress_strain_rejects_field_without_normal_derivative():
    xn = np.array([-0.1, 0.0, 0.1])
    fld = extension.Field3D("perp", 1.0, 1.0, xn, np.zeros((3, 3, 8, 8)),
                            ec=ISO)
    with pytest.raises(ValueError, match="du_normal"):
        extension.stress_strain(fld)


def test_stress_strain_rigid_translation_is_stress_free():
    u = np.ones((3, 11, 16, 16)) * np.array([0.3, -1.0, 2.0])[:, None,
                                                              None, None]
    fld = extension.Field3D("parallel", 1.0, 1.0, np.linspace(-0.5, 0.5, 11),
                            u, du_normal=np.zeros_like(u), ec=ISO)
    _, stress, density = extension.stress_strain(fld)
    assert np.max(np.abs(stress)) <= 1e-12
    assert np.max(np.abs(density)) <= 1e-15


def test_parallel_orientation_extension():
    fld = _single_mode_field(orientation="parallel", ec=ANISO)
    assert extension.interior_residual(fld) <= 1e-4
    # jump convention for "parallel": J = diag(-1, -1, 1)
    xs = fld.x_normal
    ip = np.nonzero(np.isclose(xs, 1.0))[0][0]
    im = np.nonzero(np.isclose(xs, -1.0))[0][0]
    J = np.diag([-1.0, -1.0, 1.0])
    assert fld.u[:, im] == pytest.approx(
        np.einsum("ab,bij->aij", J, fld.u[:, ip]), abs=1e-10)


def test_extend_rejects_mismatched_boundaries():
    ua = GridField2D.from_function(1.0, 1.0, 16, 16, lambda x, y: x * 0)
    ub = GridField2D.from_function(1.0, 1.0, 32, 32, lambda x, y: x * 0)
    with pytest.raises(ValueError):
        extension.extend("perp", ISO, ua, ub, np.linspace(-1, 1, 21))


def test_field3d_tofile_round_trip(tmp_path):
    fld = _single_mode_field(x_max=1.0)
    pb, ph = tmp_path / "f.bin", tmp_path / "f.json"
    fld.tofile(pb, ph)
    header = json.loads(ph.read_text())
    assert header["dims"] == list(fld.u.shape)
    assert header["component_order"] == ["u1", "u2", "u3"]
    raw = np.fromfile(pb, dtype="<f8").reshape(fld.u.shape)
    assert raw == pytest.approx(fld.u, abs=0.0)


def _reference_companion(orientation, ec, k1, k2):
    """Companion matrices [[0, I], [-M2^-1 M0, -M2^-1 M1]] written out by
    hand in w = T u: (k1, k3) on the slip axes x1, x3 with normal x2
    ("perp"), (k1, k2) with normal x3 ("parallel")."""
    c11, c13, c33, c44, c66 = ec.astuple()
    z, s = 0.0 * k1, c13 + c44
    if orientation == "perp":
        m2 = [c66, c11, c44]
        M1 = [[z, (c11 - c66) * k1, z], [-(c11 - c66) * k1, z, -s * k2],
              [z, s * k2, z]]
        M0 = [[-(c11 * k1 ** 2 + c44 * k2 ** 2), z, -s * k1 * k2],
              [z, -(c66 * k1 ** 2 + c44 * k2 ** 2), z],
              [-s * k1 * k2, z, -(c44 * k1 ** 2 + c33 * k2 ** 2)]]
    else:
        m2 = [c44, c44, c33]
        M1 = [[z, z, s * k1], [z, z, s * k2], [-s * k1, -s * k2, z]]
        M0 = [[-(c11 * k1 ** 2 + c66 * k2 ** 2), -(c11 - c66) * k1 * k2, z],
              [-(c11 - c66) * k1 * k2, -(c66 * k1 ** 2 + c11 * k2 ** 2), z],
              [z, z, -c44 * (k1 ** 2 + k2 ** 2)]]
    low = -np.moveaxis(np.array([a + b for a, b in zip(M0, M1)]), (0, 1),
                       (-2, -1)) / np.array(m2)[:, None]
    return np.concatenate([np.broadcast_to(np.eye(3, 6, 3), low.shape), low],
                          axis=-2)


@pytest.mark.parametrize("orientation,ec", [
    ("perp", ISO), ("parallel", ISO), ("perp", PERP2), ("parallel", ANISO),
    ("parallel", ElasticConstants(2.0, 0.5, 4.0, 1.5, 0.5)),   # complex theta
])
def test_companion_matches_hand_written_table(orientation, ec):
    k1, k2 = np.meshgrid([-2.5, -0.3, 0.0, 0.7, 4.0], [-1.1, 0.0, 0.4, 3.0])
    A = extension._companion(orientation, ec, k1, k2)
    ref = _reference_companion(orientation, ec, k1, k2)
    assert A.shape == ref.shape == k1.shape + (6, 6)
    assert np.all(np.max(np.abs(A - ref), axis=(-2, -1))
                  <= 1e-15 * np.max(np.abs(ref), axis=(-2, -1)))


def _reference_generators(orientation, ec, k1, k2):
    """D_decay and D_grow at one frequency from the ordered real Schur forms
    A Z = Z S of the companion matrix: the leading three Schur vectors span
    the decaying ("lhp") or growing ("rhp") solutions, D = V S V^-1."""
    A = _reference_companion(orientation, ec, k1, k2)
    gens = []
    for sort in ("lhp", "rhp"):
        _, Z, sdim = scipy.linalg.schur(A, output="real", sort=sort)
        assert sdim == 3
        gens.append(Z[3:, :3] @ np.linalg.inv(Z[:3, :3]))
    return gens


def _t_diag(orientation):
    # physical -> transformed variables, w = T u
    return np.array([1.0, 1.0j, 1.0]) if orientation == "perp" \
        else np.array([1.0, 1.0, 1.0j])


def _jump(orientation):
    # slip-plane jump u_minus(0) = J u_plus(0): +1 on the normal axis
    return np.diag([-1.0, 1.0, -1.0]) if orientation == "perp" \
        else np.diag([-1.0, -1.0, 1.0])


def _extend_reference(orientation, ec, boundary_a, boundary_b, x_normal):
    """extend() one frequency and one sample at a time, with generators from
    ordered real Schur forms and propagators from scipy.linalg.expm."""
    J = _jump(orientation)
    t = _t_diag(orientation)
    n1, n2 = boundary_a.shape
    # the full fft2 layout, every +-k pair computed on its own
    ka, kb = np.meshgrid(
        2 * np.pi * np.fft.fftfreq(n1, d=boundary_a.L1 / n1),
        2 * np.pi * np.fft.fftfreq(n2, d=boundary_a.L2 / n2), indexing="ij")
    ua_hat = np.fft.fft2(boundary_a.values)
    ub_hat = np.fft.fft2(boundary_b.values)
    x_normal = np.sort(np.asarray(x_normal, dtype=float))
    slip_idx = (0, 2) if orientation == "perp" else (0, 1)
    normal_idx = 1 if orientation == "perp" else 2
    out = np.zeros((3, len(x_normal), n1, n2), dtype=complex)
    for i in range(n1):
        for j in range(n2):
            k1, k2 = float(ka[i, j]), float(kb[i, j])
            up = np.zeros(3, dtype=complex)
            up[slip_idx[0]] = ua_hat[i, j]
            up[slip_idx[1]] = ub_hat[i, j]
            if k1 == 0.0 and k2 == 0.0:
                for n, xn in enumerate(x_normal):
                    out[:, n, i, j] = up if xn >= 0.0 else J @ up
                continue
            D_decay, D_grow = _reference_generators(orientation, ec, k1, k2)
            sys = extension.HalfSpaceSystem(orientation, (k1, k2), None,
                                            D_decay)
            up[normal_idx] = extension.normal_closure(sys, ec, ua_hat[i, j],
                                                      ub_hat[i, j])
            for n, xn in enumerate(x_normal):
                D, u0 = (D_decay, up) if xn >= 0.0 else (D_grow, J @ up)
                out[:, n, i, j] = scipy.linalg.expm(D * xn) @ (t * u0) / t
    return np.fft.ifft2(out, axes=(2, 3)).real


def _smooth_field(rng, n, L):
    """Real field with a few random modes, |m| <= 3 on an n x n grid."""
    ms = rng.integers(-3, 4, size=(4, 2))
    amp = rng.standard_normal(4)
    phase = rng.uniform(0.0, 2 * np.pi, 4)

    def f(x, y):
        return sum(a * np.cos(2 * np.pi * (m1 * x + m2 * y) / L + p)
                   for (m1, m2), a, p in zip(ms, amp, phase))

    return GridField2D.from_function(L, L, n, n, f)


@pytest.mark.parametrize("orientation,ec", [
    ("perp", ISO), ("perp", PERP2), ("parallel", ANISO),
    ("perp", NEAR_DELTA_ONE[0][0]),                     # delta - 1 = 5.4e-4
    ("parallel", ISO),                                  # triple root
    ("parallel", ElasticConstants(5.0, 1.0, 2.0, 1.0, 2.5)),  # theta1 = theta2
])
@pytest.mark.parametrize("x_normal", [
    [0.7, -1.5, 0.0, 2.2, -0.1, 0.3, -3.0],     # unsorted, both sides
    [1.2, 0.0, 0.45, 3.0],                       # all >= 0
    [-0.3, -2.5, -0.05],                         # all < 0
])
def test_extend_matches_per_sample_reference(orientation, ec, x_normal):
    rng = np.random.default_rng(7)
    L = 2 * np.pi
    ua, ub = _smooth_field(rng, 8, L), _smooth_field(rng, 8, L)
    fld = extension.extend(orientation, ec, ua, ub, x_normal)
    ref = _extend_reference(orientation, ec, ua, ub, x_normal)
    assert np.array_equal(fld.x_normal, np.sort(x_normal))
    assert np.max(np.abs(fld.u - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_extend_rejects_nyquist_content():
    # the grid holds only the even part of a Nyquist mode, which then has
    # no consistent extension; band-limited data on the same grid extends
    L, n = 2 * np.pi, 8
    rng = np.random.default_rng(2)
    zero = GridField2D(L, L, np.zeros((n, n)))
    noise = GridField2D(L, L, rng.standard_normal((n, n)))
    for orientation, ec in (("perp", ISO), ("parallel", ISO),
                            ("perp", PERP2)):
        for f in (lambda x, y: np.cos(4 * x) + 0 * y,
                  lambda x, y: np.cos(x + 4 * y)):
            ua = GridField2D.from_function(L, L, n, n, f)
            with pytest.raises(ValueError, match="Nyquist"):
                extension.extend(orientation, ec, ua, zero, [0.0, 0.5])
        with pytest.raises(ValueError, match="Nyquist"):
            extension.extend(orientation, ec, zero, noise, [0.0, 0.5])
        ua, ub = _smooth_field(rng, n, L), _smooth_field(rng, n, L)
        fld = extension.extend(orientation, ec, ua, ub,
                               0.1 * np.arange(-20, 21))
        slip = (0, 2) if orientation == "perp" else (0, 1)
        assert np.max(np.abs(fld.u[slip, 20] - [ua.values, ub.values])) \
            <= 1e-13
        assert extension.interior_residual(fld) <= 1e-4   # as pndislo extend


def test_extend_realness_check_fires(monkeypatch):
    # +-k1 pairs of the k2 = 0 column are propagated independently; a
    # normal closure that breaks conjugate symmetry must be caught
    closure = extension.normal_closure
    monkeypatch.setattr(extension, "normal_closure",
                        lambda *a: closure(*a) * (1.0 + 0.1j))
    L = 2 * np.pi
    ua = GridField2D.from_function(L, L, 8, 8,
                                   lambda x, y: np.cos(2 * x) + 0 * y)
    zero = GridField2D(L, L, np.zeros((8, 8)))
    with pytest.raises(ValueError, match="not real"):
        extension.extend("perp", ISO, ua, zero, [0.0, 0.5, -0.5])


def test_extend_near_delta_one():
    ec = NEAR_DELTA_ONE[0][0]
    rng = np.random.default_rng(3)
    L = 2 * np.pi
    ua, ub = _smooth_field(rng, 16, L), _smooth_field(rng, 16, L)
    xn = 0.1 * np.arange(-40, 41)
    fld = extension.extend("perp", ec, ua, ub, xn)
    assert extension.interior_residual(fld) <= 1e-6


@pytest.mark.parametrize("orientation,ec,k1,k2", [
    ("perp", PERP2, 0.9, 1.1), ("parallel", ANISO, 1.3, 0.4),
    ("parallel", ISO, 0.5, 0.5)], ids=["perp", "parallel", "triple_root"])
def test_build_halfspace_rejects_spectrum_mismatch(monkeypatch, orientation,
                                                   ec, k1, k2):
    rates = extension._analytic_rates
    monkeypatch.setattr(extension, "_analytic_rates",
                        lambda *a: rates(*a) * (1.0 + 1e-8))
    with pytest.raises(np.linalg.LinAlgError, match="spectrum mismatch"):
        extension.build_halfspace(orientation, ec, k1, k2)


def _perp(nu, delta):
    return perp_to_constants(perp_from_parameters(1.0, nu, delta))


@pytest.mark.parametrize("kk", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("orientation,ec", [
    ("perp", _perp(0.25, 0.05)), ("perp", _perp(0.49, 3.9)),
    ("perp", _perp(0.25, 1.0 - 1e-9)), ("perp", _perp(0.25, 1.0 + 1e-9)),
    ("parallel", ElasticConstants(3.0, 1.0, 3.0, 1.0, 0.05)),  # C66/C44
    ("parallel", ISO),                                        # triple root
    ("parallel", ElasticConstants(5.0, 1.0, 2.0, 1.0, 2.5)),  # theta1 = theta2
    ("parallel", ANISO),                                      # complex pair
], ids=["delta0.05", "nu0.49-delta3.9", "delta1-1e-9", "delta1+1e-9",
        "c66=0.05c44", "triple_root", "theta1=theta2", "complex_pair"])
def test_generator_solves_lower_companion_block(orientation, ec, kk):
    # (w, D w) solves w'' = A21 w + A22 w' for every w: A21 + A22 D = D^2
    phi = np.linspace(0.0, np.pi, 13)
    k1, k2 = kk * np.cos(phi), kk * np.sin(phi)
    D = extension.build_halfspace(orientation, ec, k1, k2).D_decay
    A = extension._companion(orientation, ec, k1, k2)
    res = A[..., 3:, :3] + A[..., 3:, 3:] @ D - D @ D
    assert np.max(np.abs(res)) <= 1e-10 * kk ** 2


# (orientation, material, k1, k2): perp with r1 < r2 and with r1 > r2;
# parallel with a real theta pair (theta1 = theta2), a complex pair and a
# triple root
SWITCH_MATERIALS = [
    ("perp", PERP2, 0.9, 1.1),
    ("perp", perp_to_constants(perp_from_parameters(1.0, 0.25, 0.3)),
     1.2, -0.7),
    ("parallel", ElasticConstants(5.0, 1.0, 2.0, 1.0, 2.5), 1.3, 0.4),
    ("parallel", ANISO, 1.3, 0.4),
    ("parallel", ISO, 0.5, 0.5),
]


@pytest.mark.parametrize("orientation,ec,k1,k2", SWITCH_MATERIALS)
def test_closed_form_matches_expm(orientation, ec, k1, k2):
    # the closed forms switch to a series below |(r2 - r1) x| = 1e-2 (perp)
    # and |q x^2| = 1e-3 (parallel); sample x on both sides of each switch
    sys = extension.build_halfspace(orientation, ec, k1, k2)
    r = sys.eigvals[:3]
    if orientation == "perp":
        x_switch = 1e-2 / abs(r[1] - r[0])
    else:
        q = abs(((r[1] - r[2]) ** 2).real) / 4
        x_switch = np.sqrt(1e-3 / q) if q > 0 else 1.0
    xs = np.concatenate([x_switch * np.array([0.3, 0.99, 1.01, 3.0]),
                         [0.05, 0.7, 2.5]])
    t, J = _t_diag(orientation), _jump(orientation)
    D_grow = _reference_generators(orientation, ec, k1, k2)[1]
    for x in xs:
        # the lower half-space propagator at -x is J bplus(x) J
        for B, D, xn in ((sys.bplus(x), sys.D_decay, x),
                         (J @ sys.bplus(x) @ J, D_grow, -x)):
            ref = scipy.linalg.expm(D * xn) * (t / t[:, None])
            assert np.max(np.abs(B - ref)) <= 1e-13 * np.max(np.abs(ref))


# perp nu = 0.25, delta = 1.5 and a parallel material with C11 != C33
TRACTION_MATERIALS = [
    ("perp", perp_to_constants(perp_from_parameters(1.0, 0.25, 1.5))),
    ("parallel", ElasticConstants(3.2, 1.1, 2.8, 1.0, 1.1))]


@pytest.mark.parametrize("h", [0.025, 0.1, 0.4])
@pytest.mark.parametrize("orientation,ec", TRACTION_MATERIALS)
def test_stress_strain_slip_plane_traction_is_exact(orientation, ec, h):
    # sigma_sn(0+) = -1/2 A(k) u^(k) with A the 3D traction map, at every
    # normal spacing: du_normal is exact, not a difference quotient
    rng = np.random.default_rng(1)
    L, n = 2 * np.pi, 16
    ua, ub = _smooth_field(rng, n, L), _smooth_field(rng, n, L)
    xn = h * np.arange(-20, 21)
    stress = extension.stress_strain(
        extension.extend(orientation, ec, ua, ub, xn))[1]
    nax, slip = extension._axes(orientation)[:2]
    ka, kb = ua.kgrid()
    nz = (ka != 0.0) | (kb != 0.0)
    u_hat = np.stack([np.fft.rfft2(ua.values), np.fft.rfft2(ub.values)], -1)
    t_hat = np.zeros(ka.shape + (2,), dtype=complex)
    t_hat[nz] = -0.5 * np.einsum("...st,...t->...s", extension.traction_map(
        orientation, ec, ka[nz], kb[nz]), u_hat[nz])
    expect = np.fft.irfft2(np.moveaxis(t_hat, -1, 0), s=(n, n))
    got = stress[list(slip), nax, np.searchsorted(xn, 0.0)]
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("orientation,ec", TRACTION_MATERIALS)
def test_du_normal_matches_finite_differences(orientation, ec):
    # 8th-order central differences at spacing 0.05 agree to ~2e-9, in each
    # half-space on its own (the derivative jumps at the slip plane)
    rng = np.random.default_rng(4)
    L, h = 2 * np.pi, 0.05
    ua, ub = _smooth_field(rng, 16, L), _smooth_field(rng, 16, L)
    fld = extension.extend(orientation, ec, ua, ub, h * np.arange(-40, 41))
    scale = np.max(np.abs(fld.du_normal))
    for half in (fld.x_normal >= 0.0, fld.x_normal < 0.0):
        fd = extension._fd_normal(np.moveaxis(fld.u[:, half], 1, 0), h, 1)
        exact = np.moveaxis(fld.du_normal[:, half], 1, 0)[4:-4]
        assert np.max(np.abs(fd - exact)) <= 1e-7 * scale


@pytest.mark.parametrize("orientation,ec", [("perp", PERP2),
                                            ("parallel", ANISO)])
def test_extend_reports_stats(orientation, ec):
    fld = _single_mode_field(orientation=orientation, ec=ec, n=16, x_max=1.0)
    assert fld.stats["frequencies"] == 16 * 9 - 1     # the half spectrum
    assert set(fld.stats) == {"frequencies", "spectrum_mismatch"}
    assert 0.0 <= fld.stats["spectrum_mismatch"] <= 1e-10


def _barnett_lothe(orientation, ec, k, n_omega=4096):
    """Independent oracle (Barnett-Lothe integral formalism): with m = k/|k|,
    n the slip normal, m(w) = m cos w + n sin w, n(w) = -m sin w + n cos w
    and (ab)_jk = a_i C_ijkl b_l, the traction map is 2|k| 4 pi B,
    B = (1/8 pi^2) int_0^2pi [(mm) - (mn)(nn)^-1(nm)] dw, on the slip axes.
    Midpoint rule, one 3x3 solve per angle."""
    C = stiffness(ec)
    n = extension.NORMAL_AXIS[orientation]
    slip = [a for a in range(3) if a != n]
    kk = np.hypot(*k)
    m, nv = np.zeros(3), np.eye(3)[n]
    m[slip] = np.asarray(k) / kk
    w = (np.arange(n_omega) + 0.5) * 2.0 * np.pi / n_omega
    mw = np.outer(np.cos(w), m) + np.outer(np.sin(w), nv)
    nw = -np.outer(np.sin(w), m) + np.outer(np.cos(w), nv)

    def ab(a, b):
        return np.einsum("wi,ijkl,wl->wjk", a, C, b)

    Q = ab(mw, mw) - ab(mw, nw) @ np.linalg.solve(ab(nw, nw), ab(nw, mw))
    return (2.0 * kk * Q.mean(axis=0))[np.ix_(slip, slip)]


def _random_parallel(rng):
    """A random valid material with C11 != C33."""
    c44, c66 = rng.uniform(0.3, 2.0, 2)
    c11, c33 = c66 + rng.uniform(0.2, 3.0), rng.uniform(0.5, 4.0)
    c13 = rng.uniform(-0.95, 0.95) * np.sqrt(c33 * (c11 - c66))
    return ElasticConstants(c11, c13, c33, c44, c66)


def _random_perp(rng):
    """A random material satisfying the perpendicular special condition."""
    delta = rng.uniform(0.1, 3.9)
    lo = max(1.0 - 2.0 / delta, -0.9)
    return perp_to_constants(perp_from_parameters(
        rng.uniform(0.5, 2.0), lo + rng.uniform(0.02, 0.98) * (0.5 - lo),
        delta))


@pytest.mark.parametrize("orientation,material",
                         [("perp", _random_perp),
                          ("parallel", _random_parallel)])
def test_traction_map_matches_barnett_lothe(orientation, material):
    rng = np.random.default_rng(7)
    for _ in range(8):
        ec = material(rng)
        for k in rng.standard_normal((3, 2)):
            oracle = _barnett_lothe(orientation, ec, k)
            A = extension.traction_map(orientation, ec, *k)
            assert np.max(np.abs(A - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_dtn_parallel_matches_traction_map_anisotropic():
    # eta2 = (C11 - C13^2/C33)/tau; any C11 != C33 tells it from expressions
    # that agree only on isotropic media
    rng = np.random.default_rng(11)
    for _ in range(100):
        ec = _random_parallel(rng)
        k = rng.standard_normal(2)
        dtn = symbols.dtn_parallel(derive_parallel(ec), *k)
        A = extension.traction_map("parallel", ec, *k)
        assert np.max(np.abs(A - dtn)) <= 1e-12 * np.max(np.abs(dtn))


@pytest.mark.parametrize("orientation", ["perp", "parallel"])
@pytest.mark.parametrize("mu,nu", [(1.0, 0.25), (1.3, -0.2), (0.7, 0.45)])
def test_traction_map_matches_dtn_isotropic(orientation, mu, nu):
    # the 3D map is the DtN matrix of `symbols` for isotropic media
    ec = from_isotropic(mu, nu)
    for k in [(0.6, 0.8), (1.3, -0.4), (0.0, 2.0), (-3.0, 0.5)]:
        A = extension.traction_map(orientation, ec, *k)
        dtn = (symbols.dtn_perp(derive_perp(ec), *k) if orientation == "perp"
               else symbols.dtn_parallel(derive_parallel(ec), *k))
        assert np.max(np.abs(A - dtn)) <= 1e-13 * np.max(np.abs(dtn))


def test_normal_stencils_are_the_8th_order_weights():
    # the typed 8th-order central weights, generated from the exact
    # rational stencils of kernels._fd_weights
    d1 = np.array([3.0, -32.0, 168.0, -672.0, 0.0,
                   672.0, -168.0, 32.0, -3.0]) / 840.0
    d2 = np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                   8064.0, -1008.0, 128.0, -9.0]) / 5040.0
    for got, ref in ((extension._D1_W8, d1), (extension._D2_W8, d2)):
        assert got.dtype == np.float64
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", [8, 16, 32])
def test_slip_derivative_exact_below_nyquist(m):
    L = 3.0
    x = L * np.arange(m) / m
    D1, D2 = (extension._slip_derivative(m, L, p) for p in (1, 2))
    for p in range(m // 2):
        k = 2 * np.pi * p / L
        c, s = np.cos(k * x), np.sin(k * x)
        tol1, tol2 = 1e-12 * max(k, 1.0), 1e-12 * max(k * k, 1.0)
        assert np.max(np.abs(D1 @ c + k * s)) <= tol1
        assert np.max(np.abs(D1 @ s - k * c)) <= tol1
        assert np.max(np.abs(D2 @ c + k * k * c)) <= tol2
        assert np.max(np.abs(D2 @ s + k * k * s)) <= tol2


@pytest.mark.parametrize("m, L, order", [(8, 3.0, 1), (8, 3.0, 2),
                                         (17, 2.5, 1), (32, 6.0, 2)])
def test_slip_derivative_cached_read_only(m, L, order):
    D = extension._slip_derivative(m, L, order)
    assert extension._slip_derivative(m, L, order) is D
    with pytest.raises(ValueError):
        D[0, 0] = 1.0
    ik = 2j * np.pi * np.fft.rfftfreq(m, d=L / m)[:, None]
    fresh = np.fft.irfft(ik ** order * np.fft.rfft(np.eye(m), axis=0), m, 0)
    assert np.array_equal(D, fresh)


def _rfft2_interior_residual(field):
    """The residual with slip derivatives by rfft2/irfft2 of each term."""
    n, slip = extension._axes(field.orientation)[:2]
    C = stiffness(field.ec)
    shape = field.u.shape[2:]
    k1 = 2 * np.pi * np.fft.fftfreq(shape[0], d=field.L1 / shape[0])
    k2 = 2 * np.pi * np.fft.rfftfreq(shape[1], d=field.L2 / shape[1])
    ik = {slip[0]: 1j * k1[:, None], slip[1]: 1j * k2[None, :], n: 1.0}
    worst = 0.0
    for half in (field.x_normal >= 0.0, field.x_normal < 0.0):
        h = field.x_normal[half][1] - field.x_normal[half][0]
        u = field.u[:, half]
        uh = np.fft.rfft2(u, axes=(-2, -1))
        rows = [[], [], []]
        for i, k, j, l in np.ndindex(3, 3, 3, 3):
            c = C[i, j, k, l] + (j != l) * C[i, l, k, j]
            if j > l or c == 0.0:
                continue
            on_n = (j == n) + (l == n)
            if on_n == 2:
                d = extension._fd_normal(u[k], h, 2)
            else:
                d = np.fft.irfft2(ik[j] * ik[l] * uh[k], s=shape,
                                  axes=(-2, -1))
                d = extension._fd_normal(d, h, 1) if on_n else d[4:-4]
            rows[i].append(c * d)
        scale = max(max(np.max(np.abs(t)) for t in row) for row in rows)
        for row in rows:
            worst = max(worst, float(np.max(np.abs(sum(row))) / scale))
    return worst


@pytest.mark.parametrize("orientation,ec", [("perp", PERP2),
                                            ("parallel", ANISO)])
@pytest.mark.parametrize("m", [8, 16, 32])
def test_interior_residual_matches_rfft2_reference(orientation, ec, m,
                                                   monkeypatch):
    # random fields on every mode below Nyquist; 0.1 normal spacing keeps
    # the residual well above roundoff, so the two agree to 1e-8 relative
    rng = np.random.default_rng(m)
    L = (2 * np.pi, 5.0)

    def boundary():
        c = np.zeros((m, m // 2 + 1), dtype=complex)
        c[:, : m // 2] = rng.standard_normal((m, m // 2)) \
            + 1j * rng.standard_normal((m, m // 2))
        c[m // 2] = 0.0
        return GridField2D(*L, np.fft.irfft2(c, s=(m, m)))

    fld = extension.extend(orientation, ec, boundary(), boundary(),
                           0.1 * np.arange(-40, 41))
    ref = _rfft2_interior_residual(fld)
    assert ref > 1e-6
    # the field's slip derivatives take no 2D transform
    for name in ("rfft2", "irfft2", "fft2", "ifft2", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, None)
    assert extension.interior_residual(fld) == pytest.approx(ref, rel=1e-8)


def test_interior_residual_guards():
    u = np.zeros((3, 41, 8, 8))
    xn = 0.1 * np.arange(-20, 21)
    # 16 samples below the slip plane: one short of the stencil's 17
    fld = extension.Field3D("perp", 1.0, 1.0, xn[4:], u[:, 4:], ec=ISO)
    with pytest.raises(ValueError, match="not enough normal samples"):
        extension.interior_residual(fld)
    xn[-1] += 0.01
    fld = extension.Field3D("perp", 1.0, 1.0, xn, u, ec=ISO)
    with pytest.raises(ValueError, match="uniformly spaced"):
        extension.interior_residual(fld)
    # 20 upper samples at one height, or in reverse order: the stencil
    # divided by a zero or negative spacing
    xn = 0.1 * np.arange(-20, 21)
    for upper in (np.full(21, 0.5), xn[20:][::-1]):
        fld = extension.Field3D("perp", 1.0, 1.0,
                                np.concatenate([xn[:20], upper]), u, ec=ISO)
        with pytest.raises(ValueError, match="increasing and uniformly"):
            extension.interior_residual(fld)
    # a NaN sample, in neither half, was left out of both
    fld = extension.Field3D("perp", 1.0, 1.0, np.append(xn[1:], np.nan), u,
                            ec=ISO)
    with pytest.raises(ValueError, match="normal samples must be finite"):
        extension.interior_residual(fld)


def _cos_field_samples():
    # perp, isotropic, u1 = cos(x1) on 8 x 8; 20 samples below and above
    L = 2.0 * np.pi
    ua = GridField2D.from_function(L, L, 8, 8, lambda x, y: np.cos(x) + 0 * y)
    ub = ua.like(np.zeros((8, 8)))
    return ua, ub, np.concatenate([-0.1 * np.arange(20, 0, -1),
                                   0.1 * np.arange(20)])


def test_extend_rejects_non_finite_normal_samples():
    ua, ub, xn = _cos_field_samples()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="normal samples must be finite"):
            extension.extend("perp", ISO, ua, ub, np.append(xn, bad))


@pytest.mark.parametrize("row", [5, 30])
def test_interior_residual_is_nan_for_non_finite_values(row):
    # one non-finite sample in either half: the result is nan, never the
    # other half's residual
    ua, ub, xn = _cos_field_samples()
    fld = extension.extend("perp", ISO, ua, ub, xn)
    assert extension.interior_residual(fld) <= 1e-9
    u = fld.u.copy()
    u[0, row, 3, 3] = np.nan
    bad = extension.Field3D("perp", fld.L1, fld.L2, fld.x_normal, u, ec=ISO)
    assert np.isnan(extension.interior_residual(bad))
