import numpy as np
import pytest
import scipy.linalg

from pndislo import kernels, regions, solver, symbols
from pndislo.moduli import (derive_parallel, derive_perp, from_isotropic,
                            perp_from_parameters, perp_to_constants)

ISO = from_isotropic(1.0, 0.25)
DP = derive_perp(ISO)
DPAR = derive_parallel(ISO)
DP2 = perp_from_parameters(1.0, 0.25, 2.0)


def test_potential_well_conditions_enforced():
    with pytest.raises(ValueError):
        # W(1) != 0
        solver.Potential("bad", 1.0, lambda u: u * u + 1.0,
                         lambda u: 2 * u, lambda u: 2.0 + 0 * u)
    with pytest.raises(ValueError):
        # negative inside (-1, 1)
        solver.Potential("bad", 1.0, lambda u: u * u - 1.0,
                         lambda u: 2 * u, lambda u: 2.0 + 0 * u)
    with pytest.raises(ValueError):
        # W''(1) <= 0
        solver.Potential("bad", 1.0, lambda u: (1 - u * u) ** 3,
                         lambda u: -6 * u * (1 - u * u) ** 2,
                         lambda u: -6 * (1 - u * u) ** 2
                         + 24 * u * u * (1 - u * u))


def test_potential_well_slope_enforced():
    # a not-a-knot spline through 9 quartic nodes has W'(+-1) = -+0.017
    u = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(ValueError, match="W'"):
        solver.Potential.custom(u, 0.25 * (1 - u * u) ** 2)
    # W = (1 - u^2)(1/2 + (1 - u^2)/4): zero, positive inside and convex at
    # the wells, but W'(+-1) = -+1
    u = np.linspace(-1.2, 1.2, 121)
    with pytest.raises(ValueError, match="W'"):
        solver.Potential.custom(u, (1 - u * u) * (0.5 + 0.25 * (1 - u * u)))


def test_potential_error_prints_floats():
    # a spline evaluates to 0-d arrays; the message shows plain numbers
    u = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError) as exc:
        solver.Potential.custom(u, 1 - u ** 2)
    assert "2.0" in str(exc.value)
    assert "array(" not in str(exc.value)


def test_cosine_potential_shape():
    pot = solver.Potential.cosine(2.0)
    assert pot(0.0) == pytest.approx(4.0 / np.pi ** 2, rel=1e-14)
    assert pot.dw(0.5) == pytest.approx(-2.0 / np.pi, rel=1e-14)
    assert pot.d2w(1.0) == pytest.approx(2.0, rel=1e-14)


def test_custom_potential_from_table():
    # node spacing 0.02 puts the wells at exact interpolation nodes
    u = np.linspace(-1.2, 1.2, 121)
    pot = solver.Potential.custom(u, 0.25 * (1 - u * u) ** 2)
    assert pot(0.3) == pytest.approx(0.25 * (1 - 0.09) ** 2, abs=1e-6)


def test_case_table_matches_per_case_functions():
    per_case = {
        "I": (derive_perp, symbols.symbol_case1, symbols.dtn_perp, 0,
              kernels.kernel_case1,
              lambda ec, dp: regions.in_region_case1(dp.nu, dp.delta)),
        "II": (derive_perp, symbols.symbol_case2, symbols.dtn_perp, 1,
               kernels.kernel_case2,
               lambda ec, dp: regions.in_region_case2(dp.nu, dp.delta)),
        "III": (derive_parallel, symbols.symbol_case3, symbols.dtn_parallel, 1,
                kernels.kernel_case3,
                lambda ec, dpar: regions.in_region_case3(ec)),
    }
    # (inside, outside) the positivity region of each case
    perp = tuple(perp_to_constants(perp_from_parameters(1.0, nu, delta))
                 for nu, delta in ((0.25, 1.0), (0.45, 0.7)))
    materials = {"I": perp, "II": perp,
                 "III": (from_isotropic(1.0, 0.25), from_isotropic(1.0, 0.4))}
    assert tuple(regions.CASES) == ("I", "II", "III")
    th = np.pi / 4
    for name, c in regions.CASES.items():
        derive, symbol, dtn, slip, kernel, member = per_case[name]
        assert c.name == name and regions.case(name) is c
        assert c.slip == slip and c.kernel is kernel
        for ec, inside in zip(materials[name], (True, False)):
            params = c.derive(ec)
            assert params == derive(ec)
            for k1, k2 in ((1.0, 0.0), (np.cos(th), np.sin(th)), (-2.0, 0.5)):
                assert c.symbol(params, k1, k2) == symbol(params, k1, k2)
                assert np.array_equal(c.dtn(params, k1, k2),
                                      dtn(params, k1, k2))
            assert c.member(params) is member(ec, params) is inside
        # the solver evaluates the table's symbol in direction theta
        params = c.derive(materials[name][0])
        sol = solver.solve_profile(name, params, theta=th, X=20.0, N=256)
        assert sol.m_e == float(symbol(params, np.cos(th), np.sin(th)))
        assert sol.in_region is True
    with pytest.raises(ValueError):
        regions.case("X")
    with pytest.raises(ValueError):
        solver.solve_profile("X", DP2)


def test_arctan_oracle_is_exact_fixed_point():
    # cosine potential with amplitude m(e): psi = (2/pi) arctan(x) exactly
    sol = solver.solve_profile("II", DP, X=100.0, N=2048)
    assert sol.residual <= 1e-12
    assert np.max(np.abs(sol.psi - (2 / np.pi) * np.arctan(sol.x))) <= 1e-10
    assert sol.m_e == pytest.approx(2.0, rel=1e-14)   # 2 mu q k3^2/(q k3^2)
    assert sol.in_region is True


def test_far_field_gap_on_cosine_oracle():
    # the exact profile ends at (2/pi) arctan(x) on the symmetric samples
    sol = solver.solve_profile("II", DP, X=200.0, N=4096)
    gap = 1.0 - (2.0 / np.pi) * np.arctan(sol.x[-1])
    assert sol.stats["far_field_gap"] == pytest.approx(gap, abs=1e-8)


def test_solver_recovers_from_shifted_start():
    x = -100.0 + (np.arange(2048) + 0.5) * (200.0 / 2048)
    v0 = (2 / np.pi) * (np.arctan(x - 7.3) - np.arctan(x))
    sol = solver.solve_profile("II", DP, X=100.0, N=2048, v0=v0)
    assert sol.residual <= 1e-10
    assert np.max(np.abs(sol.psi - (2 / np.pi) * np.arctan(sol.x))) <= 1e-8


def test_quartic_profile_centered_and_odd():
    pot = solver.Potential.quartic(1.0)
    sol = solver.solve_profile("II", DP, potential=pot, X=100.0, N=2048)
    assert sol.residual <= 1e-10
    # odd about the cell center on the reflection-symmetric grid
    assert np.max(np.abs(sol.psi + sol.psi[::-1])) <= 1e-9
    assert np.max(np.abs(sol.psi)) < 1.0
    # strictly monotone in the bulk (boundary wrap layer excluded)
    bulk = np.abs(sol.x) <= 0.9 * sol.X
    assert np.all(np.diff(sol.psi[bulk.nonzero()[0]]) > 0.0)


def test_gradient_flow_agrees_with_newton():
    pot = solver.Potential.quartic(1.0)
    a = solver.solve_profile("II", DP, potential=pot, X=50.0, N=1024,
                             method="newton")
    b = solver.solve_profile("II", DP, potential=pot, X=50.0, N=1024,
                             method="gradient-flow")
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-7


def test_flow_steps_do_not_grow_with_n():
    # |k| is implicit in the flow step, so refining the grid at fixed X must
    # not shrink the step
    pot = solver.Potential.quartic(2.0)
    steps = {N: solver.solve_profile("II", DP, potential=pot, X=100.0,
                                     N=N).stats["flow_steps"]
             for N in (1024, 8192)}
    assert 0 < steps[8192] <= 1.5 * steps[1024]


def test_stiff_gradient_flow_agrees_with_newton():
    # W = 20 m(e) (1 - u^2)^2 / 4 on a fine grid: the flow step is set by
    # max|W''|/m alone, so 150 steps per pass reach 1e-10
    pot = solver.Potential.quartic(20.0 * 2.0)     # m(e) = 2
    a = solver.solve_profile("II", DP, potential=pot, X=25.0, N=8192)
    b = solver.solve_profile("II", DP, potential=pot, X=25.0, N=8192,
                             method="gradient-flow", max_iter=150)
    assert b.residual <= 1e-10
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-7


def test_flow_step_evaluates_dw_once():
    # W' enters only through the residual: once per flow step and once per
    # converged flow pass (one more than the centering passes); the final
    # residual is the last one of the history
    base = solver.Potential.quartic(1.0)
    calls = 0

    def dw(u):
        nonlocal calls
        calls += 1
        return base.dw(u)

    pot = solver.Potential("counting", 1.0, base.w, dw, base.d2w)
    calls = 0
    sol = solver.solve_profile("II", DP, potential=pot, X=50.0, N=1024,
                               method="gradient-flow")
    st = sol.stats
    assert st["flow_steps"] > 10
    assert calls == st["flow_steps"] + st["centering_passes"] + 1


def test_cosine_oracle_monotone_everywhere():
    sol = solver.solve_profile("I", DP2, X=100.0, N=2048)
    assert np.all(np.diff(sol.psi) > 0.0)


def test_anisotropic_direction():
    sol = solver.solve_profile("I", DP2, theta=np.pi / 4, X=100.0, N=2048)
    assert sol.residual <= 1e-10
    e = np.cos(np.pi / 4)
    assert sol.m_e == pytest.approx(
        float(symbols.symbol_case1(DP2, e, e)), rel=1e-14)


def test_case3_profile():
    sol = solver.solve_profile("III", DPAR, X=100.0, N=2048)
    assert sol.residual <= 1e-12
    assert sol.m_e == pytest.approx(DPAR.eta1, rel=1e-14)  # e = (1, 0)
    assert sol.in_region is True


def test_solver_error_carries_history():
    with pytest.raises(solver.SolverError) as exc:
        solver.solve_profile("II", DP, potential=solver.Potential.quartic(),
                             X=50.0, N=1024, method="gradient-flow",
                             max_iter=3, tol_solve=1e-12)
    assert len(exc.value.history) > 0


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solver.solve_profile("II", DP, theta=2.0)
    with pytest.raises(ValueError):
        solver.solve_profile("II", DP, method="bogus")


def test_stability_translation_mode_near_zero():
    sol = solver.solve_profile("II", DP, X=100.0, N=2048)
    vals = solver.check_stability(sol, n_eig=4)
    assert vals.shape == (4,)
    assert np.all(np.diff(vals) >= -1e-12)
    # discrete translation eigenvalue: zero up to the domain truncation
    assert abs(sol.lambda_min) <= 2e-4
    assert vals[1] > 0.5       # the rest of the spectrum is well separated
    assert abs(solver.rayleigh_translation(sol)) <= 2e-4


def test_stability_converges_at_spectrum_edge():
    # cosine oracle in case II (nu = 0.25, delta = 2): the eigenvalues above
    # the translation mode cluster at the continuous-spectrum edge 1
    sol = solver.solve_profile("II", DP2, X=200.0, N=4096)
    vals = solver.check_stability(sol, n_eig=6)
    st = sol.stats
    assert st["lobpcg_converged"] is True
    assert st["lobpcg_residual"] <= 1e-9
    assert st["lobpcg_iterations"] < 400
    assert abs(vals[0]) <= 1e-4 and 1.0 < vals[1] < vals[2] < 1.001


@pytest.mark.parametrize("scale", [None, 1.0])
def test_stability_matches_dense_eigh(scale):
    pot = None if scale is None else solver.Potential.quartic(scale)
    sol = solver.solve_profile("II", DP, potential=pot, X=25.0, N=256)
    vals = solver.check_stability(sol, n_eig=6)
    n = sol.N
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * sol.X / n)
    F = np.fft.fft(np.eye(n), axis=0)
    A = (np.conj(F).T @ (np.abs(k)[:, None] * F)).real / n \
        + np.diag(sol.potential.d2w(sol.psi) / sol.m_e)
    dense = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=[0, 5])
    assert np.max(np.abs(vals - dense)) <= 1e-9


def test_reconstruct_2d_residual_small():
    sol = solver.solve_profile("II", DP, X=100.0, N=2048)
    fld, res = solver.reconstruct_2d(sol, n1=128, n2=128)
    assert res <= 1e-10
    assert fld.shape == (128, 128)
    # the slice along x1 reproduces the 1D profile shape
    mid = fld.values[:, 0]
    assert np.max(np.abs(np.diff(mid[32:96]) < 0)) == 0


def test_reconstruct_2d_rotated_direction():
    sol = solver.solve_profile("II", DP, theta=0.3, X=100.0, N=2048)
    _, res = solver.reconstruct_2d(sol, n1=128, n2=128)
    assert res <= 1e-6
