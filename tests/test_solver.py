import itertools
import json

import numpy as np
import pytest
import scipy.linalg

from pndislo import cli, kernels, regions, solver, symbols
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
    with pytest.raises(ValueError, match=r"W must be positive on \(-1, 1\)"):
        # valid wells, W''(+-1) = 6, but negative for |u| < 1/2
        solver.Potential("bad", 1.0,
                         lambda u: (1 - u * u) ** 2 * (u * u - 0.25),
                         lambda u: u * (1 - u * u) * (3 - 6 * u * u),
                         lambda u: 3 - 27 * u * u + 30 * u ** 4)
    with pytest.raises(ValueError):
        # W''(1) <= 0
        solver.Potential("bad", 1.0, lambda u: (1 - u * u) ** 3,
                         lambda u: -6 * u * (1 - u * u) ** 2,
                         lambda u: -6 * (1 - u * u) ** 2
                         + 24 * u * u * (1 - u * u))
    # each condition fails on NaN, not only on a wrong value
    ok = solver.Potential.quartic(1.0)
    nan = lambda u: np.nan * np.asarray(u)  # noqa: E731
    for w, dw, d2w in ((nan, ok.dw, ok.d2w), (ok.w, nan, ok.d2w),
                       (ok.w, ok.dw, nan),
                       (lambda u: np.where(np.abs(u) < 1, np.nan, 0.0),
                        ok.dw, ok.d2w)):
        with pytest.raises(ValueError):
            solver.Potential("nan", 1.0, w, dw, d2w)


@pytest.mark.parametrize("ctor", [solver.Potential.quartic,
                                  solver.Potential.cosine])
@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_potential_rejects_non_finite_scale(ctor, scale):
    with pytest.raises(ValueError, match="is not finite"):
        ctor(scale)


def test_potential_well_slope_enforced():
    # W = 1 - u^2 is zero at the wells and positive inside, but its slope
    # there is -+2; a spline clamped at the wells alone would accept it
    for n in (5, 9, 17, 65):
        u = np.linspace(-1.0, 1.0, n)
        with pytest.raises(ValueError, match="slope W'"):
            solver.Potential.custom(u, 1 - u * u)
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


@pytest.mark.parametrize("n", [9, 17, 65])
@pytest.mark.parametrize("kind", ["quartic", "cosine"])
def test_custom_table_of_a_double_well_accepted(kind, n):
    # the spline is clamped at the wells, so coarse uniform tables of a
    # valid W pass; a not-a-knot spline missed W'(+-1) = 0 at every n
    ref = getattr(solver.Potential, kind)(1.0)
    u = np.linspace(-1.0, 1.0, n)
    pot = solver.Potential.custom(u, ref(u))
    assert pot.dw(-1.0) == pot.dw(1.0) == 0.0
    assert pot.d2w(-1.0) > 0.0 and pot.d2w(1.0) > 0.0
    if kind == "quartic" and n == 17:
        sol = solver.solve_profile("II", DP, potential=pot, X=50.0, N=1024)
        exact = solver.solve_profile("II", DP, potential=ref, X=50.0, N=1024)
        assert sol.residual <= 1e-10
        assert np.max(np.abs(sol.psi - exact.psi)) <= 1e-4


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


@pytest.mark.parametrize("method", ["newton", "gradient-flow"])
@pytest.mark.parametrize("kind", ["cosine", "quartic"])
@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_even_w_profile_centred_at_zero(case, theta, kind, method):
    # nothing re-centres the solve: the symmetric grid, the odd background
    # and v = 0 keep the profile of an even W centred
    params = DPAR if case == "III" else DP2
    m_e = float(regions.case(case).symbol(params, np.cos(theta),
                                          np.sin(theta)))
    pot = getattr(solver.Potential, kind)(1.5 * m_e)
    sol = solver.solve_profile(case, params, potential=pot, theta=theta,
                               X=100.0, N=2048, method=method)
    i = sol.N // 2 - 1              # x[i] < 0 < x[i + 1]
    (x0, x1), (f0, f1) = sol.x[i:i + 2], sol.psi[i:i + 2]
    assert f0 < 0.0 < f1
    assert abs(x0 - f0 * (x1 - x0) / (f1 - f0)) <= 1e-11


@pytest.mark.parametrize("method", ["newton", "gradient-flow"])
def test_non_even_potential_not_converged(method):
    # the solve has no translation pin but the x -> -x symmetry: a W that is
    # not even stalls above TOL_SOLVE (4e-6 to 4e-5 here, lower at larger X).
    # W = (s/4)(1 - u^2)^2 (1 + a u) with s = 2, a = 0.3: W''(+-1) = 2s(1 +- a)
    s, a = 2.0, 0.3
    pot = solver.Potential(
        "tilted", s, lambda u: 0.25 * s * (1 - u * u) ** 2 * (1 + a * u),
        lambda u: s * (1 - u * u) * (0.25 * a * (1 - u * u)
                                     - u * (1 + a * u)),
        lambda u: s * ((3 * u * u - 1) * (1 + a * u)
                       - 2 * a * u * (1 - u * u)))
    with pytest.raises(solver.SolverError, match="no convergence"):
        solver.solve_profile("II", perp_from_parameters(1.0, 0.25, 1.5),
                             potential=pot, X=100.0, N=2048, method=method)


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


def test_stiff_gradient_flow_agrees_with_newton(monkeypatch):
    # W = 20 m(e) (1 - u^2)^2 / 4 on a fine grid: the flow step is set by
    # max|W''|/m alone, so 150 flow steps reach 1e-10
    pot = solver.Potential.quartic(20.0 * 2.0)     # m(e) = 2
    a = solver.solve_profile("II", DP, potential=pot, X=25.0, N=8192)
    monkeypatch.setattr(solver, "FLOW_MAXITER", 150)
    b = solver.solve_profile("II", DP, potential=pot, X=25.0, N=8192,
                             method="gradient-flow")
    assert b.residual <= 1e-10
    assert np.max(np.abs(a.psi - b.psi)) <= 1e-7


def test_flow_step_evaluates_dw_once():
    # W' enters only through the residual: once per flow step and once for
    # the residual that ends the single flow run, the last of the history
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
    assert calls == st["flow_steps"] + 1


def _counted_newton(monkeypatch, scale=1.0, info=None, first_only=False):
    """Newton solve of the quartic profile (II, nu = 0.25, delta = 1) with
    MINRES's direction multiplied by `scale` (on the first call only if
    `first_only`) and its `info` replaced; returns the solution or the
    SolverError and the W', W'' and MINRES call counts."""
    real_minres = solver._minres
    n = {"dw": 0, "d2w": 0, "minres": 0}

    def minres(*args, **kwargs):
        n["minres"] += 1
        d, rc, its = real_minres(*args, **kwargs)
        s = scale if not first_only or n["minres"] == 1 else 1.0
        return s * d, rc if info is None else info, its

    base = solver.Potential.quartic(1.0)

    def dw(u):
        n["dw"] += 1
        return base.dw(u)

    def d2w(u):
        n["d2w"] += 1
        return base.d2w(u)

    pot = solver.Potential("counting", 1.0, base.w, dw, d2w)
    n.update(dw=0, d2w=0)
    monkeypatch.setattr(solver, "_minres", minres)
    try:
        out = solver.solve_profile("II", DP, potential=pot, X=50.0, N=1024)
    except solver.SolverError as exc:
        out = exc
    return out, n


def test_newton_call_counts(monkeypatch):
    # W' once per recorded residual (one per flow step, one per line-search
    # trial, one that ends the flow run and one that ends the Newton run);
    # W'' once for the flow step size and once per Newton step.  A typical
    # step takes t = 1.
    sol, n = _counted_newton(monkeypatch)
    st = sol.stats
    assert st["newton_steps"] > 0 and n["minres"] == st["newton_steps"]
    assert n["dw"] == st["flow_steps"] + 2 * st["newton_steps"] + 2
    assert n["d2w"] == st["newton_steps"] + 1


def test_newton_damping_halves_an_overlong_step(monkeypatch):
    ref, _ = _counted_newton(monkeypatch)
    sol, n = _counted_newton(monkeypatch, scale=4.0)
    st = sol.stats
    assert sol.residual <= 1e-10
    assert np.max(np.abs(sol.psi - ref.psi)) <= 1e-10
    # t = 1 and t = 1/2 of the fourfold step overshoot before t = 1/4
    assert n["dw"] >= st["flow_steps"] + 3 * st["newton_steps"] + 2


def test_newton_best_length_fallback(monkeypatch):
    # a vanishing first direction: no length passes the sufficient-decrease
    # test, so the best of the 7 lengths (t = 1) is taken and Newton goes on
    ref, _ = _counted_newton(monkeypatch)
    sol, n = _counted_newton(monkeypatch, scale=1e-9, first_only=True)
    st = sol.stats
    assert sol.residual <= 1e-10
    assert np.max(np.abs(sol.psi - ref.psi)) <= 1e-10
    assert st["newton_steps"] == ref.stats["newton_steps"] + 1
    assert n["dw"] == st["flow_steps"] + 2 * st["newton_steps"] + 2 + 6


def test_newton_fails_when_no_length_reduces(monkeypatch):
    # an ascent direction: the Newton run tries all 7 lengths and gives up,
    # and the solve with it
    exc, n = _counted_newton(monkeypatch, scale=-1.0)
    assert isinstance(exc, solver.SolverError)
    assert n["minres"] == 1
    assert n["dw"] == len(exc.history) + 7


def test_newton_fails_on_minres_breakdown(monkeypatch):
    # info != 0 ends the Newton run before any step or trial, and the
    # solve with it
    ref, _ = _counted_newton(monkeypatch)
    exc, n = _counted_newton(monkeypatch, info=1)
    assert isinstance(exc, solver.SolverError)
    assert n["minres"] == 1
    assert n["dw"] == len(exc.history) == ref.stats["flow_steps"] + 1 + 1
    assert n["d2w"] == 1 + 1


def test_newton_run_record(monkeypatch):
    # one MINRES iteration count and one accepted length per Newton step
    sol, _ = _counted_newton(monkeypatch)
    st = sol.stats
    assert len(st["newton_inner_iterations"]) == st["newton_steps"] > 0
    assert len(st["newton_damping"]) == st["newton_steps"]
    assert all(0 < its < sol.N for its in st["newton_inner_iterations"])
    assert st["newton_damping"] == [1.0] * st["newton_steps"]
    # the overlong step of test_newton_damping_halves_an_overlong_step
    sol, _ = _counted_newton(monkeypatch, scale=4.0)
    assert len(sol.stats["newton_damping"]) == sol.stats["newton_steps"]
    # no step of four times the Newton length is taken whole
    assert max(sol.stats["newton_damping"]) <= 0.5
    assert 0.25 in sol.stats["newton_damping"]
    flow = solver.solve_profile("II", DP, potential=solver.Potential.quartic(),
                                X=50.0, N=1024, method="gradient-flow")
    assert flow.stats["newton_steps"] == 0
    assert flow.stats["newton_inner_iterations"] == []
    assert flow.stats["newton_damping"] == []


def _dense_linearization(sol):
    """The dense matrices of (-Delta)^(1/2) and of the linearisation
    (-Delta)^(1/2) + W''(psi)/m on the solution's grid."""
    n = sol.N
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * sol.X / n)
    F = np.fft.fft(np.eye(n), axis=0)
    absk = (np.conj(F).T @ (np.abs(k)[:, None] * F)).real / n
    return absk, absk + np.diag(sol.potential.d2w(sol.psi) / sol.m_e)


def test_minres_matches_dense_solve():
    # the Jacobian |k| + W''(psi)/m of the quartic profile (N = 256) is
    # indefinite: W'' < 0 in the core
    pot = solver.Potential.quartic(1.0)
    sol = solver.solve_profile("II", DP, potential=pot, X=25.0, N=256)
    n = sol.N
    absk, J = _dense_linearization(sol)
    dpot = pot.d2w(sol.psi) / sol.m_e
    eig = np.linalg.eigvalsh(J)
    assert eig[0] < 0.0 < eig[-1] and np.min(np.abs(eig)) > 1e-3
    Minv = np.linalg.inv(absk + np.mean(np.abs(dpot)) * np.eye(n))
    b = np.random.default_rng(1).standard_normal(n)
    x, info, its = solver._minres(lambda d: J @ d, b, lambda r: Minv @ r,
                                  rtol=1e-13, maxiter=n)
    ref = np.linalg.solve(J, b)
    assert info == 0 and 0 < its < n
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    x, info, its = solver._minres(lambda d: J @ d, b, lambda r: Minv @ r,
                                  rtol=1e-13, maxiter=3)
    assert info != 0 and its == 3
    # b = 0: the zero solution, before any Lanczos step
    x, info, its = solver._minres(lambda d: J @ d, np.zeros(n),
                                  lambda r: Minv @ r, rtol=1e-13, maxiter=n)
    assert np.array_equal(x, np.zeros(n)) and info == 0 and its == 0


def test_newton_budget_exhausted(monkeypatch):
    # a fiftieth of each step: accepted at t = 1, but the 40 steps of the
    # Newton run do not reach TOL_SOLVE; it records 40 residuals and the
    # final one
    ref, _ = _counted_newton(monkeypatch)
    exc, n = _counted_newton(monkeypatch, scale=0.02)
    assert isinstance(exc, solver.SolverError)
    assert n["minres"] == 40
    assert len(exc.history) == ref.stats["flow_steps"] + 1 + 41
    assert n["dw"] == len(exc.history) + 40
    assert exc.history[-1] < exc.history[-41]


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


def test_solver_error_carries_history(monkeypatch):
    # a flow budget of 3 steps: 3 residuals and the final one
    monkeypatch.setattr(solver, "FLOW_MAXITER", 3)
    with pytest.raises(solver.SolverError) as exc:
        solver.solve_profile("II", DP, potential=solver.Potential.quartic(),
                             X=50.0, N=1024, method="gradient-flow")
    assert len(exc.value.history) == 4


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solver.solve_profile("II", DP, theta=2.0)
    with pytest.raises(ValueError):
        solver.solve_profile("II", DP, method="bogus")
    for size in ({"X": -5.0}, {"X": 0.0}, {"X": float("nan")},
                 {"X": float("inf")}, {"N": 0}, {"N": 3}):
        with pytest.raises(ValueError, match=next(iter(size))):
            solver.solve_profile("II", DP, **size)


def test_stability_translation_mode_near_zero():
    sol = solver.solve_profile("II", DP, X=100.0, N=2048)
    vals = solver.check_stability(sol, n_eig=4)
    assert vals.shape == (4,)
    assert np.all(np.diff(vals) >= -1e-12)
    # discrete translation eigenvalue: zero up to the domain truncation
    assert abs(sol.lambda_min) <= 2e-4
    assert vals[1] > 0.5       # the rest of the spectrum is well separated


def test_stability_converges_at_spectrum_edge():
    # cosine oracle in case II (nu = 0.25, delta = 2): the eigenvalues above
    # the translation mode cluster at the continuous-spectrum edge 1
    sol = solver.solve_profile("II", DP2, X=200.0, N=4096)
    vals = solver.check_stability(sol, n_eig=6)
    st = sol.stats
    assert st["lobpcg_converged"] is True
    assert st["lobpcg_residual"] <= 1e-9
    assert st["lobpcg_iterations"] < 80
    assert abs(vals[0]) <= 1e-4 and 1.0 < vals[1] < vals[2] < 1.001


def test_stability_rejects_block_sizes_outside_the_grid():
    sol = solver.solve_profile("II", DP, X=25.0, N=256)
    for n_eig in (0, -1, 65):
        with pytest.raises(ValueError, match="n_eig"):
            solver.check_stability(sol, n_eig=n_eig)
    assert solver.check_stability(sol, n_eig=1).shape == (1,)


@pytest.mark.parametrize("scale", [None, 1.0])
def test_stability_matches_dense_eigh(scale):
    pot = None if scale is None else solver.Potential.quartic(scale)
    sol = solver.solve_profile("II", DP, potential=pot, X=25.0, N=256)
    vals = solver.check_stability(sol, n_eig=6)
    A = _dense_linearization(sol)[1]
    dense = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=[0, 5])
    assert np.max(np.abs(vals - dense)) <= 1e-9


@pytest.mark.parametrize("n_eig", [32, 64])
def test_stability_large_block_matches_dense_eigh(n_eig):
    # blocks up to N/4 on a stiff quartic: P's and W's images stay exact
    # enough that the recurrence for AX does not drift (without projecting
    # W out of P it reached residuals of 1e9 here)
    pot = solver.Potential.quartic(20.0)
    sol = solver.solve_profile("II", DP, potential=pot, X=25.0, N=256)
    vals = solver.check_stability(sol, n_eig=n_eig)
    dense = np.linalg.eigvalsh(_dense_linearization(sol)[1])[:n_eig]
    assert sol.stats["lobpcg_converged"] is True
    assert np.max(np.abs(vals - dense)) <= 1e-9


def _dense_problem(locked=False, n=64, k=3):
    """A(V) = V M for a symmetric M with spectrum in [1, 10], and k
    orthonormal start rows; with `locked`, M[0, 0] = 0.5 is decoupled from
    the rest and the first start row is its eigenvector e_0."""
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = (Q * np.linspace(1.0, 10.0, n)) @ Q.T
    M = 0.5 * (M + M.T)
    start = rng.standard_normal((n, k))
    if locked:
        M[0, :] = M[:, 0] = 0.0
        M[0, 0] = 0.5
        start[:, 0] = np.eye(n)[0]
        start[0, 1:] = 0.0
    X0 = np.ascontiguousarray(np.linalg.qr(start)[0].T)
    return M, X0


def test_lobpcg_matches_dense_eigvalsh():
    M, X0 = _dense_problem()
    vals, vecs, its = solver._lobpcg(lambda V: V @ M, lambda R, th: R, X0,
                                     1e-10, 400)
    assert its < 400 and vecs.shape == X0.shape
    assert np.max(np.abs(vals - np.linalg.eigvalsh(M)[:3])) <= 1e-10
    assert np.max(np.abs(vecs @ vecs.T - np.eye(3))) <= 1e-12


def test_lobpcg_soft_locks_an_exact_eigenvector():
    M, X0 = _dense_problem(locked=True)
    rows = []

    def precond(R, theta):
        rows.append(R.shape[0])
        return R

    vals, _, its = solver._lobpcg(lambda V: V @ M, precond, X0, 1e-10, 400)
    assert its < 400 and len(rows) == its
    # e_0 never gets a W row: at most 2 of the 3 rows are preconditioned
    assert rows[0] == 2 and max(rows) == 2
    assert abs(vals[0] - 0.5) <= 1e-14
    assert np.max(np.abs(vals - np.linalg.eigvalsh(M)[:3])) <= 1e-10


def _failing_cholqr(monkeypatch, fails):
    """Patch solver._cholqr so that call number i (from 0) raises
    LinAlgError where fails(i) holds; returns the list of call numbers
    that raised."""
    raised, calls, cholqr = [], itertools.count(), solver._cholqr

    def patched(V):
        i = next(calls)
        if fails(i):
            raised.append(i)
            raise np.linalg.LinAlgError("patched")
        return cholqr(V)

    monkeypatch.setattr(solver, "_cholqr", patched)
    return raised


def test_stability_restarts_without_p(monkeypatch):
    # iteration 0 has no P and factors W alone (call 0); iteration 1
    # factors P first (call 1): failing it restarts that step on [X; W]
    pot = solver.Potential.quartic(1.0)
    sol = solver.solve_profile("II", DP, potential=pot, X=25.0, N=256)
    raised = _failing_cholqr(monkeypatch, lambda i: i == 1)
    vals = solver.check_stability(sol, n_eig=6)
    assert raised == [1]
    assert sol.stats["lobpcg_converged"] is True
    dense = np.linalg.eigvalsh(_dense_linearization(sol)[1])[:6]
    assert np.max(np.abs(vals - dense)) <= 1e-9


def test_stability_returns_early_when_both_factors_fail(monkeypatch,
                                                         capsys):
    raised = _failing_cholqr(monkeypatch, lambda i: i >= 1)
    code = cli.main(["solve", "--case", "II", "--nu", "0.25", "--X", "25",
                     "--N", "256"])
    # the P factor and then the W factor of iteration 1 fail
    assert raised == [1, 2]
    assert code == cli.EXIT_NO_CONVERGENCE
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["lobpcg_iterations"] == 1
    assert stats["lobpcg_converged"] is False


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
