"""1D transition-profile solver for the reduced slip-plane equation.

The scalar equation on the line is

    (-Delta)^(1/2) psi(x) = -W'(psi(x)) / m(e),

where m(e) is the reduced symbol evaluated at the unit direction
e = (cos theta, sin theta).  The solver substitutes psi = phi + v with the
fixed background phi(x) = (2/pi) arctan(x), whose half-Laplacian is known in
closed form, (2/pi) x / (1 + x^2); the deviation v decays and is treated
periodically on [-X, X) with real FFTs.  Semi-implicit spectral gradient flow
globalizes, damped Newton (GMRES with a circulant preconditioner) finishes to
tol_solve.

The flow step treats |k| implicitly and W'(psi)/m explicitly, so only the
latter limits it: with L = max|W''|/m on [-1, 1] it is stable for dt <= 2/L,
and dt = 0.5/L keeps a 4x margin without shrinking as N grows.

`check_stability` computes the smallest eigenvalues of the linearization
v -> (-Delta)^(1/2) v + (W''(psi)/m) v, whose bottom eigenvalue is the
translation zero mode; `reconstruct_2d` samples u(x) = psi(e.x) on a periodic
cell and re-evaluates the full 2D residual through the Fourier multiplier.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres, lobpcg

from . import regions
from .nonlocal_ops import GridField2D, apply_multiplier, cell_axes

TOL_SOLVE = 1e-10
#: gradient flow hands over to Newton below this residual
NEWTON_SWITCH = 1e-4
#: LOBPCG preconditioner shift (|k| + c)^-1, as a fraction of the bottom of
#: the far-field spectrum min W''(+-1)/m
PRECOND_SHIFT = 0.1
#: LOBPCG iterations allowed to `check_stability`
LOBPCG_MAXITER = 400


class SolverError(RuntimeError):
    """Raised on non-convergence; carries the residual history."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = list(history) if history is not None else []


class Potential:
    """Misfit potential W with wells at +-1.

    Evaluators w, dw, d2w are plain callables; construction checks the well
    conditions numerically: W(+-1) = 0, W'(+-1) = 0, W > 0 on (-1, 1),
    W''(+-1) > 0.
    """

    def __init__(self, kind: str, scale: float, w: Callable, dw: Callable,
                 d2w: Callable):
        self.kind = kind
        self.scale = float(scale)
        self.w, self.dw, self.d2w = w, dw, d2w
        self._check()

    def _check(self):
        ref = max(1.0, abs(self.scale))
        for s in (-1.0, 1.0):
            if abs(self.w(s)) > 1e-9 * ref:
                raise ValueError(f"W({s:+g}) = {self.w(s)!r} is not 0")
            if abs(self.dw(s)) > 1e-6 * ref:
                raise ValueError(f"W'({s:+g}) = {self.dw(s)!r} is not 0")
            if self.d2w(s) <= 0.0:
                raise ValueError(f"W''({s:+g}) = {self.d2w(s)!r} must be > 0")
        u = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, 401)
        if np.min(self.w(u)) <= 0.0:
            raise ValueError("W must be positive on (-1, 1)")

    def __call__(self, u):
        return self.w(u)

    @classmethod
    def cosine(cls, amplitude: float) -> "Potential":
        """W(u) = (a/pi^2)(1 + cos(pi u)): the periodic misfit potential.

        With a = m(e) the exact transition profile is (2/pi) arctan(x).
        """
        a = float(amplitude)
        return cls("periodic-cosine", a,
                   lambda u: (a / np.pi ** 2) * (1.0 + np.cos(np.pi * u)),
                   lambda u: -(a / np.pi) * np.sin(np.pi * u),
                   lambda u: -a * np.cos(np.pi * u))

    @classmethod
    def quartic(cls, scale: float = 1.0) -> "Potential":
        """Double well W(u) = (s/4)(1 - u^2)^2."""
        s = float(scale)
        return cls("quartic-double-well", s,
                   lambda u: 0.25 * s * (1.0 - u * u) ** 2,
                   lambda u: -s * u * (1.0 - u * u),
                   lambda u: s * (3.0 * u * u - 1.0))

    @classmethod
    def custom(cls, u_nodes, w_values) -> "Potential":
        """Tabulated potential, cubic-spline interpolated (nodes must span
        [-1, 1]; the well conditions, W'(+-1) = 0 included, are checked on
        the spline)."""
        from scipy.interpolate import CubicSpline
        u_nodes = np.asarray(u_nodes, dtype=float)
        spl = CubicSpline(u_nodes, np.asarray(w_values, dtype=float))
        return cls("custom-table", float(np.max(np.abs(w_values))),
                   spl, spl.derivative(1), spl.derivative(2))


@dataclass
class ProfileSolution:
    """Converged 1D profile and its diagnostic data."""

    X: float
    N: int
    x: np.ndarray
    psi: np.ndarray
    v: np.ndarray                  # deviation from the arctan background
    theta: float
    m_e: float
    case: str
    residual: float
    in_region: bool
    potential: Potential
    lambda_min: Optional[float] = None
    params: object = dfield(default=None, repr=False)
    #: run record: flow_steps, newton_steps, centering_passes from
    #: solve_profile; lobpcg_iterations, lobpcg_residual, lobpcg_converged
    #: from check_stability
    stats: dict = dfield(default_factory=dict, repr=False)

    def psi_prime(self) -> np.ndarray:
        """Spatial derivative (analytic background + spectral deviation)."""
        dv = _multiply(1j * _kgrid(self.N, self.X), self.v)
        return (2.0 / np.pi) / (1.0 + self.x ** 2) + dv


def _kgrid(n: int, X: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=2.0 * X / n)


def _multiply(symbol, v):
    """Apply a multiplier on the real-FFT grid to the columns of v."""
    return np.fft.irfft(symbol * np.fft.rfft(v, axis=0), v.shape[0], axis=0)


def _background(x):
    phi = (2.0 / np.pi) * np.arctan(x)
    half_lap_phi = (2.0 / np.pi) * x / (1.0 + x * x)
    return phi, half_lap_phi


def _residual(v, absk, half_lap_phi, phi, pot, m_e):
    psi = phi + v
    F = _multiply(absk, v) + half_lap_phi + pot.dw(psi) / m_e
    return F, float(np.linalg.norm(F) / math.sqrt(F.size))


def solve_profile(case: str, params, potential: Optional[Potential] = None,
                  theta: float = 0.0, X: float = 200.0, N: int = 4096,
                  method: str = "newton", tol_solve: float = TOL_SOLVE,
                  max_iter: int = 4000,
                  v0: Optional[np.ndarray] = None) -> ProfileSolution:
    """Solve the 1D profile equation in direction theta.

    If `potential` is omitted, the cosine potential with amplitude m(e) is
    used (its exact solution is the arctan background).  `method` is
    "gradient-flow" (semi-implicit flow all the way) or "newton" (flow to a
    rough residual, then damped Newton).  Raises SolverError on
    non-convergence with the residual history attached.
    """
    if not -0.5 * np.pi < theta < 0.5 * np.pi:
        raise ValueError(f"theta = {theta} outside (-pi/2, pi/2)")
    if method not in ("gradient-flow", "newton"):
        raise ValueError(f"unknown method {method!r}")
    c = regions.case(case)
    m_e = float(c.symbol(params, math.cos(theta), math.sin(theta)))
    if not m_e > 0.0:
        raise ValueError(f"m(e) = {m_e} is not positive; parameters outside "
                         "the admissible region")
    pot = potential if potential is not None else Potential.cosine(m_e)

    h = 2.0 * X / N
    # cell-centered samples: the point set is symmetric under x -> -x, so
    # odd potentials admit exactly centered discrete solutions
    x = -X + h * (np.arange(N) + 0.5)
    phi, half_lap_phi = _background(x)
    absk = _kgrid(N, X)

    d2w_max = float(np.max(np.abs(pot.d2w(np.linspace(-1, 1, 257)))))
    dt = 0.5 * m_e / d2w_max

    v = np.zeros(N) if v0 is None else np.array(v0, dtype=float)
    history = []
    stats = {"flow_steps": 0, "newton_steps": 0, "centering_passes": 0}

    def flow(target, budget):
        nonlocal v
        for _ in range(budget):
            F, res = _residual(v, absk, half_lap_phi, phi, pot, m_e)
            history.append(res)
            if res < target:
                return True
            # (1 + dt|k|) v+ = v - dt (F - |k| v), with F the residual at v
            v = v - dt * _multiply(1.0 / (1.0 + dt * absk), F)
            stats["flow_steps"] += 1
        _, res = _residual(v, absk, half_lap_phi, phi, pot, m_e)
        history.append(res)
        return res < target

    def newton(target, budget):
        nonlocal v
        for _ in range(budget):
            F, res = _residual(v, absk, half_lap_phi, phi, pot, m_e)
            history.append(res)
            if res < target:
                return True
            dpot = pot.d2w(phi + v) / m_e
            c = max(1e-3, float(np.mean(np.abs(dpot))))

            def matvec(d):
                return _multiply(absk, d) + dpot * d

            def pinv(r):
                return _multiply(1.0 / (absk + c), r)

            J = LinearOperator((N, N), matvec=matvec, dtype=float)
            M = LinearOperator((N, N), matvec=pinv, dtype=float)
            d, info = gmres(J, -F, M=M, rtol=1e-10, atol=0.0,
                            restart=60, maxiter=50)
            if info != 0:
                return False
            stats["newton_steps"] += 1
            t, best = 1.0, None
            while t >= 1.0 / 64.0:
                _, res_t = _residual(v + t * d, absk, half_lap_phi, phi,
                                     pot, m_e)
                if best is None or res_t < best[1]:
                    best = (t, res_t)
                if res_t < (1.0 - 1e-4 * t) * res:
                    v = v + t * d
                    break
                t *= 0.5
            else:
                if best[1] >= res:   # no damping length reduces the residual
                    return False
                v = v + best[0] * d
        _, res = _residual(v, absk, half_lap_phi, phi, pot, m_e)
        history.append(res)
        return res < target

    def center():
        # shift so that the linearly-interpolated zero crossing moves to 0;
        # iterated because the interpolated crossing is first-order accurate.
        # Centering also keeps Newton off the flat translation direction.
        nonlocal v
        stats["centering_passes"] += 1
        for _ in range(10):
            x0 = _zero_crossing(x, phi + v)
            if abs(x0) < 1e-13:
                break
            v = _multiply(np.exp(1j * absk * x0), v) \
                + ((2.0 / np.pi) * np.arctan(x + x0) - phi)

    flow(NEWTON_SWITCH if method == "newton" else tol_solve, max_iter)
    ok = False
    for _ in range(4):
        center()
        if method == "newton":
            ok = newton(tol_solve, 40)
        else:
            ok = flow(tol_solve, max_iter)
        if ok and abs(_zero_crossing(x, phi + v)) < 1e-9:
            break
        ok = False
    if not ok:
        raise SolverError(
            f"no convergence to {tol_solve:g} (last residual "
            f"{history[-1]:.3e})", history)

    psi = phi + v
    _, res = _residual(v, absk, half_lap_phi, phi, pot, m_e)
    return ProfileSolution(X=X, N=N, x=x, psi=psi, v=v, theta=theta,
                           m_e=m_e, case=case, residual=res,
                           in_region=c.member(params),
                           potential=pot, params=params, stats=stats)


def _zero_crossing(x, psi):
    """Zero of psi nearest the box center, by linear interpolation."""
    s = np.sign(psi)
    idx = np.nonzero((s[:-1] <= 0) & (s[1:] > 0))[0]
    if idx.size == 0:
        raise SolverError("profile has no ascending zero crossing")
    i = idx[np.argmin(np.abs(x[idx]))]
    x0, x1 = x[i], x[i + 1]
    f0, f1 = psi[i], psi[i + 1]
    return x0 - f0 * (x1 - x0) / (f1 - f0) if f1 != f0 else x0


def check_stability(sol: ProfileSolution, n_eig: int = 6) -> np.ndarray:
    """Smallest eigenvalues of the linearized operator at the profile.

    The quadratic form is v -> <(-Delta)^(1/2) v + (W''(psi)/m) v, v> on the
    periodic grid.  Eigenvalues come from LOBPCG seeded with the translation
    mode psi' (exactly the kernel direction in the continuum) plus random
    vectors.  Far from the core W''(psi)/m tends to sigma = min W''(+-1)/m,
    the edge of the continuous spectrum, where the next eigenvalues cluster.
    The preconditioner (|k| + c)^-1, c = PRECOND_SHIFT * sigma (> 0 for every
    Potential), acts as a shift-invert just below that edge.  Returns the
    sorted eigenvalues; stores lambda_min on the solution and the LOBPCG
    iterations, final largest residual norm and convergence in its stats.
    """
    N, X = sol.N, sol.X
    absk = _kgrid(N, X)[:, None]
    pot = sol.potential
    dpot = (pot.d2w(sol.psi) / sol.m_e)[:, None]
    shift = PRECOND_SHIFT * min(pot.d2w(-1.0), pot.d2w(1.0)) / sol.m_e
    calls = 0

    def matvec(d):
        d = d.reshape(N, -1)
        return _multiply(absk, d) + dpot * d

    def pinv(d):
        nonlocal calls
        calls += 1            # LOBPCG preconditions once per iteration
        return _multiply(1.0 / (absk + shift), d.reshape(N, -1))

    A = LinearOperator((N, N), matvec=matvec, matmat=matvec, dtype=float)
    M = LinearOperator((N, N), matvec=pinv, matmat=pinv, dtype=float)
    rng = np.random.default_rng(0)
    X0 = np.empty((N, n_eig))
    tr = sol.psi_prime()
    X0[:, 0] = tr / np.linalg.norm(tr)
    X0[:, 1:] = rng.standard_normal((N, n_eig - 1))
    X0, _ = np.linalg.qr(X0)
    tol = 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        # LOBPCG's own stopping test can pass just above tol by the residual
        # recomputed below; aim below it
        vals, vecs = lobpcg(A, X0, M=M, largest=False, tol=0.5 * tol,
                            maxiter=LOBPCG_MAXITER)
    res = float(np.max(np.linalg.norm(matvec(vecs) - vecs * vals, axis=0)))
    vals = np.sort(vals)
    sol.lambda_min = float(vals[0])
    sol.stats.update(lobpcg_iterations=calls, lobpcg_residual=res,
                     lobpcg_converged=res <= tol)
    return vals


def rayleigh_translation(sol: ProfileSolution) -> float:
    """Rayleigh quotient of the translation mode psi' (0 for exact
    solutions by translation invariance)."""
    tr = sol.psi_prime()
    dpot = sol.potential.d2w(sol.psi) / sol.m_e
    Lt = _multiply(_kgrid(sol.N, sol.X), tr) + dpot * tr
    return float(np.dot(tr, Lt) / np.dot(tr, tr))


def reconstruct_2d(sol: ProfileSolution, n1: int = 256, n2: int = 256):
    """Sample u(x) = psi(e.x) on the periodic cell [-X, X)^2 and measure the
    2D residual.

    The background part phi(e.x) is handled analytically (the operator acts
    on 1-homogeneous directions as m(e) times the 1D half-Laplacian); the
    deviation goes through the case's Fourier multiplier.  Returns
    (GridField2D, residual_rms) with the residual normalized by m(e) to match
    the 1D convention.
    """
    L = 2.0 * sol.X
    e1, e2 = math.cos(sol.theta), math.sin(sol.theta)
    x1, x2 = cell_axes(L, L, n1, n2)
    s = e1 * x1[:, None] + e2 * x2[None, :]
    s_wrap = (s + sol.X) % (2.0 * sol.X) - sol.X

    v2d = np.interp(s_wrap, sol.x, sol.v, period=2.0 * sol.X)
    phi, hphi = _background(s_wrap)
    u = phi + v2d
    fld = GridField2D(L, L, u)

    symbol = regions.case(sol.case).symbol
    Lv = apply_multiplier(lambda k1, k2: symbol(sol.params, k1, k2),
                          GridField2D(L, L, v2d)).values
    resid = (Lv + sol.m_e * hphi + sol.potential.dw(u)) / sol.m_e
    return fld, float(np.linalg.norm(resid) / math.sqrt(resid.size))
