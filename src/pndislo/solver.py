"""1D transition-profile solver for the reduced slip-plane equation.

The scalar equation on the line is

    (-Delta)^(1/2) psi(x) = -W'(psi(x)) / m(e),

where m(e) is the reduced symbol evaluated at the unit direction
e = (cos theta, sin theta).  The solver substitutes psi = phi + v with the
fixed background phi(x) = (2/pi) arctan(x), whose half-Laplacian is known in
closed form, (2/pi) x / (1 + x^2); the deviation v decays and is treated
periodically on [-X, X) with real FFTs.  Semi-implicit spectral gradient flow
globalizes (at most FLOW_MAXITER steps), damped Newton (MINRES with a
circulant preconditioner) finishes to TOL_SOLVE; both are read at call time.

The flow step treats |k| implicitly and W'(psi)/m explicitly, so only the
latter limits it: with L = max|W''|/m on [-1, 1] it is stable for dt <= 2/L,
and dt = 0.5/L keeps a 4x margin without shrinking as N grows.

`check_stability` computes the smallest eigenvalues of the linearization
v -> (-Delta)^(1/2) v + (W''(psi)/m) v, whose bottom eigenvalue is the
translation zero mode; `reconstruct_2d` samples u(x) = psi(e.x) on a periodic
cell and re-evaluates the full 2D residual through the Fourier multiplier.
Both linear solvers, MINRES and LOBPCG, are written here on numpy alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

import numpy as np

from . import regions
from .nonlocal_ops import GridField2D, apply_multiplier, cell_axes

TOL_SOLVE = 1e-10
#: steps allowed to the gradient-flow run
FLOW_MAXITER = 4000
#: gradient flow hands over to Newton below this residual
NEWTON_SWITCH = 1e-4
#: floor of the LOBPCG preconditioner shift, as a fraction of the bottom of
#: the far-field spectrum min W''(+-1)/m
PRECOND_SHIFT = 0.02
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
    conditions numerically: a finite scale, W(+-1) = 0, W'(+-1) = 0, W > 0
    on (-1, 1), W''(+-1) > 0.
    """

    def __init__(self, kind: str, scale: float, w: Callable, dw: Callable,
                 d2w: Callable):
        self.kind = kind
        self.scale = float(scale)
        self.w, self.dw, self.d2w = w, dw, d2w
        self._check()

    def _check(self):
        # every test is written so that NaN fails it
        if not math.isfinite(self.scale):
            raise ValueError(f"scale = {self.scale!r} is not finite")
        ref = max(1.0, abs(self.scale))
        for s in (-1.0, 1.0):
            w, dw, d2w = (float(f(s)) for f in (self.w, self.dw, self.d2w))
            if not abs(w) <= 1e-9 * ref:
                raise ValueError(f"W({s:+g}) = {w!r} is not 0")
            if not abs(dw) <= 1e-6 * ref:
                raise ValueError(f"W'({s:+g}) = {dw!r} is not 0")
            if not d2w > 0.0:
                raise ValueError(f"W''({s:+g}) = {d2w!r} must be > 0")
        u = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, 401)
        if not np.min(self.w(u)) > 0.0:
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
        """Tabulated potential, cubic-spline interpolated; the nodes span
        [-1, 1].  W'(+-1) = 0 is checked on the data (the parabola through
        the 3 nodes nearest a well is convex, its minimum within half their
        span of the well); the spline is clamped, W' = 0, at a table end
        that is a well, so coarse tables of a valid W pass.  The table need
        not be even, but `solve_profile` converges only for an even W: a
        W(-u) != W(u) ends in SolverError (see there)."""
        from scipy.interpolate import CubicSpline
        u = np.asarray(u_nodes, dtype=float)
        w = np.asarray(w_values, dtype=float)
        for s in (-1.0, 1.0):
            near = np.argsort(np.abs(u - s))[:3]
            c2, c1, _ = np.polyfit(u[near] - s, w[near], 2)
            if not abs(c1) <= c2 * np.ptp(u[near]):
                raise ValueError(f"table slope W'({s:+g}) ~ {c1:.3e} is not 0 "
                                 "at its node spacing")
        bc = tuple((1, 0.0) if abs(end) == 1.0 else "not-a-knot"
                   for end in (u[0], u[-1]))
        spl = CubicSpline(u, w, bc_type=bc)
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
    #: run record: flow_steps, newton_steps, newton_inner_iterations (MINRES
    #: iterations per Newton step), newton_damping (accepted length t per
    #: Newton step, 0 if none lowered the residual), far_field_gap =
    #: max(|psi(-X) + 1|, |psi(X) - 1|) over the end samples and stage_s
    #: (seconds in the flow run and in the Newton run) from solve_profile;
    #: lobpcg_iterations, lobpcg_residual, lobpcg_converged and lobpcg_s
    #: from check_stability
    stats: dict = dfield(default_factory=dict, repr=False)

    def psi_prime(self) -> np.ndarray:
        """Spatial derivative (analytic background + spectral deviation)."""
        dv = _multiply(1j * _kgrid(self.N, self.X), self.v)
        return (2.0 / np.pi) / (1.0 + self.x ** 2) + dv


def _kgrid(n: int, X: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=2.0 * X / n)


def _multiply(symbol, v):
    """Apply a multiplier on the real-FFT grid along the last axis of v."""
    return np.fft.irfft(symbol * np.fft.rfft(v), v.shape[-1])


def _background(x):
    phi = (2.0 / np.pi) * np.arctan(x)
    half_lap_phi = (2.0 / np.pi) * x / (1.0 + x * x)
    return phi, half_lap_phi


def _linearized(absk, dpot, d):
    """(-Delta)^(1/2) d + (W''(psi)/m) d on the rows of d, with dpot the
    sampled W''(psi)/m."""
    return _multiply(absk, d) + dpot * d


def _minres(A, b, M, rtol, maxiter):
    """Preconditioned MINRES (Paige & Saunders 1975) for A x = b, with A
    symmetric, possibly indefinite, and M symmetric positive definite, both
    callables.  Stops when the M-norm of the residual is at most rtol times
    that of b.  Returns (x, info, iterations), info 0 on convergence and 1
    when maxiter iterations did not get there."""
    x = np.zeros_like(b)
    r1 = r2 = b
    y = M(b)
    beta1 = beta = math.sqrt(float(b @ y))
    if beta1 == 0.0:
        return x, 0, 0
    oldb = dbar = epsln = sn = 0.0
    cs, phibar = -1.0, beta1
    w = w2 = np.zeros_like(b)
    for it in range(1, maxiter + 1):
        # Lanczos step on the M-inner product
        v = y / beta
        y = A(v)
        if it > 1:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = M(r2)
        oldb, beta = beta, math.sqrt(float(r2 @ y))
        # Givens rotation of the tridiagonal into the QR factor
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= rtol * beta1:
            return x, 0, it
    return x, 1, maxiter


def _cholqr(V):
    """L^-1 of the Cholesky-QR V = L (L^-1 V), L L^T = V V^T, so that the
    rows of L^-1 V are orthonormal; LinAlgError if the Cholesky
    factorisation fails."""
    return np.linalg.inv(np.linalg.cholesky(V @ V.T))


def _lobpcg(A, T, X, tol, maxiter):
    """Smallest eigenpairs of a symmetric operator by LOBPCG (Knyazev 2001)
    from the orthonormal rows of X.

    Every block is a C-contiguous stack of rows.  A(V) applies the operator
    to the rows of V, T(R, theta) the preconditioner for Ritz values theta
    to the residual rows R.  Soft locking: a row whose residual norm is at
    most tol gets neither a preconditioned residual W nor a direction P,
    but stays in the Rayleigh-Ritz basis S = [X; P; W].  P is projected out
    of X, W out of X and P, and each is orthonormalised by Cholesky-QR, W
    before A is applied to it, so that AW is exact and S orthonormal up to
    rounding.  Returns (Ritz values ascending, Ritz vectors, iterations)."""
    n = X.shape[0]
    AX = A(X)
    theta, C = np.linalg.eigh(X @ AX.T)
    X, AX, P, AP = C.T @ X, C.T @ AX, None, None
    for it in range(maxiter):
        R = AX - theta[:, None] * X
        act = np.einsum("ij,ij->i", R, R) > tol * tol
        if not act.any():
            return theta, X, it
        W = T(R[act], theta[act])
        W -= (W @ X.T) @ X
        # with P first; a Cholesky factor that fails restarts without it
        for with_p in (True, False) if P is not None else (False,):
            try:
                S, AS, V = [X], [AX], W
                if with_p:
                    Pa, APa = P[act], AP[act]
                    Y = Pa @ X.T
                    Pa -= Y @ X
                    APa -= Y @ AX
                    Ri = _cholqr(Pa)
                    S.append(Ri @ Pa)
                    AS.append(Ri @ APa)
                    V = W - (W @ S[1].T) @ S[1]
                V = _cholqr(V) @ V
                S, AS = np.vstack(S + [V]), np.vstack(AS + [A(V)])
                Li = np.linalg.inv(np.linalg.cholesky(S @ S.T))
            except np.linalg.LinAlgError:
                continue
            break
        else:
            return theta, X, it
        # Rayleigh-Ritz on span S through its Gram matrix L L^T
        H = S @ AS.T
        vals, V = np.linalg.eigh(Li @ (0.5 * (H + H.T)) @ Li.T)
        C = V[:, :n].T @ Li
        theta = vals[:n]
        X, AX = C @ S, C @ AS
        P, AP = C[:, n:] @ S[n:], C[:, n:] @ AS[n:]
    return theta, X, maxiter


def solve_profile(case: str, params, potential: Optional[Potential] = None,
                  theta: float = 0.0, X: float = 200.0, N: int = 4096,
                  method: str = "newton") -> ProfileSolution:
    """Solve the 1D profile equation in direction theta.

    If `potential` is omitted, the cosine potential with amplitude m(e) is
    used (its exact solution is the arctan background).  `method` is
    "gradient-flow" (one flow run of at most FLOW_MAXITER steps to
    TOL_SOLVE) or "newton" (one flow run to NEWTON_SWITCH, then one damped
    Newton run of at most 40 steps).  The translation is fixed by symmetry
    alone: for an even W, the grid, the odd background and the start v = 0
    make the solution odd, centred at x = 0.  A W that is not even breaks
    that symmetry; its solves have stalled above TOL_SOLVE, at floors that
    fall as X grows (likely the periodic truncation; non-existence is not
    shown), and they end in SolverError.  Raises ValueError unless X > 0 is
    finite and N >= 4, and SolverError with the residual history attached
    if the last run misses TOL_SOLVE.
    """
    if not -0.5 * np.pi < theta < 0.5 * np.pi:
        raise ValueError(f"theta = {theta} outside (-pi/2, pi/2)")
    if not (math.isfinite(X) and X > 0.0):
        raise ValueError(f"X = {X} is not a finite positive half-width")
    if not N >= 4:
        raise ValueError(f"N = {N} grid points; at least 4 are needed")
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
    # with W' odd every step keeps v odd and the solution exactly centred
    x = -X + h * (np.arange(N) + 0.5)
    phi, half_lap_phi = _background(x)
    absk = _kgrid(N, X)

    d2w_max = float(np.max(np.abs(pot.d2w(np.linspace(-1, 1, 257)))))
    dt = 0.5 * m_e / d2w_max

    v = np.zeros(N)
    history = []
    stats = {"flow_steps": 0, "newton_steps": 0,
             "newton_inner_iterations": [], "newton_damping": [],
             "stage_s": dict.fromkeys(("flow", "newton"), 0.0)}

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        stats["stage_s"][stage] += time.perf_counter() - t0
        return out

    def residual(v):
        F = _multiply(absk, v) + half_lap_phi + pot.dw(phi + v) / m_e
        return F, float(np.linalg.norm(F) / math.sqrt(N))

    def iterate(step, target, budget):
        # step(F, res) returns the next v, or None if it cannot reduce res
        nonlocal v
        for _ in range(budget):
            F, res = residual(v)
            history.append(res)
            if res < target:
                return True
            v_next = step(F, res)
            if v_next is None:
                return False
            v = v_next
        history.append(residual(v)[1])
        return history[-1] < target

    def flow_step(F, res):
        # (1 + dt|k|) v+ = v - dt (F - |k| v), with F the residual at v
        stats["flow_steps"] += 1
        return v - dt * _multiply(1.0 / (1.0 + dt * absk), F)

    def newton_step(F, res):
        dpot = pot.d2w(phi + v) / m_e
        shift = max(1e-3, float(np.mean(np.abs(dpot))))
        minv = 1.0 / (absk + shift)
        d, info, its = _minres(lambda d: _linearized(absk, dpot, d), -F,
                               lambda r: _multiply(minv, r),
                               rtol=1e-10, maxiter=N)
        if info != 0:
            return None
        stats["newton_steps"] += 1
        stats["newton_inner_iterations"].append(its)
        trials = []
        for t in (2.0 ** -i for i in range(7)):     # t = 1 ... 1/64
            res_t = residual(v + t * d)[1]
            if res_t < (1.0 - 1e-4 * t) * res:
                break
            trials.append((t, res_t))
        else:
            # no length decreases enough: take the best one if it decreases
            # at all
            t, res_t = min(trials, key=lambda tr: tr[1])
            t = t if res_t < res else 0.0
        stats["newton_damping"].append(t)
        return v + t * d if t else None

    converged = timed("flow", iterate, flow_step,
                      NEWTON_SWITCH if method == "newton" else TOL_SOLVE,
                      FLOW_MAXITER)
    if method == "newton":
        converged = timed("newton", iterate, newton_step, TOL_SOLVE, 40)
    if not converged:
        raise SolverError(f"no convergence to {TOL_SOLVE:g} (last residual "
                          f"{history[-1]:.3e})", history)

    psi = phi + v
    stats["far_field_gap"] = float(max(abs(psi[0] + 1.0), abs(psi[-1] - 1.0)))
    # iterate appended the residual at the final v
    return ProfileSolution(X=X, N=N, x=x, psi=psi, v=v, theta=theta,
                           m_e=m_e, case=case, residual=history[-1],
                           in_region=c.member(params),
                           potential=pot, params=params, stats=stats)


def check_stability(sol: ProfileSolution, n_eig: int = 6) -> np.ndarray:
    """Smallest eigenvalues of the linearized operator at the profile.

    The quadratic form is v -> <(-Delta)^(1/2) v + (W''(psi)/m) v, v> on the
    periodic grid.  Eigenvalues come from LOBPCG seeded with the translation
    mode psi' (exactly the kernel direction in the continuum) plus random
    vectors.  Far from the core W''(psi)/m tends to sigma = min W''(+-1)/m,
    the edge of the continuous spectrum, where the next eigenvalues cluster.
    The preconditioner of a column with Ritz value theta is the far-field
    inverse of the shifted operator, (|k| + sigma - theta)^-1, with the shift
    floored at PRECOND_SHIFT * sigma (> 0 for every Potential).  Returns the
    sorted eigenvalues; stores lambda_min on the solution and the LOBPCG
    iterations, final largest residual norm, convergence and wall time in
    its stats.
    Raises ValueError unless 1 <= n_eig <= N/4: the residuals are orthogonal
    to the 3 n_eig rows of the LOBPCG basis [X; P; W], and W needs n_eig
    independent ones among the remaining N - 3 n_eig dimensions.
    """
    N, X = sol.N, sol.X
    if not 1 <= n_eig <= N // 4:
        raise ValueError(f"n_eig = {n_eig} outside [1, N/4] for N = {N}")
    absk = _kgrid(N, X)
    pot = sol.potential
    dpot = pot.d2w(sol.psi) / sol.m_e
    sigma = float(min(pot.d2w(-1.0), pot.d2w(1.0))) / sol.m_e

    def matvec(d):
        return _linearized(absk, dpot, d)

    def precond(r, theta):
        shift = np.maximum(sigma - theta, PRECOND_SHIFT * sigma)
        return _multiply(1.0 / (absk + shift[:, None]), r)

    rng = np.random.default_rng(0)
    X0 = np.empty((N, n_eig))
    tr = sol.psi_prime()
    X0[:, 0] = tr / np.linalg.norm(tr)
    X0[:, 1:] = rng.standard_normal((N, n_eig - 1))
    X0 = np.ascontiguousarray(np.linalg.qr(X0)[0].T)
    tol = 1e-9
    # the recurrence's residuals can differ from the one recomputed below
    # in the last digits; aim below tol
    t0 = time.perf_counter()
    vals, vecs, its = _lobpcg(matvec, precond, X0, 0.5 * tol, LOBPCG_MAXITER)
    lobpcg_s = time.perf_counter() - t0
    res = float(np.max(np.linalg.norm(matvec(vecs) - vals[:, None] * vecs,
                                      axis=1)))
    sol.lambda_min = float(vals[0])
    sol.stats.update(lobpcg_iterations=its, lobpcg_residual=res,
                     lobpcg_converged=res <= tol, lobpcg_s=lobpcg_s)
    return vals


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
