"""Closed-form -3-homogeneous kernels of the reduced nonlocal operators.

Each kernel is a rational-power function

    K(x) = prefactor * N(x1, x3) / ((x1^2 + w x3^2)^(s/2) * Q(x1, x3)^3)

with an even polynomial numerator N, a radial-type factor of weight w, and
(for the perpendicular cases) a positive quartic Q = x1^4 + b x1^2 x3^2 +
c x3^4.  The case-I composite kernel is a weighted pair (K1, K2) because the
two radial factors differ.

The defining second/fourth-order PDEs are verified numerically by high-order
finite differences in extended precision (no computer-algebra layer).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .moduli import DerivedParallel, DerivedPerp

_L = np.longdouble


@dataclass(frozen=True)
class KernelTerm:
    """One rational-power term: prefactor * N / ((x1^2+w x3^2)^(rp) * Q^qp)."""

    prefactor: float
    num_coeffs: tuple            # even-degree coefficients, descending in x1
    radial_weight: float         # w in (x1^2 + w x3^2)
    radial_power: float          # exponent of the radial factor (halves)
    quartic: tuple | None        # (b, c) of x1^4 + b x1^2 x3^2 + c x3^4
    quartic_power: int

    def __call__(self, x1, x3):
        x1 = np.asarray(x1)
        x3 = np.asarray(x3)
        n = len(self.num_coeffs)
        num = np.zeros(np.broadcast(x1, x3).shape, dtype=np.result_type(x1, x3, float))
        x1sq, x3sq = x1 * x1, x3 * x3
        for i, a in enumerate(self.num_coeffs):
            num = num + a * x1sq ** (n - 1 - i) * x3sq ** i
        den = (x1sq + self.radial_weight * x3sq) ** self.radial_power
        if self.quartic is not None:
            b, c = self.quartic
            den = den * (x1sq * x1sq + b * x1sq * x3sq + c * x3sq * x3sq) \
                ** self.quartic_power
        return self.prefactor * num / den


@dataclass(frozen=True)
class KernelForm:
    """A kernel as a sum of KernelTerms; even and -3-homogeneous."""

    case: str                    # "I", "II", "III", "iso"
    terms: tuple

    def __call__(self, x1, x3):
        x1 = np.asarray(x1, dtype=float)
        x3 = np.asarray(x3, dtype=float)
        if np.any((x1 == 0.0) & (x3 == 0.0)):
            raise ValueError("kernel evaluation at the origin is excluded")
        out = self.terms[0](x1, x3)
        for t in self.terms[1:]:
            out = out + t(x1, x3)
        return out


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _k1_coeffs(p, de, b, c):
    A = (-2 * b + de + 2 * p + 2) / de
    B = 3 * (2 * b ** 2 - 2 * b * (de + p + 1) - 4 * c + 3 * de + 3 * de * p
             + 4 * p) / de
    C = (9 * b ** 2 * de + 6 * c * (3 * b - 5 * de - 4 * p - 4)
         - 6 * b * (de ** 2 + de + de * p - p)
         + 3 * de * (2 * de + 2 * de * p + 11 * p)) / de
    D = (b ** 2 * (de * (2 * de + 1) + (de + 2) * p)
         - 2 * b * (c * (-13 * de + p + 1) + de * (de + (de - 13) * p))) / de \
        + (20 * c ** 2 - 2 * c * (de * (10 * de + 23) + (23 * de + 10) * p)
           + 20 * de ** 2 * p) / de
    E = (-6 * c * (b * (-de ** 2 + de + de * p + p)
                   + de * (4 * de + 4 * de * p + 5 * p))
         + 9 * b * de * p * (b + 2 * de)
         + c ** 2 * (33 * de + 6 * p + 6)) / de
    F = 6 * b ** 2 * de * p - 6 * c * (b * (de + de * p + p) + 2 * de * p) \
        + 3 * c ** 2 * (4 * de + 3 * p + 3)
    G = c * (c * (2 * de + 2 * de * p + p) - 2 * b * de * p)
    return (A, B, C, D, E, F, G)


def _k2_coeffs(p, de, b, c):
    return (2.0,
            -6 * b + 12 * p + 9,
            6 * b * (p - 1) - 24 * c + 33 * p + 6,
            b ** 2 - 2 * b * (c + 1) + 2 * (b + 13) * b * p - 20 * c * p
            - 46 * c + 20 * p,
            -6 * c * ((b + 5) * p + b + 4) + 9 * b * (b + 2) * p + 6 * c ** 2,
            6 * b ** 2 * p - 6 * b * c * (p + 1) + 3 * c * (3 * c - 4 * p),
            c * (c * (p + 2) - 2 * b * p))


def _case2_coeffs(p, q):
    return (2 * p * q ** 2 - 2 * p * q + q ** 2,
            -6 * p ** 2 * q + 6 * p ** 2 + 9 * p * q ** 2 - 6 * p * q,
            -6 * p ** 2 * q + 9 * p ** 2 + 6 * p * q ** 2 - 6 * p * q,
            p ** 3 - 2 * p ** 2 * q + 2 * p ** 2)


def _case3_coeffs(e1, e2):
    return (3 * e1 ** 2 - 2 * e1 * e2,
            2 * (3 * e1 ** 2 - 5 * e1 * e2 + 3 * e2 ** 2),
            3 * e2 ** 2 - 2 * e1 * e2)


def _iso_coeffs(q):
    return (3 - 2 * q, 2 * (3 * q ** 2 - 5 * q + 3), q * (3 * q - 2))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def kernel_case1_parts(dp: DerivedPerp) -> tuple[KernelForm, KernelForm]:
    """The unweighted pair (K1, K2) of the case-I composite kernel."""
    p, de, b, c = dp.p, dp.delta, dp.b, dp.c
    k1 = KernelTerm(1.0, _k1_coeffs(p, de, b, c), de, 1.5, (b, c), 3)
    k2 = KernelTerm(1.0, _k2_coeffs(p, de, b, c), 1.0, 1.5, (b, c), 3)
    return KernelForm("I", (k1,)), KernelForm("I", (k2,))


def kernel_case1(dp: DerivedPerp) -> KernelForm:
    """Composite case-I kernel K = 2 mu delta (sqrt(delta) K1 + nu K2)."""
    k1, k2 = (kf.terms[0] for kf in kernel_case1_parts(dp))
    de = dp.delta
    return KernelForm("I", (
        replace(k1, prefactor=2.0 * dp.mu * de * np.sqrt(de)),
        replace(k2, prefactor=2.0 * dp.mu * de * dp.nu),
    ))


def kernel_case2(dp: DerivedPerp) -> KernelForm:
    """Case-II kernel 2 mu (A z1^6 + ... + D z3^6)/(|z|^3 (q z1^2 + p z3^2)^3).

    Evaluated by `_RationalCubicTerm` with (a, b) = (q, p), which keeps the
    |z|^3 factor and the cubic factor (q z1^2 + p z3^2)^3 apart.
    """
    return KernelForm("II", (
        _RationalCubicTerm(2.0 * dp.mu, _case2_coeffs(dp.p, dp.q), dp.q, dp.p),
    ))


@dataclass(frozen=True)
class _RationalCubicTerm:
    """prefactor * N(z) / (|z|^3 (a z1^2 + b z3^2)^3) with sextic even N."""

    prefactor: float
    num_coeffs: tuple
    a: float
    b: float

    def __call__(self, x1, x3):
        x1 = np.asarray(x1)
        x3 = np.asarray(x3)
        x1sq, x3sq = x1 * x1, x3 * x3
        A, B, C, D = self.num_coeffs
        num = A * x1sq ** 3 + B * x1sq ** 2 * x3sq + C * x1sq * x3sq ** 2 \
            + D * x3sq ** 3
        den = (x1sq + x3sq) ** 1.5 * (self.a * x1sq + self.b * x3sq) ** 3
        return self.prefactor * num / den


@dataclass(frozen=True)
class _QuarticOverHalfTerm:
    """prefactor * N(z) / (|z| (a z1^2 + b z2^2)^3) with quartic even N."""

    prefactor: float
    num_coeffs: tuple
    a: float
    b: float

    def __call__(self, x1, x2):
        x1 = np.asarray(x1)
        x2 = np.asarray(x2)
        x1sq, x2sq = x1 * x1, x2 * x2
        A, B, C = self.num_coeffs
        num = A * x1sq ** 2 + B * x1sq * x2sq + C * x2sq ** 2
        den = (x1sq + x2sq) ** 0.5 * (self.a * x1sq + self.b * x2sq) ** 3
        return self.prefactor * num / den


def kernel_case3(dpar: DerivedParallel) -> KernelForm:
    """Case-III kernel eta1 eta2 (A z1^4 + B z1^2 z2^2 + C z2^4) /
    (|z| (eta1 z1^2 + eta2 z2^2)^3)."""
    e1, e2 = dpar.eta1, dpar.eta2
    return KernelForm("III", (
        _QuarticOverHalfTerm(e1 * e2, _case3_coeffs(e1, e2), e1, e2),
    ))


def kernel_isotropic(mu: float, q: float) -> KernelForm:
    """Fully isotropic kernel 2 mu (A z1^4 + B z1^2 z3^2 + C z3^4) /
    (|z| (z1^2 + q z3^2)^3), q = 1 - nu."""
    return KernelForm("iso", (
        _QuarticOverHalfTerm(2.0 * mu, _iso_coeffs(q), 1.0, q),
    ))


def build_kernel(case: str, params) -> KernelForm:
    """Dispatch on case id: "I", "II", "III", or "iso" (params = (mu, q))."""
    if case == "I":
        return kernel_case1(params)
    if case == "II":
        return kernel_case2(params)
    if case == "III":
        return kernel_case3(params)
    if case == "iso":
        mu, q = params
        return kernel_isotropic(mu, q)
    raise ValueError(f"unknown kernel case {case!r}")


# ---------------------------------------------------------------------------
# finite-difference PDE verification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fd_weights(m: int, half_width: int) -> tuple:
    """Exact finite-difference weights (Fornberg recursion over rationals)
    for the m-th derivative at 0 on offsets -half_width..half_width."""
    offsets = list(range(-half_width, half_width + 1))
    n = len(offsets)
    d = [[[Fraction(0)] * (m + 1) for _ in range(n)] for _ in range(n)]
    d[0][0][0] = Fraction(1)
    c1 = Fraction(1)
    x = [Fraction(o) for o in offsets]
    for i in range(1, n):
        c2 = Fraction(1)
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            for k in range(min(i, m) + 1):
                d[i][j][k] = (x[i] * d[i - 1][j][k]
                              - (k * d[i - 1][j][k - 1] if k else 0)) / c3
        for k in range(min(i, m) + 1):
            d[i][i][k] = c1 / c2 * ((k * d[i - 1][i - 1][k - 1] if k else 0)
                                    - x[i - 1] * d[i - 1][i - 1][k])
        c1 = c2
    return tuple(offsets), tuple(float(d[n - 1][j][m]) for j in range(n))


def _fd_axis(f, x1, x3, m, h, axis, order=8):
    """m-th derivative along one axis, FD of the given order, longdouble."""
    half = (m + order) // 2
    off, w = _fd_weights(m, half)
    acc = np.zeros_like(np.asarray(f(x1, x3)), dtype=_L)
    for o, wi in zip(off, w):
        if axis == 0:
            acc = acc + _L(wi) * f(x1 + o * h, x3)
        else:
            acc = acc + _L(wi) * f(x1, x3 + o * h)
    return acc / h ** m


def _fd_mixed22(f, x1, x3, h, order=8):
    half = (2 + order) // 2
    off, w = _fd_weights(2, half)
    acc = np.zeros_like(np.asarray(f(x1, x3)), dtype=_L)
    for oi, wi in zip(off, w):
        for oj, wj in zip(off, w):
            acc = acc + _L(wi) * _L(wj) * f(x1 + oi * h, x3 + oj * h)
    return acc / h ** 4


def _rhs_case1_K1(dp, x1, x3):
    p, de = _L(dp.p), _L(dp.delta)
    d1 = 8 * p - 2 * de * (1 + p) + de ** 2
    d2 = de * (-12 * p + 17 * (1 + p) * de - 12 * de ** 2)
    d3 = de ** 2 * (p - 2 * de * (1 + p) + 8 * de ** 2)
    return 45 * (d1 * x1 ** 4 + d2 * x1 ** 2 * x3 ** 2 + d3 * x3 ** 4) \
        / (x1 ** 2 + de * x3 ** 2) ** _L(5.5)


def _rhs_case1_K2(dp, x1, x3):
    p = _L(dp.p)
    return 45 * ((8 * p - 2) * x1 ** 4 + (17 - 12 * p) * x1 ** 2 * x3 ** 2
                 + (p - 2) * x3 ** 4) / (x1 ** 2 + x3 ** 2) ** _L(5.5)


def _d2_inv_r3(x1, x3, i):
    """Analytic second derivative of |z|^-3 along axis i:
    3 (5 z_i^2 - |z|^2) / |z|^7."""
    r2 = x1 ** 2 + x3 ** 2
    zi2 = x1 ** 2 if i == 0 else x3 ** 2
    return 3 * (5 * zi2 - r2) / r2 ** _L(3.5)


def pde_residual(case: str, params, x1, x3, h_rel: float = 1e-2,
                 order: int = 8) -> float:
    """Relative residual of the defining kernel PDE at a point.

    case "I_K1": (c d1^4 + b d1^2 d3^2 + d3^4) K1 = G1
    case "I_K2": same operator on K2 = G2
    case "II":   (p d1^2 + q d3^2) K = 2 mu (p d1^2 + d3^2) |z|^-3
    case "III":  (eta2 d1^2 + eta1 d2^2) K = eta1 eta2 (d1^2 + d2^2) |z|^-3

    Left side by order-8 central finite differences in extended precision with
    h = h_rel * |x|; right side analytic.  Returns |L K - G|/(|G| + 1).
    """
    r = float(np.hypot(x1, x3))
    if r < 1e-6:
        raise ValueError("evaluation point too close to the singularity")
    h = _L(h_rel) * _L(r)
    x1 = _L(x1)
    x3 = _L(x3)

    if case in ("I_K1", "I_K2"):
        dp: DerivedPerp = params
        p, de, b, c = _L(dp.p), _L(dp.delta), _L(dp.b), _L(dp.c)
        which = 0 if case == "I_K1" else 1
        f = kernel_case1_parts(dp)[which].terms[0]
        lhs = c * _fd_axis(f, x1, x3, 4, h, 0, order) \
            + b * _fd_mixed22(f, x1, x3, h, order) \
            + _fd_axis(f, x1, x3, 4, h, 1, order)
        rhs = (_rhs_case1_K1 if which == 0 else _rhs_case1_K2)(dp, x1, x3)
    elif case == "II":
        dp = params
        p, q = _L(dp.p), _L(dp.q)
        f = kernel_case2(dp).terms[0]
        lhs = p * _fd_axis(f, x1, x3, 2, h, 0, order) \
            + q * _fd_axis(f, x1, x3, 2, h, 1, order)
        rhs = 2 * _L(dp.mu) * (p * _d2_inv_r3(x1, x3, 0)
                               + _d2_inv_r3(x1, x3, 1))
    elif case == "III":
        dpar: DerivedParallel = params
        e1, e2 = _L(dpar.eta1), _L(dpar.eta2)
        f = kernel_case3(dpar).terms[0]
        lhs = e2 * _fd_axis(f, x1, x3, 2, h, 0, order) \
            + e1 * _fd_axis(f, x1, x3, 2, h, 1, order)
        rhs = e1 * e2 * (_d2_inv_r3(x1, x3, 0) + _d2_inv_r3(x1, x3, 1))
    else:
        raise ValueError(f"unknown PDE case {case!r}")

    return float(abs(lhs - rhs) / (abs(rhs) + 1))


# ---------------------------------------------------------------------------
# circle profiles and minima
# ---------------------------------------------------------------------------

def circle_profile(kf: KernelForm, n_theta: int = 512):
    """K(cos theta, sin theta) on a uniform theta grid over [0, pi)."""
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    th = np.linspace(0.0, np.pi, n_theta, endpoint=False)
    return th, kf(np.cos(th), np.sin(th))


def _zeta_candidates(kf: KernelForm, params) -> list:
    """Closed-form interior critical angles arccos(zeta) per case."""
    out = []
    if kf.case in ("II", "iso"):
        if kf.case == "II":
            p, q = params.p, params.q
        else:
            p, q = 1.0, params[1]
        if p != q and (p <= 0.75 * q or p >= 4.0 * q / 3.0):
            base = 2 * q * q - p * q - p * p
            root = abs(p - q) * np.sqrt(p * p + q * q)
            for s in (+1.0, -1.0):
                z2 = (base + s * root) / (p - q) ** 2
                if 0.0 <= z2 <= 1.0:
                    out.append(float(np.arccos(np.sqrt(z2))))
    elif kf.case == "III":
        ell = params.eta1 / params.eta2
        if 0.5 < ell < 0.75 or 4.0 / 3.0 < ell < 2.0:
            z2 = (1.0 + 2.0 * ell - 2.0 * np.sqrt(1.0 + ell * ell)) / (ell - 1.0)
            if 0.0 <= z2 <= 1.0:
                out.append(float(np.arccos(np.sqrt(z2))))
    return out


def circle_min(kf: KernelForm, params=None, refine: bool = True):
    """(theta_min, k_min) of theta -> K(cos theta, sin theta) on [0, pi).

    Candidates are the endpoints {0, pi/2} plus the closed-form interior
    critical angles where available; each candidate is sharpened by a bounded
    golden-section pass, with a dense-grid fallback cross-check.
    """
    cands = [0.0, 0.5 * np.pi]
    if params is not None:
        cands += _zeta_candidates(kf, params)
        # candidate angles are symmetric about pi/2 on [0, pi)
        cands += [np.pi - t for t in list(cands) if 0.0 < t < np.pi]

    def kv(t):
        return float(kf(np.cos(t), np.sin(t)))

    best_t, best_v = min(((t, kv(t)) for t in cands), key=lambda tv: tv[1])

    if refine:
        from scipy.optimize import minimize_scalar
        for t in cands:
            lo, hi = t - 0.05 * np.pi, t + 0.05 * np.pi
            res = minimize_scalar(kv, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            if res.fun < best_v:
                best_t, best_v = float(res.x), float(res.fun)
        # dense-grid fallback: guard against a missed bracket
        th, vals = circle_profile(kf, 4096)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            res = minimize_scalar(
                kv, bounds=(th[i] - 2e-3, th[i] + 2e-3), method="bounded",
                options={"xatol": 1e-12})
            best_t, best_v = float(res.x), float(res.fun)
    return best_t % np.pi, best_v
