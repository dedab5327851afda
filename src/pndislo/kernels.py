"""Closed-form -3-homogeneous kernels of the reduced nonlocal operators.

Every kernel is a sum of terms of one form,

    K(x) = prefactor * N(x1, x3) / ((x1^2 + w x3^2)^rp * P(x1, x3)^3),

with N and P even homogeneous polynomials in (x1^2, x3^2) and rp chosen so
that K is -3-homogeneous.  The cases differ only in their coefficients:

    case I    P = x1^4 + b x1^2 x3^2 + c x3^4,  w = delta or 1,  rp = 3/2
    case II   P = q x1^2 + p x3^2,               w = 1,           rp = 3/2
    case III  P = eta1 x1^2 + eta2 x2^2,         w = 1,           rp = 1/2
    iso       P = x1^2 + q x3^2,                 w = 1,           rp = 1/2

The case-I composite kernel is a weighted pair (K1, K2) because the two
radial factors differ.

Each kernel term solves P~(d) K = prefactor * Q(d) (x1^2 + w x3^2)^(-3/2):
P~ is its P with x1^2 and x3^2 swapped, Q the numerator polynomial of the
case's symbol, both read as derivatives (table in `pde_residual`, which
checks it by high-order finite differences in extended precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .moduli import DerivedParallel, DerivedPerp

_L = np.longdouble

#: order of the central finite-difference stencils in `pde_residual`
FD_ORDER = 8
#: their step, relative to the distance from the origin
FD_H_REL = 1e-2
#: how far (rad) `on_circle` keeps from a zero of a case-I P on the circle
P_ZERO_GAP = 1e-3


def _even_poly(coeffs, x1sq, x3sq):
    """sum_i coeffs[i] x1^(2(n-1-i)) x3^(2i) (descending in x1), by Horner
    in x1^2: p <- p x1^2 + a x3^(2i).  Needs at least two coefficients."""
    p = coeffs[0] * x1sq
    p += coeffs[1] * x3sq
    t = x3sq
    for a in coeffs[2:]:
        t = t * x3sq
        p *= x1sq
        p += a * t
    return p


@dataclass(frozen=True)
class KernelTerm:
    """prefactor * N / ((x1^2 + w x3^2)^rp * P^3), N and P even in x1, x3.

    Works on arrays, in place on its own temporaries, and on numpy scalars
    of any float precision.  Fields may be (n, 1) columns (`_stack`).
    """

    prefactor: float
    num_coeffs: tuple            # N's coefficients, descending in x1
    radial_weight: float         # w
    radial_power: float          # rp
    den_coeffs: tuple            # P's coefficients, descending in x1

    def __call__(self, x1, x3):
        x1sq, x3sq = x1 * x1, x3 * x3
        out = _even_poly(self.num_coeffs, x1sq, x3sq)
        out *= self.prefactor
        den = _even_poly(self.den_coeffs, x1sq, x3sq)
        den *= den * den
        rad = self.radial_weight * x3sq
        rad += x1sq
        rad **= self.radial_power
        den *= rad
        out /= den
        return out


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
            out += t(x1, x3)
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


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _case1_terms(dp: DerivedPerp, s1, s2) -> tuple:
    """The case-I terms K1 and K2 with prefactors s1 and s2."""
    p, de, b, c = dp.p, dp.delta, dp.b, dp.c
    quartic = (1.0, b, c)
    return (KernelTerm(s1, _k1_coeffs(p, de, b, c), de, 1.5, quartic),
            KernelTerm(s2, _k2_coeffs(p, de, b, c), 1.0, 1.5, quartic))


def kernel_case1_parts(dp: DerivedPerp) -> tuple[KernelForm, KernelForm]:
    """The unweighted pair (K1, K2) of the case-I composite kernel."""
    k1, k2 = _case1_terms(dp, 1.0, 1.0)
    return KernelForm("I", (k1,)), KernelForm("I", (k2,))


def kernel_case1(dp: DerivedPerp) -> KernelForm:
    """Composite case-I kernel K = 2 mu delta (sqrt(delta) K1 + nu K2)."""
    de = dp.delta
    return KernelForm("I", _case1_terms(dp, 2.0 * dp.mu * de * math.sqrt(de),
                                        2.0 * dp.mu * de * dp.nu))


def kernel_case2(dp: DerivedPerp) -> KernelForm:
    """Case-II kernel 2 mu (A z1^6 + ... + D z3^6)/(|z|^3 (q z1^2 + p z3^2)^3)."""
    return KernelForm("II", (KernelTerm(
        2.0 * dp.mu, _case2_coeffs(dp.p, dp.q), 1.0, 1.5, (dp.q, dp.p)),))


def kernel_case3(dpar: DerivedParallel) -> KernelForm:
    """Case-III kernel eta1 eta2 (A z1^4 + B z1^2 z2^2 + C z2^4) /
    (|z| (eta1 z1^2 + eta2 z2^2)^3)."""
    e1, e2 = dpar.eta1, dpar.eta2
    return KernelForm("III", (KernelTerm(
        e1 * e2, _case3_coeffs(e1, e2), 1.0, 0.5, (e1, e2)),))


def kernel_isotropic(mu: float, q: float) -> KernelForm:
    """Fully isotropic kernel 2 mu (A z1^4 + B z1^2 z3^2 + C z3^4) /
    (|z| (z1^2 + q z3^2)^3), q = 1 - nu: the case-III table at
    (eta1, eta2) = (1, q)."""
    return KernelForm("iso", (KernelTerm(
        2.0 * mu, _case3_coeffs(1.0, q), 1.0, 0.5, (1.0, q)),))


def build_kernel(case: str, params) -> KernelForm:
    """The kernel of `regions.CASES[case]`; ValueError for another case."""
    from .regions import case as table_case    # regions imports this module
    return table_case(case).kernel(params)


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


def _fd(f, x1, x3, m1, m3, h):
    """d^m1/dx1^m1 d^m3/dx3^m3 of f at (x1, x3) in longdouble: the tensor
    product of central stencils of order FD_ORDER, one point where m = 0."""
    (o1, w1), (o3, w3) = (_fd_weights(m, (m + FD_ORDER) // 2 if m else 0)
                          for m in (m1, m3))
    acc = _L(0)
    for oi, wi in zip(o1, w1):
        for oj, wj in zip(o3, w3):
            acc = acc + _L(wi) * _L(wj) * f(x1 + oi * h, x3 + oj * h)
    return acc / h ** (m1 + m3)


def _op(coeffs, f, x1, x3, h):
    """sum_i coeffs[i] d1^(2(n-1-i)) d3^(2i) f at (x1, x3), by `_fd`."""
    n = len(coeffs)
    return sum(_L(a) * _fd(f, x1, x3, 2 * (n - 1 - i), 2 * i, h)
               for i, a in enumerate(coeffs) if a)


#: pde_residual's cases: the kernel whose one term the PDE holds for, and
#: the numerator Q of the case's symbol, descending in d1
_PDE = {"I_K1": (lambda dp: kernel_case1_parts(dp)[0],
                 lambda dp: (dp.p, dp.p + 1.0, 1.0)),
        "I_K2": (lambda dp: kernel_case1_parts(dp)[1],
                 lambda dp: (dp.p, 1.0, 0.0)),
        "II": (kernel_case2, lambda dp: (dp.p, 1.0)),
        "III": (kernel_case3, lambda dpar: (1.0, 1.0))}


def pde_residual(case: str, params, x1, x3) -> float:
    """Relative residual of the defining kernel PDE at a point.

    A kernel term with prefactor s and radial weight w solves
    P~(d) K = s Q(d) (x1^2 + w x3^2)^(-3/2): P~ is its P with x1 and x3
    swapped, Q the numerator of the case's symbol, both read as derivatives
    (Q descending in d1; x3 stands for x2 in case III):

    case "I_K1" (w = delta, s = 1):      Q = (p d1^2 + d3^2)(d1^2 + d3^2)
    case "I_K2" (w = 1, s = 1):          Q = d1^2 (p d1^2 + d3^2)
    case "II"   (w = 1, s = 2 mu):       Q = p d1^2 + d3^2
    case "III"  (w = 1, s = eta1 eta2):  Q = d1^2 + d2^2

    In case I, (r1 r2 - nu k1^2)(r1 r2 + nu k1^2) = P~(k)/delta: the symbol
    times (r1 r2 + nu k1^2) above and below splits into the K1 part
    (p k1^2 + k3^2) r2^2 r1 and the K2 part nu k1^2 (p k1^2 + k3^2) r2.

    Both sides by order-FD_ORDER central finite differences in extended
    precision with h = FD_H_REL * |x|.  Returns |L K - G|/(|G| + 1).
    """
    if case not in _PDE:
        raise ValueError(f"unknown PDE case {case!r}")
    r = float(np.hypot(x1, x3))
    if r < 1e-6:
        raise ValueError("evaluation point too close to the singularity")
    h = _L(FD_H_REL) * _L(r)
    x1 = _L(x1)
    x3 = _L(x3)
    kernel, q = _PDE[case]
    f = kernel(params).terms[0]
    w = _L(f.radial_weight)
    lhs = _op(f.den_coeffs[::-1], f, x1, x3, h)
    g = _L(f.prefactor) * _op(
        q(params), lambda a, b: (a * a + w * b * b) ** _L(-1.5), x1, x3, h)
    return float(abs(lhs - g) / (abs(g) + 1))


# ---------------------------------------------------------------------------
# circle profiles and minima
# ---------------------------------------------------------------------------

def _stack(forms) -> KernelForm:
    """KernelForms of one case as one whose fields are (n, 1) columns, so
    that it takes n kernels at m angles in one call, shape (n, m).

    A prefactor, radial weight or radial power that all n share stays a
    scalar, so a common radial factor is taken once per angle; polynomial
    coefficients are always columns, because `_even_poly` works in place
    on the first product.
    """
    def column(xs):
        return np.array(xs, dtype=float)[:, None]

    def shared(xs):
        return xs[0] if xs.count(xs[0]) == len(xs) else column(xs)

    return KernelForm(forms[0].case, tuple(
        KernelTerm(shared([t.prefactor for t in ts]),
                   tuple(map(column, zip(*(t.num_coeffs for t in ts)))),
                   shared([t.radial_weight for t in ts]),
                   shared([t.radial_power for t in ts]),
                   tuple(map(column, zip(*(t.den_coeffs for t in ts)))))
        for ts in zip(*(kf.terms for kf in forms))))


def _near(z, z1, z3):
    """Whether the unit vectors (z1, z3) lie within P_ZERO_GAP (rad) of the
    angle z or its opposite."""
    return np.abs(z1 * math.cos(z) + z3 * math.sin(z)) > math.cos(P_ZERO_GAP)


def on_circle(kf, z1, z3):
    """K at the unit vectors (z1, z3), nan within P_ZERO_GAP (rad) of a zero
    of P (`_p_zeros`, or its opposite), where float evaluation is noise.

    `kf` is a KernelForm, or a list of n KernelForms of one case: these are
    evaluated in one call (`_stack`) on 1-D (z1, z3), one row each, and
    each row is blanked at the zeros of its own P.
    """
    if isinstance(kf, KernelForm):
        forms, vals = (kf,), kf(z1, z3)
        rows = (vals,)
    else:
        forms = kf
        vals = rows = _stack(forms)(z1, z3)
    for row, form in zip(rows, forms):
        for z in _p_zeros(form):
            row[_near(z, z1, z3)] = np.nan
    return vals


def circle_profile(kf: KernelForm, n_theta: int = 512):
    """`on_circle` on a uniform theta grid over [0, pi)."""
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    th = np.linspace(0.0, np.pi, n_theta, endpoint=False)
    return th, on_circle(kf, np.cos(th), np.sin(th))


def _zeta_candidates(kf: KernelForm) -> list:
    """Closed-form interior critical angles arccos(sqrt(u)), u = cos^2 theta.

    On the unit circle the case-II, case-III and iso kernels are N(u)/P(u)^3
    with P = a z1^2 + b z3^2, where (a, b) = (q, p), (eta1, eta2) and (1, q).
    For each of their numerators K'(u) = 0 is the quadratic
    (b - a)^2 u^2 + 2 (b - a)(b + 2a) u - b (3b - 4a) = 0, with roots
    u = (-b - 2a +- 2 sqrt(a^2 + b^2)) / (b - a).  Case I, whose P is a
    quartic, has none.
    """
    P = kf.terms[0].den_coeffs
    if len(P) != 2 or P[0] == P[1]:
        return []
    a, b = P
    roots = ((-b - 2.0 * a + s * 2.0 * np.hypot(a, b)) / (b - a)
             for s in (1.0, -1.0))
    return [float(np.arccos(np.sqrt(u))) for u in roots if 0.0 <= u <= 1.0]


def _p_zeros(kf: KernelForm) -> tuple:
    """Angles in (0, pi) where P of a case-I kernel vanishes on the circle.

    With t = cot^2 theta, P / sin^4 theta = t^2 + b t + c, which has one
    positive root when c < 0 (nu < -1).  N cancels that zero, but float
    evaluation within ~1e-4 rad of it is noise.  Empty when c >= 0 and for
    the other cases, whose P is positive on the circle.
    """
    if kf.case != "I":
        return ()
    _, b, c = kf.terms[0].den_coeffs
    if c >= 0.0:
        return ()
    th = math.atan2(1.0, math.sqrt(0.5 * (math.sqrt(b * b - 4.0 * c) - b)))
    return th, math.pi - th


def circle_min(kf: KernelForm, params=None):
    """(theta_min, k_min) of theta -> K(cos theta, sin theta) on [0, pi).

    K depends on theta only through cos^2 theta, so 0 and pi/2 are exact
    critical angles; with `params`, `_zeta_candidates` adds the interior
    ones in closed form, and K is taken there as it is.  Only when a 4096-angle
    grid goes lower does a zoom of 65 angles a pass close in on its best one.
    The candidates, the grid and the zoom skip the angles `on_circle` blanks.
    """
    cands = [0.0, 0.5 * np.pi]
    if params is not None:
        cands += _zeta_candidates(kf)
    # P's zeros are th and pi - th with th in (0, pi/2]: 0 and pi/2 are
    # never both blanked
    zeros = _p_zeros(kf)
    cands = [t for t in cands
             if not any(_near(z, np.cos(t), np.sin(t)) for z in zeros)]

    def kv(t):
        return float(kf(np.cos(t), np.sin(t)))

    best_t, best_v = min(((t, kv(t)) for t in cands), key=lambda tv: tv[1])
    th, vals = circle_profile(kf, 4096)
    # fmin(nan, inf) = inf: a blanked angle is never the best
    i = int(np.argmin(np.fmin(vals, np.inf)))
    if vals[i] < best_v:
        lo, hi = th[i] - 2e-3, th[i] + 2e-3
        while hi - lo > 1e-12:
            t = np.linspace(lo, hi, 65)
            v = on_circle(kf, np.cos(t), np.sin(t))
            j = int(np.argmin(np.fmin(v, np.inf)))
            lo, hi = t[max(j - 1, 0)], t[min(j + 1, 64)]
        best_t, best_v = float(t[j]), kv(t[j])
    return best_t % np.pi, best_v
