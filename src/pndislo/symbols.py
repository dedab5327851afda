"""Fourier multipliers of the reduced slip-plane operators.

Contains the 2x2 Dirichlet-to-Neumann matrices for both slip-plane
orientations, as arrays of shape k.shape + (2, 2), and the three reduced
scalar symbols.  All scalar symbols are even, degree-1 homogeneous, and
strictly positive away from k = 0 on the admissible parameter ranges; the
zero frequency is excluded by contract (the operator modules define the zero
mode).
"""

from __future__ import annotations

import numpy as np

from .moduli import DerivedParallel, DerivedPerp


def _check_nonzero(k1, k2):
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    if np.any((k1 == 0.0) & (k2 == 0.0)):
        raise ValueError("symbol evaluation at k = 0 is excluded by contract")
    return k1, k2


def roots_r(dp: DerivedPerp, k1, k3):
    """Characteristic roots r1 = sqrt(k1^2 + k3^2/delta), r2 = |k|."""
    k1, k3 = _check_nonzero(k1, k3)
    return np.sqrt(k1 ** 2 + k3 ** 2 / dp.delta), np.hypot(k1, k3)


def _matrix(a11, a12, a21, a22):
    """Entries of one shape stacked into an array of shape + (2, 2)."""
    return np.stack([np.stack([a11, a12], -1), np.stack([a21, a22], -1)], -2)


def dtn_perp(dp: DerivedPerp, k1, k3) -> np.ndarray:
    """2x2 Dirichlet-to-Neumann matrix, slip plane perpendicular case.

    Exact entrywise evaluation of the closed form, including the a21 entry
    with its (r1 + r2) denominator (evaluated directly; no cancellation for
    positive r1, r2).
    """
    k1, k3 = _check_nonzero(k1, k3)
    r1, r2 = roots_r(dp, k1, k3)
    nu, de = dp.nu, dp.delta
    s = 2.0 * dp.mu / (1.0 - nu) * r1
    a11 = s * (dp.p * k1 ** 2 + (1.0 - nu) * k3 ** 2) / r1 ** 2
    a12 = s * de * nu * k1 * k3 / r1 ** 2
    a21 = s * (k1 * k3 / (de * r1 ** 2)) * (
        ((nu * de + (1.0 - nu) * (1.0 - de)) * r2
         + (nu * de ** 2 - (1.0 - nu) * (1.0 - de) ** 2) * r1) / (r1 + r2))
    a22 = s * (r1 * r2 - nu * k1 ** 2) / r1 ** 2
    return _matrix(a11, a12, a21, a22)


def dtn_parallel(dpar: DerivedParallel, k1, k2) -> np.ndarray:
    """2x2 Dirichlet-to-Neumann matrix, slip plane parallel case.

    A(k) = eta1 |k| I + (eta2 - eta1) |k| k (x) k / |k|^2; eigenvalues are
    eta1 |k| (eigenvector k-perp) and eta2 |k| (eigenvector k).
    """
    k1, k2 = _check_nonzero(k1, k2)
    kk = np.hypot(k1, k2)
    d = (dpar.eta2 - dpar.eta1) / kk
    a12 = d * k1 * k2
    return _matrix(dpar.eta1 * kk + d * k1 * k1, a12, a12,
                   dpar.eta1 * kk + d * k2 * k2)


def symbol_case1(dp: DerivedPerp, k1, k3):
    """Reduced scalar symbol, case I (perpendicular, W = W(u1)).

    m~(k) = 2 mu r2 (p k1^2 + k3^2) / (r1 r2 - nu k1^2).
    """
    r1, r2 = roots_r(dp, k1, k3)
    return 2.0 * dp.mu * r2 * (dp.p * k1 ** 2 + k3 ** 2) \
        / (r1 * r2 - dp.nu * k1 ** 2)


def symbol_case2(dp: DerivedPerp, k1, k3):
    """Reduced scalar symbol, case II (perpendicular, W = W(u3)).

    m(k) = 2 mu r2 (p k1^2 + k3^2) / (p k1^2 + q k3^2).
    """
    k1, k3 = _check_nonzero(k1, k3)
    r2 = np.hypot(k1, k3)
    return 2.0 * dp.mu * r2 * (dp.p * k1 ** 2 + k3 ** 2) \
        / (dp.p * k1 ** 2 + dp.q * k3 ** 2)


def symbol_case3(dpar: DerivedParallel, k1, k2):
    """Reduced scalar symbol, case III (parallel).

    m(k) = eta1 eta2 |k|^3 / (eta2 k1^2 + eta1 k2^2).
    """
    k1, k2 = _check_nonzero(k1, k2)
    kk2 = k1 ** 2 + k2 ** 2
    return dpar.eta1 * dpar.eta2 * kk2 ** 1.5 \
        / (dpar.eta2 * k1 ** 2 + dpar.eta1 * k2 ** 2)


def symbol_lower_constant(dp: DerivedPerp) -> float:
    """Constant c with 2 mu c r2 <= m~(k) for all k (case I).

    From m~ = 2 mu r2 (p k1^2 + k3^2)/(r1 r2 - nu k1^2): the numerator is at
    least min(1, p) r2^2 and the denominator at most
    (max(1, delta^-1/2) + max(0, -nu)) r2^2, giving

        c = min(1, p) / (max(1, delta^(-1/2)) + max(0, -nu)).

    For delta >= 1 and nu >= 0 this reduces to min(1, p).  The bound is sharp
    in the limit (attained along an axis as the other factors degenerate).
    """
    return min(1.0, dp.p) / (max(1.0, dp.delta ** -0.5) + max(0.0, -dp.nu))


def symbol_upper_constant(dp: DerivedPerp, case: int = 1) -> float:
    """max over the unit circle of m(k)/(mu |k|), in closed form; `case` is
    1 or 2, ValueError otherwise.  With c = cos^2 theta, case II is a Moebius
    function of c: max(2, 2/q), at c = 1 or 0.  Case I is critical where
    (p - 1) s^2 + 2 nu s + p/delta - 1 = 0, s = r1 = sqrt(c + (1 - c)/delta),
    so its maximum is at s = 1/sqrt(delta) (c = 0), s = 1 (c = 1) or a real
    root between them."""
    if case not in (1, 2):
        raise ValueError(f"upper constant is defined for case 1 or 2, "
                         f"got {case!r}")
    if case == 2:
        return max(2.0, 2.0 / dp.q)
    lo, hi = sorted((dp.delta ** -0.5, 1.0))
    s = np.roots([dp.p - 1.0, 2.0 * dp.nu, dp.p / dp.delta - 1.0])
    s = s.real[np.isreal(s) & (lo < s.real) & (s.real < hi)]
    c = np.clip(np.r_[0.0, 1.0, (dp.delta * s * s - 1.0) / (dp.delta - 1.0)],
                0.0, 1.0)
    m = symbol_case1(dp, np.sqrt(c), np.sqrt(1.0 - c))
    return float(np.max(m)) / dp.mu
