"""Elastic constants of a transversely isotropic medium and derived parameters.

The five stiffnesses (C11, C13, C33, C44, C66) must satisfy the uniform
ellipticity conditions

    0 < C66 < C11,    C13^2 < C33 (C11 - C66),    C44 > 0.

Two families of derived parameters are computed here:

* the "perpendicular" set (mu, nu, delta, p, q, b, c), valid when the special
  algebraic condition  sqrt(C11 C33) - C13 - 2 C44 = 0  and  C11 = C33  holds;
* the "parallel" set (tau, theta1..3, eta1, eta2), defined for any valid
  constants.

`stiffness` gives the full tensor C_ijkl, with x3 the symmetry axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Global relative tolerance for exact-identity checks on double precision.
TOL_REL = 1e-12


@dataclass(frozen=True)
class ElasticConstants:
    """The five stiffness moduli, in a common (nondimensionalized) unit."""

    c11: float
    c13: float
    c33: float
    c44: float
    c66: float

    def __post_init__(self):
        for name in ("c11", "c13", "c33", "c44", "c66"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite elastic constant {name}={v!r}")

    def astuple(self):
        return (self.c11, self.c13, self.c33, self.c44, self.c66)


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition truth values of the uniform ellipticity conditions."""

    c66_window: bool     # 0 < C66 < C11
    c13_bound: bool      # C13^2 < C33 (C11 - C66)
    c44_positive: bool   # C44 > 0

    @property
    def valid(self) -> bool:
        return self.c66_window and self.c13_bound and self.c44_positive


@dataclass(frozen=True)
class DerivedPerp:
    """Derived parameters for the slip plane perpendicular to the isotropy plane.

    mu is the shear modulus C44, nu = C13 / (2(C13 + C44)) plays the role of a
    Poisson ratio, and delta = C66/C44 measures the in-plane anisotropy.  The
    combinations p, q, b, c appear throughout the reduced scalar operators:

        p = delta (2(1-nu) - delta (1-2 nu)),   q = 1 - nu,
        b = 1 + delta,                          c = delta (1 - nu^2).
    """

    mu: float
    nu: float
    delta: float
    p: float
    q: float
    b: float
    c: float


@dataclass(frozen=True)
class DerivedParallel:
    """Derived parameters for the slip plane parallel to the isotropy plane.

    theta2, theta3 are complex (a conjugate pair or both real).  eta1 and
    eta2 are the slip-plane tractions per |k| of the shear (k-perp) and the
    longitudinal (k) slip modes, both positive for valid constants.
    """

    tau: float
    theta1: float
    theta2: complex
    theta3: complex
    eta1: float
    eta2: float


def validate(ec: ElasticConstants) -> ValidationReport:
    """Check the three uniform ellipticity conditions."""
    c11, c13, c33, c44, c66 = ec.astuple()
    return ValidationReport(
        c66_window=0.0 < c66 < c11,
        c13_bound=c13 * c13 < c33 * (c11 - c66),
        c44_positive=c44 > 0.0,
    )


def stiffness(ec: ElasticConstants) -> np.ndarray:
    """The stiffness tensor C_ijkl, shape (3, 3, 3, 3), x3 the symmetry axis:
    the Voigt table with C12 = C11 - 2 C66, C44 = C55, indexed by
    ij -> [[0, 5, 4], [5, 1, 3], [4, 3, 2]]."""
    c11, c13, c33, c44, c66 = ec.astuple()
    c12 = c11 - 2.0 * c66
    voigt = np.zeros((6, 6))
    voigt[:3, :3] = [[c11, c12, c13], [c12, c11, c13], [c13, c13, c33]]
    voigt[3:, 3:] = np.diag([c44, c44, c66])
    v = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
    return voigt[v[:, :, None, None], v]


def from_isotropic(mu: float, nu: float) -> ElasticConstants:
    """Embed an isotropic medium (shear modulus mu, Poisson ratio nu): the
    delta = 1 member of the perpendicular family, so mu > 0 and
    -1 < nu < 1/2 are required.

    C11 = C33 = 2 mu (1-nu)/(1-2 nu), C13 = 2 mu nu/(1-2 nu), C44 = C66 = mu.
    """
    return perp_to_constants(perp_from_parameters(mu, nu, 1.0))


def check_special_condition(ec: ElasticConstants) -> tuple[bool, bool]:
    """Test sqrt(C11 C33) - C13 - 2 C44 = 0 and C11 = C33 to TOL_REL.

    Comparisons are scaled by c44 resp. c11 so the test is unit invariant.
    """
    c11, c13, c33, c44, _ = ec.astuple()
    cond_root = abs(math.sqrt(c11 * c33) - c13 - 2.0 * c44) <= TOL_REL * c44
    cond_equal = abs(c11 - c33) <= TOL_REL * c11
    return cond_root, cond_equal


def derive_perp(ec: ElasticConstants) -> DerivedPerp:
    """Derived perpendicular-case parameters; requires the special condition."""
    rep = validate(ec)
    if not rep.valid:
        raise ValueError(f"elastic constants violate ellipticity: {rep}")
    cond_root, cond_equal = check_special_condition(ec)
    if not (cond_root and cond_equal):
        raise ValueError(
            "special condition sqrt(C11 C33) - C13 - 2 C44 = 0, C11 = C33 "
            f"violated (root: {cond_root}, equal: {cond_equal})")
    nu = ec.c13 / (2.0 * (ec.c13 + ec.c44))
    delta = ec.c66 / ec.c44
    return perp_from_parameters(ec.c44, nu, delta)


def in_ellipticity_strip(nu: float, delta: float) -> bool:
    """Ellipticity of the perpendicular set for mu > 0:
    0 < delta < 4, 1 - 2/delta < nu < 1/2."""
    return 0.0 < delta < 4.0 and 1.0 - 2.0 / delta < nu < 0.5


def perp_from_parameters(mu: float, nu: float, delta: float) -> DerivedPerp:
    """Build DerivedPerp directly from (mu, nu, delta), checking ellipticity
    (mu > 0 and `in_ellipticity_strip`)."""
    if not (mu > 0.0 and in_ellipticity_strip(nu, delta)):
        raise ValueError(
            f"(mu, nu, delta) = ({mu}, {nu}, {delta}) violates ellipticity")
    p = delta * (2.0 * (1.0 - nu) - delta * (1.0 - 2.0 * nu))
    return DerivedPerp(mu=mu, nu=nu, delta=delta, p=p, q=1.0 - nu,
                       b=1.0 + delta, c=delta * (1.0 - nu * nu))


def perp_to_constants(dp: DerivedPerp) -> ElasticConstants:
    """Reconstruct the five constants from (mu, nu, delta) (round trip)."""
    lam = 2.0 * dp.mu / (1.0 - 2.0 * dp.nu)
    return ElasticConstants(lam * (1.0 - dp.nu), lam * dp.nu,
                            lam * (1.0 - dp.nu), dp.mu, dp.delta * dp.mu)


def derive_parallel(ec: ElasticConstants) -> DerivedParallel:
    """Derived parallel-case parameters (eta1, eta2, characteristic roots).

    eta2 = (C11 - C13^2/C33)/tau is twice the energy factor of a basal edge
    dislocation; it is positive because C13^2 < C33 (C11 - C66) < C11 C33.
    """
    rep = validate(ec)
    if not rep.valid:
        raise ValueError(f"elastic constants violate ellipticity: {rep}")
    c11, c13, c33, c44, c66 = ec.astuple()
    root = math.sqrt(c11 * c33)

    alpha = c33 / c44
    beta = c11 / c44
    gamma = 1.0 + alpha * beta - (c13 / c44 + 1.0) ** 2

    # tau is real by ellipticity (root - c13 > 0 and root + c13 + 2 c44 > 0)
    tau = math.sqrt(root - c13) * math.sqrt(root + c13 + 2.0 * c44) \
        / (2.0 * math.sqrt(c33 * c44))
    eta1 = 2.0 * math.sqrt(c44 * c66)
    eta2 = (c11 - c13 * c13 / c33) / tau

    theta1 = math.sqrt(c66 / c44)
    disc = complex(gamma * gamma - 4.0 * alpha * beta) ** 0.5
    theta2 = ((gamma + disc) / (2.0 * alpha)) ** 0.5
    theta3 = ((gamma - disc) / (2.0 * alpha)) ** 0.5
    return DerivedParallel(tau=tau, theta1=theta1, theta2=theta2,
                           theta3=theta3, eta1=eta1, eta2=eta2)
