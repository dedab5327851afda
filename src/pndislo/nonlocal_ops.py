"""Nonlocal operators on periodic grids.

Three ways of applying the slip-plane operator L:

* `apply_multiplier` -- exact spectral application of a scalar symbol m(k);
* `aniso_half_laplacian` -- the anisotropic half-Laplacian sqrt(k1^2 + rho k2^2),
  spectrally or through its second-difference integral form;
* `apply_kernel_quadrature` -- midpoint quadrature of the singular integral

      L w(x) = -(1/4 pi) int (w(x-y) + w(x+y) - 2 w(x)) K(y) dy

  on a polar grid of log-spaced radial shells and equispaced angles.  Because
  the field is a band-limited periodic function, the quadrature sum acts on
  each Fourier mode as the multiplier (1/2 pi) sum_q w_q (1 - cos k.y_q) K(y_q),
  so the operator is assembled once as that node-set multiplier and applied
  spectrally; this is algebraically identical to evaluating the real-space sum
  with trigonometric interpolation of the field.  The inner disc (0, eps) and
  the tail (R_cut, inf) are added in closed form via the sine integral, so the
  only quadrature error is the radial midpoint error inside the shells and the
  angular discretization.

`energy` computes the whole-cell energy by Plancherel and the localized energy
E(u; B_R) (double integral excluding B_R^c x B_R^c) by FFT convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import sici

#: Default inner-cutoff fraction of R_cut (inner mass is restored analytically,
#: so the value only needs to be small enough that the first shell is thin).
EPS_FRACTION = 1e-6


def _is_pow2(n: int) -> bool:
    return n >= 8 and (n & (n - 1)) == 0


@dataclass
class GridField2D:
    """Real samples of a periodic function on a uniform rectangular cell.

    values[i, j] = u(x1_i, x2_j) with x1_i = -L1/2 + i L1/N1 (row-major,
    axis 0 along the first coordinate).  Sample counts must be powers of two
    (>= 8) so that FFT sizes stay fast and halving/doubling grids nest.
    """

    L1: float
    L2: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        n1, n2 = self.values.shape
        if not (_is_pow2(n1) and _is_pow2(n2)):
            raise ValueError(f"sample counts ({n1}, {n2}) must be powers of "
                             "two >= 8")
        if not (self.L1 > 0.0 and self.L2 > 0.0):
            raise ValueError("cell lengths must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def shape(self):
        return self.values.shape

    def axes(self):
        """Cell-centered coordinates (x1, x2), each starting at -L/2."""
        n1, n2 = self.values.shape
        x1 = -0.5 * self.L1 + self.L1 / n1 * np.arange(n1)
        x2 = -0.5 * self.L2 + self.L2 / n2 * np.arange(n2)
        return x1, x2

    def kgrid(self):
        """Angular wavenumber grids (k1, k2) matching numpy FFT layout."""
        n1, n2 = self.values.shape
        k1 = 2.0 * np.pi * np.fft.fftfreq(n1, d=self.L1 / n1)
        k2 = 2.0 * np.pi * np.fft.fftfreq(n2, d=self.L2 / n2)
        return np.meshgrid(k1, k2, indexing="ij")

    @classmethod
    def from_function(cls, L1, L2, n1, n2, f) -> "GridField2D":
        x1 = -0.5 * L1 + L1 / n1 * np.arange(n1)
        x2 = -0.5 * L2 + L2 / n2 * np.arange(n2)
        vals = np.broadcast_to(f(x1[:, None], x2[None, :]), (n1, n2))
        return cls(L1, L2, np.array(vals, dtype=float))

    def like(self, values: np.ndarray) -> "GridField2D":
        return GridField2D(self.L1, self.L2, values)


@dataclass(frozen=True)
class EnergyReport:
    """Nonlocal + potential energy, whole-cell or localized to a ball."""

    nonlocal_part: float
    potential_part: float
    total: float
    radius: Optional[float] = None  # None marks the whole-cell form


def apply_multiplier(symbol: Callable, field: GridField2D) -> GridField2D:
    """Spectral application of a scalar Fourier multiplier.

    `symbol(k1, k2)` must accept array arguments with k != 0; the zero mode is
    set to 0 (every symbol here vanishes at the origin by 1-homogeneity).
    """
    m = _multiplier_grid(symbol, field)
    out = np.fft.ifft2(m * np.fft.fft2(field.values)).real
    return field.like(out)


def _multiplier_grid(symbol: Callable, field: GridField2D) -> np.ndarray:
    k1, k2 = field.kgrid()
    # patch the origin before calling: symbols are allowed to reject k = 0
    k1[0, 0] = 1.0
    m = np.asarray(symbol(k1, k2), dtype=float)
    m[0, 0] = 0.0
    return m


def _radial_profile(eps: float, r_cut: float, n_shell: int,
                    gmax: float, n_g: int = 1 << 16):
    """Table of phi(g) = int_0^inf (1 - cos(r g)) r^-2 dr, quadrature form.

    The band [eps, r_cut] uses the midpoint rule over log-spaced shells with
    the exact shell weights w_i = 1/r_i - 1/r_{i+1} of the r^-2 density and
    nodes at the harmonic shell midpoints (the w-weighted mean radius).  The
    inner disc and the tail are exact:

        int_0^eps   = g Si(eps g) - (1 - cos(eps g))/eps,
        int_R^inf   = (1 - cos(R g))/R + g (pi/2 - Si(R g)).
    """
    edges = np.geomspace(eps, r_cut, n_shell + 1)
    w = 1.0 / edges[:-1] - 1.0 / edges[1:]
    nodes = 2.0 / (1.0 / edges[:-1] + 1.0 / edges[1:])
    g = np.linspace(0.0, gmax, n_g)
    phi = np.zeros_like(g)
    for wi, ri in zip(w, nodes):
        phi += wi * (1.0 - np.cos(ri * g))
    si_e, _ = sici(eps * g)
    si_r, _ = sici(r_cut * g)
    phi += g * si_e - (1.0 - np.cos(eps * g)) / eps
    phi += (1.0 - np.cos(r_cut * g)) / r_cut + g * (0.5 * np.pi - si_r)
    return g, phi


def quadrature_multiplier(kernel: Callable, field: GridField2D,
                          eps: Optional[float] = None,
                          r_cut: Optional[float] = None,
                          n_shell: int = 512, n_theta: int = 128) -> np.ndarray:
    """Node-set multiplier m(k) = (1/2 pi) sum_q w_q (1 - cos k.y_q) K(y_q).

    `kernel(z1, z2)` is any even, (-3)-homogeneous kernel; by homogeneity it
    is evaluated on the unit circle only and the radial factor is carried by
    the shell weights.  Angles are midpoints on [0, pi) (doubled by evenness).
    """
    if r_cut is None:
        r_cut = 0.5 * min(field.L1, field.L2)
    if eps is None:
        eps = EPS_FRACTION * r_cut
    if not (0.0 < eps < r_cut):
        raise ValueError(f"cutoffs must satisfy 0 < eps < R_cut, got "
                         f"({eps}, {r_cut})")
    th = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    c, s = np.cos(th), np.sin(th)
    kv = np.asarray(kernel(c, s), dtype=float)

    k1, k2 = field.kgrid()
    gmax = float(np.hypot(k1, k2).max()) * (1.0 + 1e-12) + 1e-300
    g_tab, phi_tab = _radial_profile(eps, r_cut, n_shell, gmax)
    m = np.zeros(field.shape)
    for j in range(n_theta):
        g = np.abs(k1 * c[j] + k2 * s[j])
        m += kv[j] * np.interp(g, g_tab, phi_tab)
    m *= 1.0 / n_theta  # (1/2pi) * 2 * (pi/n_theta)
    m[0, 0] = 0.0
    return m


def apply_kernel_quadrature(kf: Callable, field: GridField2D,
                            eps: Optional[float] = None,
                            r_cut: Optional[float] = None,
                            n_shell: int = 512,
                            n_theta: int = 128) -> GridField2D:
    """Apply L w = -(1/4 pi) int (w(x-y)+w(x+y)-2w(x)) K(y) dy by quadrature.

    The symmetric second difference cancels the |y|^-3 singularity to an
    integrable O(|y|^-1) density; the quadrature is the polar node set of
    `quadrature_multiplier`, acting spectrally on the band-limited field.
    """
    m = quadrature_multiplier(kf, field, eps=eps, r_cut=r_cut,
                              n_shell=n_shell, n_theta=n_theta)
    out = np.fft.ifft2(m * np.fft.fft2(field.values)).real
    return field.like(out)


def aniso_half_laplacian(rho: float, field: GridField2D,
                         mode: str = "symbol",
                         r_cut: Optional[float] = None,
                         n_shell: int = 512,
                         n_theta: int = 128) -> GridField2D:
    """(-Delta_rho)^(1/2) with symbol sqrt(k1^2 + rho k2^2).

    mode "symbol": exact spectral application (zero mode -> 0).
    mode "integral": second-difference quadrature of the kernel
    rho^(-1/2) (y1^2 + y2^2/rho)^(-3/2) with the -(1/4 pi) prefactor,
    truncated at R_cut with the analytic tail restored (the tail is
    O(R_cut^-1) in magnitude, consistent with far-field constancy).
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if mode == "symbol":
        return apply_multiplier(lambda k1, k2: np.sqrt(k1 ** 2 + rho * k2 ** 2),
                                field)
    if mode == "integral":
        def kernel(z1, z2):
            return (z1 ** 2 + z2 ** 2 / rho) ** -1.5 / np.sqrt(rho)
        return apply_kernel_quadrature(kernel, field, r_cut=r_cut,
                                       n_shell=n_shell, n_theta=n_theta)
    raise ValueError(f"unknown mode {mode!r}")


def _sampled_kernel(kf: Callable, field: GridField2D,
                    r_window: float) -> np.ndarray:
    """K sampled at min-image grid offsets within |y| <= r_window, origin 0."""
    n1, n2 = field.shape
    h1, h2 = field.L1 / n1, field.L2 / n2
    y1 = np.fft.fftfreq(n1, d=1.0 / n1) * h1  # min-image offsets
    y2 = np.fft.fftfreq(n2, d=1.0 / n2) * h2
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    r = np.hypot(Y1, Y2)
    mask = (r > 0.0) & (r <= r_window)
    K = np.zeros((n1, n2))
    K[mask] = kf(Y1[mask], Y2[mask])
    return K


def energy(field: GridField2D, potential: Optional[Callable] = None,
           symbol: Optional[Callable] = None, kf: Optional[Callable] = None,
           R: Optional[float] = None) -> EnergyReport:
    """Nonlocal + potential energy of a periodic field.

    Whole cell (R is None, needs `symbol`):
        (1/2) sum_k m(k) |c_k|^2 |cell|  +  int_cell W(u),
    with c_k the Fourier coefficients.  This equals (1/8 pi) of the full
    double integral of |u(x)-u(y)|^2 K(x-y) by Plancherel.

    Localized (needs `kf`): the double integral over all pairs except
    B_R^c x B_R^c, with the same 1/(8 pi) normalization, evaluated by FFT
    convolutions against the min-image sampled kernel (origin cell excluded),
    plus int_{B_R} W(u).  Requires R <= min(L1, L2)/2.
    """
    n1, n2 = field.shape
    h1, h2 = field.L1 / n1, field.L2 / n2
    cell = field.L1 * field.L2
    u = field.values

    if R is None:
        if symbol is None:
            raise ValueError("whole-cell energy needs a symbol")
        m = _multiplier_grid(symbol, field)
        c = np.fft.fft2(u) / (n1 * n2)
        nl = 0.5 * float(np.sum(m * np.abs(c) ** 2)) * cell
        pot = float(np.mean(potential(u))) * cell if potential else 0.0
        return EnergyReport(nl, pot, nl + pot, None)

    if not 0.0 < R <= 0.5 * min(field.L1, field.L2):
        raise ValueError(f"R = {R} outside (0, min(L1, L2)/2]")
    if kf is None:
        raise ValueError("localized energy needs a kernel")

    K = _sampled_kernel(kf, field, 0.5 * min(field.L1, field.L2))
    Kh = np.fft.fft2(K)
    dA = h1 * h2

    def conv(f):
        return np.fft.ifft2(Kh * np.fft.fft2(f)).real * dA

    x1, x2 = field.axes()
    inside = (x1[:, None] ** 2 + x2[None, :] ** 2) <= R * R
    kappa0 = float(np.sum(K)) * dA

    # S(x) = int (u(x)-u(y))^2 K(x-y) dy; once unrestricted, once y in B_R
    S_all = u * u * kappa0 - 2.0 * u * conv(u) + conv(u * u)
    chi = inside.astype(float)
    S_ball = (u * u * conv(chi) - 2.0 * u * conv(u * chi)
              + conv(u * u * chi))
    raw = 2.0 * float(np.sum(S_all[inside])) * dA \
        - float(np.sum(S_ball[inside])) * dA
    nl = raw / (8.0 * np.pi)
    pot = float(np.sum(potential(u)[inside])) * dA if potential else 0.0
    return EnergyReport(nl, pot, nl + pot, R)
