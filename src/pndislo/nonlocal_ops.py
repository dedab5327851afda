"""Nonlocal operators on periodic grids.

Three ways of applying the slip-plane operator L:

* `apply_multiplier` -- exact spectral application of a scalar symbol m(k);
* `aniso_half_laplacian` -- the anisotropic half-Laplacian sqrt(k1^2 + rho k2^2),
  spectrally or through its second-difference integral form;
* `apply_kernel_quadrature` -- midpoint quadrature of the singular integral

      L w(x) = -(1/4 pi) int (w(x-y) + w(x+y) - 2 w(x)) K(y) dy

  in polar coordinates y = r e.  On a Fourier mode the integral is the
  multiplier (1/2 pi) int_e K(e) int_0^inf (1 - cos(r k.e)) r^-2 dr de, since
  K is (-3)-homogeneous, and the radial integral is exactly (pi/2) |k.e|.
  Only the angular integral is discretized: the midpoint rule over N_THETA
  directions on [0, pi), doubled by evenness.  The operator is assembled once
  as that multiplier and applied spectrally, which is the real-space integral
  of the trigonometric interpolant of the band-limited periodic field.
  With theta_j = (j + 1/2) pi/N_THETA, every k.e_j keeps its sign on each
  arc of k's angle within pi/(2 N_THETA) of i pi/N_THETA, so there the sum
  over directions is one linear form a_i . k: O(N_THETA^2) work for the
  N_THETA + 1 forms, then one arctan2 and one form per wavevector.

Fields are real and multipliers even, so every transform is on the rfft2
half spectrum (`kgrid`, k2 >= 0).  `energy` computes the whole-cell energy
by Plancherel and the localized energy E(u; B_R) (double integral
excluding B_R^c x B_R^c) by FFT convolutions with the quadrature multiplier,
the operator of `apply_kernel_quadrature`; `localized_energies` does so for
several radii from one multiplier.  No kernel is sampled on the grid.

Buffers: each convolution allocates one complex half spectrum and, on
numpy >= 2.0 (`np.fft`'s `out=`), transforms it in place along axis 0;
older numpy allocates each transform, with the same numbers.  Each
`localized_energies` call forms its convolved fields in one real work array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

#: Midpoint directions on [0, pi) in the kernel quadrature.
N_THETA = 128


def _check_counts(n1: int, n2: int):
    if not all(isinstance(n, (int, np.integer)) and n >= 8
               and (n & (n - 1)) == 0 for n in (n1, n2)):
        raise ValueError(f"sample counts ({n1}, {n2}) must be powers of "
                         "two >= 8, as integers")


def cell_axes(L1: float, L2: float, n1: int, n2: int):
    """Sample coordinates (x1, x2) of a periodic cell, x_i = -L/2 + i L/n."""
    return (-0.5 * L1 + L1 / n1 * np.arange(n1),
            -0.5 * L2 + L2 / n2 * np.arange(n2))


def wavenumbers(L1: float, L2: float, n1: int, n2: int):
    """Angular wavenumbers (k1, k2) of the rfft2 half spectrum, n1 x n2/2+1."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(n1, d=L1 / n1)
    k2 = 2.0 * np.pi * np.fft.rfftfreq(n2, d=L2 / n2)
    return np.meshgrid(k1, k2, indexing="ij")


#: Whether `np.fft` takes `out=` (numpy >= 2.0), for in-place transforms.
_FFT_OUT = int(np.__version__.split(".")[0]) >= 2


def _apply(m: np.ndarray, u: np.ndarray,
           rows: slice = slice(None)) -> np.ndarray:
    """The even multiplier m, on the half spectrum, applied to real u, on
    the rows `rows` of the result: `rfft2` and `irfft2` written out, the
    inverse transform along axis 0 and then along axis 1 on those rows only.
    With `_FFT_OUT` the axis-0 transforms overwrite the half spectrum z."""
    z = np.fft.rfft(u, axis=1)
    out = {"out": z} if _FFT_OUT else {}
    z = np.fft.fft(z, axis=0, **out)
    z *= m
    z = np.fft.ifft(z, axis=0, **out)
    return np.fft.irfft(z[rows], n=u.shape[1], axis=1)


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True of a 1-D mask."""
    i = np.flatnonzero(mask)
    return slice(i[0], i[-1] + 1)


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
        _check_counts(*self.values.shape)
        if not (0.0 < self.L1 < np.inf and 0.0 < self.L2 < np.inf):
            raise ValueError("cell lengths must be finite and positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def shape(self):
        return self.values.shape

    def axes(self):
        """Cell-centered coordinates (x1, x2), each starting at -L/2."""
        return cell_axes(self.L1, self.L2, *self.values.shape)

    def kgrid(self):
        """Angular wavenumbers (k1, k2) of the rfft2 half spectrum."""
        return wavenumbers(self.L1, self.L2, *self.values.shape)

    @classmethod
    def from_function(cls, L1, L2, n1, n2, f) -> "GridField2D":
        _check_counts(n1, n2)
        x1, x2 = cell_axes(L1, L2, n1, n2)
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
    return field.like(_apply(_multiplier_grid(symbol, field), field.values))


def _multiplier_grid(symbol: Callable, field: GridField2D) -> np.ndarray:
    k1, k2 = field.kgrid()
    # patch the origin before calling: symbols are allowed to reject k = 0
    k1[0, 0] = 1.0
    m = np.asarray(symbol(k1, k2), dtype=float)
    m[0, 0] = 0.0
    return m


def quadrature_multiplier(kernel: Callable, field: GridField2D) -> np.ndarray:
    """Multiplier m(k) = (pi/2)(1/N_THETA) sum_j K(e_j) |k.e_j| on the grid.

    `kernel(z1, z2)` is any even, (-3)-homogeneous kernel; it is evaluated at
    the N_THETA midpoint directions e_j on [0, pi) only, and the radial
    integral int_0^inf (1 - cos(r g)) r^-2 dr = pi |g| / 2 is exact.  The sum
    is the linear form a_i . k of the arc i nearest k's angle (module
    docstring); N_THETA is even, so no direction is normal to an arc centre.
    """
    th = (np.arange(N_THETA) + 0.5) * np.pi / N_THETA
    e = np.stack((np.cos(th), np.sin(th)), axis=1)
    kv = np.asarray(kernel(e[:, 0], e[:, 1]), dtype=float)
    phi = np.arange(N_THETA + 1) * np.pi / N_THETA  # arc centres
    centre = np.stack((np.cos(phi), np.sin(phi)), axis=1)
    a = np.sign(centre @ e.T) @ (kv[:, None] * e) * (0.5 * np.pi / N_THETA)

    k1, k2 = field.kgrid()
    # k2 >= 0 on the half spectrum: the angle, and so the arc, is in [0, pi]
    arc = np.rint(np.arctan2(k2, k1) * (N_THETA / np.pi)).astype(np.intp)
    return a[arc, 0] * k1 + a[arc, 1] * k2


def apply_kernel_quadrature(kf: Callable, field: GridField2D) -> GridField2D:
    """Apply L w = -(1/4 pi) int (w(x-y)+w(x+y)-2w(x)) K(y) dy by quadrature.

    The symmetric second difference cancels the |y|^-3 singularity to an
    integrable O(|y|^-1) density; the quadrature is the angular midpoint rule
    of `quadrature_multiplier`, acting spectrally on the band-limited field.
    """
    return field.like(_apply(quadrature_multiplier(kf, field), field.values))


def aniso_half_laplacian(rho: float, field: GridField2D,
                         mode: str = "symbol") -> GridField2D:
    """(-Delta_rho)^(1/2) with symbol sqrt(k1^2 + rho k2^2).

    mode "symbol": exact spectral application (zero mode -> 0).
    mode "integral": second-difference quadrature of the kernel
    rho^(-1/2) (y1^2 + y2^2/rho)^(-3/2) with the -(1/4 pi) prefactor, over
    the whole plane: exact in r, midpoint rule in the direction.
    """
    if not 0.0 < rho < np.inf:
        raise ValueError(f"rho must be finite and positive, got rho = {rho}")
    if mode == "symbol":
        return apply_multiplier(lambda k1, k2: np.sqrt(k1 ** 2 + rho * k2 ** 2),
                                field)
    if mode == "integral":
        def kernel(z1, z2):
            return (z1 ** 2 + z2 ** 2 / rho) ** -1.5 / np.sqrt(rho)
        return apply_kernel_quadrature(kernel, field)
    raise ValueError(f"unknown mode {mode!r}")


def energy(field: GridField2D, potential: Optional[Callable] = None,
           symbol: Optional[Callable] = None, kf: Optional[Callable] = None,
           R: Optional[float] = None) -> EnergyReport:
    """Nonlocal + potential energy of a periodic field.

    Whole cell (R is None, needs `symbol`):
        (1/2) sum_k m(k) |c_k|^2 |cell|  +  int_cell W(u),
    with c_k the Fourier coefficients.  This equals (1/8 pi) of the full
    double integral of |u(x)-u(y)|^2 K(x-y) by Plancherel.  The sum runs
    over the half spectrum, where columns 1 .. n2/2 - 1 stand for k and -k.

    Localized (needs the kernel `kf`): `localized_energies` at the one
    radius R.
    """
    if R is not None:
        return localized_energies(field, kf, (R,), potential)[0]
    if symbol is None:
        raise ValueError("whole-cell energy needs a symbol")
    n1, n2 = field.shape
    cell = field.L1 * field.L2
    u = field.values
    p = _multiplier_grid(symbol, field) * np.abs(np.fft.rfft2(u)) ** 2
    p[:, 1:n2 // 2] *= 2.0
    nl = 0.5 * float(np.sum(p)) / (n1 * n2) ** 2 * cell
    pot = float(np.mean(potential(u))) * cell if potential else 0.0
    return EnergyReport(nl, pot, nl + pot, None)


def localized_energies(field: GridField2D, kf: Callable,
                       radii: Sequence[float],
                       potential: Optional[Callable] = None
                       ) -> list[EnergyReport]:
    """Localized energies E(u; B_R), one report per radius R in `radii`.

    E(u; B_R) is the double integral of |u(x)-u(y)|^2 K(x-y) over all pairs
    except B_R^c x B_R^c, with the 1/(8 pi) normalization of `energy`, plus
    int_{B_R} W(u).  L is `apply_kernel_quadrature`'s, so `kf` is any even,
    (-3)-homogeneous kernel: its multiplier m is built once, and each R in
    (0, min(L1, L2)/2] takes two convolutions, inverse-transformed on the
    rows that meet B_R.  With chi the indicator of B_R,

        E_nl(B_R) = (1/2) dA sum_{B_R} [u L((2 - chi) u) - L((1 - chi) u^2)],

    the pair sum of -(u(x)-u(y))^2 l(x-y) dA / 4 with l = irfft2(m), the
    grid kernel, at every periodic offset; for chi = 1 it is (1/2) <u, L u>.

    l is not negative at every offset off the origin: Nyquist ripple leaves
    up to about a third of its entries positive on fine grids, the largest
    about a tenth of the largest |l| there.  So a field of single-point
    spikes can read a negative E(B_R), or one that falls as R grows.  Fields
    resolved on the grid, such as band-limited ones, read it positive and
    nondecreasing in R.
    """
    half = 0.5 * min(field.L1, field.L2)
    for R in radii:
        if not 0.0 < R <= half:
            raise ValueError(f"R = {R} outside (0, min(L1, L2)/2]")
    if kf is None:
        raise ValueError("localized energy needs a kernel")

    n1, n2 = field.shape
    dA = field.L1 / n1 * (field.L2 / n2)
    m = quadrature_multiplier(kf, field)
    x1, x2 = field.axes()
    u = field.values
    # Pairs with x in B_R: y in B_R counts once, y outside twice (the pair
    # also enters as (y, x)), so the double integral is the sum over x in B_R
    # of int w(y) (u(x)-u(y))^2 K(x-y) dy with w = 2 - chi.  Expanding the
    # square, its u(x)^2 (K*w)(x) term holds sum chi u^2 (K*chi), which is
    # sum chi K*(chi u^2) by K(-y) = K(y); what is left, over x in B_R, is
    # 2 (kappa0 u^2 - u K*((2 - chi) u) + K*((1 - chi) u^2)) with kappa0 the
    # integral of K.  By K*f = kappa0 f - 2 pi L f the kappa0 terms cancel
    # there, which leaves 4 pi S with S = u L((2 - chi) u) - L((1 - chi) u^2),
    # formed on B_R only, within the box of the rows and columns that meet it.
    reports = []
    w = np.empty_like(u)
    for R in radii:
        rows, cols = (_span(x * x <= R * R) for x in (x1, x2))
        inside = x1[rows, None] ** 2 + x2[None, cols] ** 2 <= R * R
        ui = u[rows, cols][inside]
        np.add(u, u, out=w)                 # (2 - chi) u
        w[rows, cols][inside] = ui
        S = ui * _apply(m, w, rows)[:, cols][inside]
        np.multiply(u, u, out=w)            # (1 - chi) u^2
        w[rows, cols][inside] = 0.0
        S -= _apply(m, w, rows)[:, cols][inside]
        nl = 0.5 * float(np.sum(S)) * dA
        pot = float(np.sum(potential(ui))) * dA if potential else 0.0
        reports.append(EnergyReport(nl, pot, nl + pot, R))
    return reports
