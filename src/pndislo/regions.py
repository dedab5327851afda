"""The case table, kernel-positivity parameter regions and region scans.

`CASES` maps each of the three slip geometries to its derived-parameter
set, symbol, Dirichlet-to-Neumann matrix, the DtN component the misfit acts
on, kernel, positivity predicate and scan axes.

Case I and II live in the (nu, delta) plane inside the ellipticity strip
0 < delta < 4, 1 - 2/delta < nu < 1/2; case III is a condition on the ratio
eta1/eta2 of the parallel-case coefficients.  Membership predicates use
strict inequalities; scans carry a third "boundary" state for cells adjacent
to a membership change so downstream comparisons can exclude the ambiguous
band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels, symbols
from .moduli import (DerivedParallel, DerivedPerp, ElasticConstants,
                     derive_parallel, derive_perp, from_isotropic,
                     in_ellipticity_strip, perp_from_parameters, validate)


def in_region_case1(nu: float, delta: float) -> bool:
    """Closed-form positivity region of the case-I composite kernel."""
    if not in_ellipticity_strip(nu, delta):
        return False
    rd = math.sqrt(delta)
    lower = max(1.0 - 2.0 / delta,
                0.5 * rd * (2.0 * delta - 3.0)
                / (2.0 * delta * rd - 2.0 * rd + 1.0))
    upper = 2.0 / (4.0 - delta + math.sqrt(delta * delta + 8.0))
    return lower < nu < upper


def smallest_positive_root_rtilde(q: float):
    """Smallest positive real root of the membership quartic at parameter q.

    The quartic (descending powers) is
        -8(q-1) x^4 + (13 q^2 + 14 q - 11) x^3 + 2 q (q^2 - 18 q + 1) x^2
        + q^2 (-11 q^2 + 14 q + 13) x + 8 (q - 1) q^3.
    Its roots are the eigenvalues of the companion matrix (`np.roots`).
    Returns None if no strictly positive real root.
    """
    if not 0.5 < q < 1.0:
        raise ValueError("r~ is defined for q in (1/2, 1)")
    roots = np.roots([-8.0 * (-1.0 + q),
                      (-11.0 + 14.0 * q + 13.0 * q * q),
                      2.0 * q * (1.0 - 18.0 * q + q * q),
                      q * q * (13.0 + 14.0 * q - 11.0 * q * q),
                      8.0 * (-1.0 + q) * q ** 3])
    real = [r.real for r in roots
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r)) and r.real > 0.0]
    return float(min(real)) if real else None


def _case2_conditions(p: float, q: float):
    """The three closed-form sign expressions; the third is active only on
    the branches where an interior critical angle exists (p <= 3q/4 or
    p >= 4q/3; vacuous on the band in between and singular at p = q).  On
    the branch p <= 3q/4 with q in (1/2, 1), e3 > 0 exactly when p > r~(q),
    `smallest_positive_root_rtilde`: the root of acceptance criterion 09 is
    this boundary."""
    e1 = 2.0 * (2.0 * p * q - 2.0 * p + q) / q ** 2
    e2 = 2.0 * (p - 2.0 * q + 2.0) / p
    e3 = None
    if p != q and (p <= 0.75 * q or p >= 4.0 * q / 3.0):
        s = (p * p + q * q) ** 1.5
        e3 = ((q - 1.0) * (p ** 3 + q ** 3 + s)
              + 4.0 * (1.0 - p) * p * q * q) / (2.0 * p * (q - p) * q * q)
    return e1, e2, e3


def _member_case2(dp: DerivedPerp) -> bool:
    if dp.p <= 0.0:
        return False
    e1, e2, e3 = _case2_conditions(dp.p, dp.q)
    if e1 <= 0.0 or e2 <= 0.0:
        return False
    return e3 is None or e3 > 0.0


def in_region_case2(nu: float, delta: float) -> bool:
    """Closed-form positivity region of the case-II kernel."""
    return (in_ellipticity_strip(nu, delta)
            and _member_case2(perp_from_parameters(1.0, nu, delta)))


def _member_case3(dpar: DerivedParallel) -> bool:
    return 2.0 / 3.0 < dpar.eta1 / dpar.eta2 < 1.5


def in_region_case3(ec: ElasticConstants) -> bool:
    """2/3 < eta1/eta2 < 3/2, strict (eta2 > 0 for valid constants)."""
    return validate(ec).valid and _member_case3(derive_parallel(ec))


@dataclass(frozen=True)
class Case:
    """One slip geometry of the reduced equation: the one place a case is
    defined.

    `derive(ec)` gives the case's parameter set; `symbol` and `dtn` take
    (params, k1, k2).  W acts on DtN component `slip` and the other one, f,
    is minimised out, so the symbol is the Schur complement
    a_ss - a_sf a_fs / a_ff.  `kernel(params)` is the real-space kernel of
    the symbol; `member(params)` is the strict kernel-positivity predicate;
    `scan_params(a, b)` maps a scan cell on the axes `axis_names` to
    parameters and raises ValueError outside the admissible set.
    """

    name: str
    derive: Callable
    symbol: Callable
    dtn: Callable
    slip: int
    kernel: Callable
    member: Callable
    scan_params: Callable
    axis_names: tuple


def _perp_cell(nu, delta):
    return perp_from_parameters(1.0, nu, delta)


def _isotropic_parallel_cell(mu_iso, nu_iso):
    return derive_parallel(from_isotropic(mu_iso, nu_iso))


CASES = {c.name: c for c in (
    Case("I", derive_perp, symbols.symbol_case1, symbols.dtn_perp, 0,
         kernels.kernel_case1, lambda dp: in_region_case1(dp.nu, dp.delta),
         _perp_cell, ("nu", "delta")),
    Case("II", derive_perp, symbols.symbol_case2, symbols.dtn_perp, 1,
         kernels.kernel_case2, _member_case2,
         _perp_cell, ("nu", "delta")),
    Case("III", derive_parallel, symbols.symbol_case3, symbols.dtn_parallel, 1,
         kernels.kernel_case3, _member_case3, _isotropic_parallel_cell,
         ("mu", "nu")),
)}


def case(name: str) -> Case:
    """The CASES entry for "I", "II" or "III"; ValueError otherwise."""
    try:
        return CASES[name]
    except KeyError:
        raise ValueError(f"unknown case {name!r}") from None


@dataclass
class RegionScan:
    """Row-major grid scan: closed-form membership, boundary flag, and the
    numeric kernel minimum over the unit circle per admissible cell.

    `stats`: the admissible cells, the angles per kernel minimum and the
    kernel calls, one per axis1 row with an admissible cell.
    """

    axis_names: tuple
    axis1: np.ndarray
    axis2: np.ndarray
    member: np.ndarray = field(repr=False)     # bool, shape (n1, n2)
    boundary: np.ndarray = field(repr=False)   # bool, shape (n1, n2)
    kmin: np.ndarray = field(repr=False)       # float (nan if inadmissible)
    stats: dict = field(default_factory=dict)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("axis1,axis2,member,boundary,kmin\n")
            for i, a in enumerate(self.axis1):
                for j, b in enumerate(self.axis2):
                    fh.write(f"{a:.17g},{b:.17g},{int(self.member[i, j])},"
                             f"{int(self.boundary[i, j])},"
                             f"{self.kmin[i, j]:.17g}\n")


def _boundary(member, admissible):
    """Cells whose membership or admissibility differs from any of their 8
    neighbours.  Each grid is compared with shifts of its edge-padded copy:
    a neighbour clipped at the edge is the cell itself or a real neighbour,
    so the padding adds no difference."""
    n1, n2 = member.shape
    out = np.zeros((n1, n2), dtype=bool)
    for g in (member, admissible):
        pad = np.pad(g, 1, mode="edge")
        for di in range(3):
            for dj in range(3):
                out |= pad[di:di + n1, dj:dj + n2] != g
    return out


def scan(region: str, axis1, axis2, n_theta: int = 512) -> RegionScan:
    """Scan a parameter grid on the case's axes: (nu, delta) at shear modulus
    1 for cases I/II, (mu, nu) of the isotropic embedding for case III.

    Cells outside the admissible set are non-members with kmin = nan.
    Boundary cells are those whose closed-form membership or admissibility
    differs from any of their 8 neighbors (one-cell ambiguous band).
    The kernels of one axis1 row are evaluated in one `kernels.on_circle`
    call, so its temporaries hold axis2.size x n_theta values.
    """
    c = case(region)
    axis1 = np.asarray(axis1, dtype=float)
    axis2 = np.asarray(axis2, dtype=float)
    if axis1.size < 2 or axis2.size < 2:
        raise ValueError("scan needs at least 2 cells per axis")
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    n1, n2 = axis1.size, axis2.size
    member = np.zeros((n1, n2), dtype=bool)
    kmin = np.full((n1, n2), np.nan)
    # kmin is the minimum over a midpoint grid of n_theta angles, less those
    # next to a zero of P, which `kernels.on_circle` blanks and fmin skips
    th = np.linspace(0.0, np.pi, n_theta, endpoint=False) \
        + 0.5 * np.pi / n_theta
    cos_t, sin_t = np.cos(th), np.sin(th)
    stats = {"admissible_cells": 0, "angles": n_theta, "kernel_calls": 0}

    for i, a in enumerate(axis1):
        js, forms = [], []
        for j, b in enumerate(axis2):
            try:
                params = c.scan_params(a, b)
            except ValueError:
                continue
            member[i, j] = c.member(params)
            js.append(j)
            forms.append(c.kernel(params))
        if forms:
            kmin[i, js] = np.fmin.reduce(
                kernels.on_circle(forms, cos_t, sin_t), axis=1)
            stats["admissible_cells"] += len(js)
            stats["kernel_calls"] += 1

    boundary = _boundary(member, np.isfinite(kmin))
    return RegionScan(axis_names=c.axis_names, axis1=axis1, axis2=axis2,
                      member=member, boundary=boundary, kmin=kmin, stats=stats)
