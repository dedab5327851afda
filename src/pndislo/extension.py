"""Elastic extension of slip-plane data into the half-spaces.

Per slip-plane frequency k the displacement amplitude solves a second-order
3x3 ODE system in the normal coordinate,

    M2 w'' + M1 w' + M0 w = 0,

written in transformed variables that make all three blocks real:
(u1, i u2, u3) for the slip plane perpendicular to the isotropy plane
(normal x2), and (u1, u2, i u3) for the parallel orientation (normal x3).
The 6x6 companion matrix has eigenvalues in +- pairs: {+-r1, +-r2, +-r2}
(perpendicular, r2 double, r1 = r2 at delta = 1) and +-theta_i |k|
(parallel, possibly a complex conjugate pair).  The decaying solutions for
the upper half-space span the invariant subspace of the three eigenvalues
with negative real part; an ordered real Schur form gives an orthonormal
basis of it whatever the Jordan structure, and from that the real 3x3
generator D of the decaying solutions, w' = D w.  The propagator

    u_hat(k, xn) = Bplus(k, xn) u_hat_plus(k),     Bplus(k, 0) = I,

is exp(D xn) in transformed variables, and Bminus for the lower half-space
comes the same way from the growing-rate subspace.  The normal displacement
component on the slip plane is not free: continuity of the normal stress
across the plane fixes it from the two in-plane components
(`normal_closure`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Sequence

import numpy as np
import scipy.linalg

from .moduli import ElasticConstants, derive_parallel, derive_perp, validate
from .nonlocal_ops import GridField2D

#: slip-plane jump matrices u_minus(0) = J u_plus(0)
JUMP_PERP = np.diag([-1.0, 1.0, -1.0])
JUMP_PARALLEL = np.diag([-1.0, -1.0, 1.0])


def _expm(M: np.ndarray) -> np.ndarray:
    """exp of a stack (..., n, n) of matrices: degree-12 Taylor series after
    scaling by 2^-s (max 1-norm <= 1/4, truncation below eps), then s
    squarings."""
    norm = float(np.max(np.sum(np.abs(M), axis=-2), initial=0.0))
    s = max(0, math.ceil(math.log2(4.0 * norm))) if norm > 0.0 else 0
    X = M / 2.0 ** s
    eye = np.eye(M.shape[-1])
    E = eye
    for j in range(12, 0, -1):
        E = eye + (X @ E) / j
    for _ in range(s):
        E = E @ E
    return E


@dataclass
class HalfSpaceSystem:
    """Per-frequency half-space ODE, reduced to its two invariant subspaces.

    D_decay (D_grow) is the real 3x3 generator of the decaying (growing)
    solutions in transformed variables: w' = D w, so the transformed
    propagator is exp(D xn) and D is its derivative at xn = 0.
    """

    orientation: str                      # "perp" | "parallel"
    k: tuple
    eigvals: np.ndarray                   # analytic eigenvalues (6, complex)
    D_decay: np.ndarray                   # Re(spectrum) < 0 (upper half)
    D_grow: np.ndarray                    # Re(spectrum) > 0 (lower half)
    T: np.ndarray = dfield(repr=False, default=None)  # physical -> transformed

    def _physical(self, Bt: np.ndarray) -> np.ndarray:
        # T^-1 Bt T for the diagonal T
        t = np.diag(self.T)
        return Bt * (t / t[:, None])

    def bplus(self, xn) -> np.ndarray:
        """Propagator for the upper half-space (physical variables).

        A scalar xn gives the 3x3 matrix; an array of shape S gives a stack
        of shape S + (3, 3).
        """
        x = np.asarray(xn, dtype=float)[..., None, None]
        return self._physical(_expm(self.D_decay * x))

    def bminus(self, xn) -> np.ndarray:
        """Propagator for the lower half-space (physical variables); xn as
        in `bplus`."""
        x = np.asarray(xn, dtype=float)[..., None, None]
        return self._physical(_expm(self.D_grow * x))

    def dbplus0(self) -> np.ndarray:
        """d/dxn of bplus at 0."""
        return self._physical(self.D_decay)


def _blocks_perp(ec: ElasticConstants, k1: float, k3: float):
    c11, c13, c33, c44, c66 = ec.astuple()
    M2 = np.diag([c66, c11, c44])
    M1 = np.array([[0.0, (c11 - c66) * k1, 0.0],
                   [-(c11 - c66) * k1, 0.0, -(c13 + c44) * k3],
                   [0.0, (c13 + c44) * k3, 0.0]])
    M0 = np.array([[-(c11 * k1 ** 2 + c44 * k3 ** 2), 0.0,
                    -(c13 + c44) * k1 * k3],
                   [0.0, -(c66 * k1 ** 2 + c44 * k3 ** 2), 0.0],
                   [-(c13 + c44) * k1 * k3, 0.0,
                    -(c44 * k1 ** 2 + c33 * k3 ** 2)]])
    return M2, M1, M0


def _blocks_parallel(ec: ElasticConstants, k1: float, k2: float):
    c11, c13, c33, c44, c66 = ec.astuple()
    M2 = np.diag([c44, c44, c33])
    M1 = np.array([[0.0, 0.0, (c13 + c44) * k1],
                   [0.0, 0.0, (c13 + c44) * k2],
                   [-(c13 + c44) * k1, -(c13 + c44) * k2, 0.0]])
    M0 = np.array([[-(c11 * k1 ** 2 + c66 * k2 ** 2),
                    -(c11 - c66) * k1 * k2, 0.0],
                   [-(c11 - c66) * k1 * k2,
                    -(c66 * k1 ** 2 + c11 * k2 ** 2), 0.0],
                   [0.0, 0.0, -c44 * (k1 ** 2 + k2 ** 2)]])
    return M2, M1, M0


def _analytic_rates(orientation: str, ec: ElasticConstants,
                    k1: float, k2: float) -> np.ndarray:
    """The three decay rates (positive real part) for the given frequency."""
    if orientation == "perp":
        dp = derive_perp(ec)
        r1 = math.sqrt(k1 ** 2 + k2 ** 2 / dp.delta)
        r2 = math.hypot(k1, k2)
        return np.array([r1, r2, r2], dtype=complex)
    dpar = derive_parallel(ec)
    kk = math.hypot(k1, k2)
    return kk * np.array([dpar.theta1, dpar.theta2, dpar.theta3],
                         dtype=complex)


def _symmetric_functions(M: np.ndarray):
    """Trace, sum of principal 2x2 minors and determinant of a 3x3 matrix:
    the elementary symmetric functions of its eigenvalues."""
    minors = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
              + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
              + M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
    return np.trace(M), minors, np.linalg.det(M)


def build_halfspace(orientation: str, ec: ElasticConstants,
                    k1: float, k2: float) -> HalfSpaceSystem:
    """Assemble the companion system at slip-plane frequency (k1, k2).

    For "perp" the frequency is (k1, k3) and the normal is x2; for
    "parallel" it is (k1, k2) with normal x3.  Each half-space comes from
    the ordered real Schur form A Z = Z S of the 6x6 companion matrix: the
    leading three Schur vectors span the decaying ("lhp") or growing
    ("rhp") solutions, whose values V = Z[:3, :3] and derivatives
    Z[3:, :3] = V S give the generator D = V S V^-1.  This basis does not
    depend on the Jordan structure, so r1 -> r2 (delta -> 1) needs no
    special case.  Raises for k = 0, and raises LinAlgError unless each
    leading block has three eigenvalues whose elementary symmetric functions
    match those of -+ the analytic rates (at 1e-10 |k|^j).
    """
    if orientation not in ("perp", "parallel"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if k1 == 0.0 and k2 == 0.0:
        raise ValueError("k = 0 has no decaying extension; handled separately")
    rep = validate(ec)
    if not rep.valid:
        raise ValueError(f"elastic constants violate ellipticity: {rep}")

    if orientation == "perp":
        M2, M1, M0 = _blocks_perp(ec, k1, k2)
        T = np.diag([1.0, 1.0j, 1.0])
    else:
        M2, M1, M0 = _blocks_parallel(ec, k1, k2)
        T = np.diag([1.0, 1.0, 1.0j])
    M2inv = np.diag(1.0 / np.diag(M2))
    A = np.block([[np.zeros((3, 3)), np.eye(3)],
                  [-M2inv @ M0, -M2inv @ M1]])

    r = _analytic_rates(orientation, ec, k1, k2)
    e_rates = (r[0] + r[1] + r[2], r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
               r[0] * r[1] * r[2])
    scale = math.hypot(k1, k2)
    D = {}
    for sort, sgn in (("lhp", -1.0), ("rhp", 1.0)):
        S, Z, sdim = scipy.linalg.schur(A, output="real", sort=sort)
        if sdim != 3:
            raise np.linalg.LinAlgError(
                f"{sort} Schur block has dimension {sdim}, not 3")
        # the characteristic polynomial of the block is well conditioned
        # even where single eigenvalues of a near-Jordan cluster are not
        e_num = _symmetric_functions(S[:3, :3])
        for j, (num, ana) in enumerate(zip(e_num, e_rates), start=1):
            if not abs(num - sgn ** j * ana) <= 1e-10 * scale ** j:
                raise np.linalg.LinAlgError(
                    f"companion spectrum mismatch ({sort}, e{j}): {num} "
                    f"vs {sgn ** j * ana}")
        D[sort] = Z[3:, :3] @ np.linalg.inv(Z[:3, :3])
    return HalfSpaceSystem(orientation=orientation, k=(k1, k2),
                           eigvals=np.concatenate([r, -r]),
                           D_decay=D["lhp"], D_grow=D["rhp"], T=T)


def normal_closure(sys: HalfSpaceSystem, ec: ElasticConstants,
                   u_a: complex, u_b: complex) -> complex:
    """Normal displacement component on Gamma from the two slip components.

    Continuity of the normal stress across the slip plane, combined with the
    mirror symmetry of the two half-space fields, forces the one-sided normal
    stress to vanish: sigma_nn(0+) = 0.  Solving that linear relation gives
    u_n^+ in terms of the in-plane components (u1, u3) ("perp") or (u1, u2)
    ("parallel").
    """
    c11, c13, c33, c44, c66 = ec.astuple()
    k1, k2 = sys.k
    D = sys.dbplus0()
    if sys.orientation == "perp":
        # sigma_22 = (C11 - 2 C66) eps11 + C11 eps22 + C13 eps33
        rhs = ((c11 - 2.0 * c66) * 1j * k1 * u_a + c13 * 1j * k2 * u_b
               + c11 * (D[1, 0] * u_a + D[1, 2] * u_b))
        return -rhs / (c11 * D[1, 1])
    # sigma_33 = C13 (eps11 + eps22) + C33 eps33
    rhs = (c13 * (1j * k1 * u_a + 1j * k2 * u_b)
           + c33 * (D[2, 0] * u_a + D[2, 1] * u_b))
    return -rhs / (c33 * D[2, 2])


@dataclass
class Field3D:
    """Displacement field sampled on slip-plane grid x normal coordinates.

    u has shape (3, n_normal, n1, n2); normal samples are sorted and the
    slip plane sits between the negative and nonnegative samples.  The
    component order is always the physical (u1, u2, u3).
    """

    orientation: str
    L1: float
    L2: float
    x_normal: np.ndarray
    u: np.ndarray
    ec: ElasticConstants = dfield(repr=False, default=None)

    def slip_axes(self):
        n1, n2 = self.u.shape[2], self.u.shape[3]
        a = -0.5 * self.L1 + self.L1 / n1 * np.arange(n1)
        b = -0.5 * self.L2 + self.L2 / n2 * np.arange(n2)
        return a, b

    def tofile(self, path_bin: str, path_header: str):
        """Flat little-endian float64 dump plus a JSON header."""
        import json
        arr = np.ascontiguousarray(self.u, dtype="<f8")
        arr.tofile(path_bin)
        n1, n2 = self.u.shape[2], self.u.shape[3]
        header = {
            "orientation": self.orientation,
            "dims": list(self.u.shape),
            "component_order": ["u1", "u2", "u3"],
            "slip_cell": [self.L1, self.L2],
            "slip_spacing": [self.L1 / n1, self.L2 / n2],
            "normal_samples": [float(v) for v in self.x_normal],
        }
        with open(path_header, "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")


def extend(orientation: str, ec: ElasticConstants,
           boundary_a: GridField2D, boundary_b: GridField2D,
           x_normal: Sequence[float]) -> Field3D:
    """Extend slip-plane displacement data into both half-spaces.

    boundary_a/boundary_b are the two in-plane displacement components on the
    upper face of the slip plane: (u1+, u3+) for "perp", (u1+, u2+) for
    "parallel".  The normal component follows from `normal_closure`.  The
    lower half-space uses u- = J u+ (slip jump conventions) with the
    growing-rate propagator; the zero frequency extends as a constant.
    Each frequency's propagators are evaluated over all normal samples of a
    half-space at once.
    """
    if boundary_a.shape != boundary_b.shape or \
            (boundary_a.L1, boundary_a.L2) != (boundary_b.L1, boundary_b.L2):
        raise ValueError("boundary components must share one grid")
    J = JUMP_PERP if orientation == "perp" else JUMP_PARALLEL
    n1, n2 = boundary_a.shape
    ka, kb = boundary_a.kgrid()
    ua_hat = np.fft.fft2(boundary_a.values)
    ub_hat = np.fft.fft2(boundary_b.values)
    x_normal = np.sort(np.asarray(x_normal, dtype=float))
    # sorted: samples [:i0] are below the slip plane, [i0:] above it
    i0 = int(np.searchsorted(x_normal, 0.0))
    x_minus, x_plus = x_normal[:i0], x_normal[i0:]

    out = np.zeros((3, len(x_normal), n1, n2), dtype=complex)
    slip_idx = (0, 2) if orientation == "perp" else (0, 1)
    normal_idx = 1 if orientation == "perp" else 2
    for i in range(n1):
        for j in range(n2):
            k1, k2 = float(ka[i, j]), float(kb[i, j])
            up = np.zeros(3, dtype=complex)
            up[slip_idx[0]] = ua_hat[i, j]
            up[slip_idx[1]] = ub_hat[i, j]
            if k1 == 0.0 and k2 == 0.0:
                out[:, i0:, i, j] = up[:, None]
                out[:, :i0, i, j] = (J @ up)[:, None]
                continue
            sys = build_halfspace(orientation, ec, k1, k2)
            up[normal_idx] = normal_closure(sys, ec, ua_hat[i, j],
                                            ub_hat[i, j])
            out[:, i0:, i, j] = (sys.bplus(x_plus) @ up).T
            out[:, :i0, i, j] = (sys.bminus(x_minus) @ (J @ up)).T

    vals = np.fft.ifft2(out, axes=(2, 3))
    imag = np.max(np.abs(vals.imag))
    scale = max(np.max(np.abs(vals.real)), 1e-300)
    if imag > 1e-8 * scale:
        raise ValueError(f"extension is not real (imag/real = "
                         f"{imag / scale:.3e}); boundary data must be real")
    return Field3D(orientation=orientation, L1=boundary_a.L1,
                   L2=boundary_a.L2, x_normal=x_normal, u=vals.real, ec=ec)


# 8th-order central finite-difference weights on a uniform grid
_D1_W8 = np.array([3.0, -32.0, 168.0, -672.0, 0.0,
                   672.0, -168.0, 32.0, -3.0]) / 840.0
_D2_W8 = np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0,
                   8064.0, -1008.0, 128.0, -9.0]) / 5040.0


def _fd_normal(f: np.ndarray, h: float, order_d: int) -> np.ndarray:
    """8th-order FD derivative along axis 0 (valid rows only, 4 lost per
    side); f may be any float array."""
    w = (_D1_W8 if order_d == 1 else _D2_W8) / h ** order_d
    out = np.zeros((f.shape[0] - 8,) + f.shape[1:])
    for s, ws in enumerate(w):
        out += ws * f[s:s + f.shape[0] - 8]
    return out


def _spectral_slip_derivs(u: np.ndarray, L1: float, L2: float):
    """First and second in-plane derivatives of (n_normal, n1, n2) samples of
    band-limited periodic data, by FFT (exact on the grid)."""
    n1, n2 = u.shape[-2], u.shape[-1]
    k1 = 2.0 * np.pi * np.fft.fftfreq(n1, d=L1 / n1)[:, None]
    k2 = 2.0 * np.pi * np.fft.fftfreq(n2, d=L2 / n2)[None, :]
    uh = np.fft.fft2(u, axes=(-2, -1))

    def back(m):
        return np.fft.ifft2(m * uh, axes=(-2, -1)).real

    return {"a": back(1j * k1), "b": back(1j * k2),
            "aa": back(-k1 ** 2), "bb": back(-k2 ** 2),
            "ab": back(-k1 * k2)}


def interior_residual(field: Field3D, margin: int = 4) -> float:
    """Max relative residual of the elastostatic system at interior points.

    Normal derivatives use 8th-order central differences on the (uniformly
    spaced) normal samples of one half-space; slip-plane derivatives are
    spectral (the data is band-limited on the periodic grid by construction).
    Points within `margin` layers of the slip plane or the outer edge are
    excluded.  The residual is normalized by the largest absolute term
    entering any equation row (per half-space).
    """
    ec = field.ec
    c11, c13, c33, c44, c66 = ec.astuple()
    worst = 0.0
    for half in (field.x_normal >= 0.0, field.x_normal < 0.0):
        xn = field.x_normal[half]
        if xn.size < 2 * margin + 1 + 8:
            raise ValueError("not enough normal samples for the FD stencil")
        hs = np.diff(xn)
        if np.max(np.abs(hs - hs[0])) > 1e-12 * abs(hs[0]):
            raise ValueError("normal samples must be uniformly spaced")
        h = hs[0]
        u = field.u[:, half]                       # (3, nn, n1, n2)
        sl = slice(4, u.shape[1] - 4)
        dn = np.stack([_fd_normal(u[c], h, 1) for c in range(3)])
        dnn = np.stack([_fd_normal(u[c], h, 2) for c in range(3)])
        d = _spectral_slip_derivs(u, field.L1, field.L2)

        if field.orientation == "perp":
            # slip axes (x1, x3), normal x2:  a = d/dx1, b = d/dx3
            terms = [
                [c11 * d["aa"][0][sl], c66 * dnn[0], c44 * d["bb"][0][sl],
                 (c11 - c66) * _fd_normal(d["a"][1], h, 1),
                 (c13 + c44) * d["ab"][2][sl]],
                [(c11 - c66) * _fd_normal(d["a"][0], h, 1),
                 c66 * d["aa"][1][sl], c11 * dnn[1], c44 * d["bb"][1][sl],
                 (c13 + c44) * _fd_normal(d["b"][2], h, 1)],
                [(c13 + c44) * d["ab"][0][sl],
                 (c13 + c44) * _fd_normal(d["b"][1], h, 1),
                 c44 * d["aa"][2][sl], c44 * dnn[2], c33 * d["bb"][2][sl]],
            ]
        else:
            # slip axes (x1, x2), normal x3
            terms = [
                [c11 * d["aa"][0][sl], c66 * d["bb"][0][sl], c44 * dnn[0],
                 (c11 - c66) * d["ab"][1][sl],
                 (c13 + c44) * _fd_normal(d["a"][2], h, 1)],
                [(c11 - c66) * d["ab"][0][sl], c66 * d["aa"][1][sl],
                 c11 * d["bb"][1][sl], c44 * dnn[1],
                 (c13 + c44) * _fd_normal(d["b"][2], h, 1)],
                [(c13 + c44) * _fd_normal(d["a"][0], h, 1),
                 (c13 + c44) * _fd_normal(d["b"][1], h, 1),
                 c44 * d["aa"][2][sl], c44 * d["bb"][2][sl], c33 * dnn[2]],
            ]
        # the FD stencil already drops 4 rows per side; trim any extra margin
        extra = margin - 4
        trim = slice(extra, -extra) if extra > 0 else slice(None)
        # normalize by the largest term over all equations: a row that is
        # identically zero for the given data must not divide noise by noise
        scale = max(max(np.max(np.abs(t[trim])) for t in row)
                    for row in terms)
        scale = max(scale, 1e-300)
        for row in terms:
            tot = sum(row)[trim]
            worst = max(worst, float(np.max(np.abs(tot)) / scale))
    return worst


def stress_strain(field: Field3D):
    """Strain and stress grids plus the elastic energy density.

    Strains use centered differences (numpy.gradient: one-sided at the slip
    plane and the outer faces, applied per half-space); stresses follow the
    transversely isotropic constitutive table with x3 the symmetry axis.
    Returns (strain, stress, density) with tensor index layout
    [i, j, normal, slip1, slip2].
    """
    ec = field.ec
    c11, c13, c33, c44, c66 = ec.astuple()
    c12 = c11 - 2.0 * c66
    n_n = field.x_normal.size
    shape = field.u.shape[1:]
    # gradients per physical axis: 0 <-> x1, 1 <-> x2, 2 <-> x3
    grads = np.zeros((3, 3) + shape)   # grads[c, axis] = d u_c / d x_axis
    a1, a2 = field.slip_axes()
    if field.orientation == "perp":
        axis_of = {0: a1, 2: a2}       # slip axes carry x1, x3; normal is x2
        slip_axis_idx = {0: 1, 2: 2}
        normal_axis = 1
    else:
        axis_of = {0: a1, 1: a2}
        slip_axis_idx = {0: 1, 1: 2}
        normal_axis = 2
    for c in range(3):
        for ax, coord in axis_of.items():
            grads[c, ax] = np.gradient(field.u[c], coord,
                                       axis=slip_axis_idx[ax])
        for half in (field.x_normal >= 0.0, field.x_normal < 0.0):
            if np.count_nonzero(half) >= 2:
                grads[c, normal_axis][half] = np.gradient(
                    field.u[c][half], field.x_normal[half], axis=0)
    strain = 0.5 * (grads + np.transpose(grads, (1, 0, 2, 3, 4)))
    e11, e22, e33 = strain[0, 0], strain[1, 1], strain[2, 2]
    stress = np.zeros_like(strain)
    stress[0, 0] = c11 * e11 + c12 * e22 + c13 * e33
    stress[1, 1] = c12 * e11 + c11 * e22 + c13 * e33
    stress[2, 2] = c13 * (e11 + e22) + c33 * e33
    stress[0, 1] = stress[1, 0] = 2.0 * c66 * strain[0, 1]
    stress[0, 2] = stress[2, 0] = 2.0 * c44 * strain[0, 2]
    stress[1, 2] = stress[2, 1] = 2.0 * c44 * strain[1, 2]
    density = 0.5 * np.einsum("ij...,ij...->...", stress, strain)
    return strain, stress, density
