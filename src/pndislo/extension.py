"""Elastic extension of slip-plane data into the half-spaces.

One operator, div C grad u = 0, for the stiffness tensor C_ijkl of
`moduli.stiffness` (x3 the symmetry axis), serves both slip planes; they
differ only in the normal axis n of `NORMAL_AXIS`: x2 for "perp" (slip axes
x1, x3), x3 for "parallel" (slip axes x1, x2).  The companion matrices, the
normal closure, the interior residual and the stress all come from C_ijkl
and n.  Per slip-plane frequency k the displacement amplitude solves
M2 w'' + M1 w' + M0 w = 0 in the normal coordinate, in the real variables
w = T u, T = diag(i on n, 1 on the slip axes).  The companion matrix has
eigenvalues {+-r1, +-r2, +-r2} (perp, r1 = r2 at delta = 1) or
+-theta_i |k| (parallel, maybe a complex pair), the rates r known in closed
form.  The cubic with the growing rates as roots annihilates the growing
subspace whatever its Jordan structure, so, for all nonzero frequencies at
once, its value at the companion matrix maps onto the decaying solutions
{(w, D w)} and gives their generator D; and exp(D xn), the propagator Bplus
in w, is the quadratic in D that interpolates e^(lambda xn) at the same
rates, applied to the boundary vectors in closed form.  `normal_closure`
gives the normal displacement.

The slip plane is a mirror plane: reflection flips the sign of M1, the only
block coupling u_n to the slip components, so u(xn) -> J u(-xn), J = diag(+1
on n, -1 on the slip axes), maps solutions to solutions.  The growing
generator is -J D J, and Bminus(xn) = J Bplus(-xn) J.  Slip-plane data is
real: `extend` uses the rfft2 half spectrum, slip derivatives m x m matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kernels import _fd_weights
from .moduli import ElasticConstants, derive_parallel, derive_perp, stiffness
from .nonlocal_ops import GridField2D
from .symbols import roots_r

#: axis normal to the slip plane; x3 is the symmetry axis
NORMAL_AXIS = {"perp": 1, "parallel": 2}


def _axes(orientation: str):
    """Normal axis n, the slip axes (the other two, in order), the diagonal
    of T, physical -> transformed variables w = T u, and that of the mirror
    J (+1 on n, -1 on the slip axes)."""
    if orientation not in NORMAL_AXIS:
        raise ValueError(f"unknown orientation {orientation!r}")
    n = NORMAL_AXIS[orientation]
    on_n = np.arange(3) == n
    return (n, tuple(a for a in range(3) if a != n),
            np.where(on_n, 1j, 1.0), np.where(on_n, 1.0, -1.0))


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2 = sum z^n/(n+2)!, by that series for |z| < 1e-2."""
    zs = np.where(small := np.abs(z) < 1e-2, 1.0, z)
    series = np.polyval([1.0 / math.factorial(n) for n in range(8, 1, -1)], z)
    return np.where(small, series, (np.expm1(zs) - zs) / zs ** 2)


def _pair(mux: np.ndarray, y: np.ndarray):
    """e^mux cosh(s), e^mux sinh(s)/s for s = sqrt(y), y real of either sign
    (series for |y| < 1e-3); via e^(mux +- s), whose Re <= 0: no overflow."""
    s = np.sqrt(np.where(small := np.abs(y) < 1e-3, 1.0, y) + 0j)
    ep, e = np.exp(mux + s), np.exp(mux)
    ser = [e * np.polyval([1.0 / math.factorial(n) for n in range(n0, -1, -2)],
                          y) for n0 in (8, 9)]
    return (np.where(small, ser[0], 0.5 * (ep + np.exp(mux - s)).real),
            np.where(small, ser[1], (-ep * np.expm1(-2.0 * s) / (2 * s)).real))


@dataclass
class HalfSpaceSystem:
    """Half-space ODE at one frequency or a stack of them (leading axes of
    k, eigvals and D_decay): D_decay is the real 3x3 generator of the
    decaying solutions in transformed variables, w' = D w; the growing one
    is -J D_decay J."""

    orientation: str                      # "perp" | "parallel"
    k: tuple                              # (k1, k2)
    eigvals: np.ndarray                   # analytic decay rates r (3)
    D_decay: np.ndarray                   # Re(spectrum) < 0 (upper half)
    stats: dict = dfield(default_factory=dict)   # what `build_halfspace` did

    def propagate(self, x, w: np.ndarray) -> np.ndarray:
        """exp(D_decay x) w in transformed variables, in closed form: x of
        shape (X,), w (..., 3, m) with the frequency axes leading, result
        (..., X, 3, m)."""
        D = self.D_decay
        r, x, Dw = self.eigvals, np.asarray(x, dtype=float), D @ w
        if self.orientation == "perp":
            # nodes (-r2, -r2, -r1); N = D + r2 I
            r1, r2 = r[..., 0].real, r[..., 1].real
            Nw = Dw + r2[..., None, None] * w
            N2w = D @ Nw + r2[..., None, None] * Nw
            e = np.exp(-r2[..., None] * x)
            # z > 700 only where e = exp(-r2 x) underflows to 0, because
            # r1 > r2/2 for 0 < delta < 4
            z = np.minimum((r2 - r1)[..., None] * x, 700.0)
            terms = ((e, w), (e * x, Nw), (e * x * x * _phi2(z), N2w))
        else:
            # SH node a = -theta1 |k| on k_perp/|k|, exactly decoupled;
            # the coupled pair mu +- sqrt(q) is real or complex conjugate
            a = -r[..., 0].real
            mu = -0.5 * (r[..., 1] + r[..., 2]).real
            q = 0.25 * ((r[..., 1] - r[..., 2]) ** 2).real
            eC, eS = _pair(mu[..., None] * x, q[..., None] * x * x)
            # h(lambda) = eC + x eS (lambda - mu) interpolates the pair
            h_a = eC + x * eS * (a - mu)[..., None]
            k1, k2 = self.k
            sh = np.stack([-k2, k1, 0 * k1], -1) / np.hypot(k1, k2)[..., None]
            Pw = np.einsum("...i,...j,...jm->...im", sh, sh, w)
            terms = ((eC, w), (x * eS, Dw - mu[..., None, None] * w),
                     (np.exp(a[..., None] * x) - h_a, Pw))
        # coefficients (..., X) times vectors (..., 3, m)
        return sum(c[..., None, None] * v[..., None, :, :] for c, v in terms)

    def bplus(self, xn) -> np.ndarray:
        """Upper half-space propagator (physical variables): 3x3 for a
        scalar xn, shape S + (3, 3) for an array of shape S."""
        # closed form on the columns of T, then T^-1 on the left
        x, t = np.asarray(xn, dtype=float), _axes(self.orientation)[2]
        B = self.propagate(x.ravel(), np.diag(t)) / t[:, None]
        return B.reshape(B.shape[:-3] + x.shape + (3, 3))

    def bminus(self, xn) -> np.ndarray:
        """Lower half-space propagator, J bplus(-xn) J; xn as in `bplus`."""
        J = _axes(self.orientation)[3]
        return J[:, None] * self.bplus(-np.asarray(xn, dtype=float)) * J

    def dbplus0(self) -> np.ndarray:
        """d/dxn of bplus at 0."""
        t = _axes(self.orientation)[2]
        return self.D_decay * (t / t[:, None])


def _companion(orientation: str, ec: ElasticConstants, k1, k2):
    """Companion matrices [[0, I], [-M2^-1 M0, -M2^-1 M1]] at (k1, k2) on
    the slip axes.  C_ijkl vanishes unless every axis occurs an even number
    of times, so M2 = C_inkn is diagonal, and M1 = i (C_inks + C_iskn) k_s
    couples u_n only to the slip components: in w its i becomes -1 on row n
    and +1 on column n.  M0 = -C_iskt k_s k_t."""
    n, slip = _axes(orientation)[:2]
    C, k = stiffness(ec), np.stack([k1, k2], -1)
    Cs = C[:, slip][..., slip]                      # (i, s, k, t)
    M0 = -np.tensordot(k[..., :, None] * k[..., None, :],
                       Cs.transpose(1, 3, 0, 2), 2)
    G = C[:, n][..., slip] + C[:, slip][..., n].transpose(0, 2, 1)
    M1 = np.tensordot(k, G.transpose(2, 0, 1), 1) \
        * np.where(np.arange(3) == n, -1.0, 1.0)[:, None]
    low = -np.concatenate([M0, M1], -1) / np.diagonal(C[:, n, :, n])[:, None]
    return np.concatenate([np.broadcast_to(np.eye(3, 6, 3), low.shape), low],
                          axis=-2)


def _analytic_rates(orientation: str, ec: ElasticConstants, k1, k2):
    """The three decay rates (Re > 0) at frequencies k1, k2: k1.shape + (3,)"""
    if orientation == "perp":
        r1, kk = roots_r(derive_perp(ec), k1, k2)
        return np.stack([r1, kk, kk], axis=-1).astype(complex)
    dpar = derive_parallel(ec)
    return np.multiply.outer(np.hypot(k1, k2),
                             [dpar.theta1, dpar.theta2, dpar.theta3])


def _symmetric_functions(M: np.ndarray):
    """Trace, sum of principal 2x2 minors and determinant of a stack of 3x3
    matrices: the elementary symmetric functions of their eigenvalues."""
    tr = np.trace(M, axis1=-2, axis2=-1)
    return (tr, 0.5 * (tr * tr - np.einsum("...ij,...ji->...", M, M)),
            np.linalg.det(M))


def build_halfspace(orientation: str, ec: ElasticConstants,
                    k1, k2) -> HalfSpaceSystem:
    """The half-space system at nonzero slip-plane frequencies k1, k2
    (scalars or arrays of one shape): (k1, k3), normal x2, for "perp";
    (k1, k2), normal x3, for "parallel".  D(k) = |k| D(k/|k|): at the unit
    direction, with A the companion matrix and q(x) = x^3 - c1 x^2 + c2 x -
    c3 the cubic whose roots are the growing rates r/|k|, q(A) vanishes on
    the growing subspace, so the columns X = q(A) [I; 0] lie in {(w, D w)}
    and D = X_bot X_top^-1 (X_top is invertible: no growing solution starts
    at w' = 0).  Raises LinAlgError unless the elementary symmetric
    functions e_j of every D match those of minus the analytic rates to
    1e-10 |k|^j; stats has the frequencies and the spectrum_mismatch, the
    largest mismatch over |k|^j."""
    k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
    kk = np.hypot(k1, k2)
    if not np.all(kk > 0.0):
        raise ValueError("k = 0 has no decaying extension; handled separately")
    r = _analytic_rates(orientation, ec, k1, k2)   # validates ec
    e_rates = _symmetric_functions(r[..., None, :] * np.eye(3))   # of diag(r)
    c1, c2, c3 = ((e / kk ** j).real[..., None, None]
                  for j, e in enumerate(e_rates, 1))
    # q(A) [I; 0] by Horner, at k/|k|: A(k) has entries of order |k|^2
    A, E = _companion(orientation, ec, k1 / kk, k2 / kk), np.eye(6, 3)
    X = A @ (A @ (A[..., :3] - c1 * E) + c2 * E) - c3 * E
    # D X_top = X_bot, solved as X_top^T D^T = X_bot^T
    D = kk[..., None, None] * np.linalg.solve(
        X[..., :3, :].swapaxes(-1, -2), X[..., 3:, :].swapaxes(-1, -2)
    ).swapaxes(-1, -2)
    worst = 0.0
    for j, (num, ana) in enumerate(zip(_symmetric_functions(D), e_rates), 1):
        err = np.abs(num - (-1) ** j * ana)
        bad = np.flatnonzero(~(err <= 1e-10 * kk ** j))   # NaN is bad
        if bad.size:
            raise np.linalg.LinAlgError(
                f"companion spectrum mismatch (e{j}) at k = "
                f"{k1.flat[bad[0]]}, {k2.flat[bad[0]]}")
        worst = max(worst, float(np.max(err / kk ** j, initial=0.0)))
    return HalfSpaceSystem(orientation, (k1, k2), r, D, {
        "frequencies": int(kk.size), "spectrum_mismatch": worst})


def normal_closure(sys: HalfSpaceSystem, ec: ElasticConstants, u_a, u_b):
    """Normal displacement on Gamma from the slip components (u1, u3)
    ("perp") or (u1, u2) ("parallel"), at the frequencies of `sys`.

    Continuity of the normal stress across the slip plane, combined with the
    mirror symmetry of the two half-space fields, forces the one-sided normal
    stress to vanish: sigma_nn(0+) = C_nnkl d_l u_k = 0, with d_n = dbplus0()
    and d_s = i k_s, a linear relation for u_n^+.
    """
    n, (sa, sb) = _axes(sys.orientation)[:2]
    C = stiffness(ec)[n, n]
    # sigma_nn = row . u
    row = C[:, n] @ sys.dbplus0() + 1j * np.stack(sys.k, -1) @ C[:, [sa, sb]].T
    return -(row[..., sa] * u_a + row[..., sb] * u_b) / row[..., n]


def traction_map(orientation: str, ec: ElasticConstants, k1, k2):
    """The 3D slip-plane traction map -2 sigma_sn(0+) of unit slip data at
    nonzero frequencies k1, k2: shape k1.shape + (2, 2), columns the slip
    axes.  u_n from `normal_closure`, d_n = dbplus0() and d_s = i k_s."""
    sys = build_halfspace(orientation, ec, k1, k2)
    n, slip = _axes(orientation)[:2]
    U = np.zeros(np.shape(k1) + (3, 2), dtype=complex)
    U[..., slip, [0, 1]] = 1.0
    U[..., n, :] = np.stack([normal_closure(sys, ec, *u)
                             for u in ((1.0, 0.0), (0.0, 1.0))], -1)
    C = stiffness(ec)[slip, n]                      # C_snkl
    grad = C[..., n] @ sys.dbplus0() + 1j * np.einsum(
        "skt,...t->...sk", C[..., slip], np.stack([k1, k2], -1))
    return -2.0 * grad @ U


@dataclass
class Field3D:
    """Displacement field sampled on slip-plane grid x normal coordinates.

    u has shape (3, n_normal, n1, n2); normal samples are sorted and the
    slip plane sits between the negative and nonnegative samples.  The
    component order is always the physical (u1, u2, u3).  du_normal is the
    exact d u / d xn (from above at xn = 0) that `stress_strain` reads.
    """

    orientation: str
    L1: float
    L2: float
    x_normal: np.ndarray
    u: np.ndarray
    du_normal: np.ndarray = dfield(repr=False, default=None)
    ec: ElasticConstants = dfield(repr=False, default=None)
    stats: dict = dfield(default_factory=dict)     # what `extend` computed

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
    upper field is propagated once per distinct |xn| and the lower one is
    its mirror image u(-xn) = J u(xn), the slip jump u- = J u+ at the plane;
    the zero frequency extends as a constant.  du_normal = D exp(D xn) w,
    the generator times the propagated vectors, mirrored by -J below.  A
    grid cannot hold the odd part of a Nyquist mode, so Nyquist content is
    a ValueError.  The field's stats are those of `build_halfspace`.
    """
    if boundary_a.shape != boundary_b.shape or \
            (boundary_a.L1, boundary_a.L2) != (boundary_b.L1, boundary_b.L2):
        raise ValueError("boundary components must share one grid")
    n, (sa, sb), t, J = _axes(orientation)
    (n1, n2), (ka, kb) = boundary_a.shape, boundary_a.kgrid()
    up = np.zeros((3,) + ka.shape, dtype=complex)
    up[[sa, sb]] = np.fft.rfft2([boundary_a.values, boundary_b.values])
    nyquist = max(np.max(np.abs(up[:, n1 // 2])), np.max(np.abs(up[..., -1])))
    if nyquist > 1e-12 * np.max(np.abs(up)):
        raise ValueError("boundary data has content at the Nyquist frequency, "
                         "which the grid cannot extend")
    nz = (ka != 0.0) | (kb != 0.0)
    sys = build_halfspace(orientation, ec, ka[nz], kb[nz])
    up[n][nz] = normal_closure(sys, ec, up[sa][nz], up[sb][nz])
    x_normal = np.sort(np.asarray(x_normal, dtype=float))
    xa, back = np.unique(np.abs(x_normal), return_inverse=True)
    # [u, du_normal] half spectra; the zero frequency has no derivative
    out = np.zeros((2, 3, xa.size) + ka.shape, dtype=complex)
    out[0] = up[:, None]
    w = sys.propagate(xa, (t[:, None] * up[:, nz]).T[..., None])[..., 0]
    w = w.swapaxes(1, 2)                # (frequency, component, |xn|)
    for o, v in zip(out, (w, sys.D_decay @ w)):
        o[:, :, nz] = (v / t[:, None]).transpose(1, 2, 0)
    # the k2 = 0 column holds +-k1 pairs that were both computed
    odd = np.abs(out[..., 1:n1 // 2, 0] - np.conj(out[..., :n1 // 2:-1, 0]))
    odd = np.max(odd, initial=0.0) / max(np.max(np.abs(out)), 1e-300)
    if odd > 1e-8:
        raise ValueError(f"extension is not real (+-k mismatch {odd:.3e})")
    u, du = np.fft.irfft2(out, s=(n1, n2), axes=(3, 4))[:, :, back]
    u[:, x_normal < 0.0] *= J[:, None, None, None]
    du[:, x_normal < 0.0] *= -J[:, None, None, None]
    return Field3D(orientation=orientation, L1=boundary_a.L1,
                   L2=boundary_a.L2, x_normal=x_normal, u=u, du_normal=du,
                   ec=ec, stats=sys.stats)


# 8th-order central finite-difference weights on a uniform grid
_D1_W8, _D2_W8 = (np.array(_fd_weights(m, 4)[1]) for m in (1, 2))


def _fd_normal(f: np.ndarray, h: float, order_d: int) -> np.ndarray:
    """8th-order FD derivative along axis 0 (valid rows only, 4 lost per
    side); f may be any float array."""
    w = (_D1_W8 if order_d == 1 else _D2_W8) / h ** order_d
    out = np.zeros((f.shape[0] - 8,) + f.shape[1:])
    for s, ws in enumerate(w):
        out += ws * f[s:s + f.shape[0] - 8]
    return out


@lru_cache(maxsize=16)
def _slip_derivative(m: int, L: float, order: int) -> np.ndarray:
    """m x m matrix irfft((ik)^order rfft(I)) of d^order/dx^order, order 1
    or 2, on m periodic samples over L (order 1 zeroes the Nyquist mode).
    Cached per (m, L, order) and shared by every caller, so read-only."""
    ik = 2j * np.pi * np.fft.rfftfreq(m, d=L / m)[:, None]
    D = np.fft.irfft(ik ** order * np.fft.rfft(np.eye(m), axis=0), m, 0)
    D.setflags(write=False)
    return D


def interior_residual(field: Field3D) -> float:
    """Max relative residual of the elastostatic system at interior points.

    Row i is the sum over components k and axis pairs j <= l of
    (C_ijkl + [j != l] C_ilkj) d_j d_l u_k, nonzero coefficients only.
    Normal derivatives use 8th-order central differences on the (uniformly
    spaced) normal samples of one half-space; slip-plane derivatives are
    spectral, by the `_slip_derivative` matrices (the data is band-limited on
    the periodic grid by construction).  Points within 4 layers (the
    stencil's half-width) of the slip plane or the outer edge are excluded.
    The residual is normalized by the largest absolute term entering any
    equation row (per half-space).  At normal spacing 0.1 its roundoff floor
    is near 1e-12: residuals that small differ by roundoff, not accuracy.
    """
    sa, sb = _axes(field.orientation)[1]
    C = stiffness(field.ec)
    terms = [(i, k, j, l, c) for i in range(3) for k in range(3)
             for j in range(3) for l in range(j, 3)
             if (c := C[i, j, k, l] + (j != l) * C[i, l, k, j]) != 0.0]
    Da, Db = ({p: _slip_derivative(m, L, p) for p in (1, 2)}
              for m, L in zip(field.u.shape[2:], (field.L1, field.L2)))
    worst = 0.0
    for half in (field.x_normal >= 0.0, field.x_normal < 0.0):
        xn = field.x_normal[half]
        if xn.size < 17:          # 4 layers per side + a 9-point stencil
            raise ValueError("not enough normal samples for the FD stencil")
        hs = np.diff(xn)
        if np.max(np.abs(hs - hs[0])) > 1e-12 * abs(hs[0]):
            raise ValueError("normal samples must be uniformly spaced")
        u = field.u[:, half]                       # (3, nn, n1, n2)
        fields = {}       # d_j d_l u_k by (k, orders on sa, sb), formed once
        rows = [[], [], []]
        for i, k, j, l, c in terms:
            oa, ob = (j == sa) + (l == sa), (j == sb) + (l == sb)
            if (k, oa, ob) not in fields:
                on_n = 2 - oa - ob
                d = u[k] if on_n else u[k, 4:-4]
                d = Da[oa] @ d if oa else d
                d = d @ Db[ob].T if ob else d
                fields[k, oa, ob] = _fd_normal(d, hs[0], on_n) if on_n else d
            rows[i].append(c * fields[k, oa, ob])
        # normalize by the largest term over all equations: a row that is
        # identically zero for the given data must not divide noise by noise
        scale = max(max(np.max(np.abs(t)) for t in row) for row in rows)
        scale = max(scale, 1e-300)
        for row in rows:
            worst = max(worst, float(np.max(np.abs(sum(row))) / scale))
    return worst


def stress_strain(field: Field3D):
    """Strain and stress grids plus the elastic energy density.

    Slip-axis derivatives are spectral, one `_slip_derivative` matrix per
    slip axis; the normal one is the field's exact du_normal, so the stress
    at xn = 0 is the one-sided slip-plane traction from above (a field
    without du_normal is a ValueError).  stress = C : strain.  Returns
    (strain, stress, density), index layout [i, j, normal, slip1, slip2].
    """
    if field.du_normal is None:
        raise ValueError("the field has no normal derivative du_normal; "
                         "`extend` records it")
    n, slip = _axes(field.orientation)[:2]
    grads = np.zeros((3, 3) + field.u.shape[1:])   # d u_k / d x_l at [k, l]
    for a, (s, L) in enumerate(zip(slip, (field.L1, field.L2))):
        D = _slip_derivative(field.u.shape[2 + a], L, 1)
        grads[:, s] = D @ field.u if a == 0 else field.u @ D.T
    grads[:, n] = field.du_normal
    strain = 0.5 * (grads + np.transpose(grads, (1, 0, 2, 3, 4)))
    stress = np.tensordot(stiffness(field.ec), strain, 2)
    density = 0.5 * np.einsum("ij...,ij...->...", stress, strain)
    return strain, stress, density
