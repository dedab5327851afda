"""Seeded inputs: materials, band-limited fields, directions, potentials.

Everything here is drawn from a numpy Generator seeded by the benchmark's
--seed; pndislo receives only the objects these functions return.  Materials
are small jitters of fixed anchors, so every seed sees the same kinds of
problems (and the same cost) while the numbers differ.
"""

import math

import numpy as np

from pndislo.moduli import ElasticConstants
from pndislo.nonlocal_ops import GridField2D

# (nu, delta) anchors inside both the case-I and the case-II positivity
# windows; NU_JITTER / DELTA_JITTER keep every draw inside.
PERP_INSIDE = ((0.2, 1.5), (0.25, 1.0), (0.0, 1.0), (0.1, 0.3), (-0.1, 0.5),
               (0.2, 0.6))
# screening anchors: inside both windows, inside one, inside none
PERP_SCREEN = PERP_INSIDE + ((0.35, 2.5), (-0.5, 0.6), (-0.6, 1.0),
                             (0.45, 1.2), (-0.8, 0.8), (0.4, 1.8))
NU_JITTER, DELTA_JITTER = 0.02, 0.03
# five constants (C11, C13, C33, C44, C66) with 2/3 < eta1/eta2 < 3/2 under a
# relative jitter of CONST_JITTER on each constant
PARALLEL_INSIDE = ((3.0, 1.0, 3.0, 1.0, 1.0), (3.2, 1.1, 2.8, 1.0, 1.1),
                   (2.6, 0.8, 3.0, 1.1, 0.9), (4.0, 1.5, 3.5, 1.2, 1.3),
                   (5.0, 1.0, 2.0, 1.0, 2.5), (2.0, 0.5, 4.0, 1.5, 0.5))
CONST_JITTER = 0.03


def generator(seed, stream, index):
    """Independent generator per (seed, stream name, task index)."""
    return np.random.default_rng([seed, index, *stream.encode()])


def perp_material(rng, anchor, jitter=1.0):
    """Constants satisfying the perpendicular-case special condition
    (C11 = C33, sqrt(C11 C33) - C13 - 2 C44 = 0) near an (nu, delta) anchor;
    `jitter` scales the spread around the anchor."""
    nu = anchor[0] + jitter * rng.uniform(-NU_JITTER, NU_JITTER)
    delta = anchor[1] * (1.0 + jitter * rng.uniform(-DELTA_JITTER,
                                                    DELTA_JITTER))
    mu = rng.uniform(0.8, 1.25)
    lam = 2.0 * mu / (1.0 - 2.0 * nu)
    return ElasticConstants(lam * (1.0 - nu), lam * nu, lam * (1.0 - nu), mu,
                            delta * mu)


def parallel_material(rng, anchor, jitter=1.0):
    return ElasticConstants(*(c * (1.0 + jitter * rng.uniform(-CONST_JITTER,
                                                              CONST_JITTER))
                              for c in anchor))


def band_limited_field(rng, n, L, kmax):
    """Real field on an n x n periodic cell: every Fourier mode with integer
    wavenumbers |m1|, |m2| <= kmax gets a unit coefficient of random phase,
    and its Hermitian partner the conjugate.  Equal weights keep accuracy
    figures, which the highest modes set, alike from draw to draw.  Scaled
    to max |u| = 1."""
    c = np.zeros((n, n), dtype=complex)
    for a in range(-kmax, kmax + 1):
        for b in range(-kmax, kmax + 1):
            if (a, b) > (0, 0):    # one of each +-(a, b) pair
                z = complex(np.exp(2j * np.pi * rng.uniform()))
                c[a % n, b % n] = z
                c[-a % n, -b % n] = z.conjugate()
    u = np.fft.ifft2(c).real
    return GridField2D(L, L, u / np.max(np.abs(u)))


def direction(rng, center, half_width=0.1):
    """Unit-direction angle theta in (-pi/2, pi/2) near `center`."""
    return float(np.clip(center + rng.uniform(-half_width, half_width),
                         -0.5 * math.pi + 0.05, 0.5 * math.pi - 0.05))


def potential_scale(rng, base, rel=0.1):
    return float(base * (1.0 + rng.uniform(-rel, rel)))
