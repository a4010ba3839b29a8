"""Vectors, frames, ray/plane coordinates, and quadrature rules on S^1 and S^2.

All vectors are plain numpy arrays of shape (3,) (or batches (..., 3));
complex field values use the same shapes with complex dtype.  Everything in
this module is pure and safe to share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

UNIT_TOL = 1e-12
FOOT_TOL = 1e-10
# Directions with |z x d| at most this use the Gram-Schmidt pole frame.
POLAR_CAP = 1e-8
NEAR_ZERO = "cannot normalize a near-zero vector"
NOT_FINITE = "cannot normalize a vector whose norm is not finite"
SKEW_FOOT = "ray foot point is not orthogonal to its direction"


def refuse(error, bad: np.ndarray, message: str):
    """Raise error(message) if bad flags a row, the first one's flat index as its row."""
    if np.any(bad):
        e = error(message)
        e.row = int(np.argmax(bad))
        raise e


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of a (..., n) dotted with b (n,), or one dot per row with b (..., n):
    each row's with the bits of its 1-D a @ b."""
    return a @ b if b.ndim == 1 else (a[..., None, :] @ b[..., None])[..., 0, 0]


def check_norms(n: np.ndarray, *more) -> None:
    """Refuse the first row whose norm n (...) is not finite (its squares overflow) or is
    near zero, or that a further (flags, message) pair flags: ValueError with the message
    of the row's first fault in that order, and the row as its row."""
    faults = [(~np.isfinite(n), NOT_FINITE), (n < UNIT_TOL, NEAR_ZERO), *more]
    bad = np.logical_or.reduce([flags for flags, _ in faults])
    if np.any(bad):
        i = np.argmax(bad)
        refuse(ValueError, bad, next(message for flags, message in faults if flags.flat[i]))


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit vector(s) along v (..., 3).  Rejects near-zero input, and input whose
    norm is not finite, rather than guessing: ValueError, with the first such row
    as its row."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):   # an overflowing norm is refused, not warned of
        n = np.linalg.norm(v, axis=-1, keepdims=True)
    check_norms(n[..., 0])
    return v / n


def direction(v) -> np.ndarray:
    """Validated unit direction (shape (3,))."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction expects shape (3,), got {v.shape}")
    return normalize(v)


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal frame (e1, e2, e3)."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray


def unit_rows(v: np.ndarray) -> np.ndarray:
    """v (..., 3) normalized, except rows already unit to rounding, kept as given.

    So a unit direction has the same bits whichever route receives it.
    """
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n < UNIT_TOL):
        raise ValueError(NEAR_ZERO)
    return np.where(np.abs(n - 1.0) <= 1e-15, v, v / n)


def frame_for(d) -> Frame:
    """Deterministic right-handed frame (e1, e2, d) adapted to direction d.

    A batch of one of frames_for_many, so the scalar and the batched routes of
    a transform build the same bits.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"direction expects shape (3,), got {d.shape}")
    d = unit_rows(d)
    e1, e2 = frames_for_many(d[None])
    return Frame(e1[0], e2[0], d)


def polar_cap(dirs: np.ndarray) -> np.ndarray:
    """True where |z x d| <= POLAR_CAP for directions (..., 3).

    There the frame falls back to Gram-Schmidt and is not z-equivariant.
    """
    dirs = np.asarray(dirs, dtype=float)
    x, y = dirs[..., 0], dirs[..., 1]
    return np.sqrt(x * x + y * y) <= POLAR_CAP


def frames_for_many(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames (e1, e2) for unit directions (..., 3), with e3 = d.

    e1 = normalize(z x d) outside the polar cap; inside it, e1 is x made
    orthogonal to d by one Gram-Schmidt step.  e2 = d x e1.  Outside the cap
    the frame is z-equivariant: the frame of R d is R applied to the frame of
    d for every rotation R about z.

    Computed on contiguous copies of the components, with the roundings of
    the vector forms (|v| = sqrt((v_x^2 + v_y^2) + v_z^2), each cross-product
    component a difference of two products), so the bits match them.
    """
    dirs = np.asarray(dirs, dtype=float)
    single = dirs.ndim == 1
    if single:
        dirs = dirs[None]
    x, y, z = (np.array(dirs[..., i]) for i in range(3))
    n = x * x
    n += y * y
    np.sqrt(n, out=n)                          # |z x d|, z x d = (-y, x, 0)
    polar = n <= POLAR_CAP
    any_polar = polar.any()
    if any_polar:
        n[polar] = 1.0
    a = np.divide(y, n)
    np.negative(a, out=a)
    b = np.divide(x, n, out=n)
    c = 0.0                                    # e1_z outside the cap
    e1, e2 = np.empty(dirs.shape), np.empty(dirs.shape)
    e1[..., 0], e1[..., 1], e1[..., 2] = a, b, c
    if any_polar:
        d = dirs[polar]
        e1[polar] = normalize(np.array([1.0, 0.0, 0.0]) - d[:, 0:1] * d)
        a, b, c = (np.array(e1[..., i]) for i in range(3))
    for i, (p, q, r, t) in enumerate(((y, c, z, b), (z, a, x, c), (x, b, y, a))):
        np.subtract(p * q, r * t, out=e2[..., i])
    return (e1[0], e2[0]) if single else (e1, e2)


@dataclass(frozen=True)
class Ray:
    """Oriented line: unit direction theta and foot point with foot.theta = 0."""

    theta: np.ndarray
    foot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", direction(self.theta))
        foot = np.asarray(self.foot, dtype=float)
        if abs(float(foot @ self.theta)) > FOOT_TOL:
            raise ValueError(SKEW_FOOT)
        object.__setattr__(self, "foot", foot)

    @staticmethod
    def through(theta, x) -> "Ray":
        """Ray through x along theta, with foot = x - (x.theta) theta."""
        theta = direction(theta)
        x = np.asarray(x, dtype=float)
        return Ray(theta=theta, foot=x - (x @ theta) * theta)


def cylindrical_frame(az: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cylindrical unit vectors e_r(az), e_az(az) (..., 3) at azimuths az and e_z."""
    cos, sin, zero = np.cos(az), np.sin(az), np.zeros_like(az)
    return (np.stack([cos, sin, zero], axis=-1), np.stack([-sin, cos, zero], axis=-1),
            np.array([0.0, 0.0, 1.0]))


def _unit(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v (N, 3) normalized as normalize does, and their norms (N,); rows
    that normalize would refuse come back as zeros."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v, axis=-1)
    return v / np.where((n >= UNIT_TOL) & np.isfinite(n), n, np.inf)[:, None], n


def rays_through(thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions and feet (N, 3) of the rays along thetas (N, 3) through xs (N, 3).

    Row i has the bits of Ray.through(thetas[i], xs[i]): theta normalized, the
    foot projected with that theta, theta normalized again and the foot checked
    against it.  The first row Ray.through refuses raises its ValueError, with
    that row as its row.
    """
    x = np.asarray(xs, dtype=float)
    once, n = _unit(np.asarray(thetas, dtype=float))
    foot = x - dot_rows(x, once)[:, None] * once
    theta, _ = _unit(once)   # a unit row's norm is 1 to rounding: only n can refuse
    check_norms(n, (np.abs(dot_rows(foot, theta)) > FOOT_TOL, SKEW_FOOT))
    return theta, foot


@dataclass(frozen=True)
class Plane:
    """Hyperplane {y : kappa.y = p} with unit normal kappa and signed offset p."""

    p: float
    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa", direction(self.kappa))
        object.__setattr__(self, "p", float(self.p))


@functools.lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True)
class SphereQuadrature:
    """Quadrature nodes/weights for integrals over the unit sphere."""

    nodes: np.ndarray          # (N, 3) unit vectors
    weights: np.ndarray        # (N,), sum to 4 pi

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("sphere quadrature weights must be positive")
        if abs(float(w.sum()) - 4.0 * np.pi) > 1e-10:
            raise ValueError("sphere quadrature weights must sum to 4 pi")


def make_sphere_quadrature(L: int) -> SphereQuadrature:
    """Product rule: Gauss-Legendre with L nodes in cos(polar) x 2L azimuths.

    Integrates every spherical harmonic of degree < L exactly (to rounding).
    """
    if L < 2:
        raise ValueError("sphere quadrature needs L >= 2")
    u, wu = leggauss(L)
    n_psi = 2 * L
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
    s = np.sqrt(1.0 - u**2)
    nodes = np.stack(
        [
            np.outer(s, np.cos(psi)).ravel(),
            np.outer(s, np.sin(psi)).ravel(),
            np.outer(u, np.ones(n_psi)).ravel(),
        ],
        axis=-1,
    )
    weights = np.outer(wu, np.full(n_psi, 2.0 * np.pi / n_psi)).ravel()
    return SphereQuadrature(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class PolarSphereGrid:
    """Product grid in (polar angle alpha, azimuth psi) for sphere integrals.

    Gauss-Legendre in alpha on [0, pi] and a uniform trapezoid in psi. Carries
    the polar angles explicitly so integrands with an analytic 1/sin(alpha)
    divergence can be integrated after the Jacobian cancellation
    sin(alpha) * (1/sin(alpha)) = 1 is done in closed form, never numerically.
    """

    n_alpha: int
    n_psi: int
    alphas: np.ndarray = field(init=False)
    alpha_weights: np.ndarray = field(init=False)
    psis: np.ndarray = field(init=False)

    def __post_init__(self):
        a, wa = gauss_legendre(self.n_alpha, 0.0, np.pi)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "alpha_weights", wa)
        object.__setattr__(self, "psis", 2.0 * np.pi * np.arange(self.n_psi) / self.n_psi)

    def nodes(self) -> np.ndarray:
        """Unit vectors theta(alpha, psi), shape (n_alpha, n_psi, 3), read-only.

        With even n_psi the southern rows are the exact negations of the
        northern rows shifted by pi, theta(pi - alpha, psi) = -theta(alpha,
        psi + pi), and the middle row of an odd grid pairs its two halves the
        same way, so every node's antipode is a node with the negated bits.
        Built on the first call; every later call returns the same array.
        """
        return self._nodes

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        sa = np.sin(self.alphas)[:, None]
        ca = np.cos(self.alphas)[:, None]
        cp = np.cos(self.psis)[None, :]
        sp = np.sin(self.psis)[None, :]
        out = np.stack([sa * cp, sa * sp, ca * np.ones_like(cp)], axis=-1)
        if self.n_psi % 2 == 0:
            half, north = self.n_psi // 2, self.n_alpha // 2
            out[::-1][:north] = -np.roll(out[:north], -half, axis=1)
            if self.n_alpha % 2:
                out[north, half:] = -out[north, :half]
        out.flags.writeable = False
        return out

    def integrate_smooth(self, vals: np.ndarray) -> np.ndarray:
        """Sphere integral of a bounded integrand sampled on the grid.

        vals has shape (n_alpha, n_psi, ...); the sin(alpha) measure is applied
        here.
        """
        w = self.alpha_weights * np.sin(self.alphas)
        dpsi = 2.0 * np.pi / self.n_psi
        return dpsi * np.tensordot(w, np.asarray(vals).sum(axis=1), axes=(0, 0))


def make_polar_sphere_quadrature(n_alpha: int, n_psi: int | None = None) -> SphereQuadrature:
    """Gauss-Legendre in the polar angle itself x uniform azimuths.

    Unlike make_sphere_quadrature (Gauss-Legendre in cos(polar), exact on
    polynomials), this rule is spectrally accurate for integrands that are
    smooth in (alpha, psi) but only continuous on the sphere, such as products
    with the helical basis vectors, whose components carry sin(alpha) factors.
    """
    if n_psi is None:
        n_psi = 2 * n_alpha
    grid = PolarSphereGrid(n_alpha, n_psi)
    w = (grid.alpha_weights * np.sin(grid.alphas))[:, None] * (2.0 * np.pi / n_psi)
    weights = np.broadcast_to(w, (n_alpha, n_psi)).ravel().copy()
    weights *= 4.0 * np.pi / weights.sum()
    return SphereQuadrature(nodes=grid.nodes().reshape(-1, 3), weights=weights)


def great_circle_nodes(theta, N: int) -> np.ndarray:
    """N equispaced unit vectors on the great circle perpendicular to theta.

    theta (..., 3) gives nodes (..., N, 3), from the frame of frames_for_many.
    With even N the second half is the exact negation of the first, so node
    j + N/2 is the antipode of node j to the bit.
    """
    theta = unit_rows(theta)
    e1, e2 = frames_for_many(theta)
    phis = 2.0 * np.pi * np.arange(N) / N
    nodes = np.empty(theta.shape[:-1] + (N, 3))
    along = np.swapaxes(nodes, -1, -2)         # (..., 3, N): operations run along the circle
    np.multiply(np.cos(phis), e1[..., None], out=along)
    along += np.sin(phis) * e2[..., None]
    if N % 2 == 0:
        nodes[..., N // 2:, :] = -nodes[..., : N // 2, :]
    return nodes
