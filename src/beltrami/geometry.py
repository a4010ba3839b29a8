"""Vectors, frames, ray/plane coordinates, and quadrature rules on S^1 and S^2.

Vectors are plain numpy arrays of shape (3,), batches (..., 3), or for the frame and
circle kernels component planes (3, ...); complex field values use the same shapes
with complex dtype.  Everything in this module is pure and safe to share between threads.

`special` is the package's one route to scipy.special: the Bessel closed forms bind
its functions at module level and scipy.special is imported at the first call.
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


def special(name: str):
    """scipy.special.<name> as a callable that imports scipy.special at its first call.

    Only the Bessel closed forms (the Lundquist, CK, generalized Lundquist and
    spheromak fields, the Lundquist series, the spheromak Debye potential and the
    check rows built on them) call scipy.special, and importing it takes about half
    of a fresh interpreter's `import beltrami` and a third of a helical command's
    peak memory; the band-limited and plane-wave routes never load it.  The call
    runs the same scipy function on the same arguments, so no value changes.  Safe
    to share between threads: a race only looks the function up twice.
    """
    fn = None

    def call(*args):
        nonlocal fn
        if fn is None:
            import scipy.special
            fn = getattr(scipy.special, name)
        return fn(*args)

    call.__name__ = call.__qualname__ = name
    return call


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of a (..., n) dotted with b (n,), or one dot per row with b (..., n):
    each row's with the bits of its 1-D a @ b."""
    return a @ b if b.ndim == 1 else (a[..., None, :] @ b[..., None])[..., 0, 0]


def cis(half, out=None) -> np.ndarray:
    """The phase e^{2i half} of real half-angles, from t = tan(half):

        e^{2i half} = ((1 - t^2) + 2i t)/(1 + t^2),

    written straight into the real and imaginary parts of out (complex, the
    shape of half) when given, and returned.  A float array half is the
    kernel's work buffer and is overwritten.  numpy's float64 tan is
    vectorized where cos and sin call scalar libm, so on an AVX-512 CPU this
    takes about a fifth of the time of cos and sin.  The parts are within
    2.5e-16 of the exact phase for every finite half (|t| stays below about
    1e19, so t^2 cannot overflow) and have modulus 1 to 4.5e-16; an entry's
    bits do not depend on its position in the array.  nan and +-inf give nan,
    and -0.0 gives 1 - 0.0i.  Where numpy has no SIMD tan for the CPU it calls
    libm's, equally accurate, so the last bits depend on the machine.

    Every e^{i(real angle)} of the transform-space and helical routes comes
    from here.  The twistor phases (complex exponents), the Lundquist closed
    forms (a few angles per row) and grid, frame and rule construction
    (set-up sized) keep cos, sin and exp.
    """
    half = np.asarray(half, dtype=float)
    t = np.tan(half, out=half)
    out = np.empty(t.shape, dtype=complex) if out is None else out
    re, im = out.real, out.imag
    np.multiply(t, t, out=re)
    np.add(re, 1.0, out=im)                    # 1 + t^2
    np.subtract(1.0, re, out=re)
    re /= im
    t += t
    np.divide(t, im, out=im)
    return out


def check_norms(n: np.ndarray, *more) -> None:
    """Refuse the first row whose norm n (...) is not finite (its squares overflow) or is
    near zero, or that a further (flags, message) pair flags: ValueError with the message
    of the row's first fault in that order, and the row as its row."""
    faults = [(~np.isfinite(n), NOT_FINITE), (n < UNIT_TOL, NEAR_ZERO), *more]
    bad = np.logical_or.reduce([flags for flags, _ in faults])
    if np.any(bad):
        i = np.argmax(bad)
        refuse(ValueError, bad, next(message for flags, message in faults if flags.flat[i]))


def _unit(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of v (..., 3) as normalize makes them, and their norms (...); rows that
    normalize would refuse come back divided by inf instead."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused rows are not warned of
        n = np.linalg.norm(v, axis=-1)
        divided = v / np.where((n >= UNIT_TOL) & np.isfinite(n), n, np.inf)[..., None]
    return np.where((np.abs(n - 1.0) <= 1e-15)[..., None], v, divided), n


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit vector(s) along v (..., 3): a row whose norm is within 1e-15 of 1 is kept
    as given, so a unit direction has the same bits whichever route receives it, and
    any other row is divided by its norm.  Rejects near-zero input, and input whose
    norm is not finite, rather than guessing: ValueError, with the first such row as
    its row."""
    unit, n = _unit(np.asarray(v, dtype=float))
    check_norms(n)
    return unit


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


def frame_for(d) -> Frame:
    """Deterministic right-handed frame (e1, e2, d) adapted to direction d.

    A batch of one of frames_for_many, so the scalar and the batched routes of
    a transform build the same bits.
    """
    d = direction(d)
    return Frame(*frames_for_many(d), d)


def frames_for_many(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames (e1, e2) for unit directions (..., 3), with e3 = d: frame_planes on a
    copy of their components, into component views of e1 and e2."""
    e1, e2 = np.empty(np.shape(dirs)), np.empty(np.shape(dirs))
    frame_planes(np.array(np.reshape(dirs, (-1, 3)).T, dtype=float),
                 [*e1.reshape(-1, 3).T, *e2.reshape(-1, 3).T])
    return e1, e2


def frame_planes(k, out, s1: float = 1.0, s2: float = 1.0) -> np.ndarray:
    """The frames of unit directions given as component planes k (3, ...): writes
    s1 e1 into the planes out[0:3] and s2 e2 into out[3:6], and returns the
    polar-cap mask.

    e1 = normalize(z x d) outside the polar cap; inside it, e1 is x made
    orthogonal to d by one Gram-Schmidt step.  e2 = d x e1.  Outside the cap
    the frame is z-equivariant: the frame of R d is R applied to the frame of
    d for every rotation R about z.  Every entry has the bits of the vector
    forms (|v| = sqrt((v_x^2 + v_y^2) + v_z^2), cross products as differences
    of two products), signs of zeros included."""
    x, y, z = k
    n = np.sqrt(x * x + y * y)                 # |z x d|, z x d = (-y, x, 0)
    n[polar := n <= POLAR_CAP] = 1.0
    a, b, c = -(y / n), np.divide(x, n, out=n), 0.0      # e1, e1_z = 0 outside the cap
    if polar.any():
        d = np.stack([x[polar], y[polar], z[polar]], axis=-1)
        c = np.zeros_like(a)
        g = np.array([1.0, 0.0, 0.0]) - d[:, 0:1] * d
        a[polar], b[polar], c[polar] = (g / np.linalg.norm(g, axis=-1, keepdims=True)).T
    e = np.empty_like(a)
    for i, (p, q, r, t) in enumerate(((y, c, z, b), (z, a, x, c), (x, b, y, a))):
        np.multiply(p, q, out=e)               # e2 = d x e1
        e -= r * t
        np.multiply(e, s2, out=out[3 + i])
    for i, v in enumerate((a, b, c)):
        np.multiply(v, s1, out=out[i])
    return polar


@dataclass(frozen=True)
class Ray:
    """Oriented line: unit direction theta and foot point with foot.theta = 0.

    theta is taken as a direction (normalize): a unit theta keeps its bits."""

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
        """Ray through x along theta, with foot = x - (x.theta) theta: theta is normalized
        once, and Ray keeps the unit theta it is given."""
        theta = direction(theta)
        x = np.asarray(x, dtype=float)
        return Ray(theta=theta, foot=x - (x @ theta) * theta)


def cylindrical_frame(az: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cylindrical unit vectors e_r(az), e_az(az) (..., 3) at azimuths az and e_z."""
    cos, sin, zero = np.cos(az), np.sin(az), np.zeros_like(az)
    return (np.stack([cos, sin, zero], axis=-1), np.stack([-sin, cos, zero], axis=-1),
            np.array([0.0, 0.0, 1.0]))


def rays_through(thetas: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions and feet (N, 3) of the rays along thetas (N, 3) through xs (N, 3).

    Row i has the bits of Ray.through(thetas[i], xs[i]): theta as normalize makes it
    and the foot projected with that theta and checked against it.  The first row
    Ray.through refuses raises its ValueError, with that row as its row.
    """
    x = np.asarray(xs, dtype=float)
    theta, n = _unit(np.asarray(thetas, dtype=float))
    foot = x - dot_rows(x, theta)[:, None] * theta
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

    Integrates every spherical harmonic of degree <= 2L - 1 exactly (to rounding).
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

    Gauss-Legendre in alpha on [0, pi] and a uniform trapezoid in psi, for integrands
    bounded on the sphere.  A 1/sin(alpha) divergence is never sampled: the pole-reduced
    means of inversion.sphere_mean_of_beam cancel it against the Jacobian and take the
    alpha integral in closed form, on the psis alone.
    """

    n_alpha: int
    n_psi: int
    alphas: np.ndarray = field(init=False)
    alpha_weights: np.ndarray = field(init=False)
    psis: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_psi < 1:
            raise ValueError("a sphere grid takes at least one azimuth")
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
    theta = normalize(theta)
    nodes = np.empty(theta.shape[:-1] + (N, 3))
    circle_nodes(*frames_for_many(theta.reshape(-1, 3)), N,
                 nodes.reshape(-1, N, 3).transpose(2, 0, 1)[:, :, None])
    return nodes


@functools.lru_cache(maxsize=None)
def _turns(N: int) -> tuple[np.ndarray, np.ndarray]:
    """cos phi_j and sin phi_j (N,), read-only, at phi_j = 2 pi j/N."""
    phis = 2.0 * np.pi * np.arange(N) / N
    cos, sin = np.cos(phis), np.sin(phis)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def circle_nodes(e1: np.ndarray, e2: np.ndarray, N: int, out: np.ndarray,
                 axes: np.ndarray | None = None, heights: np.ndarray | None = None) -> None:
    """Fill the component planes out (3, B, H, count) with the nodes j < count of N
    equispaced ones e_r = cos phi_j e1 + sin phi_j e2, phi_j = 2 pi j/N, about frames
    (e1, e2) (B, 3), node j + N/2 the negated node j at even N (H = 1); or, given the
    frames' axes a (B, 3) and heights h (H,), with rho e_r + h a on the circles k.a = h,
    rho = sqrt(1 - h^2).  Every operation runs along the circles."""
    count = out.shape[-1]
    er = out[..., 0, :] if heights is None else np.empty((3, len(e1), count))
    turn = min(count, N // 2) if N % 2 == 0 else count        # nodes past it negate the first
    along = er[..., :turn]
    cos, sin = _turns(N)
    np.multiply(cos[:turn], e1.T[..., None], out=along)
    along += sin[:turn] * e2.T[..., None]
    np.negative(er[..., : count - turn], out=er[..., turn:])
    if heights is not None:
        np.add(np.sqrt(1.0 - heights**2)[:, None] * er[..., None, :],
               (heights * axes.T[..., None])[..., None], out=out)
