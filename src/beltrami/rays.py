"""Line transforms: whole-line (X), half-line (D), and signed (Y) integrals.

Three evaluation routes are provided:

* regularized numerics: Gaussian damping exp(-eps s^2) on a fixed ladder of
  four widths with cubic extrapolation to eps = 0, on one Gauss rule of the
  half line that every ray shares, scaled by 1/nu_scale (the fields here
  oscillate without decay, so plain quadrature diverges conditionally); the
  rays go through in blocks, the ladder and its test run over each block; a
  catalog spec's default route (damped_beam) enters it through damped_values;
* closed forms for the Lundquist field and the plane wave; the three
  Lundquist transforms share one cylindrical scaffold (_cylinder) and take
  both helicities, the half-line and signed series through the y-mirror
  D_-1(theta, x) = M D_+1(M theta, M x), M = diag(1, -1, 1); the
  half-line and signed series take J_n from geometry.special (scipy.special,
  imported at its first call), the X form and the plane wave none;
* great-circle / singular-kernel representations driven by band-limited
  spherical data (the transform-space route).

The closed forms and the transform-space routes take directions (N, 3) from
one source x (3,) or one per direction (N, 3) (a ray is a batch of one), and
the Lundquist forms also P sources (P, 1, 3) sharing directions (A, 3), giving
(P, A, 3); a Lundquist row, or any row with its own source, keeps the bits it
has alone.  From a shared source a Lundquist transform depends on its
direction only through the azimuth az and the coefficient 1/v_r; the sphere
means of inversion.py take its reduced form (the 1/v_r dropped) once per
distinct az of their grid, from many points in one call.

The transform-space routes are sums of G_x(k) = e^{i nu k.x} Q_lam(k) s(k)
over the great-circle and PV nodes of each direction.  They are evaluated
once per unoriented axis: theta and -theta have the same great circle, and
the half-line kernel delta_+(u) = delta(u)/2 + (i/(2 pi)) P(1/u) splits into
an even circle part and an odd PV part.  So each direction is reduced to its
canonical axis a = sigma theta (sphere.canonical_axes_many), each (axis,
source) is evaluated once, to the circle sum C and the PV sum P about a, and
theta gets X = C, D = C/2 + sigma P or Y = 2 sigma P (with the weights of
each route).  The node sets pair antipodes bit for bit, so the southern
rows of a PolarSphereGrid, the -h circles of the Grangeat rule and the k_minus
nodes of the finite-part rule land on the axes of their partners.

Every phase e^{i(real angle)} of the transform-space routes and the plane
wave's closed forms comes from geometry.cis (which says what keeps cos and
sin), from the half-angle: the 1/2 is folded into the scale nu/2 or k0/2.

An axis's nodes lie on circles k.a = h about it (_Layout): the great circle
h = 0 and the PV rule's h = +-u, N nodes each from the axis frame, pairing
antipodes bit for bit, so Q and the phase are taken, and each pair summed, once
(an odd rule has no pairs, on the same path).  The axes of one source go by rings:
axes with equal a_z are z-rotations R_psi of the first, the base.  As the frame
is z-equivariant, Q_lam(R k) = R Q_lam(k), and s(R k) = sum_m e^{i m psi}
s_m(k), Q is taken at the base's nodes and s_m at 2L+1 samples per circle,
from which s at every member's nodes is interpolated (_interpolation).
Polar-cap rule: nodes within POLAR_CAP = 1e-8 of +-z carry the Gram-Schmidt
pole frame, which is not equivariant, so no ring of several axes may have one.
A node on the circle k.a = h is at least (2/pi) ||a_z| - |h|| from the z axis,
so an axis whose |a_z| is within 2 POLAR_CAP of a circle's |h|, or which is in
the cap, is a ring of one, where R = I, as is an axis with no ring-mate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (POLAR_CAP, Ray, circle_nodes, cis, cylindrical_frame, dot_rows,
                       frame_planes, gauss_legendre, normalize, refuse, special)
from .harmonics import SphericalFunction
from .fields import _curl, jacobian_fd, moses_q, moses_q_many, moses_q_planes
from .sphere import PVRule, canonical_axes_many

jv = special("jv")


class NonConvergence(RuntimeError):
    """An adaptive rule missed its accuracy: the damping ladder or the contour."""


class DegenerateRay(ValueError):
    """Closed form undefined: the ray runs along the field's symmetry axis."""


class SingularDirection(ValueError):
    """Closed form evaluated on (or too close to) its singular direction set."""


@dataclass(frozen=True)
class LineValue:
    """A line-integral value with an accuracy estimate."""

    value: np.ndarray
    error: float


# The damping ladder eps_j = LADDER_j nu_scale^2 halves at each step, so the
# extrapolation to eps = 0 has fixed weights: EXTRAPOLATE is the cubic through
# the four ladder values, ESTIMATE (the error) that cubic minus the quadratic
# through the last three.  GAUSS_ORDER-point panels run out to T_MAX, where the
# weakest damping exp(-eps s^2) has fallen to TAIL.
LADDER = np.array([0.032, 0.016, 0.008, 0.004])
GAUSS_ORDER = 6
TAIL = 1e-16
EXTRAPOLATE = np.array([-1.0, 14.0, -56.0, 64.0]) / 21.0
ESTIMATE = np.array([-1.0, 7.0, -14.0, 8.0]) / 21.0
T_MAX = float(np.sqrt(np.log(1.0 / TAIL) / LADDER[-1]))


def unit_rule_size(panels: int) -> int:
    """The node count of the unit rule at panels panels per period, without building
    it: GAUSS_ORDER nodes on each panel out to T_MAX.  Refuses fewer than 8 panels."""
    if panels < 8:
        raise ValueError("panels_per_period must be at least 8")
    return GAUSS_ORDER * int(np.ceil(T_MAX * panels / (2.0 * np.pi)))


@functools.lru_cache(maxsize=8)
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-line rule at nu_scale 1, with panels panels per period 2 pi: its
    nodes t (n,) and its damping matrix w exp(-LADDER t^2) (4, n).

    GAUSS_ORDER-point Gauss panels of width 2 pi/panels cover [0, T_MAX], where
    exp(-LADDER[-1] t^2) falls to TAIL.  A ray of scale nu takes the nodes t/nu
    and the weights w/nu; since eps_j s^2 = LADDER_j t^2 at s = t/nu, its damped
    ladder is this matrix times its values at those nodes, over nu.  So the rule
    has the same n nodes for every nu_scale (738 at 8 panels per period).
    """
    edges = np.linspace(0.0, T_MAX, unit_rule_size(panels) // GAUSS_ORDER + 1)
    x, w = gauss_legendre(GAUSS_ORDER, 0.0, 1.0)
    widths = np.diff(edges)[:, None]
    t = (edges[:-1, None] + widths * x).ravel()
    damp = (widths * w).ravel() * np.exp(-np.multiply.outer(LADDER, t**2))
    t.flags.writeable = damp.flags.writeable = False
    return t, damp


# Stacked nodes per field call of the damped engine, which bounds its points,
# values and the field's temporaries: a block holds DAMPED_BLOCK // m whole
# rays of m nodes each (738 half-line nodes at 8 panels per period, 1,476 for
# X and Y, whatever the nu_scale), and at least one.  The field's cost is per
# node, so larger blocks gain little, and at 2^12 a damped command of the
# benchmark's closed_form workload peaks at 1.4 MB of traced memory (4.8 MB at
# 2^15), below the inversions' 2.0 MB.
DAMPED_BLOCK = 1 << 12


def _damped_line_integral(field, thetas: np.ndarray, feet: np.ndarray, nu_scales: np.ndarray,
                          panels: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """X (whole line), D (half line) or Y (signed) of the rays along thetas (N, 3)
    from feet (N, 3): values (N, 3) and error estimates (N,).

    Ray i takes the unit rule of _unit_rule(panels) at the nodes t/nu_scales[i].
    D integrates the half-line nodes s, X and Y also take their mirror -s, in
    the same field call, with weights +w and -w: X = D(theta) + D(-theta) and
    Y = D(theta) - D(-theta), so Y's sign change falls on a panel edge.  The
    field is called once on the stacked nodes of each block of whole rays
    (DAMPED_BLOCK), and the ladder, the extrapolation and the divergence test
    run over the block, so a ray keeps the value it has alone where the field
    is evaluated point by point.  The first ray whose ladder diverges raises
    NonConvergence, with that ray as its row; the test runs on nu times the
    ladder, which a tiny nu_scale cannot overflow.
    """
    t, damp = _unit_rule(panels)
    mirror = {"D": None, "X": 1.0, "Y": -1.0}[mode]
    nodes = t if mirror is None else np.concatenate([t, -t])
    per = max(1, DAMPED_BLOCK // len(nodes))
    nu_scales = np.asarray(nu_scales, dtype=float)[:, None]
    values, errors = np.empty((len(thetas), 3), dtype=complex), np.empty(len(thetas))
    for lo in range(0, len(thetas), per):
        nu = nu_scales[lo:lo + per]
        pts = (nodes / nu)[..., None] * thetas[lo:lo + per, None]      # foot + s theta
        pts += feet[lo:lo + per, None]
        v = np.asarray(field(pts.reshape(-1, 3)), dtype=complex).reshape(pts.shape)
        if mirror is not None:
            v = v[:, :len(t)] + mirror * v[:, len(t):]
        ladder = damp @ v                                # nu times the ladder, (rays, 4, 3)
        diffs = np.linalg.norm(np.diff(ladder, axis=1), axis=2)
        bad = np.all(np.diff(diffs, axis=1) > 0, axis=1) & (diffs[:, -1] > 1e-14 * nu[:, 0])
        if bad.any():
            e = NonConvergence("damping-ladder differences increase monotonically")
            e.row = lo + int(np.argmax(bad))
            raise e
        ladder /= nu[..., None]
        values[lo:lo + per] = EXTRAPOLATE @ ladder
        errors[lo:lo + per] = np.max(np.abs(ESTIMATE @ ladder), axis=1)
    return values, errors


def damped_values(field, thetas, x, nu_scales, panels: int, mode: str) -> np.ndarray:
    """_damped_line_integral's values from one source x (3,) or one per ray (N, 3)."""
    with np.errstate(over="ignore", invalid="ignore"):   # a spoiled row is non-finite, unwarned
        return _damped_line_integral(field, thetas, np.broadcast_to(x, np.shape(thetas)),
                                     nu_scales, panels, mode)[0]


@dataclass(frozen=True)
class OscillatoryLineQuadrature:
    """One ray's damped rule: the unit rule of panels_per_period panels per
    period, scaled by 1/nu_scale (the oscillation wavenumber)."""

    nu_scale: float
    panels_per_period: int = 8

    def __post_init__(self):
        if self.nu_scale <= 0:
            raise ValueError("nu_scale must be positive")
        _unit_rule(self.panels_per_period)     # refuses fewer than 8 panels


def _one_ray(field, ray: Ray, cfg: OscillatoryLineQuadrature, mode: str) -> LineValue:
    """The damped transform of one ray: a batch of one of _damped_line_integral."""
    values, errors = _damped_line_integral(field, ray.theta[None], ray.foot[None],
                                           np.array([cfg.nu_scale]), cfg.panels_per_period, mode)
    return LineValue(value=values[0], error=float(errors[0]))


def xray_numeric(field, ray: Ray, cfg: OscillatoryLineQuadrature) -> LineValue:
    """Whole-line integral of the field along the ray, damped + extrapolated."""
    return _one_ray(field, ray, cfg, "X")


def dbeam_numeric(field, ray: Ray, cfg: OscillatoryLineQuadrature) -> LineValue:
    """Half-line integral from the foot point."""
    return _one_ray(field, ray, cfg, "D")


def ytransform_numeric(field, ray: Ray, cfg: OscillatoryLineQuadrature) -> LineValue:
    """Signed line integral: difference of the two opposite half-line beams."""
    return _one_ray(field, ray, cfg, "Y")


# --------------------------------------------------------------------------
# Lundquist closed forms
# --------------------------------------------------------------------------

def _series_order(nu_r):
    """Truncation order of the Lundquist half-line/signed Bessel series at each nu r:
    from ceil(|nu r|) + 12 in steps of 4 until |J_n(nu r)| < 1e-16, where the
    terms decay for good (10,228 at nu r = 1e4), taking J_n on the rows still growing.
    A row with |nu r| above 1e4, or not finite, raises ValueError with that row as its .row."""
    refuse(ValueError, ~(np.abs(nu_r) <= 1e4),
           "nu times the cylindrical radius above 10000, the Lundquist series bound")
    flat = np.ravel(nu_r)
    n, rows = np.ceil(np.abs(flat)).astype(int) + 12, np.arange(flat.size)
    while len(rows := rows[np.abs(jv(n[rows], flat[rows])) >= 1e-16]):
        n[rows] += 4
    return n.reshape(np.shape(nu_r))


def _cylinder(thetas, x, amp: complex, nu: float, reduced: bool, mirror: int = 1):
    """Cylindrical scaffold of the three Lundquist transforms at directions (..., 3).

    Returns the coefficient amp/(nu v_r) as (..., 3), whole rows for the product
    with a bracket, or amp/nu () when reduced (the 1/v_r factor dropped: the polar
    Jacobian cancellation, done in closed form); r, the cylindrical radius of the
    source x; the direction azimuth az; and psi = az - phi, az measured from x's
    azimuth.  x is one source (3,), one per direction (..., 3), or P sources
    (P, 1, 3) that share directions (A, 3): then r is (P, 1) and psi (P, A), so a
    series takes each J_k once per source.  Unless reduced, a direction along the
    cylinder axis raises DegenerateRay.  mirror = -1 reads directions and source
    through the y-mirror M = diag(1, -1, 1).
    """
    if mirror not in (1, -1):
        raise ValueError("helicity must be +1 or -1")
    thetas = np.asarray(thetas, dtype=float)
    x = np.asarray(x, dtype=float)
    t_y, x_y = (thetas[..., 1], x[..., 1]) if mirror == 1 else (-thetas[..., 1], -x[..., 1])
    v_r = np.hypot(thetas[..., 0], t_y)
    if not reduced:
        refuse(DegenerateRay, v_r <= 1e-10, "ray direction parallel to the cylinder axis")
    az = np.arctan2(t_y, thetas[..., 0])
    phi = np.arctan2(x_y, x[..., 0])
    coef = amp / nu if reduced else np.repeat(np.asarray(amp / (nu * v_r))[..., None], 3, -1)
    return np.asarray(coef), np.hypot(x[..., 0], x_y), az, az - phi


def _series(nu_r, psi: np.ndarray, *parts) -> np.ndarray:
    """Per part (k0, step, sign, trig, ...) and trig, sum sign^k trig(k psi) J_k(nu r) over
    k = k0, k0 + step, ... to the series order of nu r; psi has the shape of the sums.

    A part is e^{i k0 psi} times a polynomial in z = e^{i step psi}, summed by Horner's
    rule elementwise on float64 (re, im) pairs: sin and cos are taken once per value.  The
    rows (one per value of nu r) run by decreasing order, and J_k and each Horner step run
    on the prefix of rows of order >= k: a row has the cost and the bits of its own order
    in any batch.  A zero sum is returned as +0.
    """
    nu = np.ravel(nu_r)                  # one value, or psi's leading shape with 1s after
    shape, n = (len(nu), psi.size // max(len(nu), 1)), _series_order(nu)
    rows = np.argsort(-n, kind="stable")                  # by decreasing order
    n, nu, back, out = n[rows], nu[rows], np.argsort(rows, kind="stable"), []
    for k0, step, sign, *trigs in parts:
        k = np.arange(k0, n[0] + 1 if len(n) else 0, step)
        m = np.searchsorted(-n, -k, side="right")         # rows of order >= k
        kk, ends = np.repeat(k, m), np.cumsum(m)
        c = jv(kk, nu[np.arange(len(kk)) - np.repeat(ends - m, m)])[:, None] * sign ** kk[:, None]
        zr, zi = np.cos(step * psi), np.sin(step * psi)
        z_r, z_i = zr.reshape(shape)[rows], zi.reshape(shape)[rows]
        acc = np.zeros((4,) + shape)                      # re, im and two temporaries
        for q, end in zip(m[::-1].tolist(), ends[::-1].tolist()):
            (re, im, t, u), zr_q, zi_q = acc[:, :q], z_r[:q], z_i[:q]
            np.multiply(re, zi_q, out=t)                  # (re + i im) <- (re + i im) z + c_k
            re *= zr_q
            re -= np.multiply(im, zi_q, out=u)
            re += c[end - q: end]
            im *= zr_q
            im += t
        re, im = (a[back].reshape(psi.shape) for a in acc[:2])
        wr, wi = (zr, zi) if k0 == step else (np.cos(k0 * psi), np.sin(k0 * psi))
        out += [re * wi + im * wr if trig is np.sin else re * wr - im * wi for trig in trigs]
    return np.array(out) + 0.0


def xray_lundquist_batch(thetas: np.ndarray, x, F0: complex, nu: float,
                         lam: int = 1, reduced: bool = False) -> np.ndarray:
    """Whole-line transform of the Lundquist field for directions (..., 3) from x.

    value = (2 F0/(nu v_r)) [lam sin(nu u) e_r(az) + cos(nu u) e_z],
    u = r sin(az - phi) in cylindrical coordinates of x.
    """
    coef, r, az, psi = _cylinder(thetas, x, 2.0 * F0, nu, reduced)
    u = r * np.sin(psi)
    e_r, _, e_z = cylindrical_frame(az)
    return coef * (lam * np.sin(nu * u)[..., None] * e_r +
                   np.cos(nu * u)[..., None] * e_z)


def dbeam_lundquist_batch(thetas: np.ndarray, x, F0: complex, nu: float, lam: int = 1,
                          reduced: bool = False) -> np.ndarray:
    """Half-line transform of the Lundquist field for directions (..., 3) from x.

    At helicity +1, (F0/(nu v_r)) { -2 S e_r(az) + J0 e_az + C e_z } with S = sum (-1)^n
    sin(n psi) J_n and C = J0 + 2 sum (-1)^n cos(n psi) J_n, J_n of nu r, psi = az - phi.
    Helicity -1 is its mirror image in y: D_-1(theta, x) = M D_+1(M theta, M x),
    M = diag(1, -1, 1).
    """
    coef, r, az, psi = _cylinder(thetas, x, F0, nu, reduced, lam)
    S, C = _series(nu * r, psi, (1, 1, -1.0, np.sin, np.cos))
    e_r, e_az, e_z = cylindrical_frame(az)
    j0 = jv(0, nu * r)[..., None]
    out = coef * (-2.0 * S[..., None] * e_r + j0 * e_az + (j0 + 2.0 * C[..., None]) * e_z)
    out *= (1.0, lam, 1.0)   # M, in place
    return out


def ytransform_lundquist_batch(thetas: np.ndarray, x, F0: complex, nu: float, lam: int = 1,
                               reduced: bool = False) -> np.ndarray:
    """Signed transform of the Lundquist field for directions (..., 3) from x.

    At helicity +1,
    -(2 F0/(nu v_r)) { 2 sum sin(2k psi) J_2k e_r(az) - J0 e_az
                       + 2 sum cos((2k+1) psi) J_{2k+1} e_z },  psi = az - phi;
    helicity -1 is its mirror image in y, as for dbeam_lundquist_batch.
    """
    coef, r, az, psi = _cylinder(thetas, x, -2.0 * F0, nu, reduced, lam)
    S_even, C_odd = _series(nu * r, psi, (2, 2, 1.0, np.sin), (1, 2, 1.0, np.cos))
    e_r, e_az, e_z = cylindrical_frame(az)
    out = coef * (2.0 * S_even[..., None] * e_r - jv(0, nu * r)[..., None] * e_az +
                  2.0 * C_odd[..., None] * e_z)
    out *= (1.0, lam, 1.0)   # M, in place
    return out


def planewave_closed_batch(thetas: np.ndarray, x, k0: float, kappa0, lam: int = 1,
                           kind: str = "Y") -> np.ndarray:
    """X, D or Y of the helical plane wave for directions (N, 3) from x (3,) or (N, 3):

    Y = 2 i (1/k0) e^{i k0 kappa0.x} (1/(kappa0.theta)) Q_lam(kappa0), D = Y/2
    and X = 0.  On a wave front, |kappa0.theta| <= 1e-8, X is a delta and D
    and Y diverge, so every kind raises SingularDirection there.
    """
    thetas, x, kappa0 = (np.asarray(a, dtype=float) for a in (thetas, x, kappa0))
    dots = dot_rows(thetas, np.broadcast_to(kappa0, thetas.shape))
    refuse(SingularDirection, np.abs(dots) <= 1e-8,
           "ray direction nearly orthogonal to the wave vector")
    phase = cis((0.5 * k0) * dot_rows(x, np.broadcast_to(kappa0, x.shape)))
    y = ((2j / k0) * phase)[..., None] / dots[..., None] * moses_q(kappa0, lam)
    return {"X": np.zeros_like(y), "D": 0.5 * y, "Y": y}[kind]


def ytransform_planewave_closed(ray: Ray, k0: float, kappa0, lam: int = 1) -> np.ndarray:
    """Signed transform of the helical plane wave along one ray (a batch of one)."""
    return planewave_closed_batch(ray.theta[None], ray.foot, k0, kappa0, lam)[0]


# --------------------------------------------------------------------------
# Transform-space (great circle) representations for band-limited data
# --------------------------------------------------------------------------

def moses_sphere_data(nu: float, lam: int, s: SphericalFunction, x):
    """The helical sphere integrand G(k) = e^{i nu k.x} Q_lam(k) s(k).

    Returns a vectorized callable over unit vectors (..., 3).
    """
    x = np.asarray(x, dtype=float)

    def G(kappas: np.ndarray) -> np.ndarray:
        kappas = np.asarray(kappas, dtype=float)
        phase = cis((0.5 * nu) * (kappas @ x))
        return phase[..., None] * moses_q_many(kappas, lam) * s(kappas)[..., None]

    return G


_PREF = (2.0 * np.pi) ** (-0.5)

# Complex entries per (rings x members x first nodes) block of the ring engine,
# s samples counted as first nodes where they are more.  It bounds the engine's
# temporaries (256 kB each).  In-process `check all` on a 2-core AVX-512 Xeon took
# 1.55 s at 2^13, 1.2 s at 2^14 and 1.1 s at 2^15 and 2^16, with 2.3 and 8 MB more
# peak RSS; at 2^15 the benchmark's helical_rays is no faster and peaks 3.5 MB higher.
RING_BLOCK = 1 << 14


def _rings(axes: np.ndarray, cap: np.ndarray, us: np.ndarray) -> list[np.ndarray]:
    """Indices of the canonical axes (N, 3) of one source grouped into rings, in input order.

    A ring's axes have equal z components, so they are z-rotations of the
    first of them, the ring's base.  An axis that is in the polar cap (cap, the
    mask of its frame), or whose nodes on the circles k.a = h, |h| in us, can be,
    is a ring of one, and so is an axis with no ring-mate.
    """
    reach = np.abs(np.abs(axes[:, 2, None]) - us).min(axis=1) <= 2.0 * POLAR_CAP
    cap = cap | reach
    free = np.flatnonzero(~cap)
    order = np.argsort(axes[free, 2], kind="stable")         # rings in input order
    bounds = np.flatnonzero(np.diff(axes[free[order], 2]) != 0) + 1
    rings = np.split(free[order], bounds) if free.size else []
    return rings + [np.array([i]) for i in np.flatnonzero(cap)]


class _Layout:
    """The node circles k.a = h of every axis a of one route, and its first nodes.

    Circle c has its height h[c] (0: the great circle, then the PV rule's +u and
    -u circles), N nodes at the angles 2 pi j/N of a's frame and a weight w per
    node (sum_j w G(k_j) is circle_w Int_C G dphi, pv_w PV Int G(k)/(k.a) dOmega),
    held per sample (K = 2L+1 a circle) in weights.  At even N node j's antipode is,
    to the bit, node (j + N/2) % N of the same great circle or of the -u circle of a
    +u one.  The m first nodes, one of each pair (all at odd N), come in parts (sum,
    f0, N, c, C, p, M, Mp) of the circle (0) or PV (1) sum: from f0 on, the first
    len(M) nodes of each circle [c, c + C), with antipodes on the circles [p, p + C)
    (p = -1: none); M and Mp the _interpolation(N, L) rows of the two.
    """

    def __init__(self, circle_n: int, circle_w: complex, pv: PVRule | None,
                 pv_w: complex, L: int):
        h, w, spans, self.parts, self.K, self.m = [], [], [], [], 2 * L + 1, 0
        if circle_n:
            h, w, spans = [0.0], [circle_w * (2.0 * np.pi / circle_n)], [(0, circle_n, 0, 1)]
        if pv is not None:
            u, wu = pv.u_rule()
            wp = (pv_w * (2.0 * np.pi / pv.n_psi)) * (wu / u)
            spans.append((1, pv.n_psi, len(h), 2 * pv.n_u))
            h, w = h + [*u, *-u], w + [*wp, *-wp]
        for a, N, c, C in spans:       # first at even N: half the great circle, the +u circles
            M, p = _interpolation(N, L), (-1 if N % 2 else c + C // 2)
            F, k = (C, N) if p < 0 else (max(C // 2, 1), N // 2 if C == 1 else N)
            self.parts.append((a, self.m, N, c, F, p, M[:k],
                               None if p < 0 else np.roll(M, -(N // 2), 0)[:k]))
            self.m += F * k
        self.h, self.weights = np.array(h), np.repeat(np.array(w, dtype=complex), self.K)

    def nodes(self, bases: np.ndarray, frames: np.ndarray, work: dict) -> tuple[np.ndarray, ...]:
        """The first nodes (3, B, m) of unit axes (B, 3) with frame planes (6, B) (e1, e2) and
        the 2L+1 samples per circle, a (B, K len(h), 3) view of planes, in one work buffer."""
        B, m, K, S = len(bases), self.m, self.K, self.weights.size
        e1, e2 = frames[:3].T, frames[3:].T
        buf = _buffer(work, "nodes", (3 * B * (m + S),), float)
        first, samples = buf[: 3 * B * m].reshape(3, B, m), buf[3 * B * m:].reshape(3, B, S)
        for a, f0, N, c, C, p, M, _ in self.parts:     # k nodes of cs circles from column r
            for dest, r, size, k, cs in ((first, f0, N, len(M), C),
                                         (samples, c * K, K, K, max(C, p - c + C))):
                circle_nodes(e1, e2, size, dest[..., r: r + k * cs].reshape(3, B, cs, k), bases,
                             self.h[c: c + cs] if a else None)
        return first, samples.transpose(1, 2, 0)


def _ring_beams(nu: float, lam: int, s: SphericalFunction, thetas: np.ndarray, x,
                circle_n: int, circle_w: complex, pv: PVRule | None,
                pv_w: complex) -> np.ndarray:
    """circle_w Int_C G_x dphi + pv_w PV Int G_x(k)/(k.theta) dOmega per direction (N, 3).

    theta and -theta have the same great circle and the same PV nodes about
    their canonical axis a = sigma theta, so each distinct (axis, source) is
    evaluated once, to its circle sum C and its PV sum P about a, and theta
    gets C + sigma P.  A shared source x (3,) groups its axes into _rings, one
    source per direction (N, 3) makes each a ring of one.  Rings of equal size
    go through _ring_block together, as many as fit in RING_BLOCK by first nodes.
    """
    thetas = normalize(thetas)
    axes, signs = canonical_axes_many(thetas)
    xs = np.broadcast_to(np.asarray(x, dtype=float), axes.shape)
    bits = np.concatenate([axes, xs], axis=1).view(np.dtype((np.void, 6 * axes.itemsize)))
    _, first, inv = np.unique(bits.ravel(), return_index=True, return_inverse=True)
    axes, xs = axes[first], xs[first]
    sums = np.empty((axes.shape[0], 2, 3), dtype=complex)
    by_size: dict[int, list[np.ndarray]] = {}
    lay, frames = _Layout(circle_n, circle_w, pv, pv_w, s.lmax), np.empty((6, len(axes)))
    cap = frame_planes(axes.T, frames)                  # every axis's frame, once, and its cap
    for ring in (_rings(axes, cap, np.abs(lay.h)) if np.ndim(x) == 1
                 else np.arange(len(axes))[:, None]):
        by_size.setdefault(len(ring), []).append(ring)
    work = {"parts": s.orders()}                                  # shared by the ring blocks
    for size, rings in by_size.items():
        per = max(1, RING_BLOCK // (size * max(lay.m, lay.weights.size)))
        for lo in range(0, len(rings), per):
            idx = np.stack(rings[lo: lo + per])
            base = idx[:, 0]
            vals = _ring_block(nu, lam, s, axes[idx], xs[base], frames[:, base], lay, work)
            sums[idx.ravel()] = vals.reshape(-1, 2, 3)
    return sums[inv.ravel(), 0] + signs[:, None] * sums[inv.ravel(), 1]


def _buffer(work: dict, key: str, shape: tuple, dtype=complex) -> np.ndarray:
    """A view of the given shape on the buffer work[key], grown when too small."""
    size = math.prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size, dtype=dtype)
    return work[key][:size].reshape(shape)


@functools.lru_cache(maxsize=None)
def _interpolation(N: int, L: int) -> np.ndarray:
    """M (N, 2L+1), read-only: a trigonometric polynomial of degree <= L at the
    N angles 2 pi j/N from its values at the 2L+1 angles 2 pi k/(2L+1),

        M[j, k] = D(2 pi j/N - 2 pi k/(2L+1)),  D(t) = (1 + 2 sum_{m=1..L} cos m t)/(2L+1),

    exact for every N >= 1; each angle m t is reduced in integers first.
    """
    K = 2 * L + 1
    p = np.arange(N)[:, None] * K - np.arange(K) * N              # t = 2 pi p/(N K)
    M = np.ones((N, K))
    for m in range(1, L + 1):
        M += 2.0 * np.cos((2.0 * np.pi / (N * K)) * (m * p % (N * K)))
    M /= K
    M.flags.writeable = False
    return M


def _chunks(C: int, N: int, step: int):
    """The chunks (c0, c1, j0, j1) of C circles of N nodes, at most step nodes
    each: the whole circles [c0, c1), or the nodes [j0, j1) of the circle c0."""
    if N <= step:
        return [(c, min(c + step // N, C), 0, N) for c in range(0, C, step // N)]
    return [(c, c + 1, j, min(j + step, N)) for c in range(C) for j in range(0, N, step)]


def _ring_block(nu: float, lam: int, s: SphericalFunction, th: np.ndarray, xs: np.ndarray,
                frames: np.ndarray, lay: _Layout, work: dict) -> np.ndarray:
    """Circle and PV node sums for B rings of R unit axes each, th (B, R, 3) -> (B, R, 2, 3).

    The member R_psi theta0 has the nodes R k of the base theta0, and G_x(R k) =
    R e^{i nu k.(R^T x)} Q_lam(k) sum_m e^{i m psi} s_m(k), x the ring's source
    in xs (B, 3).  From the bases' frames (planes (6, B)), lay.nodes builds the first
    node k of each antipodal pair, as component planes (3, B, m), and 2L+1 samples
    per circle, L = lmax, where s_m is synthesized and weighted: on a circle s(R k)
    is a trigonometric polynomial of degree <= L, so w s at a chunk's first nodes
    (_chunks) and at their antipodes is one real GEMM each by _interpolation rows.
    The phase cis(k.(nu/2) R^T x) is taken at k, and moses_q_planes writes Re Q_lam(k)
    and Im Q_lam(k) as six (B, m) planes and returns the polar-cap mask: with g = w
    e^{i nu (Rk).x} s(R k) at k and g' at -k, whose phase is the conjugate, Q_lam(-k)
    = sigma conj Q_lam(k) (sigma = -1 out of the cap, +1 in it) makes the pair Re Q
    (g + sigma g') + i Im Q (g - sigma g'), two real GEMMs by three planes each (g' = 0
    at odd N).  The spin factors e^{i m psi} are cis(m psi/2).  Q_lam(R k) = R Q_lam(k)
    needs the base's nodes out of the polar cap unless R = I (_rings), not its samples.
    """
    L, K, parts = s.lmax, lay.K, work["parts"]
    B, R = th.shape[:2]
    step = max(1, RING_BLOCK // (B * R))
    n = B * min(step, lay.m) * R        # chunk buffers, taken before the synthesis (lower peak)
    chunk, angs = _buffer(work, "chunk", (3, n)), _buffer(work, "ang", (n,), float)
    first, samples = lay.nodes(th[:, 0], frames, work)
    psi = np.arctan2(th[..., 1], th[..., 0]) - np.arctan2(th[:, :1, 1], th[:, :1, 0])
    rot = np.zeros(psi.shape + (3, 3))                                 # R_psi (B, R, 3, 3)
    rot[..., 0, 0] = rot[..., 1, 1] = np.cos(psi)
    rot[..., 1, 0] = np.sin(psi)
    rot[..., 0, 1] = -rot[..., 1, 0]
    rot[..., 2, 2] = 1.0
    rot_x = (0.5 * nu) * np.einsum("brca,bc->bar", rot, xs)            # (nu/2) R^T x, (B, 3, R)
    spin = cis(0.5 * np.arange(-L, L + 1)[:, None] * psi[:, None, :])   # e^{i m psi}, (B, 2L+1, R)
    t = np.matmul(parts(samples), spin)                                # s at the members' samples
    t = np.multiply(t, lay.weights[:, None], out=t).view(float)        # times their weights
    q = np.empty((6, B, lay.m))                                        # Re Q, Im Q planes
    cap = moses_q_planes(first, lam, q)                                # sigma = +1 there
    acc = np.zeros((2, 2, B, 3, 2 * R))        # Re Q times plus, Im Q times minus: circle, PV
    for a, f0, N, c, C, p, M, Mp in lay.parts:
        k = len(M)
        for c0, c1, j0, j1 in _chunks(C, k, step):
            f, e, shape = f0 + c0 * k + j0, (c1 - c0) * (j1 - j0), (B, c1 - c0, j1 - j0, R)
            g, h, phase = (b[: B * e * R].reshape(B, e, R) for b in chunk)
            np.matmul(M[j0:j1], t[:, (c + c0) * K: (c + c1) * K].reshape(B, -1, K, 2 * R),
                      out=g.reshape(shape).view(float))
            ang = np.matmul(first[..., f: f + e].transpose(1, 2, 0), rot_x,
                            out=angs[: B * e * R].reshape(B, e, R))
            cis(ang, out=phase)                                        # overwrites ang
            g *= phase                                                 # g at the first nodes
            plus = minus = g
            if Mp is not None:                                         # -sigma g' at -k in h
                np.matmul(Mp[j0:j1], t[:, (p + c0) * K: (p + c1) * K].reshape(B, -1, K, 2 * R),
                          out=h.reshape(shape).view(float))
                h *= np.conjugate(phase, out=phase)
                if cap[:, f: f + e].any():                             # sigma = +1 there
                    h[cap[:, f: f + e]] *= -1.0
                plus, minus = np.subtract(g, h, out=phase), np.add(g, h, out=g)
            acc[0, a] += np.swapaxes(q[:3, :, f: f + e], 0, 1) @ plus.view(float)
            acc[1, a] += np.swapaxes(q[3:, :, f: f + e], 0, 1) @ minus.view(float)
    re, im = acc.view(complex)                                         # (2, B, 3, R) each
    return np.einsum("brac,pbcr->brpa", rot, re + 1j * im)


def xray_via_funk_batch(nu: float, lam: int, s: SphericalFunction,
                        thetas: np.ndarray, x, circle_n: int = 256) -> np.ndarray:
    """Great-circle route for the whole-line transform, batched over directions.

    X F(theta, x) = (2 pi)^{-1/2} (1/nu) Int_C G(k) dphi over the great circle
    C in the plane normal to theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    out = _ring_beams(nu, lam, s, np.atleast_2d(thetas), x,
                      circle_n, _PREF / nu, None, 0.0)
    return out[0] if thetas.ndim == 1 else out


def xray_via_funk(nu: float, lam: int, s: SphericalFunction, ray: Ray,
                  circle_n: int = 256) -> np.ndarray:
    """Whole-line transform of the band-limited field through its sphere data."""
    return xray_via_funk_batch(nu, lam, s, ray.theta, ray.foot, circle_n)


def dbeam_via_extfunk(nu: float, lam: int, s: SphericalFunction, ray_or_theta,
                      x=None, circle_n: int = 256,
                      pv: PVRule | None = None) -> np.ndarray:
    """Half-line transform through sphere data: half the great-circle part plus
    the principal-value part of the half-line kernel,

    D = 1/2 X + (2 pi)^{-1/2} (1/nu) (i/(2 pi)) PV Int G(k)/(k.theta) dOmega.
    """
    if isinstance(ray_or_theta, Ray):
        theta, x = ray_or_theta.theta, ray_or_theta.foot
    else:
        theta = np.asarray(ray_or_theta, dtype=float)
    return _ring_beams(nu, lam, s, theta[None], x, circle_n, 0.5 * _PREF / nu,
                       pv or PVRule(), 1j * _PREF / (2.0 * np.pi * nu))[0]


def dbeam_via_extfunk_batch(nu: float, lam: int, s: SphericalFunction,
                            thetas: np.ndarray, x, circle_n: int = 256,
                            pv: PVRule | None = None) -> np.ndarray:
    """dbeam_via_extfunk over a batch of directions (N, 3) from x (3,) or (N, 3)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    return _ring_beams(nu, lam, s, thetas, x, circle_n, 0.5 * _PREF / nu,
                       pv or PVRule(), 1j * _PREF / (2.0 * np.pi * nu))


def ytransform_via_extfunk(nu: float, lam: int, s: SphericalFunction, theta, x,
                           pv: PVRule | None = None) -> np.ndarray:
    """Signed transform through sphere data: twice the PV part of the half-line,

    Y = (2 pi)^{-1/2} (1/nu) (i/pi) PV Int G(k)/(k.theta) dOmega,

    for one direction (3,) or a batch (N, 3) from x (3,) or (N, 3).
    """
    theta = np.asarray(theta, dtype=float)
    out = _ring_beams(nu, lam, s, np.atleast_2d(theta), x, 0, 0.0,
                      pv or PVRule(), 1j * _PREF / (np.pi * nu))
    return out[0] if theta.ndim == 1 else out


# --------------------------------------------------------------------------
# Homogeneous extension and line-transform PDE residuals
# --------------------------------------------------------------------------

def _alpha_jacobian(xray_fn, theta, x, h: float) -> np.ndarray:
    """J[c, j] = d g_c / d alpha_j at alpha = theta of the degree minus-one
    homogeneous extension g(alpha, x) = X F(alpha/|alpha|, x)/|alpha|.

    xray_fn(thetas (N, 3), x) -> (N, 3) evaluates the directions at one x.
    """
    def g(alphas):
        a = np.linalg.norm(alphas, axis=-1, keepdims=True)
        return np.asarray(xray_fn(alphas / a, x), dtype=complex) / a
    return jacobian_fd(g, theta, h)


def extension_residuals(xray_fn, nu_signed: float, theta, x,
                        h: float = 1e-3) -> tuple[float, float, float]:
    """The John, curl-form and theta-divergence residuals of line-transform data at
    (theta, x), from one alpha-Jacobian J[c, j] = d g_c / d alpha_j of the extension
    and one x-Jacobian of it, M[c, j, m] = d2 g_c / dalpha_j dx_m:

    * max |M[c, j, m] - M[c, m, j]| / max |M|, the symmetry defect of the mixed
      second derivatives, zero exactly when the data is a line transform;
    * the defect of d/dx_m (curl_alpha g) = nu_signed d/dalpha_m g over max |nu_signed J|;
    * |div_alpha g| / max |J|.

    xray_fn must accept an arbitrary x (whole-line transforms are translation
    invariant along theta).
    """
    J = _alpha_jacobian(xray_fn, theta, x, h)
    M = jacobian_fd(lambda xs: np.stack([_alpha_jacobian(xray_fn, theta, p, h)
                                         for p in xs]), x, h)
    rhs = nu_signed * J.T
    return (float(np.max(np.abs(M - np.swapaxes(M, 1, 2))) / np.max(np.abs(M))),
            float(np.max(np.abs(_curl(np.moveaxis(M, -1, 0)) - rhs)) / np.max(np.abs(rhs))),
            float(abs(np.trace(J)) / np.max(np.abs(J))))
