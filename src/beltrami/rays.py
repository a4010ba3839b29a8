"""Line transforms: whole-line (X), half-line (D), and signed (Y) integrals.

Three evaluation routes are provided:

* regularized numerics: Gaussian damping exp(-eps s^2) on a fixed ladder of
  four widths with cubic extrapolation to eps = 0, on one Gauss rule of the
  half line that every ray shares, scaled by 1/nu_scale (the fields here
  oscillate without decay, so plain quadrature diverges conditionally); the
  rays go through in blocks, the ladder and its test run over each block;
* closed forms for the Lundquist field and the plane wave; the three
  Lundquist transforms share one cylindrical scaffold (_cylinder) and take
  both helicities, the half-line and signed series through the y-mirror
  D_-1(theta, x) = M D_+1(M theta, M x), M = diag(1, -1, 1);
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
nodes of the finite-part rule land on the axes of their partners.  The nodes
of one axis pair the same way, so Q and the phase cos/sin are taken once per
pair (_ring_block); an odd rule has no pairs and takes the same path.

The axes of one source are batched by rings: axes with equal a_z (a row of
a PolarSphereGrid about a point) are z-rotations R_psi of the first of them,
whose nodes are built once.  Since the frame is z-equivariant, Q_lam(R k) =
R Q_lam(k), and s(R k) = sum_m e^{i m psi} s_m(k), the per-order values s_m
and Q are evaluated at one node set per ring and each member costs a phase
matrix and two GEMMs, one pass over the nodes filling both sums.  Polar-cap
rule: nodes within POLAR_CAP = 1e-8 of +-z carry the Gram-Schmidt pole frame,
which is not equivariant, so no ring of several axes may have one.  A node on
the circle k.a = +-u is at least (2/pi) ||a_z| - u| from the z axis, so an
axis whose |a_z| is within 2 POLAR_CAP of a node circle (0 for the great
circle, the PV rule's u-nodes), or which is itself in the cap, is a ring of
one, where R = I.  An axis with no ring-mate is a ring of one, on the same
path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .geometry import (POLAR_CAP, Ray, cylindrical_frame, dot_rows, gauss_legendre,
                       great_circle_nodes, polar_cap, refuse, unit_rows)
from .harmonics import SYNTH_BLOCK, SphericalFunction
from .fields import _curl, jacobian_fd, moses_q, moses_q_many
from .sphere import PVRule, canonical_axes_many


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
# through the last three.  GAUSS_ORDER-point panels run out to where the
# weakest damping exp(-eps s^2) has fallen to TAIL.
LADDER = np.array([0.032, 0.016, 0.008, 0.004])
GAUSS_ORDER = 6
TAIL = 1e-16
EXTRAPOLATE = np.array([-1.0, 14.0, -56.0, 64.0]) / 21.0
ESTIMATE = np.array([-1.0, 7.0, -14.0, 8.0]) / 21.0


@functools.lru_cache(maxsize=8)
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-line rule at nu_scale 1, with panels panels per period 2 pi: its
    nodes t (n,) and its damping matrix w exp(-LADDER t^2) (4, n).

    GAUSS_ORDER-point Gauss panels of width 2 pi/panels cover [0, t_max], where
    exp(-LADDER[-1] t^2) falls to TAIL.  A ray of scale nu takes the nodes t/nu
    and the weights w/nu; since eps_j s^2 = LADDER_j t^2 at s = t/nu, its damped
    ladder is this matrix times its values at those nodes, over nu.  So the rule
    has the same n nodes for every nu_scale (738 at 8 panels per period).
    """
    if panels < 8:
        raise ValueError("panels_per_period must be at least 8")
    t_max = float(np.sqrt(np.log(1.0 / TAIL) / LADDER[-1]))
    edges = np.linspace(0.0, t_max, int(np.ceil(t_max * panels / (2.0 * np.pi))) + 1)
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
    from ceil(|nu r|) + 12 in steps of 4, up to 400, until |J_n(nu r)| < 1e-16."""
    n = np.ceil(np.abs(nu_r)).astype(int) + 12
    while np.any(more := (np.abs(jv(n, nu_r)) >= 1e-16) & (n < 400)):
        n = n + 4 * more
    return n


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
    rule elementwise on float64 (re, im) pairs: sin and cos are taken once per value, and
    a value's bits do not depend on the batch.  J_k above a row's own order are zero; leading
    zeros change no bit but the sign of a zero, so a zero sum is returned as +0.
    """
    n, out = _series_order(nu_r), []
    for k0, step, sign, *trigs in parts:
        k = np.arange(k0, n.max(initial=0) + 1, step).reshape((-1,) + (1,) * n.ndim)
        c = np.where(k > n, 0.0, jv(k, nu_r) * sign ** k)           # (K, ...) coefficients
        zr, zi = np.cos(step * psi), np.sin(step * psi)
        re, im, t, u = np.zeros((4,) + psi.shape)
        for cj in c[::-1]:                     # (re + i im) <- (re + i im) z + c_j
            np.multiply(re, zi, out=t)
            re *= zr
            re -= np.multiply(im, zi, out=u)
            re += cj
            im *= zr
            im += t
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
    phase = np.exp(1j * k0 * dot_rows(x, np.broadcast_to(kappa0, x.shape)))
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
        phase = np.exp(1j * nu * (kappas @ x))
        return phase[..., None] * moses_q_many(kappas, lam) * s(kappas)[..., None]

    return G


_PREF = (2.0 * np.pi) ** (-0.5)

# Complex entries per (rings x members x nodes) block of the ring engine.  It
# bounds the engine's temporaries (256 kB each); the fastest of 2^13..2^17 on
# the six helical inversions of 32x64 grids on a 2-core AVX-512 Xeon.
RING_BLOCK = 1 << 14


def _rings(axes: np.ndarray, us: np.ndarray) -> list[np.ndarray]:
    """Indices of the canonical axes (N, 3) of one source grouped into rings, in input order.

    A ring's axes have equal z components, so they are z-rotations of the
    first of them, the ring's base.  An axis that is in the polar cap, or
    whose nodes on the circles k.a = +-u, u in us, can be, is a ring of one,
    and so is an axis with no ring-mate.
    """
    reach = np.abs(np.abs(axes[:, 2, None]) - us).min(axis=1) <= 2.0 * POLAR_CAP
    cap = polar_cap(axes) | reach
    free = np.flatnonzero(~cap)
    order = np.argsort(axes[free, 2], kind="stable")         # rings in input order
    bounds = np.flatnonzero(np.diff(axes[free[order], 2]) != 0) + 1
    rings = np.split(free[order], bounds) if free.size else []
    return rings + [np.array([i]) for i in np.flatnonzero(cap)]


def _column_weights(circle_n: int, circle_w: complex, pv: PVRule | None,
                    pv_w: complex) -> np.ndarray:
    """Weights (n,) of the n nodes of every axis: circle_n great-circle nodes,
    then pv's k_plus and k_minus nodes.

    Over the circle nodes sum_j w_j G(k_j) = circle_w Int_C G dphi, over the
    rest pv_w PV Int G(k)/(k.a) dOmega about the axis a.
    """
    weights = [np.full(circle_n, circle_w * (2.0 * np.pi / circle_n))] if circle_n else []
    if pv is not None:
        u, wu = pv.u_rule()
        w = (pv_w * (2.0 * np.pi / pv.n_psi)) * np.repeat(wu / u, pv.n_psi)
        weights += [w, -w]
    return np.concatenate(weights)


def _base_nodes(bases: np.ndarray, circle_n: int, pv: PVRule | None) -> np.ndarray:
    """The nodes (B, n, 3) of axes (B, 3), in the order of _column_weights."""
    nodes = [great_circle_nodes(bases, circle_n)] if circle_n else []
    if pv is not None:
        k_plus, k_minus, _ = pv.nodes(bases)
        nodes += [k_plus.reshape(len(bases), -1, 3), k_minus.reshape(len(bases), -1, 3)]
    return np.concatenate(nodes, axis=1)


def _pairs(circle_n: int, pv: PVRule | None):
    """The antipodal pairs among the n columns of _column_weights (_base_nodes).

    Per part (circle, PV): its columns [lo, hi), its first nodes [lo, end) and
    its row length L, so that the partner of lo + i L + j is end + i L + (j + L/2)
    % L; end = hi in an odd part, which has no pairs.  Then slot (n,), the number
    of the first node column c pairs with, and the number m of first nodes.
    """
    M, row = (pv.n_u * pv.n_psi, pv.n_psi) if pv is not None else (0, 1)
    parts, slot, m = [], np.empty(circle_n + 2 * M, dtype=np.intp), 0
    for lo, hi, L, even in ((0, circle_n, 1, circle_n % 2 == 0),
                            (circle_n, circle_n + 2 * M, row, row % 2 == 0)):
        end = (lo + hi) // 2 if even else hi
        first = m + np.arange(end - lo)
        slot[lo:end], m = first, m + end - lo
        if end < hi:
            slot[end:hi] = np.roll(first.reshape(-1, L), L // 2, axis=1).ravel()
        parts.append((lo, end, hi, L))
    return parts, slot, m


def _ring_beams(nu: float, lam: int, s: SphericalFunction, thetas: np.ndarray, x,
                circle_n: int, circle_w: complex, pv: PVRule | None,
                pv_w: complex) -> np.ndarray:
    """circle_w Int_C G_x dphi + pv_w PV Int G_x(k)/(k.theta) dOmega per direction (N, 3).

    theta and -theta have the same great circle and the same PV nodes about
    their canonical axis a = sigma theta, so each distinct (axis, source) is
    evaluated once, to its circle sum C and its PV sum P about a, and theta
    gets C + sigma P.  A shared source x (3,) groups its axes into _rings, one
    source per direction (N, 3) makes each a ring of one.  Rings of equal size
    go through _ring_block together, as many as fit in RING_BLOCK.
    """
    thetas = unit_rows(thetas)
    axes, signs = canonical_axes_many(thetas)
    xs = np.broadcast_to(np.asarray(x, dtype=float), axes.shape)
    bits = np.concatenate([axes, xs], axis=1).view(np.dtype((np.void, 6 * axes.itemsize)))
    _, first, inv = np.unique(bits.ravel(), return_index=True, return_inverse=True)
    axes, xs = axes[first], xs[first]
    sums = np.empty((axes.shape[0], 2, 3), dtype=complex)
    by_size: dict[int, list[np.ndarray]] = {}
    circles = np.concatenate([[0.0] if circle_n else [], pv.u_rule()[0] if pv else []])
    for ring in _rings(axes, circles) if np.ndim(x) == 1 else np.arange(len(axes))[:, None]:
        by_size.setdefault(len(ring), []).append(ring)
    weights = _column_weights(circle_n, circle_w, pv, pv_w)
    work = {"parts": s.orders(), "pairs": _pairs(circle_n, pv)}   # shared by the ring blocks
    for size, rings in by_size.items():
        per = max(1, RING_BLOCK // (size * len(weights)))
        for lo in range(0, len(rings), per):
            idx = np.stack(rings[lo: lo + per])
            vals = _ring_block(nu, lam, s, axes[idx], xs[idx[:, 0]], circle_n, pv, weights, work)
            sums[idx.ravel()] = vals.reshape(-1, 2, 3)
    out = sums[inv.ravel(), 0]
    out += signs[:, None] * sums[inv.ravel(), 1]
    return out


def _buffer(work: dict, key: str, shape: tuple, dtype=complex) -> np.ndarray:
    """A view of the given shape on the buffer work[key], grown when too small."""
    size = int(np.prod(shape))
    if key not in work or work[key].size < size:
        work[key] = np.empty(size, dtype=dtype)
    return work[key][:size].reshape(shape)


def _windows(circle_n: int, n: int, step: int, width: int):
    """The node columns of a ring block, in windows of `width` columns.

    The circle part [0, circle_n) and the PV part [circle_n, n) are summed in
    chunks [k0, k1) of `step` columns (the last of a part shorter), one GEMM
    each.  The windows tile the columns in order, each filled to `width`
    columns, and cut the chunks into pieces.  No piece is narrower than 2
    columns unless its chunk is: BLAS takes another path for one row, which
    rounds differently.  Yields each window as its pieces (part, k0, c0, c1,
    k1): the columns [c0, c1) of the chunk [k0, k1).
    """
    window, room = [], width
    for part, (lo, hi) in enumerate(((0, circle_n), (circle_n, n))):
        for k0 in range(lo, hi, step):
            k1, c0 = min(k0 + step, hi), k0
            while c0 < k1:
                if k1 - c0 > room < 3:
                    yield window
                    window, room = [], width
                c1 = min(k1, c0 + room)
                c1 -= k1 - c1 == 1                     # leave no one-column remainder
                window.append((part, k0, c0, c1, k1))
                room -= c1 - c0
                c0 = c1
                if not room:
                    yield window
                    window, room = [], width
    if window:
        yield window


def _ring_block(nu: float, lam: int, s: SphericalFunction, th: np.ndarray, xs: np.ndarray,
                circle_n: int, pv: PVRule | None, weights: np.ndarray,
                work: dict) -> np.ndarray:
    """Circle and PV node sums for B rings of R axes each, th (B, R, 3) -> (B, R, 2, 3).

    The nodes of the member R_psi theta0 are R_psi applied to the nodes of the
    base theta0, and G_x(R k) = R e^{i nu k.(R^T x)} Q_lam(k) sum_m e^{i m psi}
    s_m(k), x the ring's source in xs (B, 3).  So s_m and Q are evaluated at
    the base's nodes only, s at every member is one GEMM, and each node sum is
    one GEMM per chunk of nodes; the circle and the PV nodes go to two
    accumulators in the same pass.  The per-node work runs over windows of
    about SYNTH_BLOCK nodes (_windows), so its temporaries stay in cache, and
    each node's s_m is computed once, in whole synthesis blocks.  Q and the
    phase cos/sin are taken at the first node k of each antipodal pair
    (_pairs): -k gets Q_lam(-k) = sigma conj Q_lam(k), sigma = -1 outside the
    polar cap and +1 in it, and the conjugate phase (the angle is negated, and
    cos/sin are even/odd bit for bit), which waits in a (B, m, R) buffer.
    Q_lam(R k) = R Q_lam(k) needs the base's nodes outside the polar cap unless
    R = I, which _rings ensures.
    """
    L, parts, (pairs, slot, m) = s.lmax, work["parts"], work["pairs"]
    nodes = _base_nodes(th[:, 0], circle_n, pv)                        # (B, n, 3)
    psi = np.arctan2(th[..., 1], th[..., 0]) - np.arctan2(th[:, :1, 1], th[:, :1, 0])
    rot = np.zeros(psi.shape + (3, 3))                                 # R_psi (B, R, 3, 3)
    rot[..., 0, 0] = rot[..., 1, 1] = np.cos(psi)
    rot[..., 1, 0] = np.sin(psi)
    rot[..., 0, 1] = -rot[..., 1, 0]
    rot[..., 2, 2] = 1.0
    rot_x = nu * np.einsum("brca,bc->bar", rot, xs)                    # nu R^T x, (B, 3, R)
    spin = np.exp(1j * np.arange(-L, L + 1)[:, None] * psi[:, None, :])  # (B, 2L+1, R)

    B, R, n = psi.shape + (nodes.shape[1],)
    step = max(1, RING_BLOCK // (B * R))
    width = max(4, SYNTH_BLOCK // B)
    S, P = min(step, n), min(step, width, n)
    wq = _buffer(work, "wq", (B, n, 3))                                # w Q per column
    for lo, end, hi, row in pairs:     # Q at the first nodes, sigma conj Q at their partners
        g = max(1, width // row) * row
        for c in range(lo, end, g):
            d = min(c + g, end)
            q = moses_q_many(nodes[:, c:d], lam)
            wq[:, c:d] = q
            if end < hi:
                np.negative(q.real, out=q.real)                        # -conj Q,
                np.negative(q, out=q, where=polar_cap(nodes[:, c:d])[..., None])  # conj in the cap
                p = wq[:, c - lo + end: d - lo + end].reshape(B, -1, row, 3)   # a view
                p[...] = np.roll(q.reshape(p.shape), row // 2, axis=2)
    np.multiply(weights[:, None], wq, out=wq)
    val = _buffer(work, "val", (B, S, R))                              # a chunk's weighted s
    ang = _buffer(work, "ang", (B, P, R), float)                       # a piece's phases
    sm_spin = _buffer(work, "sm_spin", (B, P, R))                      # and s at the members
    conj = _buffer(work, "conj", (B, m, R))                            # the partners' phases
    acc = np.zeros((2, B, 3, R), dtype=complex)                        # circle, PV
    for window in _windows(circle_n, n, step, width):
        w0, w1 = window[0][2], window[-1][3]
        k = nodes[:, w0:w1]
        sm = parts(k)                                                  # (B, w, 2L+1)
        for part, k0, c0, c1, k1 in window:
            cols, rows = slice(c0 - w0, c1 - w0), slice(c0 - k0, c1 - k0)
            # e^{i nu (R k).x} s(R k) at the piece's nodes k: first nodes [c0, c0 + e), angles
            # from the whole piece's matmul (a narrower one can round differently), partners
            v, e = val[:, rows], min(max(c0, pairs[part][1]), c1) - c0
            if e:
                a = np.matmul(k[:, cols], rot_x, out=ang[:, : c1 - c0])[:, :e]
                np.cos(a, out=v[:, :e].real)
                np.sin(a, out=v[:, :e].imag)
                np.conjugate(v[:, :e], out=conj[:, slot[c0]: slot[c0] + e])
            if e < c1 - c0:
                np.take(conj, slot[c0 + e: c1], axis=1, out=v[:, e:], mode="clip")
            v *= np.matmul(sm[:, cols], spin, out=sm_spin[:, : c1 - c0])
            if c1 == k1:
                acc[part] += np.swapaxes(wq[:, k0:k1], 1, 2) @ val[:, : k1 - k0]
    return np.einsum("brac,pbcr->brpa", rot, acc)


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


def _extension_jacobians(xray_fn, theta, x, h: float):
    """The alpha-Jacobian J[c, j] of the extension at (theta, x) and its
    x-Jacobian M[c, j, m] = d2 g_c / dalpha_j dx_m.

    xray_fn must accept an arbitrary x (whole-line transforms are translation
    invariant along theta).
    """
    mixed = jacobian_fd(lambda xs: np.stack([_alpha_jacobian(xray_fn, theta, p, h)
                                             for p in xs]), x, h)
    return _alpha_jacobian(xray_fn, theta, x, h), mixed


def john_residual(xray_fn, theta, x, h: float = 1e-3) -> float:
    """Symmetry defect of the mixed second derivatives of the extension.

    max |d2 g / dx_m dalpha_j - d2 g / dx_j dalpha_m| over the largest
    mixed-derivative magnitude; zero exactly when the data is a line transform.
    """
    _, M = _extension_jacobians(xray_fn, theta, x, h)
    return float(np.max(np.abs(M - np.swapaxes(M, 1, 2))) / np.max(np.abs(M)))


def curl_form_residual(xray_fn, nu_signed: float, theta, x, h: float = 1e-3) -> float:
    """Residual of d/dx_m (curl_alpha g) = nu d/dalpha_m g, maximized over m."""
    J, M = _extension_jacobians(xray_fn, theta, x, h)
    lhs = _curl(np.moveaxis(M, -1, 0))   # (m, component)
    rhs = nu_signed * J.T
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def theta_divergence_residual(xray_fn, theta, x, h: float = 1e-3) -> float:
    """|div_alpha g| relative to |grad_alpha g| for the homogeneous extension."""
    J = _alpha_jacobian(xray_fn, theta, x, h)
    return float(abs(np.trace(J)) / np.max(np.abs(J)))
