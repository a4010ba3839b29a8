"""Tomographic inversion routes and the Riesz / Biot-Savart scalings.

Four reconstruction paths recover a curl eigenfield from its line transforms:

* spherical mean of the whole-line transform over all directions;
* the cross-product mean of the half-line transform (either orientation);
* the half-line spherical mean;
* recovery of the plane transform through the inverse-square kernel, followed
  by the plane-transform mean.

The sphere means integrate the beam over the nodes of a PolarSphereGrid, whose
nodes are built once per grid and shared, read-only, by every call; a point
x (3,) is a batch of one of points (P, 3).  Beam data enters through
BeamFunction, a direction-batched callable with optional pole-reduced form:
Lundquist-type beams diverge like 1/v_r at the cylinder axis directions, and
their sphere integrals are formed in polar coordinates where the Jacobian
sin(alpha) cancels that divergence in closed form before any node is
evaluated.  The reduced form depends on a direction only through its azimuth,
so its polar integral is closed, and a mean calls it on the grid's n_psi
horizontal directions alone (128 for the 64x128 default), from many points in
one call, and sums it by the trapezoid in azimuth.  A beam without a reduced form
(the transform-space routes) is called once per point on every node, after one
probe of both poles for all points that refuses it with PoleSingularity there.

The lundquist_* and moses_* constructors make the closed-form and
transform-space BeamFunctions that the catalog specs' `beam` returns; the
Lundquist half-line and signed beams of helicity -1 are y-mirror images of
those of helicity +1, so every route takes both helicities.

The plane-transform recoveries and the great-circle and half-line kernel
identities state each operator in the offset p (the derivative, H d/dp, the Tuy
bracket) as its multiplier pair in fields.radon_moses_many.  On a curl
eigenfield the order-alpha Riesz potential is the scaling |nu_s|^-alpha
(riesz_factor) and the Biot-Savart integral is the scaling 1/nu_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import PolarSphereGrid, great_circle_nodes, normalize
from .harmonics import SphericalFunction
from .fields import radon_moses_many
from .sphere import PVRule
from .rays import (dbeam_lundquist_batch, dbeam_via_extfunk, dbeam_via_extfunk_batch,
                   xray_lundquist_batch, xray_via_funk_batch, ytransform_lundquist_batch,
                   ytransform_via_extfunk)


class PoleSingularity(ValueError):
    """Beam diverges at the polar directions and carries no reduced form."""


@dataclass(frozen=True)
class BeamFunction:
    """Direction-batched beam data for one of the line transforms.

    fn(thetas (N, 3), x (3,) or (N, 3)) -> (N, 3) values; `reduced`, when present, maps
    the same arguments to v_r * value with the 1/v_r divergence cancelled
    analytically (v_r is the polar sine of theta).  kind is 'X', 'D', or 'Y'.
    """

    fn: Callable
    kind: str = "D"
    reduced: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("X", "D", "Y"):
            raise ValueError("beam kind must be 'X', 'D', or 'Y'")


def _lundquist_beam(batch, kind: str, *args) -> BeamFunction:
    """The beam of a Lundquist closed form batch(thetas, x, *args), reduced form included."""
    return BeamFunction(fn=lambda th, x: batch(th, x, *args), kind=kind,
                        reduced=lambda th, x: batch(th, x, *args, reduced=True))


def lundquist_xray_beam(F0: complex, nu: float, lam: int = 1) -> BeamFunction:
    return _lundquist_beam(xray_lundquist_batch, "X", F0, nu, lam)


def lundquist_dbeam_beam(F0: complex, nu: float, lam: int = 1) -> BeamFunction:
    return _lundquist_beam(dbeam_lundquist_batch, "D", F0, nu, lam)


def lundquist_ybeam_beam(F0: complex, nu: float, lam: int = 1) -> BeamFunction:
    return _lundquist_beam(ytransform_lundquist_batch, "Y", F0, nu, lam)


def _moses_beam(route, kind: str, nu: float, lam: int, s: SphericalFunction,
                *rule) -> BeamFunction:
    """The beam of a transform-space route(nu, lam, s, thetas, x, *rule)."""
    return BeamFunction(fn=lambda th, x: route(nu, lam, s, th, x, *rule), kind=kind)


def moses_xray_beam(nu: float, lam: int, s: SphericalFunction,
                    circle_n: int = 256) -> BeamFunction:
    return _moses_beam(xray_via_funk_batch, "X", nu, lam, s, circle_n)


def moses_dbeam_beam(nu: float, lam: int, s: SphericalFunction,
                     circle_n: int = 256, pv: PVRule | None = None) -> BeamFunction:
    return _moses_beam(dbeam_via_extfunk_batch, "D", nu, lam, s, circle_n, pv or PVRule())


def moses_ybeam_beam(nu: float, lam: int, s: SphericalFunction,
                     pv: PVRule | None = None) -> BeamFunction:
    return _moses_beam(ytransform_via_extfunk, "Y", nu, lam, s, pv or PVRule())


# Points times azimuths per call of a reduced beam.  It bounds the beam's temporaries,
# (P, n_psi) arrays of 128 kB per float64: a 64x128 grid lets 128 points share a call.
# On 600 points (2-core VM) 2^12, 2^14 and 2^16 took 6-19 ms a mean, within one
# another's run-to-run spread, at 1.0, 3.6 and 9.5 MB of traced memory.
MEAN_BLOCK = 1 << 14


def sphere_mean_of_beam(beam: BeamFunction, x, grid: PolarSphereGrid, sign: int = 1,
                        cross: bool = False) -> np.ndarray:
    """Integral over all directions theta of the beam at sign theta through x,
    or of theta x that beam when cross, in the pole-reduced form if it has one.

    x is a point (3,) or points (P, 3), and the value has its shape.  A reduced beam
    (times the Jacobian sin(alpha)) depends only on the azimuth psi of sign theta, so its
    polar integral is pi times it, or 2 e(psi) x it when cross, e(psi) = (cos psi, sin
    psi, 0): it is called on sign e(psi) at the grid's n_psi azimuths, from as many points
    at once as fit in MEAN_BLOCK.  Other beams are called once per point on every node.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    if beam.reduced is None:
        thetas = grid.nodes()
        flat = thetas.reshape(-1, 3)
        means = []
        for p in pts:
            vals = np.asarray(beam.fn(sign * flat, p), dtype=complex).reshape(-1, 3)
            if cross:
                vals = np.stack(_cross(flat.T, vals.T), axis=-1)
            means.append(grid.integrate_smooth(vals.reshape(thetas.shape[:2] + (3,))))
        return np.stack(means).reshape(x.shape)
    # e(psi) (3, n_psi): Int_0^pi theta dalpha = 2 e(psi), Int_0^pi dalpha = pi
    e = np.stack([np.cos(grid.psis), np.sin(grid.psis), np.zeros(grid.n_psi)])
    dpsi = 2.0 * np.pi / grid.n_psi
    per, means = max(1, MEAN_BLOCK // grid.n_psi), []
    for i in range(0, len(pts), per):
        try:
            vals = beam.reduced(sign * e.T, pts[i:i + per, None, :])       # (P, n_psi, 3)
        except ValueError as err:                  # a refused point, at its row of x
            if hasattr(err, "row"):
                err.row += i
            raise
        v = np.moveaxis(np.asarray(vals, dtype=complex), -1, 0)
        terms = _cross(2.0 * dpsi * e, v) if cross else [np.pi * dpsi * vc for vc in v]
        # (P, 3, n_psi): each sum runs along its own contiguous row, so P leaves its bits
        means.append(np.stack(terms, axis=1).sum(axis=-1))
    return np.concatenate(means).reshape(x.shape)


def _cross(t, v) -> list:
    """The components of t x v from theirs, as np.cross's products and differences."""
    (t0, t1, t2), (v0, v1, v2) = t, v
    return [t1 * v2 - t2 * v1, t2 * v0 - t0 * v2, t0 * v1 - t1 * v0]


# The data each kind of beam carries, as the errors name it
_DATA = {"X": "whole-line", "D": "half-line", "Y": "signed"}


def _pole_guard(beam: BeamFunction, kind: str, x) -> None:
    """Raise PoleSingularity if beam.fn diverges at the axis directions: the beam has a reduced
    form (so fn diverges like 1/v_r there), or fn, probed next to both poles from all points x
    in one call (2P rows), is not below 1e8 there or raises ValueError (DegenerateRay, ...)."""
    pts = np.repeat(np.asarray(x, dtype=float).reshape(-1, 3), 2, axis=0)
    probe = np.tile([[1e-8, 0.0, 1.0 - 1e-16], [1e-8, 0.0, 1e-16 - 1.0]], (len(pts) // 2, 1))
    try:
        bounded = beam.reduced is None and np.all(np.abs(beam.fn(probe, pts)) < 1e8)
    except ValueError:
        bounded = False
    if not bounded:
        raise PoleSingularity(f"{_DATA[kind]} data diverges at the axis directions")


def _mean(beam: BeamFunction, kind: str, route: str, scale: float, x,
          grid: PolarSphereGrid | None, sign: int = 1, cross: bool = False) -> np.ndarray:
    """scale times sphere_mean_of_beam on grid (64x128 by default), after the input checks."""
    if beam.kind != kind:
        raise ValueError(f"{route} consumes {_DATA[kind]} data")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if beam.reduced is None:
        _pole_guard(beam, kind, x)
    return scale * sphere_mean_of_beam(beam, x, grid or PolarSphereGrid(64, 128), sign, cross)


def invert_spherical_mean(xf: BeamFunction, x, nu: float,
                          grid: PolarSphereGrid | None = None) -> np.ndarray:
    """F(x) = (nu / 4 pi^2) Int X F(theta, x) dOmega over all directions, x (3,) or (P, 3)."""
    return _mean(xf, "X", "spherical-mean inversion", nu / (4.0 * np.pi**2), x, grid)


def gg_spherical_mean(df: BeamFunction, x, nu: float,
                      grid: PolarSphereGrid | None = None) -> np.ndarray:
    """F(x) = (nu / 2 pi^2) Int D F(theta, x) dOmega over all directions, x (3,) or (P, 3)."""
    return _mean(df, "D", "half-line spherical mean", nu / (2.0 * np.pi**2), x, grid)


def invert_grangeat(df: BeamFunction, x, nu_signed: float,
                    grid: PolarSphereGrid | None = None, sign: int = 1) -> np.ndarray:
    """F(x) = +- (nu/4 pi) Int theta x D F(+-theta, x) dOmega, at x (3,) or (P, 3).

    Both orientation choices are valid and must agree within quadrature error.
    """
    return _mean(df, "D", "the cross-product mean", sign * (nu_signed / (4.0 * np.pi)), x,
                 grid, sign, cross=True)


def grangeat_intermediate(df: BeamFunction, kappa, x, circle_n: int = 128,
                          h: float = 1e-3) -> np.ndarray:
    """d/dp of the plane transform at p = kappa.x from half-line data.

    Great-circle integral of the directional derivative along kappa: the
    derivative-of-delta pairing is converted to a polar-offset central
    difference at q = 0 on theta(q, psi) = q kappa + sqrt(1-q^2) e_r(psi),
    Richardson-extrapolated over steps h and h/2.  kappa is taken as a direction.  A
    beam that diverges at the axis directions is refused with PoleSingularity, as in
    gg_radon_recovery: a circle through the poles would sample the divergence.
    """
    _pole_guard(df, df.kind, x)
    kappa = normalize(kappa)
    x = np.asarray(x, dtype=float)
    er = great_circle_nodes(kappa, circle_n)
    steps = (h, -h, h / 2.0, -h / 2.0)
    # one call for the four circles: with even circle_n the circle at -step is,
    # node for node, the antipode of the circle at +step shifted by pi
    circles = [st * kappa + np.sqrt(1.0 - st * st) * er for st in steps]
    vals = np.asarray(df.fn(np.concatenate(circles), x), dtype=complex)
    vals = vals.reshape((4, circle_n) + vals.shape[1:])

    def circle_derivative(plus, minus, step):
        deriv = (plus - minus) / (2.0 * step)
        return deriv.sum(axis=0) * (2.0 * np.pi / circle_n)

    d1 = circle_derivative(vals[0], vals[1], h)
    d2 = circle_derivative(vals[2], vals[3], h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def y_radon_recovery(yf: BeamFunction, kappa, x, nu_signed: float,
                     circle_n: int = 128, h: float = 1e-3) -> np.ndarray:
    """The plane transform from signed-beam data:

    F_R(kappa.x, kappa) = -(1/(2 nu)) kappa x Int Y F delta'(kappa.theta) dOmega,
    with the delta' integral reduced to the same polar-offset derivative rule
    as grangeat_intermediate (up to its sign).
    """
    if yf.kind != "Y":
        raise ValueError("signed-beam recovery consumes signed data")
    kappa = normalize(kappa)
    # Int Y delta'(kappa.theta) dOmega = -(great-circle derivative integral)
    dint = -grangeat_intermediate(yf, kappa, x, circle_n, h)
    return -(0.5 / nu_signed) * np.cross(kappa, dint)


def gg_radon_recovery(df: BeamFunction, b, x, nu: float,
                      rule: PVRule | None = None) -> np.ndarray:
    """The plane transform from half-line data through the inverse-square kernel:

    F_R(b.x, b) = -(1/(pi nu)) f.p. Int D F(theta, x) / (theta.b)^2 dOmega.
    """
    if df.kind != "D":
        raise ValueError("inverse-square recovery consumes half-line data")
    _pole_guard(df, "D", x)         # the finite-part rule samples the axis directions
    rule = rule or PVRule(64, 128)
    x = np.asarray(x, dtype=float)
    fp = rule.fp_sphere(lambda th: df.fn(th, x), b)
    return -(1.0 / (np.pi * nu)) * fp


# --------------------------------------------------------------------------
# Identity checks: great-circle form of X and the half-line kernel form of D
# --------------------------------------------------------------------------

def smith_identity_check(nu: float, lam: int, s: SphericalFunction, theta, x,
                         circle_n: int = 256) -> float:
    """Residual of X F = (1/4 pi) Int [H d/dp F_R](b.x, b) delta(b.theta) dOmega
    with the bracket collapsed analytically to nu F_R.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    bs = great_circle_nodes(theta, circle_n)
    vals = radon_moses_many(nu, lam, s, bs @ x, bs, nu, nu)     # H d/dp
    lhs = vals.sum(axis=0) * (2.0 * np.pi / circle_n) / (4.0 * np.pi)
    rhs = xray_via_funk_batch(nu, lam, s, theta, x, circle_n)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


def tuy_identity_check(nu: float, lam: int, s: SphericalFunction, theta, x,
                       circle_n: int = 256, rule: PVRule | None = None) -> float:
    """Residual of the half-line kernel form of D with the analytic bracket:

    D F = (1/4 pi) Int [(H - i) d/dp F_R](b.x, b) delta_plus(b.theta) dOmega
    against the sphere-data evaluation of D.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    rule = rule or PVRule()
    bracket = lambda bs: radon_moses_many(nu, lam, s, bs @ x, bs, 2.0 * nu, 0.0)  # (H - i) d/dp
    bs = great_circle_nodes(theta, circle_n)
    circle_part = bracket(bs).sum(axis=0) * (2.0 * np.pi / circle_n)
    pv_part = rule.pv_sphere(bracket, theta)
    # delta_plus(u) = (1/2) delta(u) + (i/(2 pi)) P(1/u)
    lhs = (0.5 * circle_part + (1j / (2.0 * np.pi)) * pv_part) / (4.0 * np.pi)
    rhs = dbeam_via_extfunk(nu, lam, s, theta, x, circle_n, rule)
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


# --------------------------------------------------------------------------
# Riesz potential and Biot-Savart scalings
# --------------------------------------------------------------------------

def riesz_factor(nu: float, alpha: float) -> float:
    """Scaling of the order-alpha Riesz potential on a curl eigenfield of eigenvalue
    nu (of either sign): |nu|^-alpha, as -Laplacian = curl curl has eigenvalue nu^2."""
    if not alpha < 3:
        raise ValueError("Riesz order must satisfy alpha < 3")
    nu = abs(float(nu))
    if not 0.0 < nu < np.inf:
        raise ValueError("the eigenvalue must be finite and nonzero")
    return nu ** (-alpha)
