"""Tomographic inversion routes and the Riesz / Biot-Savart scalings.

Four reconstruction paths recover a curl eigenfield from its line transforms:

* spherical mean of the whole-line transform over all directions;
* the cross-product mean of the half-line transform (either orientation);
* the half-line spherical mean;
* recovery of the plane transform through the inverse-square kernel, followed
  by the plane-transform mean.

Beam data enters through BeamFunction, a direction-batched callable with
optional pole-reduced form: Lundquist-type beams diverge like 1/v_r at the
cylinder axis directions, and their sphere integrals are formed in polar
coordinates where the Jacobian sin(alpha) cancels that divergence in closed
form before any node is evaluated.

On a curl eigenfield the order-alpha Riesz potential is the scaling nu^-alpha
(riesz_factor) and the Biot-Savart integral is the scaling 1/nu_s; rbs_moses
writes the Biot-Savart plane transform on the two frequency components of
fields.radon_moses_pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import PolarSphereGrid, Plane, great_circle_nodes
from .harmonics import SphericalFunction
from .fields import radon_moses, radon_moses_pair
from .sphere import PVRule
from .rays import (LundquistSeriesCfg, dbeam_lundquist_batch, dbeam_via_extfunk,
                   dbeam_via_extfunk_batch, xray_lundquist_batch,
                   xray_via_funk_batch, ytransform_lundquist_batch, ytransform_via_extfunk)


class PoleSingularity(ValueError):
    """Beam diverges at the polar directions and carries no reduced form."""


@dataclass(frozen=True)
class BeamFunction:
    """Direction-batched beam data for one of the line transforms.

    fn(thetas (N, 3), x (3,)) -> (N, 3) values; `reduced`, when present, maps
    the same arguments to v_r * value with the 1/v_r divergence cancelled
    analytically (v_r is the polar sine of theta).  kind is 'X', 'D', or 'Y'.
    """

    fn: Callable
    kind: str = "D"
    reduced: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("X", "D", "Y"):
            raise ValueError("beam kind must be 'X', 'D', or 'Y'")


def lundquist_xray_beam(F0: complex, nu: float, lam: int = 1) -> BeamFunction:
    return BeamFunction(
        fn=lambda th, x: xray_lundquist_batch(th, x, F0, nu, lam),
        kind="X",
        reduced=lambda th, x: xray_lundquist_batch(th, x, F0, nu, lam, reduced=True),
    )


def lundquist_dbeam_beam(F0: complex, nu: float,
                         cfg: LundquistSeriesCfg | None = None) -> BeamFunction:
    return BeamFunction(
        fn=lambda th, x: dbeam_lundquist_batch(th, x, F0, nu, cfg),
        kind="D",
        reduced=lambda th, x: dbeam_lundquist_batch(th, x, F0, nu, cfg, reduced=True),
    )


def lundquist_ybeam_beam(F0: complex, nu: float,
                         cfg: LundquistSeriesCfg | None = None) -> BeamFunction:
    return BeamFunction(
        fn=lambda th, x: ytransform_lundquist_batch(th, x, F0, nu, cfg),
        kind="Y",
        reduced=lambda th, x: ytransform_lundquist_batch(th, x, F0, nu, cfg, reduced=True),
    )


def moses_xray_beam(nu: float, lam: int, s: SphericalFunction,
                    circle_n: int = 256) -> BeamFunction:
    return BeamFunction(
        fn=lambda th, x: xray_via_funk_batch(nu, lam, s, th, x, circle_n),
        kind="X",
    )


def moses_dbeam_beam(nu: float, lam: int, s: SphericalFunction,
                     circle_n: int = 256, pv: PVRule | None = None) -> BeamFunction:
    pv = pv or PVRule()
    return BeamFunction(
        fn=lambda th, x: dbeam_via_extfunk_batch(nu, lam, s, th, x, circle_n, pv),
        kind="D",
    )


def moses_ybeam_beam(nu: float, lam: int, s: SphericalFunction,
                     pv: PVRule | None = None) -> BeamFunction:
    pv = pv or PVRule()
    return BeamFunction(
        fn=lambda th, x: ytransform_via_extfunk(nu, lam, s, th, x, pv),
        kind="Y",
    )


def sphere_mean_of_beam(beam: BeamFunction, x, grid: PolarSphereGrid) -> np.ndarray:
    """Integral of the beam over all directions through x."""
    thetas = grid.nodes()
    flat = thetas.reshape(-1, 3)
    if beam.reduced is not None:
        vals = np.asarray(beam.reduced(flat, x), dtype=complex)
        return grid.integrate_reduced(vals.reshape(thetas.shape[:2] + (3,)))
    vals = np.asarray(beam.fn(flat, x), dtype=complex)
    return grid.integrate_smooth(vals.reshape(thetas.shape[:2] + (3,)))


def invert_spherical_mean(xf: BeamFunction, x, nu: float, lam: int,
                          grid: PolarSphereGrid | None = None) -> np.ndarray:
    """F(x) = (nu / 4 pi^2) Int X F(theta, x) dOmega over all directions."""
    if xf.kind != "X":
        raise ValueError("spherical-mean inversion consumes whole-line data")
    if xf.reduced is None and not _bounded_at_poles(xf, x):
        raise PoleSingularity("whole-line data diverges at the axis directions")
    grid = grid or PolarSphereGrid(64, 128)
    return (nu / (4.0 * np.pi**2)) * sphere_mean_of_beam(xf, x, grid)


def gg_spherical_mean(df: BeamFunction, x, nu: float, lam: int,
                      grid: PolarSphereGrid | None = None) -> np.ndarray:
    """F(x) = (nu / 2 pi^2) Int D F(theta, x) dOmega over all directions."""
    if df.kind != "D":
        raise ValueError("half-line spherical mean consumes half-line data")
    if df.reduced is None and not _bounded_at_poles(df, x):
        raise PoleSingularity("half-line data diverges at the axis directions")
    grid = grid or PolarSphereGrid(64, 128)
    return (nu / (2.0 * np.pi**2)) * sphere_mean_of_beam(df, x, grid)


def _bounded_at_poles(beam: BeamFunction, x) -> bool:
    probe = np.array([[1e-8, 0.0, np.sqrt(1.0 - 1e-16)],
                      [1e-8, 0.0, -np.sqrt(1.0 - 1e-16)]])
    try:
        vals = np.asarray(beam.fn(probe, np.asarray(x, dtype=float)))
    except Exception:
        return False
    return bool(np.all(np.isfinite(vals)) and np.max(np.abs(vals)) < 1e8)


def invert_grangeat(df: BeamFunction, x, nu_signed: float,
                    grid: PolarSphereGrid | None = None, sign: int = 1) -> np.ndarray:
    """F(x) = +- (nu/4 pi) Int theta x D F(+-theta, x) dOmega.

    Both orientation choices are valid and must agree within quadrature error.
    """
    if df.kind != "D":
        raise ValueError("the cross-product mean consumes half-line data")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    grid = grid or PolarSphereGrid(64, 128)
    thetas = grid.nodes()
    flat = thetas.reshape(-1, 3)
    if df.reduced is not None:
        vals = np.asarray(df.reduced(sign * flat, x), dtype=complex)
        integ = np.cross(flat, vals.reshape(-1, 3)).reshape(thetas.shape[:2] + (3,))
        total = grid.integrate_reduced(integ)
    else:
        vals = np.asarray(df.fn(sign * flat, x), dtype=complex)
        integ = np.cross(flat, vals.reshape(-1, 3)).reshape(thetas.shape[:2] + (3,))
        total = grid.integrate_smooth(integ)
    return sign * (nu_signed / (4.0 * np.pi)) * total


def grangeat_intermediate(df: BeamFunction, kappa, x, circle_n: int = 128,
                          h: float = 1e-3) -> np.ndarray:
    """d/dp of the plane transform at p = kappa.x from half-line data.

    Great-circle integral of the directional derivative along kappa: the
    derivative-of-delta pairing is converted to a polar-offset central
    difference at q = 0 on theta(q, psi) = q kappa + sqrt(1-q^2) e_r(psi),
    Richardson-extrapolated over steps h and h/2.
    """
    kappa = np.asarray(kappa, dtype=float)
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
    """Plane transform from signed-beam data:

    F_R(kappa.x, kappa) = -(1/(2 nu)) kappa x Int Y F delta'(kappa.theta) dOmega,
    with the delta' integral reduced to the same polar-offset derivative rule
    as grangeat_intermediate (up to its sign).
    """
    if yf.kind != "Y":
        raise ValueError("signed-beam recovery consumes signed data")
    kappa = np.asarray(kappa, dtype=float)
    # Int Y delta'(kappa.theta) dOmega = -(great-circle derivative integral)
    dint = -grangeat_intermediate(yf, kappa, x, circle_n, h)
    return -(0.5 / nu_signed) * np.cross(kappa, dint)


def gg_radon_recovery(df: BeamFunction, b, x, nu: float, lam: int,
                      rule: PVRule | None = None) -> np.ndarray:
    """Plane transform from half-line data through the inverse-square kernel:

    F_R(b.x, b) = -(1/(pi nu)) f.p. Int D F(theta, x) / (theta.b)^2 dOmega.
    """
    if df.kind != "D":
        raise ValueError("inverse-square recovery consumes half-line data")
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
    a, b = radon_moses_pair(nu, lam, s, bs @ x, bs)
    # H multiplies e^{+-i nu p} by -+i and d/dp by +-i nu: H d/dp is nu on both
    vals = np.sqrt(2.0 * np.pi) / nu**2 * (nu * (a + b))
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

    def bracket(bs):
        # (H - i) d/dp keeps 2 nu times the e^{+i nu p} part and cancels the other
        a, _ = radon_moses_pair(nu, lam, s, bs @ x, bs)
        return np.sqrt(2.0 * np.pi) / nu**2 * (2.0 * nu * a)

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
    """Scaling of the order-alpha Riesz potential on a curl eigenfield: nu^-alpha."""
    if alpha >= 3:
        raise ValueError("Riesz order must satisfy alpha < 3")
    return float(nu) ** (-alpha)


def rbs_moses(nu: float, lam: int, s: SphericalFunction, plane: Plane) -> np.ndarray:
    """Plane transform of the Biot-Savart integral on helical data:
    i kappa x (a - b)/nu times sqrt(2 pi)/nu^2, the frequency components
    scaled by 1/k at k = +-nu."""
    a, b = radon_moses_pair(nu, lam, s, np.array([plane.p]), plane.kappa[None])
    pref = np.sqrt(2.0 * np.pi) / nu**2
    return 1j * np.cross(plane.kappa, pref * (a[0] - b[0]) / nu)


def rbs_dp_residual(nu: float, lam: int, s: SphericalFunction, plane: Plane) -> float:
    """Residual of d/dp RBS[F_R] = -kappa x F_R (analytic on helical data)."""
    a, b = radon_moses_pair(nu, lam, s, np.array([plane.p]), plane.kappa[None])
    pref = np.sqrt(2.0 * np.pi) / nu**2
    # d/dp of (a - b)/nu is (i nu a + i nu b)/nu
    dp = 1j * np.cross(plane.kappa, pref * 1j * (a[0] + b[0]))
    rhs = -np.cross(plane.kappa, radon_moses(nu, lam, s, plane))
    return float(np.linalg.norm(dp - rhs) / max(np.linalg.norm(rhs), 1e-300))
