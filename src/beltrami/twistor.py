"""Contour-integral generator for curl eigenfields on mini-twistor data.

A point x and a spectral parameter omega meet through the incidence value

    eta(x, omega) = (x + i y) + 2 z omega - (x - i y) omega^2.

Closed contour integrals of  [(1 - w^2), i (1 + w^2), 2 w] e^{-i k f} u(eta, w)
produce fields with curl F = k F for any u holomorphic near the contour; the
null prefactor makes the curl condition automatic.  Two phase factors are
supported:

    F1: f = omega (x - i y) - z
    F2: f = (1/2) [omega (x - i y) + (x + i y)/omega]

which generate the same field classes (they differ by a factor holomorphic in
omega that can be absorbed into u).  Every contour integral goes through one
adaptive driver over a batch of integrands, each summed by one fixed-n
trapezoid kernel along a doubling schedule.  The fields and the scalar
Helmholtz potentials (the same integrals without the null vector, the point
source among them) share one point driver, at points x (3,) or (P, 3); a point
is a batch of one.  The spheromak Debye potential takes j0 and spherical_jn from
geometry.special, which imports scipy.special at the first call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import gauss_legendre, refuse, special
from .fields import (CKCylindrical, JSONSpec, cplx, curl_fd, eval_field, integer, list_of,
                     pair, real, scalar, typed)
from .rays import NonConvergence

j0, spherical_jn = special("j0"), special("spherical_jn")


class PoleOnContour(ValueError):
    """A pole of the integrand lies too close to the contour."""


class BranchViolation(ValueError):
    """Point outside the branch of validity (z <= 0 for the point-source case)."""


def incidence_eta(x, omega):
    """Incidence value eta(x, omega); omega may be scalar or an array, and x a point
    (3,) or points by component (3, ...) that broadcast against omega."""
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega)
    zeta = x[0] + 1j * x[1]
    zeta_bar = x[0] - 1j * x[1]
    return zeta + 2.0 * x[2] * omega - zeta_bar * omega**2


@functools.lru_cache(maxsize=32)
def _unit_roots(n: int) -> np.ndarray:
    """The n nodes e^{2 pi i j / n}, read-only: every doubling level of every
    point batch asks for them again."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class ContourSpec:
    """The unit circle with N trapezoid nodes e^{2 pi i j / N}."""

    N: int = 64

    def __post_init__(self):
        if self.N < 8:
            raise ValueError("contour needs at least 8 nodes")

    def nodes(self, n: int | None = None) -> np.ndarray:
        return _unit_roots(n or self.N)

    def check_poles(self, poles, tol: float = 1e-6):
        for p in poles:
            if abs(abs(complex(p)) - 1.0) < tol:
                raise PoleOnContour(f"pole {p} within {tol} of the contour")


def _trapezoid(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Trapezoid contour integral (2 pi i / n) sum_j w_j g_j of the values g (n,) or
    (n, 3) of one integrand at the n nodes w of the unit circle."""
    return (2j * np.pi / len(w)) * np.tensordot(w, g, axes=(0, 0))


def _top_nodes(c: ContourSpec) -> int:
    """The largest node count of the doubling schedule on the contour c: twice
    max(c.N, 16), doubled until it is 4096 or more."""
    n = 2 * max(c.N, 16)
    while n < 4096:
        n *= 2
    return n


def _contour_integrate_vec(gvec, c: ContourSpec, tol: float = 1e-12) -> np.ndarray:
    """Adaptive trapezoid integrals of a batch of P integrands, gvec(w) -> (P, n) or
    (P, n, 3) at the n nodes w, to (P,) or (P, 3).

    Each integrand's node count doubles from max(c.N, 16), at least once, until
    two of its values differ by < tol in every component or the count reaches
    _top_nodes(c).  There the trapezoid error decays geometrically in n, so
    min(d, d^2/d_prev), from the last two doubling differences d_prev and d (d
    alone after one doubling), estimates the last value's error: the value is
    returned if that is at most 1e-12 max(1, |value|) and refused with
    NonConvergence otherwise, the first integrand refused as its row.  Each
    integrand stops at its own count and is summed alone by _trapezoid, so it
    gets the value it has in a batch of one; gvec is evaluated for the whole
    batch at every count one of them still needs.
    """
    def sums(n: int, rows=None):
        """The trapezoid sums at n nodes of the integrands rows (all when None)."""
        w = c.nodes(n)
        g = np.asarray(gvec(w))
        return [_trapezoid(w, g[i]) for i in (range(len(g)) if rows is None else rows)]

    n, top = max(c.N, 16), _top_nodes(c)
    prev = sums(n)
    d, d_prev = [None] * len(prev), [None] * len(prev)
    live = list(range(len(prev)))
    while live and n < top:
        n *= 2
        for i, cur in zip(live, sums(n, live)):
            d[i], d_prev[i] = np.max(np.abs(cur - prev[i])), d[i]
            prev[i] = cur
        live = [i for i in live if not d[i] < tol]
    for i in live:
        est = min(d[i], d[i] * d[i] / (d_prev[i] or d[i]))
        if est > 1e-12 * max(1.0, np.max(np.abs(prev[i]))):
            e = NonConvergence(f"contour values still differ by {d[i]:.3g} at {n} nodes")
            e.row = i
            raise e
    return np.array(prev)


# --------------------------------------------------------------------------
# Integrand catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaPowerOverOmega(JSONSpec):
    """u = eta^n / (omega - omega0)^m."""

    n: int = 0
    m: int = 1
    omega0: complex = 0.0
    kind = "eta_power_over_omega"
    keys = {"n": (integer, 0), "m": (integer, 1), "omega0": (cplx, 0j)}

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise ValueError("need n >= 0 and m >= 1")

    def poles(self, x):
        return [self.omega0]

    def __call__(self, x, w):
        return incidence_eta(x, w) ** self.n / (w - self.omega0) ** self.m


@dataclass(frozen=True)
class HolomorphicOfEta(JSONSpec):
    """u = g(eta)/omega^m for a polynomial g given by its coefficients."""

    coefficients: tuple[complex, ...]
    denominator_power: int = 1
    kind = "holomorphic_of_eta"
    keys = {"coefficients": (list_of(cplx),), "denominator_power": (integer, 1)}

    def g(self, eta):
        out = np.zeros_like(np.asarray(eta, dtype=complex))
        for a in reversed(self.coefficients):
            out = out * eta + a
        return out

    def __call__(self, x, w):
        return self.g(incidence_eta(x, w)) / w ** self.denominator_power


@dataclass(frozen=True)
class LaurentInOmegaPrime(JSONSpec):
    """u = 1/omega'^(n+1) under omega = i omega' (cylindrical eigenfield family)."""

    n: int
    kind = "laurent_in_omega_prime"
    keys = {"n": (integer,)}

    def __call__(self, x, w):
        return (w / 1j) ** (-(self.n + 1))


@dataclass(frozen=True)
class LundquistKernel(JSONSpec):
    """u = (1/omega^2) exp(-i (nu/2) eta / omega), the F1-phase Lundquist datum."""

    nu: float = 1.0
    kind = "lundquist_kernel"
    keys = {"nu": (real, 1.0)}

    def split(self, x, w):
        """(E, d) with u = e^E / d, so that the contour sum can take the phase
        and this exponential in one exp: far from the axis each overflows alone."""
        return -0.5j * self.nu * incidence_eta(x, w) / w, w**2

    def __call__(self, x, w):
        E, d = self.split(x, w)
        return np.exp(E) / d


@dataclass(frozen=True)
class RawLaurent(JSONSpec):
    """u = sum_k a_k omega^k from a table {k: a_k} (k may be negative)."""

    table: tuple[tuple[int, complex], ...]
    kind = "raw_laurent"
    keys = {"table": (list_of(pair(integer, cplx)),)}

    def __call__(self, x, w):
        w = np.asarray(w, dtype=complex)
        out = np.zeros_like(w)
        for k, a in self.table:
            out = out + a * w ** k
        return out


@dataclass(frozen=True)
class AxisymmetricPower:
    """Scalar datum H = (eta/omega)^n / omega for the axisymmetric potentials."""

    n: int

    def poles(self, x):
        """0, and for n < 0 the roots (z -+ |x|)/zeta_bar of eta at x (3,) or (P, 3)
        off the z axis."""
        if self.n >= 0:
            return [0.0]
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        zeta_bar = x[:, 0] - 1j * x[:, 1]
        off = np.abs(zeta_bar) >= 1e-14
        z, R, zeta_bar = x[off, 2], np.linalg.norm(x[off], axis=1), zeta_bar[off]
        return np.concatenate([[0.0], (z - R) / zeta_bar, (z + R) / zeta_bar])

    def __call__(self, x, w):
        return (incidence_eta(x, w) / w) ** self.n / w


INTEGRANDS = {cls.kind: cls for cls in (EtaPowerOverOmega, HolomorphicOfEta,
                                        LaurentInOmegaPrime, LundquistKernel, RawLaurent)}


@dataclass(frozen=True)
class IntegrandSpec(JSONSpec):
    """Holomorphic datum u (an INTEGRANDS class), phase kind ('F1' or 'F2'), and
    wavenumber k."""

    u: JSONSpec
    phase: str = "F1"
    k: float = 1.0
    keys = {"u": (typed(INTEGRANDS),),
            "phase": (scalar(lambda v: v in ("F1", "F2"), "'F1' or 'F2'", str), "F1"),
            "k": (real, 1.0)}

    def __post_init__(self):
        if self.phase not in ("F1", "F2"):
            raise ValueError("phase must be 'F1' or 'F2'")


def _phase_values(phase: str, k: float, x, w: np.ndarray, E=None) -> np.ndarray:
    """e^{-i k f} on the contour nodes w, or e^{-i k f + E} given an exponent E; x as
    for incidence_eta."""
    x = np.asarray(x, dtype=float)
    zeta_bar = x[0] - 1j * x[1]
    zeta = x[0] + 1j * x[1]
    if phase == "F1":
        f = w * zeta_bar - x[2]
    else:
        f = 0.5 * (w * zeta_bar + zeta / w)
    return np.exp(-1j * k * f if E is None else -1j * k * f + E)


def null_vector(w: np.ndarray) -> np.ndarray:
    """[(1 - w^2), i (1 + w^2), 2 w]: a null vector of C^3 for every w."""
    w = np.asarray(w, dtype=complex)
    return np.stack([1.0 - w**2, 1j * (1.0 + w**2), 2.0 * w], axis=-1)


# Integrand values (points x nodes) per integrand call in _contour_points at
# the largest node count the contour can reach, which bounds the values and
# temporaries of a block of points.  2^16 is 16 points at the default contour:
# the five 40-point `twistor eval` commands of the benchmark's closed_form
# workload took 22 ms, against 30 ms at 2^14 and 22 ms at 2^18 (2-core VM).
CONTOUR_BLOCK = 1 << 16


def _contour_points(u, phase: str, k: float, x, c: ContourSpec, tol: float,
                    null: bool):
    """Contour integrals of e^{-i k f} u(eta, omega), times null_vector(omega) when
    null, at points x (3,) or (P, 3): values x.shape[:-1] (+ (3,) when null), a
    point's scalar integral as a scalar.

    u(xs, w) takes points by component xs (3, B, 1) and nodes w (n,).  The contour
    is validated once against the poles u reports at x, before any point is
    integrated.  A u with split(xs, w) -> (E, d), u = e^E / d, has E taken into the
    phase's exp.  The points go through in blocks of CONTOUR_BLOCK integrand values
    at the largest node count, a point x (3,) as a block of one; each point stops
    at its own count, so it gets the value it has alone.  The first point that
    does not converge raises NonConvergence with that point as its row.
    """
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    if hasattr(u, "poles"):
        c.check_poles(u.poles(x))

    def integrand(xs, w):
        if hasattr(u, "split"):
            E, d = u.split(xs, w)
            vals = _phase_values(phase, k, xs, w, E) / d
        else:
            vals = _phase_values(phase, k, xs, w) * u(xs, w)
        return null_vector(w) * vals[..., None] if null else vals

    out = np.empty((len(pts), 3) if null else len(pts), dtype=complex)
    per = max(1, CONTOUR_BLOCK // _top_nodes(c))
    for lo in range(0, len(pts), per):
        xs = np.ascontiguousarray(pts[lo:lo + per].T)[..., None]
        try:
            out[lo:lo + per] = _contour_integrate_vec(lambda w: integrand(xs, w), c, tol)
        except NonConvergence as e:
            e.row += lo
            raise
    return out.reshape(x.shape[:-1] + out.shape[1:])[()]


def trkalian_from_twistor(spec: IntegrandSpec, x, c: ContourSpec | None = None,
                          adaptive_tol: float = 1e-12) -> np.ndarray:
    """Field value(s) of the contour integral at x (3,) or (P, 3); satisfies curl F = k F.

    The datum spec.u times the null vector, through _contour_points.
    """
    return _contour_points(spec.u, spec.phase, spec.k, x, c or ContourSpec(), adaptive_tol,
                           null=True)


def trkalian_laurent_ck(n: int, nu: float, x) -> np.ndarray:
    """Cylindrical eigenfield from the Laurent datum 1/omega'^(n+1), omega = i omega'.

    Equals the closed form of CKCylindrical(m = n - 1, nu) with its 4 pi i
    normalization.
    """
    spec = IntegrandSpec(u=LaurentInOmegaPrime(n), phase="F2", k=nu)
    return trkalian_from_twistor(spec, x)


def ck_cylindrical_closed(m: int, nu: float, x) -> np.ndarray:
    """Direct closed form of the cylindrical eigenfield (catalog entry)."""
    return eval_field(CKCylindrical(m=m, nu=nu), x)


def scalar_helmholtz_from_twistor(H, x, k: float, phase: str = "F2"):
    """Contour integral of e^{-i k f} H(eta, omega) at points x (3,) or (P, 3), through
    _contour_points: a Helmholtz solution.  H is a datum as u there, e.g.
    AxisymmetricPower or a lambda for omega^{m-1}.
    """
    return _contour_points(H, phase, k, x, ContourSpec(), 1e-12, null=False)


def helmholtz_point_source_closed(x, sigma: float):
    """(1/2) e^{i sigma |x|}/|x| at points x (3,) or (P, 3): the free-space
    point-source solution."""
    R = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
    return 0.5 * np.exp(1j * sigma * R) / R


def fundamental_solution_check(x, sigma: float):
    """Residue-normalized n = -1 axisymmetric integral at points x (3,) or (P, 3)
    with z > 0.

    Returns (1/(2 pi i)) Int e^{-i sigma (omega zeta_bar - z)} / eta domega,
    which equals the single enclosed residue (1/2) e^{i sigma |x|}/|x|.  The
    second root of eta lies outside the unit contour only on the z > 0 branch:
    the first point with z <= 0 raises BranchViolation with that point as its
    row, and a root within 1e-3 of the contour raises PoleOnContour.
    """
    x = np.asarray(x, dtype=float)
    refuse(BranchViolation, x[..., 2] <= 0, "point-source reduction requires z > 0")
    inverse_eta = AxisymmetricPower(-1)          # (eta/omega)^-1 / omega = 1/eta
    ContourSpec().check_poles(inverse_eta.poles(x), 1e-3)
    return scalar_helmholtz_from_twistor(inverse_eta, x, sigma, "F1") / (2j * np.pi)


def ck_from_debye(phi, w_mode: str, sigma: float, x, h: float = 1e-2) -> np.ndarray:
    """Curl eigenfield from a Helmholtz potential phi and an axis choice:

    F = -[ sigma curl(phi w) + curl curl(phi w) ],  w = z-hat or the position
    vector; nested Richardson finite-difference curls at points x (3,) or
    (..., 3).  phi maps points (N, 3) to values (N,).
    """
    if w_mode not in ("fixed_z", "radial"):
        raise ValueError("w_mode must be 'fixed_z' or 'radial'")

    def vec_potential(pts):
        ph = np.asarray(phi(pts), dtype=complex).reshape(len(pts))
        if w_mode == "fixed_z":
            w = np.broadcast_to(np.array([0.0, 0.0, 1.0]), pts.shape)
        else:
            w = pts
        return ph[:, None] * w

    first = curl_fd(vec_potential, x, h)
    second = curl_fd(lambda pts: curl_fd(vec_potential, pts, h), x, h)
    return -(sigma * first + second)


def spheromak_debye_integral(F0: complex, k: float, x) -> np.ndarray:
    """Polar-angle quadrature of the spheromak potential representation at points
    x (3,) or (..., 3), with z = R cos(t) and r = R sin(t) = |(x, y)|:

    -(i/2)(F0/k) Int_0^pi e^{-i k z cos(a)} J0(k r sin(a)) cos(a) sin(a) da,
    equal to -(F0/k) j1(kR) cos(t), by a 96-node Gauss rule in a.
    """
    x = np.asarray(x, dtype=float)
    a, w = gauss_legendre(96, 0.0, np.pi)
    kz, kr = k * x[..., 2, None], k * np.hypot(x[..., 0], x[..., 1])[..., None]
    integrand = np.exp(-1j * kz * np.cos(a)) * j0(kr * np.sin(a)) * np.cos(a) * np.sin(a)
    return -0.5j * (F0 / k) * (integrand @ w)


def spheromak_debye_closed(F0: complex, k: float, x) -> np.ndarray:
    """The spheromak's Debye potential -(F0/k) j1(kR) cos(t) at points x (3,) or
    (..., 3), R = |x| and t the polar angle (zero at the origin): the closed form
    of spheromak_debye_integral, and the potential of the spheromak through
    ck_from_debye with the radial axis choice."""
    x = np.asarray(x, dtype=float)
    R = np.linalg.norm(x, axis=-1)
    return -(F0 / k) * spherical_jn(1, k * R) * (x[..., 2] / np.where(R > 0, R, 1.0))
