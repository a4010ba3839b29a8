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
trapezoid kernel along a doubling schedule; a point is a batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, spherical_jn

from .geometry import gauss_legendre
from .fields import (CKCylindrical, JSONSpec, cplx, curl_fd, eval_field, integer, list_of,
                     pair, real, scalar, typed)
from .rays import NonConvergence


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

    def poles(self, x):
        return [0.0] if self.denominator_power > 0 else []

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

    def poles(self, x):
        return [0.0]

    def __call__(self, x, w):
        return (w / 1j) ** (-(self.n + 1))


@dataclass(frozen=True)
class LundquistKernel(JSONSpec):
    """u = (1/omega^2) exp(-i (nu/2) eta / omega), the F1-phase Lundquist datum."""

    nu: float = 1.0
    kind = "lundquist_kernel"
    keys = {"nu": (real, 1.0)}

    def poles(self, x):
        return [0.0]

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

    def poles(self, x):
        return [0.0] if any(k < 0 for k, _ in self.table) else []

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
        if self.n >= 0:
            return [0.0]
        x = np.asarray(x, dtype=float)
        zeta_bar = x[0] - 1j * x[1]
        if abs(zeta_bar) < 1e-14:
            return [0.0]
        R = float(np.linalg.norm(x))
        return [0.0, (x[2] - R) / zeta_bar, (x[2] + R) / zeta_bar]

    def __call__(self, x, w):
        return (incidence_eta(x, w) / w) ** self.n / w


@dataclass(frozen=True)
class SpheromakDebye:
    """Named spheromak potential phi = -(F0/k) j1(k R) cos(polar).

    Realized through the polar-angle quadrature representation (see
    spheromak_debye_integral) rather than an omega-contour; usable as the
    potential argument of ck_from_debye with the radial axis choice.
    """

    F0: complex = 1.0
    k: float = 1.0

    def potential(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        R = np.linalg.norm(pts, axis=-1)
        kR = self.k * R
        safe = np.where(kR > 0, kR, 1.0)
        j1r = np.where(kR > 0, spherical_jn(1, safe), 0.0)
        cos_t = np.where(R > 0, pts[..., 2] / np.where(R > 0, R, 1.0), 1.0)
        small = kR < 1e-3
        lim = kR / 3.0 - kR**3 / 30.0
        j1r = np.where(small, lim, j1r)
        return -(self.F0 / self.k) * j1r * cos_t


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


# Integrand values (points x nodes) per integrand call in trkalian_from_twistor
# at the largest node count the contour can reach, which bounds the values and
# temporaries of a block of points.  2^16 is 16 points at the default contour:
# the five 40-point `twistor eval` commands of the benchmark's closed_form
# workload took 22 ms, against 30 ms at 2^14 and 22 ms at 2^18 (2-core VM).
CONTOUR_BLOCK = 1 << 16


def trkalian_from_twistor(spec: IntegrandSpec, x, c: ContourSpec | None = None,
                          adaptive_tol: float = 1e-12) -> np.ndarray:
    """Field value(s) of the contour integral at x (3,) or (P, 3); satisfies curl F = k F.

    The contour is validated against the integrand's reported pole locations
    at every point before any is integrated; node counts double adaptively
    until each point's trapezoid value settles.  The points go through in
    blocks of CONTOUR_BLOCK integrand values at the largest count, a point
    x (3,) as a block of one: the integrand is evaluated elementwise on
    (points, nodes), up to the count the block's slowest point needs, and each
    point stops at its own count, so it gets the value it has alone.  The
    first point that does not converge raises NonConvergence with that point
    as its row.
    """
    c = c or ContourSpec()
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    for p in pts:
        c.check_poles(spec.u.poles(p))

    def integrand(xs, w):       # points by component (3, points, 1) at nodes w
        if hasattr(spec.u, "split"):
            E, d = spec.u.split(xs, w)
            vals = _phase_values(spec.phase, spec.k, xs, w, E) / d
        else:
            vals = _phase_values(spec.phase, spec.k, xs, w) * spec.u(xs, w)
        return null_vector(w) * vals[..., None]

    out = np.empty(pts.shape, dtype=complex)
    per = max(1, CONTOUR_BLOCK // _top_nodes(c))
    for lo in range(0, len(pts), per):
        xs = np.ascontiguousarray(pts[lo:lo + per].T)[..., None]
        try:
            out[lo:lo + per] = _contour_integrate_vec(lambda w: integrand(xs, w), c,
                                                      adaptive_tol)
        except NonConvergence as e:
            e.row += lo
            raise
    return out.reshape(x.shape)


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


def scalar_helmholtz_from_twistor(H, x, k: float, phase: str = "F2") -> complex:
    """Contour integral of e^{-i k f} H(eta, omega): a Helmholtz solution.

    H is a callable (x, omega_array) -> values, e.g. AxisymmetricPower or a
    lambda for omega^{m-1}.
    """
    c = ContourSpec()
    if hasattr(H, "poles"):
        c.check_poles(H.poles(x))
    g = lambda w: (_phase_values(phase, k, x, w) * H(x, w))[None]
    return complex(_contour_integrate_vec(g, c)[0])


def helmholtz_point_source_closed(x, sigma: float) -> complex:
    """(1/2) e^{i sigma |x|}/|x|, the free-space point-source solution."""
    x = np.asarray(x, dtype=float)
    R = float(np.linalg.norm(x))
    return 0.5 * np.exp(1j * sigma * R) / R


def fundamental_solution_check(x, sigma: float) -> complex:
    """Residue-normalized n = -1 axisymmetric integral for z > 0.

    Returns (1/(2 pi i)) Int e^{-i sigma (omega zeta_bar - z)} / eta domega,
    which equals the single enclosed residue (1/2) e^{i sigma |x|}/|x|.  The
    second root of eta lies outside the unit contour only on the z > 0 branch;
    a root within 1e-3 of the contour raises PoleOnContour.
    """
    x = np.asarray(x, dtype=float)
    if x[2] <= 0:
        raise BranchViolation("point-source reduction requires z > 0")
    c = ContourSpec()
    c.check_poles(AxisymmetricPower(-1).poles(x), 1e-3)
    g = lambda w: (_phase_values("F1", sigma, x, w) / incidence_eta(x, w))[None]
    return complex(_contour_integrate_vec(g, c)[0]) / (2j * np.pi)


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


def spheromak_debye_integral(F0: complex, k: float, R: float, theta: float) -> complex:
    """Polar-angle quadrature of the spheromak potential representation:

    -(i/2)(F0/k) Int_0^pi e^{-i k R cos(t) cos(a)} J0(k R sin(t) sin(a))
                          cos(a) sin(a) da,
    equal to -(F0/k) j1(kR) cos(t), by a 96-node Gauss rule in a.
    """
    a, w = gauss_legendre(96, 0.0, np.pi)
    integrand = (np.exp(-1j * k * R * np.cos(theta) * np.cos(a)) *
                 j0(k * R * np.sin(theta) * np.sin(a)) * np.cos(a) * np.sin(a))
    return complex(-0.5j * (F0 / k) * (w @ integrand))


def spheromak_debye_closed(F0: complex, k: float, R: float, theta: float) -> complex:
    """-(F0/k) j1(kR) cos(theta), the closed form of the integral above."""
    if R == 0:
        return 0.0
    return complex(-(F0 / k) * spherical_jn(1, k * R) * np.cos(theta))
