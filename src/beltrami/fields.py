"""Moses helical basis, the analytic Trkalian field catalog, the plane
transform of band-limited fields, and FD calculus.

A Trkalian field satisfies curl F = nu_s F with constant nu_s.  Catalog specs
carry the magnitude nu = |nu_s| > 0 and the helicity lam = sign(nu_s) where
both appear; `eigenvalue(spec)` returns the signed value nu_s.

The plane transform F_R(p, kappa) of a band-limited field carries only the two
frequencies e^{+-i nu p} in the offset p.  `radon_moses_pair` returns the two
components, and every operator in p (derivative, Hilbert transform, the Tuy
bracket, Biot-Savart) is a two-term combination of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1, jv, spherical_jn

from .geometry import (SphereQuadrature, Plane, direction, frames_for_many,
                       make_polar_sphere_quadrature)
from .harmonics import SphericalFunction, padded_blocks

# Points per block of the phase matrix e^{i nu kappa.x} in synthesize_moses;
# fixed, so that a point's value does not depend on the other points in a call
# (see harmonics.padded_blocks).  The fastest of 4..128 on 729 points.
FIELD_BLOCK = 8


def _check_helicity(lam: int) -> int:
    if lam not in (-1, 1):
        raise ValueError("helicity must be +1 or -1")
    return int(lam)


def moses_q(kappa, lam: int) -> np.ndarray:
    """Helical basis vector Q_lam(kappa) = (e1 + i lam e2)/sqrt(2).

    Satisfies kappa x Q = -i lam Q, kappa . Q = 0, |Q| = 1 under the fixed
    frame convention of geometry.frame_for.
    """
    return moses_q_many(np.asarray(kappa, dtype=float)[None, :], lam)[0]


def moses_q_many(kappas: np.ndarray, lam: int) -> np.ndarray:
    """Vectorized moses_q for unit vectors of shape (..., 3)."""
    lam = _check_helicity(lam)
    e1, e2 = frames_for_many(np.asarray(kappas, dtype=float))
    return (e1 + 1j * lam * e2) / np.sqrt(2.0)


# --------------------------------------------------------------------------
# Field catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneWave:
    """F(x) = exp(i k0 kappa0 . x) Q_lam(kappa0); curl eigenvalue lam * k0."""

    k0: float
    kappa0: np.ndarray
    lam: int = 1

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("plane wave needs k0 > 0")
        object.__setattr__(self, "kappa0", direction(self.kappa0))
        _check_helicity(self.lam)


@dataclass(frozen=True)
class Lundquist:
    """F = F0 [lam J1(nu r) e_phi + J0(nu r) e_z] in cylindrical coordinates."""

    F0: complex
    nu: float
    lam: int = 1

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("Lundquist needs nu > 0")
        _check_helicity(self.lam)


@dataclass(frozen=True)
class CKCylindrical:
    """Circular-cylindrical curl eigenfield with no z dependence.

    F = 4 pi i e^{-im phi} [ i m J_m(nu r)/(nu r) e_r + J_m'(nu r) e_phi
                             - J_m(nu r) e_z ].
    """

    m: int
    nu: float

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("CK cylindrical needs nu > 0")


@dataclass(frozen=True)
class GeneralizedLundquist:
    """Debye field of potential 4 pi i z J0(sigma r) with axis vector z-hat:

    F = -4 pi i sigma^2 { -(1/sigma) J1(sigma r) e_r
                          + z [J1(sigma r) e_phi + J0(sigma r) e_z] }.
    """

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("generalized Lundquist needs sigma > 0")


@dataclass(frozen=True)
class Spheromak:
    """Classical spheromak equilibrium in spherical coordinates (R, polar, azim):

    F = F0 { 2 j1(kR)/(kR) cos(t) e_R + (1/kR)[j1(kR) - sin(kR)] sin(t) e_t
             + j1(kR) sin(t) e_phi }.
    """

    F0: complex
    k: float

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("spheromak needs k > 0")


@dataclass(frozen=True)
class MosesBandLimited:
    """Superposition of helical modes over the sphere of radius nu in k-space.

    F(x) = (2 pi)^{-3/2} Int e^{i nu kappa.x} Q_lam(kappa) s(kappa) dOmega.
    """

    nu: float
    lam: int
    s: SphericalFunction

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("Moses superposition needs nu > 0")
        _check_helicity(self.lam)
        if self.s.ncomp != 1:
            raise ValueError("spherical data must be scalar")


TrkalianSpec = PlaneWave | Lundquist | CKCylindrical | GeneralizedLundquist | Spheromak | MosesBandLimited


def eigenvalue(spec: TrkalianSpec) -> float:
    """Signed curl eigenvalue nu_s of the catalog field."""
    if isinstance(spec, PlaneWave):
        return spec.lam * spec.k0
    if isinstance(spec, Lundquist):
        return spec.lam * spec.nu
    if isinstance(spec, CKCylindrical):
        return spec.nu
    if isinstance(spec, GeneralizedLundquist):
        return spec.sigma
    if isinstance(spec, Spheromak):
        return spec.k
    if isinstance(spec, MosesBandLimited):
        return spec.lam * spec.nu
    raise TypeError(f"not a field spec: {spec!r}")


def _cylindrical(pts: np.ndarray):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    e_r = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    return r, phi, z, e_r, e_phi


def _jm_over_x(m: int, x: np.ndarray) -> np.ndarray:
    """J_m(x)/x with the series limit on the axis (m >= 1)."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-6
    safe = np.where(small, 1.0, x)
    out = jv(m, safe) / safe
    if m == 1:
        lim = 0.5 - x**2 / 16.0
    else:
        lim = x ** (m - 1) / (2.0**m * math.factorial(m)) if m >= 0 else np.zeros_like(x)
    return np.where(small, lim, out)


def _j1_spherical_ratio(x: np.ndarray) -> np.ndarray:
    """j1(x)/x with series for small arguments."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-3
    safe = np.where(small, 1.0, x)
    out = spherical_jn(1, safe) / safe
    series = 1.0 / 3.0 - x**2 / 30.0 + x**4 / 840.0
    return np.where(small, series, out)


def _j1_minus_sin_over_x(x: np.ndarray) -> np.ndarray:
    """(j1(x) - sin(x))/x with series for small arguments."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-3
    safe = np.where(small, 1.0, x)
    out = (spherical_jn(1, safe) - np.sin(safe)) / safe
    series = -2.0 / 3.0 + 2.0 * x**2 / 15.0 - x**4 / 140.0
    return np.where(small, series, out)


def eval_field(spec: TrkalianSpec, x, quad: SphereQuadrature | None = None) -> np.ndarray:
    """Closed-form field value(s); x has shape (3,) or (..., 3)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = _eval_field_many(spec, pts, quad)
    return out[0] if single else out


def _eval_field_many(spec, pts, quad):
    if isinstance(spec, PlaneWave):
        phase = np.exp(1j * spec.k0 * (pts @ spec.kappa0))
        return phase[..., None] * moses_q(spec.kappa0, spec.lam)

    if isinstance(spec, Lundquist):
        r, _, _, _, e_phi = _cylindrical(pts)
        a = spec.nu * r
        e_z = np.array([0.0, 0.0, 1.0])
        return spec.F0 * (spec.lam * j1(a)[..., None] * e_phi + j0(a)[..., None] * e_z)

    if isinstance(spec, CKCylindrical):
        r, phi, _, e_r, e_phi = _cylindrical(pts)
        a = spec.nu * r
        m = spec.m
        jm = jv(m, a)
        jm_prime = 0.5 * (jv(m - 1, a) - jv(m + 1, a))
        if m == 0:
            radial = np.zeros_like(a)
        elif m > 0:
            radial = m * _jm_over_x(m, a)
        else:
            radial = m * (-1.0) ** (-m) * _jm_over_x(-m, a)
        val = (1j * radial[..., None] * e_r + jm_prime[..., None] * e_phi)
        val = val - jm[..., None] * np.array([0.0, 0.0, 1.0])
        return 4.0 * np.pi * 1j * np.exp(-1j * m * phi)[..., None] * val

    if isinstance(spec, GeneralizedLundquist):
        r, _, z, e_r, e_phi = _cylindrical(pts)
        a = spec.sigma * r
        zc = z[..., None]
        val = (-(1.0 / spec.sigma) * j1(a)[..., None] * e_r +
               zc * (j1(a)[..., None] * e_phi +
                     j0(a)[..., None] * np.array([0.0, 0.0, 1.0])))
        return -4.0 * np.pi * 1j * spec.sigma**2 * val

    if isinstance(spec, Spheromak):
        R = np.linalg.norm(pts, axis=-1)
        on_axis = np.hypot(pts[..., 0], pts[..., 1]) < 1e-300
        rho = np.where(on_axis, 1.0, np.hypot(pts[..., 0], pts[..., 1]))
        cos_t = np.where(R > 0, pts[..., 2] / np.where(R > 0, R, 1.0), 1.0)
        sin_t = np.where(R > 0, rho / np.where(R > 0, R, 1.0), 0.0)
        sin_t = np.where(on_axis, 0.0, sin_t)
        phi = np.arctan2(pts[..., 1], pts[..., 0])
        e_R = np.where(R[..., None] > 0, pts / np.where(R[..., None] > 0, R[..., None], 1.0),
                       np.array([0.0, 0.0, 1.0]))
        e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
        e_t = np.cross(e_phi, e_R)
        kR = spec.k * R
        f_R = 2.0 * _j1_spherical_ratio(kR) * cos_t
        f_t = _j1_minus_sin_over_x(kR) * sin_t
        f_p = np.where(kR > 0, spherical_jn(1, np.where(kR > 0, kR, 1.0)), 0.0) * sin_t
        return spec.F0 * (f_R[..., None] * e_R + f_t[..., None] * e_t + f_p[..., None] * e_phi)

    if isinstance(spec, MosesBandLimited):
        if quad is None:
            quad = field_rule(spec, pts)
        return synthesize_moses(spec.nu, spec.lam, spec.s, pts, quad)

    raise TypeError(f"not a field spec: {spec!r}")


def field_rule(spec: TrkalianSpec, pts: np.ndarray) -> SphereQuadrature | None:
    """The sphere rule eval_field uses by default at points pts (..., 3).

    None for the closed-form fields.  A band-limited field gets the polar rule
    (Gauss-Legendre in the polar angle itself) with lmax + ceil(nu max|x|) + 12
    polar nodes, sized from all of pts: evaluating pts in parts with this rule
    gives the values of one call.  Q_lam s carries a phase singularity at the
    poles for generic s, on which the polar rule converges spectrally and the
    rule in cos(polar) only algebraically.
    """
    if not isinstance(spec, MosesBandLimited):
        return None
    scale = spec.nu * float(np.max(np.linalg.norm(pts, axis=-1)))
    return make_polar_sphere_quadrature(spec.s.lmax + int(np.ceil(scale)) + 12)


def synthesize_moses(nu: float, lam: int, s: SphericalFunction, x,
                     quad: SphereQuadrature) -> np.ndarray:
    """Adjoint-Radon synthesis of a Trkalian field from its spherical data.

    F(x) = (2 pi)^{-3/2} Int e^{i nu kappa.x} Q_lam(kappa) s(kappa) dOmega
    at points x of shape (3,) or (..., 3).  Q_lam s is synthesized once at the
    rule's nodes; the points then go through in blocks of FIELD_BLOCK, one
    phase matrix and one GEMM each.
    """
    x = np.asarray(x, dtype=float)
    kap = quad.nodes
    h = ((2.0 * np.pi) ** (-1.5) * quad.weights * s(kap))[:, None] * moses_q_many(kap, lam)
    flat = x.reshape(-1, 3)
    out = np.empty((flat.shape[0], 3), dtype=complex)
    for lo, n, block in padded_blocks(flat, FIELD_BLOCK):
        out[lo: lo + n] = (np.exp(1j * nu * (block @ kap.T)) @ h)[:n]
    return out.reshape(x.shape)


def radon_moses(nu: float, lam: int, s: SphericalFunction, plane: Plane) -> np.ndarray:
    """Plane transform of the band-limited field, tangent to the nu-sphere:

    F_R(p, kappa) = sqrt(2 pi)/nu^2 [ e^{i nu p} Q_lam(kappa) s(kappa)
                                      + e^{-i nu p} Q_lam(-kappa) s(-kappa) ].
    """
    return radon_moses_many(nu, lam, s, np.array([plane.p]), plane.kappa[None])[0]


def radon_moses_many(nu: float, lam: int, s: SphericalFunction, ps: np.ndarray,
                     kappas: np.ndarray) -> np.ndarray:
    """radon_moses for offsets ps (N,) and unit normals kappas (N, 3)."""
    a, b = radon_moses_pair(nu, lam, s, ps, kappas)
    return np.sqrt(2.0 * np.pi) / nu**2 * (a + b)


def radon_moses_pair(nu: float, lam: int, s: SphericalFunction, ps,
                     kappas) -> tuple[np.ndarray, np.ndarray]:
    """The two frequency components of the plane transform, without its prefactor:

    a = e^{i nu p} Q_lam(kappa) s(kappa),  b = e^{-i nu p} Q_lam(-kappa) s(-kappa)

    for offsets ps (...) and unit normals kappas (..., 3), so that
    F_R = sqrt(2 pi)/nu^2 (a + b).  An operator in p acts on F_R as one number
    at omega = +nu and one at omega = -nu: d/dp F_R is i nu (a - b), the
    Hilbert transform H F_R is -i (a - b), H d/dp F_R is nu (a + b) and the
    Tuy bracket (H - i) d/dp F_R is 2 nu a, each times sqrt(2 pi)/nu^2.
    """
    kappas = np.asarray(kappas, dtype=float)
    ps = np.asarray(ps, dtype=float)[..., None]
    a = np.exp(1j * nu * ps) * (moses_q_many(kappas, lam) * s(kappas)[..., None])
    b = np.exp(-1j * nu * ps) * (moses_q_many(-kappas, lam) * s(-kappas)[..., None])
    return a, b


# --------------------------------------------------------------------------
# Finite-difference calculus
# --------------------------------------------------------------------------

def _jacobian_fd(field, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian J[i, j] = d field_i / d x_j at one step h."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(3)
    pts = np.concatenate([x + h * eye, x - h * eye], axis=0)
    vals = np.asarray(field(pts), dtype=complex)
    if vals.shape != (6, 3):
        vals = np.stack([np.asarray(field(p), dtype=complex) for p in pts])
    return (vals[:3] - vals[3:]).T / (2.0 * h)


def curl_fd(field, x, h: float = 1e-3) -> np.ndarray:
    """FD curl with Richardson extrapolation of steps h and h/2 (O(h^4)).

    `field` maps points (N, 3) -> values (N, 3) (a pointwise callable also
    works).
    """
    def curl_at(step):
        J = _jacobian_fd(field, x, step)
        return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])

    c1 = curl_at(h)
    c2 = curl_at(h / 2.0)
    return (4.0 * c2 - c1) / 3.0


def div_fd(field, x, h: float = 1e-3) -> complex:
    """FD divergence with the same Richardson scheme as curl_fd."""
    def div_at(step):
        J = _jacobian_fd(field, x, step)
        return J[0, 0] + J[1, 1] + J[2, 2]

    return (4.0 * div_at(h / 2.0) - div_at(h)) / 3.0


# --------------------------------------------------------------------------
# JSON serialization of field specs
# --------------------------------------------------------------------------

def spec_to_json(spec: TrkalianSpec) -> dict:
    if isinstance(spec, PlaneWave):
        return {"type": "plane_wave", "k0": spec.k0, "kappa0": list(spec.kappa0),
                "lambda": spec.lam}
    if isinstance(spec, Lundquist):
        return {"type": "lundquist", "F0": [spec.F0.real, complex(spec.F0).imag],
                "nu": spec.nu, "lambda": spec.lam}
    if isinstance(spec, CKCylindrical):
        return {"type": "ck_cylindrical", "m": spec.m, "nu": spec.nu}
    if isinstance(spec, GeneralizedLundquist):
        return {"type": "generalized_lundquist", "sigma": spec.sigma}
    if isinstance(spec, Spheromak):
        return {"type": "spheromak", "F0": [complex(spec.F0).real, complex(spec.F0).imag],
                "k": spec.k}
    if isinstance(spec, MosesBandLimited):
        return {"type": "moses_band_limited", "nu": spec.nu, "lambda": spec.lam,
                "lmax": spec.s.lmax,
                "coeffs": [[c.real, c.imag] for c in spec.s.coeffs[0]]}
    raise TypeError(f"not a field spec: {spec!r}")


def spec_from_json(obj: dict) -> TrkalianSpec:
    kind = obj.get("type")
    if kind == "plane_wave":
        return PlaneWave(k0=float(obj["k0"]), kappa0=np.array(obj["kappa0"], dtype=float),
                         lam=int(obj.get("lambda", 1)))
    if kind == "lundquist":
        re, im = obj.get("F0", [1.0, 0.0])
        return Lundquist(F0=complex(re, im), nu=float(obj["nu"]), lam=int(obj.get("lambda", 1)))
    if kind == "ck_cylindrical":
        return CKCylindrical(m=int(obj["m"]), nu=float(obj["nu"]))
    if kind == "generalized_lundquist":
        return GeneralizedLundquist(sigma=float(obj["sigma"]))
    if kind == "spheromak":
        re, im = obj.get("F0", [1.0, 0.0])
        return Spheromak(F0=complex(re, im), k=float(obj["k"]))
    if kind == "moses_band_limited":
        lmax = int(obj["lmax"])
        coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
        return MosesBandLimited(nu=float(obj["nu"]), lam=int(obj.get("lambda", 1)),
                                s=SphericalFunction(lmax, coeffs))
    raise ValueError(f"unknown field spec type: {kind!r}")
