"""Moses helical basis, the analytic Trkalian field catalog, the plane
transform of band-limited fields, and FD calculus.

A Trkalian field satisfies curl F = nu_s F with constant nu_s.  Catalog specs
carry the magnitude nu = |nu_s| > 0 and the helicity lam = sign(nu_s) where
both appear; `eigenvalue(spec)` returns the signed value nu_s.

Each spec class is the one description of its field type: its JSON `type`
(`kind`), its keys (`from_json`, through the typed key parsers that also read
the twistor integrands and bare spherical data), its eigenvalue `nu_s` and its
values.  FIELD_TYPES maps JSON types to classes; `spec_from_json`,
`eigenvalue`, `eval_field` and `field_rule` dispatch through the spec.

Each closed form is a profile of the scaled point: nu^p Phi(nu x), Phi the
field at eigenvalue 1 (p = 1 for the generalized Lundquist field, 0 for the
others), taken from nu r, nu R or sigma z and the unit vectors (x, y)/r,
so that no power of nu and no squared coordinate under- or overflows.

The plane transform F_R(p, kappa) of a band-limited field carries only the two
frequencies e^{+-i nu p} in the offset p.  `radon_moses_pair` returns the two
components, and every operator in p (derivative, Hilbert transform, the Tuy
bracket, Biot-Savart) is a two-term combination of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import j0, j1, jv, spherical_jn

from .geometry import (SphereQuadrature, Plane, direction, frames_for_many,
                       make_polar_sphere_quadrature)
from .harmonics import CONFIG_LMAX, SphericalFunction, padded_blocks

# Points per block of the phase matrix e^{i nu kappa.x} in synthesize_moses;
# fixed, so that a point's value does not depend on the other points in a call
# (see harmonics.padded_blocks).  The fastest of 4..128 on 729 points.
FIELD_BLOCK = 8


_RSQRT2 = 1.0 / np.sqrt(2.0)


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
    """Vectorized moses_q for unit vectors of shape (..., 3).

    e1/sqrt(2) and lam e2/sqrt(2) are written straight into the real and
    imaginary parts, with the bits of (e1 + i lam e2)/sqrt(2) up to the signs
    of zeros.
    """
    lam = _check_helicity(lam)
    e1, e2 = frames_for_many(np.asarray(kappas, dtype=float))
    out = np.empty(e1.shape, dtype=complex)
    np.multiply(e1, _RSQRT2, out=out.real)
    np.multiply(e2, lam * _RSQRT2, out=out.imag)
    return out


# --------------------------------------------------------------------------
# JSON key parsers
# --------------------------------------------------------------------------

class ConfigError(ValueError):
    """Malformed configuration; the message starts with the offending key path."""


class Keys:
    """The keys of one JSON object at a key path such as 'field' or 'twistor.u'.

    get(key, parse, *default) is parse(value, '<path>.<key>'), or the default
    when the key is absent.  A parser refuses a value with ConfigError at its
    key path: 'field.nu: missing', 'field.lambda: expected +1 or -1'.
    """

    def __init__(self, obj, path: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected an object")
        self.obj, self.path = obj, path

    def get(self, key: str, parse, *default):
        path = f"{self.path}.{key}" if self.path else key
        if key in self.obj:
            return parse(self.obj[key], path)
        if not default:
            raise ConfigError(f"{path}: missing")
        return default[0]


def scalar(ok, expected: str, cast):
    """Parser of the JSON values ok accepts, bools never, converted by cast."""
    def parse(v, path: str):
        if isinstance(v, bool) or not ok(v):
            raise ConfigError(f"{path}: expected {expected}")
        return cast(v)
    return parse


def _integral(v) -> bool:
    return isinstance(v, int) or isinstance(v, float) and v.is_integer()


def real(v, path: str) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
        return float(v)
    raise ConfigError(f"{path}: expected a finite number")


def eigen(v, path: str) -> float:
    """An eigenvalue magnitude (k0, nu, sigma, k): a finite number of at least
    the smallest normal double, so that no row's arithmetic overflows on it."""
    x = real(v, path)
    if not x >= sys.float_info.min:
        raise ConfigError(f"{path}: expected a positive normal number")
    return x


integer = scalar(_integral, "an integer", int)
natural = scalar(lambda v: _integral(v) and v >= 0, "an integer >= 0", int)
count = scalar(lambda v: _integral(v) and v >= 1, "an integer >= 1", int)
helicity = scalar(lambda v: v in (1, -1), "+1 or -1", int)


def list_of(item, size: int | None = None):
    """Parser of a JSON list, of size entries when given, into a tuple of item values."""
    def parse(v, path: str):
        if not isinstance(v, list) or size is not None and len(v) != size:
            raise ConfigError(f"{path}: expected a list" + (f" of {size} entries" if size else ""))
        return tuple(item(c, f"{path}[{i}]") for i, c in enumerate(v))
    return parse


def pair(first, second):
    """Parser of a JSON list [a, b], a read by first and b by second."""
    two = list_of(lambda c, p: c, 2)

    def parse(v, path: str):
        a, b = two(v, path)
        return first(a, f"{path}[0]"), second(b, f"{path}[1]")
    return parse


def _plain(v, size: int) -> bool:
    """Whether v is a list of size finite numbers, none a bool: the common case,
    read without the per-entry parsers."""
    return (type(v) is list and len(v) == size and {type(c) for c in v} <= {int, float}
            and all(map(math.isfinite, v)))


_re_im, _xyz = pair(real, real), list_of(real, 3)
cplx = lambda v, path: complex(*(v if _plain(v, 2) else _re_im(v, path)))   # [re, im]
xyz = lambda v, path: v if _plain(v, 3) else _xyz(v, path)     # [x, y, z], for stacking
vector = lambda v, path: np.array(xyz(v, path), dtype=float)


def vectors(v, path: str) -> np.ndarray:
    """A list of [x, y, z] as an (N, 3) array, refused at the first bad entry's path."""
    if type(v) is list and all(_plain(c, 3) for c in v):
        return np.array(v, dtype=float).reshape(-1, 3)
    return np.array(list_of(xyz)(v, path), dtype=float).reshape(-1, 3)


def spherical(v, path: str) -> SphericalFunction:
    """Scalar spherical data: lmax (at most CONFIG_LMAX), and coeffs as [re, im]
    in l*l + l + m order."""
    o = Keys(v, path)
    lmax = o.get("lmax", natural)
    if lmax > CONFIG_LMAX:
        raise ConfigError(f"{path}.lmax: at most {CONFIG_LMAX}; synthesis loses "
                          f"digits above that degree")
    return SphericalFunction(lmax, np.array(o.get("coeffs", list_of(cplx, (lmax + 1) ** 2))))


def built(make, path: str, *args):
    """make(*args), a ValueError it raises refused as ConfigError at path."""
    try:
        return make(*args)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def typed(types: dict):
    """Parser of a JSON object into the class types[obj["type"]], read by its from_json."""
    def parse(v, path: str):
        o = Keys(v, path)
        kind = o.get("type", lambda v, p: v)
        if not isinstance(kind, str) or kind not in types:
            raise ConfigError(f"{path}.type: unknown type {kind!r}; choose from {sorted(types)}")
        return built(types[kind].from_json, path, o)
    return parse


class JSONSpec:
    """A type read from JSON: kind is its "type", and keys maps each JSON key,
    in constructor order, to (parser,) or (parser, default)."""

    kind: ClassVar[str]
    keys: ClassVar[dict]

    @classmethod
    def from_json(cls, o: Keys):
        return cls(*(o.get(key, *parse) for key, parse in cls.keys.items()))


# --------------------------------------------------------------------------
# Field catalog
# --------------------------------------------------------------------------

class TrkalianSpec(JSONSpec):
    """A catalog field: its JSON `kind` and `keys`, its signed eigenvalue `nu_s`
    and its values `values(pts (N, 3), quad) -> (N, 3)`; quad is used only by
    fields synthesized on a sphere rule, which also override `rule`.
    """

    def rule(self, radius: float) -> SphereQuadrature | None:
        """The default sphere rule for points within radius: none, for a closed form."""
        return None

    def radon(self, ps: np.ndarray, kappas: np.ndarray) -> np.ndarray:
        raise ValueError("the plane transform is evaluated in the helical "
                         "representation; it requires a moses_band_limited field")


@dataclass(frozen=True)
class PlaneWave(TrkalianSpec):
    """F(x) = exp(i k0 kappa0 . x) Q_lam(kappa0); curl eigenvalue lam * k0."""

    k0: float
    kappa0: np.ndarray
    lam: int = 1
    kind = "plane_wave"
    keys = {"k0": (eigen,), "kappa0": (vector,), "lambda": (helicity, 1)}
    nu_s = property(lambda self: self.lam * self.k0)

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("plane wave needs k0 > 0")
        object.__setattr__(self, "kappa0", direction(self.kappa0))
        _check_helicity(self.lam)

    def values(self, pts, quad=None):
        phase = np.exp(1j * self.k0 * (pts @ self.kappa0))
        return phase[..., None] * moses_q(self.kappa0, self.lam)


@dataclass(frozen=True)
class Lundquist(TrkalianSpec):
    """F = F0 [lam J1(nu r) e_phi + J0(nu r) e_z] in cylindrical coordinates."""

    F0: complex
    nu: float
    lam: int = 1
    kind = "lundquist"
    keys = {"F0": (cplx, 1 + 0j), "nu": (eigen,), "lambda": (helicity, 1)}
    nu_s = property(lambda self: self.lam * self.nu)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("Lundquist needs nu > 0")
        _check_helicity(self.lam)

    def values(self, pts, quad=None):
        r, c, s = _cylindrical(pts)
        a = self.nu * r
        return self.F0 * _vector(c, s, 0.0, self.lam * j1(a), j0(a))


@dataclass(frozen=True)
class CKCylindrical(TrkalianSpec):
    """Circular-cylindrical curl eigenfield with no z dependence.

    F = 4 pi i e^{-im phi} [ i m J_m(nu r)/(nu r) e_r + J_m'(nu r) e_phi
                             - J_m(nu r) e_z ].

    J_m and J_{m-1} come from j0/j1 and the forward recurrence where it is
    stable, jv elsewhere (`_jn_pair`): within 6.6e-15 of mpmath relative to
    max(|J|, sqrt(2/(pi a))) for orders up to 50, as jv is.  e^{-im phi} is
    (c -+ i s)^|m| for the unit vector (c, s) = (x, y)/r.
    """

    m: int
    nu: float
    kind = "ck_cylindrical"
    keys = {"m": (integer,), "nu": (eigen,)}
    nu_s = property(lambda self: self.nu)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("CK cylindrical needs nu > 0")

    def values(self, pts, quad=None):
        r, c, s = _cylindrical(pts)
        a = self.nu * r
        m = self.m
        jm, jm1 = _jn_pair(m, a)
        radial = np.zeros_like(a) if m == 0 else m * _jm_over_x(m, a, jm)
        jm_prime = jm1 - radial             # J_m' = J_{m-1} - m J_m/x, with its axis limit
        u = c - 1j * s if m >= 0 else c + 1j * s
        phase = 4.0 * np.pi * 1j * u ** abs(m)     # 4 pi i e^{-im phi}
        return phase[..., None] * _vector(c, s, 1j * radial, jm_prime, -jm)


@dataclass(frozen=True)
class GeneralizedLundquist(TrkalianSpec):
    """Debye field of potential 4 pi i z J0(sigma r) with axis vector z-hat:

    F = -4 pi i sigma^2 { -(1/sigma) J1(sigma r) e_r
                          + z [J1(sigma r) e_phi + J0(sigma r) e_z] },

    evaluated as sigma Phi(sigma x), Phi the field at sigma = 1, times sigma last.
    """

    sigma: float
    kind = "generalized_lundquist"
    keys = {"sigma": (eigen,)}
    nu_s = property(lambda self: self.sigma)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("generalized Lundquist needs sigma > 0")

    def values(self, pts, quad=None):
        r, c, s = _cylindrical(pts)
        a, sz = self.sigma * r, self.sigma * pts[..., 2]
        j1_a = j1(a)
        return -4.0 * np.pi * 1j * _vector(c, s, -j1_a, sz * j1_a, sz * j0(a)) * self.sigma


@dataclass(frozen=True)
class Spheromak(TrkalianSpec):
    """Classical spheromak equilibrium in spherical coordinates (R, polar, azim):

    F = F0 { 2 j1(kR)/(kR) cos(t) e_R + (1/kR)[j1(kR) - sin(kR)] sin(t) e_t
             + j1(kR) sin(t) e_phi }.
    """

    F0: complex
    k: float
    kind = "spheromak"
    keys = {"F0": (cplx, 1 + 0j), "k": (eigen,)}
    nu_s = property(lambda self: self.k)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("spheromak needs k > 0")

    def values(self, pts, quad=None):
        rho, c, s = _cylindrical(pts)
        R = np.hypot(rho, pts[..., 2])
        safe = np.where(R > 0, R, 1.0)
        cos_t, sin_t = np.where(R > 0, pts[..., 2] / safe, 1.0), rho / safe
        kR = self.k * R
        j1_kR = spherical_jn(1, kR)        # taken once; j1(0) = 0
        f_R = 2.0 * _j1_spherical_ratio(kR, j1_kR) * cos_t
        f_t = _j1_minus_sin_over_x(kR, j1_kR) * sin_t
        f_p = j1_kR * sin_t
        # e_R = (sin_t c, sin_t s, cos_t), e_t = (cos_t c, cos_t s, -sin_t), e_phi = (-s, c, 0)
        return self.F0 * _vector(c, s, f_R * sin_t + f_t * cos_t, f_p, f_R * cos_t - f_t * sin_t)


@dataclass(frozen=True)
class MosesBandLimited(TrkalianSpec):
    """Superposition of helical modes over the sphere of radius nu in k-space.

    F(x) = (2 pi)^{-3/2} Int e^{i nu kappa.x} Q_lam(kappa) s(kappa) dOmega.
    """

    nu: float
    lam: int
    s: SphericalFunction
    kind = "moses_band_limited"
    nu_s = property(lambda self: self.lam * self.nu)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("Moses superposition needs nu > 0")
        _check_helicity(self.lam)
        if self.s.ncomp != 1:
            raise ValueError("spherical data must be scalar")

    @classmethod
    def from_json(cls, o: Keys):  # keys nu, lambda, lmax and coeffs
        return cls(o.get("nu", eigen), o.get("lambda", helicity, 1), spherical(o.obj, o.path))

    def rule(self, radius: float) -> SphereQuadrature:
        """The polar rule (Gauss-Legendre in the polar angle itself) with
        lmax + ceil(nu radius) + 12 polar nodes.  Q_lam s carries a phase
        singularity at the poles for generic s, on which the polar rule
        converges spectrally and the rule in cos(polar) only algebraically.
        """
        return make_polar_sphere_quadrature(self.s.lmax + int(np.ceil(self.nu * radius)) + 12)

    def values(self, pts, quad=None):
        quad = field_rule(self, pts) if quad is None else quad
        return synthesize_moses(self.nu, self.lam, self.s, pts, quad)

    def radon(self, ps, kappas):
        return radon_moses_many(self.nu, self.lam, self.s, ps, kappas)


FIELD_TYPES = {cls.kind: cls for cls in (PlaneWave, Lundquist, CKCylindrical,
                                         GeneralizedLundquist, Spheromak, MosesBandLimited)}


def spec_from_json(obj: dict, path: str = "field") -> TrkalianSpec:
    """The catalog field a JSON object describes; ConfigError names the bad key."""
    return typed(FIELD_TYPES)(obj, path)


def eigenvalue(spec: TrkalianSpec) -> float:
    """Signed curl eigenvalue nu_s of the catalog field."""
    return spec.nu_s


def eval_field(spec: TrkalianSpec, x, quad: SphereQuadrature | None = None) -> np.ndarray:
    """Closed-form field value(s); x has shape (3,) or (..., 3)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    out = spec.values(np.atleast_2d(pts), quad)
    return out[0] if single else out


def field_rule(spec: TrkalianSpec, pts: np.ndarray) -> SphereQuadrature | None:
    """The sphere rule eval_field uses by default at points pts (..., 3).

    None for the closed-form fields.  A band-limited field gets its rule for
    the radius max |x| of all of pts: evaluating pts in parts with this rule
    gives the values of one call.
    """
    return spec.rule(float(np.max(np.linalg.norm(pts, axis=-1))))


def _cylindrical(pts: np.ndarray):
    """r = hypot(x, y) of points (..., 3) and the unit vector (c, s) = (x, y)/r,
    (1, 0) on the axis."""
    x, y = pts[..., 0], pts[..., 1]
    r = np.hypot(x, y)
    safe = np.where(r > 0, r, 1.0)
    return r, np.where(r > 0, x / safe, 1.0), y / safe


def _vector(c, s, f_r, f_phi, f_z) -> np.ndarray:
    """f_r e_r + f_phi e_phi + f_z e_z (..., 3), e_r = (c, s, 0) and e_phi = (-s, c, 0)."""
    return np.stack([f_r * c - f_phi * s, f_r * s + f_phi * c, f_z], axis=-1)


def _jn_pair(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_m(a) and J_{m-1}(a) for an integer m and arguments a >= 0.

    With n = max(|m|, |m - 1|), J_{n-1} and J_n come from j0/j1 and the
    forward recurrence J_{k+1} = (2k/a) J_k - J_{k-1}, stable for k < a, and
    from jv where a < n; J_{-k} = (-1)^k J_k.
    """
    n = max(m, 1 - m)
    lo, hi = j0(a), j1(a)                  # J_{n-1}, J_n
    if n > 1:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(1, n):          # where a < n the values are replaced below
                lo, hi = hi, (2.0 * k / a) * hi - lo
        small = a < n
        lo[small], hi[small] = jv(n - 1, a[small]), jv(n, a[small])
    return (hi, lo) if m >= 1 else ((-1.0) ** (n - 1) * lo, (-1.0) ** n * hi)


def _jm_over_x(m: int, x: np.ndarray, jm: np.ndarray) -> np.ndarray:
    """J_m(x)/x from jm = J_m(x), with the series limit on the axis (m != 0)."""
    n, small = abs(m), x < 1e-6
    lim = 0.5 - x**2 / 16.0 if n == 1 else x ** (n - 1) / (2.0**n * math.factorial(n))
    return np.where(small, lim if m > 0 else (-1.0) ** n * lim, jm / np.where(small, 1.0, x))


def _j1_spherical_ratio(x: np.ndarray, j1: np.ndarray) -> np.ndarray:
    """j1(x)/x from j1 = j1(x), with series for small arguments."""
    small = x < 1e-3
    out = j1 / np.where(small, 1.0, x)
    series = 1.0 / 3.0 - x**2 / 30.0 + x**4 / 840.0
    return np.where(small, series, out)


def _j1_minus_sin_over_x(x: np.ndarray, j1: np.ndarray) -> np.ndarray:
    """(j1(x) - sin(x))/x from j1 = j1(x), with series for small arguments."""
    small = x < 1e-3
    safe = np.where(small, 1.0, x)
    out = (j1 - np.sin(safe)) / safe
    series = -2.0 / 3.0 + 2.0 * x**2 / 15.0 - x**4 / 140.0
    return np.where(small, series, out)


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

def jacobian_fd(field, x, h: float = 1e-3) -> np.ndarray:
    """Richardson central-difference Jacobian J[..., i, j] = d field_i / d x_j (O(h^4)).

    x has shape (..., 3); `field` maps points (N, 3) to values (N, ...) and is
    called once, on the 12 points x +- h e_j and x +- (h/2) e_j of every x.  The
    central differences D of the two steps combine as (4 D(h/2) - D(h))/3.
    Returns shape x.shape[:-1] + value shape + (3,).
    """
    x = np.asarray(x, dtype=float)
    offsets = np.multiply.outer([h, -h, h / 2.0, -h / 2.0], np.eye(3))  # (step, j, 3)
    pts = x + offsets.reshape((4, 3) + (1,) * (x.ndim - 1) + (3,))
    vals = np.asarray(field(pts.reshape(-1, 3)), dtype=complex)
    vals = vals.reshape((4, 3) + x.shape[:-1] + vals.shape[1:])
    d1 = (vals[0] - vals[1]) / (2.0 * h)
    d2 = (vals[2] - vals[3]) / h
    return np.moveaxis((4.0 * d2 - d1) / 3.0, 0, -1)


def _curl(J: np.ndarray) -> np.ndarray:
    """The curl (..., 3) of a vector field from its Jacobian J[..., i, j] = d_j F_i."""
    return np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                     J[..., 1, 0] - J[..., 0, 1]], axis=-1)


def curl_fd(field, x, h: float = 1e-3) -> np.ndarray:
    """FD curl at points x (3,) or (..., 3) through jacobian_fd (O(h^4)).

    `field` maps points (N, 3) -> values (N, 3).
    """
    return _curl(jacobian_fd(field, x, h))


def div_fd(field, x, h: float = 1e-3):
    """FD divergence at points x (3,) or (..., 3) through jacobian_fd."""
    return np.trace(jacobian_fd(field, x, h), axis1=-2, axis2=-1)
