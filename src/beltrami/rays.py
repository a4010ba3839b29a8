"""Line transforms: whole-line (X), half-line (D), and signed (Y) integrals.

Three evaluation routes are provided:

* regularized numerics: Gaussian damping exp(-eps s^2) on a ladder of widths
  with polynomial extrapolation eps -> 0 (the fields here oscillate without
  decay, so plain quadrature diverges conditionally);
* closed forms for the Lundquist field and the plane-wave Y transform;
* great-circle / singular-kernel representations driven by band-limited
  spherical data (the transform-space route).

Half-line and signed transforms depend on the source point itself, so the
internal evaluators accept an arbitrary source x; the public ray-coordinate
API uses the foot point as the source.

The transform-space routes are sums of G_x(k) = e^{i nu k.x} Q_lam(k) s(k)
over the great-circle and PV nodes of each direction.  They are evaluated
once per unoriented axis: theta and -theta have the same great circle, and
the half-line kernel delta_+(u) = delta(u)/2 + (i/(2 pi)) P(1/u) splits into
an even circle part and an odd PV part.  So each direction is reduced to its
canonical axis a = sigma theta (sphere.canonical_axes_many), axes with equal
bits are evaluated once, to the circle sum C and the PV sum P about a, and
theta gets X = C, D = C/2 + sigma P or Y = 2 sigma P (with the weights of
each route).  The node sets pair antipodes bit for bit, so the southern
rows of a PolarSphereGrid, the -h circles of the Grangeat rule and the k_minus
nodes of the finite-part rule land on the axes of their partners.

The axes are batched by rings: axes with equal a_z (every row of a
PolarSphereGrid) are z-rotations R_psi of the first of them, whose nodes are
built once.  Since the frame is z-equivariant, Q_lam(R k) = R Q_lam(k), and
s(R k) = sum_m e^{i m psi} s_m(k), the per-order values s_m and Q are
evaluated at one node set per ring and each member costs a phase matrix and
two GEMMs, one pass over the nodes filling both sums.  Polar-cap rule: nodes
within 1e-8 of +-z carry the Gram-Schmidt pole frame, which is not
equivariant, so their Q is evaluated at every rotated node and their sum is
not rotated; axes in the polar cap are rings of one.  An axis with no
ring-mate is a ring of one, on the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .geometry import Ray, gauss_legendre, great_circle_nodes, polar_cap, unit_rows
from .harmonics import SphericalFunction
from .fields import moses_q, moses_q_many
from .sphere import PVRule, canonical_axes_many


class NonConvergence(RuntimeError):
    """Damping-ladder differences failed to decrease."""


class DegenerateRay(ValueError):
    """Closed form undefined: the ray runs along the field's symmetry axis."""


class SingularDirection(ValueError):
    """Closed form evaluated on (or too close to) its singular direction set."""


@dataclass(frozen=True)
class LineValue:
    """A line-integral value with an accuracy estimate."""

    value: np.ndarray
    error: float


@dataclass(frozen=True)
class OscillatoryLineQuadrature:
    """Plan for damped line integrals of non-decaying oscillatory fields.

    nu_scale sets the oscillation wavenumber; panels of width
    (2 pi / nu_scale)/panels_per_period carry a fixed-order Gauss rule; the
    epsilon ladder (units nu_scale^2) is extrapolated to zero.
    """

    nu_scale: float
    panels_per_period: int = 8
    epsilon_ladder: tuple[float, ...] = (0.032, 0.016, 0.008, 0.004)
    extrapolation_order: int = 4
    gauss_order: int = 6
    tail: float = 1e-16

    def __post_init__(self):
        if self.nu_scale <= 0:
            raise ValueError("nu_scale must be positive")
        if self.panels_per_period < 8:
            raise ValueError("panels_per_period must be at least 8")
        lad = tuple(float(e) for e in self.epsilon_ladder)
        if len(lad) < 2 or any(e <= 0 for e in lad):
            raise ValueError("epsilon ladder needs at least two positive entries")
        if any(b >= a for a, b in zip(lad, lad[1:])):
            raise ValueError("epsilon ladder must be strictly decreasing")
        if self.extrapolation_order < 2:
            raise ValueError("extrapolation order must be at least 2")

    @property
    def epsilons(self) -> np.ndarray:
        return np.asarray(self.epsilon_ladder) * self.nu_scale**2

    def s_max(self) -> float:
        return float(np.sqrt(np.log(1.0 / self.tail) / self.epsilons.min()))

    def panel_nodes(self, s_lo: float, s_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """All Gauss nodes and weights covering [s_lo, s_hi]."""
        width = (2.0 * np.pi / self.nu_scale) / self.panels_per_period
        n_panels = max(1, int(np.ceil((s_hi - s_lo) / width)))
        edges = np.linspace(s_lo, s_hi, n_panels + 1)
        x, w = gauss_legendre(self.gauss_order, 0.0, 1.0)
        widths = np.diff(edges)
        nodes = edges[:-1, None] + widths[:, None] * x[None, :]
        weights = widths[:, None] * w[None, :]
        return nodes.ravel(), weights.ravel()


def _neville_to_zero(eps: np.ndarray, vals: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Polynomial extrapolation of vals(eps) to eps = 0 (Neville tableau)."""
    k = min(len(eps), order + 1)
    eps = np.asarray(eps[-k:], dtype=float)
    table = [np.asarray(v, dtype=complex) for v in vals[-k:]]
    prev_best = table[-1]
    for level in range(1, k):
        new = []
        for i in range(k - level):
            e_hi, e_lo = eps[i], eps[i + level]
            new.append((e_hi * table[i + 1] - e_lo * table[i]) / (e_hi - e_lo))
        prev_best = table[-1]
        table = new
    best = table[0]
    err = float(np.max(np.abs(best - prev_best)))
    return best, err


def _damped_line_integral(field, ray: Ray, cfg: OscillatoryLineQuadrature,
                          mode: str, source: np.ndarray | None = None) -> LineValue:
    """Shared engine for X (whole line), D (half line), Y (signed)."""
    x0 = ray.foot if source is None else np.asarray(source, dtype=float)
    smax = cfg.s_max()
    if mode == "D":
        s, w = cfg.panel_nodes(0.0, smax)
        sign = np.ones_like(s)
    else:
        s, w = cfg.panel_nodes(-smax, smax)
        sign = np.sign(s) if mode == "Y" else np.ones_like(s)
    pts = x0[None, :] + s[:, None] * ray.theta[None, :]
    vals = np.asarray(field(pts), dtype=complex)  # (N, 3)
    ladder = []
    for eps in cfg.epsilons:
        damp = w * sign * np.exp(-eps * s**2)
        ladder.append(np.tensordot(damp, vals, axes=(0, 0)))
    ladder = np.asarray(ladder)
    diffs = np.linalg.norm(np.diff(ladder, axis=0), axis=1)
    if len(diffs) >= 2 and np.all(np.diff(diffs) > 0) and diffs[-1] > 1e-14:
        raise NonConvergence("damping-ladder differences increase monotonically")
    value, err = _neville_to_zero(cfg.epsilons, ladder, cfg.extrapolation_order)
    return LineValue(value=value, error=err)


def xray_numeric(field, ray: Ray, cfg: OscillatoryLineQuadrature) -> LineValue:
    """Whole-line integral of the field along the ray, damped + extrapolated."""
    return _damped_line_integral(field, ray, cfg, "X")


def dbeam_numeric(field, ray: Ray, cfg: OscillatoryLineQuadrature,
                  source: np.ndarray | None = None) -> LineValue:
    """Half-line integral from the source point (the foot by default)."""
    return _damped_line_integral(field, ray, cfg, "D", source)


def ytransform_numeric(field, ray: Ray, cfg: OscillatoryLineQuadrature,
                       source: np.ndarray | None = None) -> LineValue:
    """Signed line integral: difference of the two opposite half-line beams."""
    return _damped_line_integral(field, ray, cfg, "Y", source)


# --------------------------------------------------------------------------
# Lundquist closed forms
# --------------------------------------------------------------------------

def _cyl_angles(thetas: np.ndarray):
    v_r = np.hypot(thetas[..., 0], thetas[..., 1])
    th_az = np.arctan2(thetas[..., 1], thetas[..., 0])
    return v_r, th_az


def _check_vr(v_r, tol: float = 1e-10):
    if np.any(np.asarray(v_r) <= tol):
        raise DegenerateRay("ray direction parallel to the cylinder axis")


def xray_lundquist_batch(thetas: np.ndarray, x, F0: complex, nu: float,
                         lam: int = 1, reduced: bool = False) -> np.ndarray:
    """Whole-line transform of the Lundquist field for directions (..., 3).

    value = (2 F0/(nu v_r)) [lam sin(nu u) e_r(az) + cos(nu u) e_z],
    u = r sin(az - phi) in cylindrical coordinates of x.  With reduced=True the
    1/v_r factor is dropped (the polar Jacobian cancellation, done in closed
    form).
    """
    thetas = np.asarray(thetas, dtype=float)
    x = np.asarray(x, dtype=float)
    v_r, th_az = _cyl_angles(thetas)
    if not reduced:
        _check_vr(v_r)
    r = float(np.hypot(x[0], x[1]))
    phi = float(np.arctan2(x[1], x[0]))
    u = r * np.sin(th_az - phi)
    e_r = np.stack([np.cos(th_az), np.sin(th_az), np.zeros_like(th_az)], axis=-1)
    e_z = np.array([0.0, 0.0, 1.0])
    coef = 2.0 * F0 / nu if reduced else 2.0 * F0 / (nu * v_r)
    coef = np.asarray(coef)[..., None]
    return coef * (lam * np.sin(nu * u)[..., None] * e_r +
                   np.cos(nu * u)[..., None] * e_z)


def xray_lundquist_closed(ray: Ray, F0: complex, nu: float, lam: int = 1) -> np.ndarray:
    """Closed-form whole-line transform of the Lundquist field."""
    return xray_lundquist_batch(ray.theta[None, :], ray.foot, F0, nu, lam)[0]


@dataclass(frozen=True)
class LundquistSeriesCfg:
    """Truncation plan for the Lundquist half-line/signed Bessel series."""

    nmax: int | None = None
    tol: float = 1e-16

    def order(self, arg: float) -> int:
        if self.nmax is not None:
            if self.nmax < 1:
                raise ValueError("nmax must be at least 1")
            return self.nmax
        n = int(np.ceil(abs(arg))) + 12
        while abs(jv(n, arg)) >= self.tol and n < 400:
            n += 4
        return n

    def bound(self, arg: float, n: int) -> float:
        return 2.0 * abs(jv(n + 1, arg))

    def truncation_bound(self, arg: float) -> float:
        """Tail bound 2 |J_{n+1}(arg)| at the order this plan selects."""
        return self.bound(arg, self.order(arg))


def _lundquist_series_sums(nu_r: float, psi: np.ndarray, cfg: LundquistSeriesCfg):
    """S = sum (-1)^n sin(n psi) J_n, C = J0 + 2 sum (-1)^n cos(n psi) J_n."""
    nmax = cfg.order(nu_r)
    n = np.arange(1, nmax + 1)
    jn = jv(n, nu_r) * (-1.0) ** n  # (nmax,)
    ang = np.multiply.outer(psi, n)  # (..., nmax)
    S = np.sin(ang) @ jn
    C = jv(0, nu_r) + 2.0 * (np.cos(ang) @ jn)
    return S, C, cfg.bound(nu_r, nmax)


def dbeam_lundquist_batch(thetas: np.ndarray, x, F0: complex, nu: float,
                          cfg: LundquistSeriesCfg | None = None,
                          reduced: bool = False) -> np.ndarray:
    """Half-line transform of the Lundquist field (helicity +1) from source x.

    (F0/(nu v_r)) { -2 S e_r(az) + J0 e_az + C e_z } with the alternating
    Bessel sums S, C of argument nu r at angle az - phi.
    """
    thetas = np.asarray(thetas, dtype=float)
    x = np.asarray(x, dtype=float)
    cfg = cfg or LundquistSeriesCfg()
    v_r, th_az = _cyl_angles(thetas)
    if not reduced:
        _check_vr(v_r)
    r = float(np.hypot(x[0], x[1]))
    phi = float(np.arctan2(x[1], x[0]))
    S, C, _ = _lundquist_series_sums(nu * r, th_az - phi, cfg)
    e_r = np.stack([np.cos(th_az), np.sin(th_az), np.zeros_like(th_az)], axis=-1)
    e_az = np.stack([-np.sin(th_az), np.cos(th_az), np.zeros_like(th_az)], axis=-1)
    e_z = np.array([0.0, 0.0, 1.0])
    coef = F0 / nu if reduced else F0 / (nu * v_r)
    coef = np.asarray(coef)[..., None]
    return coef * (-2.0 * S[..., None] * e_r + jv(0, nu * r) * e_az +
                   C[..., None] * e_z)


def dbeam_lundquist_closed(ray: Ray, F0: complex, nu: float,
                           cfg: LundquistSeriesCfg | None = None) -> np.ndarray:
    """Half-line transform of the Lundquist field from the foot point."""
    return dbeam_lundquist_batch(ray.theta[None, :], ray.foot, F0, nu, cfg)[0]


def ytransform_lundquist_batch(thetas: np.ndarray, x, F0: complex, nu: float,
                               cfg: LundquistSeriesCfg | None = None,
                               reduced: bool = False) -> np.ndarray:
    """Signed transform of the Lundquist field (helicity +1) from source x.

    -(2 F0/(nu v_r)) { 2 sum sin(2k psi) J_2k e_r(az) - J0 e_az
                       + 2 sum cos((2k+1) psi) J_{2k+1} e_z },  psi = az - phi.
    """
    thetas = np.asarray(thetas, dtype=float)
    x = np.asarray(x, dtype=float)
    cfg = cfg or LundquistSeriesCfg()
    v_r, th_az = _cyl_angles(thetas)
    if not reduced:
        _check_vr(v_r)
    r = float(np.hypot(x[0], x[1]))
    phi = float(np.arctan2(x[1], x[0]))
    nu_r = nu * r
    nmax = cfg.order(nu_r)
    psi = th_az - phi
    k_even = np.arange(2, nmax + 1, 2)
    k_odd = np.arange(1, nmax + 1, 2)
    S_even = np.sin(np.multiply.outer(psi, k_even)) @ jv(k_even, nu_r) if len(k_even) else 0.0 * psi
    C_odd = np.cos(np.multiply.outer(psi, k_odd)) @ jv(k_odd, nu_r) if len(k_odd) else 0.0 * psi
    e_r = np.stack([np.cos(th_az), np.sin(th_az), np.zeros_like(th_az)], axis=-1)
    e_az = np.stack([-np.sin(th_az), np.cos(th_az), np.zeros_like(th_az)], axis=-1)
    e_z = np.array([0.0, 0.0, 1.0])
    coef = -2.0 * F0 / nu if reduced else -2.0 * F0 / (nu * v_r)
    coef = np.asarray(coef)[..., None]
    return coef * (2.0 * S_even[..., None] * e_r - jv(0, nu_r) * e_az +
                   2.0 * C_odd[..., None] * e_z)


def ytransform_lundquist_closed(ray: Ray, F0: complex, nu: float,
                                cfg: LundquistSeriesCfg | None = None) -> np.ndarray:
    """Signed transform of the Lundquist field from the foot point."""
    return ytransform_lundquist_batch(ray.theta[None, :], ray.foot, F0, nu, cfg)[0]


def ytransform_planewave_closed(ray: Ray, k0: float, kappa0, lam: int = 1,
                                source: np.ndarray | None = None) -> np.ndarray:
    """Signed transform of the helical plane wave:

    2 i (1/k0) e^{i k0 kappa0.x} (1/(kappa0.theta)) Q_lam(kappa0).
    """
    kappa0 = np.asarray(kappa0, dtype=float)
    x = ray.foot if source is None else np.asarray(source, dtype=float)
    dot = float(kappa0 @ ray.theta)
    if abs(dot) <= 1e-8:
        raise SingularDirection("ray direction nearly orthogonal to the wave vector")
    return (2j / k0) * np.exp(1j * k0 * (kappa0 @ x)) / dot * moses_q(kappa0, lam)


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


def _rings(axes: np.ndarray) -> list[np.ndarray]:
    """Indices of the canonical axes (N, 3) grouped into rings, in input order.

    A ring's axes have equal z components, so they are z-rotations of the
    first of them, the ring's base.  Axes in the polar cap are rings of one,
    and so is a lone axis, with no grouping work.
    """
    if len(axes) == 1:
        return [np.zeros(1, dtype=int)]
    cap = polar_cap(axes)
    free = np.flatnonzero(~cap)
    _, key = np.unique(axes[free, 2], return_inverse=True)
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[order])) + 1
    rings = np.split(free[order], bounds) if free.size else []
    return rings + [np.array([i]) for i in np.flatnonzero(cap)]


def _base_nodes(bases: np.ndarray, circle_n: int, circle_w: complex,
                pv: PVRule | None, pv_w: complex) -> tuple[np.ndarray, np.ndarray]:
    """Circle and PV nodes (B, n, 3) of axes (B, 3) with weights (B, n).

    Over the first circle_n nodes sum_j w_j G(k_j) = circle_w Int_C G dphi,
    over the rest pv_w PV Int G(k)/(k.a) dOmega about the axis a.
    """
    nodes, weights = [], []
    B = bases.shape[0]
    if circle_n:
        nodes.append(great_circle_nodes(bases, circle_n))
        weights.append(np.full((B, circle_n), circle_w * (2.0 * np.pi / circle_n)))
    if pv is not None:
        k_plus, k_minus, _ = pv.nodes(bases)
        u, wu = pv.u_rule()
        w = np.broadcast_to((pv_w * (2.0 * np.pi / pv.n_psi)) * np.repeat(wu / u, pv.n_psi),
                            (B, pv.n_u * pv.n_psi))
        nodes += [k_plus.reshape(B, -1, 3), k_minus.reshape(B, -1, 3)]
        weights += [w, -w]
    return np.concatenate(nodes, axis=1), np.concatenate(weights, axis=1)


def _ring_beams(nu: float, lam: int, s: SphericalFunction, thetas: np.ndarray, x,
                circle_n: int, circle_w: complex, pv: PVRule | None,
                pv_w: complex) -> np.ndarray:
    """circle_w Int_C G_x dphi + pv_w PV Int G_x(k)/(k.theta) dOmega per direction (N, 3).

    theta and -theta have the same great circle and the same PV nodes about
    their canonical axis a = sigma theta, so each distinct axis is evaluated
    once, to its circle sum C and its PV sum P about a, and theta gets
    C + sigma P.  Rings of equal size go through _ring_block together, as
    many as fit in RING_BLOCK.
    """
    thetas = unit_rows(thetas)
    x = np.asarray(x, dtype=float)
    axes, signs = canonical_axes_many(thetas)
    inv = np.zeros(1, dtype=int)
    if len(axes) > 1:
        bits = np.ascontiguousarray(axes).view(np.dtype((np.void, axes.itemsize * 3)))
        _, first, inv = np.unique(bits.ravel(), return_index=True, return_inverse=True)
        axes = axes[first]
    sums = np.empty((axes.shape[0], 2, 3), dtype=complex)
    by_size: dict[int, list[np.ndarray]] = {}
    for ring in _rings(axes):
        by_size.setdefault(len(ring), []).append(ring)
    n_nodes = circle_n + (2 * pv.n_u * pv.n_psi if pv else 0)
    for size, rings in by_size.items():
        per = max(1, RING_BLOCK // (size * n_nodes))
        for lo in range(0, len(rings), per):
            idx = np.stack(rings[lo: lo + per])
            vals = _ring_block(nu, lam, s, axes[idx], x, circle_n, circle_w, pv, pv_w)
            sums[idx.ravel()] = vals.reshape(-1, 2, 3)
    out = sums[inv.ravel(), 0]
    out += signs[:, None] * sums[inv.ravel(), 1]
    return out


def _ring_block(nu: float, lam: int, s: SphericalFunction, th: np.ndarray, x: np.ndarray,
                circle_n: int, circle_w: complex, pv: PVRule | None,
                pv_w: complex) -> np.ndarray:
    """Circle and PV node sums for B rings of R axes each, th (B, R, 3) -> (B, R, 2, 3).

    The nodes of the member R_psi theta0 are R_psi applied to the nodes of the
    base theta0, and G_x(R k) = R e^{i nu k.(R^T x)} Q_lam(k) sum_m e^{i m psi}
    s_m(k).  So s_m and Q are evaluated at the base's nodes only, s at every
    member is one GEMM, and each node sum is one GEMM per block of nodes; the
    circle and the PV nodes go to two accumulators in the same pass.
    Nodes in the polar cap carry a frame that does not rotate with R: their Q
    is evaluated at every rotated node, and their sum is not rotated.
    """
    L = s.lmax
    nodes, w = _base_nodes(th[:, 0], circle_n, circle_w, pv, pv_w)   # (B, n, 3), (B, n)
    psi = np.arctan2(th[..., 1], th[..., 0]) - np.arctan2(th[:, :1, 1], th[:, :1, 0])
    rot = np.zeros(psi.shape + (3, 3))                                 # R_psi (B, R, 3, 3)
    rot[..., 0, 0] = rot[..., 1, 1] = np.cos(psi)
    rot[..., 1, 0] = np.sin(psi)
    rot[..., 0, 1] = -rot[..., 1, 0]
    rot[..., 2, 2] = 1.0
    rot_x = nu * np.einsum("brca,c->bar", rot, x)                      # nu R^T x, (B, 3, R)
    spin = np.exp(1j * np.arange(-L, L + 1)[:, None] * psi[:, None, :])  # (B, 2L+1, R)
    sm = s.orders(nodes)                                               # (B, n, 2L+1)
    cap = polar_cap(nodes)
    wq = w[..., None] * moses_q_many(nodes, lam)                       # (B, n, 3)
    wq[cap] = 0.0

    def weighted(b, cols):
        # e^{i nu (R k).x} s(R k) for the members of rings b at their nodes cols
        ang = nodes[b, cols] @ rot_x[b]
        val = np.empty(ang.shape, dtype=complex)
        np.cos(ang, out=val.real)
        np.sin(ang, out=val.imag)
        val *= sm[b, cols] @ spin[b]
        return val

    B, R, n = psi.shape + (nodes.shape[1],)
    acc = np.zeros((2, B, 3, R), dtype=complex)                        # circle, PV
    step = max(1, RING_BLOCK // (B * R))
    for part, (lo, hi) in enumerate(((0, circle_n), (circle_n, n))):
        for c0 in range(lo, hi, step):
            cols = slice(c0, min(c0 + step, hi))
            acc[part] += np.swapaxes(wq[:, cols], 1, 2) @ weighted(slice(None), cols)
    out = np.einsum("brac,pbcr->brpa", rot, acc)
    for b, j in zip(*np.nonzero(cap)):
        q = moses_q_many(rot[b] @ nodes[b, j], lam) * w[b, j]
        out[b, :, int(j >= circle_n)] += weighted(b, j)[:, None] * q
    return out


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
    """dbeam_via_extfunk over a batch of directions (N, 3) at one source."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    return _ring_beams(nu, lam, s, thetas, x, circle_n, 0.5 * _PREF / nu,
                       pv or PVRule(), 1j * _PREF / (2.0 * np.pi * nu))


def ytransform_via_extfunk(nu: float, lam: int, s: SphericalFunction, theta, x,
                           pv: PVRule | None = None) -> np.ndarray:
    """Signed transform through sphere data: twice the PV part of the half-line,

    Y = (2 pi)^{-1/2} (1/nu) (i/pi) PV Int G(k)/(k.theta) dOmega,

    for one direction (3,) or a batch (N, 3) at one source.
    """
    theta = np.asarray(theta, dtype=float)
    out = _ring_beams(nu, lam, s, np.atleast_2d(theta), x, 0, 0.0,
                      pv or PVRule(), 1j * _PREF / (np.pi * nu))
    return out[0] if theta.ndim == 1 else out


# --------------------------------------------------------------------------
# Homogeneous extension and line-transform PDE residuals
# --------------------------------------------------------------------------

def xray_extension(xray_fn, alpha, x) -> np.ndarray:
    """Degree minus-one homogeneous extension g(alpha, x) = X F(alpha/|alpha|, x)/|alpha|.

    xray_fn(theta, x) must accept an arbitrary x (whole-line transforms are
    translation invariant along theta).
    """
    alpha = np.asarray(alpha, dtype=float)
    a = float(np.linalg.norm(alpha))
    return np.asarray(xray_fn(alpha / a, x), dtype=complex) / a


def john_residual(xray_fn, theta, x, h: float = 1e-3) -> float:
    """Symmetry defect of the mixed second derivatives of the extension.

    max_ij |d2 g / dx_i dalpha_j - d2 g / dx_j dalpha_i| over the largest
    mixed-derivative magnitude; zero exactly when the data is a line transform.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    eye = np.eye(3)
    mixed = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            vpp = xray_extension(xray_fn, theta + h * eye[j], x + h * eye[i])
            vpm = xray_extension(xray_fn, theta - h * eye[j], x + h * eye[i])
            vmp = xray_extension(xray_fn, theta + h * eye[j], x - h * eye[i])
            vmm = xray_extension(xray_fn, theta - h * eye[j], x - h * eye[i])
            mixed[i, j] = (vpp - vpm - vmp + vmm) / (4.0 * h * h)
    asym = np.max(np.abs(mixed - np.swapaxes(mixed, 0, 1)))
    scale = np.max(np.abs(mixed))
    return float(asym / scale)


def _grad_alpha(xray_fn, theta, x, h: float) -> np.ndarray:
    eye = np.eye(3)
    cols = [(xray_extension(xray_fn, theta + h * eye[j], x) -
             xray_extension(xray_fn, theta - h * eye[j], x)) / (2.0 * h)
            for j in range(3)]
    return np.stack(cols, axis=-1)  # (3 comp, 3 alpha)


def _curl_alpha(xray_fn, theta, x, h: float) -> np.ndarray:
    J = _grad_alpha(xray_fn, theta, x, h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


def curl_form_residual(xray_fn, nu_signed: float, theta, x, h: float = 1e-3) -> float:
    """Residual of d/dx_m (curl_alpha g) = nu d/dalpha_m g, maximized over m."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    eye = np.eye(3)
    worst, scale = 0.0, 0.0
    for m in range(3):
        lhs = (_curl_alpha(xray_fn, theta, x + h * eye[m], h) -
               _curl_alpha(xray_fn, theta, x - h * eye[m], h)) / (2.0 * h)
        rhs = nu_signed * (xray_extension(xray_fn, theta + h * eye[m], x) -
                           xray_extension(xray_fn, theta - h * eye[m], x)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        scale = max(scale, float(np.max(np.abs(rhs))))
    return worst / scale


def theta_divergence_residual(xray_fn, theta, x, h: float = 1e-3) -> float:
    """|div_alpha g| relative to |grad_alpha g| for the homogeneous extension."""
    J = _grad_alpha(xray_fn, theta, x, h)
    return float(abs(J[0, 0] + J[1, 1] + J[2, 2]) / np.max(np.abs(J)))
