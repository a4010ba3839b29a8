"""Great-circle and singular-kernel transforms on the sphere.

Implements the even/odd pair of integral operators

    U0[f](theta) = (1/(2 sqrt(pi)))  Int_{k.theta=0} f(k) dk        (great circle)
    V0[f](theta) = (1/(2 pi^{3/2})) PV Int_{S^2} f(k)/(k.theta) dOmega,

the spectral inverse of the great-circle transform on even band-limited data,
and Hadamard finite-part moments.  The half-line kernel is the combination
U0 + i V0 = pi^{-1/2} Int f(k) delta_+(k.theta) dOmega with
delta_+(u) = delta(u)/2 + (i/(2 pi)) P(1/u).

The classical great-circle (Minkowski) transform is M = 2 sqrt(pi) U0; its
per-degree multipliers are 2 pi P_l(0).

The Hilbert transform, the derivative and the Tuy bracket in the plane offset
act on the two-frequency plane transform of a Trkalian field as one number per
frequency; they are written where used, on fields.radon_moses_pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import gauss_legendre, great_circle_nodes
from .harmonics import SphericalFunction, degree_of_index, legendre_p_zero


class OddInput(ValueError):
    """Raised when the spectral great-circle inverse receives odd-degree data."""


def canonical_axes_many(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic representatives of the unoriented axes {theta, -theta}.

    Returns (axes, signs) with axes = signs * thetas for directions (..., 3);
    the sign is that of the first of theta_z, theta_y, theta_x above 1e-12 in
    magnitude.  Quadrature rules built on the axis are then shared between
    theta and -theta, so odd-kernel contributions cancel node-wise in
    identities that pair both orientations.
    """
    thetas = np.asarray(thetas, dtype=float)
    tol = 1e-12
    sz, sy, sx = (np.sign(thetas[..., i]) for i in (2, 1, 0))
    sign = np.where(np.abs(thetas[..., 2]) > tol, sz,
                    np.where(np.abs(thetas[..., 1]) > tol, sy, sx))
    return sign[..., None] * thetas, sign


def funk_transform(f, theta, circle_n: int = 64):
    """Great-circle transform U0[f](theta) by the uniform trapezoid rule.

    f is a SphericalFunction or any callable mapping unit vectors (N, 3) to
    values (N,) or (N, c).  theta (3,) or (B, 3); f is called once on the
    nodes of all B circles.  Annihilates odd functions.
    """
    theta = np.asarray(theta, dtype=float)
    nodes = great_circle_nodes(theta, circle_n)
    vals = np.asarray(f(nodes.reshape(-1, 3)))
    vals = vals.reshape(theta.shape[:-1] + (circle_n,) + vals.shape[1:])
    return (2.0 * np.pi / circle_n) / (2.0 * np.sqrt(np.pi)) * vals.sum(axis=theta.ndim - 1)


def funk_minkowski(f, theta, circle_n: int = 64):
    """Classical great-circle transform M[f] = 2 sqrt(pi) U0[f]."""
    return 2.0 * np.sqrt(np.pi) * funk_transform(f, theta, circle_n)


def funk_multipliers(lmax: int) -> np.ndarray:
    """mu_l = 2 pi P_l(0) for l = 0..lmax, the M[f] multipliers; zero for odd l."""
    return np.array([2.0 * np.pi * legendre_p_zero(l) for l in range(lmax + 1)])


def semyanistyi_inverse(g: SphericalFunction, odd_tol: float = 1e-10) -> SphericalFunction:
    """Inverse of the great-circle transform on even band-limited data.

    Spectral route: divide each even-degree coefficient by 2 pi P_l(0), the
    regularized/analytically-continued inverse.  Rejects input carrying
    odd-degree energy above odd_tol.
    """
    degs = degree_of_index(g.lmax)
    odd = degs % 2 == 1
    if np.any(np.abs(g.coeffs[:, odd]) > odd_tol):
        raise OddInput("input has odd-degree coefficients; not in the transform range")
    mu = funk_multipliers(g.lmax)
    inv = np.zeros_like(mu)
    inv[::2] = 1.0 / mu[::2]
    coeffs = g.coeffs * inv[degs]
    coeffs[:, odd] = 0.0
    return SphericalFunction(g.lmax, coeffs)


@dataclass(frozen=True)
class PVRule:
    """Symmetric-pair principal-value rule in u = k.theta with azimuth trapezoid.

    Gauss-Legendre nodes on (0, 1] are paired with their mirror images so the
    1/u singularity cancels analytically:  PV int g/u du = int_0^1 [g(u) -
    g(-u)]/u du.
    """

    n_u: int = 48
    n_psi: int = 96

    def u_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights in u on (0, 1]."""
        return gauss_legendre(self.n_u, 0.0, 1.0)

    def nodes(self, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rule's nodes around unit axes (B, 3).

        Returns (k_plus, k_minus, er): k_pm = +-u axis + rho e_r(psi) with
        rho = sqrt(1 - u^2), shape (B, n_u, n_psi, 3), and the u = 0 circle
        e_r(psi) = cos(psi) e1 + sin(psi) e2, shape (B, n_psi, 3), in the frame
        of geometry.frames_for_many.
        """
        axes = np.asarray(axes, dtype=float)
        u, _ = self.u_rule()
        rho = np.sqrt(1.0 - u**2)
        er = great_circle_nodes(axes, self.n_psi)
        base = rho[None, :, None, None] * er[:, None, :, :]
        off = u[None, :, None, None] * axes[:, None, None, :]
        return base + off, base - off, er

    def pv_sphere(self, f, theta) -> np.ndarray:
        """PV Int_{S^2} f(k)/(k.theta) dOmega."""
        return self._pv(f, np.asarray(theta, dtype=float)[None], 1)[0]

    def pv_sphere_batch(self, f, thetas: np.ndarray, chunk: int = 96) -> np.ndarray:
        """pv_sphere for a batch of directions (N, 3) in memory-bounded chunks."""
        return self._pv(f, np.asarray(thetas, dtype=float), chunk)

    def _pv(self, f, thetas: np.ndarray, chunk: int) -> np.ndarray:
        axes, signs = canonical_axes_many(thetas)
        u, wu = self.u_rule()
        out = None
        for lo in range(0, thetas.shape[0], chunk):
            hi = min(lo + chunk, thetas.shape[0])
            k_plus, k_minus, _ = self.nodes(axes[lo:hi])
            vp = np.asarray(f(k_plus.reshape(-1, 3)), dtype=complex)
            vm = np.asarray(f(k_minus.reshape(-1, 3)), dtype=complex)
            tail = vp.shape[1:]
            shape = (hi - lo, self.n_u, self.n_psi) + tail
            pairs = (vp.reshape(shape) - vm.reshape(shape))
            pairs /= u.reshape((1, self.n_u) + (1,) * (pairs.ndim - 2))
            integ = np.tensordot(pairs.sum(axis=2), wu, axes=(1, 0)) * (2.0 * np.pi / self.n_psi)
            if out is None:
                out = np.empty((thetas.shape[0],) + tail, dtype=complex)
            out[lo:hi] = integ
        return signs.reshape(signs.shape + (1,) * (out.ndim - 1)) * out

    def fp_sphere(self, f, b) -> np.ndarray:
        """Finite part of Int_{S^2} f(k)/(k.b)^2 dOmega.

        Per azimuth: FP int_{-1}^{1} g(u)/u^2 du
                   = int_0^1 [g(u) + g(-u) - 2 g(0)]/u^2 du - 2 g(0).
        """
        axes, _ = canonical_axes_many(np.asarray(b, dtype=float)[None])
        u, wu = self.u_rule()
        k_plus, k_minus, er = self.nodes(axes)
        n = self.n_u * self.n_psi
        # one call, so an f that pairs antipodes sees k_minus(u, psi) = -k_plus(u, psi + pi)
        vals = np.asarray(f(np.concatenate([k_plus.reshape(-1, 3), k_minus.reshape(-1, 3),
                                            er[0]])), dtype=complex)
        tail = vals.shape[1:]
        vp = vals[:n].reshape((self.n_u, self.n_psi) + tail)
        vm = vals[n: 2 * n].reshape((self.n_u, self.n_psi) + tail)
        v0 = vals[2 * n:]
        shape_u = (self.n_u,) + (1,) * (vp.ndim - 1)
        pairs = (vp + vm - 2.0 * v0[None]) / (u.reshape(shape_u) ** 2)
        smooth = np.tensordot(wu, pairs.sum(axis=1), axes=(0, 0))
        endpoint = -2.0 * v0.sum(axis=0)
        return (smooth + endpoint) * (2.0 * np.pi / self.n_psi)


def v0_transform(f, theta, rule: PVRule | None = None):
    """V0[f](theta) = (1/(2 pi^{3/2})) PV Int f(k)/(k.theta) dOmega."""
    rule = rule or PVRule()
    return rule.pv_sphere(f, theta) / (2.0 * np.pi ** 1.5)


def finite_part_moment(g, n: int = 64) -> complex:
    """Hadamard finite part of Int_{-1}^{1} g(u)/u^2 du for smooth g.

    Subtraction form: the odd linear term integrates to zero by symmetric
    pairing, the constant term contributes the exact moment f.p. of u^{-2},
    which is -2, and the remainder is a regular integral.
    """
    u, w = gauss_legendre(n, 0.0, 1.0)
    g0 = g(0.0)
    vals = (np.asarray([g(ui) for ui in u]) + np.asarray([g(-ui) for ui in u])
            - 2.0 * g0) / u**2
    return complex(w @ vals - 2.0 * g0)


def pv_moment(g, n: int = 64) -> complex:
    """Cauchy principal value of Int_{-1}^{1} g(u)/u du for smooth g."""
    u, w = gauss_legendre(n, 0.0, 1.0)
    vals = (np.asarray([g(ui) for ui in u]) - np.asarray([g(-ui) for ui in u])) / u
    return complex(w @ vals)
