"""Band-limited functions on the sphere stored as spherical-harmonic coefficients.

Complex orthonormal harmonics Y_lm with the Condon-Shortley phase, flat-indexed
by idx(l, m) = l^2 + l + m.  Evaluation uses the polynomial form

    Y_{l,m} = (-1)^m N_lm (d^m P_l)(z) (x + i y)^m          (m >= 0)
    Y_{l,-m} =        N_lm (d^m P_l)(z) (x - i y)^m

on unit vectors, which vectorizes with no per-(l, m) special-function calls;
synthesis collapses the degree sums into one power series in z per order m.

Synthesis runs over the points in blocks of SYNTH_BLOCK rows.  Per block it
forms the powers z^0..z^L, turns the cached power-series tables into the
per-order z-polynomials with one real GEMM, and sums them against w^m and
wbar^m.  So the temporaries stay bounded whatever the number of points: the
largest, the per-order polynomials of a block, is 1.3 MB at lmax 12 with
three components and 0.3 MB at lmax 8 with one.  The last block is
zero-padded, so every block has the same shape and a point's value has the
same bits whether it is evaluated alone or among others.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .geometry import make_sphere_quadrature

# Points per synthesis block.  Large enough to amortize the per-block numpy
# calls, small enough that a block's temporaries stay in the L2 cache; the
# fastest of 256..2048 at lmax 8 on a 2-core AVX-512 Xeon.
SYNTH_BLOCK = 1024

# Highest degree accepted for spherical data read from a config.  On unit-scale
# coefficients the power-basis tables miss scipy's sph_harm_y on 2,000
# directions by 1.3e-12 relative at lmax 16, 2.0e-9 at 24 and 6.8e-7 at 32.
# Data whose coefficients decay with the degree (analyze, the spectral
# inverses) stays accurate above it.
CONFIG_LMAX = 16


def padded_blocks(rows: np.ndarray, size: int):
    """Yield (start, count, block) over rows (n, k) in blocks of `size` rows.

    The last block is zero-padded, so every block has the same shape and each
    row meets the same arithmetic whatever the number of rows or its position.
    That includes BLAS: numpy sends a one-row matmul to gemv, and BLAS may
    pick other kernels for small matrices; both round differently from the
    blocked GEMM.  The block buffer is reused between iterations.
    """
    block = np.zeros((size,) + rows.shape[1:], dtype=rows.dtype)
    for lo in range(0, rows.shape[0], size):
        n = min(size, rows.shape[0] - lo)
        block[:n] = rows[lo: lo + n]
        block[n:] = 0
        yield lo, n, block


def lm_index(l: int, m: int) -> int:
    return l * l + l + m


def num_coeffs(lmax: int) -> int:
    return (lmax + 1) ** 2


def lm_pairs(lmax: int) -> list[tuple[int, int]]:
    return [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]


def _norm_lm(l: int, m: int) -> float:
    return math.sqrt((2 * l + 1) / (4.0 * np.pi) *
                     math.factorial(l - m) / math.factorial(l + m))


def _legendre_derivative_coeffs(l: int, m: int) -> np.ndarray:
    """Legendre-series coefficients of d^m P_l / du^m."""
    e_l = np.zeros(l + 1)
    e_l[l] = 1.0
    return npleg.legder(e_l, m) if m > 0 else e_l


@functools.cache
def _power_block(l: int, m: int) -> tuple[np.ndarray, float]:
    """Power-basis coefficients of d^m P_l / du^m (read-only) and N_lm: the (l, m)
    block of every synthesis table, built once per process."""
    base = npleg.leg2poly(_legendre_derivative_coeffs(l, m))
    base.flags.writeable = False
    return base, _norm_lm(l, m)


def ylm_matrix(lmax: int, dirs: np.ndarray) -> np.ndarray:
    """Matrix of Y_lm values: shape (num_coeffs, N) for unit vectors (N, 3)."""
    dirs = np.asarray(dirs, dtype=float).reshape(-1, 3)
    z = dirs[:, 2]
    w = dirs[:, 0] + 1j * dirs[:, 1]
    wpow = np.empty((lmax + 1, dirs.shape[0]), dtype=complex)
    wpow[0] = 1.0
    for m in range(1, lmax + 1):
        wpow[m] = wpow[m - 1] * w
    out = np.empty((num_coeffs(lmax), dirs.shape[0]), dtype=complex)
    for l in range(lmax + 1):
        for m in range(l + 1):
            A = npleg.legval(z, _legendre_derivative_coeffs(l, m))
            val = ((-1.0) ** m * _norm_lm(l, m)) * A * wpow[m]
            out[lm_index(l, m)] = val
            if m > 0:
                out[lm_index(l, -m)] = (-1.0) ** m * np.conj(val)
    return out


def degree_of_index(lmax: int) -> np.ndarray:
    """Degree l per flat coefficient index."""
    degs = np.empty(num_coeffs(lmax), dtype=int)
    for l, m in lm_pairs(lmax):
        degs[lm_index(l, m)] = l
    return degs


@dataclass(frozen=True)
class SphericalFunction:
    """Band-limited function on S^2: coefficients c[comp, lm_index].

    Scalar data uses ncomp = 1; vector data uses ncomp = 3.  Immutable after
    construction; evaluation is harmonic synthesis through cached per-order
    power series in z, in fixed blocks of SYNTH_BLOCK points, so its
    temporaries do not grow with the number of points.
    """

    lmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 1:
            c = c[None, :]
        if c.shape[-1] != num_coeffs(self.lmax):
            raise ValueError("coefficient count does not match lmax")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_synth", None)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def _synthesis_tables(self) -> np.ndarray:
        """Stacked power-basis series: s = sum_m w^m C[:, m] (z) + wbar^m C[:, L+1+m] (z).

        Returns coefficients of shape (lmax+1, 2 lmax+2, ncomp): axis 0 is the
        power of z, columns 0..L serve w^m, columns L+1..2L+1 serve wbar^(m+1).
        """
        if self._synth is not None:
            return self._synth
        L, nc = self.lmax, self.ncomp
        table = np.zeros((L + 1, 2 * L + 2, nc), dtype=complex)
        for l in range(L + 1):
            for m in range(l + 1):
                base, n = _power_block(l, m)
                cp = self.coeffs[:, lm_index(l, m)] * ((-1.0) ** m * n)
                table[: base.size, m] += np.multiply.outer(base, cp)
                if m > 0:
                    cm = self.coeffs[:, lm_index(l, -m)] * n
                    table[: base.size, L + m] += np.multiply.outer(base, cm)
        object.__setattr__(self, "_synth", table)
        return table

    def _order_kernel(self, table: np.ndarray):
        """(kernel, spare): kernel is a function of a block (B, 3) of points,
        B = SYNTH_BLOCK, that returns (wpow, V) for them, in buffers that the
        next call overwrites.

        wpow[m] = w^m for m = 0..L, and V (B, 2L+2, ncomp) holds the per-order
        z-polynomials of table, the synthesis tables or a permutation of their
        columns.  spare is a free buffer of V's shape.  V and spare are one
        allocation, so that a caller with few points, evaluated over whole
        blocks, does not pass several large buffers through the allocator.
        """
        L, B = self.lmax, SYNTH_BLOCK
        # row k: the z^k coefficients of every (column, component), real and
        # imaginary parts interleaved
        table = np.ascontiguousarray(table).reshape(L + 1, -1).view(float)
        zpow = np.empty((L + 1, B))
        wpow = np.empty((L + 1, B), dtype=complex)
        V, spare = np.empty((2, B, 2 * L + 2, self.ncomp), dtype=complex)
        zpow[0] = 1.0
        wpow[0] = 1.0

        def kernel(block):
            z = block[:, 2]
            w = block[:, 0] + 1j * block[:, 1]
            for k in range(1, L + 1):
                np.multiply(zpow[k - 1], z, out=zpow[k])
                np.multiply(wpow[k - 1], w, out=wpow[k])
            np.matmul(zpow.T, table, out=V.reshape(B, -1).view(float))
            return wpow, V
        return kernel, spare

    def __call__(self, dirs: np.ndarray) -> np.ndarray:
        """Evaluate at unit vectors (..., 3).

        Returns shape (...) for scalar data and (..., 3) for 3-component data.
        Each point's value is independent of the other points in the call.
        """
        dirs = np.asarray(dirs, dtype=float)
        lead = dirs.shape[:-1]
        flat = dirs.reshape(-1, 3)
        L, nc = self.lmax, self.ncomp
        out = np.empty((flat.shape[0], nc), dtype=complex)
        kernel, _ = self._order_kernel(self._synthesis_tables())
        for lo, n, block in padded_blocks(flat, SYNTH_BLOCK):
            wpow, V = kernel(block)
            acc = np.einsum("mn,nmc->nc", wpow, V[:, : L + 1])
            if L >= 1:
                acc += np.einsum("mn,nmc->nc", np.conj(wpow[1:]), V[:, L + 1: 2 * L + 1])
            out[lo: lo + n] = acc[:n]
        if nc == 1:
            return out[:, 0].reshape(lead)
        return out.reshape(lead + (nc,))

    def orders(self):
        """The per-order parts s_m = sum_l c_lm Y_lm, as a function of unit vectors.

        Returns parts(dirs): dirs (..., 3) -> shape (..., 2L+1) for scalar data
        and (..., 2L+1, ncomp) otherwise, column L + m holding order m.  parts
        reuses its buffers, so its result is valid until its next call.  The
        parts sum to the value of __call__, and a rotation R_psi about z
        multiplies them by e^{i m psi}: s(R_psi k) = sum_m e^{i m psi} s_m(k).
        The points run in whole zero-padded synthesis blocks, so a point's
        parts have the same bits in any call.
        """
        L, nc = self.lmax, self.ncomp
        # the table's columns in the order of the parts: wbar^L..wbar^1, then
        # w^0..w^L, then the unused column.  The powers, copied point by point
        # into W in the same order, turn a block's polynomials V into its parts
        # in place, in one contiguous multiply.
        kernel, spare = self._order_kernel(
            self._synthesis_tables()[:, np.r_[2 * L: L: -1, : L + 1, 2 * L + 1]])
        W = spare[..., :1]
        W[:, 2 * L + 1] = 0.0
        shape = (2 * L + 1,) if nc == 1 else (2 * L + 1, nc)

        def parts(dirs):
            dirs = np.asarray(dirs, dtype=float)
            flat = dirs.reshape(-1, 3)
            N = flat.shape[0]
            # one block's parts stay in V; several are gathered into a new array
            out = None if 0 < N <= SYNTH_BLOCK else np.empty((N, 2 * L + 1, nc), dtype=complex)
            for lo, n, block in padded_blocks(flat, SYNTH_BLOCK):
                wpow, V = kernel(block)
                np.conjugate(wpow[:0:-1].T, out=W[:, :L, 0])         # wbar^L..wbar^1
                W[:, L: 2 * L + 1, 0] = wpow.T
                np.multiply(W, V, out=V)
                if N <= SYNTH_BLOCK:
                    return V[:n, : 2 * L + 1].reshape(dirs.shape[:-1] + shape)
                out[lo: lo + n] = V[:n, : 2 * L + 1]
            return out.reshape(dirs.shape[:-1] + shape)
        return parts

    def scale_degrees(self, multipliers: np.ndarray) -> "SphericalFunction":
        """Apply per-degree multipliers mu_l coefficient-wise."""
        degs = degree_of_index(self.lmax)
        return SphericalFunction(self.lmax, self.coeffs * np.asarray(multipliers)[degs])

    @staticmethod
    def single_mode(lmax: int, l: int, m: int, value: complex = 1.0) -> "SphericalFunction":
        c = np.zeros((1, num_coeffs(lmax)), dtype=complex)
        c[0, lm_index(l, m)] = value
        return SphericalFunction(lmax, c)

    @staticmethod
    def random(lmax: int, rng: np.random.Generator, ncomp: int = 1,
               even_only: bool = False, min_abs_m: int = 0) -> "SphericalFunction":
        """Random band-limited data with unit-scale coefficients.

        min_abs_m > 0 restricts to modes vanishing at the coordinate poles
        (|m| >= min_abs_m), which keeps pole-adapted quadratures spectrally
        accurate when the data multiplies the helical basis vectors.
        """
        c = np.zeros((ncomp, num_coeffs(lmax)), dtype=complex)
        for l, m in lm_pairs(lmax):
            if even_only and l % 2 == 1:
                continue
            if abs(m) < min_abs_m:
                continue
            c[:, lm_index(l, m)] = rng.standard_normal(ncomp) + 1j * rng.standard_normal(ncomp)
        return SphericalFunction(lmax, c)


def analyze(fn, lmax: int) -> SphericalFunction:
    """Project fn onto harmonics of degree <= lmax by sphere quadrature.

    fn maps unit vectors (N, 3) to values (N,) or (N, ncomp).  The rule,
    make_sphere_quadrature(2 lmax + 8), is exact on products of degree up to
    4 lmax + 15, so fn of degree up to 3 lmax + 15 is projected exactly.
    """
    quad = make_sphere_quadrature(2 * lmax + 8)
    vals = np.asarray(fn(quad.nodes), dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None]
    Y = ylm_matrix(lmax, quad.nodes)  # (nlm, N)
    coeffs = (Y.conj() * quad.weights) @ vals  # (nlm, ncomp)
    return SphericalFunction(lmax, coeffs.T)


def legendre_p_zero(l: int) -> float:
    """P_l(0): zero for odd l, (-1)^(l/2) (l-1)!! / l!! for even l."""
    if l % 2 == 1:
        return 0.0
    val = 1.0
    for k in range(2, l + 1, 2):
        val *= (k - 1) / k
    return val * (-1.0) ** (l // 2)
