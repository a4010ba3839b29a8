"""Band-limited functions on the sphere stored as spherical-harmonic coefficients.

Complex orthonormal harmonics Y_lm with the Condon-Shortley phase, flat-indexed
by idx(l, m) = l^2 + l + m.  With cos theta = z, sin theta = rho = |x + i y| and
u = (x + i y) / rho (0 on the z axis), Y_lm = P_l|m|(theta) u^m for m >= 0 and
Y_l,-m = (-1)^m conj(Y_lm), P_lm the normalized associated Legendre function
from its three-term recurrence in l (_legendre; ylm_matrix runs it per point).

Synthesis sums a Fourier series in theta.  Over the whole circle, with sin theta
signed, P_lm is a cosine polynomial of degree l for even m and a sine one for
odd m, so the order-m part is u^m sum_k a_mk cos k theta or u^m sum_k b_mk sin
k theta, with cos k theta + i sin k theta = (z + i rho)^k.  The coefficients
are one contraction of the function's with rows built once per lmax from the
recurrence at 2L+2 angles and one rfft (_fourier_rows).  Every basis value is
bounded by one, so synthesis keeps its digits: 1e-14 of the largest value at
lmax 64.

Synthesis runs over the points in blocks of SYNTH_BLOCK rows: one real GEMM of
a block's cos and sin rows by the table gives its per-order series, at most
1.4 MB at lmax 12 with three components and 0.3 MB at lmax 8 with one,
whatever the number of points.  The last block is zero-padded, so every block
has the same shape and a point's value has the same bits whether it is
evaluated alone or among others.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import make_sphere_quadrature

# Points per synthesis block.  Large enough to amortize the per-block numpy
# calls, small enough that a block's temporaries stay in the L2 cache; the
# fastest of 256..2048 at lmax 8 on a 2-core AVX-512 Xeon.
SYNTH_BLOCK = 1024

# Highest degree accepted for spherical data read from a config: the highest
# degree at which synthesis is tested against scipy (1e-13 of the largest value).
CONFIG_LMAX = 64


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


def degree_of_index(lmax: int) -> np.ndarray:
    """Degree l per flat coefficient index."""
    return np.sqrt(np.arange(num_coeffs(lmax))).astype(int)


_RHO_FLOOR = np.sqrt(np.finfo(float).tiny)       # x^2 + y^2 is a normal number above it


def _polar(x: np.ndarray, y: np.ndarray, rho: np.ndarray, u: np.ndarray) -> None:
    """rho = |x + i y| into the real row rho and u = (x + i y) / rho into the complex
    row u, divided by _RHO_FLOOR below it: so |u| <= 1, and u = 0 on the z axis."""
    np.sqrt(np.add(x * x, y * y, out=rho), out=rho)
    inv = np.reciprocal(np.maximum(rho, _RHO_FLOOR))
    np.multiply(x, inv, out=u.real)
    np.multiply(y, inv, out=u.imag)


def _legendre(lmax: int, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows idx(l, m) of a (num_coeffs, n) array: P_l|m| at cos theta = z and
    sin theta = s, times (-1)^m for m < 0, by the normalized three-term
    recurrence, in the precision of z."""
    one = z.dtype.type(1)
    P = np.empty((num_coeffs(lmax), z.shape[0]), dtype=z.dtype)
    P[0] = np.sqrt(one / 4 / np.pi)
    for l in range(1, lmax + 1):
        r, q, p = l * l + l, l * l - l, l * l - 3 * l + 2        # idx(l, 0), idx(l-1, 0), idx(l-2, 0)
        m2 = np.arange(l - 1, dtype=z.dtype)[:, None] ** 2
        a = np.sqrt((4 * l * l - one) / (l * l - m2))
        b = np.sqrt((2 * l + one) * ((l - 1) ** 2 - m2) / ((2 * l - 3) * (l * l - m2)))
        P[r: r + l - 1] = a * z * P[q: q + l - 1] - b * P[p: p + l - 1]
        P[r + l - 1] = np.sqrt(2 * l + one) * z * P[q + l - 1]
        P[r + l] = -np.sqrt((2 * l + one) / (2 * l)) * s * P[q + l - 1]
        P[r - l: r] = (-one) ** np.arange(l, 0, -1)[:, None] * P[r + l: r: -1]
    return P


@functools.cache
def _fourier_rows(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, rows), read-only, built once per lmax: rows[L + m, l, k] is the
    cos k theta (even m) or sin k theta (odd m) coefficient of P_lm(theta), and
    index[L + m, l] is idx(l, m); for l < |m| they are 0 and num_coeffs(L)."""
    L, n = lmax, 2 * lmax + 2
    theta = 2 * np.pi * np.arange(n, dtype=np.longdouble) / n
    F = np.fft.rfft(_legendre(L, np.cos(theta), np.sin(theta)).astype(float), axis=1)[:, : L + 1] / n
    F[:, 1:] *= 2.0
    odd = np.arange(num_coeffs(L))[:, None] % 2 == 1            # idx(l, m) has the parity of m
    coef = np.vstack([np.where(odd, -F.imag, F.real), np.zeros(L + 1)])
    l, m = np.arange(L + 1), np.arange(-L, L + 1)[:, None]
    index = np.where(abs(m) <= l, l * l + l + m, num_coeffs(L))
    rows = coef[index]
    index.flags.writeable = rows.flags.writeable = False
    return index, rows


def ylm_matrix(lmax: int, dirs: np.ndarray) -> np.ndarray:
    """Matrix of Y_lm values: shape (num_coeffs, N) for unit vectors (N, 3).

    The per-point reference path: the Legendre recurrence at each point times
    the powers of u, with no synthesis table, GEMM or Fourier row.  The
    recurrence runs in extended precision at cos and sin of atan2(rho, z): near
    a pole a rounding of z moves P_l by about l^2 times the rounding.
    """
    x, y, z = np.asarray(dirs, dtype=float).reshape(-1, 3).T
    rho, u = np.empty_like(z), np.empty(z.shape, dtype=complex)
    _polar(x, y, rho, u)
    upow = u ** np.arange(lmax + 1)[:, None]
    phase = np.concatenate([np.conj(upow[:0:-1]), upow])       # u^m in row lmax + m
    z, rho = z.astype(np.longdouble), rho.astype(np.longdouble)
    r, l = np.sqrt(z * z + rho * rho), degree_of_index(lmax)
    m = np.arange(l.size) - l * (l + 1)
    return _legendre(lmax, z / r, rho / r).astype(float) * phase[lmax + m]


@dataclass(frozen=True)
class SphericalFunction:
    """Band-limited function on S^2: coefficients c[comp, lm_index].

    Scalar data uses ncomp = 1; vector data uses ncomp = 3.  Immutable after
    construction; evaluation sums cached per-order Fourier series in theta, in
    fixed blocks of SYNTH_BLOCK points.
    """

    lmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.lmax < 0:
            raise ValueError("lmax must be >= 0")
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if c.shape[-1] != num_coeffs(self.lmax):
            raise ValueError("coefficient count does not match lmax")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_synth", None)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def _synthesis_table(self) -> np.ndarray:
        """The real GEMM table (2L+2, 2 M ncomp): row 2k holds the cos k theta and
        row 2k+1 the sin k theta coefficients of each (order, component), order
        -L first, real and imaginary parts interleaved; an even order reads only
        cos rows, an odd one only sin rows.  M pads the 2L+1 orders with zero ones
        to a multiple of 4: OpenBLAS rounds a block's last 4 rows by another
        kernel when the column count is above 192 and not a multiple of 8."""
        if self._synth is not None:
            return self._synth
        L, nc = self.lmax, self.ncomp
        index, rows = _fourier_rows(L)
        c = np.concatenate([self.coeffs, np.zeros((nc, 1))], axis=1)[:, index]
        t = np.matmul(c.transpose(1, 0, 2), rows).transpose(2, 0, 1)   # (k, order, comp)
        e = L % 2                                                        # order -L is even at e = 0
        table = np.zeros((L + 1, 2, 4 * (L // 2 + 1), nc), dtype=complex)      # M columns
        table[:, 0, e: 2 * L + 1: 2] = t[:, e::2]
        table[:, 1, 1 - e: 2 * L + 1: 2] = t[:, 1 - e::2]
        table = table.reshape(2 * L + 2, -1).view(float)
        object.__setattr__(self, "_synth", table)
        return table

    def _order_kernel(self):
        """kernel(block) -> (upow, V) for a block (SYNTH_BLOCK, 3) of points, in
        buffers the next call overwrites: upow[m] = u^m (m = 0..L), and V[:, L + m]
        the theta series of order m (zero beyond 2L), so the order-m part is
        u^m V[:, L + m] and the order -m one conj(u)^m V[:, L - m]."""
        L, B, table = self.lmax, SYNTH_BLOCK, self._synthesis_table()
        # one allocation, so that a caller with few points, evaluated over a
        # whole block, does not pass several large buffers through the allocator
        nz, nt = 4 * (L + 2) * B, 2 * (L + 1) * B
        buf = np.empty(nz + nt + table.shape[1] * B)
        Z = buf[:nz].view(complex).reshape(L + 2, 2, B)   # e^{i k theta}, u^k; row 1 for lmax 0
        Z[0], powers = 1.0, list(Z)
        cs = buf[nz: nz + nt].reshape(L + 1, 2, B)         # cos k theta, sin k theta
        cis = Z[: L + 1, 0].view(float).reshape(L + 1, B, 2).transpose(0, 2, 1)
        z1, rho, u, upow = Z[1, 0].real, Z[1, 0].imag, Z[1, 1], Z[: L + 1, 1]
        V = buf[nz + nt:].reshape(B, -1)

        def kernel(block):
            x, y, z = block.T
            np.copyto(z1, z)
            _polar(x, y, rho, u)
            for k in range(2, L + 1):
                np.multiply(powers[k - 1], powers[1], out=powers[k])
            np.copyto(cs, cis)
            np.matmul(cs.reshape(2 * L + 2, B).T, table, out=V)
            return upow, V.view(complex).reshape(B, -1, self.ncomp)
        return kernel

    def __call__(self, dirs: np.ndarray) -> np.ndarray:
        """Evaluate at unit vectors (..., 3).

        Returns shape (...) for scalar data and (..., 3) for 3-component data.
        Each point's value is independent of the other points in the call.
        """
        dirs = np.asarray(dirs, dtype=float)
        L, nc, kernel = self.lmax, self.ncomp, self._order_kernel()
        out = np.empty((dirs.size // 3, nc), dtype=complex)
        for lo, n, block in padded_blocks(dirs.reshape(-1, 3), SYNTH_BLOCK):
            upow, V = kernel(block)
            acc = np.einsum("mn,nmc->nc", upow, V[:, L: 2 * L + 1])
            acc += np.einsum("mn,nmc->nc", np.conj(upow[:0:-1]), V[:, :L])
            out[lo: lo + n] = acc[:n]
        return out.reshape(dirs.shape[:-1] + (nc,) * (nc > 1))

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
        L, nc, kernel = self.lmax, self.ncomp, self._order_kernel()
        W = np.zeros((SYNTH_BLOCK, 4 * (L // 2 + 1), 1), dtype=complex)   # u^m in column L + m
        shape = (2 * L + 1,) if nc == 1 else (2 * L + 1, nc)

        def parts(dirs):
            dirs = np.asarray(dirs, dtype=float)
            N = dirs.size // 3
            # one block's parts stay in the kernel's buffer; several go to a new
            # array, padding orders included: one contiguous multiply a block
            out = None if 0 < N <= SYNTH_BLOCK else np.empty((N, W.shape[1], nc), dtype=complex)
            for lo, n, block in padded_blocks(dirs.reshape(-1, 3), SYNTH_BLOCK):
                upow, V = kernel(block)
                np.conjugate(upow[:0:-1, :n].T, out=W[:n, :L, 0])
                W[:n, L: 2 * L + 1, 0] = upow[:, :n].T
                dest = V[:n] if out is None else out[lo: lo + n]
                np.multiply(W[:n], V[:n], out=dest)
            return (dest if out is None else out)[:, : 2 * L + 1].reshape(dirs.shape[:-1] + shape)
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
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                if not (even_only and l % 2 == 1) and abs(m) >= min_abs_m:
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
