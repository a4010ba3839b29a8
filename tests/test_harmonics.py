import numpy as np
import pytest
from scipy.special import sph_harm_y

from beltrami.geometry import make_sphere_quadrature
from beltrami.harmonics import (SYNTH_BLOCK, SphericalFunction, analyze, legendre_p_zero,
                                lm_index, ylm_matrix)


def random_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_ylm_matrix_against_scipy():
    dirs = random_dirs(500)
    polar = np.arccos(dirs[:, 2])
    azim = np.arctan2(dirs[:, 1], dirs[:, 0])
    Y = ylm_matrix(5, dirs)
    worst = 0.0
    for l in range(6):
        for m in range(-l, l + 1):
            ref = sph_harm_y(l, m, polar, azim)
            worst = max(worst, np.max(np.abs(Y[lm_index(l, m)] - ref)))
    assert worst <= 1e-13


def test_synthesis_matches_matrix():
    rng = np.random.default_rng(1)
    counts = (300, 1, SYNTH_BLOCK - 1, SYNTH_BLOCK, SYNTH_BLOCK + 1, 3 * SYNTH_BLOCK + 7)
    for npts in counts:
        dirs = random_dirs(npts, seed=2)
        for lmax in (0, 1, 6, 12):
            for ncomp in (1, 3):
                f = SphericalFunction.random(lmax, rng, ncomp=ncomp)
                vals = f(dirs)
                ref = f.coeffs @ ylm_matrix(lmax, dirs)
                ref = ref[0] if ncomp == 1 else np.moveaxis(ref, 0, -1)
                # The power-series tables lose about a digit to cancellation
                # at lmax 12 (about 1.2e-12 on values of size 15, with the unblocked
                # Horner kernel too); there the bound is relative.
                tol = 1e-12 * (np.max(np.abs(ref)) if lmax > 6 else 1.0)
                assert np.max(np.abs(vals - ref)) <= tol
                lead = dirs.reshape(2 if npts % 2 == 0 else 1, -1, 3)
                assert np.array_equal(f(lead), vals.reshape(lead.shape[:-1] + vals.shape[1:]))


def test_synthesis_tables_match_an_uncached_build():
    # the per-(l, m) power-basis blocks are built once per process and shared;
    # the tables add them up in the same order, so they keep every bit
    from numpy.polynomial import legendre as npleg
    from beltrami import harmonics
    rng = np.random.default_rng(16)
    harmonics._power_block.cache_clear()
    for L in range(17):
        f = SphericalFunction.random(L, rng, ncomp=1 + 2 * (L % 2))
        want = np.zeros((L + 1, 2 * L + 2, f.ncomp), dtype=complex)
        for l in range(L + 1):
            for m in range(l + 1):
                base = npleg.leg2poly(harmonics._legendre_derivative_coeffs(l, m))
                n = harmonics._norm_lm(l, m)
                want[: base.size, m] += np.multiply.outer(
                    base, f.coeffs[:, lm_index(l, m)] * ((-1.0) ** m * n))
                if m > 0:
                    want[: base.size, L + m] += np.multiply.outer(
                        base, f.coeffs[:, lm_index(l, -m)] * n)
        for g in (f, SphericalFunction(L, f.coeffs)):   # blocks built, then cached
            assert g._synthesis_tables().tobytes() == want.tobytes(), L


def test_synthesis_is_position_independent():
    # a point's bits must not depend on the call's size or its place in it:
    # single-point callers (radon, per-chunk CLI work) rely on it, and so does
    # the transform-space engine, which takes the per-order parts of a ring block's
    # samples in one call
    rng = np.random.default_rng(7)
    dirs = random_dirs(2 * SYNTH_BLOCK + 5, seed=8)
    dirs[::3, 2] = 0.0                      # equator points: z = 0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for lmax, ncomp in ((8, 1), (8, 3), (1, 1)):
        f = SphericalFunction.random(lmax, rng, ncomp=ncomp)
        parts = f.orders()
        for fn in (f, lambda d: parts(d).copy()):
            full = fn(dirs)
            for i in (0, 1, 6, 7, SYNTH_BLOCK - 1, SYNTH_BLOCK, SYNTH_BLOCK + 3,
                      2 * SYNTH_BLOCK + 4):
                assert np.array_equal(fn(dirs[i: i + 1])[0], full[i])
                assert np.array_equal(fn(dirs[i]), full[i])
                lo = max(0, i - 5)
                assert np.array_equal(fn(dirs[lo: i + 9])[i - lo], full[i])
        # the parts sum to the value, and rotate with e^{i m psi}
        L = f.lmax
        m = np.arange(-L, L + 1)
        total = full.sum(axis=1)
        assert np.max(np.abs(total - f(dirs))) <= 1e-12 * np.max(np.abs(total))
        psi = 0.7
        rot = np.array([[np.cos(psi), -np.sin(psi), 0.0], [np.sin(psi), np.cos(psi), 0.0],
                        [0.0, 0.0, 1.0]])
        spin = np.exp(1j * m * psi)
        turned = np.einsum("nm...,m->n...", full, spin)
        assert np.max(np.abs(turned - f(dirs @ rot.T))) <= 1e-12 * np.max(np.abs(turned))


def test_orthonormality():
    quad = make_sphere_quadrature(16)
    Y = ylm_matrix(4, quad.nodes)
    G = (Y.conj() * quad.weights) @ Y.T
    assert np.max(np.abs(G - np.eye(Y.shape[0]))) <= 1e-12


def test_analyze_roundtrip():
    rng = np.random.default_rng(3)
    f = SphericalFunction.random(5, rng, ncomp=3)
    g = analyze(f, 5)
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-12


def test_antipodal_parity():
    rng = np.random.default_rng(4)
    f = SphericalFunction.random(4, rng)
    dirs = random_dirs(50, seed=5)
    antipodal = f.scale_degrees((-1.0) ** np.arange(f.lmax + 1))   # Y_lm(-k) = (-1)^l Y_lm(k)
    assert np.max(np.abs(antipodal(dirs) - f(-dirs))) <= 1e-12


def test_constant_and_single_mode():
    one = SphericalFunction(0, [2.5 * np.sqrt(4 * np.pi)])
    dirs = random_dirs(10, seed=6)
    assert np.max(np.abs(one(dirs) - 2.5)) <= 1e-14
    y = SphericalFunction.single_mode(3, 3, 1)
    assert y.coeffs[0, lm_index(3, 1)] == 1.0


def test_legendre_p_zero():
    # (-1)^(l/2) (l-1)!!/l!! on even degrees, zero on odd
    assert legendre_p_zero(0) == 1.0
    assert legendre_p_zero(1) == 0.0
    assert abs(legendre_p_zero(2) + 0.5) <= 1e-15
    assert abs(legendre_p_zero(4) - 0.375) <= 1e-15
    assert abs(legendre_p_zero(6) + 0.3125) <= 1e-15


def test_rejects_nonfinite_and_mismatch():
    with pytest.raises(ValueError):
        SphericalFunction(2, np.array([np.nan] * 9, dtype=complex))
    with pytest.raises(ValueError):
        SphericalFunction(2, np.zeros(8, dtype=complex))


def test_min_abs_m_vanishes_at_poles():
    rng = np.random.default_rng(7)
    f = SphericalFunction.random(5, rng, min_abs_m=2)
    poles = np.array([[0, 0, 1.0], [0, 0, -1.0]])
    assert np.max(np.abs(f(poles))) <= 1e-13
