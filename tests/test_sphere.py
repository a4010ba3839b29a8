import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_legendre

from beltrami.geometry import Plane, make_sphere_quadrature
from beltrami.harmonics import (SphericalFunction, analyze, degree_of_index, legendre_p_zero,
                                ylm_matrix)
from beltrami.fields import radon_moses, radon_moses_many, radon_moses_pair
from beltrami.sphere import (OddInput, PVRule, funk_minkowski, funk_multipliers,
                             funk_transform, semyanistyi_inverse)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def v0_transform(f, theta, rule=PVRule()):
    """V0[f](theta) = (1/(2 pi^{3/2})) PV Int f(k)/(k.theta) dOmega."""
    return rule.pv_sphere(f, theta) / (2.0 * np.pi ** 1.5)


# --------------------------------------------------------------------------
# great-circle transform
# --------------------------------------------------------------------------

def test_funk_constant():
    one = SphericalFunction(0, [np.sqrt(4 * np.pi)])
    assert abs(funk_transform(one, [0, 0, 1]) - np.sqrt(np.pi)) <= 1e-13


def test_scalar_rules_are_exact_to_their_stated_degree():
    # make_sphere_quadrature(L) integrates every Y_lm of degree <= 2L - 1 and misses
    # at 2L (measured 4e-16 to 7e-15, then about 4); the circle trapezoid on N nodes
    # is exact on data of degree < N and misses at N = L (measured up to 5e-14, then
    # 1.7 to 4.2, against the 512-node value)
    for L in (2, 4, 8, 12):
        quad = make_sphere_quadrature(L)
        err = ylm_matrix(2 * L, quad.nodes) @ quad.weights
        err[0] -= np.sqrt(4 * np.pi)
        degree = degree_of_index(2 * L)
        assert np.max(np.abs(err[degree < 2 * L])) <= 1e-13
        assert np.max(np.abs(err[degree == 2 * L])) >= 1.0
    rng = np.random.default_rng(5)
    for L in (4, 8, 12):
        f = SphericalFunction.random(L, rng)
        thetas = rng.standard_normal((6, 3))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        want = funk_transform(f, thetas, 512)
        assert np.max(np.abs(funk_transform(f, thetas, L + 1) - want)) <= 1e-12
        assert np.max(np.abs(funk_transform(f, thetas, L) - want)) >= 0.1


def _funk_hecke(f, thetas, multiplier):
    """Sum over l of multiplier(l) times the degree-l part of f, at directions (N, 3)."""
    degs = degree_of_index(f.lmax)
    return SphericalFunction(f.lmax, f.coeffs * np.array([multiplier(l) for l in degs]))(thetas)


def _pv_multiplier(l):
    """PV Int Y_l(k)/(k.theta) dOmega / Y_l(theta) = 2 pi^{3/2} (-1)^n n!/Gamma(n + 3/2)
    at l = 2n + 1, zero at even l."""
    n = (l - 1) // 2
    return 0.0 if l % 2 == 0 else 2 * np.pi**1.5 * (-1)**n * math.factorial(n) / math.gamma(n + 1.5)


def _fp_multiplier(l):
    """FP Int Y_l(k)/(k.b)^2 dOmega / Y_l(b) = -4 pi^{3/2} (-1)^j j!/Gamma(j + 1/2) at
    l = 2j, zero at odd l."""
    j = l // 2
    return 0.0 if l % 2 else -4 * np.pi**1.5 * (-1)**j * math.factorial(j) / math.gamma(j + 0.5)


def test_pv_rule_is_exact_to_its_stated_degree():
    # PVRule(n_u, n_psi) with n_psi > L integrates degree-L data exactly in its PV sum
    # at n_u >= ceil(L/2) and in its finite part at n_u >= floor(L/2); one node fewer
    # misses (measured 2.5e-15 to 3.5e-12 on values up to 38 and 1.3e-14 to 6.2e-11 on
    # values up to 240, then 2e-2 to 8), as does the finite part at n_psi = L (33 to
    # 132), while PV stays exact there.  L = 16 is left out: synthesis loses digits there
    rng = np.random.default_rng(5)
    for L in (3, 4, 5, 8, 9, 12):
        f = SphericalFunction.random(L, rng)
        thetas = rng.standard_normal((6, 3))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        want_pv, want_fp = (_funk_hecke(f, thetas, m) for m in (_pv_multiplier, _fp_multiplier))
        pv_miss = lambda n_u, n_psi: np.max(np.abs(
            PVRule(n_u, n_psi).pv_sphere_batch(f, thetas) - want_pv))
        fp_miss = lambda n_u, n_psi: np.max(np.abs(
            [PVRule(n_u, n_psi).fp_sphere(f, b) for b in thetas] - want_fp))
        n_pv, n_fp = (L + 1) // 2, L // 2
        assert pv_miss(n_pv, L + 1) <= 1e-12 * np.max(np.abs(want_pv))
        assert pv_miss(n_pv, L) <= 1e-12 * np.max(np.abs(want_pv))
        assert pv_miss(n_pv - 1, L + 1) >= 1e-3
        assert fp_miss(n_fp, L + 1) <= 1e-11 * np.max(np.abs(want_fp))
        assert fp_miss(n_fp, L) >= 1.0
        if n_fp > 1:
            assert fp_miss(n_fp - 1, L + 1) >= 1e-3


def test_funk_annihilates_odd():
    y10 = SphericalFunction.single_mode(1, 1, 0)
    assert abs(funk_transform(y10, unit([0.3, 0.4, 0.87]))) <= 1e-12


def test_funk_y20_multiplier_oracle():
    # independent oracle: 1-D Gauss-Legendre quadrature of the circle integral
    # pulled back to the equator of a rotated frame
    y20 = SphericalFunction.single_mode(2, 2, 0)
    th = unit([0.1, -0.7, 0.7])
    got = funk_transform(y20, th, circle_n=128)
    u, w = leggauss(64)
    # Funk-Hecke: multiplier = 2 pi P_2(0) on the M normalization
    want = legendre_p_zero(2) * 2 * np.pi * complex(y20(th)) / (2 * np.sqrt(np.pi))
    assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("l", range(0, 13))
def test_funk_multiplier_table(l):
    th = unit([0.3, -0.2, 0.93])
    f = SphericalFunction.single_mode(l, l, 0)
    got = funk_minkowski(f, th, circle_n=256)
    want = 2 * np.pi * legendre_p_zero(l) * complex(f(th))
    assert abs(got - want) <= 1e-10


def test_funk_spectrum_validation():
    mu = funk_multipliers(12)
    assert mu.shape == (13,)
    assert np.all(mu[1::2] == 0.0)
    assert np.all(mu[::2] != 0.0)


def test_funk_spectral_matches_quadrature():
    rng = np.random.default_rng(0)
    f = SphericalFunction.random(5, rng)
    g = f.scale_degrees(funk_multipliers(f.lmax))
    th = unit([0.4, 0.1, 0.9])
    assert abs(complex(g(th)) - funk_minkowski(f, th, 256)) <= 1e-12


# --------------------------------------------------------------------------
# spectral inverse
# --------------------------------------------------------------------------

def test_semyanistyi_trivial():
    y00 = SphericalFunction(0, [np.sqrt(4 * np.pi)])
    g = y00.scale_degrees(funk_multipliers(y00.lmax))
    back = semyanistyi_inverse(g)
    assert np.max(np.abs(back.coeffs - y00.coeffs)) <= 1e-12


def test_semyanistyi_roundtrip_random_even():
    rng = np.random.default_rng(1)
    f = SphericalFunction.random(8, rng, even_only=True)
    back = semyanistyi_inverse(f.scale_degrees(funk_multipliers(f.lmax)))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-10


def test_semyanistyi_rejects_odd():
    g = SphericalFunction.single_mode(3, 3, 1)
    with pytest.raises(OddInput):
        semyanistyi_inverse(g)


def test_semyanistyi_on_line_transform_data():
    """Line-transform data over directions is the great-circle image of the
    plane-transform restriction; the spectral inverse recovers that
    restriction's even part, which is the whole function here."""
    from beltrami.rays import xray_via_funk_batch
    rng = np.random.default_rng(2)
    nu, lam = 1.0, 1
    s = SphericalFunction.random(6, rng, min_abs_m=4)
    x = np.array([0.25, -0.15, 0.3])

    W = lambda kaps: np.stack(
        [radon_moses(nu, lam, s, Plane(p=float(k @ x), kappa=k)) for k in np.atleast_2d(kaps)])
    L_a = 44
    xdata = analyze(lambda ths: xray_via_funk_batch(nu, lam, s, ths, x, 256), L_a)
    # scale to the M normalization: X = (nu/(4 pi)) M[W]  =>  M[W] = (4 pi/nu) X
    m_of_w = SphericalFunction(L_a, xdata.coeffs * (4 * np.pi / nu))
    w_rec = semyanistyi_inverse(m_of_w, odd_tol=1e-3)
    kaps = np.stack([unit(rng.standard_normal(3)) for _ in range(10)])
    want = W(kaps)
    got = w_rec(kaps)
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


# --------------------------------------------------------------------------
# principal value / finite part
# --------------------------------------------------------------------------

def test_v0_annihilates_even():
    y20 = SphericalFunction.single_mode(2, 2, 0)
    assert abs(v0_transform(y20, unit([0.3, 0.4, 0.86]))) <= 1e-10


def test_v0_zero():
    assert abs(v0_transform(SphericalFunction(2, np.zeros(9)), [0, 0, 1])) == 0.0


def test_v0_y10_oracle():
    # symbolic 1-D oracle: PV int P_1(u)/u du = 2 over [-1, 1]
    got = v0_transform(SphericalFunction.single_mode(1, 1, 0), [0, 0, 1], PVRule(48, 64))
    want = (1 / (2 * np.pi ** 1.5)) * (2 * np.pi * 2.0) * np.sqrt(3 / (4 * np.pi))
    assert abs(got - want) <= 1e-8


def test_v0_funk_hecke_multipliers():
    # spectral oracle: odd-degree multiplier 2 pi PV int P_l(u)/u du
    rng = np.random.default_rng(3)
    u, w = leggauss(200)
    for l in (1, 3, 5):
        f = SphericalFunction.single_mode(l, l, 0)
        th = unit([0.2, 0.5, 0.84])
        got = v0_transform(f, th, PVRule(64, 128))
        h_l = float(w @ (eval_legendre(l, u) / u))
        want = (1 / (2 * np.pi ** 1.5)) * 2 * np.pi * h_l * complex(f(th))
        assert abs(got - want) <= 1e-8


_B = unit([0.3, 0.7, 0.65])


def _power(j):
    """f(k) = (k.b)^j on unit vectors (N, 3)."""
    return lambda k: (k @ _B) ** j


def test_pv_moment_values():
    # PV Int (k.b)^j/(k.b) dOmega = 2 pi PV Int_{-1}^{1} u^{j-1} du: 2 pi 2 for j = 1, else 0
    rule = PVRule()
    assert abs(rule.pv_sphere(_power(1), _B) - 2.0 * np.pi * 2.0) <= 1e-13
    assert abs(rule.pv_sphere(_power(0), _B)) <= 1e-13
    assert abs(rule.pv_sphere(_power(2), _B)) <= 1e-13


def test_finite_part_values():
    # FP Int (k.b)^j/(k.b)^2 dOmega = 2 pi FP Int_{-1}^{1} u^{j-2} du: 2 pi times -2, 0, 2
    rule = PVRule()
    for j, want in ((0, -2.0), (1, 0.0), (2, 2.0)):
        assert abs(rule.fp_sphere(_power(j), _B) - 2.0 * np.pi * want) <= 1e-13
    # smooth non-polynomial case against the subtraction decomposition
    got = rule.fp_sphere(lambda k: np.cos(k @ _B), _B)
    u, w = leggauss(400)
    smooth = float(w @ ((np.cos(u) - 1.0) / u**2))
    assert abs(got - 2.0 * np.pi * (smooth - 2.0)) <= 1e-10


def test_sphere_rules_take_b_as_a_direction():
    # the nodes' heights +-u b are taken on the unit axis, as their frames are: 2b is b
    f = lambda k: np.exp(0.5j * (k @ _B))
    for rule in (PVRule(8, 16), PVRule()):
        for integral in (rule.pv_sphere, rule.fp_sphere):
            want = integral(f, _B)
            assert abs(integral(f, 2.0 * _B) - want) <= 1e-13 * abs(want)


# --------------------------------------------------------------------------
# two-frequency plane transform: operators in p against an FFT oracle
# --------------------------------------------------------------------------

def _fft_in_p(nu, lam, s, kap, n=8):
    """F_R on one period of p, its spectrum, and the angular frequency of each bin."""
    ps = 2 * np.pi / nu * np.arange(n) / n
    kaps = np.broadcast_to(kap, (n, 3))
    fr = radon_moses_many(nu, lam, s, ps, kaps)
    omega = nu * np.fft.fftfreq(n, 1.0 / n)
    return ps, kaps, fr, np.fft.fft(fr, axis=0), omega


def _apply(mult, spec):
    return np.fft.ifft(mult[:, None] * spec, axis=0)


def test_hilbert_squares_to_minus_one():
    rng = np.random.default_rng(4)
    for lam, nu in ((1, 1.3), (-1, 0.9)):
        s = SphericalFunction.random(4, rng)
        _, _, fr, spec, omega = _fft_in_p(nu, lam, s, unit(rng.standard_normal(3)))
        scale = np.max(np.abs(fr))
        # only the bins omega = +-nu carry energy
        assert np.max(np.abs(spec[np.abs(np.abs(omega) - nu) > 1e-9])) <= 1e-13 * scale
        hil = -1j * np.sign(omega)
        assert np.max(np.abs(_apply(hil * hil, spec) + fr)) <= 1e-13 * scale


def test_radon_pair_operator_table():
    """Each operator in p is its multiplier pair at omega = +-nu in radon_moses_many."""
    rng = np.random.default_rng(8)
    for lam, nu in ((1, 1.3), (-1, 0.9)):
        s = SphericalFunction.random(4, rng)
        ps, kaps, fr, spec, omega = _fft_in_p(nu, lam, s, unit(rng.standard_normal(3)))
        hil, dp = -1j * np.sign(omega), 1j * omega
        scale = np.max(np.abs(fr))
        for got, pair in ((fr, (1, 1)),
                          (_apply(dp, spec), (1j * nu, -1j * nu)),
                          (_apply(hil, spec), (-1j, 1j)),
                          (_apply(hil * dp, spec), (nu, nu)),
                          (_apply((hil - 1j) * dp, spec), (2 * nu, 0))):
            want = radon_moses_many(nu, lam, s, ps, kaps, *pair)
            assert np.max(np.abs(got - want)) <= 1e-13 * nu * scale


def test_hilbert_radon_identity_chain():
    rng = np.random.default_rng(4)
    for lam, nu in ((1, 1.3), (-1, 0.9)):
        s = SphericalFunction.random(4, rng)
        kap = unit(rng.standard_normal(3))
        p0 = float(rng.uniform(-1, 1))
        a, b = radon_moses_pair(nu, lam, s, np.array([p0]), kap[None])
        pref = np.sqrt(2 * np.pi) / nu**2
        lhs = pref * nu * (a[0] + b[0])  # H d/dp F_R
        rhs = nu * radon_moses(nu, lam, s, Plane(p=p0, kappa=kap))
        # -lam nu kappa x H F_R, by the helical property kappa x Q = -i lam Q
        mid = -lam * nu * np.cross(kap, pref * -1j * (a[0] - b[0]))
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(mid - rhs) <= 1e-13 * max(1.0, np.linalg.norm(rhs))
    z = SphericalFunction(2, np.zeros(9))
    a, b = radon_moses_pair(1.0, 1, z, np.array([0.2]), np.array([[0.0, 0.0, 1.0]]))
    assert np.linalg.norm(a) == 0.0 and np.linalg.norm(b) == 0.0


def test_a0_combination_matches_parts():
    """U0 annihilates odd data and V0 even data, so U0 + i V0 of f is U0 of
    its even part plus i V0 of its odd part."""
    rng = np.random.default_rng(5)
    f = SphericalFunction.random(4, rng)
    odd = degree_of_index(4) % 2 == 1
    f_even = SphericalFunction(4, np.where(odd, 0.0, f.coeffs))
    f_odd = SphericalFunction(4, np.where(odd, f.coeffs, 0.0))
    th = unit([0.3, 0.5, 0.81])
    rule = PVRule(32, 64)
    combo = funk_transform(f, th, 128) + 1j * v0_transform(f, th, rule)
    parts = funk_transform(f_even, th, 128) + 1j * v0_transform(f_odd, th, rule)
    assert abs(combo - parts) <= 1e-10


def test_a0_reproduces_half_line_transform():
    """A0 = U0 + i V0 on the helical great-circle data reproduces the
    half-line transform: (1/sqrt 2)(1/nu) A0[G] = D F."""
    from beltrami.rays import dbeam_via_extfunk, moses_sphere_data
    rng = np.random.default_rng(6)
    nu, lam = 1.3, 1
    s = SphericalFunction.random(4, rng)
    x = np.array([0.3, -0.4, 0.5])
    th = unit([0.5, 0.6, 0.63])
    rule = PVRule(48, 96)
    G = moses_sphere_data(nu, lam, s, x)
    combo = funk_transform(G, th, 128) + 1j * v0_transform(G, th, rule)
    D = dbeam_via_extfunk(nu, lam, s, th, x, 128, rule)
    assert np.linalg.norm(combo / (np.sqrt(2.0) * nu) - D) <= 1e-8 * np.linalg.norm(D)
