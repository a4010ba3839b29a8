import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from beltrami.geometry import Plane, make_polar_sphere_quadrature, polar_cap
from beltrami.harmonics import SphericalFunction
from beltrami.fields import (CKCylindrical, GeneralizedLundquist, Lundquist,
                             MosesBandLimited, PlaneWave, Spheromak, curl_fd,
                             div_fd, eigenvalue, eval_field, field_rule, moses_q,
                             moses_q_many, radon_moses, radon_moses_pair,
                             spec_from_json, synthesize_moses)

RNG = np.random.default_rng(42)


def random_unit(rng=RNG):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# helical basis
# --------------------------------------------------------------------------

def test_moses_q_pole_values():
    assert np.allclose(moses_q([0, 0, 1], 1), np.array([1, 1j, 0]) / np.sqrt(2))
    assert np.allclose(moses_q([0, 0, 1], -1), np.array([1, -1j, 0]) / np.sqrt(2))


@pytest.mark.parametrize("lam", [1, -1])
def test_moses_q_eigen_property(lam):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = random_unit(rng)
        Q = moses_q(k, lam)
        worst = max(worst, np.linalg.norm(np.cross(k, Q) + 1j * lam * Q))
        assert abs(k @ Q) <= 1e-13
        assert abs(np.linalg.norm(Q) - 1) <= 1e-13
    assert worst <= 1e-12


def test_moses_q_antipodal():
    """Q_lam(-k) = sigma conj Q_lam(k), value for value: sigma = -1 outside the polar
    cap (e1 flips, e2 stays) and +1 inside it (the Gram-Schmidt e1 stays, e2 flips).
    The ring engine takes Q at one node of each antipodal pair on this identity."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = random_unit(rng)
        Q = moses_q_many(np.array([-k]), 1)[0]
        assert abs(k @ Q) <= 1e-13
        assert abs(np.linalg.norm(Q) - 1) <= 1e-13
    generic = rng.standard_normal((2000, 3))
    phi = rng.uniform(0.0, 2.0 * np.pi, 500)
    equator = np.c_[np.cos(phi), np.sin(phi), np.zeros_like(phi)]
    equator[:4] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    off = rng.uniform(-1e-8, 1e-8, (200, 2)) * rng.choice([1.0, 1e-3, 0.0], (200, 1))
    cap = np.c_[off, rng.choice([-1.0, 1.0], 200)]
    rim = rng.standard_normal((100, 2))
    rim = np.c_[rim / np.linalg.norm(rim, axis=1, keepdims=True) * np.repeat(
        [0.999999e-8, 1.000001e-8], 50)[:, None], np.ones(100)]
    ks = np.vstack([generic, equator, cap, rim])
    ks /= np.linalg.norm(ks, axis=1, keepdims=True)
    sigma = np.where(polar_cap(ks), 1.0, -1.0)[:, None]
    assert 200 <= np.count_nonzero(sigma > 0) < 300      # cap nodes on both sides of the rim
    for lam in (1, -1):
        Q, Q_minus = moses_q_many(ks, lam), moses_q_many(-ks, lam)
        assert np.array_equal(Q_minus, sigma * np.conj(Q))


def test_moses_q_rejects_bad_helicity():
    with pytest.raises(ValueError):
        moses_q([0, 0, 1], 2)


# --------------------------------------------------------------------------
# catalog values
# --------------------------------------------------------------------------

def test_lundquist_on_axis():
    spec = Lundquist(F0=2.0 + 1.0j, nu=1.3, lam=1)
    assert np.allclose(eval_field(spec, [0, 0, 0.7]), spec.F0 * np.array([0, 0, 1]))


def test_plane_wave_origin():
    kap = random_unit()
    spec = PlaneWave(k0=1.2, kappa0=kap, lam=1)
    assert np.allclose(eval_field(spec, [0, 0, 0]), moses_q(kap, 1))


def test_spheromak_axis():
    from scipy.special import spherical_jn
    spec = Spheromak(F0=1.7, k=1.1)
    R = 0.9
    got = eval_field(spec, [0, 0, R])
    want = spec.F0 * 2 * spherical_jn(1, spec.k * R) / (spec.k * R) * np.array([0, 0, 1.0])
    assert np.linalg.norm(got - want) <= 1e-13
    # smooth limit at the origin
    assert np.linalg.norm(eval_field(spec, [0, 0, 0]) -
                          spec.F0 * (2.0 / 3.0) * np.array([0, 0, 1.0])) <= 1e-10



def test_spheromak_values_pinned_to_the_bit():
    # R = hypot(hypot(x, y), z), the unit vector (c, s) = (x, y)/rho ((1, 0) on the
    # axis) in place of an angle, and j1(kR) taken once; the evaluation written out
    # component by component, e_R = (sin_t c, sin_t s, cos_t), e_t = (cos_t c,
    # cos_t s, -sin_t), e_phi = (-s, c, 0), against which not a bit may move, at
    # the origin, below kR = 1e-3 and on the z axis too
    from scipy.special import spherical_jn

    def values_ref(spec, pts):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        rho = np.hypot(x, y)
        R = np.hypot(rho, z)
        c = np.where(rho > 0, x / np.where(rho > 0, rho, 1.0), 1.0)
        s = y / np.where(rho > 0, rho, 1.0)
        cos_t = np.where(R > 0, z / np.where(R > 0, R, 1.0), 1.0)
        sin_t = rho / np.where(R > 0, R, 1.0)
        kR = spec.k * R
        small = kR < 1e-3
        safe = np.where(small, 1.0, kR)
        ratio = np.where(small, 1.0 / 3.0 - kR**2 / 30.0 + kR**4 / 840.0,
                         spherical_jn(1, kR) / safe)
        minus = np.where(small, -2.0 / 3.0 + 2.0 * kR**2 / 15.0 - kR**4 / 140.0,
                         (spherical_jn(1, kR) - np.sin(safe)) / safe)
        f_R, f_t, f_p = 2.0 * ratio * cos_t, minus * sin_t, spherical_jn(1, kR) * sin_t
        in_plane = f_R * sin_t + f_t * cos_t          # along (c, s, 0)
        out = np.empty(pts.shape)
        out[:, 0] = in_plane * c - f_p * s
        out[:, 1] = in_plane * s + f_p * c
        out[:, 2] = f_R * cos_t - f_t * sin_t
        return spec.F0 * out

    rng = np.random.default_rng(23)
    pts = np.vstack([rng.standard_normal((2000, 3)) * 4.0,
                     rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-9, -3, (200, 1)),
                     [[0, 0, 0], [0, 0, 0.3], [0, 0, -2.0], [0, 0, 1e-5], [0, 0, -1e-9]]])
    for spec in (Spheromak(F0=1.7, k=1.1), Spheromak(F0=0.8 - 0.3j, k=0.6)):
        got, want = spec.values(pts), values_ref(spec, pts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_ck_small_radius_smooth():
    spec = CKCylindrical(m=1, nu=1.0)
    near = eval_field(spec, [1e-9, 0, 0.3])
    limit = 4j * np.pi * np.array([0.5j, 0.5, 0])
    assert np.linalg.norm(near - limit) <= 1e-7


def test_ck_values_pinned_to_the_bit():
    # J_m and J_{m-1} from j0/j1 and the forward recurrence where a >= max(|m|, |m-1|)
    # (jv below), J_m' = J_{m-1} - m J_m/x from the radial term, and e^{-im phi} as
    # the |m|-th power of c -+ i s, (c, s) = (x, y)/r; the evaluation written out
    # with every order of the recurrence kept, against which not a bit may move,
    # the axis branch too
    import math
    from scipy.special import j0, j1, jv

    def bessel(k, n, a):
        # J_k(a) for 0 <= k <= n: the recurrence from J_0, J_1 up to order n
        # where a >= n, the top order of the pair; jv where a < n
        orders = [j0(a), j1(a)]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(1, n):
                orders.append((2.0 * i / a) * orders[i] - orders[i - 1])
        return np.where(a >= n, orders[k], jv(k, a)) if n > 1 else orders[k]

    def values_ref(m, nu, pts):
        x, y = pts[:, 0], pts[:, 1]
        r = np.hypot(x, y)
        c = np.where(r > 0, x / np.where(r > 0, r, 1.0), 1.0)
        s = y / np.where(r > 0, r, 1.0)
        a = nu * r
        n = max(m, 1 - m)           # the top order of the pair J_m, J_{m-1}
        if m >= 1:
            jm, jm1 = bessel(n, n, a), bessel(n - 1, n, a)
        else:
            jm, jm1 = (-1.0) ** (n - 1) * bessel(n - 1, n, a), (-1.0) ** n * bessel(n, n, a)
        small, k = a < 1e-6, abs(m)
        if m == 0:
            radial = np.zeros_like(a)
        else:
            lim = 0.5 - a**2 / 16.0 if k == 1 else a ** (k - 1) / (2.0**k * math.factorial(k))
            radial = m * np.where(small, lim if m > 0 else (-1.0) ** k * lim,
                                  jm / np.where(small, 1.0, a))
        jm_prime = jm1 - radial
        u = c - 1j * s if m >= 0 else c + 1j * s      # e^{-i phi sign(m)}
        out = np.empty(pts.shape, dtype=complex)
        out[:, 0] = 1j * radial * c - jm_prime * s
        out[:, 1] = 1j * radial * s + jm_prime * c
        out[:, 2] = -jm
        return (4.0 * np.pi * 1j * u**k)[:, None] * out

    rng = np.random.default_rng(21)
    pts = np.vstack([rng.standard_normal((2000, 3)) * 4.0,
                     [[0, 0, 0.3], [1e-9, 0, 0.3], [-3e-7, 2e-7, 1.0], [5e-7, 0, 0]]])
    for m in range(-3, 4):
        for nu in (0.9, 1.7):
            got = CKCylindrical(m=m, nu=nu).values(pts)
            assert np.array_equal(got, values_ref(m, nu, pts)), (m, nu)
            assert np.array_equal(np.signbit(got.view(float)),
                                  np.signbit(values_ref(m, nu, pts).view(float))), (m, nu)


def test_ck_derivative_against_mpmath():
    # J_m' = J_{m-1} - m J_m/x, taken from the radial term with its axis limit, is
    # within 5e-16 of mpmath's J_m' on [0, 60] and toward the axis; on the x axis
    # the e_phi component of the field is 4 pi i J_m'(nu r)
    import mpmath
    r = np.concatenate([np.linspace(0.0, 60.0, 121), np.geomspace(1e-8, 1.0, 41)])
    pts = np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=-1)
    with mpmath.workdps(30):
        for m in (-2, 0, 1, 2, 3, 5):
            want = np.array([float(mpmath.besselj(m, mpmath.mpf(v), derivative=1)) for v in r])
            got = CKCylindrical(m=m, nu=1.0).values(pts)[:, 1] / (4.0 * np.pi * 1j)
            assert np.max(np.abs(got - want)) <= 1e-15, m
            assert np.max(np.abs(got.imag)) == 0.0, m

def test_ck_bessel_pair_against_mpmath():
    # J_m and J_{m-1} from j0/j1 and the forward recurrence (a >= n = max(|m|, |m-1|))
    # or jv (a < n) are within 2e-14 of mpmath relative to the Bessel envelope
    # max(|J|, sqrt(2/(pi a))), on both sides of n and at n exactly; J_k(0) is exact
    import mpmath
    from beltrami.fields import _jn_pair
    with mpmath.workdps(30):
        for m in (*range(-7, 8), 20, -20, 50):
            n = max(abs(m), abs(m - 1))
            a = np.concatenate([np.geomspace(1e-6, 200.0, 40), [n - 0.5, n + 0.5],
                                n * (1.0 + np.array([-1e-3, -1e-12, 0.0, 1e-12, 1e-3]))])
            for k, got in zip((m, m - 1), _jn_pair(m, a)):
                want = np.array([float(mpmath.besselj(k, mpmath.mpf(v))) for v in a])
                env = np.maximum(np.abs(want), np.sqrt(2.0 / (np.pi * a)))
                assert np.max(np.abs(got - want) / env) <= 2e-14, (m, k)
            assert np.array_equal(np.concatenate(_jn_pair(m, np.zeros(1))), [m == 0, m == 1])


CATALOG = [
    Lundquist(F0=1.2 - 0.4j, nu=1.1, lam=1),
    Lundquist(F0=0.9, nu=0.8, lam=-1),
    PlaneWave(k0=1.3, kappa0=np.array([0.3, -0.5, 0.8]), lam=1),
    PlaneWave(k0=0.7, kappa0=np.array([0.1, 0.9, 0.4]), lam=-1),
    CKCylindrical(m=0, nu=1.0),
    CKCylindrical(m=2, nu=1.2),
    GeneralizedLundquist(sigma=1.15),
    Spheromak(F0=0.8 - 0.1j, k=1.0),
]


SCALED = [lambda nu: Lundquist(F0=1.2 - 0.4j, nu=nu, lam=-1),
          lambda nu: CKCylindrical(m=-3, nu=nu), lambda nu: CKCylindrical(m=2, nu=nu),
          lambda nu: GeneralizedLundquist(sigma=nu), lambda nu: Spheromak(F0=0.8 - 0.1j, k=nu)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(SCALED))), st.floats(-300.0, 300.0),
       st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=12))
def test_closed_forms_are_profiles_of_the_scaled_point(kind, log_nu, coords):
    # each closed form is nu^p Phi(nu x) with Phi the field at nu = 1 (p = 1 for the
    # generalized Lundquist field, 0 otherwise), so at points y/nu its values are
    # nu^p times the nu = 1 values at y, for any eigenvalue in [1e-300, 1e300];
    # coordinates below 1e-3 are taken as 0, so that y/nu is a normal number
    y = np.array(coords[: len(coords) // 3 * 3]).reshape(-1, 3)
    y[np.abs(y) < 1e-3] = 0.0
    nu = 10.0 ** log_nu
    spec, unit = SCALED[kind](nu), SCALED[kind](1.0)
    p = 1 if isinstance(spec, GeneralizedLundquist) else 0
    got, want = spec.values(y / nu) / nu**p, unit.values(y)
    assert np.all(np.isfinite(got))
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: type(s).__name__ + str(getattr(s, "m", "")))
def test_catalog_curl_and_divergence(spec):
    rng = np.random.default_rng(13)
    nu_s = eigenvalue(spec)
    fld = lambda p: eval_field(spec, p)
    for _ in range(25):
        x = random_unit(rng) * rng.uniform(0.05, 5.0 / abs(nu_s))
        F = fld(x)
        scale = np.linalg.norm(nu_s * F)
        assert np.linalg.norm(curl_fd(fld, x) - nu_s * F) <= 1e-5 * scale
        assert abs(div_fd(fld, x)) <= 1e-6 * scale


def test_curl_fd_reference_cases():
    const = lambda p: np.broadcast_to(np.array([1.0, 2.0, 3.0]), np.atleast_2d(p).shape)
    assert np.linalg.norm(curl_fd(const, [0.3, 0.1, -0.2])) <= 1e-10

    def rot(p):
        p = np.atleast_2d(p)
        return np.stack([-p[:, 1], p[:, 0], np.zeros(len(p))], axis=-1)

    assert np.linalg.norm(curl_fd(rot, [0.5, -0.3, 0.9]) - [0, 0, 2]) <= 1e-10


def test_fd_batches_match_single_points():
    # N points in one call give the bits of N one-point calls, for any leading shape
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((6, 3)) * 2.0
    s = SphericalFunction.random(3, rng)
    for spec in (Lundquist(F0=1.2 - 0.4j, nu=1.1, lam=-1), CKCylindrical(m=2, nu=0.9),
                 Spheromak(F0=0.8 - 0.1j, k=1.0), MosesBandLimited(nu=1.05, lam=1, s=s)):
        quad = spec.rule(5.0)
        fld = lambda p, sp=spec, q=quad: eval_field(sp, p, q)
        for fd in (curl_fd, div_fd):
            batch = fd(fld, pts)
            assert np.array_equal(batch, np.stack([fd(fld, x) for x in pts]))
            assert np.array_equal(fd(fld, pts.reshape(2, 3, 3)),
                                  batch.reshape((2, 3) + batch.shape[1:]))


def test_curl_fd_lundquist_value():
    spec = Lundquist(F0=1.0, nu=1.0, lam=1)
    fld = lambda p: eval_field(spec, p)
    x = np.array([0.7, 0.3, 0.0])
    F = eval_field(spec, x)
    assert np.linalg.norm(curl_fd(fld, x) - F) <= 1e-7 * np.linalg.norm(F)


# --------------------------------------------------------------------------
# synthesis and plane transform
# --------------------------------------------------------------------------

def test_synthesize_zero():
    quad = make_polar_sphere_quadrature(16)
    z = SphericalFunction(3, np.zeros(16))
    assert np.linalg.norm(synthesize_moses(1.0, 1, z, [0.3, 0.1, 0.2], quad)) == 0.0


def test_synthesize_constant_against_dense_oracle():
    # s = 1 at the origin: independent 1-D oracle for the only surviving
    # component, Int Q_z dOmega = i lam Int sin(alpha) dOmega / sqrt(2)
    quad = make_polar_sphere_quadrature(48)
    one = SphericalFunction(0, [np.sqrt(4 * np.pi)])
    got = synthesize_moses(1.0, 1, one, [0, 0, 0], quad)
    oracle_z = scipy_quad(lambda a: np.sin(a) ** 2, 0, np.pi)[0] * 2 * np.pi
    want = np.array([0, 0, 1j * oracle_z / np.sqrt(2)]) * (2 * np.pi) ** (-1.5)
    assert np.linalg.norm(got - want) <= 1e-10


@pytest.mark.parametrize("lam", [1, -1])
def test_synthesized_field_is_eigenfield(lam):
    rng = np.random.default_rng(14)
    s = SphericalFunction.random(4, rng)
    nu = 1.2
    quad = make_polar_sphere_quadrature(24)
    fld = lambda pts: np.stack([synthesize_moses(nu, lam, s, p, quad)
                                for p in np.atleast_2d(pts)])
    x = np.array([0.4, -0.2, 0.7])
    F = synthesize_moses(nu, lam, s, x, quad)
    assert np.linalg.norm(curl_fd(fld, x) - lam * nu * F) <= 1e-6 * np.linalg.norm(nu * F)


def test_radon_moses_properties():
    rng = np.random.default_rng(15)
    s = SphericalFunction.random(4, rng)
    nu, lam = 1.3, 1
    kap = random_unit(np.random.default_rng(16))
    pl = Plane(p=0.37, kappa=kap)
    FR = radon_moses(nu, lam, s, pl)
    # tangent to the transform sphere
    assert abs(kap @ FR) <= 1e-12
    # periodic in the offset
    pl2 = Plane(p=0.37 + 2 * np.pi / nu, kappa=kap)
    assert np.linalg.norm(radon_moses(nu, lam, s, pl2) - FR) <= 1e-12
    # transport equation d_p F_R + nu_s kappa x F_R = 0 with the signed eigenvalue
    a, b = radon_moses_pair(nu, lam, s, np.array([pl.p]), kap[None])
    dFR = np.sqrt(2 * np.pi) / nu**2 * (1j * nu * (a[0] - b[0]))
    assert np.linalg.norm(dFR + lam * nu * np.cross(kap, FR)) <= 1e-10
    # zero data
    assert np.linalg.norm(radon_moses(nu, lam, SphericalFunction(2, np.zeros(9)), pl)) == 0.0


def test_moses_band_limited_eval_field():
    rng = np.random.default_rng(17)
    s = SphericalFunction.random(3, rng)
    spec = MosesBandLimited(nu=1.0, lam=1, s=s)
    pts = np.array([[0.2, 0.1, -0.3], [0.0, 0.5, 0.4]])
    quad = make_polar_sphere_quadrature(24)
    want = np.stack([synthesize_moses(1.0, 1, s, p, quad) for p in pts])
    got = eval_field(spec, pts, quad)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_default_field_rule_converged():
    # generic data (no min_abs_m): Q_lam s has a phase singularity at the poles,
    # which the default rule must resolve, as the polar-angle rule does
    rng = np.random.default_rng(23)
    s = SphericalFunction.random(8, rng)
    pts = rng.standard_normal((12, 3))
    pts *= 1.5 * rng.uniform(0.1, 1.0, (12, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] *= 1.5 / np.linalg.norm(pts[0])
    ref_quad = make_polar_sphere_quadrature(96)
    for lam in (1, -1):
        spec = MosesBandLimited(nu=1.0, lam=lam, s=s)
        quad = field_rule(spec, pts)
        assert quad.nodes.shape == (22 * 44, 3)
        got = eval_field(spec, pts)
        want = synthesize_moses(1.0, lam, s, pts, ref_quad)
        assert np.max(np.linalg.norm(got - want, axis=1) /
                      np.linalg.norm(want, axis=1)) <= 1e-10


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def to_json(spec) -> dict:
    """The JSON object of a catalog spec, written key by key from its fields."""
    obj = {"type": spec.kind}
    for f in dataclasses.fields(spec):
        v = getattr(spec, f.name)
        if f.name == "F0":
            v = [complex(v).real, complex(v).imag]
        elif f.name == "s":
            obj["lmax"] = v.lmax
            v = [[c.real, c.imag] for c in v.coeffs[0]]
        obj[{"lam": "lambda", "s": "coeffs"}.get(f.name, f.name)] = (
            v.tolist() if isinstance(v, np.ndarray) else v)
    return obj


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: type(s).__name__ + str(getattr(s, "m", "")))
def test_spec_json_roundtrip(spec):
    back = spec_from_json(to_json(spec))
    assert type(back) is type(spec)
    x = np.array([0.3, -0.1, 0.6])
    assert np.linalg.norm(eval_field(back, x) - eval_field(spec, x)) <= 1e-14


def test_moses_spec_json_roundtrip():
    rng = np.random.default_rng(18)
    s = SphericalFunction.random(3, rng)
    spec = MosesBandLimited(nu=1.1, lam=-1, s=s)
    back = spec_from_json(to_json(spec))
    assert back.nu == spec.nu and back.lam == spec.lam
    assert np.max(np.abs(back.s.coeffs - spec.s.coeffs)) <= 1e-15


def test_spec_validation():
    with pytest.raises(ValueError):
        Lundquist(F0=1.0, nu=-1.0, lam=1)
    with pytest.raises(ValueError):
        PlaneWave(k0=0.0, kappa0=[0, 0, 1], lam=1)
    with pytest.raises(ValueError):
        spec_from_json({"type": "unknown"})
