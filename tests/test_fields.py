import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from beltrami.geometry import Plane, make_polar_sphere_quadrature
from beltrami.harmonics import SphericalFunction
from beltrami.fields import (CKCylindrical, GeneralizedLundquist, Lundquist,
                             MosesBandLimited, PlaneWave, Spheromak, curl_fd,
                             div_fd, eigenvalue, eval_field, field_rule, moses_q,
                             moses_q_many, radon_moses, radon_moses_pair,
                             spec_from_json, spec_to_json, synthesize_moses)

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
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = random_unit(rng)
        Q = moses_q_many(np.array([-k]), 1)[0]
        assert abs(k @ Q) <= 1e-13
        assert abs(np.linalg.norm(Q) - 1) <= 1e-13


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


def test_ck_small_radius_smooth():
    spec = CKCylindrical(m=1, nu=1.0)
    near = eval_field(spec, [1e-9, 0, 0.3])
    limit = 4j * np.pi * np.array([0.5j, 0.5, 0])
    assert np.linalg.norm(near - limit) <= 1e-7


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
    z = SphericalFunction.zero(3)
    assert np.linalg.norm(synthesize_moses(1.0, 1, z, [0.3, 0.1, 0.2], quad)) == 0.0


def test_synthesize_constant_against_dense_oracle():
    # s = 1 at the origin: independent 1-D oracle for the only surviving
    # component, Int Q_z dOmega = i lam Int sin(alpha) dOmega / sqrt(2)
    quad = make_polar_sphere_quadrature(48)
    one = SphericalFunction.constant(1.0)
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
    assert np.linalg.norm(radon_moses(nu, lam, SphericalFunction.zero(2), pl)) == 0.0


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

@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: type(s).__name__ + str(getattr(s, "m", "")))
def test_spec_json_roundtrip(spec):
    back = spec_from_json(spec_to_json(spec))
    assert type(back) is type(spec)
    x = np.array([0.3, -0.1, 0.6])
    assert np.linalg.norm(eval_field(back, x) - eval_field(spec, x)) <= 1e-14


def test_moses_spec_json_roundtrip():
    rng = np.random.default_rng(18)
    s = SphericalFunction.random(3, rng)
    spec = MosesBandLimited(nu=1.1, lam=-1, s=s)
    back = spec_from_json(spec_to_json(spec))
    assert back.nu == spec.nu and back.lam == spec.lam
    assert np.max(np.abs(back.s.coeffs - spec.s.coeffs)) <= 1e-15


def test_spec_validation():
    with pytest.raises(ValueError):
        Lundquist(F0=1.0, nu=-1.0, lam=1)
    with pytest.raises(ValueError):
        PlaneWave(k0=0.0, kappa0=[0, 0, 1], lam=1)
    with pytest.raises(ValueError):
        spec_from_json({"type": "unknown"})
