import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.special import j0, jv

from beltrami.fields import (GeneralizedLundquist, Lundquist,
                             Spheromak, curl_fd, eval_field)
from beltrami.rays import NonConvergence
from beltrami.twistor import (AxisymmetricPower, BranchViolation, ContourSpec,
                              EtaPowerOverOmega, HolomorphicOfEta, IntegrandSpec,
                              LaurentInOmegaPrime, LundquistKernel, PoleOnContour,
                              RawLaurent, ck_cylindrical_closed,
                              _contour_integrate_vec, _top_nodes, _trapezoid,
                              ck_from_debye, fundamental_solution_check,
                              helmholtz_point_source_closed, incidence_eta,
                              null_vector, scalar_helmholtz_from_twistor,
                              spheromak_debye_closed, spheromak_debye_integral,
                              trkalian_from_twistor, trkalian_laurent_ck)

RNG = np.random.default_rng(100)
NU = 1.1


def rand_point(scale=1.5, rng=RNG):
    return rng.standard_normal(3) * scale


# --------------------------------------------------------------------------
# incidence and contour basics
# --------------------------------------------------------------------------

def test_incidence_values():
    assert incidence_eta([0, 0, 0], 0.3 + 0.2j) == 0.0
    assert incidence_eta([1, 0, 0], 0.0) == 1.0
    assert incidence_eta([0, 0, 1], 1j) == 2j


complexes = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: complex(*t))


@settings(max_examples=50, deadline=None)
@given(complexes)
def test_null_vector_identity(w):
    nv = null_vector(np.array([w]))[0]
    assert abs((nv ** 2).sum()) <= 1e-13 * max(1.0, abs(w) ** 4)


def test_contour_residues():
    w = ContourSpec(N=16).nodes()
    assert abs(_trapezoid(w, 1 / w) - 2j * np.pi) <= 1e-14
    assert abs(_trapezoid(w, w)) <= 1e-14
    assert abs(_trapezoid(w, np.exp(w) / w**2) - 2j * np.pi) <= 1e-12


def test_contour_adaptive_and_spec_validation():
    val = _contour_integrate_vec(lambda w: (np.exp(w) / w)[None], ContourSpec(N=8))
    assert val.shape == (1,) and abs(val[0] - 2j * np.pi) <= 1e-12
    # a pole at 1.001 leaves the 4096-node value off by about 0.3
    with pytest.raises(NonConvergence):
        _contour_integrate_vec(lambda w: (np.exp(w) / (w - 1.001))[None], ContourSpec(N=8))
    with pytest.raises(ValueError):
        ContourSpec(N=4)


@pytest.mark.parametrize("N", [8, 64, 100, 2048, 5000])
def test_refused_integrand_reaches_the_top_of_the_schedule(N):
    # the doubling schedule has one definition: a refused integrand is summed at
    # every count up to _top_nodes and no further
    c, counts = ContourSpec(N=N), []

    def gvec(w):
        counts.append(len(w))
        return (np.exp(w) / (w - 1.001))[None]
    with pytest.raises(NonConvergence):
        _contour_integrate_vec(gvec, c)
    top = _top_nodes(c)
    assert max(counts) == top and top >= max(4096, 2 * N)
    assert counts == [max(N, 16) * 2**j for j in range(len(counts))]


def test_batch_integrands_keep_their_own_bits():
    # 1/(w - r) settles at 32, 64 and 256 nodes for r = 0.1, 0.3, 0.7: the batch
    # is evaluated up to 256, and each integrand keeps the value it has alone
    r = np.array([0.1, 0.3, 0.7])
    c = ContourSpec(N=8)

    def spy(g, counts):
        return lambda w: counts.append(len(w)) or g(w)
    batch_counts, tops, alone = [], [], []
    batch = _contour_integrate_vec(spy(lambda w: 1 / (w - r[:, None]), batch_counts), c)
    for ri in r:
        counts = []
        alone.append(_contour_integrate_vec(spy(lambda w: (1 / (w - ri))[None], counts), c)[0])
        tops.append(max(counts))
    assert tops == [32, 64, 256] and max(batch_counts) == 256
    assert batch.shape == (3,) and batch.tobytes() == np.array(alone).tobytes()
    assert np.max(np.abs(batch - 2j * np.pi)) <= 1e-12
    v = np.array([1.0, 2.0, -1j])
    vec = _contour_integrate_vec(lambda w: (1 / (w - r[:, None]))[..., None] * v, c)
    want = [_contour_integrate_vec(lambda w: (1 / (w - ri))[None, :, None] * v, c)[0]
            for ri in r]
    assert vec.shape == (3, 3) and vec.tobytes() == np.array(want).tobytes()


def test_spectral_doubling_gain():
    x = np.array([0.7, -0.2, 0.4])
    u = LundquistKernel(nu=NU)
    from beltrami.twistor import _phase_values
    g = lambda w: _phase_values("F1", NU, x, w) * u(x, w) * (1 - w**2)
    c = ContourSpec()
    ref = _trapezoid(c.nodes(512), g(c.nodes(512)))
    coarse = abs(_trapezoid(c.nodes(24), g(c.nodes(24))) - ref)
    fine = abs(_trapezoid(c.nodes(48), g(c.nodes(48))) - ref)
    assert fine <= 1e-4 * coarse or coarse < 1e-13


# --------------------------------------------------------------------------
# vector generator catalog
# --------------------------------------------------------------------------

def test_eta_power_over_omega_closed_form():
    rng = np.random.default_rng(101)
    for n in (0, 1, 3):
        spec = IntegrandSpec(u=EtaPowerOverOmega(n=n), phase="F1", k=NU)
        x = rand_point(rng=rng)
        got = trkalian_from_twistor(spec, x)
        zeta = x[0] + 1j * x[1]
        want = 2j * np.pi * np.exp(1j * NU * x[2]) * zeta**n * np.array([1, 1j, 0])
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, abs(zeta) ** n)


def test_eta_power_off_center_pole():
    rng = np.random.default_rng(102)
    w0 = 0.3 - 0.2j
    spec = IntegrandSpec(u=EtaPowerOverOmega(n=2, omega0=w0), phase="F1", k=NU)
    x = rand_point(rng=rng)
    got = trkalian_from_twistor(spec, x)
    zb = x[0] - 1j * x[1]
    want = (2j * np.pi * np.exp(-1j * NU * (w0 * zb - x[2])) *
            incidence_eta(x, w0) ** 2 *
            np.array([1 - w0**2, 1j * (1 + w0**2), 2 * w0]))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_lundquist_kernel_both_phases():
    rng = np.random.default_rng(103)
    lund = Lundquist(F0=4j * np.pi, nu=NU, lam=1)
    for _ in range(5):
        x = rand_point(rng=rng)
        want = eval_field(lund, x)
        got1 = trkalian_from_twistor(
            IntegrandSpec(u=LundquistKernel(nu=NU), phase="F1", k=NU), x)
        got2 = trkalian_from_twistor(
            IntegrandSpec(u=RawLaurent(table=((-2, 1.0),)), phase="F2", k=NU), x)
        assert np.max(np.abs(got1 - want)) <= 1e-10
        assert np.max(np.abs(got2 - want)) <= 1e-10


def test_lundquist_kernel_far_from_the_axis():
    # e^{-i k f} and e^{-i nu eta/(2 omega)} each overflow on the contour at
    # |x| = 700, while their product has modulus one: one exp keeps it finite
    spec = IntegrandSpec(u=LundquistKernel(nu=1.1), phase="F1", k=1.1)
    for x in ([700.0, 0.0, 0.0], [3.0, -2.0, 1.0], [0.0, 90.0, 5.0]):
        want = eval_field(Lundquist(F0=4j * np.pi, nu=1.1, lam=1), np.array(x))
        got = trkalian_from_twistor(spec, x)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_laurent_ck_matches_closed_family(n):
    rng = np.random.default_rng(104 + n)
    for _ in range(5):
        x = rand_point(rng=rng)
        if np.hypot(x[0], x[1]) * NU > 5:
            x *= 5 / (NU * np.hypot(x[0], x[1]))
        got = trkalian_laurent_ck(n, NU, x)
        want = ck_cylindrical_closed(n - 1, NU, x)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_laurent_ck_m0_z_component():
    x = np.array([0.8, -0.3, 0.5])
    r = np.hypot(x[0], x[1])
    got = trkalian_laurent_ck(1, NU, x)  # m = 0
    assert abs(got[2] - (-4j * np.pi * j0(NU * r))) <= 1e-12


def test_holomorphic_of_eta_planar_solution():
    coeffs = (0.3 - 0.1j, 1.2, -0.4j)
    hol = HolomorphicOfEta(coefficients=coeffs, denominator_power=2)
    spec = IntegrandSpec(u=hol, phase="F1", k=NU)
    x = np.array([0.4, -0.6, 0.3])
    zeta, zbar, z = x[0] + 1j * x[1], x[0] - 1j * x[1], x[2]
    got = trkalian_from_twistor(spec, x)
    g_prime = P.polyval(zeta, P.polyder(coeffs))
    want = 2j * np.pi * np.exp(1j * NU * z) * (
        (-1j * NU * zbar * hol.g(zeta) + 2 * z * g_prime) * np.array([1, 1j, 0])
        + 2 * hol.g(zeta) * np.array([0, 0, 1]))
    assert np.max(np.abs(got - want)) <= 1e-11


def test_generator_fields_are_eigenfields():
    rng = np.random.default_rng(105)
    specs = [
        IntegrandSpec(u=EtaPowerOverOmega(n=2), phase="F1", k=NU),
        IntegrandSpec(u=RawLaurent(table=((-2, 0.7 + 0.2j), (-1, -0.4), (1, 0.25j))),
                      phase="F2", k=NU),
        IntegrandSpec(u=LaurentInOmegaPrime(n=3), phase="F2", k=NU),
    ]
    for spec in specs:
        x = rand_point(0.8, rng)
        fld = lambda pts, sp=spec: np.stack([trkalian_from_twistor(sp, p)
                                             for p in np.atleast_2d(pts)])
        F = trkalian_from_twistor(spec, x)
        c = curl_fd(fld, x)
        assert np.linalg.norm(c - NU * F) <= 1e-6 * np.linalg.norm(NU * F)
        assert np.linalg.norm(F.imag * 0 + 0) == 0  # shape sanity


def test_pole_guard():
    spec = IntegrandSpec(u=EtaPowerOverOmega(n=0, omega0=1.0), phase="F1", k=NU)
    with pytest.raises(PoleOnContour):
        trkalian_from_twistor(spec, [0.1, 0.2, 0.3], ContourSpec(N=32))


def test_integrand_validation():
    with pytest.raises(ValueError):
        EtaPowerOverOmega(n=-1)
    with pytest.raises(ValueError):
        IntegrandSpec(u=EtaPowerOverOmega(n=0), phase="F3", k=1.0)


# --------------------------------------------------------------------------
# scalar potentials
# --------------------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2])
def test_cylindrical_potential(m):
    rng = np.random.default_rng(106 + m)
    x = rand_point(rng=rng)
    r, phi = np.hypot(x[0], x[1]), np.arctan2(x[1], x[0])
    got = scalar_helmholtz_from_twistor(lambda xx, ww: ww ** (m - 1), x, NU, "F2")
    want = 2j * np.pi * (1j) ** (-m) * jv(m, NU * r) * np.exp(1j * m * phi)
    assert abs(got - want) <= 1e-12


def test_axisymmetric_potentials():
    sigma = 1.2
    rng = np.random.default_rng(107)
    x = rand_point(rng=rng)
    r = np.hypot(x[0], x[1])
    got0 = scalar_helmholtz_from_twistor(AxisymmetricPower(0), x, sigma, "F2")
    assert abs(got0 - 2j * np.pi * j0(sigma * r)) <= 1e-12
    got1 = scalar_helmholtz_from_twistor(AxisymmetricPower(1), x, sigma, "F2")
    assert abs(got1 - 4j * np.pi * x[2] * j0(sigma * r)) <= 1e-12


def test_point_source_branch():
    assert abs(fundamental_solution_check([0, 0, 1.0], 1.0) -
               0.5 * np.exp(1j)) <= 1e-12
    assert abs(fundamental_solution_check([0, 0, 2.0], 0.0) - 0.25) <= 1e-12
    rng = np.random.default_rng(108)
    for _ in range(10):
        x = rng.standard_normal(3)
        x[2] = abs(x[2]) + 0.5
        sig = rng.uniform(0.2, 1.4)
        got = fundamental_solution_check(x, sig)
        assert abs(got - helmholtz_point_source_closed(x, sig)) <= 1e-8
    with pytest.raises(BranchViolation):
        fundamental_solution_check([0.3, 0.2, -0.1], 1.0)


def test_point_source_pole_proximity_guard():
    # z slightly above 0 pushes the enclosed root to the contour, alone or in a batch
    for x in ([1.0, 0.0, 1e-5], [[0.3, 0.2, 0.9], [1.0, 0.0, 1e-5]]):
        with pytest.raises(PoleOnContour):
            fundamental_solution_check(x, 1.0)


def test_scalar_potentials_batch_is_pointwise():
    # points (P, 3) give the per-point values bit for bit, for a datum with and
    # without reported poles and for the point source
    rng = np.random.default_rng(111)
    xs = rng.standard_normal((7, 3))
    for H, phase in ((AxisymmetricPower(1), "F2"), (lambda xx, ww: ww ** 2, "F2"),
                     (AxisymmetricPower(0), "F1")):
        batch = scalar_helmholtz_from_twistor(H, xs, NU, phase)
        alone = [scalar_helmholtz_from_twistor(H, x, NU, phase) for x in xs]
        assert batch.shape == (7,) and np.ndim(alone[0]) == 0
        assert batch.tobytes() == np.array(alone).tobytes()
    xs[:, 2] = np.abs(xs[:, 2]) + 0.5
    batch = fundamental_solution_check(xs, NU)
    assert batch.tobytes() == np.array([fundamental_solution_check(x, NU) for x in xs]).tobytes()
    closed = helmholtz_point_source_closed(xs, NU)
    assert closed.shape == (7,) and np.max(np.abs(batch - closed)) <= 1e-12


def test_point_source_refuses_the_first_point_below_the_branch():
    xs = np.array([[0.3, 0.2, 0.9], [0.1, 0.4, 0.5], [0.3, 0.2, -0.1], [0.2, 0.1, 0.0]])
    with pytest.raises(BranchViolation) as e:
        fundamental_solution_check(xs, 1.0)
    assert e.value.row == 2


# --------------------------------------------------------------------------
# Debye constructions
# --------------------------------------------------------------------------

def test_debye_fixed_axis_generalized_lundquist():
    sigma = 1.2
    phi = lambda pts: 4j * np.pi * np.atleast_2d(pts)[:, 2] * \
        j0(sigma * np.hypot(np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]))
    x = np.array([0.4, 0.2, -0.3])
    got = ck_from_debye(phi, "fixed_z", sigma, x)
    want = eval_field(GeneralizedLundquist(sigma=sigma), x)
    assert np.max(np.abs(got - want)) <= 1e-5


def test_debye_lundquist_proportionality():
    nu = 1.0
    phi = lambda pts: 2j * np.pi * j0(
        nu * np.hypot(np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]))
    spec = Lundquist(F0=1.0, nu=nu, lam=1)
    pts = [np.array([0.5, 0.1, 0.2]), np.array([-0.2, 0.6, -0.1])]
    ratios = []
    for x in pts:
        got = ck_from_debye(phi, "fixed_z", nu, x)
        want = eval_field(spec, x)
        mask = np.abs(want) > 1e-3
        ratios.append(got[mask] / want[mask])
    ratios = np.concatenate(ratios)
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-4 * abs(ratios[0])
    assert abs(ratios[0] - (-2j * np.pi * nu**2)) <= 1e-4 * abs(ratios[0])


def spheromak_potential(F0, k):
    return lambda pts: spheromak_debye_closed(F0, k, pts)


def test_debye_radial_spheromak():
    x = np.array([0.5, -0.3, 0.7])
    got = ck_from_debye(spheromak_potential(1.3 - 0.2j, 1.1), "radial", 1.1, x)
    want = eval_field(Spheromak(F0=1.3 - 0.2j, k=1.1), x)
    assert np.max(np.abs(got - want)) <= 1e-4


def test_ck_from_debye_batch_matches_single_points():
    sigma = 1.2
    phi = lambda pts: 4j * np.pi * pts[:, 2] * j0(sigma * np.hypot(pts[:, 0], pts[:, 1]))
    pts = np.random.default_rng(12).standard_normal((5, 3))
    for potential, mode in ((phi, "fixed_z"), (spheromak_potential(1.3 - 0.2j, 1.1), "radial")):
        batch = ck_from_debye(potential, mode, sigma, pts)
        assert batch.shape == (5, 3)
        assert np.array_equal(batch, np.stack([ck_from_debye(potential, mode, sigma, x)
                                               for x in pts]))


def test_ck_from_debye_validation():
    with pytest.raises(ValueError):
        ck_from_debye(lambda p: np.zeros(len(np.atleast_2d(p))), "sideways", 1.0,
                      [0, 0, 0])


def polar_point(R, t):
    return R * np.array([np.sin(t), 0.0, np.cos(t)])


def test_spheromak_debye_integral():
    F0, k = 1.0, 1.0
    assert abs(spheromak_debye_integral(F0, k, polar_point(2.0, np.pi / 2))) <= 1e-10
    # small-argument limit -(F0/k)(kR/3) cos(theta)
    R, t = 5e-4, 0.7
    got = spheromak_debye_integral(F0, k, polar_point(R, t))
    assert abs(got - (-(F0 / k) * (k * R / 3) * np.cos(t))) <= 1e-9
    rng = np.random.default_rng(109)
    x = rng.standard_normal((6, 3)) * 3.0
    assert np.max(np.abs(spheromak_debye_integral(F0, k, x) -
                         spheromak_debye_closed(F0, k, x))) <= 1e-8


def test_spheromak_potential_small_radius_and_origin():
    # spherical_jn covers kR -> 0: below kR = 1e-3 the closed form follows the series
    # -(F0/k)(kR/3 - (kR)^3/30 + (kR)^5/840) cos(theta) to 6.7e-15 relative (the
    # error of spherical_jn there), and it is zero at the origin
    F0, k = 1.3 - 0.2j, 1.1
    rng = np.random.default_rng(112)
    dirs = rng.standard_normal((40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    R = np.geomspace(1e-9, 9e-4, 40) / k
    got = spheromak_debye_closed(F0, k, R[:, None] * dirs)
    kR = k * R
    want = -(F0 / k) * (kR / 3 - kR**3 / 30 + kR**5 / 840) * dirs[:, 2]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
    assert spheromak_debye_closed(F0, k, np.zeros(3)) == 0
    assert spheromak_debye_closed(F0, k, np.zeros((2, 3))).shape == (2,)


def test_incidence_rotation_covariance():
    rng = np.random.default_rng(110)
    for _ in range(10):
        x = rng.standard_normal(3)
        om = rng.standard_normal() + 1j * rng.standard_normal()
        psi = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(psi), np.sin(psi)
        Rx = np.array([c * x[0] - s * x[1], s * x[0] + c * x[1], x[2]])
        assert abs(np.exp(1j * psi) * incidence_eta(x, om) -
                   incidence_eta(Rx, np.exp(1j * psi) * om)) <= 1e-12
