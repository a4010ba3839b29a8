import numpy as np
import pytest

from beltrami.geometry import PolarSphereGrid, Ray, project_to_perp
from beltrami.harmonics import SphericalFunction
from beltrami.fields import (Lundquist, PlaneWave, curl_fd, div_fd, eval_field, moses_q,
                             moses_q_many)
from beltrami.sphere import PVRule
import beltrami.rays as rays
from beltrami.rays import (DegenerateRay, LundquistSeriesCfg, NonConvergence,
                           OscillatoryLineQuadrature, SingularDirection,
                           dbeam_lundquist_closed, dbeam_numeric, dbeam_via_extfunk,
                           dbeam_via_extfunk_batch,
                           john_residual, curl_form_residual, theta_divergence_residual,
                           xray_lundquist_batch, xray_lundquist_closed, xray_numeric,
                           xray_via_funk, xray_via_funk_batch,
                           ytransform_lundquist_closed, ytransform_numeric,
                           ytransform_planewave_closed, ytransform_via_extfunk)

NU, F0 = 1.0, 1.0
LUND = Lundquist(F0=F0, nu=NU, lam=1)
FLD = lambda p: eval_field(LUND, p)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def line_cfg(theta, nu=NU):
    v_r = float(np.hypot(theta[0], theta[1]))
    return OscillatoryLineQuadrature(nu_scale=nu * max(v_r, 0.05))


# --------------------------------------------------------------------------
# numeric line integrals
# --------------------------------------------------------------------------

def test_xray_numeric_zero_field():
    z = lambda p: np.zeros_like(np.atleast_2d(p), dtype=complex)
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    out = xray_numeric(z, ray, OscillatoryLineQuadrature(nu_scale=1.0))
    assert np.linalg.norm(out.value) == 0.0


def test_xray_numeric_lundquist_axis_values():
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    out = xray_numeric(FLD, ray, line_cfg(ray.theta))
    assert np.linalg.norm(out.value - [0, 0, 2 * F0 / NU]) <= 1e-3 * (2 * F0 / NU)

    ray2 = Ray(theta=[1, 0, 0], foot=[0, np.pi / (2 * NU), 0])
    out2 = xray_numeric(FLD, ray2, line_cfg(ray2.theta))
    assert np.linalg.norm(out2.value - [-2 * F0 / NU, 0, 0]) <= 1e-3 * (2 * F0 / NU)


def test_dbeam_numeric_origin():
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    out = dbeam_numeric(FLD, ray, line_cfg(ray.theta))
    assert np.linalg.norm(out.value - np.array([0, F0 / NU, F0 / NU])) <= 1e-2


def test_dbeam_plus_minus_equals_xray_numeric():
    rng = np.random.default_rng(0)
    th = unit([0.5, 0.6, 0.63])
    ray_p = project_to_perp(rng.standard_normal(3), th)
    ray_m = Ray(theta=-th, foot=ray_p.foot)
    cfg = line_cfg(th)
    d1 = dbeam_numeric(FLD, ray_p, cfg)
    d2 = dbeam_numeric(FLD, ray_m, cfg)
    x = xray_numeric(FLD, ray_p, cfg)
    tol = 3 * (d1.error + d2.error + x.error) + 1e-4
    assert np.linalg.norm(d1.value + d2.value - x.value) <= tol


def test_nonconvergence_raised_for_growing_field():
    grow = lambda p: (np.atleast_2d(p)[:, :1] ** 4 + 1.0) * np.ones((1, 3))
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    cfg = OscillatoryLineQuadrature(nu_scale=1.0)
    with pytest.raises(NonConvergence):
        xray_numeric(grow, ray, cfg)


def test_ladder_validation():
    with pytest.raises(ValueError):
        OscillatoryLineQuadrature(nu_scale=1.0, epsilon_ladder=(0.1, 0.2))
    with pytest.raises(ValueError):
        OscillatoryLineQuadrature(nu_scale=-1.0)
    with pytest.raises(ValueError):
        OscillatoryLineQuadrature(nu_scale=1.0, panels_per_period=4)


# --------------------------------------------------------------------------
# Lundquist closed forms
# --------------------------------------------------------------------------

def test_xray_lundquist_closed_values():
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    assert np.allclose(xray_lundquist_closed(ray, F0, NU, 1), [0, 0, 2 * F0 / NU])
    ray2 = Ray(theta=[1, 0, 0], foot=[0, np.pi / (2 * NU), 0])
    got = xray_lundquist_closed(ray2, F0, NU, 1)
    assert np.linalg.norm(got - [-2 * F0 / NU, 0, 0]) <= 1e-14


def test_xray_lundquist_degenerate_ray():
    with pytest.raises(DegenerateRay):
        xray_lundquist_closed(Ray(theta=[0, 0, 1], foot=[0.3, 0, 0]), F0, NU, 1)


def test_xray_lundquist_closed_is_eigenfield():
    th = unit([0.6, 0.5, 0.62])
    fld = lambda pts: np.stack([xray_lundquist_batch(th[None, :], p, F0, NU, 1)[0]
                                for p in np.atleast_2d(pts)])
    x = np.array([0.4, -0.3, 0.2])
    V = fld(x[None, :])[0]
    assert np.linalg.norm(curl_fd(fld, x) - NU * V) <= 1e-6 * np.linalg.norm(NU * V)


def test_xray_evenness():
    th = unit([0.4, 0.7, 0.59])
    foot = project_to_perp([0.5, -0.2, 0.1], th).foot
    a = xray_lundquist_closed(Ray(theta=th, foot=foot), F0, NU, 1)
    b = xray_lundquist_closed(Ray(theta=-th, foot=foot), F0, NU, 1)
    assert np.linalg.norm(a - b) <= 1e-14


def test_dbeam_series_origin_and_decomposition():
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    assert np.allclose(dbeam_lundquist_closed(ray, F0, NU),
                       np.array([0, F0 / NU, F0 / NU]))
    assert np.allclose(ytransform_lundquist_closed(ray, F0, NU),
                       np.array([0, 2 * F0 / NU, 0]))
    rng = np.random.default_rng(1)
    for _ in range(10):
        th = unit(rng.standard_normal(3))
        if np.hypot(th[0], th[1]) < 0.05:
            continue
        foot = project_to_perp(rng.standard_normal(3), th).foot
        ray_p = Ray(theta=th, foot=foot)
        ray_m = Ray(theta=-th, foot=foot)
        X = xray_lundquist_closed(ray_p, F0, NU, 1)
        D1 = dbeam_lundquist_closed(ray_p, F0, NU)
        D2 = dbeam_lundquist_closed(ray_m, F0, NU)
        Y = ytransform_lundquist_closed(ray_p, F0, NU)
        assert np.linalg.norm(D1 + D2 - X) <= 1e-10
        assert np.linalg.norm(D1 - D2 - Y) <= 1e-10
        # signed transform is odd
        Ym = ytransform_lundquist_closed(ray_m, F0, NU)
        assert np.linalg.norm(Y + Ym) <= 1e-12


def test_dbeam_numeric_matches_series():
    th = unit([0.55, 0.6, 0.58])
    ray = project_to_perp([0.4, -0.3, 0.2], th)
    got = dbeam_numeric(FLD, ray, line_cfg(th)).value
    want = dbeam_lundquist_closed(ray, F0, NU)
    assert np.linalg.norm(got - want) <= 1e-2 * np.linalg.norm(want)


def test_series_cfg():
    cfg = LundquistSeriesCfg(nmax=30)
    assert cfg.order(5.0) == 30
    auto = LundquistSeriesCfg()
    n = auto.order(5.0)
    assert auto.bound(5.0, n) < 1e-15
    assert auto.truncation_bound(5.0) < 1e-15
    # the reported bound dominates the actual truncation error
    ray = Ray(theta=[1, 0, 0], foot=[0, 1.7, 0])
    full = dbeam_lundquist_closed(ray, F0, NU, LundquistSeriesCfg(nmax=200))
    short_cfg = LundquistSeriesCfg(nmax=6)
    short = dbeam_lundquist_closed(ray, F0, NU, short_cfg)
    assert np.linalg.norm(full - short) <= 4.0 * short_cfg.truncation_bound(NU * 1.7)
    with pytest.raises(ValueError):
        LundquistSeriesCfg(nmax=0).order(1.0)


# --------------------------------------------------------------------------
# plane-wave signed transform
# --------------------------------------------------------------------------

def test_ytransform_planewave_values():
    k0 = 1.2
    kap0 = unit([0.3, -0.5, 0.8])
    ray = Ray(theta=kap0, foot=np.zeros(3))
    got = ytransform_planewave_closed(ray, k0, kap0, 1)
    assert np.linalg.norm(got - (2j / k0) * moses_q(kap0, 1)) <= 1e-14
    # odd in the direction
    th = unit([0.7, 0.2, 0.68])
    foot = project_to_perp([0.1, 0.4, -0.2], th).foot
    a = ytransform_planewave_closed(Ray(theta=th, foot=foot), k0, kap0, 1)
    b = ytransform_planewave_closed(Ray(theta=-th, foot=foot), k0, kap0, 1)
    assert np.linalg.norm(a + b) <= 1e-14


def test_ytransform_planewave_singular_direction():
    kap0 = np.array([0, 0, 1.0])
    with pytest.raises(SingularDirection):
        ytransform_planewave_closed(Ray(theta=[1, 0, 0], foot=[0, 0, 0]), 1.0, kap0, 1)


def test_ytransform_planewave_numeric_oracle():
    rng = np.random.default_rng(2)
    k0 = 1.2
    kap0 = unit([0.3, -0.5, 0.8])
    pw = PlaneWave(k0=k0, kappa0=kap0, lam=1)
    fld = lambda p: eval_field(pw, p)
    checked = 0
    while checked < 5:
        th = unit(rng.standard_normal(3))
        if abs(th @ kap0) < 0.3:
            continue
        checked += 1
        ray = project_to_perp(rng.standard_normal(3) * 0.5, th)
        cfg = OscillatoryLineQuadrature(nu_scale=k0 * abs(float(th @ kap0)))
        got = ytransform_numeric(fld, ray, cfg).value
        want = ytransform_planewave_closed(ray, k0, kap0, 1)
        assert np.linalg.norm(got - want) <= 1e-2 * np.linalg.norm(want)


# --------------------------------------------------------------------------
# transform-space routes
# --------------------------------------------------------------------------

def test_xray_via_funk_zero_and_translation():
    z = SphericalFunction.zero(3)
    ray = Ray(theta=[0, 0, 1], foot=[0.5, 0, 0])
    assert np.linalg.norm(xray_via_funk(1.0, 1, z, ray, 64)) == 0.0
    rng = np.random.default_rng(3)
    s = SphericalFunction.random(4, rng)
    th = unit([0.5, 0.6, 0.63])
    x = np.array([0.3, -0.4, 0.5])
    a = xray_via_funk_batch(1.0, 1, s, th, x, 128)
    b = xray_via_funk_batch(1.0, 1, s, th, x + 1.7 * th, 128)
    assert np.linalg.norm(a - b) <= 1e-13


def test_xray_via_funk_is_eigenfield():
    rng = np.random.default_rng(4)
    s = SphericalFunction.random(4, rng)
    nu, lam = 1.3, 1
    th = unit([0.5, 0.6, 0.63])
    fld = lambda pts: np.stack([xray_via_funk_batch(nu, lam, s, th, p, 128)
                                for p in np.atleast_2d(pts)])
    x = np.array([0.3, -0.4, 0.5])
    V = fld(x[None, :])[0]
    assert np.linalg.norm(curl_fd(fld, x) - lam * nu * V) <= 1e-6 * np.linalg.norm(nu * V)


def test_dbeam_via_extfunk_identities():
    rng = np.random.default_rng(5)
    s = SphericalFunction.random(4, rng)
    nu, lam = 1.3, 1
    th = unit([0.5, 0.6, 0.63])
    x = np.array([0.3, -0.4, 0.5])
    pv = PVRule(48, 96)
    D1 = dbeam_via_extfunk(nu, lam, s, th, x, 128, pv)
    D2 = dbeam_via_extfunk(nu, lam, s, -th, x, 128, pv)
    X = xray_via_funk_batch(nu, lam, s, th, x, 128)
    Y = ytransform_via_extfunk(nu, lam, s, th, x, pv)
    assert np.linalg.norm(D1 + D2 - X) <= 1e-8 * np.linalg.norm(X)
    assert np.linalg.norm(D1 - D2 - Y) <= 1e-12
    # zero data
    z = SphericalFunction.zero(2)
    assert np.linalg.norm(dbeam_via_extfunk(nu, lam, z, th, x, 64, PVRule(16, 32))) == 0.0


def test_dbeam_via_extfunk_eigen_property_bump_data():
    rng = np.random.default_rng(6)
    s = SphericalFunction.random(5, rng, min_abs_m=2)   # equator-localized
    nu, lam = 1.3, 1
    th = unit([0.5, 0.6, 0.63])
    pv = PVRule(48, 96)
    fld = lambda pts: np.stack([dbeam_via_extfunk(nu, lam, s, th, p, 192, pv)
                                for p in np.atleast_2d(pts)])
    x = np.array([0.3, -0.4, 0.5])
    D = fld(x[None, :])[0]
    assert np.linalg.norm(curl_fd(fld, x) - lam * nu * D) <= 1e-5 * np.linalg.norm(nu * D)


def test_rings_match_singletons(monkeypatch):
    """Directions with equal theta_z share one node set (a ring); every member
    must agree with its evaluation as a ring of one."""
    rng = np.random.default_rng(8)
    x = np.array([0.4, -0.3, 0.6])
    n_psi = 12
    rays_in = rng.standard_normal((4, 3))
    rays_in /= np.linalg.norm(rays_in, axis=1, keepdims=True)
    q_dirs = []
    counted = lambda k, lam: q_dirs.append(k.size // 3) or moses_q_many(k, lam)
    monkeypatch.setattr(rays, "moses_q_many", counted)

    def beams(s, lam, thetas):
        return (xray_via_funk_batch(1.2, lam, s, thetas, x, 32),
                dbeam_via_extfunk_batch(1.2, lam, s, thetas, x, 32, pv))

    # an odd PV azimuth count leaves the PV nodes of an axis unpaired
    for n_alpha, pv in ((32, PVRule(12, 24)), (33, PVRule(12, 25))):
        per_dir = 32 + (32 + 2 * pv.n_u * pv.n_psi)   # X and D nodes of one direction
        grid = PolarSphereGrid(n_alpha, n_psi).nodes().reshape(-1, 3)
        # the middle row of an odd grid has theta_z ~ +-6e-17: its great circles
        # pass through the poles and its canonical axis sign flips along it
        rows = np.concatenate([np.arange(r * n_psi, (r + 1) * n_psi)
                               for r in (0, n_alpha // 2, n_alpha - 1)])
        mixed = np.vstack([grid[rows[n_psi:2 * n_psi]], rays_in, unit([9e-9, 0.0, 1.0]),
                           grid[:3]])
        for thetas, members in ((grid, rows), (-grid, rows), (mixed, range(len(mixed)))):
            for lmax in (0, 1, 8):
                s = SphericalFunction.random(lmax, rng)
                for lam in (1, -1):
                    del q_dirs[:]
                    got = beams(s, lam, thetas)
                    if thetas is not mixed:
                        # one node set per ring of axes, plus polar nodes per member
                        assert sum(q_dirs) <= (n_alpha + 2) * per_dir
                    for a, b in zip(got, beams(s, lam, thetas)):
                        assert np.array_equal(a, b)
                    for i in members:
                        for a, b in zip(got, beams(s, lam, thetas[i])):
                            assert np.linalg.norm(a[i] - b) <= 1e-13 * np.linalg.norm(b)


def test_opposite_directions_share_one_axis(monkeypatch):
    """theta and -theta are one axis: the engine evaluates it once, and the
    beams of the two orientations pair bit for bit."""
    rng = np.random.default_rng(9)
    s = SphericalFunction.random(6, rng)
    nu, lam, circle_n, pv = 1.2, -1, 64, PVRule(16, 32)
    x = np.array([0.4, -0.3, 0.6])
    # generic directions, one on the equator and one at the pole
    thetas = np.vstack([rng.standard_normal((6, 3)), [0.3, -0.4, 0.0], [0.0, 0.0, 1.0]])
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    both = np.vstack([thetas, -thetas])
    n = len(thetas)
    D = dbeam_via_extfunk_batch(nu, lam, s, both, x, circle_n, pv)
    X = xray_via_funk_batch(nu, lam, s, both, x, circle_n)
    Y = ytransform_via_extfunk(nu, lam, s, both, x, pv)
    assert np.array_equal(X[n:], X[:n])
    assert np.array_equal(Y[n:], -Y[:n])
    assert np.max(np.linalg.norm(D[:n] + D[n:] - X[:n], axis=1) /
                  np.linalg.norm(X[:n], axis=1)) <= 1e-14
    assert np.max(np.linalg.norm(D[:n] - D[n:] - Y[:n], axis=1) /
                  np.linalg.norm(Y[:n], axis=1)) <= 1e-14
    for i in (0, n - 2, n - 1):
        for th, j in ((thetas[i], i), (-thetas[i], n + i)):
            assert np.array_equal(dbeam_via_extfunk(nu, lam, s, th, x, circle_n, pv), D[j])
            assert np.array_equal(ytransform_via_extfunk(nu, lam, s, th, x, pv), Y[j])
    # a PolarSphereGrid pairs its southern rows with its northern ones, so a
    # 32 x 64 grid is 16 rings: half the node sets of one ring per row
    q_dirs = []
    counted = lambda k, lam: q_dirs.append(k.size // 3) or moses_q_many(k, lam)
    monkeypatch.setattr(rays, "moses_q_many", counted)
    grid = PolarSphereGrid(32, 64).nodes().reshape(-1, 3)
    dbeam_via_extfunk_batch(nu, lam, s, grid, x, circle_n, pv)
    per_dir = circle_n + 2 * pv.n_u * pv.n_psi
    assert sum(q_dirs) <= (32 + 2) * per_dir // 2


# --------------------------------------------------------------------------
# line-transform PDE residuals
# --------------------------------------------------------------------------

def closed_xray_fn(theta, x):
    return xray_lundquist_batch(np.asarray(theta, dtype=float)[None, :], x, F0, NU, 1)[0]


def test_john_and_curl_form_residuals():
    rng = np.random.default_rng(7)
    for _ in range(3):
        th = unit(rng.standard_normal(3) + np.array([0.5, 0.5, 0]))
        x = rng.standard_normal(3)
        assert john_residual(closed_xray_fn, th, x) <= 1e-4
        assert curl_form_residual(closed_xray_fn, NU, th, x) <= 1e-4
        assert theta_divergence_residual(closed_xray_fn, th, x) <= 1e-5


def test_xray_divergence_in_x():
    th = unit([0.6, 0.5, 0.62])
    fld = lambda pts: np.stack([closed_xray_fn(th, p) for p in np.atleast_2d(pts)])
    x = np.array([0.4, -0.3, 0.2])
    V = closed_xray_fn(th, x)
    assert abs(div_fd(fld, x)) <= 1e-5 * np.linalg.norm(NU * V)
