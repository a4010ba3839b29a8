import mpmath
import numpy as np
import pytest
from scipy.special import jv

from beltrami.geometry import PolarSphereGrid, Ray
from beltrami.harmonics import SphericalFunction
from beltrami.fields import (Lundquist, PlaneWave, curl_fd, div_fd, eval_field, moses_q,
                             moses_q_many)
from beltrami.sphere import PVRule, canonical_axes_many
import beltrami.rays as rays
from beltrami.rays import (DegenerateRay, NonConvergence,
                           OscillatoryLineQuadrature, SingularDirection,
                           dbeam_lundquist_batch, dbeam_numeric, dbeam_via_extfunk,
                           dbeam_via_extfunk_batch,
                           john_residual, curl_form_residual, theta_divergence_residual,
                           xray_lundquist_batch, xray_numeric,
                           xray_via_funk, xray_via_funk_batch,
                           ytransform_lundquist_batch, ytransform_numeric,
                           ytransform_planewave_closed, ytransform_via_extfunk)

NU, F0 = 1.0, 1.0
LUND = Lundquist(F0=F0, nu=NU, lam=1)
FLD = lambda p: eval_field(LUND, p)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def one_ray(batch, ray, *args):
    """A Lundquist closed form along one ray from its foot: a batch of one."""
    return batch(ray.theta[None], ray.foot, *args)[0]


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
    ray_p = Ray.through(th, rng.standard_normal(3))
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


def test_nonconvergence_at_any_scale():
    # a constant field's damped ladder grows like eps^(-1/2) at every nu_scale; the
    # test runs on nu times the ladder, so it refuses at 1e-160 too, where the
    # ladder is about 1e161 and the squares of its differences overflow
    const = lambda p: np.ones((len(p), 3), dtype=complex)
    for nu in (1.0, 1e-160):
        with pytest.raises(NonConvergence):
            rays._damped_line_integral(const, np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)),
                                       np.array([nu]), 8, "X")


def test_damped_rays_share_field_calls(monkeypatch):
    # the damped engine calls the field once on the stacked nodes of as many
    # whole rays as fit in DAMPED_BLOCK; each ray keeps the value and the error
    # it has alone, whatever its nu_scale, and the first ray whose ladder
    # diverges is refused as its row.  The field grows like x^4 + x^3, so it
    # diverges along x and rays in the x = 0 plane converge
    grow = lambda p: (p[:, 0] / 10) ** 4 + (p[:, 0] / 10) ** 3
    field = lambda p: ((np.exp(-np.sum(p * p, axis=1)) + grow(p))[:, None] *
                       np.array([1.0, -0.5j, 0.25]))
    calls = []
    counted = lambda p: calls.append(len(p)) or field(p)
    rng = np.random.default_rng(6)
    pairs = [([0.0, *rng.standard_normal(2)], [0.0, *rng.standard_normal(2)]) for _ in range(7)]
    rays_ok = [Ray.through(th, x) for x, th in pairs]
    thetas = np.array([r.theta for r in rays_ok])
    feet = np.array([r.foot for r in rays_ok])
    cfgs = [line_cfg(t, nu) for t, nu in zip(thetas, rng.uniform(0.5, 2.0, 7))]
    scales = np.array([c.nu_scale for c in cfgs])
    for mode, one in (("X", xray_numeric), ("D", dbeam_numeric), ("Y", ytransform_numeric)):
        alone = [one(field, r, c) for r, c in zip(rays_ok, cfgs)]
        for block in (1, rays.DAMPED_BLOCK, 1 << 20):   # a ray a call, some, all
            monkeypatch.setattr(rays, "DAMPED_BLOCK", block)
            calls.clear()
            values, errors = rays._damped_line_integral(counted, thetas, feet, scales, 8, mode)
            assert len(calls) == {1: 7, 1 << 20: 1}.get(block, len(calls))
            assert block == 1 or max(calls) <= block and len(calls) < 7
            for v, e, a in zip(values, errors, alone):
                assert np.array_equal(v, a.value) and e == a.error
        bad = Ray(theta=[1.0, 0.0, 0.0], foot=[0.0, 0.3, 0.2])
        with pytest.raises(NonConvergence) as e:
            rays._damped_line_integral(field, np.insert(thetas, 3, bad.theta, axis=0),
                                       np.insert(feet, 3, bad.foot, axis=0),
                                       np.insert(scales, 3, line_cfg(bad.theta).nu_scale), 8,
                                       mode)
        assert e.value.row == 3
    values, errors = rays._damped_line_integral(field, np.empty((0, 3)), np.empty((0, 3)),
                                                np.empty(0), 8, "X")
    assert values.shape == (0, 3) and errors.shape == (0,)


def test_ladder_validation():
    with pytest.raises(ValueError):
        OscillatoryLineQuadrature(nu_scale=-1.0)
    with pytest.raises(ValueError):
        OscillatoryLineQuadrature(nu_scale=1.0, panels_per_period=4)


def test_extrapolation_weights():
    # on the halving ladder the weight rows return the eps = 0 value of any
    # cubic in eps, and the estimate row vanishes on quadratics
    rng = np.random.default_rng(4)
    eps = rays.LADDER * 1.7**2
    for _ in range(10):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vals = np.polynomial.polynomial.polyval(eps, c)
        assert abs(rays.EXTRAPOLATE @ vals - c[0]) <= 1e-14
        c[3] = 0.0
        assert abs(rays.ESTIMATE @ np.polynomial.polynomial.polyval(eps, c)) <= 1e-14


# --------------------------------------------------------------------------
# Lundquist closed forms
# --------------------------------------------------------------------------

def test_xray_lundquist_closed_values():
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    assert np.allclose(one_ray(xray_lundquist_batch, ray, F0, NU, 1), [0, 0, 2 * F0 / NU])
    ray2 = Ray(theta=[1, 0, 0], foot=[0, np.pi / (2 * NU), 0])
    got = one_ray(xray_lundquist_batch, ray2, F0, NU, 1)
    assert np.linalg.norm(got - [-2 * F0 / NU, 0, 0]) <= 1e-14


def test_xray_lundquist_degenerate_ray():
    with pytest.raises(DegenerateRay):
        one_ray(xray_lundquist_batch, Ray(theta=[0, 0, 1], foot=[0.3, 0, 0]), F0, NU, 1)


def test_xray_lundquist_closed_is_eigenfield():
    th = unit([0.6, 0.5, 0.62])
    fld = lambda pts: np.stack([xray_lundquist_batch(th[None, :], p, F0, NU, 1)[0]
                                for p in np.atleast_2d(pts)])
    x = np.array([0.4, -0.3, 0.2])
    V = fld(x[None, :])[0]
    assert np.linalg.norm(curl_fd(fld, x) - NU * V) <= 1e-6 * np.linalg.norm(NU * V)


def test_xray_evenness():
    th = unit([0.4, 0.7, 0.59])
    foot = Ray.through(th, [0.5, -0.2, 0.1]).foot
    a = one_ray(xray_lundquist_batch, Ray(theta=th, foot=foot), F0, NU, 1)
    b = one_ray(xray_lundquist_batch, Ray(theta=-th, foot=foot), F0, NU, 1)
    assert np.linalg.norm(a - b) <= 1e-14


def test_dbeam_series_origin_and_decomposition():
    ray = Ray(theta=[1, 0, 0], foot=[0, 0, 0])
    assert np.allclose(one_ray(dbeam_lundquist_batch, ray, F0, NU),
                       np.array([0, F0 / NU, F0 / NU]))
    assert np.allclose(one_ray(ytransform_lundquist_batch, ray, F0, NU),
                       np.array([0, 2 * F0 / NU, 0]))
    rng = np.random.default_rng(1)
    for _ in range(10):
        th = unit(rng.standard_normal(3))
        if np.hypot(th[0], th[1]) < 0.05:
            continue
        foot = Ray.through(th, rng.standard_normal(3)).foot
        ray_p = Ray(theta=th, foot=foot)
        ray_m = Ray(theta=-th, foot=foot)
        X = one_ray(xray_lundquist_batch, ray_p, F0, NU, 1)
        D1 = one_ray(dbeam_lundquist_batch, ray_p, F0, NU)
        D2 = one_ray(dbeam_lundquist_batch, ray_m, F0, NU)
        Y = one_ray(ytransform_lundquist_batch, ray_p, F0, NU)
        assert np.linalg.norm(D1 + D2 - X) <= 1e-10
        assert np.linalg.norm(D1 - D2 - Y) <= 1e-10
        # signed transform is odd
        Ym = one_ray(ytransform_lundquist_batch, ray_m, F0, NU)
        assert np.linalg.norm(Y + Ym) <= 1e-12


def test_dbeam_numeric_matches_series():
    th = unit([0.55, 0.6, 0.58])
    ray = Ray.through(th, [0.4, -0.3, 0.2])
    got = dbeam_numeric(FLD, ray, line_cfg(th)).value
    want = one_ray(dbeam_lundquist_batch, ray, F0, NU)
    assert np.linalg.norm(got - want) <= 1e-2 * np.linalg.norm(want)


def test_series_order_rule():
    """The truncated half-line series against the same series to 200 terms."""
    th = unit([0.6, -0.3, 0.5])
    az = np.arctan2(th[1], th[0])
    e_r, e_az = np.array([np.cos(az), np.sin(az), 0.0]), np.array([-np.sin(az), np.cos(az), 0.0])
    n = np.arange(1, 201)
    for nu_r in (0.0, 1.7, 5.0, 40.0):
        r, phi = nu_r / NU, np.arctan2(0.6, 0.8)
        ray = Ray(theta=th, foot=r * np.array([0.8, 0.6, -(0.8 * th[0] + 0.6 * th[1]) / th[2]]))
        jn = jv(n, NU * r) * (-1.0) ** n
        S = np.sin(n * (az - phi)) @ jn
        C = jv(0, NU * r) + 2.0 * (np.cos(n * (az - phi)) @ jn)
        want = F0 / (NU * np.hypot(th[0], th[1])) * (-2.0 * S * e_r + jv(0, NU * r) * e_az +
                                                      C * np.array([0.0, 0.0, 1.0]))
        got = one_ray(dbeam_lundquist_batch, ray, F0, NU, 1)
        assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))


SERIES_PARTS = {"D": [(1, 1, -1.0, np.sin, np.cos)],
                "Y": [(2, 2, 1.0, np.sin), (1, 2, 1.0, np.cos)]}


def series_mp(nu_r, psis, parts, jk, order):
    """rays._series at one nu r: sum_k sign^k trig(k psi) jk[k] to order, in 30-digit mpmath."""
    out = []
    for k0, step, sign, *trigs in parts:
        for trig in trigs:
            f = mpmath.sin if trig is np.sin else mpmath.cos
            out.append([float(mpmath.fsum(sign ** k * f(k * mpmath.mpf(p)) * jk[k]
                                          for k in range(k0, order + 1, step))) for p in psis])
    return np.array(out)


def test_series_against_mpmath():
    """The half-line (D) and signed (Y) Bessel sums, from a shared source and
    one source per row, against 30-digit sums: of the J_k the series takes
    (the summation, within 2e-15 of the largest sum), and of mpmath's J_k to
    20 orders more (within 3e-15: scipy's J_k near k = nu r are off by up to
    6.5e-16, about 3 ulp)."""
    rng = np.random.default_rng(14)
    nu_rs = np.concatenate([[0.0, 1e-7, 0.9], np.arange(2.0, 31.0, 2.0) + rng.uniform(0, 1, 15)])
    psis = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(-np.pi, np.pi, 9)])
    nr, ps = (a.ravel() for a in np.meshgrid(nu_rs, psis, indexing="ij"))
    with mpmath.workdps(30):
        for name, parts in SERIES_PARTS.items():
            rows = rays._series(nr, ps, *parts)
            sums, whole = [], []
            for i, nu_r in enumerate(nu_rs):
                order = int(rays._series_order(nu_r))
                shared = rays._series(nu_r, psis, *parts)
                assert np.array_equal(shared, rows[:, len(psis) * i: len(psis) * (i + 1)])
                used = [mpmath.mpf(v) for v in jv(np.arange(order + 1), nu_r)]
                sums.append(series_mp(nu_r, psis, parts, used, order))
                exact = [mpmath.besselj(k, mpmath.mpf(nu_r)) for k in range(order + 21)]
                whole.append(series_mp(nu_r, psis, parts, exact, order + 20))
            sums, whole = np.concatenate(sums, axis=1), np.concatenate(whole, axis=1)
            scale = np.max(np.abs(whole), axis=1)
            assert np.all(np.max(np.abs(rows - sums), axis=1) <= 2e-15 * scale), name
            assert np.all(np.max(np.abs(rows - whole), axis=1) <= 3e-15 * scale), name


def test_series_rows_padded_to_a_higher_order_keep_their_bits():
    """A row whose order is below its batch's takes zero J_k above it: Horner's
    leading zeros leave its bits (and signs of zero) those of the row alone."""
    rng = np.random.default_rng(15)
    nu_r = np.concatenate([np.zeros(16), [1e-7, 0.4, 2.5, 30.0, 31.5], rng.uniform(0, 12, 40)])
    psi = np.concatenate([np.linspace(-np.pi, np.pi, 16), [0.0, np.pi, -np.pi / 2, 0.0, 1.0],
                          rng.uniform(-np.pi, np.pi, 40)])
    others = np.array([0.4, 1.3, 2.5, 3.7, 5.2, 9.9, 30.0])      # orders 13 to 66
    assert len(np.unique(rays._series_order(others))) == len(others)
    for parts in SERIES_PARTS.values():
        batch = rays._series(nu_r, psi, *parts)
        for i in range(len(nu_r)):
            alone = rays._series(nu_r[i: i + 1], psi[i: i + 1], *parts)
            pairs = [rays._series(np.r_[nu_r[i], o], np.r_[psi[i], 0.3], *parts)[:, :1]
                     for o in others]
            for got in [batch[:, i: i + 1]] + pairs:
                assert np.array_equal(got, alone), i
                assert np.array_equal(np.signbit(got), np.signbit(alone)), i


def test_lundquist_series_beams_pinned_per_direction():
    """X, D and Y from one source over a sphere grid: each row the bits of its
    direction alone, plain and reduced, both helicities."""
    dirs = PolarSphereGrid(16, 32).nodes().reshape(-1, 3)
    x, amp = np.array([0.7, -1.9, 0.4]), 0.8 - 0.3j
    for beam in (xray_lundquist_batch, dbeam_lundquist_batch, ytransform_lundquist_batch):
        for lam in (1, -1):
            for reduced in (False, True):
                got = beam(dirs, x, amp, 1.3, lam, reduced)
                for i, theta in enumerate(dirs):
                    assert np.array_equal(got[i], beam(theta[None], x, amp, 1.3, lam, reduced)[0])


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
    foot = Ray.through(th, [0.1, 0.4, -0.2]).foot
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
        ray = Ray.through(th, rng.standard_normal(3) * 0.5)
        cfg = OscillatoryLineQuadrature(nu_scale=k0 * abs(float(th @ kap0)))
        got = ytransform_numeric(fld, ray, cfg).value
        want = ytransform_planewave_closed(ray, k0, kap0, 1)
        assert np.linalg.norm(got - want) <= 1e-2 * np.linalg.norm(want)


# --------------------------------------------------------------------------
# transform-space routes
# --------------------------------------------------------------------------

def test_xray_via_funk_zero_and_translation():
    z = SphericalFunction(3, np.zeros(16))
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
    z = SphericalFunction(2, np.zeros(9))
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
        # |theta_z| at a u-node of the PV rule, and 3e-9 off it: the PV circles
        # k.a = +-u pass within 1e-8 of the poles, and with n_psi divisible by
        # 4 a PV node lands there, in the frame's polar cap
        z = pv.u_rule()[0][5] + np.repeat([0.0, 3e-9, -3e-9], 7)
        phi = np.tile(np.linspace(0.3, 6.0, 7), 3)
        through = np.stack([np.sqrt(1.0 - z**2) * np.cos(phi),
                            np.sqrt(1.0 - z**2) * np.sin(phi), z], axis=1)
        through[1::2] *= -1.0
        for thetas, members in ((grid, rows), (-grid, rows), (mixed, range(len(mixed))),
                                (through, range(len(through)))):
            for lmax in (0, 1, 8):
                s = SphericalFunction.random(lmax, rng)
                for lam in (1, -1):
                    del q_dirs[:]
                    got = beams(s, lam, thetas)
                    if members is rows:
                        # one node set per ring of axes; the odd grid's middle
                        # row, whose great circles pass through the poles, is
                        # rings of one
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


def test_sources_per_direction_match_single_source_calls():
    """With one source per direction, each (axis, source) is evaluated on its
    own, a ring of one, so every row keeps the bits of its direction alone
    from its source; theta and -theta from one source still share one
    evaluation.  The last six rays share their theta_z and their source."""
    rng = np.random.default_rng(10)
    s = SphericalFunction.random(6, rng)
    nu, circle_n, pv = 1.2, 48, PVRule(12, 24)
    th = unit([0.5, -0.4, 0.3])
    az = rng.uniform(0, 2 * np.pi, 6)
    ring = np.c_[np.sqrt(1 - 0.37**2) * np.c_[np.cos(az), np.sin(az)], np.full(6, 0.37)]
    thetas = np.vstack([rng.standard_normal((8, 3)), [0.6, 0.8, 0.0], [0.0, 0.0, 1.0],
                        th, th, -th, -th, ring])
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    x0, x1 = np.array([0.4, -0.3, 0.6]), np.array([-0.2, 0.5, 0.1])
    xs = np.vstack([rng.standard_normal((10, 3)), x0, x1, x0, x1,
                    np.tile([0.3, -0.2, 0.5], (6, 1))])
    for lam in (1, -1):
        X = xray_via_funk_batch(nu, lam, s, thetas, xs, circle_n)
        D = dbeam_via_extfunk_batch(nu, lam, s, thetas, xs, circle_n, pv)
        Y = ytransform_via_extfunk(nu, lam, s, thetas, xs, pv)
        for i, (theta, x) in enumerate(zip(thetas, xs)):
            assert np.array_equal(X[i], xray_via_funk_batch(nu, lam, s, theta, x, circle_n))
            assert np.array_equal(D[i], dbeam_via_extfunk_batch(nu, lam, s, theta, x,
                                                                circle_n, pv)[0])
            assert np.array_equal(Y[i], ytransform_via_extfunk(nu, lam, s, theta, x, pv))
        assert not np.array_equal(X[10], X[11])


def test_q_once_per_antipodal_pair(monkeypatch):
    """The ring engine takes Q at one node of each antipodal pair: half the nodes of
    an even rule, all the nodes of an odd one (no partners, the same path)."""
    rng = np.random.default_rng(11)
    s = SphericalFunction.random(4, rng)
    thetas = rng.standard_normal((5, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    xs = rng.standard_normal((5, 3))
    q_dirs = []
    counted = lambda k, lam: q_dirs.append(k.size // 3) or moses_q_many(k, lam)
    monkeypatch.setattr(rays, "moses_q_many", counted)
    for circle_n, pv, pairs in ((64, PVRule(12, 24), 2), (63, PVRule(12, 25), 1)):
        n_pv = 2 * pv.n_u * pv.n_psi
        for beam, nodes in ((lambda: xray_via_funk_batch(1.2, 1, s, thetas, xs, circle_n),
                             circle_n),
                            (lambda: dbeam_via_extfunk_batch(1.2, -1, s, thetas, xs, circle_n, pv),
                             circle_n + n_pv),
                            (lambda: ytransform_via_extfunk(1.2, 1, s, thetas, xs, pv), n_pv)):
            del q_dirs[:]
            beam()
            assert sum(q_dirs) == len(thetas) * nodes // pairs


def test_ring_engine_matches_node_sums():
    """X, D and Y against the node-by-node sums of G_x(k) = e^{i nu k.x} Q_lam(k) s(k)
    over each direction's _base_nodes with the _column_weights of its route: every
    node takes its own Q and phase here, the engine's partners take theirs from
    their pairs.  Rings of several axes (a grid row from one source) and rings of
    one (a source per direction), both helicities."""
    rng = np.random.default_rng(12)
    s = SphericalFunction.random(6, rng)
    nu, circle_n, pv = 1.2, 48, PVRule(12, 24)
    pref = rays._PREF / nu
    grid = PolarSphereGrid(8, 12).nodes()
    thetas = np.vstack([grid[2], grid[5, :4], rng.standard_normal((6, 3)), [[0.6, 0.8, 0.0]]])
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    xs = np.vstack([np.tile([0.4, -0.3, 0.6], (16, 1)), rng.standard_normal((7, 3))])
    routes = {"X": (circle_n, pref, None, 0.0),
              "D": (circle_n, 0.5 * pref, pv, 1j * pref / (2.0 * np.pi)),
              "Y": (0, 0.0, pv, 1j * pref / np.pi)}
    for lam in (1, -1):
        got = {"X": xray_via_funk_batch(nu, lam, s, thetas, xs, circle_n),
               "D": dbeam_via_extfunk_batch(nu, lam, s, thetas, xs, circle_n, pv),
               "Y": ytransform_via_extfunk(nu, lam, s, thetas, xs, pv)}
        for kind, (cn, cw, rule, pw) in routes.items():
            w = rays._column_weights(cn, cw, rule, pw)
            for axis, sign, x, value in zip(*canonical_axes_many(thetas), xs, got[kind]):
                k = rays._base_nodes(axis[None], cn, rule)[0]
                G = np.exp(1j * nu * (k @ x))[:, None] * moses_q_many(k, lam) * s(k)[:, None]
                ref = w[:cn] @ G[:cn] + sign * (w[cn:] @ G[cn:])
                assert np.linalg.norm(value - ref) <= 1e-14 * np.linalg.norm(ref)


# --------------------------------------------------------------------------
# line-transform PDE residuals
# --------------------------------------------------------------------------

def closed_xray_fn(thetas, x):
    return xray_lundquist_batch(thetas, x, F0, NU, 1)


def test_john_and_curl_form_residuals():
    rng = np.random.default_rng(7)
    for _ in range(3):
        th = unit(rng.standard_normal(3) + np.array([0.5, 0.5, 0]))
        x = rng.standard_normal(3)
        assert john_residual(closed_xray_fn, th, x) <= 1e-7
        assert curl_form_residual(closed_xray_fn, NU, th, x) <= 1e-7
        assert theta_divergence_residual(closed_xray_fn, th, x) <= 1e-10
        # data off a line transform by 1e-6 (x . theta) fails all three
        bad = lambda ths, p: closed_xray_fn(ths, p) * (1 + 1e-6 * (ths @ p))[:, None]
        assert john_residual(bad, th, x) > 1e-7
        assert curl_form_residual(bad, NU, th, x) > 1e-7
        assert theta_divergence_residual(bad, th, x) > 1e-10


def test_xray_divergence_in_x():
    th = unit([0.6, 0.5, 0.62])
    fld = lambda pts: np.concatenate([closed_xray_fn(th[None], p) for p in pts])
    x = np.array([0.4, -0.3, 0.2])
    V = closed_xray_fn(th[None], x)[0]
    assert abs(div_fd(fld, x)) <= 1e-5 * np.linalg.norm(NU * V)
