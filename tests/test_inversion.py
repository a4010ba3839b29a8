import numpy as np
import pytest

from beltrami.geometry import Plane, PolarSphereGrid, make_polar_sphere_quadrature
from beltrami.harmonics import SphericalFunction
from beltrami.fields import (Lundquist, curl_fd, eigenvalue, eval_field, radon_moses,
                             radon_moses_pair, synthesize_moses)
from beltrami.sphere import PVRule
from beltrami.rays import DegenerateRay, moses_sphere_data
from beltrami.inversion import (BeamFunction, PoleSingularity, gg_radon_recovery,
                                gg_spherical_mean, grangeat_intermediate,
                                invert_grangeat, invert_spherical_mean,
                                lundquist_dbeam_beam, lundquist_xray_beam,
                                lundquist_ybeam_beam, moses_dbeam_beam,
                                moses_xray_beam, moses_ybeam_beam, rbs_dp_residual, rbs_moses,
                                riesz_factor, smith_identity_check, sphere_mean_of_beam,
                                tuy_identity_check, y_radon_recovery)

NU, F0 = 1.0, 1.3 + 0.4j
LUND = Lundquist(F0=F0, nu=NU, lam=1)
GRID = PolarSphereGrid(48, 96)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def radon_dp(s, pl):
    """d/dp F_R = i nu (a - b) sqrt(2 pi)/nu^2 at nu = NU, helicity +1."""
    a, b = radon_moses_pair(NU, 1, s, np.array([pl.p]), pl.kappa[None])
    return np.sqrt(2 * np.pi) / NU**2 * (1j * NU * (a[0] - b[0]))


# --------------------------------------------------------------------------
# reconstructions from closed-form beams
# --------------------------------------------------------------------------

def test_spherical_mean_lundquist():
    xb = lundquist_xray_beam(F0, NU, 1)
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.standard_normal(3) * 1.5
        F = eval_field(LUND, x)
        got = invert_spherical_mean(xb, x, NU, GRID)
        assert np.linalg.norm(got - F) <= 1e-6 * np.linalg.norm(F)


def test_grid_nodes_built_once_and_cross_mean_has_np_cross_bits():
    # the nodes are shared, read-only, by every call; theta x beam is formed from
    # components with np.cross's products and differences, so it keeps its bits
    grid = PolarSphereGrid(33, 64)
    nodes = grid.nodes()
    assert grid.nodes() is nodes and not nodes.flags.writeable
    rng = np.random.default_rng(16)
    table = rng.standard_normal((len(nodes.reshape(-1, 3)), 3)) * 10.0 ** rng.uniform(-8, 8, 3)
    table = table + 1j * table[::-1]
    table[rng.random(table.shape) < 0.05] = 0.0
    beam = BeamFunction(fn=lambda th, x: table * (th[:, :1] + x[0]), kind="D")
    x = np.array([0.3, -0.2, 0.5])
    for sign in (1, -1):
        flat = sign * nodes.reshape(-1, 3)
        want = grid.integrate_smooth(np.cross(nodes.reshape(-1, 3), beam.fn(flat, x))
                                     .reshape(nodes.shape[:2] + (3,)))
        got = sphere_mean_of_beam(beam, x, grid, sign, cross=True)
        assert got.tobytes() == want.tobytes(), sign



@pytest.mark.parametrize("shape", [(64, 128), (33, 64), (32, 63)])
def test_reduced_mean_per_azimuth_matches_node_sum(shape):
    # a reduced Lundquist beam is called once per distinct azimuth of sign theta and
    # summed against each azimuth's grid weights (times theta when cross); that is
    # the node-by-node gather-and-sum of the same beam in another order.  The
    # y-mirror of helicity -1 partitions the nodes the same way: arctan2 is odd in y
    grid = PolarSphereGrid(*shape)
    flat = grid.nodes().reshape(-1, 3)
    for t in (flat, -flat):
        az = np.arctan2(t[:, 1], t[:, 0])
        assert np.array_equal(np.arctan2(-t[:, 1], t[:, 0]).view(np.int64), (-az).view(np.int64))
    pts = np.random.default_rng(18).standard_normal((5, 3)) * 1.5
    for lam in (1, -1):
        for beam, cross in ((lundquist_xray_beam(F0, NU, lam), False),
                            (lundquist_dbeam_beam(F0, NU, lam), False),
                            (lundquist_dbeam_beam(F0, NU, lam), True)):
            for sign in (1, -1):
                got = sphere_mean_of_beam(beam, pts, grid, sign, cross)
                for x, g in zip(pts, got):
                    vals = beam.reduced(sign * flat, x)
                    if cross:
                        vals = np.cross(flat, vals)
                    # the node sum over azimuths, then the polar weights (no sin: reduced)
                    want = (2.0 * np.pi / grid.n_psi) * np.tensordot(
                        grid.alpha_weights, vals.reshape(shape + (3,)).sum(axis=1), axes=(0, 0))
                    assert np.linalg.norm(g - want) <= 4e-15 * np.linalg.norm(want), \
                        (beam.kind, cross, lam, sign)
                    assert np.array_equal(sphere_mean_of_beam(beam, x, grid, sign, cross), g)

def test_spherical_mean_zero_beam():
    zb = BeamFunction(fn=lambda th, x: np.zeros((len(np.atleast_2d(th)), 3), complex),
                      kind="X")
    assert np.linalg.norm(invert_spherical_mean(zb, [0.3, 0, 0], NU, GRID)) == 0.0


def test_grangeat_lundquist_both_signs():
    db = lundquist_dbeam_beam(F0, NU)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.standard_normal(3) * 1.5
        F = eval_field(LUND, x)
        plus = invert_grangeat(db, x, NU, GRID, +1)
        minus = invert_grangeat(db, x, NU, GRID, -1)
        assert np.linalg.norm(plus - F) <= 1e-6 * np.linalg.norm(F)
        assert np.linalg.norm(plus - minus) <= 1e-8


def test_gg_mean_lundquist_and_half_of_whole():
    db = lundquist_dbeam_beam(F0, NU)
    xb = lundquist_xray_beam(F0, NU, 1)
    x = np.array([0.7, -0.4, 0.9])
    F = eval_field(LUND, x)
    got = gg_spherical_mean(db, x, NU, GRID)
    assert np.linalg.norm(got - F) <= 1e-6 * np.linalg.norm(F)
    # half-line mean equals half the whole-line mean by orientation symmetry
    sm = invert_spherical_mean(xb, x, NU, GRID)
    assert np.linalg.norm(got - sm) <= 1e-10


def test_kind_validation_and_pole_guard():
    db = lundquist_dbeam_beam(F0, NU)
    with pytest.raises(ValueError):
        invert_spherical_mean(db, [0.1, 0, 0], NU, GRID)
    bad = BeamFunction(
        fn=lambda th, x: 1.0 / np.hypot(np.atleast_2d(th)[:, 0],
                                        np.atleast_2d(th)[:, 1])[:, None] *
        np.ones(3), kind="X")
    with pytest.raises(PoleSingularity):
        invert_spherical_mean(bad, [0.1, 0, 0], NU, GRID)
    with pytest.raises(ValueError):
        BeamFunction(fn=lambda th, x: None, kind="Z")
    with pytest.raises(ValueError):
        invert_grangeat(db, [0.1, 0, 0], NU, GRID, sign=2)


def test_pole_guard_refuses_domain_errors_only():
    # a beam refusing the pole probe as a degenerate ray is a pole singularity;
    # a beam with a bug raises its own error
    def refuse(th, x):
        raise DegenerateRay("theta is parallel to the axis")

    def broken(th, x):
        return th[:, 5]
    for kind, mean in (("X", invert_spherical_mean), ("D", gg_spherical_mean)):
        with pytest.raises(PoleSingularity):
            mean(BeamFunction(fn=refuse, kind=kind), [0.1, 0, 0], NU, GRID)
        with pytest.raises(IndexError):
            mean(BeamFunction(fn=broken, kind=kind), [0.1, 0, 0], NU, GRID)
        with pytest.raises(TypeError):
            mean(BeamFunction(fn=lambda th: th, kind=kind), [0.1, 0, 0], NU, GRID)


# --------------------------------------------------------------------------
# reconstructions from transform-space beams
# --------------------------------------------------------------------------

def test_spherical_mean_band_limited():
    rng = np.random.default_rng(2)
    s = SphericalFunction.random(4, rng, min_abs_m=2)
    xbm = moses_xray_beam(NU, 1, s, circle_n=512)
    x = np.array([0.3, -0.2, 0.4])
    want = synthesize_moses(NU, 1, s, x, make_polar_sphere_quadrature(48))
    # an odd grid has a row on the equator, whose great circles pass the poles
    for grid in (GRID, PolarSphereGrid(49, 96)):
        got = invert_spherical_mean(xbm, x, NU, grid)
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_grangeat_intermediate_and_gg_recovery():
    rng = np.random.default_rng(3)
    s = SphericalFunction.random(5, rng, min_abs_m=3)
    kap = unit([0.3, 0.7, 0.65])
    x = np.array([0.3, -0.2, 0.4])
    pl = Plane(p=float(kap @ x), kappa=kap)
    dbm = moses_dbeam_beam(NU, 1, s, circle_n=192, pv=PVRule(48, 96))
    got = grangeat_intermediate(dbm, kap, x, circle_n=96, h=1e-3)
    want = radon_dp(s, pl)
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    dbm2 = moses_dbeam_beam(NU, 1, s, circle_n=128, pv=PVRule(32, 64))
    got2 = gg_radon_recovery(dbm2, kap, x, NU, PVRule(40, 80))
    want2 = radon_moses(NU, 1, s, pl)
    assert np.linalg.norm(got2 - want2) <= 1e-5 * np.linalg.norm(want2)

    # zero beams
    zb = BeamFunction(fn=lambda th, xx: np.zeros((len(np.atleast_2d(th)), 3), complex),
                      kind="D")
    assert np.linalg.norm(grangeat_intermediate(zb, kap, x)) == 0.0
    assert np.linalg.norm(gg_radon_recovery(zb, kap, x, NU)) == 0.0


def test_y_radon_recovery():
    rng = np.random.default_rng(4)
    s = SphericalFunction.random(5, rng, min_abs_m=3)
    kap = unit([0.3, 0.7, 0.65])
    x = np.array([0.3, -0.2, 0.4])

    yb = moses_ybeam_beam(NU, 1, s, PVRule(48, 96))
    # the engine's signed beam against the PV rule on the sphere integrand
    dirs = np.vstack([unit(rng.standard_normal(3)) for _ in range(4)] + [kap])
    oracle = ((2.0 * np.pi) ** (-0.5) / NU) * (1j / np.pi) * \
        PVRule(48, 96).pv_sphere_batch(moses_sphere_data(NU, 1, s, x), dirs)
    assert np.linalg.norm(yb.fn(dirs, x) - oracle) <= 1e-12 * np.linalg.norm(oracle)
    got = y_radon_recovery(yb, kap, x, NU, circle_n=96, h=1e-3)
    want = radon_moses(NU, 1, s, Plane(p=float(kap @ x), kappa=kap))
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_grangeat_perpendicularity_constraint():
    """The polar-offset derivative integral of half-line data stays
    perpendicular to the plane normal (transport-equation consistency).

    On the exact closed-form beam the normal component vanishes to 1e-8
    (absolutely, at its O(1) beam scale); on quadrature-valued beams it is
    bounded by the beam accuracy itself.
    """
    kap = unit([0.2, 0.4, 0.89])
    x = np.array([0.5, 0.1, -0.3])
    db = lundquist_dbeam_beam(F0, NU)
    dint_l = grangeat_intermediate(db, kap, x, circle_n=96, h=1e-3)
    assert abs(kap @ dint_l) <= 1e-8
    # the Lundquist plane transform is supported on the equatorial normals, so
    # its derivative integral vanishes identically away from them
    assert np.linalg.norm(dint_l) <= 1e-10

    rng = np.random.default_rng(7)
    s = SphericalFunction.random(4, rng, min_abs_m=2)
    dbm = moses_dbeam_beam(NU, 1, s, circle_n=128, pv=PVRule(32, 64))
    dint = grangeat_intermediate(dbm, kap, x, circle_n=96, h=1e-3)
    want = radon_dp(s, Plane(p=float(kap @ x), kappa=kap))
    beam_err = np.linalg.norm(dint - want)
    assert abs(kap @ dint) <= 2.0 * beam_err


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

def test_smith_and_tuy_checks():
    rng = np.random.default_rng(5)
    s = SphericalFunction.random(6, rng)
    th = unit([0.4, 0.5, 0.77])
    x = np.array([0.3, -0.2, 0.4])
    assert smith_identity_check(NU, 1, s, th, x) <= 1e-8
    assert tuy_identity_check(NU, 1, s, th, x) <= 1e-7
    # translation invariance along the ray direction
    assert smith_identity_check(NU, 1, s, th, x + 0.9 * th) <= 1e-8
    # zero data gives zero residual numerator
    z = SphericalFunction(2, np.zeros(9))
    assert smith_identity_check(NU, 1, z, th, x) == 0.0
    # recomposition: D(th) + D(-th) recovers the whole-line transform
    from beltrami.rays import dbeam_via_extfunk, xray_via_funk_batch
    pv = PVRule(48, 96)
    D1 = dbeam_via_extfunk(NU, 1, s, th, x, 256, pv)
    D2 = dbeam_via_extfunk(NU, 1, s, -th, x, 256, pv)
    X = xray_via_funk_batch(NU, 1, s, th, x, 256)
    assert np.linalg.norm(D1 + D2 - X) <= 1e-8 * np.linalg.norm(X)


# --------------------------------------------------------------------------
# operator algebra
# --------------------------------------------------------------------------

def test_riesz_scalings():
    assert riesz_factor(1.4, 0.0) == 1.0
    assert abs(riesz_factor(1.4, 2.0) - 1.4 ** -2) <= 1e-15
    with pytest.raises(ValueError):
        riesz_factor(1.0, 3.0)
    # the order-2 Riesz potential inverts -Laplacian = curl curl on a
    # divergence-free field
    spec = Lundquist(F0=F0, nu=1.4, lam=1)
    fld = lambda p: eval_field(spec, p)
    curl = lambda pts: curl_fd(fld, pts)
    x = np.array([0.4, 0.2, 0.1])
    got = riesz_factor(1.4, 2.0) * curl_fd(curl, x)
    assert np.linalg.norm(got - fld(x)) <= 1e-7 * np.linalg.norm(fld(x))


def test_bs_family():
    # the Biot-Savart integral of a curl eigenfield is the field over nu_s:
    # its curl gives the field back, for either helicity
    x = np.array([0.4, 0.2, 0.1])
    for lam in (1, -1):
        spec = Lundquist(F0=F0, nu=1.4, lam=lam)
        bs = lambda p: eval_field(spec, p) / eigenvalue(spec)
        want = eval_field(spec, x)
        assert np.linalg.norm(curl_fd(bs, x) - want) <= 1e-8 * np.linalg.norm(want)


def test_rbs_moses_identities():
    rng = np.random.default_rng(6)
    s = SphericalFunction.random(5, rng)
    kap = unit([0.3, 0.7, 0.65])
    pl = Plane(p=0.3, kappa=kap)
    got = rbs_moses(NU, 1, s, pl)
    assert np.linalg.norm(got - radon_moses(NU, 1, s, pl) / NU) <= 1e-13
    assert rbs_dp_residual(NU, 1, s, pl) <= 1e-10


def test_ybeam_antisymmetry():
    yb = lundquist_ybeam_beam(F0, NU)
    th = unit([0.5, 0.5, 0.7])[None, :]
    x = np.array([0.4, -0.1, 0.0])
    assert np.linalg.norm(yb.fn(th, x) + yb.fn(-th, x)) <= 1e-12
