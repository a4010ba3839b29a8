import dataclasses

import numpy as np
import pytest

from beltrami.geometry import Plane, PolarSphereGrid, make_polar_sphere_quadrature
from beltrami.harmonics import SphericalFunction
from beltrami.fields import (Lundquist, curl_fd, eigenvalue, eval_field, radon_moses,
                             radon_moses_many, synthesize_moses)
from beltrami.sphere import PVRule
from beltrami.rays import DegenerateRay, moses_sphere_data
from beltrami.inversion import (BeamFunction, PoleSingularity, gg_radon_recovery,
                                gg_spherical_mean, grangeat_intermediate,
                                invert_grangeat, invert_spherical_mean,
                                lundquist_dbeam_beam, lundquist_xray_beam,
                                lundquist_ybeam_beam, moses_dbeam_beam,
                                moses_xray_beam, moses_ybeam_beam, riesz_factor,
                                smith_identity_check, sphere_mean_of_beam,
                                tuy_identity_check, y_radon_recovery)

NU, F0 = 1.0, 1.3 + 0.4j
LUND = Lundquist(F0=F0, nu=NU, lam=1)
GRID = PolarSphereGrid(48, 96)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def radon_dp(s, pl):
    """d/dp F_R, the multiplier pair (i nu, -i nu), at nu = NU, helicity +1."""
    return radon_moses_many(NU, 1, s, [pl.p], [pl.kappa], 1j * NU, -1j * NU)[0]


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



@pytest.mark.parametrize("shape", [(64, 128), (32, 64), (33, 63)])
def test_reduced_mean_per_azimuth_matches_node_sum(shape):
    # a reduced Lundquist beam depends on sign theta only through its azimuth, so
    # its polar integral is closed (pi, or 2 e(psi) x the beam when cross) and the
    # mean is a sum over the n_psi azimuths.  It is the 2-D grid sum over every
    # node, weight alpha_weights 2 pi/n_psi (no sin: reduced), theta x the beam
    # when cross, up to the polar rule's error on Int sin(alpha) dalpha
    grid = PolarSphereGrid(*shape)
    flat = grid.nodes().reshape(-1, 3)
    pts = np.random.default_rng(18).standard_normal((5, 3)) * 1.5
    for lam in (1, -1):
        for beam, cross in ((lundquist_xray_beam(F0, NU, lam), False),
                            (lundquist_dbeam_beam(F0, NU, lam), False),
                            (lundquist_dbeam_beam(F0, NU, lam), True)):
            for sign in (1, -1):
                got = sphere_mean_of_beam(beam, pts, grid, sign, cross)
                for x, g in zip(pts, got):
                    vals = beam.reduced(sign * flat, x)
                    terms = (np.cross(flat, vals) if cross else vals).reshape(shape + (3,))
                    want = (2.0 * np.pi / grid.n_psi) * np.tensordot(
                        grid.alpha_weights, terms.sum(axis=1), axes=(0, 0))
                    assert np.linalg.norm(g - want) <= 1e-14 * np.linalg.norm(want), \
                        (beam.kind, cross, lam, sign)
                    assert np.array_equal(sphere_mean_of_beam(beam, x, grid, sign, cross), g)


def test_reduced_mean_takes_no_polar_rule(monkeypatch):
    # the polar rule does not enter a reduced mean: its bytes are the same on 64 and
    # on 4 polar nodes.  The reduced beam is called on the n_psi horizontal
    # directions sign e(psi) alone, from MEAN_BLOCK // n_psi points at a time, and
    # the blocks do not change a row's bytes
    import beltrami.inversion as inversion
    psi = 2.0 * np.pi * np.arange(128) / 128
    e = np.stack([np.cos(psi), np.sin(psi), np.zeros(128)], axis=-1)
    pts = np.random.default_rng(19).standard_normal((12, 3)) * 1.5
    for lam in (1, -1):
        for make, cross, sign in ((lundquist_xray_beam, False, 1),
                                  (lundquist_dbeam_beam, False, -1),
                                  (lundquist_dbeam_beam, True, 1),
                                  (lundquist_dbeam_beam, True, -1)):
            beam, calls = make(F0, NU, lam), []
            spy = BeamFunction(beam.fn, beam.kind, lambda th, x: calls.append(
                (np.array(th), np.shape(x))) or beam.reduced(th, x), order=beam.order)
            fine = sphere_mean_of_beam(spy, pts, PolarSphereGrid(64, 128), sign, cross)
            coarse = sphere_mean_of_beam(spy, pts, PolarSphereGrid(4, 128), sign, cross)
            assert fine.tobytes() == coarse.tobytes(), (lam, cross, sign)
            assert [np.array_equal(th, sign * e) and shape for th, shape in calls] == \
                [(12, 1, 3)] * 2
            with monkeypatch.context() as m:
                m.setattr(inversion, "MEAN_BLOCK", 5 * 128)
                calls.clear()
                blocks = sphere_mean_of_beam(spy, pts, PolarSphereGrid(64, 128), sign, cross)
            assert [shape for _, shape in calls] == [(5, 1, 3), (5, 1, 3), (2, 1, 3)]
            assert blocks.tobytes() == fine.tobytes()


FAR_NU = 1.1


def _far_points(nu_r, n, rng):
    """n points at cylindrical radius nu_r / FAR_NU, at random azimuths and heights."""
    phi, rho = rng.uniform(0.0, 2.0 * np.pi, n), nu_r / FAR_NU
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), rng.standard_normal(n)], axis=1)


def _far_means(lam, spy=lambda beam: beam):
    """The three closed-form inversions at helicity lam, as (name, points -> values), of
    the beams spy(beam)."""
    xb, db = (spy(make(F0, FAR_NU, lam)) for make in (lundquist_xray_beam, lundquist_dbeam_beam))
    grid = PolarSphereGrid(64, 128)
    return (("spherical-mean", lambda p: invert_spherical_mean(xb, p, FAR_NU, grid)),
            ("gg", lambda p: gg_spherical_mean(db, p, FAR_NU, grid)),
            ("grangeat", lambda p: invert_grangeat(db, p, lam * FAR_NU, grid)))


@pytest.mark.parametrize("lam", [1, -1])
def test_far_closed_form_means_take_the_series_azimuths(lam):
    # a reduced Lundquist beam is a Fourier series in psi to the order of nu rho
    # (140 at nu rho = 88, 642 at 550); on the grid's 128 azimuths the trapezoid folded
    # its top orders into the mean, errors of order 1 from nu rho = 132 on.  The
    # azimuths double until they exceed that order + 2, so every mode holds 1e-12
    rng = np.random.default_rng(3)
    pts = np.concatenate([_far_points(nu_r, 2, rng) for nu_r in (88, 132, 220, 550)] +
                         [_far_points(2000.0, 1, rng)])
    F = eval_field(Lundquist(F0=F0, nu=FAR_NU, lam=lam), pts)
    for name, mean in _far_means(lam):
        err = np.linalg.norm(mean(pts) - F, axis=1) / np.linalg.norm(F, axis=1)
        assert err.max() <= 1e-12, (name, err)


def test_far_closed_form_rows_keep_their_bytes_in_any_batch():
    # the points of each azimuth count go together, so a row has the bytes it has
    # alone in a batch that mixes near and far points; near points keep 128 azimuths
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.standard_normal((3, 3)) * 1.5, _far_points(88, 2, rng),
                          _far_points(300, 1, rng)])[[0, 3, 1, 5, 4, 2]]
    calls = []

    def spy(beam):
        return dataclasses.replace(beam, reduced=lambda th, x: calls.append(
            (len(x), len(th))) or beam.reduced(th, x))
    for lam in (1, -1):
        for name, mean in _far_means(lam, spy):
            calls.clear()
            batch = mean(pts)
            assert calls == [(3, 128), (2, 256), (1, 512)], name
            for p, row in zip(pts, batch):
                assert mean(p).tobytes() == row.tobytes(), (lam, name)


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


MEANS = (("X", invert_spherical_mean), ("D", gg_spherical_mean), ("D", invert_grangeat))


def _diverging(kind):
    """A beam of the kind that grows like 1/v_r at the poles, without a reduced form."""
    return BeamFunction(fn=lambda th, x: 1.0 / np.hypot(th[:, 0], th[:, 1])[:, None] *
                        np.ones(3), kind=kind)


def test_kind_validation_and_pole_guard():
    db = lundquist_dbeam_beam(F0, NU)
    xb = lundquist_xray_beam(F0, NU)
    for kind, mean in MEANS:
        with pytest.raises(ValueError, match="consumes"):
            mean(db if kind == "X" else xb, [0.1, 0, 0], NU, GRID)
        with pytest.raises(PoleSingularity):
            mean(_diverging(kind), [0.1, 0, 0], NU, GRID)
    with pytest.raises(ValueError):
        BeamFunction(fn=lambda th, x: None, kind="Z")
    with pytest.raises(ValueError):
        invert_grangeat(db, [0.1, 0, 0], NU, GRID, sign=2)
    # the inverse-square recovery's finite-part rule samples the axis directions: it
    # refuses a beam with a reduced form (the Lundquist D beam, for which PVRule(n, 2n)
    # at n = 32, 64, 128 gave z components 0.078, -0.0075, -0.197) and a diverging one
    kap, x = unit([0.3, 0.7, 0.65]), np.array([0.3, -0.2, 0.4])
    with pytest.raises(ValueError, match="consumes"):
        gg_radon_recovery(xb, kap, x, NU)
    for beam in (db, _diverging("D")):
        with pytest.raises(PoleSingularity):
            gg_radon_recovery(beam, kap, x, NU, PVRule(32, 64))


def test_pole_guard_is_one_beam_call_for_all_points():
    # 2P probe rows, the two poles of each point from that point; the means then
    # call the beam once per point
    pts = np.array([[0.1, 0.0, 0.0], [0.0, -0.2, 0.3], [0.5, 0.4, -0.1]])
    for kind, mean in MEANS:
        for beam in (_diverging(kind), BeamFunction(
                fn=lambda th, x: np.zeros((len(th), 3), complex), kind=kind)):
            calls = []
            spy = BeamFunction(fn=lambda th, x, fn=beam.fn: calls.append((th, x)) or fn(th, x),
                               kind=kind)
            try:
                mean(spy, pts, NU, PolarSphereGrid(8, 16))
            except PoleSingularity:
                assert len(calls) == 1, kind
            else:
                assert len(calls) == 1 + len(pts), kind
            th, x = calls[0]
            assert th.shape == x.shape == (6, 3)
            assert np.array_equal(x, np.repeat(pts, 2, axis=0))
            assert np.array_equal(np.sign(th[:, 2]), np.tile([1.0, -1.0], len(pts)))
            assert np.all(np.hypot(th[:, 0], th[:, 1]) <= 1e-8)


def test_pole_guard_refuses_domain_errors_only():
    # a beam refusing the pole probe as a degenerate ray is a pole singularity;
    # a beam with a bug raises its own error
    def refuse(th, x):
        raise DegenerateRay("theta is parallel to the axis")

    def broken(th, x):
        return th[:, 5]
    for kind, mean in MEANS:
        with pytest.raises(PoleSingularity):
            mean(BeamFunction(fn=refuse, kind=kind), [0.1, 0, 0], NU, GRID)
        with pytest.raises(IndexError):
            mean(BeamFunction(fn=broken, kind=kind), [0.1, 0, 0], NU, GRID)
        with pytest.raises(TypeError):
            mean(BeamFunction(fn=lambda th: th, kind=kind), [0.1, 0, 0], NU, GRID)
    with pytest.raises(PoleSingularity):                 # the inverse-square recovery's guard
        gg_radon_recovery(BeamFunction(fn=refuse), [0, 0.6, 0.8], [0.1, 0, 0], NU)
    with pytest.raises(IndexError):
        gg_radon_recovery(BeamFunction(fn=broken), [0, 0.6, 0.8], [0.1, 0, 0], NU)


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


def test_gg_recovery_ring_blocks(monkeypatch):
    """The check suite's D beam at circle 128 and PV 32x64 on the PVRule(40, 80)
    finite-part nodes, 3,240 axes from one source.  A block is sized by its members'
    2,112 first nodes (of 4,224 columns), so rings of one go 7 to a block and rings of
    two 3, against 3 and 1 when sized by the columns; Q is taken once per antipodal
    pair, on the block's first-node planes (3, B, 2112), and no work buffer holds
    complex 3-vectors, as the (B, 2, m, 3) Q and sigma conj Q buffer and the (B, 4224,
    3) weighted-column array did.  gg_radon_recovery itself reads the beam's even part,
    X/2, so after its pole guard's probe (one block of its two near-pole axes, rings of
    one, on D's nodes) each of its blocks is great-circle only: 64 first nodes."""
    import beltrami.rays as rays
    blocks, q_nodes, buffers = [], [], []
    block, q_planes, buffer = rays._ring_block, rays.moses_q_planes, rays._buffer

    def spy_block(nu, lam, s, th, *args):
        blocks.append(th.shape[:2])
        return block(nu, lam, s, th, *args)

    def spy_buffer(work, key, shape, dtype=complex):
        buffers.append((shape, dtype))
        return buffer(work, key, shape, dtype)

    monkeypatch.setattr(rays, "_ring_block", spy_block)
    monkeypatch.setattr(rays, "_buffer", spy_buffer)
    monkeypatch.setattr(rays, "moses_q_planes",
                        lambda k, lam, out: q_nodes.append(k.shape) or q_planes(k, lam, out))
    s = SphericalFunction.random(5, np.random.default_rng(3), min_abs_m=3)
    x = np.array([0.3, -0.2, 0.4])
    kap = unit([0.3, 0.7, 0.65])
    dbm = moses_dbeam_beam(NU, 1, s, circle_n=128, pv=PVRule(32, 64))
    gg_radon_recovery(dbm, kap, x, NU, PVRule(40, 80))
    assert q_nodes.pop(0) == (3, 2, 2112)
    assert blocks.pop(0) == (2, 1)                          # the pole guard's probe
    assert blocks and q_nodes == [(3, B, 64) for B, _ in blocks]
    for log in (blocks, q_nodes, buffers):
        log.clear()
    PVRule(40, 80).fp_sphere(lambda th: dbm.fn(th, x), kap)
    assert q_nodes == [(3, B, 2112) for B, _ in blocks]
    per = {R: [B for B, r in blocks if r == R] for R in (1, 2)}   # rings per block, by size
    assert len(blocks) == len(per[1]) + len(per[2]) and sum(per[1]) + 2 * sum(per[2]) == 3240
    assert set(per[1][:-1]) == {7} and set(per[2][:-1]) == {3}
    assert len(blocks) <= 499                               # 1,329 when sized by the columns
    assert buffers and not [b for b in buffers if b[1] is complex and b[0][-1] == 3]


@pytest.mark.parametrize("lam", [1, -1])
def test_dbeam_even_part_is_half_the_whole_line(lam):
    # D(theta) + D(-theta) = X: the even part of a transform-space half-line beam is
    # X/2 on the great circles alone, from a shared source and from one per row, in
    # random, axis, near-pole and equatorial directions
    rng = np.random.default_rng(21)
    s = SphericalFunction.random(5, rng)
    dbm = moses_dbeam_beam(NU, lam, s, circle_n=128, pv=PVRule(32, 64))
    psi = rng.uniform(0.0, 2.0 * np.pi, 4)
    dirs = np.concatenate([rng.standard_normal((6, 3)), [[0, 0, 1], [0, 0, -1], [1e-9, 0, 1]],
                           np.stack([np.cos(psi), np.sin(psi), np.zeros(4)], axis=1)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for x in (np.array([0.3, -0.2, 0.4]), rng.standard_normal(dirs.shape)):
        want = 0.5 * (dbm.fn(dirs, x) + dbm.fn(-dirs, x))
        got = dbm.even(dirs, x)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), x.shape


def test_even_kernel_routes_agree_with_the_whole_beam():
    # the half-line mean (kernel 1) and the inverse-square recovery (kernel 1/(theta.b)^2)
    # read the even part; with the whole beam in its place they agree to rounding, on
    # the 32x64 and 33x65 grids and for a beam whose PV rule has odd n_psi (its
    # axes still pair theta with -theta)
    s = SphericalFunction.random(5, np.random.default_rng(3), min_abs_m=3)
    x, kap = np.array([0.3, -0.2, 0.4]), unit([0.3, 0.7, 0.65])
    want_plane = radon_moses(NU, 1, s, Plane(p=float(kap @ x), kappa=kap))
    for pv, grids in ((PVRule(24, 48), ((32, 64), (33, 65))), (PVRule(24, 47), ((32, 64),))):
        dbm = moses_dbeam_beam(NU, 1, s, circle_n=128, pv=pv)
        whole = dataclasses.replace(dbm, even=dbm.fn)
        for grid in map(PolarSphereGrid, *zip(*grids)):
            got, want = (gg_spherical_mean(b, x, NU, grid) for b in (dbm, whole))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (pv, grid)
        got, want = (gg_radon_recovery(b, kap, x, NU, PVRule(24, 48)) for b in (dbm, whole))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), pv
        # a finite-part rule with odd n_psi pairs no node with its antipode, so the
        # whole beam's odd part leaves its quadrature error, which the even part has not
        got, want = (gg_radon_recovery(b, kap, x, NU, PVRule(24, 51)) for b in (dbm, whole))
        assert np.linalg.norm(got - want_plane) < np.linalg.norm(want - want_plane), pv
    # a beam without even reads fn, and one whose fn is replaced reads the new fn
    plain = BeamFunction(fn=dbm.fn)
    want = gg_spherical_mean(whole, x, NU, GRID)
    assert gg_spherical_mean(plain, x, NU, GRID).tobytes() == want.tobytes()
    assert gg_radon_recovery(plain, kap, x, NU, PVRule(24, 48)).tobytes() == \
        gg_radon_recovery(whole, kap, x, NU, PVRule(24, 48)).tobytes()
    xbm = moses_xray_beam(NU, 1, s, circle_n=128)
    twice = dataclasses.replace(xbm, fn=lambda th, xx: 2.0 * xbm.fn(th, xx))
    assert np.array_equal(invert_spherical_mean(twice, x, NU, GRID),
                          2.0 * invert_spherical_mean(xbm, x, NU, GRID))


def test_beam_and_grid_refuse_what_the_mean_cannot_size():
    # a reduced form without its azimuthal order, and a grid without azimuths
    beam = lundquist_dbeam_beam(F0, NU, 1)
    with pytest.raises(ValueError, match="azimuthal order"):
        BeamFunction(beam.fn, "D", beam.reduced)
    with pytest.raises(ValueError, match="azimuth"):
        PolarSphereGrid(64, 0)


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


def test_recoveries_take_kappa_as_a_direction():
    # 2b is the direction b: the inverse-square recovery agrees to 1e-13; the two
    # derivative rules to 1e-12, as their steps h = 1e-3 magnify the last-bit
    # difference between b and 2b/|2b| by 1/h
    b = unit([0.3, 0.7, 0.65])
    x = np.array([0.3, -0.2, 0.4])
    s = SphericalFunction.random(5, np.random.default_rng(3), min_abs_m=3)
    dm = moses_dbeam_beam(NU, 1, s, circle_n=64, pv=PVRule(16, 32))
    ym = moses_ybeam_beam(NU, 1, s, pv=PVRule(16, 32))
    for route, tol in ((lambda k: gg_radon_recovery(dm, k, x, NU, PVRule(16, 32)), 1e-13),
                       (lambda k: grangeat_intermediate(dm, k, x, circle_n=32), 1e-12),
                       (lambda k: y_radon_recovery(ym, k, x, NU, circle_n=32), 1e-12)):
        want = route(b)
        assert np.linalg.norm(route(2.0 * b) - want) <= tol * np.linalg.norm(want)


def test_grangeat_perpendicularity_constraint():
    """The polar-offset derivative integral of half-line data stays
    perpendicular to the plane normal (transport-equation consistency).

    On quadrature-valued beams the normal component is bounded by the beam
    accuracy itself.  The closed-form Lundquist beam diverges at the axis
    directions, which every great circle of the rule's offsets can pass, so the
    route refuses it.
    """
    kap = unit([0.2, 0.4, 0.89])
    x = np.array([0.5, 0.1, -0.3])
    with pytest.raises(PoleSingularity, match="half-line data diverges"):
        grangeat_intermediate(lundquist_dbeam_beam(F0, NU), kap, x, circle_n=96, h=1e-3)

    rng = np.random.default_rng(7)
    s = SphericalFunction.random(4, rng, min_abs_m=2)
    dbm = moses_dbeam_beam(NU, 1, s, circle_n=128, pv=PVRule(32, 64))
    dint = grangeat_intermediate(dbm, kap, x, circle_n=96, h=1e-3)
    want = radon_dp(s, Plane(p=float(kap @ x), kappa=kap))
    beam_err = np.linalg.norm(dint - want)
    assert abs(kap @ dint) <= 2.0 * beam_err


def test_derivative_recoveries_refuse_beams_diverging_at_the_axis():
    # at kappa = (1, 0.2, 0)/|.| the great circles pass the poles, where the Lundquist
    # beams diverge like 1/v_r: unguarded, the D beam read an x component of -1.41e5
    # and the Y beam a z component of 6.18e5 at circle 128, where the true value is 0
    kap = unit([1.0, 0.2, 0.0])
    x = np.array([0.3, -0.2, 0.4])
    with pytest.raises(PoleSingularity, match="half-line data diverges"):
        grangeat_intermediate(lundquist_dbeam_beam(F0, NU), kap, x, circle_n=128)
    with pytest.raises(PoleSingularity, match="signed data diverges"):
        y_radon_recovery(lundquist_ybeam_beam(F0, NU), kap, x, NU, circle_n=128)


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


def test_riesz_factor_of_a_signed_eigenvalue():
    # -Laplacian = curl curl has eigenvalue nu_s^2 on either helicity: |nu_s|^-alpha,
    # real; a zero or non-finite eigenvalue is refused
    for nu in (1.1, 0.3, 7.0):
        for alpha in (-1.0, 0.5, 1.0, 2.0, 2.5):
            got = riesz_factor(-nu, alpha)
            assert type(got) is float and got == riesz_factor(nu, alpha) == nu ** -alpha
    for bad in (0.0, -0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            riesz_factor(bad, 2.0)


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
    # Biot-Savart on the plane transform is i kappa x the pair (1/nu, -1/nu), which is
    # F_R/nu_s for either helicity; its d/dp, that pair times (i nu, -i nu), is
    # -kappa x F_R by the transport equation
    rng = np.random.default_rng(6)
    s = SphericalFunction.random(5, rng)
    kap = unit([0.3, 0.7, 0.65])
    nu = 1.25
    for lam in (1, -1):
        plane = lambda *pair: radon_moses_many(nu, lam, s, [0.3], [kap], *pair)[0]
        fr = plane()
        bs = 1j * np.cross(kap, plane(1.0 / nu, -1.0 / nu))
        assert np.linalg.norm(bs - fr / (lam * nu)) <= 1e-13 * np.linalg.norm(fr)
        dp_bs = 1j * np.cross(kap, plane(1j * nu * (1.0 / nu), -1j * nu * (-1.0 / nu)))
        assert np.linalg.norm(dp_bs + np.cross(kap, fr)) <= 1e-13 * np.linalg.norm(fr)


def test_dp_pair_against_a_central_difference():
    # the d/dp multiplier pair (i nu, -i nu) against a central difference of F_R in p,
    # an oracle that does not read the multiplier table
    rng = np.random.default_rng(9)
    h = 1e-5
    for lam, nu in ((1, 1.3), (-1, 0.9)):
        s = SphericalFunction.random(4, rng)
        kaps = np.array([unit(rng.standard_normal(3)) for _ in range(4)])
        ps = rng.uniform(-1.0, 1.0, 4)
        fd = (radon_moses_many(nu, lam, s, ps + h, kaps) -
              radon_moses_many(nu, lam, s, ps - h, kaps)) / (2.0 * h)
        got = radon_moses_many(nu, lam, s, ps, kaps, 1j * nu, -1j * nu)
        assert np.linalg.norm(got - fd) <= 1e-8 * np.linalg.norm(got)


def test_ybeam_antisymmetry():
    yb = lundquist_ybeam_beam(F0, NU)
    th = unit([0.5, 0.5, 0.7])[None, :]
    x = np.array([0.4, -0.1, 0.0])
    assert np.linalg.norm(yb.fn(th, x) + yb.fn(-th, x)) <= 1e-12
