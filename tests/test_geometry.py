import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltrami.geometry import (PolarSphereGrid, Plane, Ray, cis,
                               direction, frame_for, frame_planes, frames_for_many,
                               gauss_legendre, great_circle_nodes,
                               make_polar_sphere_quadrature, make_sphere_quadrature, normalize)
from beltrami.fields import moses_q_many
from beltrami.harmonics import ylm_matrix, lm_index
from beltrami.sphere import PVRule


unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: 1e-3 < np.linalg.norm(t) <= np.sqrt(3.0))


def test_direction_rejects_near_zero():
    with pytest.raises(ValueError):
        direction([1e-13, 0, 0])


def test_frame_for_pole_and_x_axis():
    fr = frame_for([0, 0, 1])
    assert np.allclose(fr.e1, [1, 0, 0])
    assert np.allclose(fr.e2, [0, 1, 0])
    fr = frame_for([1, 0, 0])
    assert np.allclose(fr.e1, [0, 1, 0])
    assert np.allclose(fr.e2, [0, 0, 1])


def test_frame_for_diagonal_orthonormal():
    d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    fr = frame_for(d)
    M = np.stack([fr.e1, fr.e2, fr.e3])
    assert np.max(np.abs(M @ M.T - np.eye(3))) <= 1e-12
    assert np.max(np.abs(np.cross(fr.e1, fr.e2) - fr.e3)) <= 1e-12


# inside the polar cutoff |z x d| <= 1e-8 but not on the axis
NEAR_POLE = (9e-9, 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(unit_vectors)
@example(NEAR_POLE)
def test_frame_for_right_handed(v):
    fr = frame_for(np.asarray(v))
    M = np.stack([fr.e1, fr.e2, fr.e3])
    assert np.max(np.abs(M @ M.T - np.eye(3))) <= 1e-12
    assert abs(np.linalg.det(M) - 1.0) <= 1e-12


def test_frames_for_many_matches_scalar():
    rng = np.random.default_rng(0)
    dirs = np.vstack([rng.standard_normal((40, 3)), NEAR_POLE])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    e1, e2 = frames_for_many(dirs)
    for i, d in enumerate(dirs):
        fr = frame_for(d)
        assert np.allclose(e1[i], fr.e1) and np.allclose(e2[i], fr.e2)
    M = np.stack([e1, e2, dirs], axis=1)
    assert np.max(np.abs(M @ np.swapaxes(M, 1, 2) - np.eye(3))) <= 1e-12
    # the scalar frame is a batch of one: the same bits
    d = np.array([0.3, 0.4, 0.5]) / np.linalg.norm([0.3, 0.4, 0.5])
    fr = frame_for(d)
    e1, e2 = frames_for_many(d[None])
    assert np.array_equal(fr.e1, e1[0]) and np.array_equal(fr.e2, e2[0])


def test_frames_and_helical_basis_pinned_to_the_bit():
    # the vector formulation of the frame, the polar cap and Q, against which
    # the component-wise kernels must not move a bit
    def frames_ref(d):
        zxd = np.stack([-d[..., 1], d[..., 0], np.zeros_like(d[..., 0])], axis=-1)
        n = np.linalg.norm(zxd, axis=-1, keepdims=True)
        polar = n[..., 0] <= 1e-8
        e1 = zxd / np.where(polar[..., None], 1.0, n)
        p = d[polar]
        v = np.array([1.0, 0.0, 0.0]) - p[:, 0:1] * p
        e1[polar] = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return e1, np.cross(d, e1)

    def cap(d):                                 # the frame kernel's polar-cap mask
        d = np.asarray(d)
        return frame_planes(np.array(d.reshape(-1, 3).T), np.empty((6, d.size // 3))).reshape(
            d.shape[:-1])

    rng = np.random.default_rng(11)
    special = np.array([[0, 0, 1], [0, 0, -1], [9e-9, 0, 1], [1e-8, 0, 1],
                        [0.6, 0.8, 0], [-1, 0, 0]], dtype=float)
    dirs = np.vstack([rng.standard_normal((10_000, 3)), special])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in (dirs, dirs[:6000].reshape(2, 3000, 3), dirs[-3]):
        e1, e2 = frames_for_many(d)
        r1, r2 = frames_ref(np.asarray(d))
        assert np.array_equal(e1, r1) and np.array_equal(e2, r2)
        assert np.array_equal(cap(d), np.linalg.norm(np.asarray(d)[..., :2], axis=-1) <= 1e-8)
        for lam in (1, -1):
            assert np.array_equal(moses_q_many(d, lam), (r1 + 1j * lam * r2) / np.sqrt(2.0))
    assert cap(special).tolist() == [True, True, True, True, False, False]


def test_ray_through_examples():
    ray = Ray.through([0, 0, 1], [0, 0, 1])
    assert np.allclose(ray.foot, 0.0)
    ray = Ray.through([0, 0, 1], [1, 2, 3])
    assert np.allclose(ray.foot, [1, 2, 0])


@settings(max_examples=60, deadline=None)
@given(unit_vectors, st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)))
def test_ray_through_orthogonality(th, x):
    ray = Ray.through(np.asarray(th), np.asarray(x))
    assert abs(ray.foot @ ray.theta) <= 1e-12


def test_ray_rejects_bad_foot():
    with pytest.raises(ValueError):
        Ray(theta=[0, 0, 1], foot=[0, 0, 0.5])


def test_sphere_quadrature_basics():
    quad = make_sphere_quadrature(8)
    assert abs(quad.weights.sum() - 4 * np.pi) <= 1e-12
    assert abs(quad.weights @ np.ones(len(quad.nodes)) - 4 * np.pi) <= 1e-12
    assert abs(quad.weights @ quad.nodes[:, 2] ** 2 - 4 * np.pi / 3) <= 1e-12
    y20 = lambda n: ylm_matrix(2, n)[lm_index(2, 0)]
    assert abs(quad.weights @ y20(quad.nodes)) <= 1e-12


def test_sphere_quadrature_harmonic_polynomials():
    rng = np.random.default_rng(1)
    L = 10
    quad = make_sphere_quadrature(L)
    # random harmonic combination of degree <= L-1 integrates to its l=0 part
    coeffs = rng.standard_normal((L, 2)) @ np.array([1.0, 1.0j])
    def f(nodes):
        Y = ylm_matrix(L - 1, nodes)
        out = coeffs[0] * np.sqrt(4 * np.pi) * np.ones(len(nodes), dtype=complex)
        for l in range(1, L):
            out += coeffs[l] * Y[lm_index(l, min(l, 2))]
        return out
    want = coeffs[0] * np.sqrt(4 * np.pi) * 4 * np.pi
    assert abs(quad.weights @ f(quad.nodes) - want) <= 1e-10


def test_sphere_quadrature_validation():
    quad = make_sphere_quadrature(4)
    with pytest.raises(ValueError):
        type(quad)(nodes=quad.nodes, weights=-quad.weights)
    with pytest.raises(ValueError):
        type(quad)(nodes=quad.nodes, weights=2 * quad.weights)


def test_polar_grid_smooth_and_reduced_agree():
    grid = PolarSphereGrid(24, 48)
    nodes = grid.nodes()
    vals = nodes[..., 2] ** 2  # cos^2(alpha)
    smooth = grid.integrate_smooth(vals)
    assert abs(smooth - 4 * np.pi / 3) <= 1e-12


def test_polar_quadrature_wrapper():
    quad = make_polar_sphere_quadrature(24)
    assert abs(quad.weights.sum() - 4 * np.pi) <= 1e-10
    assert abs(quad.weights @ quad.nodes[:, 0] ** 2 - 4 * np.pi / 3) <= 1e-10


def test_circle_quadrature():
    nodes = great_circle_nodes([0, 0, 1], 32)
    assert nodes.shape == (32, 3)
    assert np.max(np.abs(nodes @ np.array([0, 0, 1.0]))) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) <= 1e-15


def test_node_sets_pair_antipodes_bitwise():
    rng = np.random.default_rng(3)
    thetas = rng.standard_normal((5, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    thetas = np.vstack([thetas, [0.0, 0.0, 1.0], NEAR_POLE])
    for N in (8, 64):
        nodes = great_circle_nodes(thetas, N)
        assert np.array_equal(nodes[:, N // 2:], -nodes[:, : N // 2])
    for n_alpha, n_psi in ((32, 64), (33, 12), (5, 8)):
        grid = PolarSphereGrid(n_alpha, n_psi)
        nodes = grid.nodes()
        # theta(pi - alpha, psi) = -theta(alpha, psi + pi), the odd middle row included
        assert np.array_equal(nodes[::-1], -np.roll(nodes, -(n_psi // 2), axis=1))
        plain = np.stack([np.sin(grid.alphas)[:, None] * np.cos(grid.psis),
                          np.sin(grid.alphas)[:, None] * np.sin(grid.psis),
                          np.cos(grid.alphas)[:, None] * np.ones(n_psi)], axis=-1)
        assert np.max(np.abs(nodes - plain)) <= 1e-15
    # the PV and finite-part nodes: k_minus(u, psi) = -k_plus(u, psi + pi)
    rule = PVRule(12, 24)
    k_plus, k_minus, er = rule.nodes(thetas)
    assert np.array_equal(k_minus, -np.roll(k_plus, -12, axis=2))
    assert np.array_equal(er[:, 12:], -er[:, :12])


def test_pv_nodes_pinned_to_per_circle_arithmetic():
    # PVRule.nodes forms rho e_r and u a once for both circles k.a = +-u: each node
    # has the bits of rho e_r + u a and rho e_r - u a taken circle by circle, on the
    # great-circle nodes e_r, signed zeros included, the poles and a near-pole axis too
    rng = np.random.default_rng(11)
    axes = rng.standard_normal((96, 3))
    axes[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], NEAR_POLE, [1.0, 0.0, 0.0]]
    axes = normalize(axes)
    same = lambda a, b: np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    for n_u, n_psi in ((48, 96), (20, 40), (3, 8)):
        rule = PVRule(n_u, n_psi)
        k_plus, k_minus, er = rule.nodes(axes)
        assert same(er, great_circle_nodes(axes, n_psi))
        for i, u in enumerate(rule.u_rule()[0]):
            rho_er, ua = np.sqrt(1.0 - u * u) * er, u * axes[:, None, :]
            assert same(k_plus[:, i], rho_er + ua) and same(k_minus[:, i], rho_er - ua)


def test_gauss_legendre_interval():
    x, w = gauss_legendre(12, 0.0, np.pi)
    assert abs(w @ np.sin(x) - 2.0) <= 1e-12


def test_normalize_keeps_unit_rows_and_divides_the_rest():
    # one rule for every direction: a row within 1e-15 of unit norm keeps its bits,
    # any other is divided by its norm; a near-zero or non-finite row is refused
    # with its row.  Ray, Plane, direction and rays_through take the same rule
    from beltrami.geometry import rays_through
    unit = np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, -1.0], [0.6, 0.8, 0.0],
                     np.nextafter([0.6, 0.8, 0.0], 1.0)])
    other = np.array([[0.3, 0.4, 1.2], [0.0, 0.0, 2.0], [3.0, -4.0, 0.0]])
    n = np.linalg.norm(other, axis=-1, keepdims=True)
    assert np.array_equal(normalize(unit), unit)
    assert np.array_equal(np.signbit(normalize(unit)), np.signbit(unit))
    assert np.array_equal(normalize(other), other / n)
    for v in (*unit, *other):
        want = normalize(v)
        for got in (direction(v), Ray(v, [0, 0, 0]).theta, Ray.through(v, [0.1, 0.2, 0.3]).theta,
                    Plane(0.0, v).kappa, rays_through(v[None], v[None])[0][0]):
            assert np.array_equal(got, want)
    for bad, message in ((np.inf, "not finite"), (np.nan, "not finite"), (0.0, "near-zero")):
        rows = np.vstack([unit, [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match=message) as e:
            normalize(rows)
        assert e.value.row == len(unit)


def test_former_unit_rows_callers_refuse_a_non_finite_row():
    # every route that takes a direction normalizes it, so a non-finite row is refused
    # with its row rather than passed on as nan
    from beltrami.harmonics import SphericalFunction
    from beltrami.inversion import grangeat_intermediate, moses_dbeam_beam, \
        moses_ybeam_beam, y_radon_recovery
    from beltrami.rays import xray_via_funk_batch
    rows = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]])
    s = SphericalFunction.random(2, np.random.default_rng(4), min_abs_m=1)
    x = np.array([0.3, -0.2, 0.4])
    calls = {
        "frame_for": (lambda: frame_for(rows[2]), 0),
        "great_circle_nodes": (lambda: great_circle_nodes(rows, 8), 2),
        "PVRule.nodes": (lambda: PVRule(4, 8).nodes(rows), 2),
        "_ring_beams": (lambda: xray_via_funk_batch(1.0, 1, s, rows, x, 16), 2),
        "grangeat_intermediate": (lambda: grangeat_intermediate(
            moses_dbeam_beam(1.0, 1, s, circle_n=16, pv=PVRule(4, 8)), rows[3], x, 16), 0),
        "y_radon_recovery": (lambda: y_radon_recovery(
            moses_ybeam_beam(1.0, 1, s, pv=PVRule(4, 8)), rows[3], x, 1.0, 16), 0),
    }
    for name, (call, row) in calls.items():
        with pytest.raises(ValueError, match="norm is not finite") as e:
            call()
        assert e.value.row == row, name


def test_plane_normalizes():
    pl = Plane(p=1.0, kappa=[0, 0, 2.0])
    assert np.allclose(pl.kappa, [0, 0, 1])


def test_frame_for_continuity_away_from_pole():
    d = np.array([0.3, -0.5, 0.81])
    d /= np.linalg.norm(d)
    fr = frame_for(d)
    for _ in range(5):
        eps = 1e-7 * np.random.default_rng(2).standard_normal(3)
        fr2 = frame_for(d + eps)
        assert np.linalg.norm(fr2.e1 - fr.e1) <= 1e-6
        assert np.linalg.norm(fr2.e2 - fr.e2) <= 1e-6


# --------------------------------------------------------------------------
# the phase kernel cis(half) = e^{2i half}
# --------------------------------------------------------------------------

def _cis_error(half):
    """max |cis(half) - e^{2i half}| against mpmath, half (n,) exact doubles."""
    import mpmath
    got = cis(np.array(half, dtype=float))
    with mpmath.workdps(40):
        want = [mpmath.expj(2 * mpmath.mpf(float(h))) for h in half]
    return max(max(abs(float(w.real - z.real)), abs(float(w.imag - z.imag)))
               for w, z in zip(want, got))


def test_cis_against_mpmath():
    rng = np.random.default_rng(11)
    assert _cis_error(0.5 * rng.uniform(-1e4, 1e4, 1500)) <= 2.5e-16
    assert _cis_error(0.5 * rng.uniform(-4.0, 4.0, 500)) <= 2.5e-16
    tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]
    assert _cis_error(tiny + [1e200, -1e200, 5e199]) <= 2.5e-16
    # the doubles nearest odd multiples of pi, where tan of the half-angle is largest
    import mpmath
    with mpmath.workdps(40):
        odd = np.array([float(k * mpmath.pi) for k in (1, -1, 3, 5, -7, 101, 1001, 100001)])
    assert np.abs(np.tan(0.5 * odd)).min() > 1e10
    assert _cis_error(0.5 * odd) <= 2.5e-16
    z = cis(np.array(tiny))
    assert np.array_equal(z.real, np.ones(6))
    assert np.array_equal(np.signbit(z.imag), [False, True, False, True, False, True])


def test_cis_non_finite_is_nan():
    bad = np.array([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        z = cis(bad.copy())
        assert np.all(np.isnan(np.cos(bad))) and np.all(np.isnan(np.sin(bad)))
    assert np.all(np.isnan(z.real)) and np.all(np.isnan(z.imag))


def test_cis_is_position_independent():
    # an entry's bits do not depend on its neighbours, its position, the array's
    # layout or out=
    rng = np.random.default_rng(12)
    half = rng.uniform(-300.0, 300.0, 4099)
    ref = cis(half.copy())
    alone = np.array([cis(np.array([h]))[0] for h in half[:97]])
    assert np.array_equal(alone, ref[:97])
    assert np.array_equal(cis(half[3:].copy()), ref[3:])
    assert np.array_equal(cis(half[::3].copy()), ref[::3])
    assert np.array_equal(cis(half[:4096].reshape(64, 64).copy()), ref[:4096].reshape(64, 64))
    out = np.zeros((3, 4099), dtype=complex)
    assert cis(half.copy(), out=out[1]).base is out
    assert np.array_equal(out[1], ref) and not out[0].any() and not out[2].any()


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_cis_has_unit_modulus(half):
    assert abs(abs(cis(half)) - 1.0) <= 4.5e-16
