import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltrami.geometry import (PolarSphereGrid, Plane, Ray,
                               direction, frame_for, frames_for_many,
                               gauss_legendre, great_circle_nodes,
                               make_polar_sphere_quadrature, make_sphere_quadrature,
                               polar_cap)
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

    rng = np.random.default_rng(11)
    special = np.array([[0, 0, 1], [0, 0, -1], [9e-9, 0, 1], [1e-8, 0, 1],
                        [0.6, 0.8, 0], [-1, 0, 0]], dtype=float)
    dirs = np.vstack([rng.standard_normal((10_000, 3)), special])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in (dirs, dirs[:6000].reshape(2, 3000, 3), dirs[-3]):
        e1, e2 = frames_for_many(d)
        r1, r2 = frames_ref(np.asarray(d))
        assert np.array_equal(e1, r1) and np.array_equal(e2, r2)
        assert np.array_equal(polar_cap(d), np.linalg.norm(np.asarray(d)[..., :2], axis=-1) <= 1e-8)
        for lam in (1, -1):
            assert np.array_equal(moses_q_many(d, lam), (r1 + 1j * lam * r2) / np.sqrt(2.0))
    assert polar_cap(special).tolist() == [True, True, True, True, False, False]


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


def test_gauss_legendre_interval():
    x, w = gauss_legendre(12, 0.0, np.pi)
    assert abs(w @ np.sin(x) - 2.0) <= 1e-12


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
