import warnings

import numpy as np
import pytest

from adscone.linalg import (
    HSPointClass,
    classify_ray,
    cross,
    dot22,
    normalize_point,
    orthonormal_tangent_frame,
    project_tangent,
    time_orientation_field,
)

RNG = np.random.RandomState(7)


def det_cross_oracle(x, u, w):
    """Independent cross product: solve <c, z> = det[x,u,w,z] for all z."""
    eta = np.diag([-1.0, -1.0, 1.0, 1.0])
    c = np.array([np.linalg.det(np.column_stack([x, u, w, z])) for z in np.eye(4)])
    return eta @ c


def random_point(rng=RNG):
    while True:
        p = rng.randn(4)
        if dot22(p, p) < -0.1:
            return normalize_point(p)


def random_tangent(x, rng=RNG):
    return project_tangent(x, rng.randn(4))


def test_cross_matches_determinant_oracle():
    for _ in range(200):
        x = random_point()
        u, w = random_tangent(x), random_tangent(x)
        assert np.allclose(cross(x, u, w), det_cross_oracle(x, u, w), atol=1e-12)


def test_cross_frame_convention():
    # evaluate the Hodge-star definition on an explicit frame at a base point
    x = np.array([1.0, 0, 0, 0])
    e0, e1, e2 = np.eye(4)[1], np.eye(4)[2], np.eye(4)[3]
    assert np.allclose(cross(x, e0, e1), e2, atol=1e-14)
    assert np.allclose(cross(x, e1, e2), -e0, atol=1e-14)
    assert np.allclose(cross(x, e2, e0), e1, atol=1e-14)


def test_cross_antisymmetry_and_orthogonality():
    for _ in range(100):
        x = random_point()
        u, w = random_tangent(x), random_tangent(x)
        c = cross(x, u, w)
        assert np.allclose(c, -cross(x, w, u), atol=1e-12)
        assert abs(dot22(c, u)) <= 1e-12 * (1 + abs(dot22(u, u)))
        assert abs(dot22(c, w)) <= 1e-12 * (1 + abs(dot22(w, w)))
        assert abs(dot22(c, x)) <= 1e-12


def test_classify_ray_table():
    assert classify_ray(np.array([1.0, 0, 0])) is HSPointClass.H2_PLUS
    assert classify_ray(np.array([-1.0, 0, 0])) is HSPointClass.H2_MINUS
    assert classify_ray(np.array([0.0, 1, 0])) is HSPointClass.DS2
    assert classify_ray(np.array([1.0, 1, 0])) is HSPointClass.BOUNDARY_PLUS
    assert classify_ray(np.array([-1.0, 0, 1])) is HSPointClass.BOUNDARY_MINUS
    with pytest.raises(ValueError):
        classify_ray(np.zeros(3))


@pytest.mark.parametrize("scale", [5e-324, 1e-320, 1e-300, 1e-160, 1e155, 1e300])
def test_classify_ray_at_extreme_scales(scale):
    """Rays whose squares overflow or underflow get the class of the unit
    ray, with no numpy warning."""
    table = [
        ([1.0, 0, 0], HSPointClass.H2_PLUS),
        ([-1.0, 0.5, 0], HSPointClass.H2_MINUS),
        ([0.0, 1, 0], HSPointClass.DS2),
        ([1.0, 1, 0], HSPointClass.BOUNDARY_PLUS),
        ([-1.0, 0, 1], HSPointClass.BOUNDARY_MINUS),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, cls in table:
            assert classify_ray(scale * np.array(y)) is cls
        assert classify_ray(np.array([np.finfo(float).max, 0, 0])) is HSPointClass.H2_PLUS


@pytest.mark.parametrize("y", [[0.0, 0, 0], [np.nan, 1, 0], [1.0, np.inf, 0], [-np.inf, 0, 0]])
def test_classify_ray_rejects_zero_and_non_finite_rays(y):
    with pytest.raises(ValueError, match="^zero or non-finite ray representative$"):
        classify_ray(np.array(y))


def test_classify_ray_scale_invariant():
    for _ in range(200):
        y = RNG.randn(3)
        if np.dot(y, y) < 1e-3:
            continue
        c = classify_ray(y)
        for s in (1e-6, 0.5, 3.0, 1e7):
            assert classify_ray(s * y) is c


def test_orthonormal_frame(spin):
    for _ in range(50):
        x = random_point()
        t, f1, f2 = orthonormal_tangent_frame(x)
        assert abs(dot22(t, t) + 1) < 1e-10
        assert abs(dot22(f1, f1) - 1) < 1e-10
        assert abs(dot22(f2, f2) - 1) < 1e-10
        for a, b in ((t, f1), (t, f2), (f1, f2)):
            assert abs(dot22(a, b)) < 1e-10
        assert dot22(t, time_orientation_field(x)) < 0  # future pointing
        # oriented: f1 x f2 = -t
        assert np.allclose(cross(x, f1, f2), -t, atol=1e-9)
        u = random_tangent(x)
        c = spin.frame_coordinates(x, (t, f1, f2), u)
        assert np.allclose(c[0] * t + c[1] * f1 + c[2] * f2, u, atol=1e-9)


def test_cross12_determinant(cross12):
    for _ in range(100):
        a, b = RNG.randn(3), RNG.randn(3)
        c = cross12(a, b)
        for z in np.eye(3):
            lhs = -c[0] * z[0] + c[1] * z[1] + c[2] * z[2]
            assert abs(lhs - np.linalg.det(np.column_stack([a, b, z]))) < 1e-12
