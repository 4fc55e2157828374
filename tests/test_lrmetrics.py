import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone.errors import GeometryError
from adscone.isom import IsomKind, classify
from adscone.linalg import dot22, normalize_point, orthonormal_tangent_frame
from adscone.lrmetrics import (
    JetSample,
    SurfaceJet,
    complex_structure,
    disk_link_isometry_check,
    equidistant_jet,
    holonomy_pair,
    jacobi_form_value,
    left_right_metrics,
    loop_deviation,
    metric_path_length,
    square_loop,
    transport,
    transverse_check,
)
from adscone.spacetimes import meridian_loop, model_isom_pair

PI = np.pi
RNG = np.random.RandomState(23)


def random_spd():
    a = RNG.randn(2, 2)
    return a @ a.T + 0.3 * np.eye(2)


def random_selfadjoint(I):
    s = RNG.randn(2, 2)
    s = 0.5 * (s + s.T)
    return np.linalg.solve(I, s)


def test_complex_structure_squares_to_minus_one():
    for _ in range(200):
        I = random_spd()
        J = complex_structure(I)
        assert np.abs(J @ J + np.eye(2)).max() < 1e-10
        # J is I-orthogonal: I(Jv, Jv) = I(v, v)
        v = RNG.randn(2)
        assert abs((J @ v) @ I @ (J @ v) - v @ I @ v) < 1e-9


def test_left_right_metrics_totally_geodesic():
    I = random_spd()
    jet = SurfaceJet((JetSample(I, np.zeros((2, 2))),))
    mls, mrs = left_right_metrics(jet)
    assert np.abs(mls[0] - I).max() < 1e-12
    assert np.abs(mrs[0] - I).max() < 1e-12


def test_left_right_metrics_umbilic():
    I = random_spd()
    k = 0.7
    jet = SurfaceJet((JetSample(I, k * np.eye(2)),))
    mls, mrs = left_right_metrics(jet)
    assert np.abs(mls[0] - (k ** 2 + 1) * I).max() < 1e-10
    assert np.abs(mrs[0] - (k ** 2 + 1) * I).max() < 1e-10


def test_equidistant_slice_recovers_base_metric():
    mu = random_spd()
    for t in (0.2, 0.7, -0.4):
        s = equidistant_jet(mu, t)
        mls, mrs = left_right_metrics(SurfaceJet((s,)))
        # sec^2(t) * cos^2(t) mu = mu
        assert np.abs(mls[0] - mu).max() < 1e-10
        assert np.abs(mrs[0] - mu).max() < 1e-10


def test_area_preservation_and_curvature_identity():
    # tr(JB) = 0 exactly; det(-B +- J) = det B + 1; det mu_l = det mu_r
    worst_tr, worst_det, worst_area = 0.0, 0.0, 0.0
    for _ in range(10000):
        I = random_spd()
        B = random_selfadjoint(I)
        J = complex_structure(I)
        worst_tr = max(worst_tr, abs(np.trace(J @ B)))
        dl = np.linalg.det(-B + J)
        dr = np.linalg.det(-B - J)
        target = np.linalg.det(B) + 1.0
        worst_det = max(worst_det, abs(dl - target), abs(dr - target))
        # the metric comparison only makes sense away from the degenerate
        # locus det B = -1, where transverse_check rejects the sample
        if abs(target) > 1e-2:
            ml = (-B + J).T @ I @ (-B + J)
            mr = (-B - J).T @ I @ (-B - J)
            rel = abs(np.linalg.det(ml) - np.linalg.det(mr)) / abs(np.linalg.det(ml))
            worst_area = max(worst_area, rel)
    assert worst_tr < 1e-12
    assert worst_det < 1e-12
    assert worst_area < 1e-10


def test_transverse_check_flags_flat_slices():
    I = np.eye(2)
    good = SurfaceJet((JetSample(I, np.zeros((2, 2))),))
    assert transverse_check(good).transverse
    assert abs(transverse_check(good).curvatures[0] + 1.0) < 1e-12
    flat = SurfaceJet((JetSample(I, np.diag([1.0, -1.0])),))
    rep = transverse_check(flat)
    assert not rep.transverse
    assert rep.degenerate_samples == (0,)
    with pytest.raises(GeometryError):
        left_right_metrics(flat)


def test_flatness_of_left_right_connections():
    x = np.array([1.0, 0, 0, 0])
    e1, e2 = np.eye(4)[2], np.eye(4)[3]
    chi = 5.0
    u0 = np.cosh(chi) * np.eye(4)[1] + np.sinh(chi) * e1
    loop = square_loop(x, e1, e2, 1e-2, 40)
    area = 1e-4
    for kind in ("left", "right"):
        dev = loop_deviation(loop, u0, kind)
        assert dev / area <= 1e-4
    lc = loop_deviation(loop, u0, "lc")
    assert lc / area >= 1e-2


def test_transport_constant_path():
    x = np.array([1.0, 0, 0, 0])
    u0 = np.array([0.0, 1.0, 0, 0])
    path = np.tile(x, (5, 1))
    for kind in ("left", "right", "lc"):
        assert np.abs(transport(path, u0, kind) - u0).max() < 1e-12


def test_geodesic_flow_invariance():
    rng = np.random.RandomState(1)
    worst = 0.0
    for _ in range(100):
        p = rng.randn(4)
        while dot22(p, p) > -0.1:
            p = rng.randn(4)
        x = normalize_point(p)
        t, f1, f2 = orthonormal_tangent_frame(x)
        c = rng.randn(2)
        u1 = c[0] * f1 + c[1] * f2
        d = rng.randn(2)
        u2 = d[0] * f1 + d[1] * f2
        vals = [jacobi_form_value(x, t, u1, u2, tt) for tt in (0.0, 0.5, 1.0, 2.0)]
        ref = max(abs(v) for v in vals) or 1.0
        worst = max(worst, (max(vals) - min(vals)) / ref)
    assert worst <= 1e-8


def assert_pairs_close(got, want, tol=1e-9):
    # projective classes: the canonical sign is ambiguous at trace 0
    for g, w in ((got.left, want.left), (got.right, want.right)):
        assert min(np.abs(g.m - w.m).max(), np.abs(g.m + w.m).max()) <= tol


def test_holonomy_pair_cone_meridians(rk4_holonomy_pair):
    for theta in (PI / 3, PI / 2, PI, 3 * PI / 2):
        path, G = meridian_loop("cone", theta, samples=1200)
        pair = holonomy_pair(path, G)
        assert_pairs_close(pair, rk4_holonomy_pair(path, G))
        for side in (pair.left, pair.right):
            cls = classify(side)
            assert cls.kind is IsomKind.ELLIPTIC
            assert abs(cls.angle - theta) < 1e-6


def test_holonomy_pair_contractible():
    x = np.array([1.0, 0, 0, 0])
    loop = square_loop(x, np.eye(4)[2], np.eye(4)[3], 5e-2, 30)
    pair = holonomy_pair(loop, np.eye(4))
    assert classify(pair.left).kind is IsomKind.IDENTITY
    assert classify(pair.right).kind is IsomKind.IDENTITY


def test_holonomy_pair_tachyon_matches_model_factors(rk4_holonomy_pair):
    m = 0.8
    path, G = meridian_loop("tachyon", m, radius=0.25, samples=1600)
    pair = holonomy_pair(path, G)
    assert_pairs_close(pair, rk4_holonomy_pair(path, G))
    model = model_isom_pair("tachyon", m)
    for got, want in ((pair.left, model.left), (pair.right, model.right)):
        cg, cw = classify(got), classify(want)
        assert cg.kind is cw.kind is IsomKind.HYPERBOLIC
        assert abs(cg.length - cw.length) < 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(st.just("cone"), st.floats(0.05, 2 * PI - 0.05)),
        st.tuples(st.just("tachyon"), st.floats(0.05, 1.7)),
    )
)
def test_holonomy_pair_equals_model_factors(model):
    kind, param = model
    pair = holonomy_pair(*meridian_loop(kind, param, radius=0.3))
    want = model_isom_pair(kind, param)
    for got, ref in ((pair.left, want.left), (pair.right, want.right)):
        assert abs(got.trace - ref.trace) <= 1e-9
        assert classify(got).kind is classify(ref).kind


def test_holonomy_pair_rejects_closing_mismatch():
    path, G = meridian_loop("cone", 1.3, samples=200)
    with pytest.raises(GeometryError, match="closing"):
        holonomy_pair(path, np.eye(4))
    with pytest.raises(GeometryError, match="closing"):
        holonomy_pair(path[:-1], G)


def test_holonomy_pair_rejects_path_outside_timelike_cone():
    # b is on the quadric, but <a, b> = cosh(1) > 1, so the chord a + b is
    # spacelike; c is not in the timelike cone at all.  RK4 transport
    # rejects both paths, so the exact pair must too.
    a = np.array([1.0, 0.0, 0.0, 0.0])
    b = np.array([-np.cosh(1.0), 0.0, np.sinh(1.0), 0.0])
    c = np.array([0.0, 0.0, 2.0, 0.0])
    for path, where in ((np.array([a, b, a]), "chord 0"), (np.array([a, c, a]), "sample 1")):
        with pytest.raises(ValueError):
            transport(path, orthonormal_tangent_frame(a)[1], "left")
        with pytest.raises(GeometryError, match=f"timelike cone at {where}"):
            holonomy_pair(path, np.eye(4))


def test_disk_link_isometry_values():
    # r = pi/2: factor 1; r = pi/4: factor 2; r = 0.1: 1/sin^2(0.1)
    for r, factor in ((PI / 2, 1.0), (PI / 4, 2.0), (0.1, 1 / np.sin(0.1) ** 2)):
        assert abs(1.0 / np.sin(r) ** 2 - factor) < 1e-8
    dev = disk_link_isometry_check(np.linspace(0.1, PI - 0.1, 100))
    assert dev <= 1e-6


def test_product_structure_rank_four():
    # M_l + M_r is definite on the geodesic-space chart
    x = np.array([1.0, 0, 0, 0])
    t, f1, f2 = orthonormal_tangent_frame(x)
    rng = np.random.RandomState(5)
    for _ in range(50):
        a = rng.randn(4)
        xp = a[0] * f1 + a[1] * f2
        vp = a[2] * f1 + a[3] * f2
        if np.dot(a, a) < 1e-6:
            continue
        ml = jacobi_form_value(x, t, xp * 0 + vp, xp * 0, 0.0)
        from adscone.linalg import cross

        w = cross(x, t, xp)
        val_l = vp + w
        val_r = vp - w
        total = dot22(val_l, val_l) + dot22(val_r, val_r)
        assert total > 1e-12
        # degenerate directions of one side are nondegenerate for the other
        if dot22(val_l, val_l) < 1e-14:
            assert dot22(val_r, val_r) > 1e-10


def test_metric_path_length_flat_metric():
    mu = np.eye(2)
    path = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert abs(metric_path_length(lambda p: mu, path) - 2.0) < 1e-12


def test_holonomy_pair_intertwines_model_factors():
    """The transported pair equals the gluing's factors up to one solved
    conjugation per side (the frame choice at the basepoint)."""
    from adscone.interactions import solve_conjugator

    m = 0.8
    path, G = meridian_loop("tachyon", m, radius=0.25, samples=1600)
    pair = holonomy_pair(path, G)
    model = model_isom_pair("tachyon", m)
    for got, want in ((pair.left, model.left), (pair.right, model.right)):
        _, resid = solve_conjugator([(got, want)])
        assert resid < 1e-6
