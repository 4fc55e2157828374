import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone.errors import GeometryError
from adscone.isom import (
    IsomKind,
    IsomPair,
    Proj2,
    classify,
    factor_isometry,
    point_of_sl2,
)
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
    square_loop,
    transport,
    transverse_check,
)
from adscone.spacetimes import graviton_gluing, meridian_loop, model_isom_pair

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


def test_flatness_of_left_right_connections(rk4_transport):
    """The transport equations of D^l and D^r are flat: their RK4 oracle
    returns around a contractible loop.  (The library's closed form returns
    by construction, so it could not show this.)"""
    x = np.array([1.0, 0, 0, 0])
    e1, e2 = np.eye(4)[2], np.eye(4)[3]
    chi = 5.0
    u0 = np.cosh(chi) * np.eye(4)[1] + np.sinh(chi) * e1
    loop = square_loop(x, e1, e2, 1e-2, 40)
    area = 1e-4
    for kind in ("left", "right"):
        dev = np.linalg.norm(rk4_transport(loop, u0, kind) - u0)
        assert dev / area <= 1e-4
    lc = loop_deviation(loop, u0, "lc")
    assert lc / area >= 1e-2


_LC_PATHS = {
    "square 1e-2": lambda: square_loop(np.array([1.0, 0, 0, 0]), np.eye(4)[2], np.eye(4)[3], 1e-2, 40),
    "square 5e-2": lambda: square_loop(np.array([1.0, 0, 0, 0]), np.eye(4)[2], np.eye(4)[3], 5e-2, 30),
    "cone pi/3": lambda: meridian_loop("cone", PI / 3, samples=1200)[0],
    "cone 3pi/2": lambda: meridian_loop("cone", 3 * PI / 2, samples=1200)[0],
    "tachyon 0.8": lambda: meridian_loop("tachyon", 0.8, radius=0.25, samples=1600)[0],
}


@pytest.mark.parametrize("name", sorted(_LC_PATHS))
def test_levi_civita_transport_matches_the_rk4_oracle(name, rk4_transport):
    """Each segment's geodesic transport in closed form against RK4 on the
    Levi-Civita equation u' = <u, x'> x, for a frame at the path start and
    a strongly boosted vector, to 1e-13 relative."""
    path = _LC_PATHS[name]()
    t, f1, f2 = orthonormal_tangent_frame(path[0])
    for u0 in (t, f1, f2, np.cosh(5.0) * t + np.sinh(5.0) * f1):
        want = rk4_transport(path, u0, "lc")
        got = transport(path, u0, "lc")
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


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


E_BASE = np.array([1.0, 0.0, 0.0, 0.0])


def _chord_path(a, b, samples=200):
    """a, the normalized points of the chord from a to b, and b."""
    inner = [normalize_point(a + t * (b - a)) for t in np.linspace(0.0, 1.0, samples)[1:-1]]
    return np.array([a, *inner, b])


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
        st.tuples(st.just("graviton"), st.sampled_from([0.7, -0.7])),
    )
)
def test_holonomy_pair_equals_model_factors(model):
    """One convention: a model's factors are its meridian pair, entry by
    entry, so they share their class and its parameter: the cone angle
    theta, the tachyon mass m, the graviton's parabolic sign."""
    kind, param = model
    if kind == "graviton":
        G = graviton_gluing(param)
        pair = holonomy_pair(_chord_path(E_BASE, np.linalg.solve(G, E_BASE)), G)
    else:
        pair = holonomy_pair(*meridian_loop(kind, param, radius=0.3))
    want = model_isom_pair(kind, param)
    assert_pairs_close(pair, want, 1e-12)
    for got, ref in ((pair.left, want.left), (pair.right, want.right)):
        cg, cr = classify(got), classify(ref)
        assert cg.kind is cr.kind
        if kind == "cone":
            assert cg.kind is IsomKind.ELLIPTIC and abs(cg.angle - param) <= 1e-9
            assert abs(cr.angle - param) <= 1e-9
        elif kind == "tachyon":
            assert cg.kind is IsomKind.HYPERBOLIC and abs(cg.length - param) <= 1e-9
            assert abs(cr.length - param) <= 1e-9
        else:
            assert cg.kind is IsomKind.PARABOLIC and cg.sign == cr.sign


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


def _quadric_point(s, phi, psi):
    return np.cosh(s) * np.array([np.cos(phi), np.sin(phi), 0.0, 0.0]) + np.sinh(s) * np.array(
        [0.0, 0.0, np.cos(psi), np.sin(psi)]
    )


_coefficient = st.floats(-0.3, 0.3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 2 * PI), st.floats(0.0, 2 * PI)),
    st.lists(_coefficient, min_size=9, max_size=9),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).filter(
        lambda c: max(map(abs, c)) >= 0.1
    ),
    st.sampled_from(["left", "right"]),
)
def test_closed_form_transport_matches_the_rk4_oracle(
    rk4_transport, base, path_coefficients, u_coefficients, kind
):
    """A curved path x + t v1 + t^2 v2 + sin(3t) v3 (v_i tangent at x) in
    200 samples, and a tangent vector at its start: the closed form and the
    RK4 oracle agree to 1e-9 relative."""
    x = _quadric_point(*base)
    frame = orthonormal_tangent_frame(x)
    v1, v2, v3 = (c @ np.array(frame) for c in np.reshape(path_coefficients, (3, 3)))
    ts = np.linspace(0.0, 1.0, 200)
    path = np.array([normalize_point(x + t * v1 + t * t * v2 + np.sin(3 * t) * v3) for t in ts])
    u0 = np.array(u_coefficients) @ np.array(orthonormal_tangent_frame(path[0]))
    want = rk4_transport(path, u0, kind)
    got = transport(path, u0, kind)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


_A = np.array([1.0, 0.0, 0.0, 0.0])
_REJECTED = {
    # c is not in the timelike cone at all
    "sample outside the cone": (np.array([_A, [0.0, 0.0, 2.0, 0.0], _A]), np.array([0.0, 1.0, 0.0, 0.0])),
    # b is on the quadric, but <a, b> = cosh(1) > 1: the chord a + b is spacelike
    "spacelike chord": (
        np.array([_A, [-np.cosh(1.0), 0.0, np.sinh(1.0), 0.0], _A]),
        np.array([0.0, 1.0, 0.0, 0.0]),
    ),
    "u0 not tangent": (np.array([_A, normalize_point(_A + [0.0, 0.0, 0.1, 0.0])]), _A),
}


@pytest.mark.parametrize("kind", ["left", "right"])
@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_closed_form_transport_rejects_what_the_oracle_rejects(case, kind, rk4_transport):
    path, u0 = _REJECTED[case]
    with pytest.raises(GeometryError) as closed:
        transport(path, u0, kind)
    with pytest.raises(GeometryError) as oracle:
        rk4_transport(path, u0, kind)
    assert type(closed.value) is type(oracle.value)


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


def _mixed_closing(matrix44_of_pair):
    """A closing whose factors differ in kind: g_l elliptic, g_r hyperbolic."""
    gl = Proj2.elliptic(1.1).conjugate(Proj2(np.array([[1.2, 0.3], [-0.4, 0.9]])))
    gr = Proj2.hyperbolic(0.9).conjugate(Proj2(np.array([[0.8, -0.5], [0.2, 1.1]])))
    return IsomPair(gl, gr), matrix44_of_pair(IsomPair(gl, gr))


def test_holonomy_pair_is_the_factors_at_the_identity(rk4_holonomy_pair, matrix44_of_pair):
    """Left holonomy g_l, right holonomy g_r, as the RK4 oracle transports
    them: with factors of different kinds a swapped pair cannot pass."""
    factors, G = _mixed_closing(matrix44_of_pair)
    path = _chord_path(E_BASE, np.linalg.solve(G, E_BASE))
    pair = holonomy_pair(path, G)
    assert_pairs_close(pair, factors, 1e-12)
    assert_pairs_close(pair, rk4_holonomy_pair(path, G))
    assert classify(pair.left).kind is IsomKind.ELLIPTIC
    assert classify(pair.right).kind is IsomKind.HYPERBOLIC


def test_holonomy_pair_matches_the_transported_frame_at_a_generic_point(
    rk4_holonomy_pair, matrix44_of_pair
):
    _, G = _mixed_closing(matrix44_of_pair)
    y = normalize_point(np.array([1.3, 0.2, 0.5, -0.1]))
    path = _chord_path(y, np.linalg.solve(G, y))
    assert_pairs_close(holonomy_pair(path, G), rk4_holonomy_pair(path, G))


@pytest.mark.parametrize("base", [E_BASE, normalize_point(np.array([1.3, 0.2, 0.5, -0.1]))])
def test_holonomy_pair_of_a_graviton_gluing(base, rk4_holonomy_pair):
    """Parabolic factors: the meridian pair is the factors, parabolic signs
    included."""
    G = graviton_gluing(0.7)
    path = _chord_path(base, np.linalg.solve(G, base))
    pair = holonomy_pair(path, G)
    assert_pairs_close(pair, rk4_holonomy_pair(path, G))
    factors = factor_isometry(G)
    for got, factor in ((pair.left, factors.left), (pair.right, factors.right)):
        assert classify(got).kind is classify(factor).kind is IsomKind.PARABOLIC
        assert classify(got).sign == classify(factor).sign


@pytest.mark.parametrize("entry, tol", [(35.0, 1e-12), (100.0, 4e-12)])
def test_holonomy_pair_is_exact_for_large_boosts(entry, tol, matrix44_of_pair):
    """Factors with entries ~35 and ~100, whose SO0(1,2) matrices have
    entries ~1.2e3 and ~1e4, where a frame round trip through the polar
    decomposition (the oracles' spin fixture) loses accuracy or raises: the
    pair is the factors to rounding.  A unit-determinant matrix
    with entries ~100 is itself only fixed to about |g|^2 eps ~ 2e-12
    relative (its determinant cancels 1e4 against 1e4), hence the wider
    bound there.  The meridian ends at b with Z(b) = g_l^-1 g_r = h, taken
    from h: solved from the closing, b would miss it by ~1e-8."""
    gl = Proj2.hyperbolic(2.0 * np.log(2.0 * entry)).conjugate(Proj2.elliptic(PI / 2))
    h = Proj2.elliptic(0.7)
    gr = gl @ h
    assert np.abs(gr.m - gl.m @ h.m).max() < 1e-9  # the same sign: Z(b) = h
    G = matrix44_of_pair(IsomPair(gl, gr))
    pair = holonomy_pair(_chord_path(E_BASE, point_of_sl2(h.m)), G)
    for got, want in ((pair.left, gl), (pair.right, gr)):
        assert np.abs(want.m).max() > 0.9 * entry
        assert np.abs(got.m - want.m).max() <= tol * np.abs(want.m).max()
