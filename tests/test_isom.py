import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone.isom import (
    IsomKind,
    IsomPair,
    LiftedProj2,
    Proj2,
    _canonical,
    _canonical_stack,
    attracting_line_angle,
    classify,
    degree_decomposition,
    factor_isometry,
    fixed_line_angles,
    fixed_point_lift,
    lift_identity,
    parabolic_sign,
    point_of_sl2,
    principal_lift,
    sl2_of_point,
    translation_number,
)

RNG = np.random.RandomState(11)
PI = np.pi


def random_psl(rng=RNG):
    while True:
        m = rng.randn(2, 2)
        if np.linalg.det(m) > 0.05:
            return Proj2(m)


def mobius_rotation_angle_oracle(m):
    """Rotation angle at the fixed point i of an elliptic isometry of H^2.

    The derivative of the Mobius action at a fixed point z is 1/(cz+d)^2;
    the rotation angle is the argument of the derivative of the inverse
    acting on the tangent space, normalized to (0, 2pi).
    """
    a, b, c, d = m.ravel()
    disc = (a + d) ** 2 - 4.0
    assert disc < 0
    # pick the root in the upper half-plane
    z = ((a - d) + 1j * np.sign(c) * np.sqrt(-disc)) / (2 * c) if c != 0 else 1j
    assert z.imag > 0
    deriv = 1.0 / (c * z + d) ** 2
    ang = (-np.angle(deriv)) % (2 * PI)
    return ang


def test_canonical_representative():
    g = Proj2(np.array([[-2.0, 0.0], [0.0, -0.5]]))
    assert g.trace > 0
    h = Proj2(np.array([[0.0, 5.0], [-0.2, 0.0]]))  # trace 0: first nonzero > 0
    assert h.m[0, 1] > 0
    with pytest.raises(ValueError):
        Proj2(np.array([[1.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_matrices_and_offsets_are_rejected(value):
    """The closed forms would carry a NaN through to a classification, so
    a class or a lift with a non-finite number in it is refused."""
    for entry in range(4):
        m = np.eye(2).ravel()
        m[entry] = value
        with pytest.raises(ValueError, match="must be finite"):
            Proj2(m.reshape(2, 2))
    with pytest.raises(ValueError, match="must be finite"):
        LiftedProj2(Proj2.identity(), value)


def _canonical_or_refusal(m):
    try:
        return _canonical(m)
    except ValueError as err:
        return str(err)


def test_the_stacked_canonicalization_is_canonical_matrix_by_matrix():
    """_canonical_stack gives _canonical of every matrix of the stack bit
    for bit (signed zeros included), the trace-zero sign rule too, and
    refuses a stack with _canonical's message for its first refused
    matrix."""
    rng = np.random.RandomState(5)
    drawn = rng.randn(400, 2, 2) * np.exp(rng.uniform(-30, 30, (400, 1, 1)))
    drawn[::3] = np.round(drawn[::3])  # integer entries: some traces are exactly 0
    special = [
        [[-2.0, 0.0], [0.0, -0.5]],
        [[0.0, 5.0], [-0.2, 0.0]],
        [[0.0, -5.0], [0.2, 0.0]],
        [[-0.0, -5.0], [0.2, 0.0]],
        [[3.0, 1.0], [-1.0, -3.0 + 1e-16]],
        [[1e-160, 0.0], [0.0, 1e160]],
        [[-1.0, -0.0], [0.0, -1.0]],
    ]
    ms = np.concatenate([drawn, special])
    kept = np.array([m for m in ms if not isinstance(_canonical_or_refusal(m), str)])
    traceless = [m for m in kept if np.trace(m) == 0]
    assert len(kept) > 150 and {np.sign(m[0, 1]) for m in traceless if m[0, 0] == 0} == {-1, 1}
    got = _canonical_stack(kept.reshape(-1, 1, 2, 2))
    assert got.shape == (len(kept), 1, 2, 2)
    for m, g in zip(kept, got[:, 0]):
        want = _canonical(m)
        assert want.tobytes() == g.tobytes(), m
    assert _canonical_stack(np.empty((0, 2, 2))).shape == (0, 2, 2)
    nan, inf = float("nan"), float("inf")
    for bad in ([[1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 0.0]], [[nan, 0.0], [0.0, 1.0]],
                [[inf, 0.0], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1e200]]):
        for pair in ([np.eye(2), bad], [bad, [[1.0, 0.0], [0.0, -1.0]]], [bad, [[nan, 0.0], [0.0, 1.0]]]):
            with pytest.raises(ValueError) as err:
                _canonical_stack(pair)
            assert str(err.value) == _canonical_or_refusal(np.array(bad))


def test_classify_quarter_turn():
    # oracle: rotation angle read from the derivative of the Mobius action
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert abs(mobius_rotation_angle_oracle(m) - PI) < 1e-12
    cls = classify(Proj2(m))
    assert cls.kind is IsomKind.ELLIPTIC
    assert abs(cls.angle - PI) < 1e-12


def test_classify_elliptic_direction_against_mobius_oracle():
    for theta in (0.3, PI / 3, PI / 2, 1.9, PI, 4.0, 5.9):
        g = Proj2.elliptic(theta)
        oracle = mobius_rotation_angle_oracle(g.m if g.m[1, 0] != 0 else g.m)
        cls = classify(g)
        assert cls.kind is IsomKind.ELLIPTIC
        assert abs(cls.angle - theta) < 1e-9
        assert abs(oracle - theta) < 1e-9


def test_classify_hyperbolic_length():
    g = Proj2(np.diag([np.e, 1 / np.e]))
    cls = classify(g)
    assert cls.kind is IsomKind.HYPERBOLIC
    # tr = e + 1/e = 2 cosh(1), so length 2
    assert abs(cls.length - 2.0) < 1e-12


def test_classify_identity():
    assert classify(Proj2.identity()).kind is IsomKind.IDENTITY


def test_classify_conjugation_invariant():
    samples = [
        Proj2.elliptic(0.7),
        Proj2.elliptic(PI),
        Proj2.elliptic(5.1),
        Proj2.hyperbolic(1.3),
        Proj2.parabolic(1.0),
        Proj2.parabolic(-2.0),
    ]
    for g in samples:
        base = classify(g)
        for _ in range(1000):
            a = random_psl()
            cls = classify(g.conjugate(a))
            assert cls.kind is base.kind
            if base.angle is not None:
                assert abs(cls.angle - base.angle) < 1e-9
            if base.length is not None:
                assert abs(cls.length - base.length) < 1e-9
            if base.sign is not None:
                assert cls.sign == base.sign


def test_parabolic_sign_and_inversion_flip():
    g = Proj2.parabolic(1.0)
    # [[1,1],[0,1]] moves the pi/2 line down to pi/4: positive class
    assert parabolic_sign(g) == +1
    assert parabolic_sign(g.inverse()) == -1
    for _ in range(50):
        a = random_psl()
        h = g.conjugate(a)
        assert parabolic_sign(h) == -parabolic_sign(h.inverse())


def test_lift_evaluation_monotone_equivariant():
    for _ in range(50):
        g = random_psl()
        lift = principal_lift(g)
        xs = np.sort(RNG.uniform(-6, 6, 40))
        vals = np.array([lift(x) for x in xs])
        assert np.all(np.diff(vals) > 0)
        for x in xs[:10]:
            assert abs(lift(x + PI) - (lift(x) + PI)) < 1e-12


def test_lift_composition_and_inverse():
    for _ in range(50):
        g1, g2 = random_psl(), random_psl()
        l1 = principal_lift(g1).shifted(RNG.randint(-2, 3))
        l2 = principal_lift(g2).shifted(RNG.randint(-2, 3))
        comp = l2.compose(l1)
        for x in RNG.uniform(-4, 4, 10):
            assert abs(comp(x) - l2(l1(x))) < 1e-9
        inv = l1.inverse()
        for x in RNG.uniform(-4, 4, 10):
            assert abs(inv(l1(x)) - x) < 1e-8


def test_lift_is_continuous_just_below_a_seam():
    h = fixed_point_lift(Proj2.hyperbolic(1.0))
    x = float(np.nextafter(PI, 0.0))
    assert abs(h(x) - x) <= 1e-12


def test_translation_number_delta_and_identity():
    assert abs(translation_number(lift_identity(1)) - PI) < 1e-12
    assert abs(translation_number(lift_identity(0))) < 1e-12


def test_translation_number_quarter_turn_matches_orbit_average(translation_number_by_iteration):
    g = Proj2(np.array([[0.0, -1.0], [1.0, 0.0]]))
    lift = principal_lift(g)  # s = pi/2, the only choice in (0, pi)
    assert 0 < lift.s < PI
    tau = translation_number(lift)
    assert abs(tau - PI / 2) < 1e-12
    # brute-force orbit average oracle
    tau_iter = translation_number_by_iteration(lift, 4096)
    assert abs(tau_iter - PI / 2) < 1e-10


def test_translation_number_elliptic_generic_against_iteration(translation_number_by_iteration):
    for theta in (0.37, 1.1, 2.0, 4.4):
        lift = principal_lift(Proj2.elliptic(theta)).shifted(1)
        tau = translation_number(lift)
        tau_iter = translation_number_by_iteration(lift)
        # orbit average converges like 1/n; Richardson tightens model cases
        assert abs(tau - tau_iter) < 1e-3
        conj = principal_lift(random_psl())
        tau_c = translation_number(conj.compose(lift).compose(conj.inverse()))
        assert abs(tau_c - tau) < 1e-9


def test_translation_number_quasimorphism_delta():
    for _ in range(20):
        g = random_psl()
        lift = principal_lift(g)
        t0 = translation_number(lift)
        t1 = translation_number(lift.shifted(1))
        assert abs(t1 - (t0 + PI)) < 1e-8


def test_degree_decomposition_roundtrip():
    g = Proj2.hyperbolic(1.7)
    base = fixed_point_lift(g)
    assert degree_decomposition(base)[0] == 0
    shifted = base.shifted(2)
    k, g0 = degree_decomposition(shifted)
    assert k == 2
    recomposed = lift_identity(k).compose(g0)
    for x in RNG.uniform(-4, 4, 20):
        assert abs(recomposed(x) - shifted(x)) < 1e-9


def test_degree_decomposition_parabolic():
    g = Proj2.parabolic(1.0)
    lift = fixed_point_lift(g).shifted(1)
    k, g0 = degree_decomposition(lift)
    assert k == 1
    angles = fixed_line_angles(g)
    assert len(angles) == 1
    assert abs(g0(angles[0]) - angles[0]) < 1e-9


def test_degree_decomposition_rejects_elliptic():
    with pytest.raises(ValueError):
        degree_decomposition(principal_lift(Proj2.elliptic(1.0)))


def test_fixed_point_lift_fixes_both_hyperbolic_points():
    g = Proj2.hyperbolic(0.9).conjugate(random_psl())
    lift = fixed_point_lift(g)
    for a in fixed_line_angles(g):
        assert abs(lift(a) - a) < 1e-9


def test_spin_isomorphism_roundtrip(spin):
    for _ in range(300):
        g = random_psl()
        L = spin.lorentz3_of_psl(g)
        # preserves the Minkowski form
        eta = np.diag([-1.0, 1.0, 1.0])
        assert np.abs(L.T @ eta @ L - eta).max() < 1e-9
        h = spin.psl_of_lorentz3(L)
        assert min(np.abs(h.m - g.m).max(), np.abs(h.m + g.m).max()) <= 1e-8


def test_factor_isometry_roundtrip(matrix44_of_pair):
    for _ in range(100):
        pair = IsomPair(random_psl(), random_psl())
        L = matrix44_of_pair(pair)
        eta = np.diag([-1.0, -1.0, 1.0, 1.0])
        assert np.abs(L.T @ eta @ L - eta).max() < 1e-9
        back = factor_isometry(L)
        assert np.abs(back.left.m - pair.left.m).max() <= 1e-8
        assert np.abs(back.right.m - pair.right.m).max() <= 1e-8


def test_factor_isometry_rejects_the_transpose():
    """X -> X^T (x1 -> -x1) is an isometry of the quadric that reverses
    orientation; its rearranged Kronecker array has rank 4, not 1."""
    with pytest.raises(ValueError, match="not an orientation-preserving quadric isometry"):
        factor_isometry(np.diag([1.0, -1.0, 1.0, 1.0]))


def test_factor_isometry_rejects_a_reflection_of_both_factors():
    """X -> S X S with S = diag(1, -1) has the rank-one form, but its factor
    S has determinant -1: it reverses the time orientation."""
    s = np.diag([1.0, -1.0])
    L = np.column_stack([point_of_sl2(s @ sl2_of_point(e) @ s) for e in np.eye(4)])
    with pytest.raises(ValueError, match="does not preserve orientation data"):
        factor_isometry(L)


# ---------------------------------------------------------------------------
# the closed forms of the link dictionary against their iterative oracles
# ---------------------------------------------------------------------------


def _eig_fixed_line_angles(m):
    """Fixed line angles in [0, pi) from numpy: the eigenvectors of a
    hyperbolic m, the SVD kernel of m - I for a parabolic one."""
    tr = m[0, 0] + m[1, 1]
    if tr <= 2.0 + 1e-9:
        v = np.linalg.svd(m - np.eye(2))[2][-1]
        return [float(np.arctan2(v[1], v[0]) % PI)]
    vecs = np.linalg.eig(m)[1].real
    return sorted(float(np.arctan2(v[1], v[0]) % PI) for v in vecs.T)


def _eig_attracting_line_angle(m):
    w, vecs = np.linalg.eig(m)
    v = vecs[:, int(np.argmax(np.abs(w)))].real
    return float(np.arctan2(v[1], v[0]) % PI)


def _sampled_parabolic_sign(g):
    """+1 when the lift fixing the fixed line of the parabolic g (found by
    _eig_fixed_line_angles) moves 37 sampled angles down, -1 when it moves
    them all up."""
    beta = _eig_fixed_line_angles(g.m)[0]
    lift = principal_lift(g)
    lift = lift.shifted(-int(np.round((lift(beta) - beta) / PI)))
    xs = np.linspace(0.05, PI - 0.05, 37) + beta
    disp = np.array([lift(x) - x for x in xs])
    if np.all(disp <= 1e-12):
        return +1
    assert np.all(disp >= -1e-12), "mixed displacements: not parabolic"
    return -1


def _line_gap(a, b):
    """Distance of two line angles mod pi."""
    d = (a - b) % PI
    return min(d, PI - d)


_conjugator = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4).filter(
    lambda e: e[0] * e[3] - e[1] * e[2] > 0.2
)
_model = st.one_of(
    st.builds(Proj2.elliptic, st.floats(0.05, 2 * PI - 0.05)),
    st.builds(Proj2.hyperbolic, st.floats(0.05, 6.0)),
    st.builds(Proj2.parabolic, st.floats(0.1, 5.0) | st.floats(-5.0, -0.1)),
)


def _drawn_conjugate(model, entries):
    return model.conjugate(Proj2(np.reshape(entries, (2, 2))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_model, _conjugator)
def test_fixed_lines_match_eig_and_are_fixed(model, entries):
    g = _drawn_conjugate(model, entries)
    got = fixed_line_angles(g)
    if classify(g).kind is IsomKind.ELLIPTIC:
        assert got == []
        return
    want = _eig_fixed_line_angles(g.m)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert 0.0 <= a < PI
        assert _line_gap(a, b) <= 1e-9
    for a in got:
        v = np.array([np.cos(a), np.sin(a)])
        gv = g.m @ v
        assert abs(gv[0] * v[1] - gv[1] * v[0]) <= 1e-9 * np.linalg.norm(gv)
    if classify(g).kind is IsomKind.HYPERBOLIC:
        att = attracting_line_angle(g)
        assert _line_gap(att, _eig_attracting_line_angle(g.m)) <= 1e-9
        # the attracting line is the one g stretches
        v = np.array([np.cos(att), np.sin(att)])
        assert np.linalg.norm(g.m @ v) > 1.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.1, 5.0), st.sampled_from([-1.0, 1.0]), _conjugator)
def test_parabolic_sign_matches_the_sampled_displacement(s, sgn, entries):
    g = _drawn_conjugate(Proj2.parabolic(sgn * s), entries)
    assert classify(g).kind is IsomKind.PARABOLIC
    assert parabolic_sign(g) == _sampled_parabolic_sign(g) == int(sgn)


_ITERATIONS = 2 ** 13


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_model, _conjugator, st.integers(-2, 3))
def test_translation_number_matches_the_orbit_average(
    translation_number_by_iteration, model, entries, k
):
    """|h^n(x) - x - n tau| < pi for every lift, so the oracle's Richardson
    combination of n and n/2 iterations is within 4 pi / n of tau."""
    g = _drawn_conjugate(model, entries)
    lift = principal_lift(g).shifted(k)
    tau = translation_number(lift)
    assert abs(tau - translation_number_by_iteration(lift, _ITERATIONS)) <= 4 * PI / _ITERATIONS
    if classify(g).kind is IsomKind.ELLIPTIC:
        assert k * PI < tau < (k + 1) * PI
        assert abs(tau - k * PI - classify(model).angle / 2) <= 1e-9
