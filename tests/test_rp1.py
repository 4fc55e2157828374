import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone.errors import DegreeParityError, GeometryError
from adscone.isom import (
    Proj2,
    attracting_line_angle,
    fixed_line_angles,
    fixed_point_lift,
    lift_identity,
    principal_lift,
)
from adscone.linalg import HSPointClass
from adscone.rp1 import (
    Arc,
    ArcTag,
    CircleTag,
    LinkCircle,
    RP1Circle,
    classify_circle,
    mark_timelike_arcs,
)

PI = np.pi
RNG = np.random.RandomState(5)


def random_psl():
    while True:
        m = RNG.randn(2, 2)
        if np.linalg.det(m) > 0.05:
            return Proj2(m)


def elliptic_lift(theta):
    """Link lift of a cone of angle theta: translation by theta itself."""
    from adscone.rp1 import elliptic_link_circle

    return elliptic_link_circle(theta).holonomy


def degree2_hyperbolic_circle(length=1.0, anchor_attracting=True):
    g = Proj2.hyperbolic(length)
    base = fixed_point_lift(g).shifted(2)
    att = attracting_line_angle(g)
    angles = fixed_line_angles(g)
    rep = [a for a in angles if abs(a - att) > 1e-9][0]
    anchor = att if anchor_attracting else rep
    return RP1Circle(base, future_anchor=float(anchor))


def test_regular_point_link_calibration():
    """The link of a regular point is a particle's of angle 2 pi."""
    from adscone.links import SingKind, SingularityType, link_of_type

    link = link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=2 * PI))
    kind = link.kind
    assert kind.tag is CircleTag.ELLIPTIC
    assert kind.angle == 2 * PI  # exact: the ray circle is the double deck
    assert link.arc_tags() == [ArcTag.FUTURE]


def test_cone_angle_lifts_recover_their_angle():
    for theta in (0.4, PI / 2, PI, 2.0, 3 * PI / 2, 5.8, 2 * PI, 7.5):
        c = elliptic_link_circle = RP1Circle(elliptic_lift(theta))
        kind = classify_circle(c)
        assert kind.tag is CircleTag.ELLIPTIC
        assert abs(kind.angle - theta) < 1e-9


@pytest.mark.parametrize("theta", [2.0 ** 28, 1e10, 1e16])
def test_huge_cone_angles_are_refused_where_the_lift_is_built(theta):
    """From 2^28 on, 2 ulp(theta) exceed LIFT_CONGRUENCE: the lift offset
    cannot be held, and the cone angle is refused by name, not with the bare
    congruence error of the lift; just below 2^28 the lift is built."""
    from adscone.rp1 import elliptic_link_circle

    with pytest.raises(GeometryError) as err:
        elliptic_link_circle(theta)
    assert str(err.value) == (
        f"cone angle {theta!r}: its lift offset cannot be held to "
        "LIFT_CONGRUENCE = 1e-07 at that size"
    )
    below = float(np.nextafter(2.0 ** 28, 0))
    assert abs(classify_circle(elliptic_link_circle(below)).angle - below) < 1e-6


def test_elliptic_half_mass_example():
    # ray angle pi: a massive particle of mass 1 - pi/2pi = 1/2 downstream
    c = RP1Circle(elliptic_lift(PI))
    kind = classify_circle(c)
    assert kind.tag is CircleTag.ELLIPTIC
    assert abs(kind.angle - PI) < 1e-12


def test_degree2_hyperbolic_circle_classification():
    c = degree2_hyperbolic_circle(length=1.0)
    kind = classify_circle(c)
    assert kind.tag is CircleTag.HYPERBOLIC
    assert kind.degree == 2
    assert abs(kind.length - 1.0) < 1e-12
    assert kind.sign == +1
    neg = degree2_hyperbolic_circle(length=1.0, anchor_attracting=False)
    assert classify_circle(neg).sign == -1


def test_classify_circle_conjugation_invariant():
    for make in (
        lambda: RP1Circle(elliptic_lift(1.1)),
        lambda: RP1Circle(fixed_point_lift(Proj2.hyperbolic(0.8)).shifted(2)),
        lambda: RP1Circle(fixed_point_lift(Proj2.parabolic(-1.0)).shifted(2)),
    ):
        c = make()
        base = classify_circle(c)
        for _ in range(40):
            a = principal_lift(random_psl())
            h = a.compose(c.holonomy).compose(a.inverse())
            kind = classify_circle(RP1Circle(h))
            assert kind.tag is base.tag
            if base.angle is not None:
                assert abs(kind.angle - base.angle) < 1e-9
            if base.length is not None:
                assert abs(kind.length - base.length) < 1e-9
            if base.degree is not None:
                assert kind.degree == base.degree


def test_positive_generator_required():
    with pytest.raises(GeometryError):
        RP1Circle(lift_identity(0))
    with pytest.raises(GeometryError):
        RP1Circle(lift_identity(-1))


def test_odd_degree_rejected_for_links():
    g = Proj2.hyperbolic(1.0)
    lift = fixed_point_lift(g).shifted(3)
    att = attracting_line_angle(g)
    with pytest.raises(DegreeParityError):
        mark_timelike_arcs(
            RP1Circle(lift), HSPointClass.DS2, {"future_anchor": float(att)}
        )


def test_mark_arcs_elliptic_over_h2():
    link = mark_timelike_arcs(RP1Circle(elliptic_lift(PI / 2)), HSPointClass.H2_PLUS)
    assert link.arc_tags() == [ArcTag.FUTURE]
    link = mark_timelike_arcs(RP1Circle(elliptic_lift(PI / 2)), HSPointClass.H2_MINUS)
    assert link.arc_tags() == [ArcTag.PAST]


def test_mark_arcs_degree2_hyperbolic_over_ds2():
    c = degree2_hyperbolic_circle(length=0.7)
    link = mark_timelike_arcs(c, HSPointClass.DS2)
    tags = link.arc_tags()
    assert len(tags) == 4
    assert tags.count(ArcTag.FUTURE) == 1
    assert tags.count(ArcTag.PAST) == 1
    assert tags.count(ArcTag.SPACELIKE) == 2
    # alternation: timelike and spacelike interleave
    for i, t in enumerate(tags):
        assert (t is ArcTag.SPACELIKE) != (tags[(i + 1) % 4] is ArcTag.SPACELIKE)


def degree0_hyperbolic_circle(length=1.2):
    """Quotient of the interval between consecutive fixed points on which the
    holonomy moves points forward (left endpoint repelling)."""
    g = Proj2.hyperbolic(length)
    base = fixed_point_lift(g)
    a = fixed_line_angles(g)  # [0, pi/2]; angle 0 is attracting for diag(l, 1/l)
    return RP1Circle(base, interval=(a[1], a[0] + PI))


def test_mark_arcs_degree0_components():
    circ = degree0_hyperbolic_circle()
    for comp in ("future", "past", "spacelike"):
        link = mark_timelike_arcs(circ, HSPointClass.DS2, {"component": comp})
        assert link.arc_tags() == [ArcTag(comp)]
        assert link.kind.component == comp
        assert link.kind.degree == 0


def test_mark_arcs_inconsistent_anchor_rejected():
    g = Proj2.hyperbolic(1.0)
    lift = fixed_point_lift(g).shifted(2)
    with pytest.raises(GeometryError):
        mark_timelike_arcs(RP1Circle(lift), HSPointClass.DS2, {"future_anchor": 0.123})


def test_mark_arcs_parabolic_boundary():
    g = Proj2.parabolic(-1.0)
    lift = fixed_point_lift(g).shifted(2)
    link = mark_timelike_arcs(RP1Circle(lift), HSPointClass.BOUNDARY_PLUS)
    tags = link.arc_tags()
    assert len(tags) == 2
    assert set(tags) == {ArcTag.FUTURE, ArcTag.PAST}
    kind = link.kind
    assert kind.tag is CircleTag.PARABOLIC
    assert kind.degree == 2


def test_parabolic_degree0_interval_side():
    g = Proj2.parabolic(-1.0)  # negative class: the only one of degree 0
    base = fixed_point_lift(g)
    x0 = fixed_line_angles(g)[0]
    circ = RP1Circle(base, interval=(x0, x0 + PI))
    cusp = mark_timelike_arcs(circ, HSPointClass.BOUNDARY_PLUS, {"side": "cuspidal"})
    assert cusp.arc_tags() == [ArcTag.FUTURE]
    ext = mark_timelike_arcs(circ, HSPointClass.BOUNDARY_MINUS, {"side": "extreme"})
    assert ext.arc_tags() == [ArcTag.FUTURE]


def test_arc_alternation_enforced_over_ds2():
    with pytest.raises(GeometryError):
        LinkCircle(
            degree2_hyperbolic_circle(),
            HSPointClass.DS2,
            (Arc(0.0, 0.5, ArcTag.FUTURE), Arc(0.6, 1.0, ArcTag.PAST)),
        )


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _line(v):
    return float(np.arctan2(v[1], v[0]) % PI)


# R(alpha) diag(e^t, e^-t) R(beta): every SL(2,R) matrix, here with
# condition number at most e^3
CONJUGATORS = st.tuples(st.floats(0.0, PI), st.floats(-1.5, 1.5), st.floats(0.0, PI)).map(
    lambda p: _rotation(p[0]) @ np.diag([np.exp(p[1]), np.exp(-p[1])]) @ _rotation(p[2])
)
# diag(e^(l/2), e^(-l/2)) fixes the lines 0 (attracting) and pi/2; [[1, s], [0, 1]]
# fixes 0 only and moves every other line forward exactly when s < 0
MODELS = st.one_of(
    st.floats(0.3, 3.0).map(lambda l: np.diag([np.exp(l / 2), np.exp(-l / 2)])),
    st.sampled_from((1.0, -1.0)).map(lambda s: np.array([[1.0, s], [0.0, 1.0]])),
)
SHIFTS = st.sampled_from((-1, 0, 1, 2))
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@PROPERTY
@given(model=MODELS, a=CONJUGATORS, k=SHIFTS)
def test_a_shifted_fixed_point_lift_is_a_generator_exactly_when_shifted_forward(model, a, k):
    """delta^k g0 moves every lifted point forward exactly when k >= 1: for
    k <= 0 it fixes the fixed lines or moves them back, wherever they sit."""
    lift = fixed_point_lift(Proj2(a @ model @ np.linalg.inv(a))).shifted(k)
    if k >= 1:
        assert RP1Circle(lift).degree == k
    else:
        with pytest.raises(GeometryError, match="positively oriented generator"):
            RP1Circle(lift)


@PROPERTY
@given(model=MODELS, a=CONJUGATORS, k=SHIFTS, start=st.integers(0, 3), span=st.integers(1, 2))
def test_an_interval_circle_is_an_arc_between_consecutive_fixed_lines(model, a, k, start, span):
    """The interval from a lifted fixed line to the next one but span - 1 is
    accepted exactly when span is 1, the lift is the fixed-point lift and it
    moves the arc forward: from the repelling line to the attracting one, or
    anywhere for the parabolic class that moves lines forward."""
    hyperbolic = model[0, 1] == 0.0
    lines = [(_line(a[:, 0]), "attracting")]
    if hyperbolic:
        lines.append((_line(a[:, 1]), "repelling"))
    lifted = sorted((x + j * PI, kind) for x, kind in lines for j in range(6))
    (x0, kind0), (x1, _) = lifted[start], lifted[start + span]
    forward = kind0 == "repelling" if hyperbolic else model[0, 1] < 0
    lift = fixed_point_lift(Proj2(a @ model @ np.linalg.inv(a))).shifted(k)
    if k == 0 and span == 1 and forward:
        assert RP1Circle(lift, interval=(x0, x1)).degree == 0
    else:
        with pytest.raises(GeometryError):
            RP1Circle(lift, interval=(x0, x1))


def _two_line_hyperbolic():
    """Fixed lines 0.1 (eigenvalue 1.3) and 0.2."""
    p = np.column_stack([[np.cos(0.1), np.sin(0.1)], [np.cos(0.2), np.sin(0.2)]])
    return Proj2(p @ np.diag([1.3, 1 / 1.3]) @ np.linalg.inv(p))


def test_an_interval_holding_the_other_fixed_line_is_refused():
    lift = fixed_point_lift(_two_line_hyperbolic())
    for x0 in (0.1, 0.2):
        with pytest.raises(GeometryError, match="consecutive fixed points"):
            RP1Circle(lift, interval=(x0, x0 + PI))
    assert RP1Circle(lift, interval=(0.2, 0.1 + PI)).degree == 0


def test_a_fixed_point_lift_is_no_generator_wherever_its_fixed_lines_sit():
    """A fixed line at 0.15, or two at 0.1 and 0.2, leaves most of [0, pi)
    moving forward: the translation number, 0, tells such a lift from a
    generator."""
    tilted = _rotation(0.15) @ np.array([[1.0, -1.0], [0.0, 1.0]]) @ _rotation(0.15).T
    for g in (Proj2(tilted), _two_line_hyperbolic()):
        with pytest.raises(GeometryError, match="positively oriented generator"):
            RP1Circle(fixed_point_lift(g))
        assert RP1Circle(fixed_point_lift(g).shifted(2)).degree == 2
