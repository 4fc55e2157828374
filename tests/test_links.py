import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone.errors import GeometryError
from adscone.hssurface import (
    DeSitterRegion,
    HyperbolicRegion,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
)
from adscone.isom import Proj2 as _P
from adscone.isom import Proj2, fixed_line_angles, fixed_point_lift  # noqa: F401
from adscone.linalg import HSPointClass
from adscone.links import (
    GluingPositivity,
    SingKind,
    SingularityType,
    classify_singularity,
    link_of_type,
    particle_mass,
    positivity_from_gluing,
    tachyon_mass_from_planes,
)
from adscone.rp1 import RP1Circle, mark_timelike_arcs
from adscone.spacetimes import link_of_line, suspend
from adscone.tolerances import ANGLE_MATCH, TRACE

from test_rp1 import degree0_hyperbolic_circle, degree2_hyperbolic_circle, elliptic_lift

PI = np.pi


def test_massive_particle_example():
    link = mark_timelike_arcs(RP1Circle(elliptic_lift(PI / 2)), HSPointClass.H2_PLUS)
    s = classify_singularity(link)
    assert s.kind is SingKind.MASSIVE_PARTICLE
    assert abs(s.angle - PI / 2) < 1e-12
    assert abs(s.mass - 0.75) < 1e-12  # m = 1 - theta/2pi
    assert s.is_positive


def test_mass_strictly_decreasing_and_zero_at_two_pi():
    thetas = np.linspace(0.2, 2 * PI, 25)
    masses = [particle_mass(t) for t in thetas]
    assert np.all(np.diff(masses) < 0)
    assert abs(particle_mass(2 * PI)) < 1e-15


def test_tachyon_sign_from_circle_type():
    for m0 in (0.5, 1.0):
        pos = mark_timelike_arcs(degree2_hyperbolic_circle(m0, True), HSPointClass.DS2)
        s = classify_singularity(pos)
        assert s.kind is SingKind.TACHYON
        assert abs(s.mass - m0) < 1e-12
        neg = mark_timelike_arcs(degree2_hyperbolic_circle(m0, False), HSPointClass.DS2)
        s2 = classify_singularity(neg)
        assert s2.kind is SingKind.TACHYON
        assert abs(s2.mass + m0) < 1e-12
        assert not s2.is_positive


def test_btz_tags_from_degree0_components():
    circ = degree0_hyperbolic_circle(1.5)
    fut = mark_timelike_arcs(circ, HSPointClass.DS2, {"component": "future"})
    # all-future link: past singularity of a white hole
    assert classify_singularity(fut).kind is SingKind.BTZ_PAST
    pst = mark_timelike_arcs(circ, HSPointClass.DS2, {"component": "past"})
    assert classify_singularity(pst).kind is SingKind.BTZ_FUTURE
    spc = mark_timelike_arcs(circ, HSPointClass.DS2, {"component": "spacelike"})
    s = classify_singularity(spc)
    assert s.kind is SingKind.REJECTED_SPACELIKE_HYPERBOLIC
    assert s.is_rejected


def test_degree4_rejected():
    g = Proj2.hyperbolic(1.0)
    lift = fixed_point_lift(g).shifted(4)
    from adscone.isom import attracting_line_angle

    link = mark_timelike_arcs(
        RP1Circle(lift), HSPointClass.DS2, {"future_anchor": attracting_line_angle(g)}
    )
    s = classify_singularity(link)
    assert s.kind is SingKind.REJECTED_DEGREE
    assert s.degree == 4
    assert s.is_rejected


def test_graviton_signs():
    neg = Proj2.parabolic(-1.0)  # gx >= x on the lifted line: negative class
    pos = Proj2.parabolic(1.0)
    for g, expected in ((pos, SingKind.GRAVITON_POSITIVE), (neg, SingKind.GRAVITON_NEGATIVE)):
        lift = fixed_point_lift(g).shifted(2)
        link = mark_timelike_arcs(RP1Circle(lift), HSPointClass.BOUNDARY_PLUS)
        assert classify_singularity(link).kind is expected


def test_extreme_btz_four_ways():
    g = Proj2.parabolic(-1.0)
    base = fixed_point_lift(g)
    x0 = fixed_line_angles(g)[0]
    circ = RP1Circle(base, interval=(x0, x0 + PI))
    cases = [
        (HSPointClass.BOUNDARY_PLUS, "extreme", SingKind.EXTREME_BTZ_FUTURE),
        (HSPointClass.BOUNDARY_MINUS, "cuspidal", SingKind.EXTREME_BTZ_FUTURE),
        (HSPointClass.BOUNDARY_PLUS, "cuspidal", SingKind.EXTREME_BTZ_PAST),
        (HSPointClass.BOUNDARY_MINUS, "extreme", SingKind.EXTREME_BTZ_PAST),
    ]
    for base_cls, side, expected in cases:
        link = mark_timelike_arcs(circ, base_cls, {"side": side})
        assert classify_singularity(link).kind is expected


# --- tachyon mass from the cross-ratio of tangent rays ---


def hyperbola_direction(u):
    """Timelike direction at boost parameter u in the (T, S) plane."""
    return np.array([np.cosh(u), np.sinh(u), 0.0])


def projective_cross_ratio_oracle(u):
    """Cross-ratio computed in a different projective chart, t = v1/v0.

    Coordinates (t(l1), t(d1), t(d2), t(l2)) = (-1, -tanh u, tanh u, 1);
    [a:b:c:d] = ((a-c)(b-d))/((a-b)(c-d)) gives ((1+tanh u)/(1-tanh u))^2,
    whose log is 4u.
    """
    a, b, c, d = -1.0, -np.tanh(u), np.tanh(u), 1.0
    return np.log(((a - c) * (b - d)) / ((a - b) * (c - d)))


def test_tachyon_mass_coincident_planes():
    l1 = np.array([1.0, -1.0, 0.0])
    l2 = np.array([1.0, 1.0, 0.0])
    d = hyperbola_direction(0.3)
    assert abs(tachyon_mass_from_planes(l1, d, d, l2)) < 1e-12


def test_tachyon_mass_symmetric_configuration():
    l1 = np.array([1.0, -1.0, 0.0])
    l2 = np.array([1.0, 1.0, 0.0])
    for u in (0.2, 0.5, 1.1):
        m = tachyon_mass_from_planes(l1, hyperbola_direction(-u), hyperbola_direction(u), l2)
        oracle = projective_cross_ratio_oracle(u)
        assert abs(m - oracle) < 1e-10
        assert abs(m - 4 * u) < 1e-10
        # swapping d1 and d2 re-indexes to the same value
        m2 = tachyon_mass_from_planes(l1, hyperbola_direction(u), hyperbola_direction(-u), l2)
        assert abs(m2 - m) < 1e-12


def test_tachyon_mass_rejects_bad_input():
    l1 = np.array([1.0, -1.0, 0.0])
    l2 = np.array([1.0, 1.0, 0.0])
    with pytest.raises(GeometryError):
        tachyon_mass_from_planes(l1, np.array([0.0, 1.0, 0.0]), hyperbola_direction(0.1), l2)
    with pytest.raises(GeometryError):
        tachyon_mass_from_planes(hyperbola_direction(0.1), hyperbola_direction(0.2),
                                 hyperbola_direction(0.3), l2)


# --- causal positivity of gluings along lightlike rays ---


def test_positivity_identity_degenerate():
    r = positivity_from_gluing(np.eye(2), "future")
    assert r == GluingPositivity(positive=True, degenerate=True)


def test_positivity_future_displacing_boost():
    boost = Proj2.hyperbolic(0.8)  # t -> e^0.8 t on the ray coordinate
    r = positivity_from_gluing(boost, "future")
    assert r.positive and not r.degenerate
    r_inv = positivity_from_gluing(boost.inverse(), "future")
    assert not r_inv.positive
    # on a past-side half-plane the same map displaces toward the past
    assert not positivity_from_gluing(boost, "past").positive
    assert positivity_from_gluing(boost.inverse(), "past").positive


def test_positivity_requires_axis_fixed():
    with pytest.raises(GeometryError):
        positivity_from_gluing(np.array([[1.0, 0.5], [0.0, 1.0]]), "future")


# -- cross-convention agreements (spec invariants) ---------------------------


def test_tachyon_sign_agrees_with_gluing_positivity():
    """The circle-type sign and the causal-displacement predicate agree on
    the model tachyons: the future-side ray coordinate of the T_m gluing is
    scaled by e^m."""
    from adscone.spacetimes import link_of_line, tachyon_spacetime

    for m in (0.5, 1.0, -0.5, -1.0):
        s = classify_singularity(link_of_line(tachyon_spacetime(m), "c"))
        glue = Proj2(np.diag([np.exp(m / 2), np.exp(-m / 2)]))
        causal = positivity_from_gluing(glue, "future")
        assert (s.mass > 0) == causal.positive


def test_graviton_sign_agrees_with_causal_displacement():
    """The lifted-line inequality and the causal predicate agree on the
    model gravitons: the ambient gluing displaces the cut plane by
    gamma * s along the null direction, future exactly when s > 0 on the
    gamma > 0 side."""
    from adscone.isom import factor_isometry, parabolic_sign
    from adscone.linalg import dot22, time_orientation_field
    from adscone.spacetimes import graviton_gluing, graviton_spacetime, link_of_line

    for s_param in (0.7, -0.7):
        G = graviton_gluing(s_param)
        # geometric displacement on the cut half-plane gamma > 0
        ll = np.array([0.0, 1.0, 0.0, 1.0])
        future_displacing = True
        for gamma in (0.5, 1.0, 2.0):
            for beta in (-0.5, 0.0, 0.7):
                x = np.sqrt(1 + gamma ** 2) * np.array([1.0, 0, 0, 0]) + beta * ll
                x = x + gamma * np.array([0.0, 0.0, 1.0, 0.0])
                disp = G @ x - x
                q = dot22(disp, disp)
                assert abs(q) < 1e-9  # displacement along the null ruling
                future = dot22(disp, time_orientation_field(x)) < 0
                future_displacing = future_displacing and future
        # the link sign of the corresponding model graviton
        model_sign = +1 if future_displacing else -1
        link = link_of_line(graviton_spacetime(model_sign), "c")
        skind = classify_singularity(link).kind
        expected = (
            SingKind.GRAVITON_POSITIVE if future_displacing else SingKind.GRAVITON_NEGATIVE
        )
        assert skind is expected
        # and the lift-inequality sign of the gluing's projective factors
        pair = factor_isometry(G)
        assert parabolic_sign(pair.left) == parabolic_sign(pair.right)


# -- the near-parabolic rule: classify reads back what link_of_type built ----

# the smallest boost length whose trace classify reads as hyperbolic
MASS_WINDOW = 2.0 * np.arccosh(1.0 + TRACE / 2.0)


def _refusal(request: str, g: Proj2) -> str:
    return (
        f"{request}: its holonomy has |tr - 2| = {abs(g.trace - 2.0):.3e}, within "
        "TRACE = 1e-09, the resolution of the trace classifier"
    )


@pytest.mark.parametrize("theta", [1e-6, PI - 1e-6, PI + 1e-6, 2 * PI - 1e-6])
def test_massive_particle_near_a_multiple_of_pi_is_refused(theta):
    """A rotation within about sqrt(TRACE) of k pi reads as parabolic: the
    particle is refused by kind, angle and |tr - 2|, not realized wrongly."""
    with pytest.raises(GeometryError) as err:
        link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=theta))
    t = theta % PI
    rotation = Proj2(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]))
    assert str(err.value) == _refusal(f"MassiveParticle link of angle {theta!r}", rotation)


@pytest.mark.parametrize("theta", [2 * PI - 5e-5, PI + 5e-5, PI, 2 * PI, 3 * PI])
def test_massive_particle_just_outside_the_window_round_trips(theta):
    link = link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=theta))
    assert abs(classify_singularity(link).angle - theta) <= 1e-12


@pytest.mark.parametrize(
    "kind", [SingKind.TACHYON, SingKind.BTZ_FUTURE, SingKind.BTZ_PAST], ids=lambda k: k.value
)
@pytest.mark.parametrize("mass", [0.0, 1e-12, 1e-5, -1e-5, 6.3e-5, MASS_WINDOW * (1 + 1e-12)])
def test_small_hyperbolic_masses_are_refused_by_the_resolution(kind, mass):
    """Tachyon and BTZ masses whose boost classify reads as parabolic or the
    identity are refused by kind, mass and |tr - 2|; a stated BTZ mass of 0
    is refused like a tachyon's (only a missing one means 1)."""
    with pytest.raises(GeometryError) as err:
        link_of_type(SingularityType(kind, mass=mass))
    assert str(err.value) == _refusal(f"{kind.value} link of mass {mass!r}", Proj2.hyperbolic(mass))


@pytest.mark.parametrize("kind", [SingKind.BTZ_FUTURE, SingKind.BTZ_PAST])
def test_a_missing_btz_mass_means_one(kind):
    s = classify_singularity(link_of_type(SingularityType(kind)))
    assert s.kind is kind and abs(s.mass - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", [SingKind.TACHYON, SingKind.BTZ_FUTURE, SingKind.BTZ_PAST])
def test_hyperbolic_masses_just_above_the_resolution_round_trip(kind):
    mass = MASS_WINDOW * (1 + 1e-6)
    s = classify_singularity(link_of_type(SingularityType(kind, mass=mass)))
    assert s.kind is kind and abs(s.mass - mass) <= 1e-9


# the refusal of a particle angle too large for its lift offset: from 2^28 on
HUGE_ANGLE = 2.0 ** 28


def _round_trips(s: SingularityType) -> bool:
    """True if s reads back as itself, False if link_of_type refuses it by
    name: the near-parabolic rule, a particle angle of HUGE_ANGLE or more,
    or a missing angle or mass.  Any other outcome fails."""
    particle = s.kind is SingKind.MASSIVE_PARTICLE
    what, value = ("angle", s.angle) if particle else ("mass", s.mass)
    try:
        link = link_of_type(s)
    except GeometryError as err:
        if value is None:
            assert str(err) == f"{s.kind.value} link needs {'an' if particle else 'a'} {what}"
            return False
        request = f"{s.kind.value} link of {what} {value!r}: "
        if particle and value >= HUGE_ANGLE:
            assert str(err) == (
                f"cone angle {value!r}: its lift offset cannot be held to "
                "LIFT_CONGRUENCE = 1e-07 at that size"
            )
        else:
            assert str(err).startswith(request + "its holonomy has")
            assert str(err).endswith("within TRACE = 1e-09, the resolution of the trace classifier")
        return False
    got = classify_singularity(link)
    assert got.kind is s.kind
    if particle:
        assert abs(got.angle - s.angle) <= ANGLE_MATCH
    else:
        assert abs(got.mass - s.mass) <= 1e-9
    return True


@pytest.mark.parametrize("kind", [SingKind.MASSIVE_PARTICLE, SingKind.TACHYON])
def test_a_missing_angle_or_mass_is_refused_by_name(kind):
    assert not _round_trips(SingularityType(kind))


@pytest.mark.parametrize(
    "theta, done",
    [(1e8, True), (float(np.nextafter(HUGE_ANGLE, 0)), True), (HUGE_ANGLE, False), (1e9, False),
     (1e10, False), (1e16, False), (np.finfo(float).max, False), (3141592653.589793, False)],
)
def test_particle_angles_from_2_to_the_28_are_refused(theta, done):
    """From 2^28 on, 2 ulp(theta) exceed LIFT_CONGRUENCE: the lift offset of
    the link is no longer held to it, and the angle is refused by name,
    before the near-parabolic check (3141592653.589793 mod pi is within
    sqrt(TRACE) of 0)."""
    assert _round_trips(SingularityType(SingKind.MASSIVE_PARTICLE, angle=theta)) is done


def _regular_sphere_carrying(theta: float, orientation: str) -> SingularHSSurface:
    """The causally regular HS-sphere, a future and a past disk glued to a de
    Sitter annulus, with one particle of angle theta in the disk of the
    given orientation."""
    disks = {o: () for o in ("future", "past")}
    disks[orientation] = (theta,)
    return SingularHSSurface(
        hyperbolic_regions=tuple(
            HyperbolicRegion(o, RegionTopology.DISK, angles, 0, (i,))
            for i, (o, angles) in enumerate(disks.items())
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )


def test_suspend_refuses_a_past_particle_in_the_trace_window():
    """suspend builds its particles' links with link_of_type, so a past
    particle of angle 1e-6 gets the one near-parabolic refusal."""
    with pytest.raises(GeometryError) as err:
        suspend(_regular_sphere_carrying(1e-6, "past"))
    rotation = Proj2(np.array([[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]))
    assert str(err.value) == _refusal("MassiveParticle link of angle 1e-06", rotation)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(log_theta=st.floats(-3.0, 17.0), orientation=st.sampled_from(["future", "past"]))
def test_particle_angles_of_every_size_round_trip_or_are_refused(log_theta, orientation):
    """Built by link_of_type and by the suspension of a regular sphere
    carrying the angle, a particle reads back as itself or is refused by
    name, and both ways agree."""
    theta = 10.0 ** log_theta
    s = SingularityType(SingKind.MASSIVE_PARTICLE, angle=theta)
    done = _round_trips(s)
    try:
        link = link_of_line(suspend(_regular_sphere_carrying(theta, orientation)), "line0")
    except GeometryError as err:
        assert not done
        with pytest.raises(GeometryError) as direct:
            link_of_type(s)
        assert str(err) == str(direct.value)
        return
    assert done
    side = HSPointClass.H2_PLUS if orientation == "future" else HSPointClass.H2_MINUS
    assert link.basepoint_class is side
    assert abs(classify_singularity(link).angle - theta) <= ANGLE_MATCH


_LOG_OFFSETS = st.floats(-12.0, -3.0)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(k=st.sampled_from([0, 1, 2]), side=st.sampled_from([-1, 1]), log_delta=_LOG_OFFSETS)
def test_particles_near_a_multiple_of_pi_round_trip_or_are_refused(k, side, log_delta):
    delta = 10.0 ** log_delta
    theta = k * PI + (side * delta if k else delta)
    done = _round_trips(SingularityType(SingKind.MASSIVE_PARTICLE, angle=theta))
    # the window is |theta - k pi| <= about sqrt(TRACE) = 3.16e-5
    if delta >= 2 * np.sqrt(TRACE):
        assert done
    if delta <= np.sqrt(TRACE) / 2:
        assert not done


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from([SingKind.TACHYON, SingKind.BTZ_FUTURE, SingKind.BTZ_PAST]),
    sign=st.sampled_from([-1, 1]),
    side=st.sampled_from([-1, 1]),
    log_eps=st.floats(-12.0, -5.0),
)
def test_masses_around_the_window_round_trip_or_are_refused(kind, sign, side, log_eps):
    """Tachyon masses of either sign, BTZ lengths positive (a negative BTZ
    length is refused by the interval's orientation, a different rule)."""
    if kind is not SingKind.TACHYON:
        sign = 1
    mass = sign * MASS_WINDOW * (1 + side * 10.0 ** log_eps)
    done = _round_trips(SingularityType(kind, mass=mass))
    if side < 0:
        assert not done
    elif log_eps >= -6.0:
        assert done
