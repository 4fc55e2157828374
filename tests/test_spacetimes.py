import functools

import numpy as np
import pytest

from adscone.catalog import subdivide_face_with_cone, torus_with_cone_point
from adscone.errors import CausalityError, GeometryError
from adscone.hssurface import (
    DeSitterRegion,
    HyperbolicRegion,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
)
from adscone.isom import IsomKind, IsomPair, Proj2, classify, factor_isometry, parabolic_sign
from adscone.linalg import dot22
from adscone.links import SingKind, SingularityType, classify_singularity
from adscone.rp1 import ArcTag
from adscone.spacetimes import (
    achronal_graph_check,
    black_hole_spacetime,
    btz_invariant_lines,
    btz_static,
    causal_speed_check,
    cone_gluing,
    cone_spacetime,
    extreme_spacetime,
    graviton_spacetime,
    link_of_line,
    meridian_loop,
    model_isom_pair,
    model_lines,
    product_spacetime,
    saturating_null_curve,
    suspend,
    tachyon_gluing,
    tachyon_spacetime,
)
from adscone.tolerances import BTZ_LENGTH_MATCH

PI = np.pi
TWO_PI = 2 * np.pi


# -- model-link round trips ----------------------------------------------------


def test_cone_round_trip():
    for theta in (PI / 3, PI / 2, PI, 3 * PI / 2):
        m = cone_spacetime(theta)
        s = classify_singularity(link_of_line(m, "c"))
        assert s.kind is SingKind.MASSIVE_PARTICLE
        assert abs(s.angle - theta) < 1e-9
        assert abs(s.mass - (1 - theta / TWO_PI)) < 1e-12


def test_cone_half_mass_example():
    s = classify_singularity(link_of_line(cone_spacetime(PI), "c"))
    assert abs(s.mass - 0.5) < 1e-12


def test_tachyon_round_trip_both_signs():
    for mass in (0.5, 1.0, -0.5, -1.0):
        m = tachyon_spacetime(mass)
        for line in ("c", "c-"):
            s = classify_singularity(link_of_line(m, line))
            assert s.kind is SingKind.TACHYON
            assert abs(s.mass - mass) < 1e-9
            assert s.is_positive == (mass > 0)
    link = link_of_line(tachyon_spacetime(1.0), "c")
    assert link.kind.degree == 2
    assert abs(link.kind.length - 1.0) < 1e-9


def test_black_hole_round_trip():
    m = black_hole_spacetime(1.3)
    future = classify_singularity(link_of_line(m, "c"))
    assert future.kind is SingKind.BTZ_FUTURE
    assert abs(future.mass - 1.3) < 1e-9
    past = classify_singularity(link_of_line(m, "c-"))
    assert past.kind is SingKind.BTZ_PAST
    # future singularity: no future arcs, one past component
    link = link_of_line(m, "c")
    assert link.arc_tags().count(ArcTag.FUTURE) == 0
    assert link.arc_tags().count(ArcTag.PAST) == 1


def test_graviton_round_trip():
    for sign, expected in ((+1, SingKind.GRAVITON_POSITIVE), (-1, SingKind.GRAVITON_NEGATIVE)):
        s = classify_singularity(link_of_line(graviton_spacetime(sign), "c"))
        assert s.kind is expected


@pytest.mark.parametrize("s", [0.7, -0.7, 2.0, -2.0])
def test_graviton_factor_sign_is_opposite_to_the_gluing_parameter(s):
    """The convention graviton_gluing states: both factors are
    I + (s/2) [[1, -1], [1, -1]], parabolic of sign -sign(s), while the
    positive model graviton's link reads as GravitonPositive."""
    pair = model_isom_pair("graviton", s)
    for g in (pair.left, pair.right):
        assert np.abs(g.m - (np.eye(2) + s / 2 * np.array([[1, -1], [1, -1]]))).max() <= 1e-12
        assert classify(g).kind is IsomKind.PARABOLIC
        assert parabolic_sign(g) == -np.sign(s)
    positive = classify_singularity(link_of_line(graviton_spacetime(+1)))
    assert positive.kind is SingKind.GRAVITON_POSITIVE


def test_extreme_round_trip():
    m = extreme_spacetime()
    assert classify_singularity(link_of_line(m, "c")).kind is SingKind.EXTREME_BTZ_FUTURE
    assert classify_singularity(link_of_line(m, "c-")).kind is SingKind.EXTREME_BTZ_PAST


def test_local_future_past_connectedness():
    # particles, tachyons and gravitons: one future and one past arc family
    for m, line in (
        (cone_spacetime(1.2), "c"),
        (tachyon_spacetime(0.7), "c"),
        (graviton_spacetime(+1), "c"),
    ):
        link = link_of_line(m, line)
        assert link.arc_tags().count(ArcTag.FUTURE) <= 1
        assert link.arc_tags().count(ArcTag.PAST) <= 1


def test_product_spacetime_lines():
    surf, _ = torus_with_cone_point(PI)
    m = product_spacetime(surf)
    assert model_lines(m) == ["4"]
    s = classify_singularity(link_of_line(m, "4"))
    assert s.kind is SingKind.MASSIVE_PARTICLE and abs(s.angle - PI) < 1e-12


def test_suspend_requires_causal_and_counts_interaction():
    link = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (PI,), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (2 * PI / 3, 2 * PI / 3), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )
    lines = suspend(link)
    assert len(lines) >= 3  # an interaction
    kinds = sorted(classify_singularity(circle).kind.value for circle in lines.values())
    assert kinds == ["MassiveParticle"] * 3
    # a degree-4 singularity is rejected
    from adscone.links import SingularityType

    bad = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("past", RegionTopology.DISK, (1.0,), 0, (0,)),
        ),
        de_sitter_regions=(
            DeSitterRegion(
                RegionTopology.DISK,
                (SingularityType(SingKind.REJECTED_DEGREE, degree=4),),
                (0,),
            ),
        ),
        photon_circles=(PhotonCircle(0, 0),),
    )
    with pytest.raises(CausalityError):
        suspend(bad)


def test_suspend_regular_sphere_has_no_lines():
    regular = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )
    assert suspend(regular) == {}


def _product():
    surf, _ = torus_with_cone_point(2.0)
    return product_spacetime(subdivide_face_with_cone(surf, 1, 2.5)[0])


def _btz():
    g = Proj2.hyperbolic(2.0)
    return btz_static(g, g.conjugate(Proj2(np.array([[1.4, 0.3], [0.2, 1.0]]))))


def _suspension():
    """A past particle, a BTZ singularity, an extreme point and a graviton,
    in the order all_singularities lists them."""
    return suspend(
        SingularHSSurface(
            hyperbolic_regions=(HyperbolicRegion("past", RegionTopology.DISK, (1.0,), 0, (0,)),),
            de_sitter_regions=(
                DeSitterRegion(
                    RegionTopology.DISK,
                    (SingularityType(SingKind.BTZ_FUTURE, mass=1.3),),
                    (0,),
                    ("past",),
                ),
            ),
            photon_circles=(PhotonCircle(0, 0, (SingularityType(SingKind.GRAVITON_POSITIVE),)),),
        )
    )


MODELS = {
    "cone": lambda: cone_spacetime(1.2),
    "tachyon+": lambda: tachyon_spacetime(0.7),
    "tachyon-": lambda: tachyon_spacetime(-0.7),
    "black-hole": lambda: black_hole_spacetime(1.3),
    "graviton+": lambda: graviton_spacetime(+1),
    "graviton-": lambda: graviton_spacetime(-1),
    "extreme": extreme_spacetime,
    "product": _product,
    "btz": _btz,
}


@functools.cache
def _model(name):
    return MODELS[name]()


def _particle(theta):
    return SingKind.MASSIVE_PARTICLE, theta, 1 - theta / TWO_PI


# model -> line -> (kind, angle, mass) of the classified link
MODEL_LINES = {
    "cone": {"c": _particle(1.2)},
    "tachyon+": {"c": (SingKind.TACHYON, None, 0.7), "c-": (SingKind.TACHYON, None, 0.7)},
    "tachyon-": {"c": (SingKind.TACHYON, None, -0.7), "c-": (SingKind.TACHYON, None, -0.7)},
    "black-hole": {
        "c": (SingKind.BTZ_FUTURE, None, 1.3),
        "c-": (SingKind.BTZ_PAST, None, 1.3),
    },
    "graviton+": {"c": (SingKind.GRAVITON_POSITIVE, None, None)},
    "graviton-": {"c": (SingKind.GRAVITON_NEGATIVE, None, None)},
    "extreme": {
        "c": (SingKind.EXTREME_BTZ_FUTURE, None, None),
        "c-": (SingKind.EXTREME_BTZ_PAST, None, None),
    },
    "product": {"4": _particle(2.0), "5": _particle(2.5)},
    "btz": {"future": (SingKind.BTZ_FUTURE, None, 2.0), "past": (SingKind.BTZ_PAST, None, 2.0)},
}

# line of _suspension() -> (kind, angle, mass) of the classified link
SUSPENSION_LINES = {
    "line0": _particle(1.0),
    "line1": (SingKind.BTZ_FUTURE, None, 1.3),
    "line2": (SingKind.EXTREME_BTZ_PAST, None, None),
    "line3": (SingKind.GRAVITON_POSITIVE, None, None),
}


def _assert_classifies_as(link, want):
    kind, angle, mass = want
    s = classify_singularity(link)
    assert s.kind is kind
    for got, value in ((s.angle, angle), (s.mass, mass)):
        assert (got is None) if value is None else abs(got - value) < 1e-9


@pytest.mark.parametrize(
    "name, line", [(name, line) for name, lines in MODEL_LINES.items() for line in lines]
)
def test_every_model_line_classifies(name, line):
    m = _model(name)
    assert model_lines(m) == list(MODEL_LINES[name])
    _assert_classifies_as(link_of_line(m, line), MODEL_LINES[name][line])


@pytest.mark.parametrize("line", list(SUSPENSION_LINES))
def test_every_suspension_line_classifies(line):
    """suspend names the lines of the singularities in the order
    all_singularities lists them, and nothing else."""
    lines = _suspension()
    assert list(lines) == list(SUSPENSION_LINES)
    _assert_classifies_as(lines[line], SUSPENSION_LINES[line])


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("cone", "c-", "unknown line 'c-' of a cone spacetime"),
        ("tachyon+", "future", "unknown line 'future' of a tachyon spacetime"),
        ("black-hole", "0", "unknown line '0' of a black hole spacetime"),
        ("graviton+", "c-", "unknown line 'c-' of a graviton spacetime"),
        ("extreme", "past", "unknown line 'past' of an extreme spacetime"),
        ("product", "6", "vertex 6 is not a marked point of the base"),
        ("product", "c", "product spacetime lines are marked vertex ids"),
        ("btz", "c", "unknown line 'c' of a BTZ spacetime"),
    ],
)
def test_unknown_model_line_is_rejected(name, line, message):
    with pytest.raises(GeometryError, match=message):
        link_of_line(_model(name), line)


# -- causal checks in the singular chart ---------------------------------------


def test_causal_speed_vertical_line():
    ts = np.arange(0.0, 0.5, 1e-3)
    zs = np.full_like(ts, 0.3, dtype=complex)
    assert causal_speed_check(ts, zs, mass=0.5)


def test_causal_speed_saturating_boundary():
    for mass in (0.25, 0.5, 0.75):
        ts, zs = saturating_null_curve(mass, 0.0, 0.2, 0.05)
        assert causal_speed_check(ts, zs, mass)
        # inflate the speed about the starting radius by 1 percent: rejected
        zs_fast = zs[0] + 1.01 * (zs - zs[0])
        assert not causal_speed_check(ts, zs_fast, mass)
        zs_slow = zs[0] + 0.99 * (zs - zs[0])
        assert causal_speed_check(ts, zs_slow, mass)


def test_causal_speed_obvious_violation():
    ts = np.arange(0.0, 0.1, 1e-3)
    mass = 0.5
    alpha = 1 - mass
    r0 = 0.2
    # speed twice the bound at the starting radius
    zs = r0 + 2 * (r0 ** mass / alpha) * ts + 0j
    assert not causal_speed_check(ts, zs.astype(complex), mass)


def test_causal_speed_rejects_bad_sampling():
    with pytest.raises(GeometryError):
        causal_speed_check(np.array([0.0, 0.1]), np.array([0.1, 0.1], dtype=complex), 0.5)
    with pytest.raises(GeometryError):
        causal_speed_check(
            np.array([0.0, 1e-4]), np.array([0.5, 1.5], dtype=complex), 0.5
        )


def test_achronal_graph_profiles():
    mass = 0.5
    alpha = 1 - mass
    rs = np.linspace(0.05, 0.6, 120)
    phis = np.linspace(0, 2 * PI, 400, endpoint=False)
    assert achronal_graph_check(rs, phis, np.zeros((len(rs), len(phis))), mass)
    for eps, expected in ((0.1, True), (-0.1, False)):
        prof = (alpha / (1 - mass)) * rs ** (1 - mass) * (1 - eps)
        f = np.tile(prof[:, None], (1, len(phis)))
        assert achronal_graph_check(rs, phis, f, mass) is expected


# -- static BTZ -----------------------------------------------------------------


def test_btz_static_duality():
    g = Proj2(np.diag([np.e, 1 / np.e]))
    m = btz_static(g, g)
    lines = btz_invariant_lines(m)
    assert lines.duality_error < 1e-9
    for x in lines.fixed_line[:5]:
        assert abs(dot22(x, x) + 1) < 1e-9
    s = classify_singularity(link_of_line(m, "future"))
    assert s.kind is SingKind.BTZ_FUTURE
    assert abs(s.mass - 2.0) < 1e-9  # tr = 2 cosh(1)


def test_btz_static_rejects_bad_input():
    g = Proj2(np.diag([np.e, 1 / np.e]))
    elliptic = Proj2.elliptic(1.0)
    with pytest.raises(GeometryError):
        btz_static(g, elliptic)
    g2 = Proj2.hyperbolic(2.1)
    with pytest.raises(GeometryError):
        btz_static(g, g2)


def test_btz_conjugated_pair():
    a = Proj2(np.array([[1.4, 0.3], [0.2, 1.0]]))
    g1 = Proj2.hyperbolic(2.0)
    g2 = g1.conjugate(a)
    m = btz_static(g1, g2)
    lines = btz_invariant_lines(m)
    assert lines.duality_error < 1e-9


def _btz_pairs():
    """Hyperbolic pairs (g1, g2) of one translation length, conjugated by
    seeded random matrices, then two whose lengths differ by just under
    BTZ_LENGTH_MATCH, one each way."""
    rng = np.random.default_rng(17)
    conjugators = [Proj2(a) for a in rng.normal(size=(40, 2, 2)) if np.linalg.det(a) > 0.05]
    pairs = [
        (Proj2.hyperbolic(length).conjugate(a), Proj2.hyperbolic(length).conjugate(b))
        for length, a, b in zip(rng.uniform(0.05, 4.0, 10), conjugators[::2], conjugators[1::2])
    ]
    for gap in (0.99, -0.99):
        g2 = Proj2.hyperbolic(1.3 + gap * BTZ_LENGTH_MATCH).conjugate(conjugators[-1])
        pairs.append((Proj2.hyperbolic(1.3).conjugate(conjugators[-2]), g2))
    return pairs


@pytest.mark.parametrize("g1, g2", _btz_pairs())
def test_btz_lines_span_the_planes_of_the_svd_oracle(g1, g2, btz_planes_by_svd, matrix44_of_pair):
    """The closed-form lines lie on the quadric, in the oracle's 2-planes,
    and the fixed one is pointwise fixed: to rounding when the lengths
    agree, and up to the slide of half their difference when they do not."""
    lines = btz_invariant_lines(btz_static(g1, g2))
    gap = abs(classify(g1).length - classify(g2).length)
    G = matrix44_of_pair(IsomPair(g1, g2))
    for x in lines.fixed_line:
        assert np.abs(G @ x - x).max() <= (1e-12 + gap) * np.abs(x).max() ** 2
    for line, plane in zip((lines.fixed_line, lines.translated_line), btz_planes_by_svd(g1, g2)):
        assert np.abs([dot22(x, x) + 1 for x in line]).max() < 1e-12 * np.abs(line).max() ** 2
        off_plane = line - line @ plane.T @ plane
        assert np.abs(off_plane).max() <= (1e-12 + gap) * np.abs(line).max()
    assert lines.duality_error < 1e-12 * np.abs(lines.fixed_line).max() ** 2


# -- ambient gluings -------------------------------------------------------------


def test_gluing_matrices_preserve_form():
    eta = np.diag([-1.0, -1.0, 1.0, 1.0])
    for G in (cone_gluing(1.1), tachyon_gluing(0.7)):
        assert np.abs(G.T @ eta @ G - eta).max() < 1e-12


def test_cone_gluing_factors_elliptic():
    pair = factor_isometry(cone_gluing(PI / 2))
    cl, cr = classify(pair.left), classify(pair.right)
    assert cl.kind is IsomKind.ELLIPTIC and cr.kind is IsomKind.ELLIPTIC
    assert abs(cl.angle - cr.angle) < 1e-9
    assert abs(cl.angle - PI / 2) < 1e-9


def test_tachyon_gluing_factors_hyperbolic():
    pair = factor_isometry(tachyon_gluing(0.8))
    cl, cr = classify(pair.left), classify(pair.right)
    assert cl.kind is IsomKind.HYPERBOLIC and cr.kind is IsomKind.HYPERBOLIC
    assert abs(cl.length - 0.8) < 1e-9
    assert abs(cr.length - 0.8) < 1e-9


def test_meridian_paths_close_through_gluing():
    for kind, param in (("cone", PI / 2), ("tachyon", 0.6)):
        path, G = meridian_loop(kind, param, samples=200)
        assert np.abs(G @ path[-1] - path[0]).max() < 1e-9
        norms = [abs(dot22(p, p) + 1) for p in path[:: len(path) // 7]]
        assert max(norms) < 1e-12
