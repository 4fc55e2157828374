import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from adscone import cli
from adscone import documents as docs
from adscone.errors import CausalityError, GeometryError
from adscone.hssurface import (
    CurveRecord,
    DeSitterRegion,
    FaceAngle,
    HyperbolicRegion,
    MarkedHSMetric,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
    SphereClass,
    VertexPosition,
    VertexRecord,
    check_causal,
    check_polyhedron_conditions,
    classify_hs_sphere,
    time_reverse_surface,
)
from adscone.links import SingKind, SingularityType

PI = np.pi
TWO_PI = 2 * np.pi


def sing(kind, **kw):
    return SingularityType(kind, **kw)


def causally_regular_sphere(theta, eta1, eta2):
    return SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (theta,), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (eta1, eta2), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )


def black_hole_sphere(extreme=False):
    if extreme:
        # a disk with the extreme singularity removed: an annulus closed by
        # a parabolic end
        ds = DeSitterRegion(RegionTopology.ANNULUS, (), (0,), ("future",))
    else:
        ds = DeSitterRegion(
            RegionTopology.DISK, (sing(SingKind.BTZ_FUTURE, mass=1.0),), (0,)
        )
    return SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("past", RegionTopology.DISK, (2.0, 2.2, 1.9), 0, (0,)),
        ),
        de_sitter_regions=(ds,),
        photon_circles=(PhotonCircle(0, 0),),
    )


def big_bang_sphere(orientation="past", angles=(PI / 2, PI / 2, PI / 2)):
    return SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion(orientation, RegionTopology.SPHERE, tuple(angles)),
        ),
    )


def bh_wh_sphere(extreme=False):
    # the known example also carries a tachyon of positive mass
    tach = sing(SingKind.TACHYON, mass=0.8)
    if extreme:
        ds = DeSitterRegion(RegionTopology.ANNULUS, (tach,), (), ("future", "past"))
    else:
        ds = DeSitterRegion(
            RegionTopology.SPHERE,
            (sing(SingKind.BTZ_FUTURE, mass=1.0), sing(SingKind.BTZ_PAST, mass=1.0), tach),
        )
    return SingularHSSurface(de_sitter_regions=(ds,))


def test_check_causal_rejects_spacelike_hyperbolic():
    s = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("past", RegionTopology.DISK, (2.0, 2.0, 2.0), 0, (0,)),
        ),
        de_sitter_regions=(
            DeSitterRegion(
                RegionTopology.DISK,
                (sing(SingKind.REJECTED_SPACELIKE_HYPERBOLIC),),
                (0,),
            ),
        ),
        photon_circles=(PhotonCircle(0, 0),),
    )
    report = check_causal(s)
    assert not report.causal
    assert any("closed timelike curves" in f for f in report.failures)


def test_check_causal_rejects_degree_four():
    s = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("past", RegionTopology.DISK, (2.0, 2.0, 2.0), 0, (0,)),
        ),
        de_sitter_regions=(
            DeSitterRegion(
                RegionTopology.DISK, (sing(SingKind.REJECTED_DEGREE, degree=4),), (0,)
            ),
        ),
        photon_circles=(PhotonCircle(0, 0),),
    )
    report = check_causal(s)
    assert not report.causal
    assert any("degree-4" in f for f in report.failures)


def test_check_causal_cor32_constraints():
    # an annular de Sitter region with one BTZ singularity is impossible
    s = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("past", RegionTopology.DISK, (1.0, 1.0, 1.0), 0, (0,)),
        ),
        de_sitter_regions=(
            DeSitterRegion(
                RegionTopology.ANNULUS, (sing(SingKind.BTZ_FUTURE, mass=1.0),), (0,)
            ),
        ),
        photon_circles=(PhotonCircle(0, 0),),
    )
    assert not check_causal(s).causal


def test_check_causal_positive_filter():
    s = causally_regular_sphere(2 * PI + 0.5, 1.0, 1.0)
    assert check_causal(s).causal
    assert not check_causal(s, positive=True).causal


def test_six_one_link_passes():
    s = causally_regular_sphere(PI, 2 * PI / 3, 2 * PI / 3)
    assert check_causal(s).causal


def test_classifier_corpus():
    fixtures = [
        (causally_regular_sphere(PI, PI / 3, PI / 3), SphereClass.CAUSALLY_REGULAR),
        (causally_regular_sphere(3 * PI / 2, 2 * PI / 3, 2 * PI / 3), SphereClass.CAUSALLY_REGULAR),
        (causally_regular_sphere(5.0, 2.4, 2.4), SphereClass.CAUSALLY_REGULAR),
        (black_hole_sphere(False), SphereClass.BLACK_HOLE_INTERACTION),
        (black_hole_sphere(True), SphereClass.BLACK_HOLE_INTERACTION),
        (time_reverse_surface(black_hole_sphere(False)), SphereClass.WHITE_HOLE_INTERACTION),
        (time_reverse_surface(black_hole_sphere(True)), SphereClass.WHITE_HOLE_INTERACTION),
        (big_bang_sphere("future"), SphereClass.BIG_BANG_OR_CRUNCH),
        (big_bang_sphere("past", (PI / 2, PI / 3, PI / 4)), SphereClass.BIG_BANG_OR_CRUNCH),
        (bh_wh_sphere(False), SphereClass.BH_WH_INTERACTION),
        (bh_wh_sphere(True), SphereClass.BH_WH_INTERACTION),
        (causally_regular_sphere(2.8, 1.1, 1.2), SphereClass.CAUSALLY_REGULAR),
    ]
    for surface, expected in fixtures:
        assert classify_hs_sphere(surface) is expected


def test_classifier_time_reversal_swaps_bh_wh():
    bh = black_hole_sphere(False)
    assert classify_hs_sphere(bh) is SphereClass.BLACK_HOLE_INTERACTION
    assert classify_hs_sphere(time_reverse_surface(bh)) is SphereClass.WHITE_HOLE_INTERACTION
    # double reversal is the identity
    assert classify_hs_sphere(time_reverse_surface(time_reverse_surface(bh))) is (
        SphereClass.BLACK_HOLE_INTERACTION
    )
    cr = causally_regular_sphere(PI, PI / 3, PI / 3)
    assert classify_hs_sphere(time_reverse_surface(cr)) is SphereClass.CAUSALLY_REGULAR
    bb = big_bang_sphere("past")
    assert classify_hs_sphere(time_reverse_surface(bb)) is SphereClass.BIG_BANG_OR_CRUNCH


def test_classifier_rejects_non_causal_and_small():
    bad = causally_regular_sphere(2 * PI + 1.0, 1.0, 1.0)
    with pytest.raises(CausalityError):
        classify_hs_sphere(bad, positive=True)
    two_sing = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (1.0,), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (1.0,), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )
    with pytest.raises(GeometryError):
        classify_hs_sphere(two_sing)


def test_positive_fixtures_have_small_angles():
    fixtures = [
        causally_regular_sphere(PI, PI / 3, PI / 3),
        black_hole_sphere(False),
        big_bang_sphere("past"),
    ]
    for s in fixtures:
        if check_causal(s, positive=True).causal:
            for x in s.all_singularities():
                if x.kind is SingKind.MASSIVE_PARTICLE:
                    assert x.angle < TWO_PI


# -- polyhedron conditions ----------------------------------------------------


def real_vertex(total, n=3):
    return VertexRecord(
        VertexPosition.HYPERBOLIC, tuple(FaceAngle(real=total / n) for _ in range(n))
    )


def t_vertex(r_total, k_total=4, n=2):
    return VertexRecord(
        VertexPosition.INTERIOR_T,
        tuple(FaceAngle(k=k_total // n, r=r_total / n) for _ in range(n)),
    )


def base_metric(**kw):
    defaults = dict(
        vertices=(real_vertex(PI),),
        sigma_geodesics=(),
        t_geodesics=(),
        type_tag="hyperbolic",
        timelike_arcs_join="H-Sigma",
    )
    defaults.update(kw)
    return MarkedHSMetric(**defaults)


def test_vertex_case_1_threshold():
    good = base_metric(vertices=(real_vertex(TWO_PI - 0.01),))
    bad = base_metric(vertices=(real_vertex(TWO_PI + 0.01),))
    assert check_polyhedron_conditions(good).passed["A"]
    report = check_polyhedron_conditions(bad)
    assert not report.passed["A"]
    assert any("not < 2 pi" in f for f in report.failures)


def test_vertex_case_3_interior_T():
    good = base_metric(vertices=(t_vertex(+0.3),))
    bad_imag = base_metric(vertices=(t_vertex(-0.3),))
    bad_real = base_metric(
        vertices=(VertexRecord(VertexPosition.INTERIOR_T, (FaceAngle(k=3, r=0.3),)),)
    )
    assert check_polyhedron_conditions(good).passed["A"]
    assert not check_polyhedron_conditions(bad_imag).passed["A"]
    assert not check_polyhedron_conditions(bad_real).passed["A"]


def test_sigma_geodesic_threshold_B():
    short = base_metric(sigma_geodesics=(CurveRecord(TWO_PI - 0.01),))
    long = base_metric(sigma_geodesics=(CurveRecord(TWO_PI + 0.01),))
    spec_example = base_metric(sigma_geodesics=(CurveRecord(5.0),))
    assert not check_polyhedron_conditions(short).passed["B"]
    assert check_polyhedron_conditions(long).passed["B"]
    assert not check_polyhedron_conditions(spec_example).passed["B"]
    # equality passes only with a consistent degenerate-domain flag
    eq = base_metric(
        sigma_geodesics=(CurveRecord(TWO_PI, bounds_degenerate_domain=True),),
        has_degenerate_t_domain=True,
    )
    assert check_polyhedron_conditions(eq).passed["B"]
    eq_bad = base_metric(
        sigma_geodesics=(CurveRecord(TWO_PI, bounds_degenerate_domain=True),),
    )
    assert not check_polyhedron_conditions(eq_bad).passed["B"]


def test_t_geodesic_threshold_C():
    good = base_metric(t_geodesics=(CurveRecord(TWO_PI - 0.01),))
    bad = base_metric(t_geodesics=(CurveRecord(TWO_PI + 0.01),))
    assert check_polyhedron_conditions(good).passed["C"]
    assert not check_polyhedron_conditions(bad).passed["C"]
    eq = base_metric(
        t_geodesics=(CurveRecord(TWO_PI, bounds_degenerate_domain=True),),
        has_degenerate_t_domain=True,
    )
    assert check_polyhedron_conditions(eq).passed["C"]


def test_monotone_in_lengths():
    # increasing a sigma length never turns B from pass to fail
    lengths = np.linspace(2, 9, 30)
    status = [
        check_polyhedron_conditions(
            base_metric(sigma_geodesics=(CurveRecord(float(L)),))
        ).passed["B"]
        for L in lengths
    ]
    assert sorted(status) == status
    status_c = [
        check_polyhedron_conditions(
            base_metric(t_geodesics=(CurveRecord(float(L)),))
        ).passed["C"]
        for L in lengths
    ]
    assert sorted(status_c, reverse=True) == status_c


def test_compact_type_D_and_E():
    good = base_metric(
        type_tag="compact",
        timelike_arcs_join="Sigma-Sigma",
        compact_segments=(PI - 0.01,),
        compact_boundary_lengths=(3.0, 4.0),
    )
    report = check_polyhedron_conditions(good)
    assert report.passed["D"] and report.passed["E"]
    bad_seg = base_metric(
        type_tag="compact",
        timelike_arcs_join="Sigma-Sigma",
        compact_segments=(PI + 0.01,),
        compact_boundary_lengths=(3.0, 4.0),
    )
    assert not check_polyhedron_conditions(bad_seg).passed["D"]
    bad_boundary = base_metric(
        type_tag="compact",
        timelike_arcs_join="Sigma-Sigma",
        compact_segments=(PI - 0.01,),
        compact_boundary_lengths=(TWO_PI + 0.5, 4.0),
    )
    assert not check_polyhedron_conditions(bad_boundary).passed["E"]
    wrong_join = base_metric(type_tag="compact", timelike_arcs_join="H-Sigma")
    assert not check_polyhedron_conditions(wrong_join).passed["D"]


def test_case_7_disconnected():
    good = base_metric(
        vertices=(
            VertexRecord(
                VertexPosition.SIGMA_T_DISCONNECTED,
                t_components=(
                    (FaceAngle(k=2, r=-0.4),),
                    (FaceAngle(k=2, r=-0.2),),
                ),
            ),
        )
    )
    assert check_polyhedron_conditions(good).passed["A"]
    bad_total = base_metric(
        vertices=(
            VertexRecord(
                VertexPosition.SIGMA_T_DISCONNECTED,
                t_components=(
                    (FaceAngle(k=2, r=0.0, lightlike=True),),
                    (FaceAngle(k=2, r=0.0, lightlike=True),),
                ),
            ),
        )
    )
    assert not check_polyhedron_conditions(bad_total).passed["A"]


def _real(*xs):
    return tuple(FaceAngle(real=x) for x in xs)


def _lorentz(*krs, lightlike=False):
    return tuple(FaceAngle(k=k, r=r, lightlike=lightlike) for k, r in krs)


def _vertex(position, angles=(), sigma=(), t=()):
    return VertexRecord(VertexPosition(position), angles, sigma, t)


# one vertex per case, at each position of the convexity condition (A): the
# first case of a position passes, each other one fails with its text
_VERTICES = {
    "H": (_vertex("H", _real(2.0, 2.0)), None),
    "H sum": (_vertex("H", _real(3.0, 3.5)), "hyperbolic vertex angle sum 6.5 not < 2 pi"),
    "interior Sigma": (_vertex("interior-Sigma", _real(3.0, 3.5)), None),
    "interior Sigma sum": (
        _vertex("interior-Sigma", _real(3.0, 3.0)),
        "interior Sigma vertex angle sum 6 not > 2 pi",
    ),
    "interior T": (_vertex("interior-T", _lorentz((2, 0.3), (2, 0.1))), None),
    "interior T real part": (
        _vertex("interior-T", _lorentz((2, 0.3), (1, 0.1))),
        "interior T vertex real part 3*pi/2 differs from 2 pi",
    ),
    "interior T imaginary part": (
        _vertex("interior-T", _lorentz((2, 0.3), (2, -0.5))),
        "interior T vertex imaginary part -0.2 not > 0",
    ),
    "isolated Sigma": (_vertex("isolated-Sigma"), None),
    "S_T": (
        _vertex(
            "S_T",
            sigma=(_real(1.0, 0.5), _real(0.0)),
            t=(_lorentz((0, 0.4)), _lorentz((1, 0.0), (-1, 0.0))),
        ),
        None,
    ),
    "S_T components": (
        _vertex("S_T", sigma=(_real(1.0),), t=(_lorentz((0, 0.4)),) * 2),
        "S_T vertex needs two Sigma and two T components",
    ),
    "S_T Sigma angle": (
        _vertex("S_T", sigma=(_real(2.0, 1.5), _real(1.0)), t=(_lorentz((0, 0.4)),) * 2),
        "S_T Sigma component angle 3.5 not in [0, pi)",
    ),
    "S_T T angle": (
        _vertex("S_T", sigma=(_real(1.0),) * 2, t=(_lorentz((0, 0.4)), _lorentz((2, 0.0)))),
        "S_T T-component angle not in i R_{>=0}",
    ),
    "Sigma-T connected": (
        _vertex("Sigma-T-connected", sigma=(_real(3.5),), t=(_lorentz((1, -0.2), (1, -0.1)),)),
        None,
    ),
    "Sigma-T connected, r2 < pi": (_vertex("Sigma-T-connected", t=(_lorentz((2, 0.0)),)), None),
    "Sigma-T connected components": (
        _vertex("Sigma-T-connected", t=(_lorentz((2, -0.1)),) * 2),
        "connected case needs a single T component",
    ),
    "Sigma-T connected Sigma components": (
        _vertex("Sigma-T-connected", sigma=(_real(1.0), _real(-5.0)), t=(_lorentz((2, -0.1)),)),
        "connected case needs at most one Sigma component",
    ),
    "Sigma-T connected real part": (
        _vertex("Sigma-T-connected", t=(_lorentz((4, -0.1)),)),
        "T angles must sum to pi - i r1",
    ),
    "Sigma-T connected r2": (
        _vertex("Sigma-T-connected", sigma=(_real(-0.5),), t=(_lorentz((2, -0.1)),)),
        "Sigma angle sum r2 negative",
    ),
    "Sigma-T connected r1 or r2": (
        _vertex("Sigma-T-connected", sigma=(_real(2.0, 1.5),), t=(_lorentz((2, 0.25)),)),
        "need r1 > 0 or r2 < pi (r1=-0.25, r2=3.5)",
    ),
    "Sigma-T disconnected": (
        _vertex(
            "Sigma-T-disconnected", t=(_lorentz((2, -0.4)), _lorentz((2, 0.0), lightlike=True))
        ),
        None,
    ),
    "Sigma-T disconnected components": (
        _vertex("Sigma-T-disconnected", t=(_lorentz((2, -0.4)),)),
        "disconnected case needs at least two T components",
    ),
    "Sigma-T disconnected T angle": (
        _vertex("Sigma-T-disconnected", t=(_lorentz((2, -0.4)), _lorentz((2, 0.3)))),
        "T-component angle not in pi - i R_{>0} nor lightlike pi",
    ),
    "Sigma-T disconnected total": (
        _vertex("Sigma-T-disconnected", t=(_lorentz((2, 0.0), lightlike=True),) * 2),
        "total angle sum equals 2 pi",
    ),
}


@pytest.mark.parametrize("case", list(_VERTICES))
def test_convexity_condition_at_every_vertex_position(case):
    """Condition A decides each position on its own rule: a vertex that
    meets it passes, and each way to miss it is named once."""
    vertex, failure = _VERTICES[case]
    report = check_polyhedron_conditions(MarkedHSMetric(vertices=(vertex,)))
    assert report.passed["A"] is (failure is None)
    assert report.failures == (() if failure is None else (f"vertex 0: {failure}",))


@pytest.mark.parametrize("case", list(_VERTICES))
def test_check_polyhedron_reads_every_vertex_position_from_its_document(tmp_path, case):
    """The same vertices as check-polyhedron documents: exit 0 with no
    failure, or exit 2 naming it."""
    vertex, failure = _VERTICES[case]
    path = tmp_path / "metric.json"
    doc = docs.marked_metric_to_doc(MarkedHSMetric(vertices=(vertex,)))
    path.write_text(docs.canonical_json(doc))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check-polyhedron", "--input", str(path)])
    report = json.loads(out.getvalue())
    assert (code, report["conditions"]["A"]) == ((0, True) if failure is None else (2, False))
    assert report["failures"] == ([] if failure is None else [f"vertex 0: {failure}"])
