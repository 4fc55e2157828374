"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 11's literal fixture demands
an interaction link whose two incoming particles of angle 2pi/3 produce a
particle of angle pi; the product of two such rotations would need
cosh(d) = 1/3 < 1 (see notes in the decisions ledger), so the fixture is
geometrically unrealizable and the test is a strict expected failure.  The
machinery it was meant to exercise runs in the companion tests: the
realizability gate diagnoses the defect, and the validation/assembly
pipeline holds at the stated tolerances on a realizable interaction graph.
"""

import time

import numpy as np
import pytest

from adscone.catalog import subdivide_face_with_cone, torus_with_cone_point
from adscone.conesurf import holonomy_of_loop, loop_around_vertex
from adscone.errors import LinkRealizationError
from adscone.hssurface import CurveRecord, MarkedHSMetric, SphereClass, VertexPosition
from adscone.hssurface import FaceAngle, VertexRecord, check_polyhedron_conditions
from adscone.hssurface import classify_hs_sphere, time_reverse_surface
from adscone.interactions import (
    assemble_holonomy,
    elastic_collision_graph,
    surgery_collision,
    validate_geometric_data,
)
from adscone.isom import IsomKind, classify
from adscone.linalg import dot22, normalize_point, orthonormal_tangent_frame
from adscone.links import SingKind, classify_singularity
from adscone.lrmetrics import (
    complex_structure,
    disk_link_isometry_check,
    holonomy_pair,
    jacobi_form_value,
    loop_deviation,
    square_loop,
    transverse_check,
    JetSample,
    SurfaceJet,
)
from adscone.spacetimes import (
    black_hole_spacetime,
    causal_speed_check,
    cone_spacetime,
    extreme_spacetime,
    graviton_spacetime,
    link_of_line,
    meridian_loop,
    saturating_null_curve,
    tachyon_spacetime,
)

PI = np.pi
TWO_PI = 2 * np.pi


def report(criterion, ok, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_flatness(rk4_transport):
    # the flat kinds run on the RK4 oracle: the library's closed form
    # returns around every loop by construction, so only the transport
    # equations can show flatness
    t0 = time.time()
    charts = [
        normalize_point(np.array([1.0, 0.0, 0.0, 0.0])),
        normalize_point(np.array([1.3, 0.2, 0.5, -0.1])),
        normalize_point(np.array([0.9, -0.6, 0.3, 0.4])),
    ]
    chi = 5.0
    worst_flat, best_lc = 0.0, np.inf
    for x in charts:
        t, f1, f2 = orthonormal_tangent_frame(x)
        u0 = np.cosh(chi) * t + np.sinh(chi) * f1
        loop = square_loop(x, f1, f2, 1e-2, 40)
        for kind in ("left", "right"):
            worst_flat = max(worst_flat, np.linalg.norm(rk4_transport(loop, u0, kind) - u0))
        best_lc = min(best_lc, loop_deviation(loop, u0, "lc"))
    elapsed = time.time() - t0
    ok = worst_flat <= 1e-4 and best_lc >= 5e-3 and elapssed_ok(elapsed, 10)
    report(
        1,
        ok,
        f"flat dev {worst_flat:.2e} <= 1e-4, LC dev {best_lc:.2e} >= 5e-3, {elapsed:.1f}s",
    )


def elapssed_ok(elapsed, budget):
    return elapsed < budget


def test_criterion_02_holonomy_factorization(rk4_holonomy_pair):
    # the RK4 pair keeps this criterion independent of the closed form that
    # holonomy_pair uses; the closed-form pair is held to the same tolerance
    t0 = time.time()
    worst = 0.0
    for theta in (PI / 3, PI / 2, PI, 3 * PI / 2):
        path, G = meridian_loop("cone", theta, samples=1200)
        for pair in (rk4_holonomy_pair(path, G), holonomy_pair(path, G)):
            for side in (pair.left, pair.right):
                cls = classify(side)
                assert cls.kind is IsomKind.ELLIPTIC
                worst = max(worst, abs(cls.angle - theta))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30
    report(2, ok, f"max angle error {worst:.2e} <= 1e-6, {elapsed:.1f}s < 30s")


def test_criterion_03_geodesic_flow_invariance():
    rng = np.random.RandomState(101)
    worst = 0.0
    for _ in range(100):
        p = rng.randn(4)
        while dot22(p, p) > -0.1:
            p = rng.randn(4)
        x = normalize_point(p)
        t, f1, f2 = orthonormal_tangent_frame(x)
        c, d = rng.randn(2), rng.randn(2)
        u1 = c[0] * f1 + c[1] * f2
        u2 = d[0] * f1 + d[1] * f2
        vals = [jacobi_form_value(x, t, u1, u2, tt) for tt in (0.0, 0.5, 1.0, 2.0)]
        ref = max(abs(v) for v in vals) or 1.0
        worst = max(worst, (max(vals) - min(vals)) / ref)
    report(3, worst <= 1e-8, f"relative variation {worst:.2e} <= 1e-8")


def _random_I_B(rng):
    a = rng.randn(2, 2)
    I = a @ a.T + 1.0 * np.eye(2)
    s = rng.randn(2, 2)
    s = 0.5 * (s + s.T)
    return I, np.linalg.solve(I, s)


def test_criterion_04_area_preservation():
    rng = np.random.RandomState(7)
    worst_tr, worst_rel = 0.0, 0.0
    for _ in range(10 ** 4):
        I, B = _random_I_B(rng)
        J = complex_structure(I)
        worst_tr = max(worst_tr, abs(np.trace(J @ B)))
        if abs(np.linalg.det(B) + 1.0) > 0.1:  # clearly transverse samples
            ml = (-B + J).T @ I @ (-B + J)
            mr = (-B - J).T @ I @ (-B - J)
            rel = abs(np.linalg.det(ml) - np.linalg.det(mr)) / abs(np.linalg.det(ml))
            worst_rel = max(worst_rel, rel)
    ok = worst_tr <= 1e-12 and worst_rel <= 1e-10
    report(4, ok, f"tr(JB) {worst_tr:.2e} <= 1e-12, det rel {worst_rel:.2e} <= 1e-10")


def test_criterion_05_curvature_identity():
    rng = np.random.RandomState(7)
    worst = 0.0
    agree = True
    for _ in range(10 ** 4):
        I, B = _random_I_B(rng)
        J = complex_structure(I)
        target = np.linalg.det(B) + 1.0
        for sign in (+1, -1):
            worst = max(worst, abs(np.linalg.det(-B + sign * J) - target))
        rep = transverse_check(SurfaceJet((JetSample(I, B),)))
        degenerate = abs(target) <= 1e-9
        agree = agree and (rep.transverse != degenerate)
    ok = worst <= 1e-12 and agree
    report(5, ok, f"det identity error {worst:.2e} <= 1e-12, degeneracy matched: {agree}")


def test_criterion_06_model_link_round_trip():
    cases = []
    for theta in (PI / 3, PI / 2, PI, 3 * PI / 2):
        s = classify_singularity(link_of_line(cone_spacetime(theta), "c"))
        cases.append(s.kind is SingKind.MASSIVE_PARTICLE and abs(s.angle - theta) < 1e-9)
    for mass in (0.5, 1.0, -0.5, -1.0):
        s = classify_singularity(link_of_line(tachyon_spacetime(mass), "c"))
        cases.append(s.kind is SingKind.TACHYON and abs(s.mass - mass) < 1e-9)
    s = classify_singularity(link_of_line(black_hole_spacetime(1.0), "c"))
    cases.append(s.kind is SingKind.BTZ_FUTURE and abs(s.mass - 1.0) < 1e-9)
    cases.append(
        classify_singularity(link_of_line(black_hole_spacetime(1.0), "c-")).kind
        is SingKind.BTZ_PAST
    )
    cases.append(
        classify_singularity(link_of_line(graviton_spacetime(+1), "c")).kind
        is SingKind.GRAVITON_POSITIVE
    )
    cases.append(
        classify_singularity(link_of_line(graviton_spacetime(-1), "c")).kind
        is SingKind.GRAVITON_NEGATIVE
    )
    cases.append(
        classify_singularity(link_of_line(extreme_spacetime(), "c")).kind
        is SingKind.EXTREME_BTZ_FUTURE
    )
    report(6, all(cases), f"{sum(cases)}/{len(cases)} model lines round-trip")


def test_criterion_07_sphere_classifier_corpus():
    import test_hssurface as fixtures

    corpus = [
        (fixtures.causally_regular_sphere(PI, PI / 3, PI / 3), SphereClass.CAUSALLY_REGULAR),
        (
            fixtures.causally_regular_sphere(3 * PI / 2, 2 * PI / 3, 2 * PI / 3),
            SphereClass.CAUSALLY_REGULAR,
        ),
        (fixtures.causally_regular_sphere(5.0, 2.4, 2.4), SphereClass.CAUSALLY_REGULAR),
        (fixtures.black_hole_sphere(False), SphereClass.BLACK_HOLE_INTERACTION),
        (fixtures.black_hole_sphere(True), SphereClass.BLACK_HOLE_INTERACTION),
        (
            time_reverse_surface(fixtures.black_hole_sphere(False)),
            SphereClass.WHITE_HOLE_INTERACTION,
        ),
        (
            time_reverse_surface(fixtures.black_hole_sphere(True)),
            SphereClass.WHITE_HOLE_INTERACTION,
        ),
        (fixtures.big_bang_sphere("future"), SphereClass.BIG_BANG_OR_CRUNCH),
        (
            fixtures.big_bang_sphere("past", (PI / 2, PI / 3, PI / 4)),
            SphereClass.BIG_BANG_OR_CRUNCH,
        ),
        (fixtures.bh_wh_sphere(False), SphereClass.BH_WH_INTERACTION),
        (fixtures.bh_wh_sphere(True), SphereClass.BH_WH_INTERACTION),
        (fixtures.causally_regular_sphere(2.8, 1.1, 1.2), SphereClass.CAUSALLY_REGULAR),
    ]
    mislabels = sum(1 for s, want in corpus if classify_hs_sphere(s) is not want)
    # three rejected-causality cases
    rejected = 0
    from adscone.errors import CausalityError, GeometryError

    bad_cases = [
        fixtures.causally_regular_sphere(TWO_PI + 0.5, 1.0, 1.0),  # negative mass
        fixtures.SingularHSSurface(
            hyperbolic_regions=(
                fixtures.HyperbolicRegion(
                    "past", fixtures.RegionTopology.DISK, (1.0,), 0, (0,)
                ),
            ),
            de_sitter_regions=(
                fixtures.DeSitterRegion(
                    fixtures.RegionTopology.DISK,
                    (fixtures.sing(SingKind.REJECTED_DEGREE, degree=4),),
                    (0,),
                ),
            ),
            photon_circles=(fixtures.PhotonCircle(0, 0),),
        ),
        fixtures.SingularHSSurface(
            hyperbolic_regions=(
                fixtures.HyperbolicRegion(
                    "past", fixtures.RegionTopology.DISK, (1.0,), 0, (0,)
                ),
            ),
            de_sitter_regions=(
                fixtures.DeSitterRegion(
                    fixtures.RegionTopology.DISK,
                    (fixtures.sing(SingKind.REJECTED_SPACELIKE_HYPERBOLIC),),
                    (0,),
                ),
            ),
            photon_circles=(fixtures.PhotonCircle(0, 0),),
        ),
    ]
    for s in bad_cases:
        try:
            classify_hs_sphere(s, positive=True)
        except (CausalityError, GeometryError):
            rejected += 1
    # time reversal swaps black holes and white holes on every applicable fixture
    swaps = all(
        classify_hs_sphere(time_reverse_surface(s))
        is {
            SphereClass.BLACK_HOLE_INTERACTION: SphereClass.WHITE_HOLE_INTERACTION,
            SphereClass.WHITE_HOLE_INTERACTION: SphereClass.BLACK_HOLE_INTERACTION,
        }.get(want, want)
        for s, want in corpus
    )
    ok = mislabels == 0 and rejected == 3 and swaps and len(corpus) >= 12
    report(
        7,
        ok,
        f"{len(corpus)} fixtures, {mislabels} mislabels, {rejected}/3 rejected, swaps: {swaps}",
    )


def test_criterion_08_polyhedron_thresholds():
    def vert(total):
        return VertexRecord(
            VertexPosition.HYPERBOLIC, tuple(FaceAngle(real=total / 3) for _ in range(3))
        )

    checks = []
    base = dict(type_tag="hyperbolic", timelike_arcs_join="H-Sigma")
    m = MarkedHSMetric(vertices=(vert(TWO_PI - 0.01),), **base)
    checks.append(check_polyhedron_conditions(m).passed["A"] is True)
    m = MarkedHSMetric(vertices=(vert(TWO_PI + 0.01),), **base)
    checks.append(check_polyhedron_conditions(m).passed["A"] is False)
    m = MarkedHSMetric(sigma_geodesics=(CurveRecord(TWO_PI + 0.01),), **base)
    checks.append(check_polyhedron_conditions(m).passed["B"] is True)
    m = MarkedHSMetric(sigma_geodesics=(CurveRecord(TWO_PI - 0.01),), **base)
    checks.append(check_polyhedron_conditions(m).passed["B"] is False)
    m = MarkedHSMetric(t_geodesics=(CurveRecord(TWO_PI - 0.01),), **base)
    checks.append(check_polyhedron_conditions(m).passed["C"] is True)
    m = MarkedHSMetric(t_geodesics=(CurveRecord(TWO_PI + 0.01),), **base)
    checks.append(check_polyhedron_conditions(m).passed["C"] is False)
    compact = dict(type_tag="compact", timelike_arcs_join="Sigma-Sigma",
                   compact_boundary_lengths=(3.0, 3.0))
    m = MarkedHSMetric(compact_segments=(PI - 0.01,), **compact)
    checks.append(check_polyhedron_conditions(m).passed["D"] is True)
    m = MarkedHSMetric(compact_segments=(PI + 0.01,), **compact)
    checks.append(check_polyhedron_conditions(m).passed["D"] is False)
    report(8, all(checks), f"{sum(checks)}/{len(checks)} threshold patterns correct")


def test_criterion_09_causal_speed_boundary():
    results = []
    for mass in (0.25, 0.5, 0.75):
        ts, zs = saturating_null_curve(mass, 0.0, 0.2, 0.05)
        passes = causal_speed_check(ts, zs, mass)
        inflated = zs[0] + 1.01 * (zs - zs[0])
        fails = not causal_speed_check(ts, inflated, mass)
        results.append(passes and fails)
    report(9, all(results), f"saturating curves pass, 1.01x inflations fail: {results}")


def test_criterion_10_disk_isometry():
    dev = disk_link_isometry_check(np.linspace(0.1, PI - 0.1, 100))
    report(10, dev <= 1e-6, f"max deviation {dev:.2e} <= 1e-6")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "spec defect: the literal link (pi; 2pi/3, 2pi/3) violates the "
        "rotation-product trace identity (cosh d = 1/3 < 1), so no causally "
        "regular HS-sphere with these angles exists; see the realizability "
        "gate and the companion pipeline tests"
    ),
)
def test_criterion_11_literal_fixture():
    import test_interactions as ti

    surf, _ = torus_with_cone_point(PI)
    graph = surgery_collision(surf, ti.collision_link(PI, 2 * PI / 3, 2 * PI / 3), at=4)
    assert validate_geometric_data(graph).passed


def test_criterion_11_realizability_gate():
    import test_interactions as ti

    surf, _ = torus_with_cone_point(PI)
    try:
        surgery_collision(surf, ti.collision_link(PI, 2 * PI / 3, 2 * PI / 3), at=4)
        diagnosed = False
        detail = "fixture unexpectedly accepted"
    except LinkRealizationError as err:
        diagnosed = "not realizable" in str(err)
        detail = str(err)[:90]
    report("11a (defect diagnosis)", diagnosed, detail)


def test_criterion_11_pipeline_on_realizable_graph():
    t0 = time.time()
    surf, _ = torus_with_cone_point(2.0)
    surf2, disk2, v2 = subdivide_face_with_cone(surf, 1, 2.5)
    both = frozenset(disk2.face_ids) | frozenset({7, 8, 9})
    graph = elastic_collision_graph(surf2, both)
    valid = validate_geometric_data(graph).passed
    asm = assemble_holonomy(graph)
    relations = max(asm.relation_residual(e) for e in graph.edges)
    worst_angle = 0.0
    for name, want in (("m4", 2.0), (f"m{v2}", 2.5)):
        for side in ("l", "r"):
            cls = classify(asm.evaluate("after", side, [name]))
            worst_angle = max(worst_angle, abs(cls.angle - want))
    elapsed = time.time() - t0
    ok = valid and relations <= 1e-8 and worst_angle <= 1e-6 and elapsed < 120
    report(
        "11b (pipeline at tolerance)",
        ok,
        f"valid={valid}, relations {relations:.2e} <= 1e-8, meridians {worst_angle:.2e}"
        f" <= 1e-6, {elapsed:.1f}s < 120s",
    )


def test_criterion_12_rigidity_shadow():
    surf, _ = torus_with_cone_point(PI)
    loops = [loop_around_vertex(surf, 4)]
    from adscone.conesurf import dual_cycles

    loops += dual_cycles(surf, frozenset(range(7)))
    base = [holonomy_of_loop(surf, lp).m for lp in loops]
    again = [holonomy_of_loop(surf, lp).m for lp in loops]
    repro = max(np.abs(b - a).max() for b, a in zip(base, again))
    lengths = surf.lengths.copy()
    lengths[9] += 1e-3
    perturbed = surf.with_lengths(lengths)
    moved = [holonomy_of_loop(perturbed, lp).m for lp in loops]
    deviation = max(np.abs(b - m).max() for b, m in zip(base, moved))
    ok = repro <= 1e-10 and deviation >= 1e-6
    report(12, ok, f"reproduction {repro:.2e} <= 1e-10, perturbation response {deviation:.2e} >= 1e-6")
