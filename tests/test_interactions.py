import numpy as np
import pytest

from adscone import catalog
from adscone.catalog import (
    collision_distance,
    fit_two_cone_disk,
    subdivide_face_with_cone,
    torus_with_cone_point,
    wedge_family_link,
)
from adscone.conesurf import holonomy_of_loop
from adscone.errors import GeometryError, LinkRealizationError
from adscone.hssurface import (
    DeSitterRegion,
    HyperbolicRegion,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
)
from adscone.interactions import (
    assemble_holonomy,
    elastic_collision_graph,
    solve_conjugator,
    surgery_collision,
    time_reverse,
    validate_geometric_data,
)
from adscone.isom import IsomKind, Proj2, classify
from adscone.links import SingKind, classify_singularity
from adscone.spacetimes import product_spacetime

PI = np.pi


def collision_link(theta, eta1, eta2):
    return SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (theta,), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (eta1, eta2), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )


@pytest.fixture(scope="module")
def elastic():
    surf, _ = torus_with_cone_point(2.0)
    surf2, disk2, v2 = subdivide_face_with_cone(surf, 1, 2.5)
    both = frozenset(disk2.face_ids) | frozenset({7, 8, 9})
    graph = elastic_collision_graph(surf2, both)
    return graph, v2


def test_collision_distance_formula():
    # frozen against the rotation-product trace identity
    assert abs(collision_distance(PI, PI / 3, PI / 3) - np.arccosh(3.0)) < 1e-12
    d = collision_distance(3 * PI / 2, 2 * PI / 3, 2 * PI / 3)
    c = (np.cos(PI / 3) ** 2 - np.cos(3 * PI / 4)) / np.sin(PI / 3) ** 2
    assert abs(d - np.arccosh(c)) < 1e-12


def test_collision_distance_rejects_spec_fixture():
    # the spec fixture, and a request past 4 pi - theta, where the trace
    # identity alone would give cosh(d) > 1
    wrapped = (4 * PI - 4.0 + 0.3) / 2
    for theta, eta, excess in ((PI, 2 * PI / 3, PI / 3), (4.0, wrapped, 4 * PI - 8.0 + 0.3)):
        with pytest.raises(LinkRealizationError) as err:
            collision_distance(theta, eta, eta)
        msg = str(err.value)
        assert "not realizable" in msg and "needs eta1 + eta2 < theta" in msg
        assert f"{excess:.6g}" in msg


def test_surgery_rejects_impossible_link():
    surf, _ = torus_with_cone_point(PI)
    M = product_spacetime(surf)
    with pytest.raises(LinkRealizationError):
        surgery_collision(M, collision_link(PI, 2 * PI / 3, 2 * PI / 3), at=4)


def test_surgery_rejects_angle_mismatch():
    surf, _ = torus_with_cone_point(PI)
    M = product_spacetime(surf)
    with pytest.raises(GeometryError):
        surgery_collision(M, collision_link(PI / 2, PI / 6, PI / 6), at=4)


def test_surgery_rejects_non_regular_link():
    surf, _ = torus_with_cone_point(PI)
    M = product_spacetime(surf)
    bad = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("past", RegionTopology.SPHERE, (PI / 2, PI / 2, PI / 2)),
        ),
    )
    with pytest.raises(GeometryError):
        surgery_collision(M, bad, at=4)


def test_elastic_graph_validates(elastic):
    graph, _ = elastic
    report = validate_geometric_data(graph)
    assert report.passed, report.failures


def test_elastic_graph_relations_and_meridians(elastic):
    graph, v2 = elastic
    asm = assemble_holonomy(graph)
    for e in graph.edges:
        assert asm.relation_residual(e) <= 1e-8
    for name, want in (("m4", 2.0), (f"m{v2}", 2.5)):
        for vertex in ("before", "after"):
            for side in ("l", "r"):
                cls = classify(asm.evaluate(vertex, side, [name]))
                assert cls.kind is IsomKind.ELLIPTIC
                assert abs(cls.angle - want) < 1e-8


def test_elastic_graph_vertex_tables_conjugate(elastic):
    graph, _ = elastic
    asm = assemble_holonomy(graph)
    # the assembled representation restricted to a vertex subgroup equals the
    # vertex's own holonomy up to the solved conjugation
    for vertex in graph.vertices:
        v = graph.vertex(vertex)
        for side, surf in (("l", v.mu_l), ("r", v.mu_r)):
            for name, loop in v.generator_loops.items():
                own = holonomy_of_loop(surf, loop)
                glued = asm.evaluate(vertex, side, [name])
                align = asm.alignment[vertex][side]
                back = Proj2(np.linalg.inv(align.m) @ glued.m @ align.m)
                assert back.almost_equal(own, 1e-8)


def test_elastic_word_evaluation(elastic):
    graph, v2 = elastic
    asm = assemble_holonomy(graph)
    a = asm.evaluate("after", "l", ["g0", "g1"])
    b = asm.evaluate("after", "l", ["g0"]) @ asm.evaluate("after", "l", ["g1"])
    assert a.almost_equal(b, 1e-9)
    inv = asm.evaluate("after", "l", ["g0", "g0^-1"])
    assert classify(inv).kind is IsomKind.IDENTITY


def test_time_reverse_involution(elastic):
    graph, _ = elastic
    tr = time_reverse(graph)
    assert tr.edges[0].before == "after"
    assert tr.initial == graph.final
    back = time_reverse(tr)
    assert back.edges[0].before == graph.edges[0].before
    assert back.initial == graph.initial
    assert validate_geometric_data(tr).passed


def test_validator_detects_perturbation(elastic):
    graph, _ = elastic
    v = graph.vertex("before")
    # perturb one edge length of mu_l on one side only: complement holonomies
    # diverge and condition (2) fails
    lengths = v.mu_l.lengths.copy()
    lengths[0] += 1e-2
    from adscone.conesurf import ConeSurface
    from adscone.interactions import CollisionEdge, InteractionGraph, SliceVertex

    perturbed = ConeSurface(
        v.mu_l.edges, v.mu_l.faces, lengths, v.mu_l.cone_angles, check_angles=False
    )
    v_bad = SliceVertex(v.name, perturbed, perturbed, {}, v.generator_loops)
    bad = InteractionGraph(
        {"before": v_bad, "after": graph.vertex("after")},
        graph.edges,
        graph.initial,
        graph.final,
    )
    report = validate_geometric_data(bad)
    assert not report.passed
    assert any("(2/3)" in f for f in report.failures)


def test_single_vertex_graph_passes_vacuously():
    from adscone.interactions import InteractionGraph, SliceVertex

    surf, disk = torus_with_cone_point(2.0)
    v = SliceVertex("only", surf, surf, dict(surf.marked_vertices()), {})
    g = InteractionGraph({"only": v}, ())
    assert validate_geometric_data(g).passed
    asm = assemble_holonomy(g)
    assert asm.alignment["only"]["l"] is not None


def test_solve_conjugator_roundtrip():
    rng = np.random.RandomState(3)
    for _ in range(50):
        m = rng.randn(2, 2) + 2 * np.eye(2)
        while np.linalg.det(m) < 0.1:
            m = rng.randn(2, 2) + 2 * np.eye(2)
        a = Proj2(m)
        g1 = Proj2.hyperbolic(1.0)
        g2 = Proj2.elliptic(1.3)
        pairs = [(g, g.conjugate(a)) for g in (g1, g2)]
        C, resid = solve_conjugator(pairs)
        assert resid < 1e-9
        assert C.almost_equal(a, 1e-7) or C.almost_equal(Proj2(-a.m), 1e-7)


def test_assemble_refuses_unvalidated():
    graph, _ = (None, None)
    surf, disk = torus_with_cone_point(2.0)
    surf2, disk2, v2 = subdivide_face_with_cone(surf, 1, 2.5)
    both = frozenset(disk2.face_ids) | frozenset({7, 8, 9})
    g = elastic_collision_graph(surf2, both)
    from adscone.interactions import CollisionEdge, InteractionGraph

    bad_edge = CollisionEdge(
        before="before",
        after="after",
        disk_before=g.edges[0].disk_before,
        disk_after=g.edges[0].disk_after,
        identification=g.edges[0].identification,
        vanished=(1.0, 1.0),  # wrong declared angles
        created=g.edges[0].created,
    )
    bad = InteractionGraph(dict(g.vertices), (bad_edge,), g.initial, g.final)
    with pytest.raises(GeometryError):
        assemble_holonomy(bad)


# -- the continuity family (elliptic -> parabolic -> hyperbolic links) --------


def test_wedge_family_transitions_once():
    lams = [0.3, 0.6, 0.9, 1.0, 1.1, 1.4, 2.0, 3.0]
    kinds = [classify_singularity(wedge_family_link(lam)).kind for lam in lams]
    assert kinds[:3] == [SingKind.MASSIVE_PARTICLE] * 3
    assert kinds[3] is SingKind.GRAVITON_POSITIVE
    assert kinds[4:] == [SingKind.TACHYON] * 4
    # a single transition chain: no interleaving
    order = [k.value for k in kinds]
    assert order == sorted(order, key=lambda v: ("M", "G", "T").index(v[0]))


def test_wedge_family_positive_masses():
    for lam in (0.3, 0.9):
        s = classify_singularity(wedge_family_link(lam))
        assert s.kind is SingKind.MASSIVE_PARTICLE
        assert 0 < s.mass < 1
        assert s.angle < 2 * PI
    for lam in (1.2, 2.5):
        s = classify_singularity(wedge_family_link(lam))
        assert s.kind is SingKind.TACHYON
        assert s.mass > 0


def test_surgery_realizable_fixture_fails_loudly_not_silently():
    """(pi; pi/3, pi/3) is realizable (d = arccosh 3), but its exchanged disk
    is a deep balloon outside the exactly-developed collar family; the
    surgery reports the non-convergence explicitly instead of returning an
    unsound graph."""
    surf, _ = torus_with_cone_point(PI)
    M = product_spacetime(surf)
    with pytest.raises(LinkRealizationError) as err:
        surgery_collision(M, collision_link(PI, PI / 3, PI / 3), at=4)
    assert "did not converge" in str(err.value) or "no hyperbolic realization" in str(err.value)


def test_failing_fit_reports_what_the_sequential_fit_reports(monkeypatch, sequential_disk_fit):
    """A request like the surgery benchmark's (host theta 4.0, eta1 + eta2 =
    0.85 theta): the lockstep disk fit fails with the seed-by-seed fit's
    error, word for word."""
    theta = 4.0
    eta = 0.85 * theta / 2
    calls = []

    def record(*args):
        calls.append(args)
        return fit_two_cone_disk(*args)

    monkeypatch.setattr(catalog, "fit_two_cone_disk", record)
    host, _ = torus_with_cone_point(theta)
    with pytest.raises(LinkRealizationError) as err:
        surgery_collision(product_spacetime(host), collision_link(theta, eta, eta), at=4)
    assert "did not converge" in str(err.value)
    with pytest.raises(LinkRealizationError) as reference:
        sequential_disk_fit(*calls[0])
    assert str(err.value) == str(reference.value)
