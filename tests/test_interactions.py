import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone import catalog, interactions
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
from adscone.tolerances import TRACE

PI = np.pi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


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


@pytest.mark.parametrize("eta1,eta2", [(1e-320, 1.0), (5e-324, 1.0), (1e-200, 1e-200)])
def test_collision_distance_refuses_a_distance_beyond_the_float_range(eta1, eta2):
    """A cone angle near 0 puts cosh d past the largest float: refused by
    name, with no numpy warning and no infinite distance."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinkRealizationError, match="is beyond the float range"):
            collision_distance(4.0, eta1, eta2)


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


def _changed(g, change):
    """The graph with one change: a wrong vanished angle (a disk failure),
    two identified generators swapped (a holonomy failure), a right metric
    on the after slice that is a copy of its left one (valid, with a second
    surface pair to solve), or the after slice's complement generators based
    at a neighbouring face, which conjugates them all by one transition
    (valid, with a conjugator that is not the identity)."""
    e = g.edges[0]
    if change == "rebase":
        after = g.vertex(e.after)
        names = set(e.identification.values())
        f0, si = after.generator_loops[min(names)][0]
        f1, sj = after.mu_l.neighbor_across(f0, si)
        loops = {
            k: [(f1, sj), *lp, (f0, si)] if k in names else lp
            for k, lp in after.generator_loops.items()
        }
        rebased = dataclasses.replace(after, generator_loops=loops)
        return dataclasses.replace(g, vertices={**g.vertices, e.after: rebased})
    if change == "mislabel":
        bad = dataclasses.replace(e, vanished=(e.vanished[0] + 0.25,) + e.vanished[1:])
        return dataclasses.replace(g, edges=(bad,))
    if change == "swap":
        names = list(e.identification)
        swapped = dict(zip(names, [e.identification[n] for n in names[1:] + names[:1]]))
        return dataclasses.replace(g, edges=(dataclasses.replace(e, identification=swapped),))
    if change == "copy":
        after = g.vertex(e.after)
        copy = dataclasses.replace(after, mu_r=after.mu_l.with_lengths(after.mu_l.lengths))
        return dataclasses.replace(g, vertices={**g.vertices, e.after: copy})
    return g


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    design=st.sampled_from(corpus.GRAPH_DESIGN),
    jitter=st.tuples(*[st.floats(-corpus.GRAPH_JITTER, corpus.GRAPH_JITTER)] * 2),
    change=st.sampled_from((None, "mislabel", "swap", "copy", "rebase")),
    reverse=st.booleans(),
    rooted=st.booleans(),
)
def test_validated_graphs_assemble(design, jitter, change, reverse, rooted):
    """Over the corpus graph design, jittered, with or without a change, in
    either time direction and rooted at the initial slice or (without one)
    at the alphabetically first: a graph that validates assembles with
    relations within 1e-8, one that does not is refused with validation's
    failures, and each edge's conjugator is solved once per distinct pair of
    (before, after) surfaces."""
    theta, face, eta = design
    g = _changed(corpus.elastic_graph(theta + jitter[0], face, eta + jitter[1])[0], change)
    if reverse:
        g = time_reverse(g)
    if not rooted:
        g = dataclasses.replace(g, initial=None)
    pairs = 0
    for e in g.edges:
        vb, va = g.vertex(e.before), g.vertex(e.after)
        pairs += len({(id(vb.mu_l), id(va.mu_l)), (id(vb.mu_r), id(va.mu_r))})
    calls = []
    solve = interactions.solve_conjugator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interactions, "solve_conjugator", lambda ps: calls.append(ps) or solve(ps))
        report = validate_geometric_data(g)
        assert len(calls) == pairs
        calls.clear()
        if report.passed:
            asm = assemble_holonomy(g)
            assert max(asm.relation_residual(e) for e in g.edges) <= 1e-8
        else:
            with pytest.raises(GeometryError) as err:
                assemble_holonomy(g)
            assert str(err.value) == "graph fails validation: " + "; ".join(report.failures)
        assert len(calls) == pairs
    assert report.passed == (change in (None, "copy", "rebase"))


def test_an_edge_identifying_no_generators_validates_but_does_not_assemble(elastic):
    graph, _ = elastic
    bare = dataclasses.replace(graph, edges=(dataclasses.replace(graph.edges[0], identification={}),))
    assert validate_geometric_data(bare).passed
    with pytest.raises(ValueError, match="^no generator pairs to solve a conjugator from$"):
        assemble_holonomy(bare)


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
    with pytest.raises(ValueError):
        solve_conjugator([])


def test_solve_conjugator_traceless_conjugator():
    # pairs related only by a half-turn: the conjugator has trace 0, where its
    # canonical class and its inverse differ by a sign
    _, resid = solve_conjugator([(Proj2.hyperbolic(1.0), Proj2.hyperbolic(-1.0))])
    assert resid < 1e-9
    quarter = Proj2(np.array([[0.0, -1.0], [1.0, 0.0]]))
    gens = (Proj2(np.array([[2.0, 1.0], [3.0, 2.0]])), Proj2.elliptic(1.3))
    C, resid = solve_conjugator([(g, g.conjugate(quarter)) for g in gens])
    assert resid < 1e-9
    assert C.almost_equal(quarter, 1e-9)


def test_solve_conjugator_of_identity_pairs_is_the_identity():
    """Every matrix solves the system of (I, I), and the rotations share the
    largest determinant on its unit sphere; the top eigenvector taken is I."""
    C, resid = solve_conjugator([(Proj2.identity(), Proj2.identity())])
    assert C.almost_equal(Proj2.identity(), 1e-12)
    assert resid == 0.0


@pytest.mark.parametrize(
    "g",
    [Proj2.hyperbolic(1.0), Proj2.parabolic(1.0), Proj2.parabolic(-1.0), Proj2.elliptic(1.0)],
    ids=["hyperbolic", "parabolic+", "parabolic-", "elliptic"],
)
def test_solve_conjugator_on_a_single_pair_pencil(g):
    """One pair has a two-dimensional null space (its centralizer); the
    representative of largest determinant is orientation preserving and
    conjugates the pair."""
    rng = np.random.RandomState(11)
    for _ in range(20):
        m = rng.randn(2, 2)
        if np.linalg.det(m) < 0:
            m = m[::-1]
        a = Proj2(m)
        C, resid = solve_conjugator([(g, g.conjugate(a))])
        assert np.linalg.det(C.m) > 0
        assert resid <= 1e-9


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


@pytest.mark.parametrize("lam", [1 - 1e-9, 1 - 1e-11, 1 + 1e-11, 1 + 1e-9, 1 + 3e-10])
def test_wedge_family_near_the_null_apex(lam):
    """classify_ray alone decides whether the apex is null: within its
    threshold (|<x,x>| <= 1e-10 |x|^2) the link is the graviton.  Just
    outside it the deficit or mass is below what the trace classifier
    resolves, and the family raises a GeometryError that says so."""
    if abs(lam - 1) < 1e-10:
        assert classify_singularity(wedge_family_link(lam)).kind is SingKind.GRAVITON_POSITIVE
        return
    with pytest.raises(GeometryError, match="resolution of the trace classifier") as err:
        wedge_family_link(lam)
    assert type(err.value) is GeometryError


@pytest.mark.parametrize("lam", [1 - 3e-9, 1 - 5e-9])
def test_wedge_family_deficits_just_outside_the_trace_window_are_particles(lam):
    """Deficits of 4.4e-5 and 5.6e-5 are past the elliptic window
    |theta - 2 pi| <= about sqrt(TRACE) = 3.2e-5, so they read back."""
    s = classify_singularity(wedge_family_link(lam))
    assert s.kind is SingKind.MASSIVE_PARTICLE
    assert np.sqrt(TRACE) < 2 * PI - s.angle < 6e-5


# (lambda, kind, angle, mass, degree, is_positive) of the links the earlier
# construction (stabilizer maps, a null-rotation secant solve and an eigen-
# decomposition of the gluing) gave, to 17 digits
WEDGE_FAMILY_RECORD = [
    (0.01, SingKind.MASSIVE_PARTICLE, 5.19359491617095, 0.1734136966744555, None, True),
    (0.3, SingKind.MASSIVE_PARTICLE, 5.466561321358489, 0.1299697439908335, None, True),
    (0.6, SingKind.MASSIVE_PARTICLE, 5.722587540220054, 0.0892219056978879, None, True),
    (0.9, SingKind.MASSIVE_PARTICLE, 6.024628685549788, 0.041150564401523204, None, True),
    (0.99, SingKind.MASSIVE_PARTICLE, 6.203192032666369, 0.012731325052885434, None, True),
    (0.9999, SingKind.MASSIVE_PARTICLE, 6.275204750281367, 0.0012701450789777136, None, True),
    (0.9999999, SingKind.MASSIVE_PARTICLE, 6.282932945780333, 4.016456413680203e-05, None, True),
    (1.0, SingKind.GRAVITON_POSITIVE, None, None, None, True),
    (1.001, SingKind.TACHYON, None, 0.05046033454621321, None, True),
    (1.1, SingKind.TACHYON, None, 0.49318282993083523, None, True),
    (1.4, SingKind.TACHYON, None, 0.9256017242196558, None, True),
    (2.0, SingKind.TACHYON, None, 1.3149028291731386, None, True),
    (3.0, SingKind.TACHYON, None, 1.6177708441196392, None, True),
    (20.0, SingKind.TACHYON, None, 2.200911063697474, None, True),
]


@pytest.mark.parametrize("lam, kind, angle, mass, degree, positive", WEDGE_FAMILY_RECORD)
def test_wedge_family_matches_the_recorded_links(lam, kind, angle, mass, degree, positive):
    s = classify_singularity(wedge_family_link(lam))
    assert (s.kind, s.degree, s.is_positive) == (kind, degree, positive)
    for got, want in ((s.angle, angle), (s.mass, mass)):
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-12


_WEDGE_LAMBDAS = st.floats(0.01, 1 - 1e-8) | st.floats(1 + 1e-8, 20.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=_WEDGE_LAMBDAS, b=_WEDGE_LAMBDAS)
def test_wedge_family_builds_and_grows_on_both_sides(a, b):
    """Away from the null apex every apex gives a positive link: a particle
    whose angle rises with lambda below 1, a tachyon whose mass rises above."""
    lo, hi = sorted((a, b))
    s_lo, s_hi = (classify_singularity(wedge_family_link(lam)) for lam in (lo, hi))
    for lam, s in ((lo, s_lo), (hi, s_hi)):
        assert s.kind is (SingKind.MASSIVE_PARTICLE if lam < 1 else SingKind.TACHYON)
        assert s.is_positive
    if hi < 1:
        assert s_lo.angle <= s_hi.angle
    if lo > 1:
        assert s_lo.mass <= s_hi.mass


@pytest.mark.parametrize("lam", [1e155, 1e300, np.finfo(float).max])
def test_wedge_family_far_from_the_apex(lam):
    """An apex far out in the de Sitter plane: the tachyon of the limit
    apex direction (0, -1, 0), whose wedge sides meet with
    1 + c = (cos 1.1 - 1) / cos(0.55)^2, with no numpy warning."""
    t = (np.cos(1.1) - 1.0) / np.cos(0.55) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = classify_singularity(wedge_family_link(lam))
    assert s.kind is SingKind.TACHYON and s.is_positive
    assert abs(s.mass - 4.0 * np.arcsinh(np.sqrt(-t / 2.0))) <= 1e-12
    assert abs(s.mass - 2.3201) < 1e-4


@pytest.mark.parametrize("lam", [-0.9, -1.0, -3.0, np.nan, np.inf])
def test_wedge_family_rejects_an_apex_on_the_arc_side(lam):
    with pytest.raises(GeometryError, match="apex must stay opposite the arc"):
        wedge_family_link(lam)


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


def test_failing_fit_stops_its_stalled_seeds(monkeypatch):
    """The request above gives up after exactly 75 collar evaluations of
    2484 disks in all: seeds stop once their steps stall, and only seeds
    that neither of the two lightest damping rungs improved try the heavier
    ones.  Running every seed to its last improving step, with the whole
    ladder each round, takes 147 evaluations of 20344 disks."""
    theta = 4.0
    eta = 0.85 * theta / 2
    disks = []
    collar = catalog._disk_collar

    def counted(eta1, d, P):
        disks.append(len(P))
        return collar(eta1, d, P)

    host, _ = torus_with_cone_point(theta)
    monkeypatch.setattr(catalog, "_disk_collar", counted)
    with pytest.raises(LinkRealizationError, match="did not converge"):
        surgery_collision(product_spacetime(host), collision_link(theta, eta, eta), at=4)
    assert (len(disks), sum(disks)) == (75, 2484)
