import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adscone.catalog import double_triangle_sphere, subdivide_face_with_cone, torus_with_cone_point
from adscone.conesurf import (
    ConeSurface,
    DiskSpec,
    Side,
    _uses_of,
    cone_area,
    delaunay_normalize,
    disks_isometric,
    dual_cycles,
    extract_disk_surface,
    flip_edge,
    gauss_bonnet_area,
    holonomy_of_loop,
    loop_around_vertex,
    splice_disk,
    triangle_edge_from_angles,
)
from adscone.errors import GeometryError, LinkRealizationError, NotHyperbolicError
from adscone.isom import IsomKind, classify

PI = np.pi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def dual_law_of_cosines_oracle(alpha, beta, gamma):
    """Independent scalar oracle: cosh a = (cos A + cos B cos C)/(sin B sin C)."""
    return np.arccosh((np.cos(alpha) + np.cos(beta) * np.cos(gamma)) / (np.sin(beta) * np.sin(gamma)))


def test_triangle_edge_equilateral():
    a, b, c = triangle_edge_from_angles(PI / 4, PI / 4, PI / 4)
    oracle = dual_law_of_cosines_oracle(PI / 4, PI / 4, PI / 4)
    assert abs(a - oracle) < 1e-14
    assert a == b == c
    assert abs(a - np.arccosh(1 + np.sqrt(2))) < 1e-12  # cos(pi/4)(1+cos(pi/4))/sin^2 = 1+sqrt2
    assert abs(a - 1.528571) < 1e-6


def test_triangle_edge_degeneration_and_ordering():
    # angle sum approaching pi gives collapsing side lengths
    eps = 1e-6
    a, b, c = triangle_edge_from_angles(PI / 3 - eps, PI / 3 - eps, PI / 3 - eps)
    assert a < 1e-2
    # scalene: larger angle faces larger opposite side? (hyperbolic: larger
    # angle is opposite the larger side)
    a, b, c = triangle_edge_from_angles(PI / 2, PI / 4, PI / 8)
    oracle = [dual_law_of_cosines_oracle(*perm) for perm in
              ((PI / 2, PI / 4, PI / 8), (PI / 4, PI / 8, PI / 2), (PI / 8, PI / 2, PI / 4))]
    assert np.allclose((a, b, c), oracle, atol=1e-12)
    assert a > b > c


def test_triangle_edge_rejects_bad_angles():
    with pytest.raises(GeometryError):
        triangle_edge_from_angles(PI / 2, PI / 3, PI / 5)  # sum above pi
    with pytest.raises(GeometryError):
        triangle_edge_from_angles(-0.1, 0.3, 0.3)


def test_cone_area_formula():
    # genus-2 surface, no cone points
    assert abs(cone_area([], chi=-2) - 4 * PI) < 1e-15
    # sphere with three right-angle cone points: twice the (pi/4)^3 triangle
    assert abs(cone_area([PI / 2] * 3, chi=2) - 0.5 * PI) < 1e-15
    # barely-flat sphere data is not hyperbolic
    eps = 0.01
    with pytest.raises(NotHyperbolicError):
        cone_area([2 * PI - eps] * 3, chi=2)


def test_gauss_bonnet_on_double_triangle():
    s = double_triangle_sphere(PI / 4, PI / 4, PI / 4)
    area = gauss_bonnet_area(s)
    assert abs(area - 0.5 * PI) < 1e-10  # twice the angle defect of the triangle


def test_holonomy_around_cone_points():
    s = double_triangle_sphere(PI / 4, PI / 3, PI / 8)
    for v, angles in ((0, PI / 2), (1, 2 * PI / 3), (2, PI / 4)):
        h = holonomy_of_loop(s, loop_around_vertex(s, v))
        cls = classify(h)
        assert cls.kind is IsomKind.ELLIPTIC
        assert abs(cls.angle - angles) < 1e-10


def test_holonomy_contractible_and_backtrack():
    s = double_triangle_sphere(PI / 4, PI / 3, PI / 8)
    # crossing an edge and coming straight back develops to the identity
    h = holonomy_of_loop(s, [(0, 0), (1, _return_side(s, 0, 0))])
    assert classify(h).kind is IsomKind.IDENTITY
    # inserting a backtrack into a loop does not change its holonomy
    lp = loop_around_vertex(s, 0)
    f, si = lp[0]
    g, j = s.neighbor_across(f, si)
    padded = [(f, si), (g, j)] + lp
    h1 = holonomy_of_loop(s, lp).m
    h2 = holonomy_of_loop(s, padded).m
    assert np.abs(h1 - h2).max() < 1e-10


def _return_side(s, f, si):
    g, j = s.neighbor_across(f, si)
    return j


def test_figure_eight_composes():
    s = double_triangle_sphere(PI / 4, PI / 3, PI / 8)
    lp0 = loop_around_vertex(s, 0, base_face=0)
    lp1 = loop_around_vertex(s, 1, base_face=0)
    eight = lp0 + lp1
    h = holonomy_of_loop(s, eight)
    h0 = holonomy_of_loop(s, lp0)
    h1 = holonomy_of_loop(s, lp1)
    # developing composes right-to-left: the first loop acts first
    prod = h1 @ h0
    prod_other = h0 @ h1
    d1 = np.abs(h.m - prod.m).max()
    d2 = np.abs(h.m - prod_other.m).max()
    assert min(d1, d2) < 1e-9


def test_meridian_relation_on_sphere():
    # the three meridians of the double triangle compose to the identity
    s = double_triangle_sphere(PI / 4, PI / 3, PI / 8)
    lps = [loop_around_vertex(s, v, base_face=0) for v in (0, 1, 2)]
    h = holonomy_of_loop(s, lps[0] + lps[1] + lps[2])
    assert classify(h).kind is IsomKind.IDENTITY


def test_rigidity_shadow_perturbation():
    s = double_triangle_sphere(PI / 4, PI / 3, PI / 8)
    base = [holonomy_of_loop(s, loop_around_vertex(s, v)).m for v in (0, 1, 2)]
    recomputed = [holonomy_of_loop(s, loop_around_vertex(s, v)).m for v in (0, 1, 2)]
    assert max(np.abs(b - r).max() for b, r in zip(base, recomputed)) < 1e-10
    lengths = s.lengths.copy()
    lengths[0] += 1e-3
    perturbed = s.with_lengths(lengths)
    moved = [holonomy_of_loop(perturbed, loop_around_vertex(perturbed, v)).m for v in (0, 1, 2)]
    deviation = max(np.abs(b - m).max() for b, m in zip(base, moved))
    assert deviation >= 1e-6


def test_angle_validation():
    with pytest.raises(GeometryError):
        # wrong cone angle target: construction must reject
        ConeSurface(
            ((1, 2), (2, 0), (0, 1)),
            (
                (Side(2), Side(0), Side(1)),
                (Side(1, False), Side(0, False), Side(2, False)),
            ),
            np.array([1.0, 1.0, 1.0]),
            {0: PI / 2, 1: PI / 2, 2: PI / 2},
        )


def test_torus_with_cone_point_properties():
    surf, disk = torus_with_cone_point(PI)
    assert abs(gauss_bonnet_area(surf) - PI) < 1e-8
    assert disk.euler_characteristic == 1
    assert disk.marked_angles() == {4: PI}
    cls = classify(holonomy_of_loop(surf, loop_around_vertex(surf, 4)))
    assert abs(cls.angle - PI) < 1e-10
    # complement cycles generate the torus handles: two nontrivial classes
    loops = dual_cycles(surf, disk.complement())
    assert len(loops) == 3
    kinds = [classify(holonomy_of_loop(surf, lp)).kind for lp in loops]
    assert sum(1 for k in kinds if k is not IsomKind.IDENTITY) >= 2


def test_surfaces_and_disks_compare_by_identity():
    """Two surfaces on one triangulation with different lengths compare
    unequal without asking numpy for the truth value of an array, and
    surfaces and disk specs can be hashed."""
    (a, disk_a), (b, disk_b) = torus_with_cone_point(2.0), torus_with_cone_point(2.5)
    assert a != b and not a == b
    assert a in [a] and a not in [b]
    assert len({a, b, a}) == 2
    assert disk_a != disk_b
    assert disk_a == DiskSpec(a, disk_a.face_ids)
    assert len({disk_a, disk_b, DiskSpec(a, disk_a.face_ids)}) == 2


@pytest.mark.parametrize("face_ids,bad", [({-1}, -1), ({0, 10}, 10), ({3, 4, 99}, 99)])
def test_disk_face_ids_outside_the_surface_are_named(face_ids, bad):
    """A face id below 0 or at least F names no face of an F-face surface;
    numpy would read -1 as the last face, and F as a bare IndexError."""
    surf, _ = torus_with_cone_point(2.0)
    assert len(surf.faces) == 10
    with pytest.raises(GeometryError, match=rf"^face id {bad} is not a face of the surface \(0\.\.9\)$"):
        DiskSpec(surf, face_ids)


def test_subdivide_face_with_cone():
    surf, _ = torus_with_cone_point(2.0)
    surf2, disk2, v2 = subdivide_face_with_cone(surf, 1, 2.5)
    assert surf2.cone_angles[v2] == 2.5
    assert abs(gauss_bonnet_area(surf2) - (4 * PI - 2.0 - 2.5 + 2 * PI * 0)) < 1e-8
    cls = classify(holonomy_of_loop(surf2, loop_around_vertex(surf2, v2)))
    assert abs(cls.angle - 2.5) < 1e-9


def test_disks_isometric_identical_and_flip():
    surf, disk = torus_with_cone_point(PI)
    assert disks_isometric(surf, disk, surf, disk)
    # flip an interior edge of the disk: still isometric after normalization
    interior = [
        e
        for e in range(len(surf.edges))
        if all(f in disk.face_ids for f, _ in _uses_of(surf._structure, e))
        and len(_uses_of(surf._structure, e)) == 2
        and _uses_of(surf._structure, e)[0][0] != _uses_of(surf._structure, e)[1][0]
    ]
    flipped = None
    for e in interior:
        try:
            flipped = flip_edge(surf, e)
            break
        except GeometryError:
            continue
    if flipped is None:
        pytest.skip("no flippable interior edge in this metric")
    disk_f = DiskSpec(flipped, disk.face_ids)
    assert disks_isometric(surf, disk, flipped, disk_f)


def test_disks_isometric_distinguishes_angles():
    s1, d1 = torus_with_cone_point(PI)
    s2, d2 = torus_with_cone_point(2.0)
    assert not disks_isometric(s1, d1, s2, d2)


def test_delaunay_normalize_terminates():
    surf, disk = torus_with_cone_point(PI)
    out = delaunay_normalize(surf)
    assert len(out.faces) == len(surf.faces)
    assert abs(gauss_bonnet_area(out) - gauss_bonnet_area(surf)) < 1e-8


def test_flip_diagonal_matches_quadrilateral_oracle():
    """The flipped diagonal length agrees with the hyperbolic law of cosines
    applied across the quadrilateral: cosh f = cosh a cosh b -
    sinh a sinh b cos(alpha1 + alpha2), with the angles on one side of the
    old diagonal."""
    surf, disk = torus_with_cone_point(PI)
    for e in range(len(surf.edges)):
        uses = _uses_of(surf._structure, e)
        if len(uses) != 2 or uses[0][0] == uses[1][0]:
            continue
        if not all(f in disk.face_ids for f, _ in uses):
            continue
        (f1, i1), (f2, i2) = uses
        try:
            flipped = flip_edge(surf, e)
        except GeometryError:
            continue
        # oracle at the tail vertex of the shared edge
        a = surf.lengths[surf.faces[f1][(i1 + 2) % 3].edge]  # side into the tail in f1
        b = surf.lengths[surf.faces[f2][(i2 + 1) % 3].edge]  # side out of the tail in f2
        alpha1 = surf.corner_angle(f1, i1)
        alpha2 = surf.corner_angle(f2, (i2 + 1) % 3)
        oracle = np.arccosh(
            np.cosh(a) * np.cosh(b) - np.sinh(a) * np.sinh(b) * np.cos(alpha1 + alpha2)
        )
        assert abs(flipped.lengths[e] - oracle) < 1e-10
        return
    pytest.skip("no flippable interior edge")


def _benchmark_cone_surfaces(seed):
    """The subdivided tori of the cone-surfaces benchmark inputs of a seed
    (stalled solves left out)."""
    out = []
    for op in corpus.cone_inputs(seed):
        try:
            surf, _ = torus_with_cone_point(op.theta)
            out.append(subdivide_face_with_cone(surf, op.face, op.eta)[0])
        except LinkRealizationError:
            pass
    return out


def _loop_outcome(loop_of, s, v, base_face):
    try:
        return loop_of(s, v, base_face)
    except GeometryError as err:
        return str(err)


def test_vertex_loops_equal_the_face_scan(scanned_vertex_loop):
    """loop_around_vertex gives the scan's steps (as Python ints) or its
    error text for every vertex, one past the last, and every base face (and
    none, -1, 0.5, one past the last and 2**70) of the subdivided tori of the
    cone-surfaces inputs of seeds 1-3 and of the torus's star disk taken out
    as a surface with boundary; all three errors occur."""
    _, star = torus_with_cone_point(2.0)
    surfaces = [extract_disk_surface(star)[0]]
    for seed in (1, 2, 3):
        surfaces += _benchmark_cone_surfaces(seed)
    errors = set()
    for s in surfaces:
        faces = len(s.faces)
        for v in [*s.vertices, max(s.vertices) + 1]:
            for base_face in (None, -1, 0.5, *range(faces), faces, 2**70):
                got = _loop_outcome(loop_around_vertex, s, v, base_face)
                assert got == _loop_outcome(scanned_vertex_loop, s, v, base_face)
                if isinstance(got, str):
                    errors.add(re.sub(r"\d+", "N", got))
                else:
                    assert all(type(f) is int and type(i) is int for f, i in got)
    assert errors == {"vertex N not found", "vertex N not found in base face", "edge N is a boundary edge"}
    assert len(surfaces) == 217


def _quadrilateral_angles(surf, e):
    """The angles of the quadrilateral around e at the two ends of e, each
    the sum of the corners of its two faces there."""
    (f1, i1), (f2, i2) = _uses_of(surf._structure, e)
    angles = surf.corner_angles()
    ends1 = surf.face_corners(f1)[i1], surf.face_corners(f1)[(i1 + 1) % 3]
    at = {v: angles[f1, i] for v, i in zip(ends1, (i1, (i1 + 1) % 3))}
    ends2 = surf.face_corners(f2)[i2], surf.face_corners(f2)[(i2 + 1) % 3]
    assert ends2 == ends1[::-1]  # the two faces traverse e both ways
    return [at[v] + angles[f2, i] for v, i in zip(ends2, (i2, (i2 + 1) % 3))]


def _kite(spoke, rim, diagonal):
    """Two triangles (0, 1, 2) and (0, 2, 3) glued along the diagonal 0-2
    (edge 0), with sides 0-1 and 0-3 of length spoke and 1-2 and 2-3 of
    length rim: a quadrilateral disk, symmetric about the diagonal."""
    edges = ((0, 2), (0, 1), (1, 2), (2, 3), (3, 0))
    faces = (
        (Side(1), Side(2), Side(0, False)),
        (Side(0), Side(3), Side(4)),
    )
    lengths = np.array([diagonal, spoke, rim, rim, spoke])
    return ConeSurface(edges, faces, lengths)


def test_flip_refuses_a_non_convex_quadrilateral():
    """Across a kite whose angle at vertex 0 exceeds pi the other diagonal
    runs outside it: the flip names the vertex and its angle sum."""
    kite = _kite(0.3, 2.2, 2.0)
    angles = _quadrilateral_angles(kite, 0)
    assert angles[0] > PI > angles[1]  # at vertex 0, and not at vertex 2
    with pytest.raises(GeometryError, match=r"^cannot flip edge 0: .* at vertex 0, where its corners sum to ") as err:
        flip_edge(kite, 0)
    assert f"{angles[0]:.6g} >= pi" in str(err.value)
    # the same kite, convex (a shorter diagonal): the flip keeps the corner
    # sums at the ends of the old diagonal, now split by none
    convex = _kite(1.0, 1.2, 1.5)
    assert max(_quadrilateral_angles(convex, 0)) < PI
    flipped = flip_edge(convex, 0)
    before = convex.vertex_angle_sums()
    after = flipped.vertex_angle_sums()
    assert all(abs(before[v] - after[v]) < 1e-12 for v in before)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flips_match_the_development(seed, developed_flip_length, monkeypatch):
    """On the benchmark's cone surfaces, every flippable edge gets the
    diagonal the hyperboloid development measures (within 1e-12 relative),
    and Delaunay normalization flips the same edges in the same order as
    with the developed diagonal."""
    from adscone import conesurf

    surfaces = _benchmark_cone_surfaces(seed)
    checked = refused = 0
    for surf in surfaces:
        # every edge that has two distinct faces: across a non-convex
        # quadrilateral the flip is refused, across a convex one it keeps
        # every angle sum (the surfaces have their angle check on) and the
        # diagonal is compared
        for e in range(len(surf.edges)):
            uses = _uses_of(surf._structure, e)
            if len(uses) != 2 or uses[0][0] == uses[1][0]:
                continue
            if max(_quadrilateral_angles(surf, e)) >= PI:
                with pytest.raises(GeometryError, match=f"cannot flip edge {e}: .* not convex"):
                    flip_edge(surf, e)
                refused += 1
                continue
            try:
                want = developed_flip_length(surf, e)
            except NotHyperbolicError:
                with pytest.raises(NotHyperbolicError):
                    flip_edge(surf, e)
                continue
            got = flip_edge(surf, e).lengths[e]
            assert abs(got - want) <= 1e-12 * want
            checked += 1
    assert checked > 10 * len(surfaces)
    assert refused > 0

    library_flip = conesurf.flip_edge

    def normalize(new_diagonal):
        flips = []

        def recorded(s, e):
            flips.append(e)
            flipped = library_flip(s, e)
            lengths = flipped.lengths.copy()
            lengths[e] = new_diagonal(s, e)
            return flipped.with_lengths(lengths, check_angles=flipped.check_angles)

        monkeypatch.setattr(conesurf, "flip_edge", recorded)
        return delaunay_normalize(surf), flips

    total = 0
    for surf in surfaces:
        got, got_flips = normalize(lambda s, e: library_flip(s, e).lengths[e])
        want, want_flips = normalize(developed_flip_length)
        assert got_flips == want_flips
        assert got.faces == want.faces
        np.testing.assert_allclose(got.lengths, want.lengths, rtol=1e-12, atol=0)
        total += len(got_flips)
    assert total > 0


def _outcome(normalize, surface):
    """(edges, faces, length bytes) of the normalized surface, or the error."""
    try:
        s = normalize(surface)
    except (GeometryError, ArithmeticError) as err:
        return type(err), str(err)
    return s.edges, s.faces, s.lengths.tobytes()


def test_delaunay_scan_matches_the_per_edge_test(per_edge_delaunay):
    """On the cone-surfaces inputs of seeds 1-3, the vectorized scan flips
    the same edges to the same bits as the per-edge test, and with the
    metrics scaled until some sides overflow cosh, names the same face with
    a degenerate corner."""
    surfaces = [s for seed in (1, 2, 3) for s in _benchmark_cone_surfaces(seed)]
    assert len(surfaces) == 216
    flipped = degenerate = 0
    for surf in surfaces:
        want = _outcome(per_edge_delaunay, surf)
        assert _outcome(delaunay_normalize, surf) == want
        flipped += want[0] != surf.edges
        for scale in (300.0, 500.0):
            scaled = surf.with_lengths(surf.lengths * scale)
            want = _outcome(per_edge_delaunay, scaled)
            assert _outcome(delaunay_normalize, scaled) == want
            degenerate += want[0] is NotHyperbolicError
    assert flipped > 20
    assert degenerate > 100


# -- the corner-angle kernel and its closed-form derivative -----------------


def scalar_corner_angle(s, f, i):
    """Scalar oracle: the law of cosines at corner i of face f, which lies
    between the face's sides i and i+2 and faces side i+1."""
    sides = s.faces[f]
    b = float(s.lengths[sides[i].edge])
    c = float(s.lengths[sides[(i + 2) % 3].edge])
    a = float(s.lengths[sides[(i + 1) % 3].edge])
    cosv = (math.cosh(b) * math.cosh(c) - math.cosh(a)) / (math.sinh(b) * math.sinh(c))
    return math.acos(max(-1.0, min(1.0, cosv)))


def _kernel_surfaces():
    torus, _ = torus_with_cone_point(2.0)
    refined, _, _ = subdivide_face_with_cone(torus, 1, 2.5)
    return [double_triangle_sphere(PI / 4, PI / 3, PI / 8), torus, refined]


def test_corner_angles_match_scalar_oracle():
    rng = np.random.default_rng(7)
    for base in _kernel_surfaces():
        s = base.with_lengths(base.lengths * np.exp(rng.uniform(-0.02, 0.02, len(base.lengths))))
        sums = {v: 0.0 for v in s.vertices}
        for f in range(len(s.faces)):
            for i, v in enumerate(s.face_corners(f)):
                want = scalar_corner_angle(s, f, i)
                assert abs(s.corner_angle(f, i) - want) < 1e-13
                assert abs(s.corner_angles()[f, i] - want) < 1e-13
                sums[v] += want
        got = s.vertex_angle_sums()
        assert set(got) == set(sums)
        assert max(abs(got[v] - sums[v]) for v in sums) < 1e-12
        assert s.vertex_angle_sums([0]) == {0: got[0]}


def test_angle_sum_jacobian_matches_central_differences(surface_jacobian):
    rng = np.random.default_rng(11)
    h = 1e-6
    for base in _kernel_surfaces()[1:]:
        for _ in range(3):
            x = np.log(base.lengths) + rng.uniform(-0.03, 0.03, len(base.lengths))
            s = base.with_lengths(np.exp(x))
            jac = surface_jacobian(s)
            assert jac.shape == (s.num_vertices, len(s.edges))
            fd = np.zeros_like(jac)
            for j in range(len(x)):
                step = h * np.eye(len(x))[j]
                up = base.with_lengths(np.exp(x + step)).vertex_angle_sums()
                down = base.with_lengths(np.exp(x - step)).vertex_angle_sums()
                for v in up:
                    fd[v, j] = (up[v] - down[v]) / (2 * h)
            assert np.abs(jac - fd).max() < 1e-7


def _two_face_strip(lengths):
    """Faces (0, 1, 2) and (0, 2, 3) glued along the edge 0 -> 2."""
    edges = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 0))
    faces = (
        (Side(0), Side(1), Side(2, False)),
        (Side(2), Side(3), Side(4)),
    )
    return ConeSurface(edges, faces, np.asarray(lengths, float), check_angles=False)


def test_degenerate_corner_names_its_face():
    # tiny sides: the second face passes the triangle inequality (with its
    # 1e-12 margin) but cancellation puts its cosines off by ~1e-7 beyond +-1
    y = 1e-5
    s = _two_face_strip([y, y, y, y, 2 * y - 1.1e-12])
    for i in range(3):
        assert abs(s.corner_angle(0, i) - PI / 3) < 1e-6
        with pytest.raises(NotHyperbolicError, match="degenerate corner at face 1"):
            s.corner_angle(1, i)
    with pytest.raises(NotHyperbolicError, match="face 1"):
        s.vertex_angle_sums()
    with pytest.raises(NotHyperbolicError, match="face 1"):
        s.corner_angles()
    # vertex 1 has its only corner in the sound face
    assert s.vertex_angle_sums([1]) == {1: s.corner_angle(0, 1)}
    with pytest.raises(NotHyperbolicError, match="face 1 violates the triangle inequality"):
        _two_face_strip([1.0, 1.0, 1.0, 0.5, 1.6])


def test_overflowing_corner_is_degenerate():
    # (400, 400, 5) passes the triangle inequality, but the law of cosines
    # gives inf / inf at the corner between the two long sides; the surface
    # reports it without a numpy warning (tier-1 turns those into errors)
    s = ConeSurface(
        ((0, 1), (1, 2), (2, 0)),
        ((Side(0), Side(1), Side(2)),),
        np.array([400.0, 400.0, 5.0]),
        check_angles=False,
    )
    for call in (s.vertex_angle_sums, s.corner_angles, lambda: s.corner_angle(0, 1)):
        with pytest.raises(NotHyperbolicError, match="degenerate corner at face 0"):
            call()
    sums = s.vertex_angle_sums([0, 2])
    assert sums[0] == sums[2] and 0 < sums[0] < PI
    with pytest.raises(NotHyperbolicError, match="degenerate corner at face 0"):
        s.with_lengths(s.lengths, check_angles=True)
    # the double of a triangle whose sides overflow exp: the transition
    # table's entries overflow too, and a loop reports the face
    edges = ((1, 2), (2, 0), (0, 1))
    faces = ((Side(2), Side(0), Side(1)), (Side(1, False), Side(0, False), Side(2, False)))
    double = ConeSurface(edges, faces, np.array([1500.0, 1500.0, 5.0]), check_angles=False)
    with pytest.raises(NotHyperbolicError, match="degenerate corner at face 0"):
        holonomy_of_loop(double, [(0, 0), (1, 1)])


def test_an_unused_long_edge_is_never_read(surface_jacobian):
    """cosh and sinh are taken once per edge, also of an edge that no face
    uses; its overflow changes no corner and makes numpy say nothing."""
    triangle = ((Side(0), Side(1), Side(2)),)
    lengths = np.array([1.0, 1.2, 1.4])
    edges = ((0, 1), (1, 2), (2, 0))
    ref = ConeSurface(edges, triangle, lengths, check_angles=False)
    s = ConeSurface(edges + ((0, 2),), triangle, np.append(lengths, 800.0), check_angles=False)
    assert s.corner_angles().tobytes() == ref.corner_angles().tobytes()
    jac = surface_jacobian(s)
    assert jac[:, :3].tobytes() == surface_jacobian(ref).tobytes()
    assert not jac[:, 3].any()


def test_with_lengths_reruns_length_checks():
    s = double_triangle_sphere(PI / 4, PI / 3, PI / 8)
    with pytest.raises(NotHyperbolicError, match="triangle inequality"):
        s.with_lengths([1.0, 1.0, 3.0])
    with pytest.raises(GeometryError, match="positive and finite"):
        s.with_lengths([1.0, -1.0, 1.0])
    with pytest.raises(GeometryError, match="angle sums"):
        s.with_lengths(s.lengths * 1.01, check_angles=True)
    moved = s.with_lengths(s.lengths * 1.01, {0: 1.0})
    assert moved.edges is s.edges and moved.faces is s.faces
    assert moved.cone_angles == {0: 1.0} and s.cone_angles[0] == PI / 2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    theta=st.floats(0.6, 5.0),
    eta=st.floats(0.3, 4.2),
    face=st.sampled_from((1, 3, 5, 7, 8, 9)),
)
def test_subdivided_torus_satisfies_its_cone_angles(theta, eta, face):
    surf, _ = torus_with_cone_point(theta)
    refined, _, v = subdivide_face_with_cone(surf, face, eta)
    assert refined.check_angles and refined.cone_angles[v] == eta
    assert not refined.angle_defect_report()
    # the surfaces are rebuilt from scratch with every check on
    ConeSurface(refined.edges, refined.faces, refined.lengths, refined.cone_angles)


def test_metric_solve_stall_is_reported():
    """A corner the cone seed does not reach: a small new angle on face 1 of
    a host with a large one."""
    surf, _ = torus_with_cone_point(6.0)
    with pytest.raises(LinkRealizationError, match="stalled"):
        subdivide_face_with_cone(surf, 1, 0.2)


@pytest.mark.parametrize("theta", [0.1, 0.2, 0.4, 5.59, 5.9, 6.0, 6.2])
def test_torus_solves_near_the_ends_of_its_range(theta):
    """The closed form holds its angles near both ends of (0, 2 pi), where
    a solved torus needed a seed sized to the target and stalled below
    theta ~ 0.05."""
    surf, _ = torus_with_cone_point(theta)
    assert abs(surf.vertex_angle_sums([4])[4] - theta) < 1e-9
    assert surf.check_angles and not surf.angle_defect_report()


@pytest.mark.parametrize("theta", [0.3, 2.0, 6.0])
def test_torus_seed_has_the_target_area(theta, plane_torus_seed):
    """The plane square seed that the solver tests start from is the unit
    square complex scaled so that its plane area, the square's side squared,
    is the Gauss-Bonnet area 2 pi - theta of the target, the area of the
    closed-form torus on the same triangulation."""
    seed, targets = plane_torus_seed(theta)
    side = seed.lengths[0]  # edge a, the bottom of the square
    assert abs(side * side - cone_area([theta], 0)) < 1e-12
    assert seed.lengths[1] == side  # edge b, its right side
    assert targets[4] == theta and seed.cone_angles == {4: theta}
    surf, _ = torus_with_cone_point(theta)
    assert len(surf.lengths) == len(seed.lengths)
    assert abs(gauss_bonnet_area(surf) - side * side) < 1e-9


def _from_cone_point(surf, spoke, side, corners):
    """The distance from the cone point 4 to the far end of side, an edge
    leaving the far end q of spoke (an edge from 4), with the given
    (face, corner) angles at q filling the angle between the two."""
    m, k = surf.lengths[spoke], surf.lengths[side]
    at_q = sum(surf.corner_angle(f, i) for f, i in corners)
    return math.acosh(math.cosh(m) * math.cosh(k) - math.sinh(m) * math.sinh(k) * math.cos(at_q))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=st.floats(0.01, 2 * PI - 0.01))
@example(theta=0.01)
@example(theta=2 * PI - 0.01)
def test_torus_is_the_regular_square_around_its_cone_point(theta):
    """Every angle sum on target, the Gauss-Bonnet area 2 pi - theta, an
    elliptic loop around the cone point, and a regular square: sides a = b
    with cosh a = 1 + 2 cos(theta / 4), and all four corners at the distance
    R from the cone point with cosh R = cot(theta / 8), each reached across
    the inner triangle."""
    surf, disk = torus_with_cone_point(theta)
    sums = surf.vertex_angle_sums()
    assert max(abs(sums[v] - surf.target_angle(v)) for v in surf.vertices) <= 1e-9
    assert surf.cone_angles == {4: theta} and disk.interior_vertices() == {4}
    assert abs(gauss_bonnet_area(surf) - (2 * PI - theta)) < 1e-9
    assert abs(PI * len(surf.faces) - surf.corner_angles().sum() - (2 * PI - theta)) < 1e-9
    h = holonomy_of_loop(surf, loop_around_vertex(surf, 4))
    assert classify(h).kind is IsomKind.ELLIPTIC
    assert abs(abs(h.trace) - 2 * abs(math.cos(theta / 2))) < 1e-9
    a, b = surf.lengths[0], surf.lengths[1]
    assert a == b
    assert abs(math.cosh(a) - (1 + 2 * math.cos(theta / 4))) < 1e-12 * math.cosh(a)
    # (spoke m, side k from its end q, corners at q from m round to k)
    paths = (
        (12, 2, ((7, 1), (1, 2), (0, 2))),  # C1 from q1
        (13, 4, ((7, 2), (1, 1))),  # C2 from q2
        (14, 6, ((8, 2), (3, 1))),  # C3 from q3
        (12, 8, ((9, 2), (5, 1))),  # C4 from q1
    )
    cot = 1 / math.tan(theta / 8)
    for spoke, side, corners in paths:
        assert abs(math.cosh(_from_cone_point(surf, spoke, side, corners)) - cot) < 1e-9 * cot


def _subdivision_seed(surf, face, eta, solve_metric_calls):
    del solve_metric_calls[:]
    out = subdivide_face_with_cone(surf, face, eta)
    return solve_metric_calls[0][0], out


@pytest.mark.parametrize("face", [1, 3, 5, 7, 8, 9])
@pytest.mark.parametrize("eta", [0.05, 1.0, 4.0, 6.2])
def test_subdivision_seed_is_the_cone_over_the_face(face, eta, solve_metric_calls):
    """The seed keeps every old edge, and its new vertex already has the
    target angle; the three corners of the split face are what is left for
    the solver."""
    surf, _ = torus_with_cone_point(2.0)
    seed, (refined, _, v) = _subdivision_seed(surf, face, eta, solve_metric_calls)
    n = len(surf.edges)
    assert seed.lengths[:n].tobytes() == surf.lengths.tobytes()
    sums = seed.vertex_angle_sums()
    assert abs(sums[v] - eta) < 1e-12
    corners = set(surf.face_corners(face))
    assert all(abs(sums[u] - 2 * PI) < 1e-9 for u in surf.vertices if u not in corners | {4})
    assert abs(refined.vertex_angle_sums([v])[v] - eta) < 1e-9


@pytest.mark.parametrize("scale", [300.0, 1000.0])
def test_subdividing_a_face_with_overflowing_sides_is_not_hyperbolic(scale):
    """Sides so long that cosh overflows in the seed (scale 1000) fail as
    the corner kernel fails on sides whose products overflow (scale 300)."""
    surf, _ = torus_with_cone_point(2.0)
    big = surf.with_lengths(surf.lengths * scale)
    with pytest.raises(NotHyperbolicError, match="degenerate corner at face"):
        subdivide_face_with_cone(big, 1, 1.0)


@pytest.mark.parametrize("face", [1, 3, 5, 7, 8, 9])
def test_a_smooth_point_at_the_centroid_keeps_the_metric(face, solve_metric_calls):
    """With angle 2 pi the seed is the old metric split at the face's
    hyperbolic centroid: every vertex keeps its angle sum, and the solve
    moves no edge by more than 1e-12."""
    surf, _ = torus_with_cone_point(2.0)
    seed, (refined, _, v) = _subdivision_seed(surf, face, 2 * PI, solve_metric_calls)
    before, sums = surf.vertex_angle_sums(), seed.vertex_angle_sums()
    assert all(abs(sums[u] - before[u]) < 1e-12 for u in before)
    assert abs(sums[v] - 2 * PI) < 1e-12
    assert np.abs(refined.lengths - seed.lengths).max() < 1e-12
    # the spokes reach the corners of the face developed on the hyperboloid
    # from the normalized sum of those corners
    side = [surf.lengths[s.edge] for s in surf.faces[face]]  # side k: corner k to k+1
    alpha = surf.corner_angle(face, 0)
    points = np.array([
        [1.0, 0.0, 0.0],
        [np.cosh(side[0]), np.sinh(side[0]), 0.0],
        [np.cosh(side[2]), np.sinh(side[2]) * np.cos(alpha), np.sinh(side[2]) * np.sin(alpha)],
    ])
    centroid = points.sum(axis=0)
    centroid /= np.sqrt(centroid[0] ** 2 - centroid[1] ** 2 - centroid[2] ** 2)
    for k, p in enumerate(points):
        want = np.arccosh(centroid[0] * p[0] - centroid[1] * p[1] - centroid[2] * p[2])
        assert abs(seed.lengths[len(surf.edges) + k] - want) < 1e-12


# -- structure and loop holonomy ---------------------------------------------


def test_structural_errors_name_the_first_edge_to_appear():
    # edge 3 is used first (twice the same way); edges 0 and 1, with lower
    # ids, appear later and are used three times
    edges = ((0, 1), (1, 2), (2, 0), (0, 1))
    faces = (
        (Side(3), Side(1), Side(2)),
        (Side(3), Side(1, False), Side(0)),
        (Side(0), Side(0, False), Side(1, False)),
    )
    with pytest.raises(GeometryError, match="^edge 3 traversed twice in the same direction$"):
        ConeSurface(edges, faces, np.ones(4), check_angles=False)
    with pytest.raises(GeometryError, match="^edge 0 used by more than two face sides$"):
        ConeSurface(edges, (faces[2], faces[0], faces[1]), np.ones(4), check_angles=False)
    # an edge id outside the edge list is an input error, negative ones too
    for e in (4, -1):
        with pytest.raises(IndexError, match=f"side 1 of face 0 names edge {e}"):
            ConeSurface(edges, ((Side(3), Side(e), Side(2)),), np.ones(4), check_angles=False)
    # no edges, so no vertices: rejected, with or without the angle check
    for check in (True, False):
        with pytest.raises(GeometryError, match="^a surface needs at least one edge$"):
            ConeSurface((), (), [], check_angles=check)


def _three_face_strip():
    """Faces 2 - 0 - 1 in a row: face 0 (0, 1, 2) and face 2 (1, 0, 4) are
    equilateral of side 1e-5; face 1 (0, 2, 3) passes the triangle
    inequality, but its corners are degenerate (see the test above)."""
    y = 1e-5
    edges = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 4), (4, 0))
    faces = (
        (Side(0), Side(1), Side(2, False)),
        (Side(2), Side(3), Side(4)),
        (Side(0, False), Side(6, False), Side(5, False)),
    )
    lengths = [y, y, y, y, 2 * y - 1.1e-12, y, y]
    return ConeSurface(edges, faces, np.array(lengths), check_angles=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(base=st.sampled_from((0, 1, 2)), choices=st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_degenerate_face_raises_only_for_loops_that_enter_it(base, choices):
    s = _three_face_strip()
    # a walk across glued sides, then back the same way
    steps, back, f = [], [], base
    for c in choices:
        glued = [si for si in range(3) if s.faces[f][si].edge not in s.boundary_edges()]
        si = glued[c % len(glued)]
        g, j = s.neighbor_across(f, si)
        steps.append((f, si))
        back.insert(0, (g, j))
        f = g
    loop = steps + back
    if any(f == 1 for f, _ in loop):
        with pytest.raises(NotHyperbolicError, match="^degenerate corner at face 1$"):
            holonomy_of_loop(s, loop)
    else:
        assert classify(holonomy_of_loop(s, loop)).kind is IsomKind.IDENTITY


def test_loop_errors_name_the_failing_step():
    surf, _ = torus_with_cone_point(2.0)
    lp = loop_around_vertex(surf, 4)
    assert lp[0][0] != lp[1][0]
    with pytest.raises(GeometryError, match="^empty loop$"):
        holonomy_of_loop(surf, [])
    with pytest.raises(GeometryError, match="^loop steps do not chain$"):
        holonomy_of_loop(surf, [lp[0], lp[0]])
    with pytest.raises(GeometryError, match="^loop does not return to its base face$"):
        holonomy_of_loop(surf, lp[:-1])
    s = _three_face_strip()
    with pytest.raises(GeometryError, match="^edge 1 is a boundary edge$"):
        holonomy_of_loop(s, [(0, 1), (0, 1)])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    theta=st.floats(0.6, 5.0),
    eta=st.floats(0.3, 4.2),
    face=st.sampled_from((1, 3, 5, 7, 8, 9)),
)
@example(theta=1.0, eta=1.0, face=7)
def test_loop_holonomy_matches_the_development(developed_holonomy, theta, eta, face):
    surf, _ = torus_with_cone_point(theta)
    refined, _, _ = subdivide_face_with_cone(surf, face, eta)
    sums = refined.vertex_angle_sums()
    for v in refined.vertices:
        h = holonomy_of_loop(refined, loop_around_vertex(refined, v))
        assert abs(h.trace - 2 * abs(math.cos(sums[v] / 2))) < 1e-10
        if v in refined.cone_angles:
            cls = classify(h)
            assert cls.kind is IsomKind.ELLIPTIC and abs(cls.angle - sums[v]) < 1e-9
    for lp in dual_cycles(refined):
        got, want = holonomy_of_loop(refined, lp).m, developed_holonomy(refined, lp).m
        # the reference rounds like the size of the holonomy (up to 6e-10 at
        # entries of 110 in this box, against a 50-digit product)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def _own_patch(disk: DiskSpec):
    """The disk as a splice patch with the ids splice_disk gives back: rim
    vertex i on the tail of rim step i, and the interior vertices, edges and
    faces in the host's ascending order; returns (patch, interior lengths,
    cone angles by patch vertex)."""
    s = disk.surface
    rim = disk.rim()
    k = len(rim)
    step = {f_i: n for n, f_i in enumerate(rim)}
    vertex = {s.face_corners(f)[i]: n for n, (f, i) in enumerate(rim)}
    vertex.update((v, k + j) for j, v in enumerate(sorted(disk.interior_vertices())))
    inner = sorted({side.edge for f in disk.face_ids for side in s.faces[f]} - set(disk.boundary_edges()))
    edge = {e: k + j for j, e in enumerate(inner)}
    edges = [(n, (n + 1) % k) for n in range(k)]
    edges += [(vertex[s.edges[e][0]], vertex[s.edges[e][1]]) for e in inner]
    faces = [
        tuple(
            Side(step[(f, i)]) if (f, i) in step else Side(edge[side.edge], side.forward)
            for i, side in enumerate(s.faces[f])
        )
        for f in sorted(disk.face_ids)
    ]
    patch = ConeSurface(edges, faces, np.ones(len(edges)), check_angles=False)
    return patch, s.lengths[inner], {vertex[v]: a for v, a in disk.marked_angles().items()}


def _same_surface(a: ConeSurface, b: ConeSurface) -> bool:
    return (
        a.edges == b.edges
        and [[(x.edge, x.forward) for x in f] for f in a.faces]
        == [[(x.edge, x.forward) for x in f] for f in b.faces]
        and a.lengths.tobytes() == b.lengths.tobytes()
        and a.cone_angles == b.cone_angles
    )


def _splice_hosts():
    """(host, disk face ids) pairs: the cone point's star on tori of three
    angles, and on a subdivided torus the old point's star (faces 7, 8, 9,
    11: not the last faces), the new point's fan and a disk of the old
    star with a face of the complement."""
    for theta in (0.5, 2.0, 6.0):
        surf, disk = torus_with_cone_point(theta)
        yield surf, disk.face_ids
    refined, fan, v = subdivide_face_with_cone(torus_with_cone_point(2.0)[0], 8, 2.5)
    yield refined, frozenset(f for f in range(len(refined.faces)) if 4 in refined.face_corners(f))
    yield refined, fan.face_ids
    yield refined, frozenset({1, 7, 8, 9, 11})


@pytest.mark.parametrize("host, faces", list(_splice_hosts()))
def test_splicing_a_disk_back_into_itself_is_the_identity(host, faces):
    """A disk spliced back in as its own patch gives the host bit for bit:
    same edges, sides, length bytes and cone angles, the same face ids."""
    disk = DiskSpec(host, faces)
    patch, lengths, cones = _own_patch(disk)
    spliced, glued = splice_disk(disk, patch, lengths, cones)
    assert _same_surface(spliced, host)
    assert glued.face_ids == disk.face_ids
    assert not spliced.check_angles
    assert spliced.boundary_edges() == []


def test_the_star_of_a_subdivided_torus_is_not_its_last_faces():
    refined, _, _ = subdivide_face_with_cone(torus_with_cone_point(2.0)[0], 8, 2.5)
    star = DiskSpec(refined, frozenset(f for f in range(len(refined.faces)) if 4 in refined.face_corners(f)))
    assert sorted(star.face_ids) == [7, 8, 9, 11]
    assert star.rim()[0][0] == 7
    # each step leaves the vertex the last one reached
    heads = [refined.face_corners(f)[(i + 1) % 3] for f, i in star.rim()]
    tails = [refined.face_corners(f)[i] for f, i in star.rim()]
    assert heads == tails[1:] + tails[:1]


def test_a_splice_gives_the_patch_the_disk_ids_then_new_ones(star_split_at_a_point):
    """A bigger patch (the star split again at a point, on the two-cone
    template) takes the disk's interior ids first: the cone point keeps its
    id, the star's spokes and faces pass to the patch, and the rest are new
    ids past the last; every edge is used and the metric is the host's."""
    host, star = torus_with_cone_point(2.0)
    patch = star_split_at_a_point(star)
    spliced, glued = splice_disk(star, patch, patch.lengths[3:], patch.cone_angles)
    assert sorted(glued.face_ids) == [7, 8, 9, 10, 11]
    assert spliced.faces[:7] == host.faces[:7]
    assert spliced.edges[:12] == host.edges[:12]
    assert len(spliced.edges) == len(host.edges) + 3
    assert spliced.vertices == [0, 1, 2, 3, 4, 5]
    assert spliced.cone_angles == {4: 2.0, 5: 2 * PI}
    assert glued.interior_vertices() == {4, 5}
    assert sorted(s.edge for f in spliced.faces for s in f) == sorted(2 * list(range(len(spliced.edges))))
    assert spliced.euler_characteristic == host.euler_characteristic
    spliced._switch_on_angle_check()
    assert abs(gauss_bonnet_area(spliced) - gauss_bonnet_area(host)) < 1e-9


def test_splice_refuses_patches_that_do_not_fit():
    host, disk = torus_with_cone_point(2.0)
    triangle = ConeSurface(((0, 1), (1, 2), (2, 0)), ((Side(0), Side(1), Side(2)),), np.ones(3))
    with pytest.raises(GeometryError, match="^the patch has fewer interior edges or faces than the disk$"):
        splice_disk(disk, triangle, [], {})
    patch, lengths, cones = _own_patch(disk)
    with pytest.raises(GeometryError, match="^need one length per interior edge of the patch$"):
        splice_disk(disk, patch, lengths[:2], cones)
    with pytest.raises(GeometryError, match="^a patch with a rim of 3 edges does not fit a rim of 4$"):
        splice_disk(DiskSpec(host, frozenset({7, 8})), patch, lengths, cones)
    # the same fan with its rim turned the other way
    turned = ConeSurface(
        ((0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)),
        ((Side(4), Side(0, False), Side(3, False)), (Side(5), Side(1, False), Side(4, False)),
         (Side(3), Side(2, False), Side(5, False))),
        np.ones(6), check_angles=False,
    )
    with pytest.raises(GeometryError, match="^a patch's rim must be its edges 0..k-1, edge i running"):
        splice_disk(disk, turned, lengths, cones)
    shifted = ConeSurface(
        ((3, 0), (3, 1), (3, 2), (0, 1), (1, 2), (2, 0)),
        ((Side(0), Side(3), Side(1, False)), (Side(1), Side(4), Side(2, False)),
         (Side(2), Side(5), Side(0, False))),
        np.ones(6), check_angles=False,
    )
    with pytest.raises(GeometryError, match="^a patch's rim must be its edges 0..k-1, edge i running"):
        splice_disk(disk, shifted, lengths, cones)


def test_a_closed_face_set_is_no_disk_even_at_euler_characteristic_1():
    """Two triangles glued along all three sides with two corners identified
    (a pinched sphere) have chi = 1 and no rim: not a disk."""
    s = ConeSurface(
        ((0, 2), (2, 0), (0, 0)),
        ((Side(2), Side(0), Side(1)), (Side(1, False), Side(0, False), Side(2, False))),
        np.ones(3),
        check_angles=False,
    )
    assert s.euler_characteristic == 1 and s.boundary_edges() == []
    with pytest.raises(GeometryError, match=r"^sub-complex is not a disk \(no rim\)$"):
        DiskSpec(s, frozenset({0, 1}))
