"""The interned triangulation structure: one validated, read-only copy per
triangulation in the process, shared by every surface on it; and the corner
table catalog.solve_metric hands to its result."""

import numpy as np
import pytest

from adscone import catalog, conesurf
from adscone.conesurf import ConeSurface, Side, corner_table
from adscone.errors import GeometryError


def _shared_arrays(structure):
    tables = structure.tables
    return [
        structure.neighbors,
        structure.edge_sides,
        *structure.flips,
        tables.sides,
        tables.corner_vertices,
        tables.cells,
        tables.cosine_at,
    ]


def test_surfaces_on_one_triangulation_share_one_read_only_structure():
    a, _ = catalog.torus_with_cone_point(1.0)
    b, _ = catalog.torus_with_cone_point(4.0)
    assert a._structure is b._structure
    assert a.edges is b.edges and a.faces is b.faces
    for x, y in zip(_shared_arrays(a._structure), _shared_arrays(b._structure), strict=True):
        assert x is y
        assert not x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a._tables.sides[0, 0, 0] = 1
    # subdivisions of the same face at other angles share one too, and a
    # surface built anew from lists of the same edges and faces lands on it
    c, _, _ = catalog.subdivide_face_with_cone(a, 3, 1.0)
    d, _, _ = catalog.subdivide_face_with_cone(b, 3, 2.5)
    assert c._structure is d._structure is not a._structure
    fresh = ConeSurface([list(e) for e in a.edges], [[(s.edge, s.forward) for s in f] for f in a.faces],
                        a.lengths, a.cone_angles)
    assert fresh._structure is a._structure


def _bad_edge_id(edges, faces):
    return [(faces[0][0], Side(len(edges)), faces[0][2]), *faces[1:]]


def _third_use(edges, faces):
    return [(faces[0][0], faces[1][0], faces[0][2]), *faces[1:]]


def _open_chain(edges, faces):
    f = faces[7]
    return [*faces[:7], (f[0], f[2], f[1]), *faces[8:]]


@pytest.mark.parametrize(
    "breaks,error,message",
    [
        (_bad_edge_id, GeometryError, "edge id 15 of side 1 of face 0 is not an edge of the surface (0..14)"),
        (_third_use, GeometryError, "edge 4 used by more than two face sides"),
        (_open_chain, GeometryError, "face 7 side chain does not close"),
    ],
)
def test_a_malformed_structure_raises_on_every_construction(breaks, error, message):
    """Only structures that validate are kept: a malformed one raises the same
    error each time, also right after a valid build on the same edges."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    edges, faces = torus.edges, list(torus.faces)
    for _ in range(3):
        valid = ConeSurface(edges, faces, torus.lengths, check_angles=False)
        assert valid._structure is torus._structure
        with pytest.raises(error) as raised:
            ConeSurface(edges, breaks(edges, faces), torus.lengths, check_angles=False)
        assert type(raised.value) is error and str(raised.value) == message


def _fan(n):
    """An open fan of n triangles around vertex 0: face k has corners
    (0, k + 1, k + 2); edge k is the spoke 0 -> k + 1, edge n + 1 + k the rim
    k + 1 -> k + 2.  A different triangulation for every n."""
    spokes = [(0, k + 1) for k in range(n + 1)]
    rims = [(k + 1, k + 2) for k in range(n)]
    faces = [(Side(k), Side(n + 1 + k), Side(k + 1, False)) for k in range(n)]
    return ConeSurface(spokes + rims, faces, np.ones(2 * n + 1), check_angles=False)


def test_the_cache_holds_at_most_its_bound_of_faces(monkeypatch):
    cache = conesurf._Kept(conesurf._STRUCTURE_FACES)
    monkeypatch.setattr(conesurf, "_STRUCTURES", cache)
    sizes = [1000 + k for k in range(12)]
    assert sum(sizes) > conesurf._STRUCTURE_FACES
    built = [_fan(n)._structure for n in sizes]
    held = [structure for structure, _ in cache._entries.values()]
    assert cache.held == sum(len(s.faces) for s in held) <= conesurf._STRUCTURE_FACES
    # the oldest went first; the newest are still served from the cache
    assert held == built[-len(held):] and len(held) < len(built)
    assert _fan(sizes[-1])._structure is built[-1]
    assert _fan(sizes[0])._structure is not built[0]
    assert cache.held <= conesurf._STRUCTURE_FACES
    # a triangulation larger than the whole bound is built but not kept
    big = _fan(conesurf._STRUCTURE_FACES + 1)
    assert big._structure not in [structure for structure, _ in cache._entries.values()]
    assert cache.held <= conesurf._STRUCTURE_FACES


def _assert_carries_its_corner_table(surface):
    angles, degenerate = surface._corner_cache
    fresh = corner_table(surface.lengths, surface._tables)
    assert angles.tobytes() == fresh.angles.tobytes()
    assert degenerate.tobytes() == fresh.degenerate.tobytes()


def test_solve_metric_hands_its_last_corner_table_to_its_result(monkeypatch, plane_torus_seed):
    """The solved surfaces, and the closed-form tori, whose angle checks
    evaluated theirs."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    refined, _, _ = catalog.subdivide_face_with_cone(torus, 5, 3.0)
    roomy, _ = catalog.torus_with_cone_point(3.0, rim_length=0.8)
    refined_roomy, _, _ = catalog.subdivide_face_with_cone(roomy, 7, 1.0)
    seed, targets = plane_torus_seed(2.0)
    solved = catalog.solve_metric(seed, targets)
    for surface in (torus, refined, roomy, refined_roomy, solved):
        _assert_carries_its_corner_table(surface)
    # so the checks on the result evaluate no corner table of their own
    evaluated = []
    monkeypatch.setattr(
        ConeSurface, "_evaluate_corners", lambda s: evaluated.append(s) or corner_table(s.lengths, s._tables)
    )
    again = catalog.solve_metric(seed, targets)
    again._switch_on_angle_check()
    again.vertex_angle_sums()
    assert evaluated == []
