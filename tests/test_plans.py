"""The plans a triangulation structure keeps (conesurf._Structure.plan):
splice_disk, flip_edge and holonomy_of_loop against their planless
references (conftest.planless) byte for byte, errors included, the order of
their checks (the triangulation's before the metric's), and the bound on
what one structure keeps."""

import gc
import sys
from pathlib import Path

import numpy as np
import pytest

from adscone import catalog, conesurf
from adscone.conesurf import (
    ConeSurface,
    DiskSpec,
    Side,
    dual_cycles,
    extract_disk_surface,
    flip_edge,
    holonomy_of_loop,
    loop_around_vertex,
    splice_disk,
)
from adscone.errors import GeometryError, NotHyperbolicError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _outcome(fn, *args):
    """What fn(*args) gives: ("ok", value) or (exception type, its text)."""
    try:
        return "ok", fn(*args)
    except GeometryError as err:
        return type(err), str(err)


def _surface_bytes(s: ConeSurface):
    return (
        s.edges,
        [[(x.edge, x.forward) for x in f] for f in s.faces],
        s.lengths.tobytes(),
        {v: float(a).hex() for v, a in s.cone_angles.items()},
        s.check_angles,
    )


def _assert_same(planned, planless, read):
    """Both outcomes raise the same error with the same text, or both give
    values that read() turns into equal bytes."""
    assert planned[0] == planless[0]
    if planned[0] == "ok":
        assert read(planned[1]) == read(planless[1])
    else:
        assert planned[1] == planless[1]


def _spliced_bytes(result):
    surface, disk = result
    return _surface_bytes(surface), sorted(disk.face_ids)


def _holonomy_bytes(h):
    return h.m.tobytes()


def _assert_splice(disk, patch, lengths, cones, planless):
    # twice: once building the plan, once reading it
    for _ in range(2):
        _assert_same(
            _outcome(splice_disk, disk, patch, lengths, cones),
            _outcome(planless.splice_disk, disk, patch, lengths, cones),
            _spliced_bytes,
        )


def _assert_flip(s, e, planless):
    for _ in range(2):
        _assert_same(_outcome(flip_edge, s, e), _outcome(planless.flip_edge, s, e), _surface_bytes)


def _assert_holonomy(s, loop, planless):
    for _ in range(2):
        _assert_same(
            _outcome(holonomy_of_loop, s, loop),
            _outcome(planless.holonomy_of_loop, s, loop),
            _holonomy_bytes,
        )


def _fan_seed(s, face, theta):
    """splice_disk's arguments in subdivide_face_with_cone."""
    spokes = catalog._cone_over_face([float(s.lengths[side.edge]) for side in s.faces[face]], theta)
    return DiskSpec(s, frozenset((face,))), catalog._FAN_TEMPLATE, spokes, {3: theta}


def _delaunay_flips(s, planless):
    """delaunay_normalize, each flip compared with the planless one."""
    for _ in range(1000):
        e = conesurf._first_flip(s)
        if e is None:
            return s
        _assert_flip(s, e, planless)
        s = flip_edge(s, e)
    raise AssertionError("Delaunay normalization did not terminate")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_plans_match_the_planless_operations_on_the_benchmark_inputs(seed, planless):
    """Every cone-surfaces input: the seed splice, the loop holonomy around
    each cone point and along each dual cycle, and every Delaunay flip."""
    for op in corpus.cone_inputs(seed):
        torus, _ = catalog.torus_with_cone_point(op.theta)
        _assert_splice(*_fan_seed(torus, op.face, op.eta), planless)
        surf, _, _ = catalog.subdivide_face_with_cone(torus, op.face, op.eta)
        loops = [loop_around_vertex(surf, v) for v in sorted(surf.cone_angles)] + dual_cycles(surf)
        for loop in loops:
            _assert_holonomy(surf, loop, planless)
        _delaunay_flips(surf, planless)


def _tori():
    for theta in (0.5, 2.0, 4.0, 6.0):
        yield catalog.torus_with_cone_point(theta)[0]
    yield catalog.torus_with_cone_point(3.0, rim_length=0.8)[0]


def test_plans_match_on_every_splittable_face_and_flippable_edge_of_the_tori(planless):
    """Every face with three distinct corners of the catalog tori and of a
    subdivision of each, split at a cone point, and every edge flipped (or
    refused with the same text: a quadrilateral that is not convex, a
    boundary edge of an extracted disk)."""
    surfaces = []
    for torus in _tori():
        refined, fan, _ = catalog.subdivide_face_with_cone(torus, 7, 1.5)
        star = DiskSpec(torus, {7, 8, 9})
        surfaces += [torus, refined, extract_disk_surface(fan)[0], extract_disk_surface(star)[0]]
    splits = refusals = 0
    for s in surfaces:
        for face in range(len(s.faces)):
            if len(set(s.face_corners(face))) == 3 and not s.boundary_edges():
                _assert_splice(*_fan_seed(s, face, 1.0), planless)
                splits += 1
        for e in range(len(s.edges)):
            _assert_flip(s, e, planless)
            refusals += _outcome(flip_edge, s, e)[0] != "ok"
    assert splits > 40 and refusals > 10


def test_splice_refusals_match(planless):
    """A patch that does not fit, a patch with too few faces and a wrong
    number of lengths, each refused with the planless text."""
    host, star = catalog.torus_with_cone_point(2.0)
    fan_args = _fan_seed(host, 7, 1.0)
    triangle = ConeSurface(((0, 1), (1, 2), (2, 0)), ((Side(0), Side(1), Side(2)),), np.ones(3))
    for disk, patch, lengths, cones in [
        (star, catalog._FAN_TEMPLATE, [1.0, 1.0, 1.0], {}),  # a 3-face disk, a 3-face fan
        (DiskSpec(host, {7, 8}), catalog._FAN_TEMPLATE, [1.0, 1.0, 1.0], {}),
        (star, triangle, [], {}),
        (fan_args[0], fan_args[1], fan_args[2][:2], fan_args[3]),
        (fan_args[0], fan_args[1], [*fan_args[2], 1.0], fan_args[3]),
        (fan_args[0], fan_args[1], [1.0, 1.0, -1.0], fan_args[3]),
    ]:
        _assert_splice(disk, patch, lengths, cones, planless)


def _three_face_strip():
    """Faces 2 - 0 - 1 in a row, face 1's corners degenerate
    (test_conesurf._three_face_strip)."""
    y = 1e-5
    edges = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 4), (4, 0))
    faces = (
        (Side(0), Side(1), Side(2, False)),
        (Side(2), Side(3), Side(4)),
        (Side(0, False), Side(6, False), Side(5, False)),
    )
    lengths = [y, y, y, y, 2 * y - 1.1e-12, y, y]
    return ConeSurface(edges, faces, np.array(lengths), check_angles=False)


def test_loop_errors_match_and_come_in_walk_order(planless):
    """Loops that do not chain, hit a boundary edge, miss their base face or
    leave the face or side range, on a torus and on a strip with a
    degenerate face: the first such error of the walk is reported, through
    the degenerate face or not, and only a loop that closes reports the
    first degenerate face it reaches."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    around = loop_around_vertex(torus, 4)
    strip = _three_face_strip()
    cases = [
        (torus, [around[0], around[0]], "loop steps do not chain"),
        (torus, around[:-1], "loop does not return to its base face"),
        (torus, [(10, 0)], "face id 10 is not a face of the surface (0..9)"),
        (torus, [(12, 0)], "face id 12 is not a face of the surface (0..9)"),
        (torus, [(-1, 0)], "face id -1 is not a face of the surface (0..9)"),
        (torus, [(-11, 0)], "face id -11 is not a face of the surface (0..9)"),
        (torus, [(2**70, 0)], f"face id {2**70} is not a face of the surface (0..9)"),
        (torus, [(around[0][0], 3)], "side index 3 is not a side of a face (0..2)"),
        (torus, [(around[0][0], -1)], "side index -1 is not a side of a face (0..2)"),
        (strip, [(0, 1), (0, 1)], "edge 1 is a boundary edge"),
        (strip, [(2, 0)], "loop does not return to its base face"),
        (strip, [(2, 0), (0, 0)], "ok"),
        # face 0 -> face 1 (degenerate), then a step that does not chain or
        # a boundary side
        (strip, [(0, 2), (0, 0)], "loop steps do not chain"),
        (strip, [(0, 2), (1, 1)], "edge 3 is a boundary edge"),
        (strip, [(2, 0), (2, 0), (0, 2)], "loop steps do not chain"),
        # from the degenerate base face: out of range, open or broken
        (strip, [(1, 3)], "side index 3 is not a side of a face (0..2)"),
        (strip, [(1, 0)], "loop does not return to its base face"),
        (strip, [(1, 0), (2, 0)], "loop steps do not chain"),
        # closed loops through face 1
        (strip, [(1, 0), (0, 2)], "degenerate corner at face 1"),
        (strip, [(0, 2), (1, 0)], "degenerate corner at face 1"),
    ]
    for s, loop, text in cases:
        _assert_holonomy(s, loop, planless)
        kind, got = _outcome(holonomy_of_loop, s, loop)
        if text == "ok":
            assert kind == "ok"
        else:
            assert (kind, got) == (NotHyperbolicError if "degenerate" in text else GeometryError, text)


def _flagged(s: ConeSurface, corner: int) -> ConeSurface:
    """s with one flat corner (3 face + i) flagged degenerate in its cached
    corner table, the angles kept."""
    copy = s.with_lengths(s.lengths)
    angles, degenerate = s._corners()
    flags = np.zeros_like(degenerate)
    flags.ravel()[corner] = True
    object.__setattr__(copy, "_corner_cache", (angles, flags))
    return copy


def test_degenerate_corners_are_reported_in_the_planless_order(planless):
    """One corner of the torus flagged degenerate at a time: every flip,
    and every vertex loop and dual cycle, closed, cut short or broken after
    its first step, reports what the planless operation reports; a loop cut
    short or broken reports its own error, whichever face is flagged."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    closed = [loop_around_vertex(torus, v) for v in torus.vertices] + dual_cycles(torus)
    broken = [lp[:-1] for lp in closed if len(lp) > 1] + [[lp[0], lp[0]] for lp in closed]
    for corner in range(3 * len(torus.faces)):
        s = _flagged(torus, corner)
        for e in range(len(torus.edges)):
            _assert_flip(s, e, planless)
        for loop in closed + broken:
            _assert_holonomy(s, loop, planless)
        for loop in broken:
            assert _outcome(holonomy_of_loop, s, loop) == _outcome(holonomy_of_loop, torus, loop)
            assert _outcome(holonomy_of_loop, s, loop)[0] is GeometryError


def test_a_flip_of_an_edge_out_of_range_is_refused_before_the_metric_checks(planless):
    """An edge id outside 0..E-1 is refused by id, as the planless flip
    refuses it, on each call, also where every corner is degenerate (edge -1
    no longer names the last edge)."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    degenerate = torus.with_lengths(torus.lengths)
    angles, flags = torus._corners()
    object.__setattr__(degenerate, "_corner_cache", (angles, np.ones_like(flags)))
    for e in (-1, -15, 15, 10**30):
        text = f"edge id {e} is not an edge of the surface (0..14)"
        for s in (torus, degenerate):
            _assert_flip(s, e, planless)
            assert _outcome(flip_edge, s, e) == (GeometryError, text)


def test_a_build_that_raises_keeps_no_plan():
    """A loop, vertex loop or flip whose plan build raises leaves the
    structure's plans as they were, and raises the same text again."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    strip = _three_face_strip()
    plans = torus._structure._plans, strip._structure._plans
    calls = [
        (holonomy_of_loop, torus, [(0, 0)]),
        (holonomy_of_loop, torus, [(10, 0)]),
        (holonomy_of_loop, torus, [(0, 3)]),
        (holonomy_of_loop, strip, [(1, 0), (2, 0)]),
        (loop_around_vertex, torus, 99),
        (loop_around_vertex, torus, 4, 10),
        (flip_edge, torus, 15),
        (flip_edge, strip, 1),
    ]
    for fn, s, *args in calls:
        before = [(dict(p._entries), p.held) for p in plans]
        first = _outcome(fn, s, *args)
        assert first[0] is GeometryError
        assert [(dict(p._entries), p.held) for p in plans] == before
        assert _outcome(fn, s, *args) == first


def _fan(n):
    """An open fan of n triangles around vertex 0 (test_structure._fan)."""
    spokes = [(0, k + 1) for k in range(n + 1)]
    rims = [(k + 1, k + 2) for k in range(n)]
    faces = [(Side(k), Side(n + 1 + k), Side(k + 1, False)) for k in range(n)]
    return ConeSurface(spokes + rims, faces, np.ones(2 * n + 1), check_angles=False)


def test_the_plans_kept_on_one_structure_stay_within_their_bound():
    """Every loop, flip and splice plan of a subdivided torus and of a fan
    fit into _PLAN_ENTRIES entries per face, the oldest going first; the
    newest are served again without a build."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    refined, _, _ = catalog.subdivide_face_with_cone(torus, 7, 1.5)
    fan = _fan(40)
    for s in (refined, torus, fan):
        structure = s._structure
        plans = structure._plans
        assert plans.budget == conesurf._PLAN_ENTRIES * len(s.faces)
        asked = 0
        for _ in range(3):
            for f in range(len(s.faces)):
                for i in range(3):
                    _outcome(holonomy_of_loop, s, [(f, i), (f, i)])
                    asked += 1
            for e in range(len(s.edges)):
                _outcome(flip_edge, s, e)
            for f in range(len(s.faces)):
                if len(set(s.face_corners(f))) == 3 and not s.boundary_edges():
                    splice_disk(*_fan_seed(s, f, 1.0))
            sizes = [size for _, size in plans._entries.values()]
            assert plans.held == sum(sizes) <= plans.budget
            assert all(plan.size == size for plan, size in plans._entries.values())
        assert asked > len(plans._entries)
        key, (plan, _) = list(plans._entries.items())[-1]
        assert structure.plan(key, None)[0] is plan


def test_a_plan_whose_structure_has_gone_is_built_again(monkeypatch):
    """A splice plan holds its spliced structure weakly: once the structure
    cache lets it go and no surface holds it, the next splice builds the
    plan again, on an equal structure."""
    cache = conesurf._Kept(conesurf._STRUCTURE_FACES)
    monkeypatch.setattr(conesurf, "_STRUCTURES", cache)
    host = _fan(17)
    args = (DiskSpec(host, {3}), catalog._FAN_TEMPLATE, [0.6, 0.6, 0.6], {3: 1.0})
    first, disk = splice_disk(*args)
    key = ("splice", frozenset({3}), catalog._FAN_TEMPLATE._structure)
    plan = host._structure._plans.get(key)
    assert plan.leads_to() is first._structure
    edges, faces = first.edges, first.faces
    cache._entries.clear()
    cache.held = 0
    del first, disk
    gc.collect()
    assert plan.leads_to() is None
    again, _ = splice_disk(*args)
    assert host._structure._plans.get(key) is not plan
    assert (again.edges, again.faces) == (edges, faces)
