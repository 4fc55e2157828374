"""catalog.solve_metric against the per-trial oracle in conftest.py: the same
lengths to the bit, the same errors and cone angles, and one ConeSurface per
solve."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adscone import catalog, conesurf
from adscone.conesurf import ConeSurface, DiskSpec
from adscone.errors import GeometryError, LinkRealizationError, NotHyperbolicError

PI = np.pi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _outcome(solve, surface, targets):
    try:
        s = solve(surface, targets)
    except GeometryError as err:
        return type(err), str(err)
    return s.lengths.tobytes(), s.cone_angles, s.check_angles


def _assert_solves_match(calls, per_trial_solve_metric):
    outcomes = []
    for args in calls:
        got = _outcome(catalog.solve_metric, *args)
        assert got == _outcome(per_trial_solve_metric, *args)
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cone_surface_solves_match_the_per_trial_oracle(
    seed, solve_metric_calls, per_trial_solve_metric
):
    """Every solve of the cone-surfaces benchmark inputs: one per input, the
    subdivision of the closed-form torus.  None of them stalls; the stalls
    the oracle is held to are those of
    test_partial_targets_match_the_per_trial_oracle and
    test_failing_solves_match_the_per_trial_oracle."""
    for op in corpus.cone_inputs(seed):
        surf, _ = catalog.torus_with_cone_point(op.theta)
        catalog.subdivide_face_with_cone(surf, op.face, op.eta)
    calls = list(solve_metric_calls)
    assert len(calls) == len(corpus.cone_inputs(seed))
    outcomes = _assert_solves_match(calls, per_trial_solve_metric)
    assert all(isinstance(o[0], bytes) for o in outcomes)


def test_cone_surface_solver_work_stays_bounded(monkeypatch):
    """The work of every metric solve behind the cone-surfaces benchmark
    inputs of seeds 1-3 (216 tori, each subdivided once), as counts that
    repeat exactly: linear solves, Jacobian builds and stalls.  The
    closed-form torus solves nothing, and the subdivisions of it take 1,901
    solves, 1,255 Jacobians and no stall.  A torus solved from the plane
    square scaled to its area took 3,605 and 2,566 (1,188 solves for the
    tori alone), and a fixed-size torus seed with longest-edge spokes
    11,623, 5,119 and 30 stalls.  The bounds leave room for a different but
    equally good placement of the torus's inner triangle, not for the old
    constructions."""
    counts = {"solves": 0, "jacobians": 0, "stalls": 0}
    linear_solve, jacobian = np.linalg.solve, catalog.angle_sum_jacobian

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(np.linalg, "solve", counted("solves", linear_solve))
    monkeypatch.setattr(catalog, "angle_sum_jacobian", counted("jacobians", jacobian))
    for seed in (1, 2, 3):
        for op in corpus.cone_inputs(seed):
            try:
                surf, _ = catalog.torus_with_cone_point(op.theta)
                catalog.subdivide_face_with_cone(surf, op.face, op.eta)
            except LinkRealizationError as err:
                assert "stalled" in str(err)
                counts["stalls"] += 1
    assert counts["stalls"] == 0
    assert counts["solves"] <= 2300
    assert counts["jacobians"] <= 1500


@pytest.mark.parametrize("theta", [0.01, 2.0, 6.27])
def test_the_torus_solves_no_metric(theta, solve_metric_calls):
    catalog.torus_with_cone_point(theta)
    catalog.torus_with_cone_point(theta, rim_length=0.05)
    assert solve_metric_calls == []


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 4.0, 4.5, 5.0])
def test_rim_length_is_exact(theta, solve_metric_calls):
    """A roomy collar, also at host angles where the rim-length
    continuation from the solved torus stalled (theta <= 2): the three rim
    edges, the disk's boundary, are 0.8 to rounding, with no solve."""
    surf, disk = catalog.torus_with_cone_point(theta, rim_length=0.8)
    assert solve_metric_calls == []
    assert disk.boundary_edges() == [9, 10, 11]
    assert np.abs(surf.lengths[disk.boundary_edges()] - 0.8).max() < 1e-15
    assert surf.check_angles and not surf.angle_defect_report()
    assert abs(surf.vertex_angle_sums([4])[4] - theta) < 1e-9


def test_a_rim_with_no_room_is_refused():
    """At theta = 6 a rim of 0.8 needs the inner triangle on a circle wider
    than the square's incircle."""
    with pytest.raises(
        LinkRealizationError,
        match=r"^torus \(theta=6\) has no room for rim_length=0\.8: the rim's circumradius "
        r"rho = 0\.470575 must be below the square's inradius h = 0\.272516$",
    ):
        catalog.torus_with_cone_point(6.0, rim_length=0.8)
    for bad in (0.0, -0.8, float("nan"), float("inf")):
        with pytest.raises(GeometryError, match="^rim_length must be positive and finite"):
            catalog.torus_with_cone_point(2.0, rim_length=bad)


def test_partial_targets_match_the_per_trial_oracle(plane_torus_seed, per_trial_solve_metric):
    """Targets on some vertices only, in and out of order, from the solved
    torus and from its plane seed: the solver's rows are the prescribed
    vertices'."""
    seed, targets = plane_torus_seed(2.0)
    torus = catalog.solve_metric(seed, targets)
    calls = [
        (torus, {4: 2.2}),
        (torus, {0: 2 * PI, 4: 2.2}),
        (torus, {4: 2.2, 2: 2 * PI, 1: 2 * PI}),
        (torus, {3: 2 * PI, 4: 2.2}),
        (torus, {0: 2 * PI, 4: 1.8}),
        (seed, {0: 2 * PI, 4: 2.0}),
        (seed, {4: 2.0}),  # stalls
        (seed, {4: 2.0, 2: 2 * PI, 1: 2 * PI}),  # runs out of iterations
    ]
    outcomes = _assert_solves_match(calls, per_trial_solve_metric)
    assert [isinstance(o[0], bytes) for o in outcomes] == [True] * 6 + [False] * 2


def test_failing_solves_match_the_per_trial_oracle(plane_torus_seed, per_trial_solve_metric):
    """The seed's own length errors, solves that run out of iterations, and
    stalls whose trials overflow: with every angle of the torus seed at
    0.001 its trial lengths pass 800, where cosh overflows."""
    seed, targets = plane_torus_seed(2.0)
    long_side = seed.with_lengths(seed.lengths.copy())
    long_side.lengths[0] = 10.0  # past the checks: the solver must redo them
    negative = seed.with_lengths(seed.lengths.copy())
    negative.lengths[0] = -1.0
    sphere = catalog.double_triangle_sphere(0.5, 0.6, 0.7)
    cases = [
        ((long_side, targets), NotHyperbolicError, "violates the triangle inequality"),
        ((negative, targets), GeometryError, "edge lengths must be positive and finite"),
        ((seed, {4: 0.3, 2: 2 * PI, 1: 2 * PI}), LinkRealizationError, "did not converge"),
        ((sphere, {0: 0.001, 1: 0.001}), LinkRealizationError, "did not converge"),
        ((seed, dict.fromkeys(range(5), 0.001)), LinkRealizationError, "stalled"),
        ((sphere, {0: PI, 1: PI, 2: PI}), LinkRealizationError, "stalled"),
    ]
    with np.errstate(all="ignore"):
        for args, kind, text in cases:
            got = _outcome(catalog.solve_metric, *args)
            assert got[0] is kind and text in got[1]
            assert got == _outcome(per_trial_solve_metric, *args)


@pytest.mark.parametrize(
    "targets, text",
    [({1: 3.5, 2: 3.5}, "stalled"), ({0: 3.5, 2: 3.5}, "stalled"), ({0: 3.5, 1: 3.5}, "did not converge")],
)
def test_a_singular_damped_step_fails_its_rung(targets, text):
    """Two half-angles of 1.75 leave no hyperbolic triangle.  On the way the
    normal matrix grows to ~1e12, the damping 1e-10 is lost beside it and
    numpy finds the damped system singular: that rung fails like a rejected
    trial, and the solve ends in LinkRealizationError, not LinAlgError."""
    sphere = catalog.double_triangle_sphere(0.5, 0.6, 0.7)
    with pytest.raises(LinkRealizationError, match=text):
        catalog.solve_metric(sphere, targets)


def test_empty_targets_give_a_new_surface_with_the_same_lengths():
    sphere = catalog.double_triangle_sphere(0.5, 0.6, 0.7)
    got = catalog.solve_metric(sphere, {})
    assert got is not sphere
    assert got.lengths.tobytes() == sphere.lengths.tobytes()
    assert got.cone_angles == sphere.cone_angles
    assert got.faces == sphere.faces and got.edges == sphere.edges


def test_a_solve_builds_one_surface(monkeypatch, plane_torus_seed):
    """Trials are evaluated on the length vector; only the result is a
    ConeSurface."""
    seed, targets = plane_torus_seed(2.0)
    built = []
    check = ConeSurface._check_metric

    def counted(surface):
        built.append(id(surface))
        check(surface)

    monkeypatch.setattr(ConeSurface, "_check_metric", counted)
    catalog.solve_metric(seed, targets)
    assert len(built) == 1


def _count_checks(monkeypatch):
    """The surfaces whose metric is checked, one entry per _check_metric."""
    built = []
    check = ConeSurface._check_metric

    def counted(surface):
        built.append(id(surface))
        check(surface)

    monkeypatch.setattr(ConeSurface, "_check_metric", counted)
    return built


def test_a_construction_builds_two_surfaces(monkeypatch):
    """A subdivision builds the seed and the solved surface, which checks
    its own angles: the solve's result is not copied to switch the angle
    check on.  The closed-form torus builds only itself."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    built = _count_checks(monkeypatch)
    surf, _ = catalog.torus_with_cone_point(2.0)
    assert built == [id(surf)]
    del built[:]
    refined, _, _ = catalog.subdivide_face_with_cone(torus, 1, 2.5)
    assert len(built) == len(set(built)) == 2 and built[1] == id(refined)
    assert surf.check_angles and refined.check_angles
    assert surf.lengths.tobytes() == torus.lengths.tobytes()


def test_a_construction_still_checks_the_solved_angles(monkeypatch):
    """A solve that hands back a metric off its cone angles fails the
    subdivision, as a checked copy of it would."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    seed_of = {}

    def unsolved(surface, targets):
        seed_of["refined"] = surface
        return surface.with_lengths(surface.lengths)

    monkeypatch.setattr(catalog, "solve_metric", unsolved)
    with pytest.raises(GeometryError, match="^vertex angle sums do not match targets") as got:
        catalog.subdivide_face_with_cone(torus, 1, 2.5)
    seed = seed_of["refined"]
    assert seed.cone_angles == {4: 2.0, 5: 2.5}
    with pytest.raises(GeometryError) as want:
        seed.with_lengths(seed.lengths, check_angles=True)
    assert str(got.value) == str(want.value)


def test_a_failed_angle_check_leaves_the_surface_as_it_was():
    """The angle check runs before the flag is set, so a surface that fails
    it still reads check_angles=False."""
    surf, _ = catalog.torus_with_cone_point(2.0)
    off = surf.with_lengths(surf.lengths, {4: 2.5})
    with pytest.raises(GeometryError, match="^vertex angle sums do not match targets"):
        off._switch_on_angle_check()
    assert not off.check_angles
    assert surf.with_lengths(surf.lengths)._switch_on_angle_check().check_angles


def test_an_overflowing_stall_emits_no_warning():
    """The trials of this solve overflow (exp, cosh, sinh) before it
    stalls; numpy stays quiet about them."""
    sphere = catalog.double_triangle_sphere(0.5, 0.6, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinkRealizationError, match="stalled"):
            catalog.solve_metric(sphere, {0: PI, 1: PI, 2: PI})


def test_disk_spec_reads_its_faces_once(monkeypatch):
    """A face set is walked once per structure: a second spec on it, a spec
    on another surface of the same triangulation and every query walk
    nothing, and a new face set is walked once more."""
    surf, _ = catalog.torus_with_cone_point(2.0)
    structure = surf._structure
    monkeypatch.setattr(structure, "_disks", conesurf._Kept(len(structure.faces)))
    walks = []
    walk = conesurf._walk_disk
    monkeypatch.setattr(conesurf, "_walk_disk", lambda st, ids: walks.append(ids) or walk(st, ids))
    disk = DiskSpec(surf, frozenset({7, 8, 9}))
    assert walks == [frozenset({7, 8, 9})]
    other, _ = catalog.torus_with_cone_point(3.0)
    again = [DiskSpec(surf, [9, 8, 7]), DiskSpec(other, frozenset({7, 8, 9}))]
    for spec in (disk, *again):
        for _ in range(3):
            assert spec.euler_characteristic == 1
            assert spec.interior_vertices() == {4}
            assert spec.boundary_edges() == [9, 10, 11]
    assert disk.marked_angles() == {4: 2.0}
    assert again[1].marked_angles() == {4: 3.0}
    assert len(walks) == 1
    assert DiskSpec(surf, frozenset({7, 8})).boundary_edges() == [9, 10, 12, 14]
    assert walks == [frozenset({7, 8, 9}), frozenset({7, 8})]


def _connected_face_sets(surface, most):
    """Every edge-connected set of 1 to most faces of a surface."""
    sets = {frozenset({f}) for f in range(len(surface.faces))}
    grown = set(sets)
    for _ in range(most - 1):
        grown = {
            faces | {g}
            for faces in grown
            for f in faces
            for g in (k // 3 for k in surface._neighbors[f].tolist() if k >= 0)
            if g not in faces
        }
        sets |= grown
    return sorted(sets, key=sorted)


def test_disk_data_equal_the_walk_on_every_small_face_set(walked_disk):
    """On the torus and one subdivision of it, every connected set of 1-4
    faces gives a spec (built twice, the second from what the structure
    kept) with the walk's Euler characteristic, rim and interior, or, where
    the walk's Euler characteristic is not 1, raises on both constructions."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    refined, _, _ = catalog.subdivide_face_with_cone(torus, 7, 1.0)
    disks = refused = 0
    for surf in (torus, refined):
        for faces in _connected_face_sets(surf, 4):
            chi, rim, interior = walked_disk(surf, faces)
            for _ in range(2):
                if chi != 1:
                    with pytest.raises(GeometryError, match=r"not a disk \(chi != 1\)"):
                        DiskSpec(surf, faces)
                    continue
                spec = DiskSpec(surf, faces)
                assert spec.euler_characteristic == chi
                assert spec.boundary_edges() == list(rim)
                assert spec.interior_vertices() == set(interior)
                assert spec.marked_angles() == {v: surf.cone_angles[v] for v in interior if v in surf.cone_angles}
            disks += chi == 1
            refused += chi != 1
    assert (disks, refused) == (66, 172)


def test_a_face_set_that_is_no_disk_raises_on_every_construction(monkeypatch):
    """A disconnected set and the whole torus raise on each of three
    constructions, each walked anew, and the structure keeps neither."""
    surf, _ = catalog.torus_with_cone_point(2.0)
    walks = []
    walk = conesurf._walk_disk
    monkeypatch.setattr(conesurf, "_walk_disk", lambda st, ids: walks.append(ids) or walk(st, ids))
    cases = [
        (frozenset({0, 8}), "not edge-connected"),
        (frozenset(range(10)), r"not a disk \(chi != 1\)"),
    ]
    for faces, message in cases:
        for _ in range(3):
            with pytest.raises(GeometryError, match=message):
                DiskSpec(surf, faces)
        assert faces not in surf._structure._disks._entries
    assert len(walks) == 6
    with pytest.raises(GeometryError, match="empty disk"):
        DiskSpec(surf, frozenset())


# ---------------------------------------------------------------------------
# the lift of the subdivision seed
# ---------------------------------------------------------------------------


def test_the_lift_is_the_bisection_lift_on_the_benchmark_inputs(monkeypatch, bisection_lift):
    """On every cone-surfaces input of seeds 1-10 the spokes equal plain
    bisection's to the bit, with at most 30 apex sums per lift (plain
    bisection takes about 56)."""
    taken = []
    apex_sum = catalog._apex_sum
    monkeypatch.setattr(catalog, "_apex_sum", lambda bases, t: taken.append(t) or apex_sum(bases, t))
    most = 0
    for seed in range(1, 11):
        for op in corpus.cone_inputs(seed):
            surf, _ = catalog.torus_with_cone_point(op.theta)
            sides = [float(surf.lengths[side.edge]) for side in surf.faces[op.face]]
            taken.clear()
            spokes = catalog._cone_over_face(sides, op.eta)
            oracle = bisection_lift(sides, op.eta)
            assert np.array(spokes).tobytes() == np.array(oracle).tobytes()
            most = max(most, len(taken))
    assert most <= 30


@st.composite
def _triangles(draw):
    """Sides of a hyperbolic triangle: two in [1e-3, 12], the third between
    their difference and their sum, at least 1e-3 of that gap inside."""
    a, b = draw(st.floats(1e-3, 12.0)), draw(st.floats(1e-3, 12.0))
    u = draw(st.floats(1e-3, 1.0 - 1e-3))
    return [a, b, abs(a - b) + u * (a + b - abs(a - b))]


_ANGLES = st.one_of(
    st.floats(1e-3, 2 * PI - 1e-3),
    st.floats(1e-300, 1e-3),  # a lift past _MAX_LIFT is capped there
    st.floats(2 * PI - 1e-3, 2 * PI, exclude_max=True),
    st.floats(-10.0, 0.0),  # no lift: the centroid spokes
    st.floats(2 * PI, 20.0),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sides=_triangles(), theta=_ANGLES)
@example(sides=[0.5, 0.6, 0.7], theta=1e-30)
@example(sides=[0.5, 0.6, 0.7], theta=0.0)
@example(sides=[0.5, 0.6, 0.7], theta=2 * PI)
@example(sides=[0.5, 0.6, 0.7], theta=2 * PI - 1e-15)
def test_the_lift_is_the_bisection_lift(sides, theta, bisection_lift):
    spokes = catalog._cone_over_face(sides, theta)
    oracle = bisection_lift(sides, theta)
    assert np.array(spokes).tobytes() == np.array(oracle).tobytes()
