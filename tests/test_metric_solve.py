"""catalog.solve_metric against the per-trial oracle in conftest.py: the same
lengths to the bit, the same errors and cone angles, and one ConeSurface per
solve."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from adscone import catalog
from adscone.conesurf import ConeSurface, DiskSpec
from adscone.errors import GeometryError, LinkRealizationError, NotHyperbolicError

PI = np.pi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def _outcome(solve, surface, targets, length_targets=None, continuation_steps=1):
    try:
        s = solve(surface, targets, length_targets, continuation_steps)
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
    """Every solve of the cone-surfaces benchmark inputs: the torus and the
    subdivided torus, stalls included."""
    for op in corpus.cone_inputs(seed):
        try:
            surf, _ = catalog.torus_with_cone_point(op.theta)
            catalog.subdivide_face_with_cone(surf, op.face, op.eta)
        except GeometryError:
            pass
    calls = list(solve_metric_calls)
    outcomes = _assert_solves_match(calls, per_trial_solve_metric)
    assert any(isinstance(o[1], str) and "stalled" in o[1] for o in outcomes)
    assert sum(isinstance(o[0], bytes) for o in outcomes) > len(outcomes) // 2


@pytest.mark.parametrize("theta", [4.0, 4.5, 5.0])
def test_rim_length_solves_match_the_per_trial_oracle(
    theta, solve_metric_calls, per_trial_solve_metric
):
    catalog.torus_with_cone_point(theta, rim_length=0.8)
    calls = list(solve_metric_calls)
    assert [c[3] for c in calls] == [1, 64]
    _assert_solves_match(calls, per_trial_solve_metric)


def test_partial_targets_match_the_per_trial_oracle(solve_metric_calls, per_trial_solve_metric):
    """Targets on some vertices only, in and out of order, with and without
    length targets, from the solved torus and from its flat seed: the
    solver's rows are the prescribed vertices'."""
    seed, targets = _torus_seed(solve_metric_calls)
    torus = catalog.solve_metric(seed, targets)
    calls = [
        (torus, {4: 2.2}),
        (torus, {0: 2 * PI, 4: 2.2}),
        (torus, {4: 2.2, 2: 2 * PI, 1: 2 * PI}),
        (torus, {3: 2 * PI, 4: 2.2}, {9: 0.3}),
        (torus, {0: 2 * PI, 4: 1.8}, {10: 0.31}),
        (seed, {0: 2 * PI, 4: 2.0}),
        (seed, {4: 2.0}),  # stalls
        (seed, {4: 2.0, 2: 2 * PI, 1: 2 * PI}),  # runs out of iterations
    ]
    outcomes = _assert_solves_match(calls, per_trial_solve_metric)
    assert [isinstance(o[0], bytes) for o in outcomes] == [True] * 6 + [False] * 2


def _torus_seed(solve_metric_calls):
    catalog.torus_with_cone_point(2.0)
    seed, targets, _, _ = solve_metric_calls[0]
    del solve_metric_calls[:]
    return seed, targets


def test_failing_solves_match_the_per_trial_oracle(solve_metric_calls, per_trial_solve_metric):
    """The seed's own length errors, a solve that runs out of iterations and
    one whose trials overflow."""
    seed, targets = _torus_seed(solve_metric_calls)
    torus = catalog.solve_metric(seed, targets)
    long_side = seed.with_lengths(seed.lengths.copy())
    long_side.lengths[0] = 10.0  # past the checks: the solver must redo them
    negative = seed.with_lengths(seed.lengths.copy())
    negative.lengths[0] = -1.0
    sphere = catalog.double_triangle_sphere(0.5, 0.6, 0.7)
    cases = [
        ((long_side, targets), NotHyperbolicError, "violates the triangle inequality"),
        ((negative, targets), GeometryError, "edge lengths must be positive and finite"),
        ((torus, targets, {0: 0.01}), LinkRealizationError, "did not converge"),
        ((torus, targets, {0: 20.0}), LinkRealizationError, "did not converge"),
        ((sphere, {0: PI, 1: PI, 2: PI}), LinkRealizationError, "stalled"),
    ]
    with np.errstate(all="ignore"):
        for args, kind, text in cases:
            got = _outcome(catalog.solve_metric, *args)
            assert got[0] is kind and text in got[1]
            assert got == _outcome(per_trial_solve_metric, *args)


def test_a_solve_builds_one_surface(monkeypatch, solve_metric_calls):
    """Trials are evaluated on the length vector; only the result is a
    ConeSurface."""
    seed, targets = _torus_seed(solve_metric_calls)
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
    """The seed and the solved surface, which checks its own angles: the
    solve's result is not copied to switch the angle check on."""
    torus, _ = catalog.torus_with_cone_point(2.0)
    built = _count_checks(monkeypatch)
    surf, _ = catalog.torus_with_cone_point(2.0)
    assert len(built) == len(set(built)) == 2 and built[1] == id(surf)
    del built[:]
    refined, _, _ = catalog.subdivide_face_with_cone(torus, 1, 2.5)
    assert len(built) == len(set(built)) == 2 and built[1] == id(refined)
    assert surf.check_angles and refined.check_angles
    assert surf.lengths.tobytes() == torus.lengths.tobytes()


def test_a_construction_still_checks_the_solved_angles(monkeypatch):
    """A solve that hands back a metric off its cone angles fails the
    construction, as a checked copy of it would."""
    seed_of = {}

    def unsolved(surface, targets, length_targets=None, continuation_steps=1):
        seed_of["torus"] = surface
        return surface.with_lengths(surface.lengths)

    monkeypatch.setattr(catalog, "solve_metric", unsolved)
    with pytest.raises(GeometryError, match="^vertex angle sums do not match targets") as got:
        catalog.torus_with_cone_point(2.0)
    seed = seed_of["torus"]
    with pytest.raises(GeometryError) as want:
        seed.with_lengths(seed.lengths, {4: 2.0}, check_angles=True)
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
    """The vertex, edge and boundary sets of a frozen spec are taken when it
    is built, not on every query."""
    surf, _ = catalog.torus_with_cone_point(2.0)
    corners = []
    face_corners = ConeSurface.face_corners

    def counted(surface, f):
        corners.append(f)
        return face_corners(surface, f)

    monkeypatch.setattr(ConeSurface, "face_corners", counted)
    disk = DiskSpec(surf, frozenset({7, 8, 9}))
    assert sorted(corners) == [7, 8, 9]
    for _ in range(3):
        assert disk.euler_characteristic == 1
        assert disk.interior_vertices() == {4}
        assert disk.marked_angles() == {4: 2.0}
        assert disk.boundary_edges() == [9, 10, 11]
    assert sorted(corners) == [7, 8, 9]
