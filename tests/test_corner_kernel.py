"""The corner tables of conesurf (cosh and sinh once per edge, gathered per
corner) against the per-side kernel in conftest.py, on random length
vectors: the same angle bits, degenerate masks and Jacobian, and through
ConeSurface the same exception type and message."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone import catalog
from adscone.conesurf import (
    ConeSurface,
    Side,
    angle_sum_jacobian,
    checked_sides,
    corner_table,
    law_of_cosines,
    long_sides,
    positive_and_finite,
)
from adscone.errors import GeometryError, NotHyperbolicError

# zero, negative, not finite, overflowing in cosh (alone or in products),
# tiny, and at the triangle margin
SPECIAL = (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 400.0, 710.0, 800.0, 1e-300, 1e-12)


def _triangulations():
    torus, _ = catalog.torus_with_cone_point(2.0)
    refined, _, _ = catalog.subdivide_face_with_cone(torus, 1, 2.5)
    disk, _ = catalog.two_cone_disk_from_params(1.8, 0.4, np.array([-0.3, -0.2, -0.1, 0.1, -0.1, 0.2]))
    sphere = catalog.double_triangle_sphere(0.5, 0.6, 0.7)
    # one face with a boundary: two overflowing sides still pass the checks
    triangle = ConeSurface(((0, 1), (1, 2), (2, 0)), ((Side(0), Side(1), Side(2)),), np.ones(3))
    return {
        "subdivided torus": refined, "two-cone disk": disk, "sphere": sphere, "triangle": triangle
    }


SURFACES = _triangulations()


@st.composite
def length_vectors(draw, base, sizes=None):
    """base perturbed in log scale (a little, so most vectors are metrics,
    or a lot, so many are not), sometimes scaled to tiny or overflowing
    sides, with a few entries replaced by SPECIAL values; sometimes one
    length too few or too many, or none."""
    n = len(base)
    size = draw(st.sampled_from(sizes or (n, n, n, n, n, 0, n - 1, n + 1)))
    spread = draw(st.sampled_from((0.0, 0.01, 0.3, 3.0)))
    scale = draw(st.sampled_from((1.0, 1.0, 1.0, 1e-5, 400.0)))
    noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    lengths = scale * np.resize(base, size) * np.exp(spread * noise)
    for i, value in draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(SPECIAL)), max_size=3)):
        if size:
            lengths[i % size] = value
    return lengths


def _outcome(build):
    try:
        return build()
    except GeometryError as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(SURFACES)))
def test_table_kernel_matches_the_per_side_kernel(per_side_kernel, surface_jacobian, data, name):
    base = SURFACES[name]
    lengths = data.draw(length_vectors(base.lengths))
    _assert_kernels_agree(per_side_kernel, surface_jacobian, base, lengths)


@pytest.mark.parametrize("scale", [1e-7, 1e-5, 1.0, 300.0, 400.0])
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_scaled_metrics_match_the_per_side_kernel(per_side_kernel, surface_jacobian, name, scale):
    """Every corner of a tiny metric rounds away from its angle, and every
    corner of a huge one overflows: both are degenerate."""
    base = SURFACES[name]
    _assert_kernels_agree(per_side_kernel, surface_jacobian, base, scale * base.lengths)


def _assert_kernels_agree(ref, surface_jacobian, base, lengths):
    tables, face_edges = base._tables, ref.face_edges(base)
    # the length checks, on their own and as a surface raises them
    want = _outcome(lambda: ref.checked_sides(lengths, face_edges, len(base.edges)))
    got = _outcome(lambda: checked_sides(lengths, tables))
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.tobytes() == lengths[tables.sides].tobytes()
    surface = _outcome(lambda: ConeSurface(base.edges, base.faces, lengths, check_angles=False))
    assert surface == want if isinstance(want, tuple) else isinstance(surface, ConeSurface)
    if len(lengths) != len(base.edges):
        return
    # the corner table of every vector of the right size, metric or not
    with np.errstate(all="ignore"):
        want_angles, want_degenerate = ref.corner_table(lengths[face_edges])
        corners = corner_table(lengths, tables)
    assert corners.angles.tobytes() == want_angles.tobytes()
    assert np.array_equal(corners.degenerate, want_degenerate)
    if not isinstance(surface, ConeSurface):
        return
    angles = _outcome(surface.corner_angles)  # without a numpy warning
    if want_degenerate.any():
        face = int(np.argmax(want_degenerate.any(axis=1)))
        assert angles == (NotHyperbolicError, f"degenerate corner at face {face}")
        return
    assert angles.tobytes() == want_angles.tobytes()
    shape = (base.num_vertices, len(base.edges))
    with np.errstate(all="ignore"):  # a corner of angle 0 or pi divides by 0
        want_jac = ref.angle_sum_jacobian(
            lengths[face_edges], want_angles, face_edges, ref.corner_vertices(base), shape
        )
        got_jac = angle_sum_jacobian(lengths[tables.sides], corners, tables)
        assert surface_jacobian(surface).tobytes() == want_jac.tobytes()
    assert got_jac.tobytes() == want_jac.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.sampled_from((0, 1, 9)))
def test_batched_rows_match_the_per_side_kernel(per_side_kernel, data, rows):
    """(B, 9) length rows on the two-cone disk, handed to the kernel as
    the disk collar does, edges first (9, B): row by row the same masks and
    angle bits."""
    base = SURFACES["two-cone disk"]
    tables, face_edges = base._tables, per_side_kernel.face_edges(base)
    n = len(base.edges)
    lengths = np.array([data.draw(length_vectors(base.lengths, sizes=(n,))) for _ in range(rows)])
    lengths = lengths.reshape(rows, n)
    with np.errstate(all="ignore"):
        corners = corner_table(lengths.T, tables)
        broken = long_sides(lengths.T[tables.sides]).any(axis=1)
        want_angles, want_degenerate = per_side_kernel.corner_table(lengths[:, face_edges])
        want_broken = per_side_kernel.violates_triangle_inequality(lengths[:, face_edges])
    assert corners.angles.shape == (len(base.faces), 3, rows)
    angles = np.moveaxis(corners.angles, -1, 0)
    assert angles.tobytes() == want_angles.tobytes()
    assert np.array_equal(np.moveaxis(corners.degenerate, -1, 0), want_degenerate)
    assert np.array_equal(broken.T, want_broken)
    want_ok = np.all((lengths > 0) & np.isfinite(lengths), axis=1)
    assert np.array_equal(positive_and_finite(lengths, axis=1), want_ok)
    for row, ok in zip(lengths, want_ok):
        assert positive_and_finite(row) == ok


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_raw_side_tables_use_the_same_formula(per_side_kernel, shape):
    """law_of_cosines on made-up triangles (no triangulation) gives the
    per-side kernel's cosines, overflowing and NaN sides included."""
    rng = np.random.default_rng(11)
    sides = rng.uniform(0.01, 4.0, size=shape)
    sides.flat[0] = 800.0
    sides.flat[-1] = np.nan
    with np.errstate(all="ignore"):
        got, want = law_of_cosines(sides), per_side_kernel.law_of_cosines(sides)
    assert got.tobytes() == want.tobytes()
