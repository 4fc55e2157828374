"""The two-cone disk that collision surgery glues in: the batched collar
development against the disk built one parameter set at a time, and the
lockstep fit against the seed-by-seed fit on exact disks (both references
in conftest.py)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone import catalog
from adscone.catalog import (
    _disk_collar,
    _disk_rim_data,
    fit_two_cone_disk,
    two_cone_disk_from_params,
)
from adscone.errors import GeometryError

# the box the fit clips its parameters to
LO = np.array([-3.5] * 3 + [-5.0, -5.0, -6.0])
HI = np.array([2.5] * 3 + [5.0, 5.0, 1.8])


def _parameter_rows(rng, n):
    """Rows just around the fit's box, with the breakpoint logits pinned
    one past its bounds in half of them (q2 almost on the ray of q1: the
    first face nearly flat); rows far outside it; and rows whose beta2
    overflows, so that the rim edge r2 comes out NaN."""
    near = rng.uniform(LO - 1.0, HI + 1.0, size=(n, 6))
    near[: n // 2, 3] = LO[3] - 1.0
    near[: n // 2, 4] = HI[4] + 1.0
    far = rng.uniform(LO - 10.0, HI + 10.0, size=(n, 6))
    overflow = rng.uniform(LO, HI, size=(n // 10, 6))
    overflow[:, 5] = 710.0
    return np.vstack([near, far, overflow])


def _scalar_collar(scalar_two_cone_disk, eta1, d, params):
    """(collar values, None) of one disk, or (None, why it is not a disk)."""
    try:
        disk, eta2 = scalar_two_cone_disk(eta1, d, params)
        rims, betas = _disk_rim_data(disk)
    except GeometryError as err:
        return None, str(err)
    return np.array(rims + betas[:2] + [eta2]), None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference, far outside the box
def test_collar_rows_match_the_single_disk(scalar_two_cone_disk):
    """Bit-identical values where the disk exists, ok False exactly where
    building it raises; the rows cover every way of raising."""
    rng = np.random.default_rng(7)
    reasons = set()
    for eta1, d in [(0.3, 3.4), (1.8, 2.0), (4.1, 4.2)]:
        P = _parameter_rows(rng, 400)
        values, ok = _disk_collar(eta1, d, P)
        for i, params in enumerate(P):
            want, err = _scalar_collar(scalar_two_cone_disk, eta1, d, params)
            assert ok[i] == (err is None), (eta1, d, i, err)
            if err is None:
                assert np.array_equal(values[i], want), (eta1, d, i)
                disk, _ = two_cone_disk_from_params(eta1, d, params)
                assert np.array_equal(disk.lengths, scalar_two_cone_disk(eta1, d, params)[0].lengths)
            else:
                reasons.add(next(r for r in ("finite", "triangle", "degenerate") if r in err))
        assert 0.1 < ok.mean() < 0.9
    assert reasons == {"finite", "triangle", "degenerate"}


def _boxed_rows(lo, hi):
    return st.tuples(*[st.floats(float(a), float(b)) for a, b in zip(lo, hi)])


# the rows of _parameter_rows: around the box, with or without the
# breakpoint logits pinned one past its bounds; far outside it; and with
# beta2 overflowing
_COLLAR_ROWS = st.one_of(
    _boxed_rows(LO - 1.0, HI + 1.0),
    _boxed_rows(LO - 1.0, HI + 1.0).map(lambda row: row[:3] + (LO[3] - 1.0, HI[4] + 1.0) + row[5:]),
    _boxed_rows(LO - 10.0, HI + 10.0),
    _boxed_rows(LO, HI).map(lambda row: row[:5] + (710.0,)),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference, far outside the box
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    eta1=st.floats(0.0, 2 * np.pi, exclude_min=True, exclude_max=True),
    d=st.floats(0.0, 5.0, exclude_min=True, exclude_max=True),
    rows=st.lists(_COLLAR_ROWS, min_size=1, max_size=8),
)
def test_collar_batches_match_the_single_disk(scalar_two_cone_disk, eta1, d, rows):
    """Over any eta1, d and batch, down to a single row: each row of the
    stacked collar pass is bit-identical to the disk built from its
    parameters alone, and ok is False exactly where building it raises."""
    P = np.array(rows)
    values, ok = _disk_collar(eta1, d, P)
    for i, params in enumerate(P):
        want, err = _scalar_collar(scalar_two_cone_disk, eta1, d, params)
        assert ok[i] == (err is None), (i, err)
        if err is None:
            assert np.array_equal(values[i], want), i


def test_jacobian_steps_back_where_the_forward_point_is_no_disk(scalar_two_cone_disk):
    """Near where the development stops being a disk as u3 grows, each
    Jacobian column is the forward difference of single disks, else the
    backward one, else zero; the point has columns of all three kinds."""
    eta1, d, h = 0.3, 3.4, 1e-7
    p = np.array([0.0, 0.0, 0.0, -6.0, 12.0, 0.0])

    def shifted(j, by):
        q = p.copy()
        q[j] += by
        return q

    def values(q):
        return _scalar_collar(scalar_two_cone_disk, eta1, d, q)[0]

    # bisect u3 to within h / 10 of where the development stops being a disk
    top = 16.0
    assert values(p) is not None and values(shifted(4, top - p[4])) is None
    while top - p[4] > h / 10:
        mid = 0.5 * (p[4] + top)
        if values(shifted(4, mid - p[4])) is None:
            top = mid
        else:
            p[4] = mid
    at = values(p)
    jac = catalog._collar_jacobian(eta1, d, p[None], at[None], h)[0]
    kinds = set()
    for j in range(6):
        ahead, behind = values(shifted(j, h)), values(shifted(j, -h))
        if ahead is not None:
            kinds.add("forward")
            assert np.array_equal(jac[:, j], (ahead - at) / h), j
        elif behind is not None:
            kinds.add("backward")
            assert np.array_equal(jac[:, j], (at - behind) / h), j
        else:
            kinds.add("zero")
            assert not jac[:, j].any(), j
    assert kinds == {"forward", "backward", "zero"}


@functools.cache
def _exact_disk_requests(n):
    """Fit arguments (rim lengths, rim angles, eta1, eta2, theta) of n exact
    disks built from seeded parameters, with theta from the trace identity
    at the realized second cone angle."""
    rng = np.random.default_rng(11)
    out = []
    while len(out) < n:
        eta1, d = rng.uniform(0.6, 2.6), rng.uniform(0.3, 1.6)
        params = np.concatenate(
            [rng.uniform(np.log(0.3), np.log(1.6), 3), rng.uniform(-0.8, 0.8, 2),
             [rng.uniform(np.log(0.3), np.log(1.5))]]
        )
        try:
            disk, eta2 = two_cone_disk_from_params(eta1, d, params)
            rims, betas = _disk_rim_data(disk)
        except GeometryError:
            continue
        c = np.cos(eta1 / 2) * np.cos(eta2 / 2) - np.sin(eta1 / 2) * np.sin(eta2 / 2) * np.cosh(d)
        if not (0 < eta2 < 2 * np.pi and abs(c) < 1):
            continue
        theta = 2 * np.arccos(c)
        if eta1 + eta2 < theta < 2 * np.pi:
            out.append((rims, betas, eta1, eta2, theta))
    return out


@pytest.mark.parametrize("request_index", range(20))
def test_fit_recovers_exact_disks_like_the_sequential_fit(request_index, sequential_disk_fit):
    """Both fits converge on the collar of an exact disk, to the same disk."""
    args = _exact_disk_requests(20)[request_index]
    fitted = fit_two_cone_disk(*args)
    reference = sequential_disk_fit(*args)
    assert np.abs(fitted.lengths - reference.lengths).max() < 1e-9
    assert fitted.cone_angles == pytest.approx(reference.cone_angles, abs=1e-9)
    rims, betas = _disk_rim_data(fitted)
    assert np.allclose(rims + betas, args[0] + args[1], atol=1e-10)
