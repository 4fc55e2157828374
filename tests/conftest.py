import math
from types import SimpleNamespace

import numpy as np
import pytest

from adscone import catalog
from adscone.conesurf import _uses_of, flip_edge, raise_degenerate, resolve_loop
from adscone.errors import GeometryError, LinkRealizationError, NotHyperbolicError
from adscone.isom import IsomPair, Proj2, psl_of_lorentz3
from adscone.linalg import dot12, frame_coordinates, orthonormal_tangent_frame
from adscone.lrmetrics import transport
from adscone.tolerances import (
    DEGENERATE_CORNER,
    DELAUNAY_MARGIN,
    DISK_FIT_STALL,
    DISK_FIT_STOP,
    METRIC_SOLVE_STOP,
    TRIANGLE_MARGIN,
)


def _rk4_holonomy_pair(path, closing):
    y = path[0]
    frame = orthonormal_tangent_frame(y)
    sides = []
    for kind in ("left", "right"):
        cols = [frame_coordinates(y, frame, closing @ transport(path, u0, kind)) for u0 in frame]
        sides.append(psl_of_lorentz3(np.column_stack(cols)))
    return IsomPair(*sides)


@pytest.fixture(scope="session")
def rk4_holonomy_pair():
    """Reference for lrmetrics.holonomy_pair: the same frame and closing
    tail, with the left/right transports integrated by RK4 along every
    segment of the path instead of taken in closed form.  Results are kept
    for the session, because several tests integrate the same meridians."""
    done = {}

    def pair(path, closing):
        key = (path.tobytes(), closing.tobytes())
        if key not in done:
            done[key] = _rk4_holonomy_pair(path, closing)
        return done[key]

    return pair


def _translation_number_by_iteration(h, n=2 ** 14):
    """Orbit-average translation number of a lifted map with one Richardson
    extrapolation: exact for rational rotations and rapidly convergent in
    the parabolic and hyperbolic cases."""
    phi = 0.0
    half = None
    for i in range(n):
        if i == n // 2:
            half = phi
        phi = h(phi)
    tau_n = phi / n
    tau_half = half / (n // 2)
    return float(2.0 * tau_n - tau_half)


@pytest.fixture(scope="session")
def translation_number_by_iteration():
    """Reference for isom.translation_number (the conjugation to a rigid
    rotation): the orbit average of the lift itself."""
    return _translation_number_by_iteration


def _cross12(a, b):
    """Lorentzian cross product on R^{1,2}: <a x b, c> = det[a,b,c]."""
    return np.array(
        [
            -(a[1] * b[2] - a[2] * b[1]),
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


@pytest.fixture(scope="session")
def cross12():
    return _cross12


def _third_vertex(p, q, d_from_p, d_to_q, orientation):
    """The point at distance d_from_p of p and d_to_q of q, on the side where
    det[p, q, point] has the requested sign."""
    npq = _cross12(p, q)
    qq = dot12(npq, npq)
    if qq <= 0:
        raise GeometryError("degenerate edge placement")
    # solve x = alpha p + beta q + gamma n with <x,p> = -cosh d1, <x,q> = -cosh d2
    gram = np.array([[-1.0, dot12(p, q)], [dot12(p, q), -1.0]])
    rhs = np.array([-np.cosh(d_from_p), -np.cosh(d_to_q)])
    ab = np.linalg.solve(gram, rhs)
    base = ab[0] * p + ab[1] * q
    rem = -1.0 - dot12(base, base)
    if rem / qq <= 0:
        raise NotHyperbolicError("triangle does not close in the hyperboloid")
    gamma = np.sqrt(rem / qq)
    cand = base + gamma * npq
    if np.sign(np.linalg.det(np.vstack([p, q, cand]))) != orientation:
        cand = base - gamma * npq
    return cand


def _place_face(s, f):
    """Canonical positions (3x3, rows = corners) of face f in the hyperboloid."""
    sides = s.faces[f]
    a = s.lengths[sides[0].edge]
    p0 = np.array([1.0, 0.0, 0.0])
    p1 = np.array([np.cosh(a), np.sinh(a), 0.0])
    p2 = _third_vertex(p0, p1, s.lengths[sides[2].edge], s.lengths[sides[1].edge], +1)
    return np.vstack([p0, p1, p2])


def _develop_across(s, f, placed, side_index):
    """(g, positions): the face g across side_index of f, placed next to f's
    placement."""
    g, j = s.neighbor_across(f, side_index)
    pos = np.empty((3, 3))
    pos[j] = placed[(side_index + 1) % 3]
    pos[(j + 1) % 3] = placed[side_index]
    sides = s.faces[g]
    d_from_j1 = s.lengths[sides[(j + 1) % 3].edge]
    d_to_j = s.lengths[sides[(j + 2) % 3].edge]
    # counterclockwise placement: det[pos_j, pos_{j+1}, new] > 0
    pos[(j + 2) % 3] = _third_vertex(pos[(j + 1) % 3], pos[j], d_from_j1, d_to_j, -1)
    return g, pos


def _developed_flip_length(s, e):
    """The diagonal that would replace edge e, measured between the far
    corners of its two faces developed side by side in the hyperboloid."""
    (f1, i1), (f2, i2) = _uses_of(s, e)
    placed1 = _place_face(s, f1)
    g, placed2 = _develop_across(s, f1, placed1, i1)
    assert g == f2
    q = dot12(placed1[(i1 + 2) % 3], placed2[(i2 + 2) % 3])
    if q >= -1.0:
        raise NotHyperbolicError("flip would degenerate the quadrilateral")
    return float(np.arccosh(-q))


def _needs_flip(s, e):
    """The per-edge Delaunay test: an edge glued to two different faces whose
    facing corners sum past pi + DELAUNAY_MARGIN (the lower face's corner
    read first, so a degenerate one there is the one reported)."""
    uses = _uses_of(s, e)
    if len(uses) != 2:
        return False
    (f1, s1), (f2, s2) = uses
    if f1 == f2:
        return False  # self-glued edges are never flipped
    a1 = s.corner_angle(f1, (s1 + 2) % 3)
    a2 = s.corner_angle(f2, (s2 + 2) % 3)
    return a1 + a2 > np.pi + DELAUNAY_MARGIN


def _per_edge_delaunay(s):
    """delaunay_normalize with the per-edge scan: flip the first edge that
    _needs_flip, until none does."""
    for _ in range(10000):
        e = next((e for e in range(len(s.edges)) if _needs_flip(s, e)), None)
        if e is None:
            return s
        s = flip_edge(s, e)
    raise ArithmeticError("Delaunay normalization did not terminate")


@pytest.fixture(scope="session")
def per_edge_delaunay():
    """Reference for conesurf.delaunay_normalize's vectorized scan."""
    return _per_edge_delaunay


@pytest.fixture(scope="session")
def developed_flip_length():
    """Reference for the new diagonal of conesurf.flip_edge (the law of
    cosines across the quadrilateral): both faces placed in the hyperboloid
    and the far corners' Minkowski product read off."""
    return _developed_flip_length


def _developed_holonomy(s, loop):
    steps = resolve_loop(s, loop)
    f0 = f = steps[0][0]
    h = np.eye(2)
    for fi, si in steps:
        if fi != f:
            raise GeometryError("loop steps do not chain")
        f, developed = _develop_across(s, f, _place_face(s, f), si)
        h = h @ psl_of_lorentz3(developed.T @ np.linalg.inv(_place_face(s, f).T)).m
    if f != f0:
        raise GeometryError("loop does not return to its base face")
    return Proj2(h)


@pytest.fixture(scope="session")
def developed_holonomy():
    """Reference for conesurf.holonomy_of_loop, developed in the hyperboloid:
    at each step the neighbour is placed across the side of the current
    face's canonical placement (_place_face, _develop_across), the Lorentz map
    from its canonical to that placement is taken to PSL(2,R) by polar
    decomposition, and the steps are multiplied in order.

    Carrying the placements around the whole loop instead loses accuracy as the developed coordinates grow: on the
    theta = 1 torus subdivided at face 7, its Lorentz matrix of a dual cycle
    is off by 7e-7 against a 60-digit development (eta = 4), and on another
    the polar decomposition fails its round trip (eta = 1)."""
    return _developed_holonomy


# ---------------------------------------------------------------------------
# the corner kernel side by side, one face side at a time
# ---------------------------------------------------------------------------

_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_CORNER = np.arange(3)


def _face_edges(surface):
    """(F, 3): the edge of side i of face f, read off the faces."""
    return np.array([[side.edge for side in face] for face in surface.faces], dtype=np.intp).reshape(-1, 3)


def _corner_vertices(surface):
    """(F, 3): the vertex at corner i of face f, read off the faces."""
    corners = [surface.face_corners(f) for f in range(len(surface.faces))]
    return np.array(corners, dtype=np.intp).reshape(-1, 3)


def _per_side_law_of_cosines(sides):
    ch, sh = np.cosh(sides), np.sinh(sides)
    return (ch * ch[..., _PREV] - ch[..., _NEXT]) / (sh * sh[..., _PREV])


def _per_side_violates_triangle_inequality(sides):
    return (sides >= sides[..., _NEXT] + sides[..., _PREV] - TRIANGLE_MARGIN).any(axis=-1)


def _per_side_checked_sides(lengths, face_edges, num_edges):
    if (lengths <= 0).any() or not np.isfinite(lengths).all():
        raise GeometryError("edge lengths must be positive and finite")
    if len(lengths) != num_edges:
        raise GeometryError("need one length per edge")
    sides = lengths[face_edges]
    broken = _per_side_violates_triangle_inequality(sides)
    if broken.any():
        raise NotHyperbolicError(f"face {int(np.argmax(broken))} violates the triangle inequality")
    return sides


def _per_side_corner_table(sides):
    cosv = _per_side_law_of_cosines(sides)
    return np.arccos(cosv.clip(-1.0, 1.0)), ~(np.abs(cosv) <= 1 + DEGENERATE_CORNER)


def _per_side_angle_sum_jacobian(sides, angles, face_edges, corner_vertices, shape):
    sh = np.sinh(sides)
    d_opp = sh[:, _NEXT] / (sh * sh[:, _PREV] * np.sin(angles))
    cosv = np.cos(angles)
    grad = np.empty((len(sides), 3, 3))
    grad[:, _CORNER, _NEXT] = d_opp
    grad[:, _CORNER, _CORNER] = -d_opp * cosv[:, _NEXT]
    grad[:, _CORNER, _PREV] = -d_opp * cosv[:, _PREV]
    grad *= sides[:, None, :]
    n, m = shape
    cells = corner_vertices[:, :, None] * m + face_edges[:, None, :]
    return np.bincount(cells.ravel(), weights=grad.ravel(), minlength=n * m).reshape(n, m)


@pytest.fixture(scope="session")
def per_side_kernel():
    """Reference for the corner tables of conesurf: the law of cosines,
    length checks and angle-sum Jacobian on the (F, 3) side table
    lengths[face_edges], with cosh and sinh taken per side and each
    neighbouring side gathered from that table, as the library computed
    them before it gathered per-edge values through its corner tables.
    face_edges and corner_vertices read a surface's faces, not its tables."""
    return SimpleNamespace(
        face_edges=_face_edges,
        corner_vertices=_corner_vertices,
        law_of_cosines=_per_side_law_of_cosines,
        violates_triangle_inequality=_per_side_violates_triangle_inequality,
        checked_sides=_per_side_checked_sides,
        corner_table=_per_side_corner_table,
        angle_sum_jacobian=_per_side_angle_sum_jacobian,
    )


# ---------------------------------------------------------------------------
# the metric solve, one ConeSurface per trial
# ---------------------------------------------------------------------------


def _per_trial_solve_metric(surface, targets, length_targets=None):
    """catalog.solve_metric with every trial wrapped in a ConeSurface, whose
    length checks decide which trials fail, and its corner angles, angle
    sums and Jacobian taken side by side (per_side_kernel), so that the
    values do not come from the corner tables under test."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _per_trial_solve(surface, targets, length_targets)


def _per_trial_solve(surface, targets, length_targets):
    length_targets = dict(length_targets or {})
    verts = sorted(targets)
    ledges = sorted(length_targets)
    goal = np.array([targets[v] for v in verts] + [length_targets[e] for e in ledges])
    length_rows = np.equal.outer(ledges, range(len(surface.edges))).astype(float)
    face_edges, corner_vertices = _face_edges(surface), _corner_vertices(surface)
    shape = (surface.num_vertices, len(surface.edges))

    def build(x):
        return surface.with_lengths(np.exp(x))

    def angles_of(s):
        angles, degenerate = _per_side_corner_table(s.lengths[face_edges])
        raise_degenerate(degenerate)
        return angles

    def values_of(s):
        sums = np.bincount(corner_vertices.ravel(), weights=angles_of(s).ravel(), minlength=shape[0])
        return np.array([sums[v] for v in verts] + [s.lengths[e] for e in ledges])

    def jacobian(s):
        sides = s.lengths[face_edges]
        rows = _per_side_angle_sum_jacobian(sides, angles_of(s), face_edges, corner_vertices, shape)
        return np.vstack([rows[verts], length_rows * s.lengths[ledges][:, None]])

    x = np.log(np.asarray(surface.lengths, dtype=float))
    current = build(x)
    lam = 1e-10
    r = values_of(current) - goal
    for _ in range(200):
        if np.abs(r).max() < METRIC_SOLVE_STOP:
            break
        jac = jacobian(current)
        a = jac.T @ jac + lam * np.eye(len(x))
        step = np.linalg.solve(a, -jac.T @ r)
        improved = False
        for _ in range(40):
            try:
                trial = build(x + step)
                r_new = values_of(trial) - goal
                if np.linalg.norm(r_new) < np.linalg.norm(r):
                    x = x + step
                    r = r_new
                    current = trial
                    lam = max(lam / 4.0, 1e-12)
                    improved = True
                    break
            except GeometryError:
                pass
            lam = max(lam, 1e-8) * 8.0
            a = jac.T @ jac + lam * np.eye(len(x))
            step = np.linalg.solve(a, -jac.T @ r)
        if not improved:
            raise LinkRealizationError(
                "metric solve stalled: the requested cone data has no "
                "hyperbolic realization near the seed"
            )
    else:
        raise LinkRealizationError("metric solve did not converge")
    return current


@pytest.fixture(scope="session")
def per_trial_solve_metric():
    """Reference for catalog.solve_metric: the same damping schedule, stop
    rules and trial order, with a ConeSurface built for every trial and
    the corner kernel of per_side_kernel."""
    return _per_trial_solve_metric


@pytest.fixture
def solve_metric_calls(monkeypatch):
    """The (surface, targets, length_targets) of every catalog.solve_metric
    call made while the test runs, in order."""
    calls = []
    solve = catalog.solve_metric

    def recorded(surface, targets, length_targets=None):
        calls.append((surface, dict(targets), length_targets))
        return solve(surface, targets, length_targets)

    monkeypatch.setattr(catalog, "solve_metric", recorded)
    return calls


# the one-holed unit square of the torus complex (catalog._TORUS_EDGES), with
# the inner triangle coned off at its centroid p
_PLANE_SQUARE = {
    "C1": (0.0, 0.0), "C2": (1.0, 0.0), "C3": (1.0, 1.0), "C4": (0.0, 1.0),
    "q1": (0.5, 0.28), "q2": (0.72, 0.6), "q3": (0.34, 0.66),
}
_PLANE_SQUARE["p"] = tuple(np.mean(np.array([_PLANE_SQUARE[q] for q in ("q1", "q2", "q3")]), axis=0))


def _plane_torus_seed(theta):
    """(seed, targets): a start for catalog.solve_metric that is far from
    any hyperbolic metric, on the triangulation of
    catalog.torus_with_cone_point.  The lengths are the plane distances of
    _PLANE_SQUARE scaled by sqrt(2 pi - theta), so that the square's area is
    the Gauss-Bonnet area of the torus with one cone point of angle theta;
    the targets are that torus's angle sums (2 pi at vertices 0-3, theta at
    the cone point 4)."""
    template, _, _ = catalog._torus_template()
    plane = np.array([
        float(np.hypot(*np.subtract(_PLANE_SQUARE[h], _PLANE_SQUARE[t]))) for t, h in catalog._TORUS_EDGES
    ])
    seed = template.with_lengths(math.sqrt(2 * math.pi - theta) * plane, {4: theta})
    return seed, {0: 2 * math.pi, 1: 2 * math.pi, 2: 2 * math.pi, 3: 2 * math.pi, 4: theta}


@pytest.fixture(scope="session")
def plane_torus_seed():
    return _plane_torus_seed


# ---------------------------------------------------------------------------
# the two-cone disk, one parameter set and one seed at a time
# ---------------------------------------------------------------------------


def _hyp_dist(u, v):
    return float(np.arccosh(max(1.0 + 5e-16, -dot12(u, v))))


def _scalar_two_cone_disk(eta1, d, params):
    """catalog.two_cone_disk_from_params developed point by point: the exact
    disk with cone angle eta1 at the chart centre p1, the second cone point
    p2 at distance d, and the realized second cone angle."""
    s1, s2, s3 = np.exp(params[:3])
    u2, u3 = params[3], params[4]
    w = np.exp([u2, 0.0, u3, 0.0])
    w = w / w.sum()
    a_q2 = eta1 * w[0]
    a_p2 = eta1 * (w[0] + w[1])
    a_q3 = eta1 * (w[0] + w[1] + w[2])

    def from_p1(dist, ang):
        return np.array(
            [np.cosh(dist), np.sinh(dist) * np.cos(ang), np.sinh(dist) * np.sin(ang)]
        )

    p1 = np.array([1.0, 0.0, 0.0])
    q1 = from_p1(s1, 0.0)
    q2 = from_p1(s2, a_q2)
    p2 = from_p1(d, a_p2)
    q3 = from_p1(s3, a_q3)
    leg2 = _hyp_dist(p2, q2)
    leg3 = _hyp_dist(p2, q3)
    sides = np.array(
        [[_hyp_dist(p2, p1), _hyp_dist(p1, q2), leg2], [leg3, _hyp_dist(q3, p1), _hyp_dist(p1, p2)]]
    )
    ang_f1, ang_f3 = np.arccos(np.clip(_per_side_law_of_cosines(sides)[:, 0], -1.0, 1.0)).tolist()
    beta2 = float(np.exp(params[5]))
    eta2_realized = ang_f1 + ang_f3 + beta2
    r2 = float(
        np.arccosh(
            np.cosh(leg2) * np.cosh(leg3) - np.sinh(leg2) * np.sinh(leg3) * np.cos(beta2)
        )
    )
    q1_cut = from_p1(s1, eta1)
    rim = [_hyp_dist(q1, q2), r2, _hyp_dist(q3, q1_cut)]
    interior = [s1, s2, leg2, d, leg3, s3]
    lengths = np.concatenate([np.asarray(rim, float), np.asarray(interior, float)])
    disk = catalog._disk_template().with_lengths(lengths, {3: eta1, 4: eta2_realized})
    return disk, float(eta2_realized)


def _sequential_disk_fit(rim_lengths, rim_angles, eta1, eta2, theta):
    """The two-cone disk fit seed after seed, with one forward-difference
    column and one damping rung at a time; a seed stops where the rung it
    takes lowers its residual norm by at most DISK_FIT_STALL, relative."""
    d = catalog.collision_distance(theta, eta1, eta2)
    goal = np.array(
        [rim_lengths[0], rim_lengths[1], rim_lengths[2],
         rim_angles[0], rim_angles[1], eta2]
    )

    def values(p):
        disk, eta2_real = _scalar_two_cone_disk(eta1, d, p)
        rims, betas = catalog._disk_rim_data(disk)
        return np.array(rims + betas[:2] + [eta2_real])

    lo = np.array([-3.5] * 3 + [-5.0, -5.0, -6.0])
    hi = np.array([2.5] * 3 + [5.0, 5.0, 1.8])
    best = None
    for s_seed, b_seed in (
        (0.65 * d, 0.5), (0.4 * d, 0.8), (0.85 * d, 0.3), (0.25 * d, 1.0),
        (0.4, 0.5), (0.7, 0.5), (1.1, 0.3), (1.6, 0.2),
    ):
        p = np.array([np.log(s_seed)] * 3 + [0.0, 0.0, np.log(b_seed * eta2)])
        try:
            r = values(p) - goal
        except GeometryError:
            continue
        lam = 1e-8
        ok = True
        for _ in range(400):
            if np.abs(r).max() < DISK_FIT_STOP:
                break
            jac = np.empty((6, 6))
            h = 1e-7
            for j in range(6):
                pp = p.copy()
                pp[j] += h
                try:
                    jac[:, j] = (values(pp) - (r + goal)) / h
                except GeometryError:
                    try:
                        pp[j] = p[j] - h
                        jac[:, j] = ((r + goal) - values(pp)) / h
                    except GeometryError:
                        jac[:, j] = 0.0
            moving = False
            for _ in range(35):
                a = jac.T @ jac + lam * np.eye(6)
                step = np.linalg.solve(a, -jac.T @ r)
                try:
                    p_new = np.clip(p + step, lo, hi)
                    r_new = values(p_new) - goal
                    before, after = np.linalg.norm(r), np.linalg.norm(r_new)
                    if after < before:
                        p = p_new
                        r = r_new
                        lam = max(lam / 4.0, 1e-12)
                        moving = before - after > DISK_FIT_STALL * before or (
                            np.abs(r).max() < DISK_FIT_STOP
                        )
                        break
                except GeometryError:
                    pass
                lam = max(lam, 1e-8) * 8.0
            if not moving:
                ok = False
                break
        else:
            ok = False
        if ok and np.abs(r).max() < DISK_FIT_STOP:
            disk, _ = _scalar_two_cone_disk(eta1, d, p)
            rims, betas = catalog._disk_rim_data(disk)
            if abs(betas[2] - rim_angles[2]) > 1e-7:
                raise LinkRealizationError(
                    "collar data inconsistent: the closing angle differs by "
                    f"{abs(betas[2] - rim_angles[2]):.3e}; the removed disk does not "
                    f"carry an elliptic holonomy of angle {theta:.6g}"
                )
            return disk
        best = r if best is None or np.linalg.norm(r) < np.linalg.norm(best) else best
    raise LinkRealizationError(
        "two-cone disk fit did not converge; residual "
        + (f"{np.abs(best).max():.3e}" if best is not None else "n/a")
    )


@pytest.fixture(scope="session")
def scalar_two_cone_disk():
    """Reference for catalog._disk_collar and two_cone_disk_from_params:
    (disk, realized eta2) of one parameter set, raising GeometryError where
    the development leaves the hyperbolic plane."""
    return _scalar_two_cone_disk


@pytest.fixture(scope="session")
def sequential_disk_fit():
    """Reference for catalog.fit_two_cone_disk: the eight seeds run one
    after the other, each Jacobian column and each damping rung from its own
    disk.  Outcomes are kept for the session."""
    done = {}

    def fit(rim_lengths, rim_angles, eta1, eta2, theta):
        key = (tuple(rim_lengths), tuple(rim_angles), eta1, eta2, theta)
        if key not in done:
            try:
                done[key] = _sequential_disk_fit(rim_lengths, rim_angles, eta1, eta2, theta)
            except LinkRealizationError as err:
                done[key] = err
        if isinstance(done[key], LinkRealizationError):
            raise done[key]
        return done[key]

    return fit
