"""Constructions of standard surfaces, disks and link families.

Everything here produces data for the rest of the library: triangulated
hyperbolic cone surfaces (spheres from doubled triangles, one-holed-square
tori with marked cone points), the two-cone disks used by collision surgery,
and the one-parameter family of singular links obtained by moving the apex
of a wedge from the hyperbolic plane across the boundary into the de Sitter
plane.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .conesurf import (
    ConeSurface,
    DiskSpec,
    Side,
    angle_sum_jacobian,
    checked_sides,
    cone_area,
    corner_table,
    law_of_cosines,
    long_sides,
    positive_and_finite,
    raise_degenerate,
    triangle_edge_from_angles,
    vertex_angle_totals,
)
from .errors import GeometryError, LinkRealizationError
from .linalg import HSPointClass, classify_ray, dot12
from .links import SingKind, SingularityType, link_of_type
from .rp1 import LinkCircle
from .tolerances import (
    DISK_CLOSING_ANGLE,
    DISK_FIT_STALL,
    DISK_FIT_STOP,
    METRIC_SOLVE_STOP,
    TRACE,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# metric solving
# ---------------------------------------------------------------------------


def solve_metric(
    surface: ConeSurface,
    targets: dict[int, float],
    length_targets: dict[int, float] | None = None,
    continuation_steps: int = 1,
) -> ConeSurface:
    """Adjust edge lengths so prescribed vertices reach their target angles
    (and, optionally, prescribed edges reach target lengths).

    Damped Gauss-Newton on log lengths with the closed-form Jacobian of the
    hyperbolic law of cosines (conesurf.angle_sum_jacobian); the system is
    usually underdetermined, and the minimum-norm step picks the point of
    the solution family that the seed leads to.  So the seed decides both
    which solution comes back and whether one is found: the constructions
    below build theirs from the cone data they ask for.  With
    continuation_steps > 1 the goals are walked from the seed metric's own
    values to the requested ones, which keeps every intermediate problem
    feasible.  Raises LinkRealizationError when the residual cannot be
    driven to zero from this seed ("stalled" when no damping rung lowers
    it).

    Each trial is evaluated on the length vector with the surface's own
    length checks and corner kernel on the corner tables of its
    triangulation (conesurf.checked_sides, corner_table,
    vertex_angle_totals), so a length vector fails here exactly when a
    ConeSurface with those lengths would; the accepted trial's side and
    corner tables give the next Jacobian (which divides by the trial's own
    sinh b sinh c), and one surface is built per solve.  A rejected trial
    may overflow (cosh of a long edge, say); numpy is told once per solve
    not to warn about it.

    The result is always a new surface, never the one passed in, so the
    constructions below may switch its angle check on in place
    (ConeSurface._switch_on_angle_check).  It shares the structure of the
    surface passed in and carries the corner table of its last accepted
    trial, so its angle sums, angle check and loop holonomies do not
    evaluate the law of cosines again.
    """
    length_targets = dict(length_targets or {})
    if not targets and not length_targets:
        return surface.with_lengths(surface.lengths)  # nothing to solve
    verts = sorted(targets)
    ledges = sorted(length_targets)
    goal = np.array([targets[v] for v in verts] + [length_targets[e] for e in ledges])
    # d length[e] / d x[e] = length[e]
    length_rows = np.equal.outer(ledges, range(len(surface.edges))).astype(float)
    tables = surface._tables
    rows = np.array(verts, dtype=np.intp)  # the prescribed vertices

    def evaluate(x):
        """(lengths, sides, corners, values) at log lengths x, or the
        GeometryError a surface with these lengths raises."""
        lengths = np.exp(x)
        sides = checked_sides(lengths, tables)
        corners = corner_table(lengths, tables)
        raise_degenerate(corners.degenerate)
        values = vertex_angle_totals(corners.angles, tables.corner_vertices, tables.shape[0])[rows]
        if ledges:
            values = np.concatenate([values, lengths[ledges]])
        return lengths, sides, corners, values

    def jacobian(lengths, sides, corners) -> np.ndarray:
        angle_rows = angle_sum_jacobian(sides, corners, tables)[rows]
        if not ledges:
            return angle_rows
        return np.vstack([angle_rows, length_rows * lengths[ledges][:, None]])

    x = np.log(np.asarray(surface.lengths, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        lengths, sides, corners, values = evaluate(x)
        start = values
        stages = (
            np.linspace(0.0, 1.0, max(2, continuation_steps + 1))[1:]
            if continuation_steps > 1
            else [1.0]
        )

        eye = np.eye(len(x))
        for t in stages:
            stage_goal = (1 - t) * start + t * goal
            lam = 1e-10
            r = values - stage_goal
            for _ in range(200):
                if np.abs(r).max() < METRIC_SOLVE_STOP:
                    break
                jac = jacobian(lengths, sides, corners)
                # fixed for the whole damping ladder of this iteration
                normal, rhs, r_norm = jac.T @ jac, -jac.T @ r, math.sqrt(r.dot(r))
                step = np.linalg.solve(normal + lam * eye, rhs)
                improved = False
                for _ in range(40):
                    try:
                        x_new = x + step
                        trial = evaluate(x_new)
                        r_new = trial[3] - stage_goal
                        if math.sqrt(r_new.dot(r_new)) < r_norm:
                            x = x_new
                            r = r_new
                            lengths, sides, corners, values = trial
                            lam = max(lam / 4.0, 1e-12)
                            improved = True
                            break
                    except GeometryError:
                        pass
                    lam = max(lam, 1e-8) * 8.0
                    step = np.linalg.solve(normal + lam * eye, rhs)
                if not improved:
                    raise LinkRealizationError(
                        "metric solve stalled: the requested cone data has no "
                        "hyperbolic realization near the seed"
                    )
            else:
                raise LinkRealizationError("metric solve did not converge")
    return surface.with_lengths(lengths)._keep_corners(corners)


# ---------------------------------------------------------------------------
# spheres and tori
# ---------------------------------------------------------------------------


def double_triangle_sphere(alpha: float, beta: float, gamma: float) -> ConeSurface:
    """The double of the hyperbolic triangle with the given angles: a sphere
    with three cone points of angles (2 alpha, 2 beta, 2 gamma)."""
    a, b, c = triangle_edge_from_angles(alpha, beta, gamma)
    # vertices 0,1,2; edge i opposite vertex i
    edges = ((1, 2), (2, 0), (0, 1))
    faces = (
        (Side(2, True), Side(0, True), Side(1, True)),
        (Side(1, False), Side(0, False), Side(2, False)),
    )
    lengths = np.array([a, b, c])
    cones = {0: 2 * alpha, 1: 2 * beta, 2: 2 * gamma}
    return ConeSurface(edges, faces, lengths, cones)


@functools.cache
def _torus_seed(roomy: bool) -> ConeSurface:
    """The plane square complex torus_with_cone_point seeds from, one per
    seed shape: a one-holed unit square whose corners C1..C4 all map to
    vertex 0, with an inner triangle q1, q2, q3 (vertices 1, 2, 3; roomy for
    a long collar) coned off at its centroid, vertex 4.  Edges a, b (the
    square's sides), k1..k7 (square corners to the triangle), r1..r3 (the
    rim q1 q2, q2 q3, q3 q1) and m1..m3 (the centroid to q1, q2, q3), in that
    order; faces 0..6 outside the triangle and 7..9 inside it, the star of
    vertex 4.  Lengths are plane distances (read-only: every caller gets this
    surface), and no cone angle is set."""
    if roomy:
        inner = [(0.5, 0.12), (0.88, 0.62), (0.18, 0.82)]
    else:
        inner = [(0.5, 0.28), (0.72, 0.6), (0.34, 0.66)]
    coords = {"C1": (0.0, 0.0), "C2": (1.0, 0.0), "C3": (1.0, 1.0), "C4": (0.0, 1.0),
              "q1": inner[0], "q2": inner[1], "q3": inner[2],
              "p": tuple(np.mean(np.array(inner), axis=0))}
    vid = {"C1": 0, "C2": 0, "C3": 0, "C4": 0, "q1": 1, "q2": 2, "q3": 3, "p": 4}
    edge_names = [
        ("a", "C1", "C2"), ("b", "C2", "C3"),
        ("k1", "C1", "q1"), ("k2", "C2", "q1"), ("k3", "C2", "q2"),
        ("k4", "C3", "q2"), ("k5", "C3", "q3"), ("k6", "C4", "q3"), ("k7", "C4", "q1"),
        ("r1", "q1", "q2"), ("r2", "q2", "q3"), ("r3", "q3", "q1"),
        ("m1", "p", "q1"), ("m2", "p", "q2"), ("m3", "p", "q3"),
    ]
    eid = {name: i for i, (name, _, _) in enumerate(edge_names)}

    def S(name, fwd=True):
        return Side(eid[name], fwd)

    faces = (
        (S("a"), S("k2"), S("k1", False)),
        (S("k3"), S("r1", False), S("k2", False)),
        (S("b"), S("k4"), S("k3", False)),
        (S("k5"), S("r2", False), S("k4", False)),
        (S("a", False), S("k6"), S("k5", False)),
        (S("k7"), S("r3", False), S("k6", False)),
        (S("b", False), S("k1"), S("k7", False)),
        (S("m1"), S("r1"), S("m2", False)),
        (S("m2"), S("r2"), S("m3", False)),
        (S("m3"), S("r3"), S("m1", False)),
    )
    lengths = [float(np.hypot(*np.subtract(coords[h], coords[t]))) for _, t, h in edge_names]
    edges = tuple((vid[t], vid[h]) for _, t, h in edge_names)
    plane = ConeSurface(edges, faces, lengths, check_angles=False)
    plane.lengths.flags.writeable = False
    return plane


# the rim edges r1, r2, r3 of _torus_seed
_TORUS_RIM = (9, 10, 11)


def torus_with_cone_point(
    theta: float, rim_length: float | None = None
) -> tuple[ConeSurface, DiskSpec]:
    """A hyperbolic torus with one cone point of angle theta < 2 pi, with the
    cone point inside an embedded 3-face disk (the star of the point).

    The solve starts from the plane square complex (_torus_seed) scaled by
    sqrt(2 pi - theta), so that the seed's Euclidean area equals the
    Gauss-Bonnet area cone_area([theta], 0) of the target.  A seed that
    grows and shrinks with the defect lets the solve reach angles near both
    ends of (0, 2 pi); it still stalls below theta ~ 0.05.

    rim_length, when given, prescribes the length of each of the three rim
    edges of that disk (collision surgery wants a roomy collar).
    Returns the surface and the disk around the cone point.
    """
    if not 0 < theta < TWO_PI:
        raise GeometryError("torus cone angle must be in (0, 2 pi)")
    plane = _torus_seed(rim_length is not None)
    p = 4
    seed = plane.with_lengths(math.sqrt(cone_area([theta], 0)) * plane.lengths, {p: theta})
    targets = {0: TWO_PI, 1: TWO_PI, 2: TWO_PI, 3: TWO_PI, p: theta}
    surf = solve_metric(seed, targets)
    if rim_length is not None:
        lt = dict.fromkeys(_TORUS_RIM, rim_length)
        surf = solve_metric(surf, targets, length_targets=lt, continuation_steps=64)
    surf = surf._switch_on_angle_check()
    disk = DiskSpec(surf, frozenset(range(7, 10)))
    return surf, disk


# the apex angles fall like exp(-t); past this lift they are below ~1e-27,
# and the solver is left to make up the rest (sinh(spoke + t) stays finite)
_MAX_LIFT = 64.0


def _cone_over_face(sides: list[float], theta: float) -> list[float]:
    """Spoke lengths from a new vertex inside the hyperbolic triangle with
    the given sides (side k from corner k to corner k+1) to its corners
    0, 1, 2, for a new cone angle theta.

    The vertex starts at the hyperbolic centroid, the normalized sum of the
    three corners on the hyperboloid: with C_k = cosh(side k),
        cosh(spoke k) = (1 + C_k + C_{k-1}) / sqrt(3 + 2 (C_0 + C_1 + C_2)),
    which splits the triangle without changing its metric (a smooth point,
    angle 2 pi).  For 0 < theta < 2 pi every spoke is then lifted by one
    common t >= 0, found by bisection, until the three apex angles sum to
    theta.  A lift keeps each difference of spokes, so every sub-triangle
    stays a triangle and its apex angle, from the half-angle form
        sin^2(apex k / 2) = sinh((l + dd)/2) sinh((l - dd)/2) / (sinh a sinh b)
    (base l = side k, spokes a, b to its ends, dd = a - b), falls
    monotonically with t."""
    ch = [math.cosh(length) for length in sides]
    norm = math.sqrt(3.0 + 2.0 * sum(ch))
    spokes = [math.acosh(max((1.0 + ch[k] + ch[k - 1]) / norm, 1.0)) for k in range(3)]
    if not 0 < theta < TWO_PI:
        return spokes
    bases = []  # (spoke to corner k, spoke to corner k+1, the numerator for side k)
    for k in range(3):
        a, b = spokes[k], spokes[(k + 1) % 3]
        numerator = math.sinh((sides[k] + a - b) / 2) * math.sinh((sides[k] - a + b) / 2)
        bases.append((a, b, max(numerator, 0.0)))

    def apex_sum(t: float) -> float:
        return 2.0 * sum(
            math.asin(math.sqrt(min(n / (math.sinh(a + t) * math.sinh(b + t)), 1.0)))
            for a, b, n in bases
        )

    lo, hi = 0.0, 1.0
    while apex_sum(hi) > theta and hi < _MAX_LIFT:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if apex_sum(mid) > theta:
            lo = mid
        else:
            hi = mid
    return [spoke + hi for spoke in spokes]


def subdivide_face_with_cone(
    s: ConeSurface, face: int, theta: float
) -> tuple[ConeSurface, DiskSpec, int]:
    """Split a face at a new vertex and make it a cone point of angle theta,
    then re-solve the metric of the whole surface (every edge length is
    free; the minimum-norm step stays near the seed).

    The seed is the cone over the face (_cone_over_face): the new vertex at
    the face's hyperbolic centroid, its three spokes lifted by a common
    amount until the new vertex has angle theta.  Nothing outside the face
    moves, so the solve only has to restore the angle sums at the face's
    three corners.

    Returns (surface, disk around the new point, new vertex id)."""
    corners = s.face_corners(face)
    if len(set(corners)) != 3:
        raise GeometryError("subdivision needs a face with three distinct corners")
    s.corner_angle(face, 0)  # NotHyperbolicError for a face whose sides overflow cosh
    new_v = max(s.vertices) + 1
    edges = list(s.edges)
    lengths = list(s.lengths)
    old_sides = s.faces[face]
    spokes = _cone_over_face([float(s.lengths[side.edge]) for side in old_sides], theta)
    spoke = {}
    for v, length in zip(corners, spokes):
        spoke[v] = len(edges)
        edges.append((new_v, v))
        lengths.append(length)
    new_faces = list(s.faces)
    replacement = [
        (Side(spoke[corners[0]]), old_sides[0], Side(spoke[corners[1]], False)),
        (Side(spoke[corners[1]]), old_sides[1], Side(spoke[corners[2]], False)),
        (Side(spoke[corners[2]]), old_sides[2], Side(spoke[corners[0]], False)),
    ]
    new_faces[face] = replacement[0]
    ids = [face, len(new_faces), len(new_faces) + 1]
    new_faces.extend(replacement[1:])
    cones = dict(s.cone_angles)
    cones[new_v] = theta
    seed = ConeSurface(tuple(edges), tuple(new_faces), np.array(lengths), cones, check_angles=False)
    targets = {v: seed.target_angle(v) for v in seed.vertices}
    targets[new_v] = theta
    surf = solve_metric(seed, targets)._switch_on_angle_check()
    return surf, DiskSpec(surf, frozenset(ids)), new_v


def collision_distance(theta: float, eta1: float, eta2: float) -> float:
    """Distance between the two cone points of a (theta; eta1, eta2)
    collision disk, from the trace identity for a product of rotations:

        cos(theta/2) = cos(eta1/2) cos(eta2/2) - sin(eta1/2) sin(eta2/2) cosh(d).

    Realizable exactly when eta1 + eta2 < theta < 2 pi."""
    if not (0 < eta1 < TWO_PI and 0 < eta2 < TWO_PI):
        raise GeometryError("cone angles must lie in (0, 2 pi)")
    # Outside the window the identity can still give cosh(d) > 1 (for
    # eta1 + eta2 > 4 pi - theta), so the window itself is the test.
    what = f"collision (theta={theta:.6g}; eta=({eta1:.6g}, {eta2:.6g})) is not realizable"
    if not eta1 + eta2 < theta:
        raise LinkRealizationError(
            f"{what}: needs eta1 + eta2 < theta, but eta1 + eta2 - theta = {eta1 + eta2 - theta:.6g}"
        )
    if not theta < TWO_PI:
        raise LinkRealizationError(
            f"{what}: needs theta < 2 pi, but theta - 2 pi = {theta - TWO_PI:.6g}"
        )
    c = (np.cos(eta1 / 2) * np.cos(eta2 / 2) - np.cos(theta / 2)) / (
        np.sin(eta1 / 2) * np.sin(eta2 / 2)
    )
    return float(np.arccosh(max(c, 1.0)))


@functools.cache
def _disk_template() -> ConeSurface:
    """The combinatorics of the two-cone disk (unit lengths): rim vertices
    0, 1, 2, cone points 3 and 4."""
    edges = (
        (0, 1), (1, 2), (2, 0),        # rim r1, r2, r3
        (0, 3), (1, 3), (1, 4), (3, 4), (2, 4), (2, 3),  # a1..a6
    )
    faces = (
        (Side(0), Side(4), Side(3, False)),
        (Side(5), Side(6, False), Side(4, False)),
        (Side(1), Side(7), Side(5, False)),
        (Side(8), Side(6), Side(7, False)),
        (Side(2), Side(3), Side(8, False)),
    )
    return ConeSurface(edges, faces, np.ones(len(edges)), check_angles=False)


def _from_chart_centre(dist, ang):
    """Points of H^2 at distance dist and chart angle ang from the chart
    centre (1, 0, 0), as a triple of coordinate arrays."""
    sh = np.sinh(dist)
    return np.cosh(dist), sh * np.cos(ang), sh * np.sin(ang)


def _hyp_dist(u, v):
    """Distances between points of H^2 given as coordinate triples, with the
    Minkowski product floored just above 1 so that coincident points give a
    tiny length."""
    x = -(-u[0] * v[0] + u[1] * v[1] + u[2] * v[2])
    return np.arccosh(np.where(x > 1.0 + 5e-16, x, 1.0 + 5e-16))


def _disk_development(eta1: float, d: float, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact cone development behind two_cone_disk_from_params, over the
    rows of P (B, 6): the nine edge lengths of the disk template (B, 9) and
    the realized second cone angle (B,).  Rows that leave the hyperbolic
    plane come out non-positive or non-finite."""
    s = np.exp(P[:, :3])
    s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2]
    # q1 at chart angle 0; q2, the second cone point, and q3 at increasing
    # angles: breakpoints at eta1 * (w_q2, w_q2+w_p2, w_q2+w_p2+w_q3) with
    # weights in the ratio e^u2 : 1 : e^u3 : 1, keeping them ordered and
    # inside (0, eta1)
    w = np.exp(P[:, 3:5])
    total = w[:, 0] + 1.0 + w[:, 1] + 1.0
    w_q2, w_p2, w_q3 = w[:, 0] / total, 1.0 / total, w[:, 1] / total
    p1 = (1.0, 0.0, 0.0)
    q1 = _from_chart_centre(s1, 0.0)
    q2 = _from_chart_centre(s2, eta1 * w_q2)
    p2 = _from_chart_centre(d, eta1 * (w_q2 + w_p2))
    q3 = _from_chart_centre(s3, eta1 * (w_q2 + w_p2 + w_q3))
    leg2 = _hyp_dist(p2, q2)
    leg3 = _hyp_dist(p2, q3)
    # the angles at p2 of the triangles (p2, p1, q2) and (p2, q3, p1): corner 0
    # of sides (p2 -> a, a -> b, b -> p2)
    sides = np.stack(
        [_hyp_dist(p2, p1), _hyp_dist(p1, q2), leg2, leg3, _hyp_dist(q3, p1), _hyp_dist(p1, p2)],
        axis=-1,
    ).reshape(-1, 2, 3)
    at_p2 = np.arccos(np.clip(law_of_cosines(sides)[..., 0], -1.0, 1.0))
    # beta2, the angle at p2 of the rim triangle (p2, q2, q3), is its own
    # parameter; the second cone angle is what it adds up to
    beta2 = np.exp(P[:, 5])
    eta2_realized = at_p2[:, 0] + at_p2[:, 1] + beta2
    r2 = np.arccosh(
        np.cosh(leg2) * np.cosh(leg3) - np.sinh(leg2) * np.sinh(leg3) * np.cos(beta2)
    )
    q1_cut = _from_chart_centre(s1, eta1)  # the cut copy seen by the last face
    lengths = np.stack(
        [_hyp_dist(q1, q2), r2, _hyp_dist(q3, q1_cut), s1, s2, leg2, np.full(len(P), d), leg3, s3],
        axis=-1,
    )
    return lengths, eta2_realized


def two_cone_disk_from_params(
    eta1: float, d: float, params: np.ndarray
) -> tuple[ConeSurface, float]:
    """An exact disk with a cone point of angle eta1 and a second cone point
    at distance d, developed in the cone chart of the first point; returns
    (disk, realized second cone angle).

    params = (log s1, log s2, log s3, u2, u3, log beta2): spoke lengths to
    the three rim vertices, the logits of the angular breakpoints of
    (q2, p2, q3) within the cone angle of the first point, and the angle at
    the second point of its rim triangle.  The first cone angle is exact by
    construction; rim lengths, rim corner angles and the second cone angle
    come out as functions of the parameters.  Raises GeometryError where
    the development is not a hyperbolic disk."""
    with np.errstate(all="ignore"):
        lengths, eta2 = _disk_development(eta1, d, np.asarray(params, dtype=float)[None])
    eta2_realized = float(eta2[0])
    disk = _disk_template().with_lengths(lengths[0], {3: eta1, 4: eta2_realized})
    return disk, eta2_realized


def _disk_rim_data(disk: ConeSurface):
    """(rim lengths, rim corner angle sums) of the standard disk complex."""
    sums = disk.vertex_angle_sums((0, 1, 2))
    rims = [float(disk.lengths[0]), float(disk.lengths[1]), float(disk.lengths[2])]
    return rims, [sums[0], sums[1], sums[2]]


def _disk_collar(eta1: float, d: float, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The collar values of two_cone_disk_from_params over the rows of P
    (B, 6): values (B, 6) = (rim lengths r1..r3, rim angle sums at q1 and q2,
    realized second cone angle), and ok (B,), False exactly where
    two_cone_disk_from_params or the rim angle sums raise GeometryError.
    Values of rows that are not ok are meaningless.

    Every row is computed with the same operations in the same order as the
    single disk, so rows are bit-identical to _disk_rim_data of it."""
    at_q1, at_q2, at_rim = _disk_rim_corners()
    tables = _disk_template()._tables
    with np.errstate(all="ignore"):
        lengths, eta2 = _disk_development(eta1, d, P)
        by_edge = lengths.T  # the corner tables gather along the first axis
        corners = corner_table(by_edge, tables)
        angles = corners.angles.reshape(-1, len(P))
        ok = (
            positive_and_finite(lengths, axis=1)
            & ~np.any(long_sides(by_edge[tables.sides]), axis=(0, 1))
            & ~np.any(corners.degenerate.reshape(-1, len(P))[at_rim], axis=0)
        )
    sums = []
    for at in (at_q1, at_q2):
        total = angles[at[0]]
        for k in at[1:]:  # in the order of ConeSurface.vertex_angle_sums
            total = total + angles[k]
        sums.append(total)
    return np.column_stack([lengths[:, :3], *sums, eta2]), ok


@functools.cache
def _disk_rim_corners() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (face, corner) indices of the disk template's corners at rim
    vertex 0, at rim vertex 1, and at any rim vertex, in face order."""
    corners = _disk_template()._tables.corner_vertices.ravel()
    return np.flatnonzero(corners == 0), np.flatnonzero(corners == 1), np.flatnonzero(corners < 3)


def _collar_jacobian(eta1, d, p, at, h):
    """Finite-difference Jacobians (S, 6, 6) of the collar values at the
    rows of p, whose values are at: forward differences with step h,
    backward ones in the columns where the forward point is not a disk, and
    zero columns where neither is."""
    eye = h * np.eye(6)
    values, ok = _disk_collar(eta1, d, (p[:, None, :] + eye).reshape(-1, 6))
    cols = (values.reshape(len(p), 6, 6) - at[:, None, :]) / h
    seed, col = np.nonzero(~ok.reshape(len(p), 6))
    if len(seed):
        values, ok = _disk_collar(eta1, d, p[seed] - eye[col])
        cols[seed, col] = np.where(ok[:, None], (at[seed] - values) / h, 0.0)
    return cols.transpose(0, 2, 1)


def fit_two_cone_disk(
    rim_lengths,
    rim_angles,
    eta1: float,
    eta2: float,
    theta: float,
) -> ConeSurface:
    """The disk a collision surgery glues in: two cone points of angles
    (eta1, eta2) with rim lengths and rim corner angle sums matching the
    collar of the removed disk.

    The disk is parametrized by its exact cone development (the first cone
    angle holds by construction), and a damped Gauss-Newton drives five
    collar values and the second cone angle to their targets; the last rim
    angle is then automatic, because a collar that closes up around an
    elliptic holonomy of angle theta leaves exactly a five-parameter family.
    Unrealizable data fails in collision_distance.

    The eight seeds run in lockstep as the rows of one state.  Each round
    takes the finite-difference Jacobians of every running seed from one
    batched development and walks the damping ladder (lam, then
    max(lam, 1e-8) * 8^k for k = 1..34) in two blocks: rungs 0-1 of every
    seed are solved and evaluated together, rungs 2-34 only for the seeds
    neither of those improved.  A seed takes its first rung that lowers its
    residual norm and stops when none does.  It also stops, at the point it
    took, when that rung lowers the norm by at most DISK_FIT_STALL of it
    while its largest residual is still at least DISK_FIT_STOP (Moré's
    relative-reduction test for Levenberg-Marquardt): past that point the
    doubling lam only creeps.  A seed converges when its largest residual
    is below DISK_FIT_STOP before one of its 400 steps (reaching it only on
    the last step does not count).  The lowest-index converged seed wins,
    once every lower seed has stopped.  Otherwise the error gives the
    largest residual of the seed that came closest (smallest residual norm,
    lowest index on ties) among the seeds whose start is a disk."""
    d = collision_distance(theta, eta1, eta2)
    goal = np.array(
        [rim_lengths[0], rim_lengths[1], rim_lengths[2],
         rim_angles[0], rim_angles[1], eta2]
    )
    lo = np.array([-3.5] * 3 + [-5.0, -5.0, -6.0])
    hi = np.array([2.5] * 3 + [5.0, 5.0, 1.8])
    # (common spoke length, beta2 as a share of eta2) of each seed
    seeds = (
        (0.65 * d, 0.5), (0.4 * d, 0.8), (0.85 * d, 0.3), (0.25 * d, 1.0),
        (0.4, 0.5), (0.7, 0.5), (1.1, 0.3), (1.6, 0.2),
    )
    p = np.array([[np.log(s)] * 3 + [0.0, 0.0, np.log(b * eta2)] for s, b in seeds])
    values, started = _disk_collar(eta1, d, p)
    r = values - goal
    lam = np.full(len(p), 1e-8)
    running = started.copy()
    converged = np.zeros(len(p), dtype=bool)
    rungs = 8.0 ** np.arange(35)  # rung k > 0 damps with max(lam, 1e-8) * 8^k
    for _ in range(400):
        converged |= running & (np.abs(r).max(axis=1) < DISK_FIT_STOP)
        running &= ~converged
        if converged.any():
            running[np.argmax(converged):] = False  # seeds after it cannot win
        if not running.any():
            break
        (rows,) = np.nonzero(running)
        pr, rr = p[rows], r[rows]
        jac = _collar_jacobian(eta1, d, pr, rr + goal, 1e-7)
        jt = jac.transpose(0, 2, 1)
        jtj, rhs = jt @ jac, -(jt @ rr[..., None])
        lams = np.maximum(lam[rows], 1e-8)[:, None] * rungs
        lams[:, 0] = lam[rows]
        # rungs 0-1 of every seed, then rungs 2-34 of the seeds neither improved
        waiting = np.arange(len(rows))
        for ks in (slice(0, 2), slice(2, None)):
            lk = lams[waiting, ks]
            a = jtj[waiting, None] + lk[..., None, None] * np.eye(6)
            steps = np.linalg.solve(a, rhs[waiting, None])[..., 0]
            trials = np.clip(pr[waiting, None, :] + steps, lo, hi)
            values, ok = _disk_collar(eta1, d, trials.reshape(-1, 6))
            r_trials = values.reshape(trials.shape) - goal
            # both sides of the comparison from one norm evaluation, so an
            # unchanged point never reads as an improvement
            norms = np.linalg.norm(np.concatenate([rr[waiting, None], r_trials], axis=1), axis=-1)
            better = ok.reshape(len(waiting), -1) & (norms[:, 1:] < norms[:, :1])
            took = better.any(axis=1)
            rung = np.argmax(better[took], axis=1)
            moved = rows[waiting[took]]
            p[moved] = trials[took, rung]
            r[moved] = r_trials[took, rung]
            lam[moved] = np.maximum(lk[took, rung] / 4.0, 1e-12)
            # a seed short of DISK_FIT_STOP stops where its step stalls
            before, after = norms[took, 0], norms[took, rung + 1]
            running[moved] = (before - after > DISK_FIT_STALL * before) | (
                np.abs(r[moved]).max(axis=1) < DISK_FIT_STOP
            )
            waiting = waiting[~took]
            if not len(waiting):
                break
        running[rows[waiting]] = False
    if converged.any():
        disk, _ = two_cone_disk_from_params(eta1, d, p[np.argmax(converged)])
        _, betas = _disk_rim_data(disk)
        if abs(betas[2] - rim_angles[2]) > DISK_CLOSING_ANGLE:
            raise LinkRealizationError(
                "collar data inconsistent: the closing angle differs by "
                f"{abs(betas[2] - rim_angles[2]):.3e}; the removed disk does not "
                f"carry an elliptic holonomy of angle {theta:.6g}"
            )
        return disk
    best = "n/a"
    if started.any():
        norms = np.linalg.norm(r[started], axis=1)
        best = f"{np.abs(r[started][np.argmin(norms)]).max():.3e}"
    raise LinkRealizationError(f"two-cone disk fit did not converge; residual {best}")


# ---------------------------------------------------------------------------
# the wedge family: particle -> graviton -> tachyon
# ---------------------------------------------------------------------------

# the removed arc, as polar angles on the future boundary circle: it straddles
# angle 0, opposite the path of the apex
WEDGE_ARC = (-0.55, 0.55)

# the smallest deficit or tachyon mass m the trace classifier tells from a
# graviton: a holonomy of trace 2 cosh(m/2) is parabolic below 2 + TRACE
LINK_RESOLUTION = 2.0 * math.acosh(1.0 + TRACE / 2.0)


def wedge_family_link(lam: float) -> LinkCircle:
    """Link of the singularity made by removing the wedge of rays from
    x(lam) = (1, -lam, 0) subtending the boundary arc WEDGE_ARC and
    regluing.

    For lam < 1 the result is a massive particle of positive mass, at
    lam = 1 a positive graviton, and for lam > 1 a tachyon of positive mass.

    The wedge sides are the directions at x towards the ends p1, p2 of the
    arc.  With q = <x,x> and a_i = <p_i,x> they meet with cosine
    c = q <p1,p2> / (a1 a2) - 1.  At a timelike apex the deficit is
    arccos(-c); at a spacelike one the sides are timelike and the tachyon
    has mass 2 arccosh(-c).  classify_ray alone decides whether the apex is
    null.  A deficit or mass at or below LINK_RESOLUTION raises
    GeometryError, and so does lam <= -cos(0.55), where x is on the arc's
    side of the geodesic p1 p2 and the wedge is no longer convex.
    """
    if not -math.cos(WEDGE_ARC[1]) < lam < math.inf:
        raise GeometryError(
            f"wedge family at lambda={lam!r}: the apex must stay opposite the arc, "
            f"lambda > -cos({WEDGE_ARC[1]})"
        )
    p1, p2 = (np.array([1.0, math.cos(b), math.sin(b)]) for b in WEDGE_ARC)
    # t below is homogeneous of degree 0 in x: a power of two as large as lam
    # keeps <x,x> finite for every finite lam, without rounding
    x = np.ldexp(np.array([1.0, -lam, 0.0]), -math.frexp(max(1.0, lam))[1])
    cls = classify_ray(x)
    if cls.is_boundary:
        return link_of_type(SingularityType(SingKind.GRAVITON_POSITIVE))
    # t = 1 + c is a product, so t is accurate where c is close to -1:
    # arccos(1 - t) = 2 arcsin(sqrt(t/2)), arccosh(1 - t) = 2 arcsinh(sqrt(-t/2))
    t = dot12(x, x) * dot12(p1, p2) / (dot12(p1, x) * dot12(p2, x))
    if cls is HSPointClass.H2_PLUS:
        what, size = "deficit", 2.0 * math.asin(math.sqrt(t / 2.0))
    else:
        what, size = "tachyon mass", 4.0 * math.asinh(math.sqrt(-t / 2.0))
    if not size > LINK_RESOLUTION:
        raise GeometryError(
            f"wedge family at lambda={lam!r}: the {what} {size:.3e} is at or below "
            f"{LINK_RESOLUTION:.3e}, the resolution of the trace classifier"
        )
    if cls is HSPointClass.H2_PLUS:
        return link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=TWO_PI - size))
    return link_of_type(SingularityType(SingKind.TACHYON, mass=size))
