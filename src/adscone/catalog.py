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
    corner_table,
    law_of_cosines,
    long_sides,
    positive_and_finite,
    raise_degenerate,
    triangle_edge_from_angles,
    vertex_angle_totals,
)
from .errors import GeometryError, LinkRealizationError
from .isom import Proj2, fixed_point_lift
from .linalg import HSPointClass, classify_ray, dot12
from .rp1 import LinkCircle, RP1Circle, elliptic_link_circle, mark_timelike_arcs
from .tolerances import BASIS_DET, DISK_CLOSING_ANGLE, DISK_FIT_STOP, METRIC_SOLVE_STOP
from .tolerances import NULL_COORDINATE, NULL_EIGENVALUE, NULL_ROTATION_SECANT, RAY_SHORT
from .tolerances import SPACELIKE_COMPLEMENT, TANGENT_BASIS_DEPENDENT

PI = np.pi
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
    usually underdetermined and the minimum-norm step keeps the result close
    to the seed metric.  With continuation_steps > 1 the goals are walked
    from the seed metric's own values to the requested ones, which keeps
    every intermediate problem feasible.  Raises LinkRealizationError when
    the residual cannot be driven to zero (the requested data has no
    hyperbolic realization near the seed).

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
    (ConeSurface._switch_on_angle_check).
    """
    length_targets = dict(length_targets or {})
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
    return surface.with_lengths(lengths)


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


def _square_torus_complex(inner: list[tuple[float, float]]):
    """Combinatorics and plane seed coordinates of the one-holed square torus
    with an inner triangle (q1, q2, q3); corners C1..C4 all map to vertex 0."""
    q1, q2, q3 = inner
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    coords = {"C1": corners[0], "C2": corners[1], "C3": corners[2], "C4": corners[3],
              "q1": q1, "q2": q2, "q3": q3}
    # vertex ids: 0 = square corner, 1..3 = rim
    vid = {"C1": 0, "C2": 0, "C3": 0, "C4": 0, "q1": 1, "q2": 2, "q3": 3}
    edge_names = [
        ("a", "C1", "C2"), ("b", "C2", "C3"),
        ("k1", "C1", "q1"), ("k2", "C2", "q1"), ("k3", "C2", "q2"),
        ("k4", "C3", "q2"), ("k5", "C3", "q3"), ("k6", "C4", "q3"), ("k7", "C4", "q1"),
        ("r1", "q1", "q2"), ("r2", "q2", "q3"), ("r3", "q3", "q1"),
    ]
    eid = {name: i for i, (name, _, _) in enumerate(edge_names)}
    edges = [(vid[t], vid[h]) for _, t, h in edge_names]
    plane = {name: (coords[t], coords[h]) for name, t, h in edge_names}

    def S(name, fwd=True):
        return Side(eid[name], fwd)

    outer_faces = [
        (S("a"), S("k2"), S("k1", False)),
        (S("k3"), S("r1", False), S("k2", False)),
        (S("b"), S("k4"), S("k3", False)),
        (S("k5"), S("r2", False), S("k4", False)),
        (S("a", False), S("k6"), S("k5", False)),
        (S("k7"), S("r3", False), S("k6", False)),
        (S("b", False), S("k1"), S("k7", False)),
    ]
    lengths = np.array([np.hypot(p[0] - q[0], p[1] - q[1]) for p, q in plane.values()])
    return eid, edges, outer_faces, lengths, coords


def torus_with_cone_point(
    theta: float, scale: float = 0.95, rim_length: float | None = None
) -> tuple[ConeSurface, DiskSpec]:
    """A hyperbolic torus with one cone point of angle theta < 2 pi, with the
    cone point inside an embedded 3-face disk (the star of the point).

    rim_length, when given, prescribes the length of each of the three rim
    edges of that disk (collision surgery wants a roomy collar).
    Returns the surface and the disk around the cone point.
    """
    if not 0 < theta < TWO_PI:
        raise GeometryError("torus cone angle must be in (0, 2 pi)")
    if rim_length is None:
        inner = [(0.5, 0.28), (0.72, 0.6), (0.34, 0.66)]
    else:
        # seed with a roomy inner triangle when a long collar is requested
        inner = [(0.5, 0.12), (0.88, 0.62), (0.18, 0.82)]
    eid, edges, outer_faces, lengths, coords = _square_torus_complex(inner)
    p = 4
    centroid = np.mean(np.array(inner), axis=0)
    medges = [("m1", 1), ("m2", 2), ("m3", 3)]
    all_edges = list(edges)
    all_lengths = list(lengths)
    m_ids = {}
    for name, q in medges:
        m_ids[name] = len(all_edges)
        all_edges.append((p, q))
        all_lengths.append(float(np.hypot(*(centroid - np.array(inner[q - 1])))))
    r1, r2, r3 = eid["r1"], eid["r2"], eid["r3"]
    disk_faces = [
        (Side(m_ids["m1"]), Side(r1), Side(m_ids["m2"], False)),
        (Side(m_ids["m2"]), Side(r2), Side(m_ids["m3"], False)),
        (Side(m_ids["m3"]), Side(r3), Side(m_ids["m1"], False)),
    ]
    faces = tuple(outer_faces + disk_faces)
    seed = ConeSurface(
        tuple(all_edges),
        faces,
        scale * np.asarray(all_lengths),
        {p: theta},
        check_angles=False,
    )
    targets = {0: TWO_PI, 1: TWO_PI, 2: TWO_PI, 3: TWO_PI, p: theta}
    surf = solve_metric(seed, targets)
    if rim_length is not None:
        lt = {r1: rim_length, r2: rim_length, r3: rim_length}
        surf = solve_metric(surf, targets, length_targets=lt, continuation_steps=64)
    surf = surf._switch_on_angle_check()
    disk = DiskSpec(surf, frozenset(range(7, 10)))
    return surf, disk


def subdivide_face_with_cone(
    s: ConeSurface, face: int, theta: float
) -> tuple[ConeSurface, DiskSpec, int]:
    """Split a face barycentrically and make the new vertex a cone point of
    angle theta, then re-solve the metric of the whole surface (every edge
    length is free; the minimum-norm step stays near the old metric).

    Returns (surface, disk around the new point, new vertex id)."""
    corners = s.face_corners(face)
    if len(set(corners)) != 3:
        raise GeometryError("subdivision needs a face with three distinct corners")
    new_v = max(s.vertices) + 1
    edges = list(s.edges)
    lengths = list(s.lengths)
    spoke = {}
    for v in corners:
        spoke[v] = len(edges)
        edges.append((new_v, v))
        lengths.append(max(float(np.max(s.lengths)), 0.5))
    old_sides = s.faces[face]
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
    batched development, solves the whole damping ladder (lam, then
    max(lam, 1e-8) * 8^k) of every seed at once, and evaluates all trial
    points together; a seed takes its first rung that lowers its residual
    norm and stops when none does.  A seed converges when its largest
    residual is below DISK_FIT_STOP before one of its 400 steps (reaching
    it only on the last step does not count).  The lowest-index converged seed wins,
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
        lams = np.maximum(lam[rows], 1e-8)[:, None] * rungs
        lams[:, 0] = lam[rows]
        a = (jt @ jac)[:, None] + lams[..., None, None] * np.eye(6)
        steps = np.linalg.solve(a, -(jt @ rr[..., None])[:, None])[..., 0]
        trials = np.clip(pr[:, None, :] + steps, lo, hi)
        values, ok = _disk_collar(eta1, d, trials.reshape(-1, 6))
        r_trials = values.reshape(trials.shape) - goal
        # both sides of the comparison from one norm evaluation, so an
        # unchanged point never reads as an improvement
        norms = np.linalg.norm(np.concatenate([rr[:, None], r_trials], axis=1), axis=-1)
        better = ok.reshape(len(rows), -1) & (norms[:, 1:] < norms[:, :1])
        took = better.any(axis=1)
        rung = np.argmax(better, axis=1)
        running[rows[~took]] = False
        rows, rung = rows[took], rung[took]
        p[rows] = trials[took, rung]
        r[rows] = r_trials[took, rung]
        lam[rows] = np.maximum(lams[took, rung] / 4.0, 1e-12)
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
#
# Remove the wedge of rays from x subtending a fixed arc of the boundary
# circle and reglue.  Moving x from inside the hyperbolic disk across the
# boundary into the de Sitter band deforms a massive particle through a
# graviton into a tachyon.  All link charts below use the tangent basis
# (b1, b2) at x with det[xhat, b1, b2] > 0, so the lifted pencil coordinate
# increases counterclockwise and one fixed convention serves the whole
# family.


def _ray_direction(x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Tangent vector at the ray x pointing at the ray target (non-null x)."""
    q = dot12(x, x)
    v = target - (dot12(target, x) / q) * x
    n = np.sqrt(abs(dot12(v, v)))
    return v / n if n > RAY_SHORT else v


def _oriented_tangent_basis(x):
    """Basis (b1, b2) of the tangent plane at a non-null ray x, unit up to
    sign, ordered so that det[x/|x|, b1, b2] > 0; for de Sitter basepoints
    b1 is the future-pointing timelike direction."""
    xq = dot12(x, x)
    xhat = x / np.sqrt(abs(xq))
    basis = []
    for e in np.eye(3):
        w = e - (dot12(e, xhat) / dot12(xhat, xhat)) * xhat
        for b in basis:
            w = w - (dot12(w, b) / dot12(b, b)) * b
        if abs(dot12(w, w)) > TANGENT_BASIS_DEPENDENT:
            basis.append(w / np.sqrt(abs(dot12(w, w))))
        if len(basis) == 2:
            break
    b1, b2 = basis
    if xq > 0:
        if dot12(b1, b1) > 0:
            b1, b2 = b2, b1
        if b1[0] < 0:
            b1 = -b1
    if np.linalg.det(np.column_stack([xhat, b1, b2])) < 0:
        b2 = -b2
    return b1, b2


def _tangent_coords(x, v):
    b1, b2 = _oriented_tangent_basis(x)
    s1, s2 = dot12(b1, b1), dot12(b2, b2)
    return np.array([dot12(v, b1) / s1, dot12(v, b2) / s2])


def _pencil_action(M: np.ndarray, x: np.ndarray) -> Proj2:
    """Projective action of M on the pencil of lines through the non-null
    ray x, written in the oriented tangent basis."""
    b1, b2 = _oriented_tangent_basis(x)
    c1 = _tangent_coords(x, M @ b1)
    c2 = _tangent_coords(x, M @ b2)
    m = np.column_stack([c1, c2])
    if np.linalg.det(m) <= 0:
        raise GeometryError("stabilizer element reverses the pencil orientation")
    return Proj2(m)


def _stabilizer_map(x: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The SO0(1,2) element fixing the non-null ray x and mapping ray v1 to
    ray v2: a rotation about a timelike x, a boost about a spacelike one."""
    q = dot12(x, x)
    xhat = x / np.sqrt(abs(q))
    b1, b2 = _oriented_tangent_basis(x)
    c1, c2 = _tangent_coords(x, v1), _tangent_coords(x, v2)
    if q < 0:
        a1 = np.arctan2(c1[1], c1[0])
        a2 = np.arctan2(c2[1], c2[0])
        t = a2 - a1
        r2 = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    else:
        # Lorentzian tangent plane, b1 timelike: boost in the null basis
        A = np.column_stack([[1.0, 1.0], [1.0, -1.0]])
        u1 = np.linalg.solve(A, c1)
        u2 = np.linalg.solve(A, c2)
        if np.any(np.abs(u1) < NULL_COORDINATE) or np.any(np.abs(u2) < NULL_COORDINATE):
            raise GeometryError("a requested ray is lightlike at x")
        ratio = (u2[0] / u1[0]) / (u2[1] / u1[1])
        if ratio <= 0:
            raise GeometryError("directions are not in a common boost sector")
        rho = 0.5 * np.log(ratio)
        r2 = A @ np.diag([np.exp(rho), np.exp(-rho)]) @ np.linalg.inv(A)
    B = np.column_stack([xhat, b1, b2])
    blk = np.zeros((3, 3))
    blk[0, 0] = 1.0
    blk[1:, 1:] = r2
    return B @ blk @ np.linalg.inv(B)


def _null_rotation(x: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The null rotation fixing the null ray x pointwise and mapping ray v1
    to ray v2 (modulo x)."""
    u = _spacelike_complement(x)

    def null_rot(s):
        def act(y):
            return (
                y
                + s * dot12(y, x) * u
                - s * dot12(y, u) * x
                - (s * s / 2.0) * dot12(y, x) * x
            )

        return np.column_stack([act(e) for e in np.eye(3)])

    v1m, v2m = _mod_null_coords(x, u, v1), _mod_null_coords(x, u, v2)

    def mismatch(s):
        w = _mod_null_coords(x, u, null_rot(s) @ v1)
        return w[0] * v2m[1] - w[1] * v2m[0]

    f0, f1 = mismatch(0.0), mismatch(1.0)
    if abs(f1 - f0) < NULL_ROTATION_SECANT:
        raise GeometryError("degenerate null-rotation solve")
    s_star = -f0 / (f1 - f0)
    M = null_rot(s_star)
    w = _mod_null_coords(x, u, M @ v1)
    if w @ v2m <= 0:
        raise GeometryError("null rotation reverses the requested ray")
    return M


def _spacelike_complement(x: np.ndarray) -> np.ndarray:
    """A unit spacelike vector orthogonal to the null vector x."""
    A = np.array([[-x[0], x[1], x[2]]])  # kernel of <., x>
    _, _, vt = np.linalg.svd(A)
    for w in (vt[1], vt[2]):
        if dot12(w, w) > SPACELIKE_COMPLEMENT:
            return w / np.sqrt(dot12(w, w))
    raise GeometryError("no spacelike complement found")


def _null_basis(x, u) -> np.ndarray:
    """The basis (x, u, z) of R^{1,2} as columns, z = e0 unless that is
    degenerate, e1 then."""
    B = np.column_stack([x, u, [1.0, 0.0, 0.0]])
    if abs(np.linalg.det(B)) < BASIS_DET:
        B = np.column_stack([x, u, [0.0, 1.0, 0.0]])
    return B


def _mod_null_coords(x, u, y):
    """Coordinates of y in R^{1,2} / <x> in the basis (u, z) of _null_basis."""
    return np.linalg.solve(_null_basis(x, u), y)[1:]


def boundary_hit_angle(x, v) -> float | None:
    """Polar angle on the future boundary circle hit by the ray from the
    timelike point x in tangent direction v, None if the ray misses."""
    q = dot12(x, x)
    vv = dot12(v, v)
    if vv <= 0:
        return None
    t = np.sqrt(-q / vv)
    n = x + t * v
    if n[0] <= 0:
        return None
    return float(np.arctan2(n[2], n[1]))


def _kept_ray_angle(x, p1, p2, arc) -> float:
    """Angle at the timelike point x of the rays missing the open arc."""
    v1, v2 = _ray_direction(x, p1), _ray_direction(x, p2)
    c1, c2 = _tangent_coords(x, v1), _tangent_coords(x, v2)
    a1 = np.arctan2(c1[1], c1[0])
    a2 = np.arctan2(c2[1], c2[0])
    gap_12 = (a2 - a1) % TWO_PI
    # decide which side subtends the arc by shooting the midpoint ray
    mid = a1 + gap_12 / 2.0
    b1, b2 = _oriented_tangent_basis(x)
    w = np.cos(mid) * b1 + np.sin(mid) * b2
    hit = boundary_hit_angle(x, w)
    lo, hi = arc
    hits_arc = hit is not None and lo < hit < hi
    wedge = gap_12 if hits_arc else TWO_PI - gap_12
    return float(TWO_PI - wedge)


def wedge_family_link(lam: float, arc=(-0.55, 0.55)) -> LinkCircle:
    """Link of the singularity made by removing the wedge of rays from
    x(lam) = (1, lam, 0) subtending the boundary arc (angles on the future
    null circle) and regluing.

    For lam < 1 the result is a massive particle of positive mass, at
    lam = 1 a positive graviton, and for lam > 1 a tachyon of positive mass.
    """
    b1, b2 = arc
    if not b1 < 0 < b2:
        raise GeometryError("the arc must straddle angle 0, opposite the path of x")
    p1 = np.array([1.0, np.cos(b1), np.sin(b1)])
    p2 = np.array([1.0, np.cos(b2), np.sin(b2)])
    x = np.array([1.0, -lam, 0.0])
    # classify_ray alone decides whether the apex is null; below, the deck
    # of the counterclockwise developing of the kept region is the gluing
    # that carries the second wedge side back onto the first
    cls = classify_ray(x)
    if cls is HSPointClass.H2_PLUS:
        theta = _kept_ray_angle(x, p1, p2, arc)
        return mark_timelike_arcs(elliptic_link_circle(theta), cls)

    if cls.is_boundary:
        # the sides of a wedge at a null apex are the rays to p1 and p2
        M = _null_rotation(x, p2, p1)
        g = _boundary_pencil_action(M, x)
        lift = fixed_point_lift(g).shifted(2)
        return mark_timelike_arcs(RP1Circle(lift), cls)

    M = _stabilizer_map(x, _ray_direction(x, p2), _ray_direction(x, p1))
    g = _pencil_action(M, x)
    lift = fixed_point_lift(g).shifted(2)
    anchor = _future_anchor_angle(x, M)
    return mark_timelike_arcs(RP1Circle(lift), cls, {"future_anchor": anchor})


def _boundary_pencil_action(M: np.ndarray, x: np.ndarray) -> Proj2:
    """Pencil action at a null basepoint, in a basis of R^{1,2}/<x> chosen to
    match the orientation of the nearby non-null pencil charts."""
    B = _null_basis(x, _spacelike_complement(x))
    if np.linalg.det(B) < 0:
        B[:, 1] = -B[:, 1]
    full = np.linalg.inv(B) @ M @ B
    m = full[1:, 1:]
    if np.linalg.det(m) <= 0:
        raise GeometryError("boundary pencil action is orientation-reversing")
    return Proj2(m)


def _future_anchor_angle(x, M) -> float:
    """Pencil angle (in the oriented tangent chart at the de Sitter point x)
    of the fixed line that starts a future timelike component."""
    w, vecs = np.linalg.eig(M)
    nulls = []
    for i in range(3):
        if abs(w[i].imag) < NULL_EIGENVALUE and abs(w[i].real - 1.0) > NULL_EIGENVALUE:
            d = vecs[:, i].real
            nulls.append(d if d[0] > 0 else -d)  # future-pointing null rays
    if len(nulls) != 2:
        raise GeometryError("stabilizer should have two null eigen-directions")
    cs = [_tangent_coords(x, d) for d in nulls]
    angs = [np.arctan2(c[1], c[0]) % TWO_PI for c in cs]
    # future sector = counterclockwise from one future null ray to the other
    # across the future timelike cone; its start is the anchor
    i, j = (0, 1) if (angs[1] - angs[0]) % TWO_PI < PI else (1, 0)
    mid = angs[i] + ((angs[j] - angs[i]) % TWO_PI) / 2.0
    b1, b2 = _oriented_tangent_basis(x)
    vmid = np.cos(mid) * b1 + np.sin(mid) * b2
    if not (dot12(vmid, vmid) < 0 and vmid[0] > 0):
        i, j = j, i
    return float(angs[i] % PI)
