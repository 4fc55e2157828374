"""Constructions of standard surfaces, disks and link families.

Everything here produces data for the rest of the library: triangulated
hyperbolic cone surfaces (spheres from doubled triangles, one-holed-square
tori with marked cone points), the two-cone disks used by collision surgery,
and the one-parameter family of singular links obtained by moving the apex
of a wedge from the hyperbolic plane across the boundary into the de Sitter
plane.
"""

from __future__ import annotations

import numpy as np

from .conesurf import ConeSurface, DiskSpec, Side, triangle_edge_from_angles
from .errors import GeometryError, LinkRealizationError
from .isom import Proj2, classify, fixed_point_lift
from .linalg import HSPointClass, classify_ray, dot12
from .rp1 import LinkCircle, RP1Circle, elliptic_link_circle, mark_timelike_arcs

PI = np.pi
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# metric solving
# ---------------------------------------------------------------------------


def solve_metric(
    surface: ConeSurface,
    targets: dict[int, float],
    free_edges: list[int] | None = None,
    length_targets: dict[int, float] | None = None,
    functional_targets: list | None = None,
    tol: float = 1e-12,
    max_iter: int = 200,
    continuation_steps: int = 1,
) -> ConeSurface:
    """Adjust edge lengths so prescribed vertices reach their target angles
    (and, optionally, prescribed edges reach target lengths, and arbitrary
    functionals of the metric reach target values).

    functional_targets is a list of (callable surface -> float, goal) pairs;
    holonomy traces of fixed loops are the intended use.

    Damped Gauss-Newton on log lengths with a finite-difference Jacobian; the
    system is usually underdetermined and the minimum-norm step keeps the
    result close to the seed metric.  With continuation_steps > 1 the goals
    are walked from the seed metric's own values to the requested ones, which
    keeps every intermediate problem feasible.  Raises LinkRealizationError
    when the residual cannot be driven to zero (the requested data has no
    hyperbolic realization near the seed).
    """
    if free_edges is None:
        free_edges = list(range(len(surface.edges)))
    free_edges = list(free_edges)
    length_targets = dict(length_targets or {})
    functional_targets = list(functional_targets or [])
    verts = sorted(targets)
    ledges = sorted(length_targets)
    goal = np.array(
        [targets[v] for v in verts]
        + [length_targets[e] for e in ledges]
        + [g for _, g in functional_targets]
    )

    def build(x) -> ConeSurface:
        lengths = surface.lengths.copy()
        lengths[free_edges] = np.exp(x)
        return ConeSurface(
            surface.edges, surface.faces, lengths, surface.cone_angles, check_angles=False
        )

    def values_of(x) -> np.ndarray:
        s = build(x)
        sums = s.vertex_angle_sums()
        return np.array(
            [sums[v] for v in verts]
            + [s.lengths[e] for e in ledges]
            + [fn(s) for fn, _ in functional_targets]
        )

    x = np.log(np.asarray(surface.lengths, dtype=float))[free_edges]
    start = values_of(x)
    stages = (
        np.linspace(0.0, 1.0, max(2, continuation_steps + 1))[1:]
        if continuation_steps > 1
        else [1.0]
    )

    for t in stages:
        stage_goal = (1 - t) * start + t * goal

        def residual(xx):
            return values_of(xx) - stage_goal

        lam = 1e-10
        r = residual(x)
        for _ in range(max_iter):
            if np.abs(r).max() < tol:
                break
            jac = np.empty((len(r), len(x)))
            h = 1e-7
            for j in range(len(x)):
                xp = x.copy()
                xp[j] += h
                try:
                    jac[:, j] = (residual(xp) - r) / h
                except GeometryError:
                    # probe crossed a triangle-inequality wall; go one-sided
                    try:
                        xp[j] = x[j] - h
                        jac[:, j] = (r - residual(xp)) / h
                    except GeometryError:
                        jac[:, j] = 0.0
            a = jac.T @ jac + lam * np.eye(len(x))
            step = np.linalg.solve(a, -jac.T @ r)
            improved = False
            for _ in range(40):
                try:
                    r_new = residual(x + step)
                    if np.linalg.norm(r_new) < np.linalg.norm(r):
                        x = x + step
                        r = r_new
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
    return build(x)


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
    surf = ConeSurface(surf.edges, surf.faces, surf.lengths, {p: theta})
    disk = DiskSpec(surf, frozenset(range(7, 10)))
    return surf, disk


def subdivide_face_with_cone(
    s: ConeSurface, face: int, theta: float
) -> tuple[ConeSurface, DiskSpec, int]:
    """Split a face barycentrically and make the new vertex a cone point of
    angle theta; re-solves the metric on the three new spokes only.

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
    surf = solve_metric(seed, targets)
    surf = ConeSurface(surf.edges, surf.faces, surf.lengths, cones)
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


def _disk_complex(rim, interior, eta1, eta2):
    edges = [
        (0, 1), (1, 2), (2, 0),        # rim r1, r2, r3
        (0, 3), (1, 3), (1, 4), (3, 4), (2, 4), (2, 3),  # a1..a6
    ]
    faces = (
        (Side(0), Side(4), Side(3, False)),
        (Side(5), Side(6, False), Side(4, False)),
        (Side(1), Side(7), Side(5, False)),
        (Side(8), Side(6), Side(7, False)),
        (Side(2), Side(3), Side(8, False)),
    )
    lengths = np.concatenate([np.asarray(rim, float), np.asarray(interior, float)])
    return ConeSurface(tuple(edges), faces, lengths, {3: eta1, 4: eta2}, check_angles=False)


def _hyp_dist(u, v):
    return float(np.arccosh(max(1.0 + 5e-16, -dot12(u, v))))


def _hyp_angle_at(v, a, b):
    ca, cb, cc = _hyp_dist(v, a), _hyp_dist(v, b), _hyp_dist(a, b)
    val = (np.cosh(ca) * np.cosh(cb) - np.cosh(cc)) / (np.sinh(ca) * np.sinh(cb))
    return float(np.arccos(np.clip(val, -1.0, 1.0)))


def two_cone_disk_from_params(
    eta1: float, eta2: float, d: float, params: np.ndarray
) -> ConeSurface:
    """An exact disk with cone angles (eta1, eta2) at distance d, developed
    in the cone chart of the first point.

    params = (log s1, log s2, log s3, u2, u3): spoke lengths to the three
    rim vertices, and the logits of the angular breakpoints of (q2, p2, q3)
    within the cone angle of the first point.  Cone angles are exact by
    construction; rim lengths and rim corner angles come out as functions of
    the parameters."""
    s1, s2, s3 = np.exp(params[:3])
    u2, u3 = params[3], params[4]
    # q1 at chart angle 0; q2, the second cone point, and q3 at increasing
    # angles: breakpoints at eta1 * (w1, w1+w2, w1+w2+w3) with weights from a
    # softmax-like map keeping them ordered and inside (0, eta1)
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
    ang_f1 = _hyp_angle_at(p2, p1, q2)
    ang_f3 = _hyp_angle_at(p2, q3, p1)
    explicit_beta = len(params) >= 6
    if explicit_beta:
        # beta2 is its own parameter; the realized second cone angle is
        # returned and the caller drives it to eta2 as a residual
        beta2 = float(np.exp(params[5]))
        eta2_realized = ang_f1 + ang_f3 + beta2
    else:
        beta2 = eta2 - ang_f1 - ang_f3
        eta2_realized = eta2
        if beta2 <= 1e-9:
            raise GeometryError("second cone angle too small for this configuration")
    leg2 = _hyp_dist(p2, q2)
    leg3 = _hyp_dist(p2, q3)
    r2 = float(
        np.arccosh(
            np.cosh(leg2) * np.cosh(leg3) - np.sinh(leg2) * np.sinh(leg3) * np.cos(beta2)
        )
    )
    q1_cut = from_p1(s1, eta1)  # the cut copy seen by the last face
    rim = [_hyp_dist(q1, q2), r2, _hyp_dist(q3, q1_cut)]
    interior = [s1, s2, leg2, d, leg3, s3]
    disk = _disk_complex(rim, interior, eta1, eta2_realized)
    if explicit_beta:
        return disk, float(eta2_realized)
    return disk


def _disk_rim_data(disk: ConeSurface):
    """(rim lengths, rim corner angle sums) of the standard disk complex."""
    sums = {0: 0.0, 1: 0.0, 2: 0.0}
    for f in range(len(disk.faces)):
        for i, v in enumerate(disk.face_corners(f)):
            if v in sums:
                sums[v] += disk.corner_angle(f, i)
    rims = [float(disk.lengths[0]), float(disk.lengths[1]), float(disk.lengths[2])]
    return rims, [sums[0], sums[1], sums[2]]


def fit_two_cone_disk(
    rim_lengths,
    rim_angles,
    eta1: float,
    eta2: float,
    theta: float,
    tol: float = 1e-11,
) -> ConeSurface:
    """The disk a collision surgery glues in: two cone points of angles
    (eta1, eta2) with rim lengths and rim corner angle sums matching the
    collar of the removed disk.

    The disk is parametrized by its exact cone development (cone angles hold
    by construction), and a damped Gauss-Newton drives the five collar values
    to their targets; the sixth is then automatic, because a collar that
    closes up around an elliptic holonomy of angle theta leaves exactly a
    five-parameter family.  Unrealizable data fails in collision_distance."""
    d = collision_distance(theta, eta1, eta2)
    goal = np.array(
        [rim_lengths[0], rim_lengths[1], rim_lengths[2],
         rim_angles[0], rim_angles[1], eta2]
    )

    def values(p):
        disk, eta2_real = two_cone_disk_from_params(eta1, eta2, d, p)
        rims, betas = _disk_rim_data(disk)
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
            if np.abs(r).max() < tol:
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
            improved = False
            for _ in range(35):
                a = jac.T @ jac + lam * np.eye(6)
                step = np.linalg.solve(a, -jac.T @ r)
                try:
                    p_new = np.clip(p + step, lo, hi)
                    r_new = values(p_new) - goal
                    if np.linalg.norm(r_new) < np.linalg.norm(r):
                        p = p_new
                        r = r_new
                        lam = max(lam / 4.0, 1e-12)
                        improved = True
                        break
                except GeometryError:
                    pass
                lam = max(lam, 1e-8) * 8.0
            if not improved:
                ok = False
                break
        else:
            ok = False
        if ok and np.abs(r).max() < tol:
            disk, _ = two_cone_disk_from_params(eta1, eta2, d, p)
            rims, betas = _disk_rim_data(disk)
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
    return v / n if n > 1e-13 else v


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
        if abs(dot12(w, w)) > 1e-10:
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
    """The SO0(1,2) element fixing the ray x and mapping ray v1 to ray v2."""
    q = dot12(x, x)
    if abs(q) > 1e-12:
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
            if np.any(np.abs(u1) < 1e-13) or np.any(np.abs(u2) < 1e-13):
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
    # null basepoint: null rotations fixing x pointwise on the ray
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
    if abs(f1 - f0) < 1e-15:
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
        if dot12(w, w) > 1e-9:
            return w / np.sqrt(dot12(w, w))
    raise GeometryError("no spacelike complement found")


def _mod_null_coords(x, u, y):
    """Coordinates of y in R^{1,2} / <x> in the basis (u, z)."""
    z = np.array([1.0, 0.0, 0.0])
    B = np.column_stack([x, u, z])
    if abs(np.linalg.det(B)) < 1e-10:
        z = np.array([0.0, 1.0, 0.0])
        B = np.column_stack([x, u, z])
    c = np.linalg.solve(B, y)
    return c[1:]


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
    cls = classify_ray(x)
    v1 = _ray_direction(x, p1) if abs(dot12(x, x)) > 1e-12 else p1
    v2 = _ray_direction(x, p2) if abs(dot12(x, x)) > 1e-12 else p2
    # the deck of the counterclockwise developing of the kept region is the
    # gluing that carries the second wedge side back onto the first
    M = _stabilizer_map(x, v2, v1)

    if cls is HSPointClass.H2_PLUS:
        theta = _kept_ray_angle(x, p1, p2, arc)
        return mark_timelike_arcs(elliptic_link_circle(theta), cls)

    if cls.is_boundary:
        g = _boundary_pencil_action(M, x)
        lift = fixed_point_lift(g).shifted(2)
        return mark_timelike_arcs(RP1Circle(lift), cls)

    g = _pencil_action(M, x)
    lift = fixed_point_lift(g).shifted(2)
    anchor = _future_anchor_angle(x, M)
    return mark_timelike_arcs(RP1Circle(lift), cls, {"future_anchor": anchor})


def _boundary_pencil_action(M: np.ndarray, x: np.ndarray) -> Proj2:
    """Pencil action at a null basepoint, in a basis of R^{1,2}/<x> chosen to
    match the orientation of the nearby non-null pencil charts."""
    u = _spacelike_complement(x)
    z = np.array([1.0, 0.0, 0.0])
    B = np.column_stack([x, u, z])
    if abs(np.linalg.det(B)) < 1e-10:
        z = np.array([0.0, 1.0, 0.0])
        B = np.column_stack([x, u, z])
    if np.linalg.det(B) < 0:
        u = -u
        B = np.column_stack([x, u, z])
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
        if abs(w[i].imag) < 1e-9 and abs(w[i].real - 1.0) > 1e-9:
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
