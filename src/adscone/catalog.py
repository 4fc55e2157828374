"""Constructions of standard surfaces, disks and link families.

Everything here produces data for the rest of the library: triangulated
hyperbolic cone surfaces (spheres from doubled triangles and tori from a
regular hyperbolic square around their cone point, both in closed form, and
more cone points by subdivision and a metric solve), the two-cone disks used
by collision surgery, and the one-parameter family of singular links
obtained by moving the apex of a wedge from the hyperbolic plane across the
boundary into the de Sitter plane.
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
from .linalg import HSPointClass, classify_ray, dot12
from .links import SingKind, SingularityType, link_of_type
from .rp1 import LinkCircle
from .tolerances import (
    DISK_CLOSING_ANGLE,
    DISK_FIT_STALL,
    DISK_FIT_STOP,
    METRIC_SOLVE_STOP,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# metric solving
# ---------------------------------------------------------------------------


def solve_metric(surface: ConeSurface, targets: dict[int, float]) -> ConeSurface:
    """Adjust edge lengths so prescribed vertices reach their target angles.

    Damped Gauss-Newton on log lengths with the closed-form Jacobian of the
    hyperbolic law of cosines (conesurf.angle_sum_jacobian); the system is
    usually underdetermined, and the minimum-norm step picks the point of
    the solution family that the seed leads to.  So the seed decides both
    which solution comes back and whether one is found:
    subdivide_face_with_cone builds its seed from the cone data it asks
    for.  Raises LinkRealizationError when the residual cannot be driven to
    zero from this seed ("stalled" when no damping rung lowers it).

    Each trial is evaluated on the length vector with the surface's own
    length checks and corner kernel on the corner tables of its
    triangulation (conesurf.checked_sides, corner_table,
    vertex_angle_totals), so a length vector fails here exactly when a
    ConeSurface with those lengths would; the accepted trial's side and
    corner tables give the next Jacobian (which divides by the trial's own
    sinh b sinh c), and one surface is built per solve.  A rejected trial
    may overflow (cosh of a long edge, say); numpy is told once per solve
    not to warn about it.

    The result is always a new surface, never the one passed in, so
    subdivide_face_with_cone may switch its angle check on in place
    (ConeSurface._switch_on_angle_check).  It shares the structure of the
    surface passed in and carries the corner table of its last accepted
    trial, so its angle sums, angle check and loop holonomies do not
    evaluate the law of cosines again.
    """
    if not targets:
        return surface.with_lengths(surface.lengths)  # nothing to solve
    verts = sorted(targets)
    goal = np.array([targets[v] for v in verts])
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
        return lengths, sides, corners, values

    x = np.log(np.asarray(surface.lengths, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        lengths, sides, corners, values = evaluate(x)
        eye = np.eye(len(x))
        lam = 1e-10
        r = values - goal
        for _ in range(200):
            if np.abs(r).max() < METRIC_SOLVE_STOP:
                break
            jac = angle_sum_jacobian(sides, corners, tables)[rows]
            # fixed for the whole damping ladder of this iteration
            normal, rhs, r_norm = jac.T @ jac, -jac.T @ r, math.sqrt(r.dot(r))
            improved = False
            for _ in range(40):
                try:
                    # a damped system that is singular to working precision
                    # fails its rung like a rejected trial
                    x_new = x + np.linalg.solve(normal + lam * eye, rhs)
                    trial = evaluate(x_new)
                    r_new = trial[3] - goal
                    if math.sqrt(r_new.dot(r_new)) < r_norm:
                        x = x_new
                        r = r_new
                        lengths, sides, corners, values = trial
                        lam = max(lam / 4.0, 1e-12)
                        improved = True
                        break
                except (GeometryError, np.linalg.LinAlgError):
                    pass
                lam = max(lam, 1e-8) * 8.0
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


# The torus complex: a square C1 C2 C3 C4 whose opposite sides are glued, so
# that its corners are one vertex, 0, with an inner triangle q1, q2, q3
# (vertices 1, 2, 3) coned off at the cone point p, vertex 4.  Edges a, b (the
# square's sides), k1..k7 (square corners to the triangle), r1..r3 (the rim
# q1 q2, q2 q3, q3 q1) and m1..m3 (p to q1, q2, q3), in that order, each from
# its first point to its second; faces 0..6 outside the triangle and 7..9
# inside it, the star of p.
_TORUS_EDGES = (
    ("C1", "C2"), ("C2", "C3"),
    ("C1", "q1"), ("C2", "q1"), ("C2", "q2"), ("C3", "q2"), ("C3", "q3"), ("C4", "q3"), ("C4", "q1"),
    ("q1", "q2"), ("q2", "q3"), ("q3", "q1"),
    ("p", "q1"), ("p", "q2"), ("p", "q3"),
)
_TORUS_VERTEX = {"C1": 0, "C2": 0, "C3": 0, "C4": 0, "q1": 1, "q2": 2, "q3": 3, "p": 4}
# each face as its sides (edge id, forward)
_TORUS_FACES = (
    ((0, True), (3, True), (2, False)),
    ((4, True), (9, False), (3, False)),
    ((1, True), (5, True), (4, False)),
    ((6, True), (10, False), (5, False)),
    ((0, False), (7, True), (6, False)),
    ((8, True), (11, False), (7, False)),
    ((1, False), (2, True), (8, False)),
    ((12, True), (9, True), (13, False)),
    ((13, True), (10, True), (14, False)),
    ((14, True), (11, True), (12, False)),
)
# Where the points sit on the cone of angle theta about p: the corners at
# distance R, the triangle at distance rho, each at a polar angle given in
# degrees of a full turn, which the cone scales by theta / 360.  The corners
# sit where a plane square's would; q1, q2, q3 are spaced evenly from 205
# degrees, so each of C2, C3, C4 lies in the sector of the rim edge its face
# (1, 3, 5) spans, which makes every face a positively oriented triangle for
# every rho below the square's inradius h.  The offset and the share of h
# decide how well conditioned subdivide_face_with_cone's solves on the torus
# are, and were chosen by measuring them: on the cone-surfaces benchmark
# inputs of seeds 1-10 none stalls, and seeds 1-3 take 1,901 linear solves.
# With q1 towards a corner (225 or 235 degrees), or at 0.55 h, some of those
# inputs stall; at 0.3-0.4 h, or from 260 degrees, they take more solves.
_TORUS_POLAR = {"C1": 225, "C2": 315, "C3": 45, "C4": 135, "q1": 205, "q2": 325, "q3": 85}
# rho as a share of h, when no rim length is asked for
_TORUS_RIM_SHARE = 0.45


@functools.cache
def _torus_template():
    """The torus complex with unit lengths (read-only: every torus shares
    its structure), and for each edge its ends' distances from p as a
    selector (0 for R, 1 for rho, 2 for p itself) and the angle between
    them at p, the short way round, as a share of theta."""
    edges = tuple((_TORUS_VERTEX[t], _TORUS_VERTEX[h]) for t, h in _TORUS_EDGES)
    faces = tuple(tuple(Side(e, fwd) for e, fwd in f) for f in _TORUS_FACES)
    template = ConeSurface(edges, faces, np.ones(len(edges)), check_angles=False)
    template.lengths.flags.writeable = False
    radius = {"C": 0, "q": 1, "p": 2}
    ends = np.array([[radius[t[0]], radius[h[0]]] for t, h in _TORUS_EDGES])
    turn = [abs(_TORUS_POLAR.get(t, 0) - _TORUS_POLAR.get(h, 0)) / 360.0 for t, h in _TORUS_EDGES]
    share = np.array([0.0 if "p" in e else min(u, 1.0 - u) for e, u in zip(_TORUS_EDGES, turn)])
    return template, ends, share


def torus_with_cone_point(
    theta: float, rim_length: float | None = None
) -> tuple[ConeSurface, DiskSpec]:
    """A hyperbolic torus with one cone point p of angle theta < 2 pi, with
    p inside an embedded 3-face disk (the star of the point), in closed
    form: no metric is solved.

    The torus is a regular hyperbolic square centred on p, its opposite
    sides glued.  Its four triangles (p, C_k, C_k+1) have angle theta / 4
    at p and pi / 4 at both corners, so the corners close up to one smooth
    vertex (4 x pi / 2 = 2 pi), the area is the Gauss-Bonnet area 2 pi -
    theta, and the centre-to-corner distance R and the inradius h are
        cosh R = cot(theta / 8),  cosh h = cos(pi / 4) / sin(theta / 8).
    The inner triangle q1 q2 q3 sits on the circle of radius rho about p,
    at angles theta / 3 apart (_TORUS_POLAR), and every edge length is the
    distance on the cone between its ends: for ends at distances r1, r2
    from p, an angle D apart the short way round (D <= theta / 2 < pi),
        sinh^2(l / 2) = sinh^2((r1 - r2) / 2) + sinh r1 sinh r2 sin^2(D / 2),
    the law of cosines cosh l = cosh r1 cosh r2 - sinh r1 sinh r2 cos D in
    a form that stays accurate for short edges.  The surface's own angle
    check certifies the result.

    rho is _TORUS_RIM_SHARE of h.  rim_length, when given, is the length of
    each of the three rim edges of the disk instead (collision surgery
    wants a roomy collar): sinh^2 rho = (cosh l - 1) / (1 - cos(theta / 3)).
    The triangle fits for every rho < h; a rim it cannot fit raises
    LinkRealizationError.  (Rims shorter than about 2e-3 fail the angle
    check on rounding in the law of cosines.)

    Returns the surface and the disk around the cone point.
    """
    if not 0 < theta < TWO_PI:
        raise GeometryError("torus cone angle must be in (0, 2 pi)")
    s8 = math.sin(theta / 8)
    # sinh^2(R / 2) = (cot(theta / 8) - 1) / 2, sinh^2(h / 2) = (cosh h - 1) / 2,
    # as products that stay accurate as theta -> 2 pi
    big_r = 2.0 * math.asinh(math.sqrt(math.sin(math.pi / 4 - theta / 8) / (math.sqrt(2.0) * s8)))
    h = 2.0 * math.asinh(
        math.sqrt(math.cos(math.pi / 8 + theta / 16) * math.sin(math.pi / 8 - theta / 16) / s8)
    )
    if rim_length is None:
        rho = _TORUS_RIM_SHARE * h
    else:
        if not 0 < rim_length < math.inf:
            raise GeometryError(f"rim_length must be positive and finite, got {rim_length!r}")
        rho = math.asinh(math.sinh(rim_length / 2) / math.sin(theta / 6))
        if not rho < h:
            raise LinkRealizationError(
                f"torus (theta={theta:.6g}) has no room for rim_length={rim_length:.6g}: "
                f"the rim's circumradius rho = {rho:.6g} must be below the square's "
                f"inradius h = {h:.6g}"
            )
    template, ends, share = _torus_template()
    r = np.array([big_r, rho, 0.0])[ends]
    sh = np.sinh(r)
    half = np.sinh(0.5 * (r[:, 0] - r[:, 1])) ** 2 + sh[:, 0] * sh[:, 1] * np.sin(0.5 * theta * share) ** 2
    surf = template.with_lengths(2.0 * np.arcsinh(np.sqrt(half)), {4: theta}, check_angles=True)
    return surf, DiskSpec(surf, frozenset(range(7, 10)))


# the apex angles fall like exp(-t); past this lift they are below ~1e-27,
# and the solver is left to make up the rest (sinh(spoke + t) stays finite)
_MAX_LIFT = 64.0


def _apex_sum(bases: list[tuple[float, float, float]], t: float) -> float:
    """The apex angles of _cone_over_face's three sub-triangles, summed, at
    lift t, from (spoke a, spoke b, numerator) per side."""
    return 2.0 * sum(
        math.asin(math.sqrt(min(n / (math.sinh(a + t) * math.sinh(b + t)), 1.0)))
        for a, b, n in bases
    )


def _cone_over_face(sides: list[float], theta: float) -> list[float]:
    """Spoke lengths from a new vertex inside the hyperbolic triangle with
    the given sides (side k from corner k to corner k+1) to its corners
    0, 1, 2, for a new cone angle theta.

    The vertex starts at the hyperbolic centroid, the normalized sum of the
    three corners on the hyperboloid: with C_k = cosh(side k),
        cosh(spoke k) = (1 + C_k + C_{k-1}) / sqrt(3 + 2 (C_0 + C_1 + C_2)),
    which splits the triangle without changing its metric (a smooth point,
    angle 2 pi).  For 0 < theta < 2 pi every spoke is then lifted by one
    common t >= 0 until the three apex angles sum to theta.  A lift keeps
    each difference of spokes, so every sub-triangle stays a triangle and
    its apex angle, from the half-angle form
        sin^2(apex k / 2) = sinh((l + dd)/2) sinh((l - dd)/2) / (sinh a sinh b)
    (base l = side k, spokes a, b to its ends, dd = a - b), falls
    monotonically with t.

    Doubling brackets t, a few Illinois steps narrow the bracket
    (_illinois), and bisection to adjacent doubles decides it: t is the
    upper end, the first double found at which the computed apex sum is at
    most theta.  Every narrowing step keeps the bracket's comparisons with
    theta, and the computed sum falls with t, so the narrowing changes how
    many apex sums are taken (about 13 instead of 56 on the cone-surfaces
    inputs), not t: the tests compare the spokes bit for bit with plain
    bisection from the doubling bracket."""
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
    apex_sum = functools.partial(_apex_sum, bases)
    # bracket the lift, apex_sum(lo) > theta >= apex_sum(hi), by doubling
    # (the centroid, t = 0, is a smooth point: its apex angles sum to 2 pi)
    lo, hi = 0.0, 1.0
    f_lo, f_hi = TWO_PI, apex_sum(hi)
    while f_hi > theta and hi < _MAX_LIFT:
        lo, hi = hi, 2.0 * hi
        f_lo, f_hi = f_hi, apex_sum(hi)
    if f_hi <= theta:
        lo, hi = _illinois(apex_sum, theta, lo, hi, f_lo, f_hi)
    # bisection to adjacent doubles decides the lift
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if apex_sum(mid) > theta:
            lo = mid
        else:
            hi = mid
    return [spoke + hi for spoke in spokes]


# at most this many narrowing steps per lift; the cone-surfaces inputs of
# seeds 1-10 take 6-16
_ILLINOIS_STEPS = 16


def _illinois(f, theta: float, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float]:
    """A narrower bracket lo < hi with f(lo) > theta >= f(hi), from one with
    f_lo > theta >= f_hi (f falling), by Illinois steps (modified regula
    falsi, Dowell and Jarratt 1971) on g = log(f / theta): the secant
    through the ends, whose g at an end kept twice in a row is halved.  The
    apex sums of _cone_over_face fall like exp(-t), so g is close to linear
    in t.  An estimate that lands on an end of the bracket is moved four
    ulps inside it, so that an end sitting on the root does not stall the
    other; the steps stop once that point is outside the bracket, or after
    _ILLINOIS_STEPS.  Each point goes to the end its comparison with theta
    says, so the bracket stays a bracket."""

    def gap(value: float) -> float:
        # log(value / theta), exactly 0 only where value == theta
        return math.log1p((value - theta) / theta) if value > 0 else -math.inf

    g_lo, g_hi = gap(f_lo), gap(f_hi)
    moved = 0  # the end the last step moved: +1 lo, -1 hi
    for _ in range(_ILLINOIS_STEPS):
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:
            step = 4.0 * math.ulp(hi)
            x = hi - step if x >= hi else lo + step
            if not lo < x < hi:
                break
        fx = f(x)
        if fx > theta:
            lo, g_lo = x, gap(fx)
            if moved > 0:
                g_hi *= 0.5
            moved = 1
        else:
            hi, g_hi = x, gap(fx)
            if moved < 0:
                g_lo *= 0.5
            moved = -1
    return lo, hi


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
    num = float(np.cos(eta1 / 2) * np.cos(eta2 / 2) - np.cos(theta / 2))
    den = float(np.sin(eta1 / 2) * np.sin(eta2 / 2))
    # a cone angle near 0 makes den tiny or 0: the float quotient is then inf,
    # where numpy's would warn
    c = num / den if den else math.inf
    if c == math.inf:
        raise LinkRealizationError(
            f"{what}: cosh d = {num:.6g} / {den:.6g} is beyond the float range"
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


# the chart points of the development are p1 (the first cone point, at the
# chart centre), q1, q2, p2 (the second cone point), q3 and q1' (the cut copy
# of q1); its eight distances are the sides of the triangles (p2, p1, q2) and
# (p2, q3, p1) from corner 0 on, then the rim edges q1 q2 and q3 q1'
_DISK_PAIRS = np.array([[3, 0], [0, 2], [3, 2], [3, 4], [4, 0], [0, 3], [1, 2], [4, 5]]).T


def _disk_development(eta1: float, d: float, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact cone development behind two_cone_disk_from_params, over the
    rows of P (B, 6): the nine edge lengths of the disk template by edge
    (9, B) and the realized second cone angle (B,).  Rows that leave the
    hyperbolic plane come out non-positive or non-finite."""
    x = np.exp(P.T)  # s1, s2, s3, e^u2, e^u3, beta2
    # distance r and chart angle a of each chart point: q1 at angle 0; q2, p2
    # and q3 at breakpoints eta1 * (w_q2, w_q2+w_p2, w_q2+w_p2+w_q3) with
    # weights in the ratio e^u2 : 1 : e^u3 : 1, keeping them ordered and
    # inside (0, eta1)
    r, a = np.zeros((2, 6, len(P)))
    r[1:3] = x[:2]
    r[3] = d
    r[4] = x[2]
    r[5] = x[0]
    w = a[2:5]
    w[::2] = x[3:5]
    w[1] = 1.0
    w /= x[3] + 1.0 + x[4] + 1.0
    w[1] += w[0]
    w[2] += w[1]
    w *= eta1
    a[5] = eta1
    # the points (3, 6, B) of H^2, then -<u, v> of each pair, floored just
    # above 1 so that coincident points get a tiny length: u0 v0 - u1 v1 -
    # u2 v2 is -dot12(u, v) bit for bit, as rounding commutes with negation,
    # and fmax gives the floor for NaN, as Python's max(floor, x) does
    pts = np.empty((3, 6, len(P)))
    sh = np.sinh(r)
    np.cosh(r, out=pts[0])
    np.multiply(sh, np.cos(a), out=pts[1])
    np.multiply(sh, np.sin(a), out=pts[2])
    ends = pts[:, _DISK_PAIRS]
    prod = ends[:, 0] * ends[:, 1]
    dist = np.arccosh(np.fmax(prod[0] - prod[1] - prod[2], 1.0 + 5e-16))
    # the angles at p2 of the triangles (p2, p1, q2) and (p2, q3, p1)
    sides = dist[:6].reshape(2, 3, -1).transpose(0, 2, 1)
    at_p2 = np.arccos(law_of_cosines(sides)[..., 0].clip(-1.0, 1.0))
    # beta2, the angle at p2 of the rim triangle (p2, q2, q3), is its own
    # parameter; the second cone angle is what it adds up to
    beta2 = x[5]
    eta2_realized = at_p2[0] + at_p2[1] + beta2
    ch, sh = np.cosh(dist[2:4]), np.sinh(dist[2:4])  # of |p2 q2| and |p2 q3|
    lengths = np.empty((9, len(P)))  # r1, r2, r3, s1, s2, |p2 q2|, d, |p2 q3|, s3
    lengths[0:3:2] = dist[6:]
    lengths[1] = np.arccosh(ch[0] * ch[1] - sh[0] * sh[1] * np.cos(beta2))
    lengths[5:8:2] = dist[2:4]
    lengths[[3, 4, 6, 8]] = r[1:5]
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
    disk = _disk_template().with_lengths(lengths[:, 0], {3: eta1, 4: eta2_realized})
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
    values = np.empty((len(P), 6))
    with np.errstate(all="ignore"):
        lengths, values[:, 5] = _disk_development(eta1, d, P)
        corners = corner_table(lengths, tables)
        angles = corners.angles.reshape(-1, len(P))
        ok = (
            positive_and_finite(lengths, axis=0)
            & ~long_sides(lengths[tables.sides]).any(axis=(0, 1))
            & ~corners.degenerate.reshape(-1, len(P))[at_rim].any(axis=0)
        )
    values[:, :3] = lengths[:3].T
    for col, at in ((3, at_q1), (4, at_q2)):  # added in ConeSurface.vertex_angle_sums order
        values[:, col] = functools.reduce(np.add, angles[at])
    return values, ok


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
    eye = np.eye(6)
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
        # both sides of each comparison below are norms of contiguous rows of
        # six, so an unchanged point never reads as an improvement
        now = np.linalg.norm(rr, axis=1)
        # rungs 0-1 of every seed, then rungs 2-34 of the seeds neither improved
        waiting = np.arange(len(rows))
        for ks in (slice(0, 2), slice(2, None)):
            lk = lams[waiting, ks]
            a = jtj[waiting, None] + lk[..., None, None] * eye
            steps = np.linalg.solve(a, rhs[waiting, None])[..., 0]
            trials = np.clip(pr[waiting, None, :] + steps, lo, hi)
            values, ok = _disk_collar(eta1, d, trials.reshape(-1, 6))
            r_trials = values.reshape(trials.shape) - goal
            norms = np.linalg.norm(r_trials, axis=-1)
            better = ok.reshape(len(waiting), -1) & (norms < now[waiting, None])
            took = better.any(axis=1)
            rung = np.argmax(better[took], axis=1)
            moved = rows[waiting[took]]
            p[moved] = trials[took, rung]
            r[moved] = r_trials[took, rung]
            lam[moved] = np.maximum(lk[took, rung] / 4.0, 1e-12)
            # a seed short of DISK_FIT_STOP stops where its step stalls
            before, after = now[waiting[took]], norms[took, rung]
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
    null; link_of_type refuses a deficit or mass too small for classify to
    read back.  lam <= -cos(0.55), where x is on the arc's side of the
    geodesic p1 p2 and the wedge is no longer convex, raises GeometryError.
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
        deficit = 2.0 * math.asin(math.sqrt(t / 2.0))
        return link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=TWO_PI - deficit))
    return link_of_type(SingularityType(SingKind.TACHYON, mass=4.0 * math.asinh(math.sqrt(-t / 2.0))))
