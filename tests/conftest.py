import json
import math
import os
from itertools import chain, count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import adscone
from adscone import catalog
from adscone.conesurf import (
    ConeSurface,
    DiskSpec,
    Side,
    _patch_rim,
    _Structure,
    _uses_of,
    angle_sum_jacobian,
    flip_edge,
    raise_degenerate,
    resolve_loop,
)
from adscone.errors import GeometryError, LinkRealizationError, NotHyperbolicError
from adscone.isom import IsomPair, Proj2, point_of_sl2, sl2_of_point, sylvester_rows
from adscone.linalg import cross, dot12, dot22, normalize_point, orthonormal_tangent_frame
from adscone.tolerances import (
    DEGENERATE_CORNER,
    DELAUNAY_MARGIN,
    DISK_FIT_STALL,
    DISK_FIT_STOP,
    ISOTROPIC_REL,
    METRIC_SOLVE_STOP,
    TRANSPORT_TANGENT,
    TRIANGLE_MARGIN,
)


# ---------------------------------------------------------------------------
# the spin isomorphism PSL(2,R) <-> SO0(1,2) and frame coordinates
#
# R^{1,2} is identified with symmetric 2x2 matrices via
#   X(v) = [[v0+v1, v2], [v2, v0-v1]],   det X = v0^2 - v1^2 - v2^2,
# on which g acts by X -> g X g^T.
# ---------------------------------------------------------------------------


def _sym_of_vec(v):
    return np.array([[v[0] + v[1], v[2]], [v[2], v[0] - v[1]]])


def _vec_of_sym(x):
    return np.array([(x[0, 0] + x[1, 1]) / 2.0, (x[0, 0] - x[1, 1]) / 2.0, x[0, 1]])


def _lorentz3_of_psl(g):
    """The SO0(1,2) matrix of g acting on R^{1,2}."""
    m = g.m
    cols = [_vec_of_sym(m @ _sym_of_vec(e) @ m.T) for e in np.eye(3)]
    return np.column_stack(cols)


def _psl_of_lorentz3(L):
    """Inverse of _lorentz3_of_psl, via polar decomposition: L e0 determines
    g g^T, and the rotation factor is then solved from L e1."""
    L = np.asarray(L, dtype=float)
    S = _sym_of_vec(L[:, 0])
    w, P = np.linalg.eigh(S)
    if np.any(w <= 0):
        raise ValueError("matrix does not preserve the future cone")
    shalf = P @ np.diag(np.sqrt(w)) @ P.T
    sinv = P @ np.diag(1.0 / np.sqrt(w)) @ P.T
    y = sinv @ _sym_of_vec(L[:, 1]) @ sinv
    beta = 0.5 * np.arctan2(y[0, 1], y[0, 0])
    r = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    g = Proj2(shalf @ r)
    if np.abs(_lorentz3_of_psl(g) - L).max() > 1e-6:
        raise ArithmeticError("Lorentz matrix is not in SO0(1,2) within tolerance")
    return g


def _frame_coordinates(x, frame, u):
    """Coordinates of a tangent vector at x in an orthonormal frame (t, f1, f2)."""
    t, f1, f2 = frame
    return np.array([-dot22(u, t), dot22(u, f1), dot22(u, f2)])


@pytest.fixture(scope="session")
def spin():
    """The spin isomorphism PSL(2,R) -> SO0(1,2) and its inverse, and
    coordinates in an orthonormal tangent frame: the frame round trip the
    RK4 and development oracles read their holonomies through."""
    return SimpleNamespace(
        lorentz3_of_psl=_lorentz3_of_psl,
        psl_of_lorentz3=_psl_of_lorentz3,
        frame_coordinates=_frame_coordinates,
    )


# ---------------------------------------------------------------------------
# the RK4 oracle for the flat connections and Levi-Civita
#
# D^l u = nabla u + u x x', D^r u = nabla u - u x x' and nabla u, integrated
# along every segment of a path.  Frames are moved by left/right translation in
# the oracle's own SL(2,R) chart
#   X(x) = [[x0+x3, x2+x1], [x2-x1, x0-x3]],
# not in the library's isom.sl2_of_point, so the oracle never reads the chart
# under test.
# ---------------------------------------------------------------------------


def _x_of_point(x):
    return np.array([[x[0] + x[3], x[2] + x[1]], [x[2] - x[1], x[0] - x[3]]])


def _point_of_x(X):
    return np.array(
        [
            (X[0, 0] + X[1, 1]) / 2.0,
            (X[0, 1] - X[1, 0]) / 2.0,
            (X[0, 1] + X[1, 0]) / 2.0,
            (X[0, 0] - X[1, 1]) / 2.0,
        ]
    )


def _on_quadric(p):
    """p scaled onto the quadric; GeometryError outside the timelike cone."""
    q = dot22(p, p)
    if q >= 0:
        raise GeometryError("transport evaluates a point outside the timelike cone")
    return p / np.sqrt(-q)


def _rk4_transport(path, u0, kind, substeps=1):
    """Left, right or Levi-Civita ('lc': no cross term) transport by
    fourth-order Runge-Kutta, substeps per segment, with re-projection onto
    the tangent space at every sample."""
    sign = {"left": -1.0, "right": 1.0, "lc": 0.0}[kind]
    path = np.asarray(path, dtype=float)
    u = np.asarray(u0, dtype=float).copy()
    if abs(dot22(u, path[0])) > TRANSPORT_TANGENT * max(1.0, float(np.dot(u, u))):
        raise GeometryError("initial vector must be tangent at the path start")
    h = 1.0 / substeps
    for a, b in zip(path[:-1], path[1:]):
        d = b - a

        def F(t, uu):
            p = a + t * d
            x = _on_quadric(p)
            nu = np.sqrt(-dot22(p, p))
            xdot = d / nu + p * (dot22(p, d) / nu ** 3)
            return dot22(uu, xdot) * x + sign * cross(x, uu, xdot)

        for j in range(substeps):
            t0 = j * h
            k1 = F(t0, u)
            k2 = F(t0 + h / 2, u + h / 2 * k1)
            k3 = F(t0 + h / 2, u + h / 2 * k2)
            k4 = F(t0 + h, u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        xb = _on_quadric(b)
        u = u + dot22(u, xb) * xb
    return u


@pytest.fixture(scope="session")
def rk4_transport():
    """Reference for lrmetrics.transport: the transport equations of the
    flat connections and of Levi-Civita integrated by RK4, raising
    GeometryError where a point it evaluates leaves the timelike cone or u0
    is not tangent."""
    return _rk4_transport


_E_BASE = np.array([1.0, 0.0, 0.0, 0.0])


def _frame_change(y, kind):
    """The class p that takes a holonomy h read in the frame
    orthonormal_tangent_frame(y) to p h p^-1, the same holonomy read in the
    frame orthonormal_tangent_frame(e) at e = (1, 0, 0, 0), with tangent
    vectors moved from y to e by left (kind 'left': U -> X(y)^-1 U) or
    right (U -> U X(y)^-1) translation."""
    xy_inv = np.linalg.inv(_x_of_point(normalize_point(y)))
    frame_e = orthonormal_tangent_frame(_E_BASE)
    cols = []
    for u in orthonormal_tangent_frame(y):
        U = _x_of_point(u)
        V = xy_inv @ U if kind == "left" else U @ xy_inv
        cols.append(_frame_coordinates(_E_BASE, frame_e, _point_of_x(V)))
    return _psl_of_lorentz3(np.column_stack(cols))


def _rk4_holonomy_pair(path, closing):
    y = path[0]
    frame = orthonormal_tangent_frame(y)
    sides = []
    for kind in ("left", "right"):
        cols = [_frame_coordinates(y, frame, closing @ _rk4_transport(path, u0, kind)) for u0 in frame]
        sides.append(_psl_of_lorentz3(np.column_stack(cols)).conjugate(_frame_change(y, kind)))
    return IsomPair(*sides)


@pytest.fixture(scope="session")
def rk4_holonomy_pair():
    """Reference for lrmetrics.holonomy_pair: the transports of the frame
    orthonormal_tangent_frame(path[0]) integrated by the RK4 oracle along
    every segment of the path, closed by the gluing, read in that frame
    through the spin isomorphism, and conjugated by the frame change that
    left or right translation makes to the frame at the identity
    (_frame_change, taken from the two frames alone).  Results are kept for
    the session, because several tests integrate the same meridians."""
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
    the parabolic and hyperbolic cases.

    The lift is evaluated from its matrix and offset alone: phi = k pi + r
    goes to k pi + s plus the oriented angle from g e1 to g (cos r, sin r),
    which is continuous across the seams r = 0, pi where the image of r
    taken mod pi is not."""
    a, b, c, d = h.g.m.ravel().tolist()
    phi = 0.0
    half = None
    for i in range(n):
        if i == n // 2:
            half = phi
        k = math.floor(phi / math.pi)
        r = phi - k * math.pi
        x, y = a * math.cos(r) + b * math.sin(r), c * math.cos(r) + d * math.sin(r)
        phi = k * math.pi + h.s + math.atan2(a * y - c * x, a * x + c * y)
    tau_n = phi / n
    tau_half = half / (n // 2)
    return float(2.0 * tau_n - tau_half)


@pytest.fixture(scope="session")
def translation_number_by_iteration():
    """Reference for isom.translation_number (k pi plus the rotation angle
    for an elliptic lift, k deck translations of the fixed-point lift
    otherwise): the orbit average of the lift itself."""
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


# ---------------------------------------------------------------------------
# the link dictionary by numerical linear algebra: the ambient matrix of a
# left/right pair, the static BTZ planes by SVD and tachyon slopes by least
# squares
# ---------------------------------------------------------------------------


def _matrix44_of_pair(pair):
    """The 4x4 ambient matrix of x -> g_l Z(x) g_r^{-1}."""
    gl, gr = pair.left.m, pair.right.inverse().m
    return np.column_stack([point_of_sl2(gl @ sl2_of_point(e) @ gr) for e in np.eye(4)])


@pytest.fixture(scope="session")
def matrix44_of_pair():
    """The ambient matrix of a left/right pair, which isom.factor_isometry
    factors back."""
    return _matrix44_of_pair


def _btz_planes_by_svd(g1, g2):
    """(fixed, dual): orthonormal bases (rows) of the 2-plane of R^{2,2} that
    a static BTZ pair (g1, g2) fixes, from the right singular vectors of the
    two smallest singular values of the intertwiner system g1 X = X g2, and
    of its orthogonal plane under <,>, from the null space of that plane's
    rows times the form."""
    _, _, vt = np.linalg.svd(sylvester_rows(g2.m, g1.m))
    fixed = np.array([point_of_sl2(v.reshape(2, 2)) for v in vt[2:]])
    _, _, vt4 = np.linalg.svd(fixed * [-1.0, -1.0, 1.0, 1.0])
    return np.linalg.qr(fixed.T)[0].T, vt4[2:]


@pytest.fixture(scope="session")
def btz_planes_by_svd():
    """Reference for spacetimes.btz_invariant_lines: the planes its two
    lines span, by two SVDs."""
    return _btz_planes_by_svd


def _tachyon_mass_by_lstsq(l1, d1, d2, l2):
    """links.tachyon_mass_from_planes as it read each slope off a
    least-squares solve in the null basis (l1, l2), refusals included: a
    squared residual above 1e-18 |d|^2 is off the plane, and a first
    coefficient below 1e-14 an infinite slope."""
    l1, d1, d2, l2 = (np.asarray(v, dtype=float) for v in (l1, d1, d2, l2))
    for iso in (l1, l2):
        if abs(dot12(iso, iso)) > ISOTROPIC_REL * np.dot(iso, iso):
            raise GeometryError("l1, l2 must be isotropic")
    for d in (d1, d2):
        if dot12(d, d) >= 0:
            raise GeometryError("d1, d2 must be timelike")
    basis = np.column_stack([l1, l2])

    def slope(v):
        coef, res, _, _ = np.linalg.lstsq(basis, v, rcond=None)
        if res.size and res[0] > 1e-18 * np.dot(v, v):
            raise GeometryError("rays are not coplanar")
        return np.inf if abs(coef[0]) < 1e-14 else coef[1] / coef[0]

    s1, s2 = slope(d1), slope(d2)
    if not (np.isfinite(s1) and np.isfinite(s2)) or s1 * s2 <= 0:
        raise GeometryError("timelike rays must be separated from the null rays")
    return float(np.log(max(s2 / s1, s1 / s2)))


@pytest.fixture(scope="session")
def tachyon_mass_by_lstsq():
    """Reference for links.tachyon_mass_from_planes."""
    return _tachyon_mass_by_lstsq


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
    (f1, i1), (f2, i2) = _uses_of(s._structure, e)
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
    uses = _uses_of(s._structure, e)
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


def _star_split_at_a_point(star):
    """The two-cone disk of a collision surgery, realized by the star of a
    cone point itself (a 3-face disk) split at the centroid of the face of
    its second rim step: catalog's two-cone template with rim vertex i on
    the tail of rim step i, p1 the cone point and p2 a smooth point, so its
    cone angles are (the star's own, 2 pi)."""
    s = star.surface
    rim = star.rim()
    (p1,) = star.interior_vertices()
    # the spoke to the tail of each rim step: the side arriving at it
    spokes = [float(s.lengths[s.faces[f][(i + 2) % 3].edge]) for f, i in rim]
    # p2 at the centroid of the face (q1, q2, p1) of rim step 1
    f, i = rim[1]
    to_p2 = catalog._cone_over_face([float(s.lengths[side.edge]) for side in s.faces[f]], 2 * math.pi)
    q1_p2, q2_p2, p1_p2 = (to_p2[(i + n) % 3] for n in range(3))
    rims = [float(s.lengths[s.faces[f][i].edge]) for f, i in rim]
    lengths = rims + [spokes[0], spokes[1], q1_p2, p1_p2, q2_p2, spokes[2]]
    return catalog._disk_template().with_lengths(lengths, {3: s.cone_angles[p1], 4: 2 * math.pi})


@pytest.fixture(scope="session")
def star_split_at_a_point():
    """A stand-in for catalog.fit_two_cone_disk whose disk is known: the
    surgery's before slice is then the host itself, split at one point."""
    return _star_split_at_a_point


def _developed_holonomy(s, loop):
    steps = resolve_loop(loop)
    f0 = f = steps[0][0]
    h = np.eye(2)
    for fi, si in steps:
        if fi != f:
            raise GeometryError("loop steps do not chain")
        f, developed = _develop_across(s, f, _place_face(s, f), si)
        h = h @ _psl_of_lorentz3(developed.T @ np.linalg.inv(_place_face(s, f).T)).m
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


def _surface_jacobian(s):
    """d(vertex angle sum) / d(log edge length) of a surface, (num_vertices,
    E): conesurf.angle_sum_jacobian on a corner table evaluated for it, as
    catalog.solve_metric takes it."""
    corners = s._evaluate_corners()
    raise_degenerate(corners.degenerate)
    return angle_sum_jacobian(s.lengths[s._tables.sides], corners, s._tables)


@pytest.fixture(scope="session")
def surface_jacobian():
    """The angle-sum Jacobian of a surface (_surface_jacobian)."""
    return _surface_jacobian


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


def _per_trial_solve_metric(surface, targets):
    """catalog.solve_metric with every trial wrapped in a ConeSurface, whose
    length checks decide which trials fail, and its corner angles, angle
    sums and Jacobian taken side by side (per_side_kernel), so that the
    values do not come from the corner tables under test."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _per_trial_solve(surface, targets)


def _per_trial_solve(surface, targets):
    verts = sorted(targets)
    goal = np.array([targets[v] for v in verts])
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
        return np.array([sums[v] for v in verts])

    def jacobian(s):
        sides = s.lengths[face_edges]
        return _per_side_angle_sum_jacobian(sides, angles_of(s), face_edges, corner_vertices, shape)[verts]

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
    """The (surface, targets) of every catalog.solve_metric call made while
    the test runs, in order."""
    calls = []
    solve = catalog.solve_metric

    def recorded(surface, targets):
        calls.append((surface, dict(targets)))
        return solve(surface, targets)

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


# ---------------------------------------------------------------------------
# the lift of catalog._cone_over_face by plain bisection
# ---------------------------------------------------------------------------


def _bisection_lift(sides, theta):
    """catalog._cone_over_face with its lift found by plain bisection from
    the doubling bracket, with no narrowing, on the same centroid spokes
    and apex sums."""
    ch = [math.cosh(length) for length in sides]
    norm = math.sqrt(3.0 + 2.0 * sum(ch))
    spokes = [math.acosh(max((1.0 + ch[k] + ch[k - 1]) / norm, 1.0)) for k in range(3)]
    if not 0 < theta < 2.0 * np.pi:
        return spokes
    bases = []
    for k in range(3):
        a, b = spokes[k], spokes[(k + 1) % 3]
        numerator = math.sinh((sides[k] + a - b) / 2) * math.sinh((sides[k] - a + b) / 2)
        bases.append((a, b, max(numerator, 0.0)))

    def apex_sum(t):
        return 2.0 * sum(
            math.asin(math.sqrt(min(n / (math.sinh(a + t) * math.sinh(b + t)), 1.0)))
            for a, b, n in bases
        )

    lo, hi = 0.0, 1.0
    while apex_sum(hi) > theta and hi < 64.0:
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


@pytest.fixture(scope="session")
def bisection_lift():
    """Reference for catalog._cone_over_face: the spokes of the lift by
    plain bisection."""
    return _bisection_lift


# ---------------------------------------------------------------------------
# disk data and vertex loops read face by face
# ---------------------------------------------------------------------------


def _walked_disk(surface, face_ids):
    """(chi, rim edges ascending, vertices off the rim) of a face set, walked
    over the surface's faces and sides (face_corners, neighbor_across), or
    the GeometryError of a face set that is not edge-connected; chi is
    returned whatever it is."""
    face_ids = frozenset(int(f) for f in face_ids)
    seen = {min(face_ids)}
    frontier = [min(face_ids)]
    while frontier:
        f = frontier.pop()
        for i in range(3):
            try:
                g, _ = surface.neighbor_across(f, i)
            except GeometryError:
                continue
            if g in face_ids and g not in seen:
                seen.add(g)
                frontier.append(g)
    if seen != face_ids:
        raise GeometryError("disk faces are not edge-connected")
    vertices = {v for f in face_ids for v in surface.face_corners(f)}
    edges = {side.edge for f in face_ids for side in surface.faces[f]}
    rim = set()
    for f in face_ids:
        for i, side in enumerate(surface.faces[f]):
            try:
                g, _ = surface.neighbor_across(f, i)
            except GeometryError:
                g = None
            if g not in face_ids:
                rim.add(side.edge)
    rim_vertices = {v for e in rim for v in surface.edges[e]}
    return len(vertices) - len(edges) + len(face_ids), tuple(sorted(rim)), frozenset(vertices - rim_vertices)


@pytest.fixture(scope="session")
def walked_disk():
    """Reference for the disk data of conesurf.DiskSpec, walked anew on
    every call."""
    return _walked_disk


def _scanned_vertex_loop(s, v, base_face=None):
    """conesurf.loop_around_vertex as it scanned face_corners for its start
    and stepped with neighbor_across; a base face that is no face id is
    refused by id, in neighbor_across's words."""
    if base_face is not None and base_face not in range(len(s.faces)):
        raise GeometryError(f"face id {base_face} is not a face of the surface (0..{len(s.faces) - 1})")
    start = None
    for fi in range(len(s.faces)):
        corners = s.face_corners(fi)
        if v in corners and (base_face is None or fi == base_face):
            start = (fi, corners.index(v))
            break
    if start is None:
        raise GeometryError(f"vertex {v} not found" + ("" if base_face is None else " in base face"))
    steps = []
    f, i = start
    while True:
        exit_side = (i + 2) % 3
        steps.append((f, exit_side))
        f, i = s.neighbor_across(f, exit_side)
        if (f, i) == start:
            break
        if len(steps) > 4 * len(s.faces):
            raise GeometryError("vertex link does not close up")
    return steps


@pytest.fixture(scope="session")
def scanned_vertex_loop():
    """Reference for conesurf.loop_around_vertex: the start corner found by
    scanning every face's corners."""
    return _scanned_vertex_loop


def _planless_splice_disk(disk, patch, lengths, cone_angles):
    """conesurf.splice_disk as it rebuilt the spliced edges, faces and id
    maps on every call, and interned them through the ConeSurface
    constructor."""
    host = disk.surface
    rim = [host.faces[f][i] for f, i in disk._disk.rim]
    k = _patch_rim(patch._structure)
    if k != len(rim):
        raise GeometryError(f"a patch with a rim of {k} edges does not fit a rim of {len(rim)}")
    faces_in = sorted(disk.face_ids)
    rim_edges = set(disk._disk.boundary_edges)
    edges_in = sorted({s.edge for f in faces_in for s in host.faces[f]} - rim_edges)
    new_edges = len(patch.edges) - k - len(edges_in)
    new_faces = len(patch.faces) - len(faces_in)
    if new_edges < 0 or new_faces < 0:
        raise GeometryError("the patch has fewer interior edges or faces than the disk")
    if len(lengths) != len(patch.edges) - k:
        raise GeometryError("need one length per interior edge of the patch")
    tails = [host.side_endpoints(side)[0] for side in rim]
    inside = sorted(disk._disk.interior_vertices)
    vertex = dict(zip(patch._structure.vertices, chain(tails, inside, count(host.num_vertices))))
    edge_ids = [*edges_in, *range(len(host.edges), len(host.edges) + new_edges)]
    face_ids = [*faces_in, *range(len(host.faces), len(host.faces) + new_faces)]
    edges = [*host.edges, *[None] * new_edges]
    all_lengths = [*host.lengths.tolist(), *[None] * new_edges]
    for e, (t, h), length in zip(edge_ids, patch.edges[k:], lengths):
        edges[e] = (vertex[t], vertex[h])
        all_lengths[e] = length
    sides = [
        rim[s.edge] if s.edge < k else Side(edge_ids[s.edge - k], s.forward)
        for s in chain(*patch.faces)
    ]
    faces = [*host.faces, *[None] * new_faces]
    for n, f in enumerate(face_ids):
        faces[f] = (sides[3 * n], sides[3 * n + 1], sides[3 * n + 2])
    cones = {v: a for v, a in host.cone_angles.items() if v not in disk._disk.interior_vertices}
    cones.update((vertex[v], a) for v, a in cone_angles.items())
    spliced = ConeSurface(tuple(edges), tuple(faces), all_lengths, cones, check_angles=False)
    return spliced, DiskSpec(spliced, frozenset(face_ids))


def _planless_flip_edge(s, e):
    """conesurf.flip_edge as it found the edge's faces, corners and sides,
    and built the flipped faces, on every call: the triangulation's checks
    (the edge in range, two distinct faces, the flipped faces validate),
    then the metric's."""
    if not 0 <= e < len(s.edges):
        raise GeometryError(f"edge id {e} is not an edge of the surface (0..{len(s.edges) - 1})")
    uses = _uses_of(s._structure, e)
    if len(uses) != 2:
        raise GeometryError("cannot flip a boundary edge")
    (f1, i1), (f2, i2) = uses
    if f1 == f2:
        raise GeometryError("cannot flip a self-glued edge")
    sides1, sides2 = s.faces[f1], s.faces[f2]
    a = sides1[(i1 + 1) % 3]
    b = sides1[(i1 + 2) % 3]
    c = sides2[(i2 + 1) % 3]
    d = sides2[(i2 + 2) % 3]
    far1 = s.face_corners(f1)[(i1 + 2) % 3]
    far2 = s.face_corners(f2)[(i2 + 2) % 3]
    edges = list(s.edges)
    edges[e] = (far1, far2)
    faces = list(s.faces)
    faces[f1] = (Side(e, True), d, a)
    faces[f2] = (Side(e, False), b, c)
    _Structure(tuple(edges), tuple(faces))
    tail = s.corner_angle(f1, i1) + s.corner_angle(f2, (i2 + 1) % 3)
    head = s.corner_angle(f1, (i1 + 1) % 3) + s.corner_angle(f2, i2)
    for corner, angle in ((i1, tail), ((i1 + 1) % 3, head)):
        if angle >= np.pi:
            raise GeometryError(
                f"cannot flip edge {e}: the quadrilateral is not convex at vertex "
                f"{s.face_corners(f1)[corner]}, where its corners sum to {angle:.6g} >= pi"
            )
    into = s.lengths[s.faces[f1][(i1 + 2) % 3].edge]
    out_of = s.lengths[s.faces[f2][(i2 + 1) % 3].edge]
    cosh_new = np.cosh(into) * np.cosh(out_of) - np.sinh(into) * np.sinh(out_of) * np.cos(tail)
    if not cosh_new > 1.0:
        raise NotHyperbolicError("flip would degenerate the quadrilateral")
    lengths = s.lengths.copy()
    lengths[e] = float(np.arccosh(cosh_new))
    return ConeSurface(tuple(edges), tuple(faces), lengths, s.cone_angles, s.check_angles)


def _planless_holonomy_of_loop(s, loop):
    """conesurf.holonomy_of_loop as it walked the loop on every call, then
    checked each face it reached, in order, for a degenerate corner."""
    steps = resolve_loop(loop)
    f0 = f = steps[0][0]
    for fi, si in steps:
        if fi != f:
            raise GeometryError("loop steps do not chain")
        f, _ = s.neighbor_across(f, si)
    if f != f0:
        raise GeometryError("loop does not return to its base face")
    table, degenerate = s._transition_table()
    faces, sides = zip(*steps)
    for f in faces:
        if degenerate[f]:
            raise NotHyperbolicError(f"degenerate corner at face {f}")
    factors = table[list(faces), list(sides)]
    h = factors[0]
    for t in factors[1:]:
        h = h @ t
    return Proj2(h)


@pytest.fixture(scope="session")
def planless():
    """References for the operations that conesurf plans once per
    structure: splice_disk, flip_edge and holonomy_of_loop as they were
    before (SimpleNamespace of the three)."""
    return SimpleNamespace(
        splice_disk=_planless_splice_disk,
        flip_edge=_planless_flip_edge,
        holonomy_of_loop=_planless_holonomy_of_loop,
    )


def _recursive_canonical_json(obj) -> str:
    """documents.canonical_json as it rendered every value through one
    isinstance chain."""

    def render(x):
        if isinstance(x, dict):
            items = sorted(x.items(), key=lambda kv: kv[0])
            return "{" + ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in items) + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ",".join(render(v) for v in x) + "]"
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            if not math.isfinite(x):
                raise ValueError(f"out of range float value {float(x)!r} is not JSON compliant")
            return format(float(x) + 0.0, ".17g")  # -0.0 + 0.0 == +0.0
        if x is None:
            return "null"
        return json.dumps(x)

    return render(obj)


@pytest.fixture(scope="session")
def recursive_canonical_json():
    """The reference renderer for documents.canonical_json."""
    return _recursive_canonical_json


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child interpreter that imports the same adscone
    as this process, also when pytest put src/ on sys.path itself
    (pythonpath in pyproject.toml)."""
    src = str(Path(adscone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
