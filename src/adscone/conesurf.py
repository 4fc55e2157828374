"""Hyperbolic surfaces with cone points, as geodesic triangulations.

A surface is a list of oriented triangles glued along edges.  Multi-edges and
self-loop edges are allowed (one-vertex torus triangulations need both), so
faces are described by sides (edge id, direction) rather than vertex pairs.
Edge lengths determine the corner angles by the hyperbolic law of cosines;
cone points are vertices whose total angle is prescribed to something other
than 2*pi.

Loop holonomies are products of closed-form PSL(2,R) transitions, one per
glued side, read off the edge lengths and corner angles; developing maps in
the hyperboloid model of H^2 inside R^{1,2} place faces for edge flips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, NotHyperbolicError
from .isom import Proj2
from .linalg import cross12, dot12
from .tolerances import ANGLE_MATCH, DEGENERATE_CORNER, DELAUNAY_MARGIN, DISK_ISOMETRY
from .tolerances import GAUSS_BONNET_CROSS_CHECK, TRIANGLE_MARGIN

PI = np.pi
TWO_PI = 2.0 * np.pi

# corner i of a face lies between its sides i and i+2 (= i-1) and faces side i+1
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
# [w, i]: side i + w of a face, w = 0, 1, 2 for the side leaving corner i,
# the side facing it and the side arriving at it
_AROUND = np.array([[0, 1, 2], _NEXT, _PREV])
# [i, k]: the corner whose cosine d angle(i) / d side(k) takes, the corner
# where side k meets side i+1 (i+1 for k = i, k for k = i+2), or -1 for the
# facing side k = i+1
_COSINE_AT = np.array([[1, -1, 2], [0, 2, -1], [-1, 1, 0]])

# what a surface shares with every other metric on its triangulation
_COMBINATORICS = ("edges", "faces", "_vertices", "_neighbors", "_edge_sides", "_tables")


@dataclass(frozen=True)
class Side:
    edge: int
    forward: bool = True


def _as_side(s) -> Side:
    if isinstance(s, Side):
        return s
    e, fwd = s
    return Side(int(e), bool(fwd))


@dataclass(frozen=True)
class ConeSurface:
    """A geodesically triangulated hyperbolic surface with cone points.

    edges: (tail, head) vertex pairs.
    faces: triples of sides; side i runs from corner i to corner i+1, so the
        chain of sides must close up around each face.
    lengths: positive edge lengths.
    cone_angles: target total angle for marked vertices; unmarked interior
        vertices must close up to 2*pi (checked unless check_angles=False,
        which the rigidity experiments use on purpose).
    """

    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[Side, Side, Side], ...]
    lengths: np.ndarray
    cone_angles: dict[int, float] = field(default_factory=dict)
    check_angles: bool = True

    def __post_init__(self):
        edges = tuple((int(a), int(b)) for a, b in self.edges)
        faces = tuple(tuple(_as_side(s) for s in f) for f in self.faces)
        lengths = np.asarray(self.lengths, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "cone_angles", dict(self.cone_angles))
        self._validate()

    # -- structure ---------------------------------------------------------

    def side_endpoints(self, s: Side) -> tuple[int, int]:
        t, h = self.edges[s.edge]
        return (t, h) if s.forward else (h, t)

    def face_corners(self, f: int) -> tuple[int, int, int]:
        return tuple(self.side_endpoints(s)[0] for s in self.faces[f])

    @property
    def num_vertices(self) -> int:
        """One more than the largest vertex id."""
        return self._tables.shape[0]

    @property
    def vertices(self) -> list[int]:
        return list(self._vertices)

    def boundary_edges(self) -> list[int]:
        """Edges with one face side, in order of first use."""
        return [int(e) for e in self._tables.face_edges.ravel()[self._neighbors.ravel() < 0]]

    def boundary_vertices(self) -> set[int]:
        out = set()
        for e in self.boundary_edges():
            t, h = self.edges[e]
            out.update((t, h))
        return out

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def _validate(self):
        self._index_faces()
        self._check_metric()

    def _index_faces(self):
        """Structural checks; sets the vertex list, the (F, 3) side -> glued
        side array (flat side index 3 * face + side, -1 on the boundary), the
        (2, E) edge -> forward and backward side array (-1 where unused) and
        the corner tables (face -> edge, corner -> vertex) every metric on
        these faces is evaluated with."""
        n_edges = len(self.edges)
        ids = np.array([s.edge for f in self.faces for s in f], dtype=np.intp)
        fwd = np.array([s.forward for f in self.faces for s in f], dtype=bool)
        if ids.size and not (0 <= ids.min() and ids.max() < n_edges):
            side = int(np.argmax((ids < 0) | (ids >= n_edges)))
            raise IndexError(
                f"side {side % 3} of face {side // 3} names edge {ids[side]}, "
                f"but there are {n_edges} edges"
            )
        on = np.bincount(ids[fwd], minlength=n_edges)
        against = np.bincount(ids[~fwd], minlength=n_edges)
        crowded = on + against > 2
        bad = crowded | (on == 2) | (against == 2)
        if bad.any():
            e = next(e for e in ids.tolist() if bad[e])
            if crowded[e]:
                raise GeometryError(f"edge {e} used by more than two face sides")
            raise GeometryError(f"edge {e} traversed twice in the same direction")
        ends = np.array([v for e in self.edges for v in e], dtype=np.intp).reshape(-1, 2)[ids]
        tails = np.where(fwd, ends[:, 0], ends[:, 1]).reshape(-1, 3)
        heads = np.where(fwd, ends[:, 1], ends[:, 0]).reshape(-1, 3)
        open_chain = (heads != tails[:, _NEXT]).any(axis=1)
        if open_chain.any():
            raise GeometryError(f"face {int(np.argmax(open_chain))} side chain does not close")
        # each edge has at most one forward and one backward side, glued together
        edge_sides = np.full((2, n_edges), -1, dtype=np.intp)
        edge_sides[0, ids[fwd]] = np.flatnonzero(fwd)
        edge_sides[1, ids[~fwd]] = np.flatnonzero(~fwd)
        neighbors = np.where(fwd, edge_sides[1, ids], edge_sides[0, ids])
        vertices = tuple(sorted({v for e in self.edges for v in e}))
        if not vertices:
            raise GeometryError("a surface needs at least one edge")
        shape = (1 + vertices[-1], n_edges)
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_neighbors", neighbors.reshape(-1, 3))
        object.__setattr__(self, "_edge_sides", edge_sides)
        object.__setattr__(self, "_tables", CornerTables(ids.reshape(-1, 3), tails, shape))

    def _check_metric(self):
        """Length checks (and the angle check when check_angles is set)."""
        checked_sides(self.lengths, self._tables)
        if self.check_angles:
            self._check_angle_sums()

    def _check_angle_sums(self):
        bad = self.angle_defect_report()
        if bad:
            worst = max(bad.items(), key=lambda kv: abs(kv[1]))
            raise GeometryError(
                "vertex angle sums do not match targets: worst vertex "
                f"{worst[0]} deviates by {worst[1]:.3e}"
            )

    def _switch_on_angle_check(self) -> ConeSurface:
        """This surface with check_angles set, once the angle check passes
        (a failing check leaves it as it was); for a metric its maker has
        just solved and not handed out yet, such as the new surface
        catalog.solve_metric returns (the surface is frozen to everyone
        else).  Raises what with_lengths(lengths, check_angles=True) raises,
        without building a second surface."""
        self._check_angle_sums()
        object.__setattr__(self, "check_angles", True)
        return self

    # -- metric ------------------------------------------------------------

    def _evaluate_corners(self) -> CornerTable:
        """The corner table of this metric.  A side that overflows cosh or
        sinh, or a side so short that sinh b sinh c underflows, leaves its
        corners degenerate, which is what the callers report, so numpy is
        told not to warn about it."""
        with np.errstate(all="ignore"):
            return corner_table(self.lengths, self._tables)

    def _corners(self) -> tuple[np.ndarray, np.ndarray]:
        """(angles, degenerate) of the corner table: one evaluation of the
        law of cosines per surface, cached on the frozen surface.  Its sinh
        products are not kept; only the Jacobian reads them, and most
        surfaces never take one."""
        cached = getattr(self, "_corner_cache", None)
        if cached is None:
            corners = self._evaluate_corners()
            cached = (corners.angles, corners.degenerate)
            object.__setattr__(self, "_corner_cache", cached)
        return cached

    def corner_angle(self, f: int, i: int) -> float:
        angles, degenerate = self._corners()
        if degenerate[f, i]:
            raise NotHyperbolicError(f"degenerate corner at face {f}")
        return float(angles[f, i])

    def corner_angles(self) -> np.ndarray:
        """All corner angles, (F, 3); corner i of a face lies between its
        sides i and i+2 and faces side i+1."""
        angles, degenerate = self._corners()
        raise_degenerate(degenerate)
        return angles

    def vertex_angle_sums(self, vertices=None) -> dict[int, float]:
        """Total corner angle at each of the given vertices (default: all).
        A degenerate corner at one of them raises NotHyperbolicError."""
        angles, degenerate = self._corners()
        corner_vertices = self._tables.corner_vertices
        if vertices is None:
            vertices = self.vertices
            raise_degenerate(degenerate)
        else:
            at = (corner_vertices[..., None] == np.asarray(vertices)).any(axis=-1)
            raise_degenerate(degenerate & at)
        sums = vertex_angle_totals(angles, corner_vertices, self.num_vertices)
        return {v: float(sums[v]) for v in vertices}

    def angle_sum_jacobian(self) -> np.ndarray:
        """d(vertex angle sum) / d(log edge length), (num_vertices, E), in
        closed form (the module-level angle_sum_jacobian) on a corner table
        evaluated for it."""
        corners = self._evaluate_corners()
        raise_degenerate(corners.degenerate)
        return angle_sum_jacobian(self.lengths[self._tables.sides], corners, self._tables)

    def target_angle(self, v: int) -> float:
        return self.cone_angles.get(v, TWO_PI)

    def angle_defect_report(self) -> dict[int, float]:
        """Vertices whose angle sum misses the target by more than ANGLE_MATCH."""
        sums = self.vertex_angle_sums()
        boundary = self.boundary_vertices()
        bad = {}
        for v, s in sums.items():
            if v in boundary:
                continue
            dev = s - self.target_angle(v)
            if abs(dev) > ANGLE_MATCH:
                bad[v] = dev
        return bad

    def marked_vertices(self) -> dict[int, float]:
        return dict(self.cone_angles)

    def with_edge_length(self, e: int, length: float, check_angles: bool = False):
        lengths = self.lengths.copy()
        lengths[e] = length
        return self.with_lengths(lengths, check_angles=check_angles)

    def with_lengths(self, lengths, cone_angles=None, check_angles: bool = False):
        """The same triangulation with new edge lengths (and cone angles).

        Every length check runs again; the structural checks, which these
        edges and faces have already passed, do not."""
        new = object.__new__(ConeSurface)
        for name in _COMBINATORICS:
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, "lengths", np.asarray(lengths, dtype=float))
        cones = self.cone_angles if cone_angles is None else cone_angles
        object.__setattr__(new, "cone_angles", dict(cones))
        object.__setattr__(new, "check_angles", check_angles)
        new._check_metric()
        return new

    # -- developing --------------------------------------------------------

    def place_face(self, f: int) -> np.ndarray:
        """Canonical positions (3x3, rows = corners) in the hyperboloid."""
        sides = self.faces[f]
        a = self.lengths[sides[0].edge]
        p0 = np.array([1.0, 0.0, 0.0])
        p1 = np.array([np.cosh(a), np.sinh(a), 0.0])
        p2 = _third_vertex(
            p0, p1, self.lengths[sides[2].edge], self.lengths[sides[1].edge], +1
        )
        return np.vstack([p0, p1, p2])

    def neighbor_across(self, f: int, side_index: int) -> tuple[int, int]:
        k = self._neighbors[f, side_index]
        if k < 0:
            raise GeometryError(f"edge {self.faces[f][side_index].edge} is a boundary edge")
        return divmod(int(k), 3)

    def develop_across(self, f: int, placed: np.ndarray, side_index: int):
        """Place the face across side_index of f, given f's placement."""
        g, j = self.neighbor_across(f, side_index)
        pos = np.empty((3, 3))
        pos[j] = placed[(side_index + 1) % 3]
        pos[(j + 1) % 3] = placed[side_index]
        sides = self.faces[g]
        d_from_j1 = self.lengths[sides[(j + 1) % 3].edge]
        d_to_j = self.lengths[sides[(j + 2) % 3].edge]
        # counterclockwise placement: det[pos_j, pos_{j+1}, new] > 0
        pos[(j + 2) % 3] = _third_vertex(
            pos[(j + 1) % 3], pos[j], d_from_j1, d_to_j, -1
        )
        return g, pos

    def _transition_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, degenerate): T[f, i] in SL(2,R), (F, 3, 2, 2), carries the face
        glued across side i of f from its own frame into the frame of f, and
        degenerate (F,) flags the faces with a degenerate corner.  One pass
        over the corner angles, kept like them (the surface is frozen); a
        degenerate face's entries may overflow, and numpy is not asked to
        warn about them, since no loop reads them.

        A face's frame has corner 0 at the origin and side 0 leaving it along
        the first axis.  With B(d) = diag(e^{d/2}, e^{-d/2}), the translation
        by d along that axis, and R(phi), the rotation by phi/2 that
        lorentz3_of_psl reads as the rotation by phi, the frame at corner i
        heading along side i is
            E_0 = I,  E_1 = B(a_0) R(pi - alpha_1),  E_2 = E_1 B(a_1) R(pi - alpha_2),
        and side j of the neighbour g runs the other way along the same edge:
            T[f, i] = E_{f,i} B(a_i) R(pi) E_{g,j}^{-1}.
        Boundary sides hold NaN."""
        cached = getattr(self, "_transition_cache", None)
        if cached is not None:
            return cached
        angles, degenerate = self._corners()
        with np.errstate(all="ignore"):
            table = self._transitions(angles, self.lengths[self._tables.face_edges])
        cached = (table, degenerate.any(axis=1))
        object.__setattr__(self, "_transition_cache", cached)
        return cached

    def _transitions(self, angles: np.ndarray, sides: np.ndarray) -> np.ndarray:
        """The table T of _transition_table from the (F, 3) corner angles and
        side lengths."""
        grow, shrink = np.exp(sides / 2.0), np.exp(-sides / 2.0)
        # B(a_i) R(pi - alpha_{i+1}) for i = 0, 1; the half angle of the
        # rotation has cosine sin(alpha/2) and sine cos(alpha/2)
        cos_h, sin_h = np.sin(angles[:, 1:] / 2.0), np.cos(angles[:, 1:] / 2.0)
        turn = np.empty((len(sides), 2, 2, 2))
        turn[..., 0, 0] = grow[:, :2] * cos_h
        turn[..., 0, 1] = -grow[:, :2] * sin_h
        turn[..., 1, 0] = shrink[:, :2] * sin_h
        turn[..., 1, 1] = shrink[:, :2] * cos_h
        frames = np.empty((len(sides), 3, 2, 2))
        frames[:, 0] = np.eye(2)
        frames[:, 1] = turn[:, 0]
        frames[:, 2] = turn[:, 0] @ turn[:, 1]
        # E_i B(a_i) R(pi), where B(a) R(pi) = [[0, -e^{a/2}], [e^{-a/2}, 0]]
        back = np.empty_like(frames)
        back[..., 0] = frames[..., 1] * shrink[..., None]
        back[..., 1] = -frames[..., 0] * grow[..., None]
        # E^{-1} is the adjugate: every factor has determinant 1
        inverse = np.empty_like(frames)
        inverse[..., 0, 0] = frames[..., 1, 1]
        inverse[..., 0, 1] = -frames[..., 0, 1]
        inverse[..., 1, 0] = -frames[..., 1, 0]
        inverse[..., 1, 1] = frames[..., 0, 0]
        table = back @ inverse.reshape(-1, 2, 2)[self._neighbors]
        table[self._neighbors < 0] = np.nan
        return table


class CornerTables:
    """Gather tables of one triangulation, built with its surface
    (ConeSurface._index_faces) from the (F, 3) face -> edge and corner ->
    vertex arrays, and shared by every metric on it (with_lengths,
    catalog.solve_metric).  They are the surface's only copy of those
    arrays.

    sides: (3, F, 3), the edges of sides i, i+1 and i+2 of face f at corner
        (f, i) (the side leaving the corner, the one facing it and the one
        arriving at it), in that order along the first axis; a per-edge
        array (E, ...) gathered with it, (3, F, 3, ...), is what the corner
        kernels read.  Its first plane is the face -> edge array.
    corner_vertices: (F, 3), the vertex at each corner.
    shape: (num_vertices, E), the shape of the angle-sum Jacobian.
    cells: (9F,), the flat cell (vertex, edge) of that Jacobian that
        d angle(f, i) / d side(f, k) adds to, over (f, i, k).
    cosine_at: (F, 3, 3), where d angle(f, i) / d side(f, k) reads its
        cosine in the flat table (-1, cos of every corner); 0, the -1, for
        the facing side.
    """

    def __init__(self, face_edges: np.ndarray, corner_vertices: np.ndarray, shape):
        self.sides = np.ascontiguousarray(face_edges[:, _AROUND].transpose(1, 0, 2))
        self.corner_vertices = corner_vertices
        self.shape = shape
        self.cells = (corner_vertices[:, :, None] * shape[1] + face_edges[:, None, :]).ravel()
        corner = 1 + 3 * np.arange(len(face_edges))[:, None, None] + _COSINE_AT
        self.cosine_at = np.where(_COSINE_AT < 0, 0, corner)

    @property
    def face_edges(self) -> np.ndarray:
        """(F, 3): the edge of side i of face f."""
        return self.sides[0]


class CornerTable(NamedTuple):
    """The corners of one metric (or of a batch of them, along the trailing
    axes of its lengths), (F, 3, ...) over (face, corner) unless said
    otherwise.

    angles: the corner angles of the law of cosines, clipped into [0, pi].
    degenerate: the corners whose cosine is not finite or leaves [-1, 1] by
        more than DEGENERATE_CORNER.
    sinh: (3, F, 3, ...), sinh of the sides i, i+1 and i+2 at each corner.
    denominator: sinh(side i) sinh(side i+2), the law of cosines' own; the
        angle-sum Jacobian divides by it again.
    """

    angles: np.ndarray
    degenerate: np.ndarray
    sinh: np.ndarray
    denominator: np.ndarray


def _cosines(ch_leaving, ch_facing, ch_arriving, sh_leaving, sh_arriving):
    """The hyperbolic law of cosines, the one formula every corner kernel
    uses: (cosines, denominators) of the corner angles, unclipped, from
    cosh and sinh of the sides leaving, facing and arriving at each corner."""
    denominator = sh_leaving * sh_arriving
    return (ch_leaving * ch_arriving - ch_facing) / denominator, denominator


def law_of_cosines(sides: np.ndarray) -> np.ndarray:
    """Cosines of the corner angles of hyperbolic triangles, unclipped, from
    a raw side table (for triangles that belong to no triangulation).

    sides[..., i] is the length of side i, which runs from corner i to corner
    i+1; the result's [..., i] is the cosine of the angle at corner i."""
    ch, sh = np.cosh(sides), np.sinh(sides)
    return _cosines(ch, ch[..., _NEXT], ch[..., _PREV], sh, sh[..., _PREV])[0]


def positive_and_finite(lengths: np.ndarray, axis=None):
    """Whether the lengths (all of them, or each vector along axis) are
    positive and finite: a NaN fails both tests."""
    return (lengths.min(axis) > 0) & (lengths.max(axis) < np.inf)


def long_sides(sides: np.ndarray) -> np.ndarray:
    """Which corners (F, 3, ...) of the side table sides (3, F, 3, ...) =
    lengths[tables.sides] have a side i at least as long as the other two
    together, up to TRIANGLE_MARGIN.  A triangle breaks the triangle
    inequality where one of its corners does."""
    return sides[0] >= sides[1] + sides[2] - TRIANGLE_MARGIN


def checked_sides(lengths: np.ndarray, tables: CornerTables) -> np.ndarray:
    """The side table lengths[tables.sides], (3, F, 3), after the length
    checks every metric passes: lengths positive and finite, one per edge,
    and no face breaking the triangle inequality (NotHyperbolicError naming
    the first that does)."""
    if lengths.size and not positive_and_finite(lengths):
        raise GeometryError("edge lengths must be positive and finite")
    if len(lengths) != tables.shape[1]:
        raise GeometryError("need one length per edge")
    sides = lengths[tables.sides]
    broken = long_sides(sides)
    if np.count_nonzero(broken):
        face = int(np.argmax(broken)) // 3  # broken is (F, 3)
        raise NotHyperbolicError(f"face {face} violates the triangle inequality")
    return sides


def corner_table(lengths: np.ndarray, tables: CornerTables) -> CornerTable:
    """The CornerTable of the lengths (E, ...) on the triangulation of the
    tables: cosh and sinh are taken once per edge and gathered per corner,
    and the law of cosines runs once over every corner."""
    ch = np.cosh(lengths)[tables.sides]
    sh = np.sinh(lengths)[tables.sides]
    cosines, denominator = _cosines(ch[0], ch[1], ch[2], sh[0], sh[2])
    return CornerTable(
        np.arccos(cosines.clip(-1.0, 1.0)),
        ~(np.abs(cosines) <= 1 + DEGENERATE_CORNER),
        sh,
        denominator,
    )


def vertex_angle_totals(
    angles: np.ndarray, corner_vertices: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Total corner angle at each vertex id, (num_vertices,), from the (F, 3)
    corner angles and the vertex at each corner."""
    return np.bincount(corner_vertices.ravel(), weights=angles.ravel(), minlength=num_vertices)


def angle_sum_jacobian(sides: np.ndarray, corners: CornerTable, tables: CornerTables) -> np.ndarray:
    """d(vertex angle sum) / d(log edge length), shape = tables.shape, from
    the side table (checked_sides) and corner table of a metric without
    degenerate corners.

    Closed form of the hyperbolic law of cosines: for the corner angle
    alpha facing side a, between sides b and c,
        d alpha / d a = sinh a / (sinh b sinh c sin alpha),
        d alpha / d b = -(d alpha / d a) cos gamma,
    where gamma is the angle where a meets b (likewise for c).  The
    denominator sinh b sinh c is the corner table's; tables.cosine_at reads
    each cos gamma (or -1, so that -(d alpha / d a) comes back positive) and
    tables.cells adds d angle / d side to its cell in (face, corner, side)
    order."""
    d_opp = corners.sinh[1] / (corners.denominator * np.sin(corners.angles))
    cosines = np.concatenate(([-1.0], np.cos(corners.angles).ravel()))
    grad = (np.negative(d_opp)[..., None] * cosines[tables.cosine_at]) * sides[0, :, None, :]
    n, m = tables.shape
    return np.bincount(tables.cells, weights=grad.ravel(), minlength=n * m).reshape(n, m)


def raise_degenerate(degenerate: np.ndarray):
    """NotHyperbolicError naming the first face with a flagged corner."""
    if np.count_nonzero(degenerate):
        face = int(np.argmax(degenerate.any(axis=1)))
        raise NotHyperbolicError(f"degenerate corner at face {face}")


def _third_vertex(p, q, d_from_p, d_to_q, orientation):
    """The point at distance d_from_p of p and d_to_q of q, on the side where
    det[p, q, point] has the requested sign."""
    npq = cross12(p, q)
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


def gauss_bonnet_area(s: ConeSurface) -> float:
    """Area from the vertex form of Gauss-Bonnet, checked against the sum of
    triangle angle defects.  Closed surfaces only."""
    if s.boundary_edges():
        raise GeometryError("gauss_bonnet_area expects a closed surface")
    sums = s.vertex_angle_sums()
    area = sum(TWO_PI - sums[v] for v in s.vertices) - TWO_PI * s.euler_characteristic
    defects = float(np.sum(PI - s.corner_angles().sum(axis=1)))
    if abs(area - defects) > GAUSS_BONNET_CROSS_CHECK:
        raise ArithmeticError(
            f"Gauss-Bonnet cross-check failed: {area} vs defect sum {defects}"
        )
    if area <= 0:
        raise NotHyperbolicError("total area is not positive: not a hyperbolic surface")
    return float(area)


def cone_area(angles, chi: int) -> float:
    """Planning form of Gauss-Bonnet: area from target cone angles alone."""
    area = sum(TWO_PI - a for a in angles) - TWO_PI * chi
    if area <= 0:
        raise NotHyperbolicError(
            f"cone data (angles={list(angles)}, chi={chi}) is not hyperbolic"
        )
    return float(area)


def triangle_edge_from_angles(alpha: float, beta: float, gamma: float):
    """Side lengths (a, b, c) of the hyperbolic triangle with given angles,
    a opposite alpha and cyclically; requires alpha + beta + gamma < pi."""
    angles = (alpha, beta, gamma)
    if any(a <= 0 or a >= PI for a in angles):
        raise GeometryError("angles must lie in (0, pi)")
    if sum(angles) >= PI:
        raise GeometryError("hyperbolic triangle needs angle sum below pi")
    out = []
    for i in range(3):
        a, b, c = angles[i], angles[(i + 1) % 3], angles[(i + 2) % 3]
        cosh_side = (np.cos(a) + np.cos(b) * np.cos(c)) / (np.sin(b) * np.sin(c))
        out.append(float(np.arccosh(cosh_side)))
    return tuple(out)


# -- loops and holonomy ------------------------------------------------------


def resolve_loop(s: ConeSurface, loop) -> list[tuple[int, int]]:
    """Normalize a loop to a list of (face, exit side index) steps.

    Input is either already in that form or a list of face ids
    [f0, f1, ..., f0]; in the latter form each consecutive pair must share
    exactly one edge."""
    if not loop:
        raise GeometryError("empty loop")
    if isinstance(loop[0], (tuple, list)):
        return [(int(f), int(i)) for f, i in loop]
    faces = [int(f) for f in loop]
    if faces[0] != faces[-1]:
        raise GeometryError("face loop must return to its base face")
    steps = []
    for f, g in zip(faces, faces[1:]):
        shared = [si for si in range(3) if s.neighbor_across(f, si)[0] == g]
        if len(shared) != 1:
            raise GeometryError(
                f"faces {f} and {g} share {len(shared)} edges; use (face, side) steps"
            )
        steps.append((f, shared[0]))
    return steps


def _uses_of(s: ConeSurface, e: int) -> list[tuple[int, int]]:
    """The (face, side index) pairs that use edge e, in face order."""
    return [divmod(k, 3) for k in sorted(s._edge_sides[:, e].tolist()) if k >= 0]


def holonomy_of_loop(s: ConeSurface, loop) -> Proj2:
    """Holonomy of a closed face path, as a projective 2x2 class.

    The isometry carrying the base face from its own frame to where the
    path develops it back: the ordered product T[s_0] ... T[s_k] of the
    surface's closed-form transitions (ConeSurface._transition_table) over
    the steps s_0, ..., s_k.  Face paths never meet vertices, so cone points
    are automatically avoided; a path through a face with a degenerate
    corner raises NotHyperbolicError naming the first such face."""
    steps = resolve_loop(s, loop)
    table, degenerate = s._transition_table()
    f0 = steps[0][0]
    f = f0
    _check_sound(degenerate, f)
    for fi, si in steps:
        if fi != f:
            raise GeometryError("loop steps do not chain")
        f, _ = s.neighbor_across(f, si)
        _check_sound(degenerate, f)
    if f != f0:
        raise GeometryError("loop does not return to its base face")
    faces, sides = zip(*steps)
    factors = table[list(faces), list(sides)]
    h = factors[0]
    for t in factors[1:]:
        h = h @ t
    return Proj2(h)


def _check_sound(degenerate: np.ndarray, f: int):
    if degenerate[f]:
        raise NotHyperbolicError(f"degenerate corner at face {f}")


def loop_around_vertex(s: ConeSurface, v: int, base_face: int | None = None) -> list:
    """The positively oriented face loop circling vertex v once, as
    (face, side) steps; its holonomy is elliptic of the cone angle at v."""
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
        # cross the side arriving at v (side i+2 ends at corner i)
        exit_side = (i + 2) % 3
        steps.append((f, exit_side))
        g, j = s.neighbor_across(f, exit_side)
        f, i = g, j
        if (f, i) == start:
            break
        if len(steps) > 4 * len(s.faces):
            raise GeometryError("vertex link does not close up")
    return steps


def concatenate_loops(*loops) -> list:
    out = []
    for lp in loops:
        out.extend(lp)
    return out


def dual_cycles(s: ConeSurface, faces: frozenset[int] | None = None) -> list[list]:
    """Face loops generating the fundamental group of the sub-surface carried
    by the given faces (default: all), one per non-tree dual adjacency.

    Built from a BFS spanning tree of the dual graph: each remaining
    adjacency contributes tree-path + crossing + reverse tree-path.  The
    loops are based at the BFS root face."""
    if faces is None:
        faces = frozenset(range(len(s.faces)))
    faces = frozenset(faces)
    root = min(faces)
    parent: dict[int, tuple[int, int, int]] = {root: None}
    queue = [root]
    tree_edges = set()
    crossings = []
    while queue:
        f = queue.pop(0)
        for si in range(3):
            try:
                g, j = s.neighbor_across(f, si)
            except GeometryError:
                continue
            if g not in faces:
                continue
            e = s.faces[f][si].edge
            if g not in parent:
                parent[g] = (f, si, j)
                tree_edges.add(e)
                queue.append(g)
            elif e not in tree_edges:
                crossings.append((f, si, g, j))
    if set(parent) != faces:
        raise GeometryError("face set is not connected")

    def path_to_root(f):
        steps = []
        while parent[f] is not None:
            pf, si, j = parent[f]
            steps.append((pf, si, f, j))
            f = pf
        return steps[::-1]

    seen_edges = set()
    loops = []
    for f, si, g, j in crossings:
        e = s.faces[f][si].edge
        key = (min(f, g), max(f, g), e)
        if key in seen_edges:
            continue
        seen_edges.add(key)
        down = path_to_root(f)
        up = path_to_root(g)
        steps = [(pf, si_) for pf, si_, _, _ in down]
        steps.append((f, si))
        steps.extend((cf, cj) for _, _, cf, cj in reversed(up))
        loops.append(steps)
    return loops


# -- disks and isometry ------------------------------------------------------


@dataclass(frozen=True)
class DiskSpec:
    """A sub-complex of a cone surface that is a topological disk."""

    surface: ConeSurface
    face_ids: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "face_ids", frozenset(int(f) for f in self.face_ids))
        if not self.face_ids:
            raise GeometryError("empty disk")
        s = self.surface
        # connectivity over shared edges
        seen = {min(self.face_ids)}
        frontier = [min(self.face_ids)]
        while frontier:
            f = frontier.pop()
            for si in range(3):
                try:
                    g, _ = s.neighbor_across(f, si)
                except GeometryError:
                    continue
                if g in self.face_ids and g not in seen:
                    seen.add(g)
                    frontier.append(g)
        if seen != self.face_ids:
            raise GeometryError("disk faces are not edge-connected")
        # the spec is frozen: its vertex, edge and boundary sets are read once
        glued = s._neighbors.tolist()
        vertices, edges, rim = set(), set(), set()
        for f in self.face_ids:
            vertices.update(s.face_corners(f))
            for si, side in enumerate(s.faces[f]):
                edges.add(side.edge)
                if glued[f][si] < 0 or glued[f][si] // 3 not in self.face_ids:
                    rim.add(side.edge)
        rim_vertices = {v for e in rim for v in s.edges[e]}
        chi = len(vertices) - len(edges) + len(self.face_ids)
        object.__setattr__(self, "_euler_characteristic", chi)
        object.__setattr__(self, "_boundary_edges", tuple(sorted(rim)))
        object.__setattr__(self, "_interior_vertices", frozenset(vertices - rim_vertices))
        if self.euler_characteristic != 1:
            raise GeometryError("sub-complex is not a disk (chi != 1)")

    @property
    def euler_characteristic(self) -> int:
        return self._euler_characteristic

    def boundary_edges(self) -> list[int]:
        return list(self._boundary_edges)

    def interior_vertices(self) -> set[int]:
        return set(self._interior_vertices)

    def marked_angles(self) -> dict[int, float]:
        s = self.surface
        return {v: s.cone_angles[v] for v in self._interior_vertices if v in s.cone_angles}

    def complement(self) -> frozenset[int]:
        return frozenset(range(len(self.surface.faces))) - self.face_ids


def extract_disk_surface(d: DiskSpec) -> tuple[ConeSurface, dict[int, int]]:
    """The disk as a standalone surface with boundary; returns (surface,
    face map old->new)."""
    s = d.surface
    faces = sorted(d.face_ids)
    edge_ids = sorted({s.faces[f][i].edge for f in faces for i in range(3)})
    emap = {e: k for k, e in enumerate(edge_ids)}
    vset = sorted({v for f in faces for v in s.face_corners(f)})
    vmap = {v: k for k, v in enumerate(vset)}
    edges = tuple((vmap[s.edges[e][0]], vmap[s.edges[e][1]]) for e in edge_ids)
    new_faces = tuple(
        tuple(Side(emap[s.faces[f][i].edge], s.faces[f][i].forward) for i in range(3))
        for f in faces
    )
    lengths = np.array([s.lengths[e] for e in edge_ids])
    cones = {vmap[v]: a for v, a in d.marked_angles().items()}
    sub = ConeSurface(edges, new_faces, lengths, cones, check_angles=False)
    return sub, {f: k for k, f in enumerate(faces)}


def delaunay_normalize(s: ConeSurface) -> ConeSurface:
    """Flip interior edges until the Delaunay angle condition holds."""
    current = s
    for _ in range(10000):
        flipped = False
        for e in range(len(current.edges)):
            if _needs_flip(current, e):
                current = flip_edge(current, e)
                flipped = True
                break
        if not flipped:
            return current
    raise ArithmeticError("Delaunay normalization did not terminate")


def _needs_flip(s: ConeSurface, e: int) -> bool:
    uses = _uses_of(s, e)
    if len(uses) != 2:
        return False
    (f1, s1), (f2, s2) = uses
    if f1 == f2:
        return False  # self-glued edges are never flipped
    a1 = s.corner_angle(f1, (s1 + 2) % 3)
    a2 = s.corner_angle(f2, (s2 + 2) % 3)
    return a1 + a2 > PI + DELAUNAY_MARGIN


def flip_edge(s: ConeSurface, e: int) -> ConeSurface:
    """Replace the diagonal e of its two adjacent triangles by the other one."""
    uses = _uses_of(s, e)
    if len(uses) != 2:
        raise GeometryError("cannot flip a boundary edge")
    (f1, i1), (f2, i2) = uses
    if f1 == f2:
        raise GeometryError("cannot flip a self-glued edge")
    # placements: develop f2 across from f1 to measure the new diagonal
    placed1 = s.place_face(f1)
    g, placed2 = s.develop_across(f1, placed1, i1)
    assert g == f2
    p_far1 = placed1[(i1 + 2) % 3]
    p_far2 = placed2[(i2 + 2) % 3]
    q = dot12(p_far1, p_far2)
    if q >= -1.0:
        raise NotHyperbolicError("flip would degenerate the quadrilateral")
    new_len = float(np.arccosh(-q))
    # rebuild the two faces: quadrilateral corners around e
    sides1, sides2 = s.faces[f1], s.faces[f2]
    a = sides1[(i1 + 1) % 3]
    b = sides1[(i1 + 2) % 3]
    c = sides2[(i2 + 1) % 3]
    d = sides2[(i2 + 2) % 3]
    far1 = s.face_corners(f1)[(i1 + 2) % 3]
    far2 = s.face_corners(f2)[(i2 + 2) % 3]
    edges = list(s.edges)
    edges[e] = (far1, far2)
    lengths = s.lengths.copy()
    lengths[e] = new_len
    new_f1 = (Side(e, True), d, a)
    new_f2 = (Side(e, False), b, c)
    faces = list(s.faces)
    faces[f1] = new_f1
    faces[f2] = new_f2
    return ConeSurface(tuple(edges), tuple(faces), lengths, s.cone_angles, s.check_angles)


def disks_isometric(s1: ConeSurface, d1: DiskSpec, s2: ConeSurface, d2: DiskSpec) -> bool:
    """Whether two disk sub-complexes are isometric (marked angles match,
    edge lengths match after a combinatorial isomorphism, each within
    DISK_ISOMETRY), trying every boundary correspondence in both
    orientations after Delaunay normalization of both disks."""
    if d1.surface is not s1 or d2.surface is not s2:
        raise GeometryError("disk specs must reference their surfaces")
    ang1, ang2 = (sorted(d.marked_angles().values()) for d in (d1, d2))
    if len(ang1) != len(ang2) or not all(abs(x - y) <= DISK_ISOMETRY for x, y in zip(ang1, ang2)):
        return False
    a, _ = extract_disk_surface(d1)
    b, _ = extract_disk_surface(d2)
    a = delaunay_normalize(a)
    b = delaunay_normalize(b)
    if len(a.faces) != len(b.faces):
        return False
    boundary_b = [tuple(side) for side in np.argwhere(b._neighbors < 0).tolist()]
    fa, sa = np.argwhere(a._neighbors < 0)[0].tolist()
    for fb, sb in boundary_b:
        for reflect in (False, True):
            if _match_from(a, (fa, sa), b, (fb, sb), reflect):
                return True
    return False


def _match_from(a, flag_a, b, flag_b, reflect):
    """Propagate the correspondence side->side over both disks.

    The invariant stored per face is (image face, side offset): for a direct
    match sides map by ia -> ia + off, for a reflected one by ia -> off - ia."""
    fmap = {}
    stack = [(flag_a, flag_b)]
    while stack:
        (fa, sa), (fb, sb) = stack.pop()
        off = (sb + sa) % 3 if reflect else (sb - sa) % 3
        if fa in fmap:
            if fmap[fa] != (fb, off):
                return False
            continue
        fmap[fa] = (fb, off)
        for k in range(3):
            ia = (sa + k) % 3
            ib = (sb - k) % 3 if reflect else (sb + k) % 3
            ea = a.faces[fa][ia].edge
            eb = b.faces[fb][ib].edge
            if abs(a.lengths[ea] - b.lengths[eb]) > DISK_ISOMETRY:
                return False
            ka, kb = int(a._neighbors[fa, ia]), int(b._neighbors[fb, ib])
            if (ka < 0) != (kb < 0):
                return False
            if ka >= 0:
                stack.append((divmod(ka, 3), divmod(kb, 3)))
    if len(fmap) != len(a.faces):
        return False
    return True
