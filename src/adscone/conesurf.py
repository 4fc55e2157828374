"""Hyperbolic surfaces with cone points, as geodesic triangulations.

A surface is a list of oriented triangles glued along edges.  Multi-edges and
self-loop edges are allowed (one-vertex torus triangulations need both), so
faces are described by sides (edge id, direction) rather than vertex pairs.
Edge lengths determine the corner angles by the hyperbolic law of cosines;
cone points are vertices whose total angle is prescribed to something other
than 2*pi.

Loop holonomies are products of closed-form PSL(2,R) transitions, one per
glued side, read off the edge lengths and corner angles; the loop once
around a vertex is the rotation by its angle sum about that vertex.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, NotHyperbolicError
from .isom import Proj2
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


class Side(NamedTuple):
    """One side of a face: an edge id and whether the face runs along the
    edge from its tail.  A tuple, so that it hashes and compares in C, equal
    to the (edge, forward) tuple of its values."""

    edge: int
    forward: bool = True


def _as_side(s) -> Side:
    if isinstance(s, Side):
        return s
    e, fwd = s
    return Side(int(e), bool(fwd))


@dataclass(frozen=True, eq=False)
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
        lengths = np.asarray(self.lengths, dtype=float)
        cones = dict(self.cone_angles)
        self._on(_interned(self.edges, self.faces), lengths, cones, self.check_angles)

    def _on(
        self, structure: _Structure, lengths, cone_angles, check_angles: bool, corners=None
    ) -> ConeSurface:
        """This surface on an interned structure, with the metric given: the
        one place a surface takes its fields.  The structure's edges and
        faces have passed its checks, and are not normalized or hashed
        again.  Every length check runs (checked_sides), unless corners is
        given: the CornerTable of lengths that have passed them on this
        structure's tables (catalog.solve_metric's accepted trial), cached
        as _corners caches its own.  The angle check runs when check_angles
        is set."""
        object.__setattr__(self, "edges", structure.edges)
        object.__setattr__(self, "faces", structure.faces)
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(self, "lengths", np.asarray(lengths, dtype=float))
        object.__setattr__(self, "cone_angles", dict(cone_angles))
        object.__setattr__(self, "check_angles", check_angles)
        if corners is None:
            checked_sides(self.lengths, self._tables)
        else:
            object.__setattr__(self, "_corner_cache", (corners.angles, corners.degenerate))
        if check_angles:
            self._check_angle_sums()
        return self

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
        return list(self._structure.vertices)

    @property
    def _tables(self) -> CornerTables:
        return self._structure.tables

    @property
    def _neighbors(self) -> np.ndarray:
        return self._structure.neighbors

    def boundary_edges(self) -> list[int]:
        """Edges with one face side, in order of first use."""
        return list(self._structure.boundary_edges)

    def boundary_vertices(self) -> set[int]:
        return set(self._structure.boundary_vertices)

    @property
    def euler_characteristic(self) -> int:
        return len(self._structure.vertices) - len(self.edges) + len(self.faces)

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

    def with_lengths(self, lengths, cone_angles=None, check_angles: bool = False):
        """The same triangulation with new edge lengths (and cone angles).

        The new surface shares this one's structure (its interned
        _Structure, corner tables included); every length check runs again,
        the structural checks, which these edges and faces have already
        passed, do not."""
        cones = self.cone_angles if cone_angles is None else cone_angles
        return _surface_on(self._structure, lengths, cones, check_angles)

    # -- gluing ------------------------------------------------------------

    def neighbor_across(self, f: int, side_index: int) -> tuple[int, int]:
        return _across(self._structure, f, side_index)

    def _transition_table(self) -> np.ndarray:
        """T[f, i] in SL(2,R), (F, 3, 2, 2), carries the face glued across
        side i of f from its own frame into the frame of f.  One pass over
        the corner angles, kept like them (the surface is frozen); a
        degenerate face's entries may overflow, and numpy is not asked to
        warn about them, since no loop reads them.

        A face's frame has corner 0 at the origin and side 0 leaving it along
        the first axis.  With B(d) = diag(e^{d/2}, e^{-d/2}), the translation
        by d along that axis, and R(phi), the rotation matrix of angle phi/2,
        which rotates the hyperbolic plane by phi (g acts on R^{1,2}, as
        symmetric 2x2 matrices, by X -> g X g^T), the frame at corner i
        heading along side i is
            E_0 = I,  E_1 = B(a_0) R(pi - alpha_1),  E_2 = E_1 B(a_1) R(pi - alpha_2),
        and side j of the neighbour g runs the other way along the same edge:
            T[f, i] = E_{f,i} B(a_i) R(pi) E_{g,j}^{-1}.
        Boundary sides hold NaN."""
        table = getattr(self, "_transition_cache", None)
        if table is None:
            with np.errstate(all="ignore"):
                table = self._transitions(self._corners()[0], self.lengths[self._tables.face_edges])
            object.__setattr__(self, "_transition_cache", table)
        return table

    def _transitions(self, angles: np.ndarray, sides: np.ndarray) -> np.ndarray:
        """The table T of _transition_table from the (F, 3) corner angles and
        side lengths."""
        grow, shrink = np.exp(sides / 2.0), np.exp(-sides / 2.0)
        # B(a_i) R(pi - alpha_{i+1}) for i = 0, 1; the half angle of the
        # rotation has cosine sin(alpha/2) and sine cos(alpha/2)
        half = angles[:, 1:] / 2.0
        cos_h, sin_h = np.sin(half), np.cos(half)
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
        if self._structure.boundary_edges:
            table[self._neighbors < 0] = np.nan
        return table


def _surface_on(
    structure: _Structure, lengths, cone_angles, check_angles: bool = False, corners=None
) -> ConeSurface:
    """A new surface on an interned structure (ConeSurface._on)."""
    return object.__new__(ConeSurface)._on(structure, lengths, cone_angles, check_angles, corners)


class _Structure:
    """The validated combinatorics of one triangulation, built once per
    process (_STRUCTURES) and shared, read-only, by every surface on it.

    edges, faces: the normalized edges and faces it was built from.
    vertices: the sorted vertex ids.
    neighbors: (F, 3), the side glued to side i of face f, as the flat side
        index 3 * face + side, or -1 on the boundary.
    edge_sides: (2, E), the forward and the backward side of each edge, -1
        where unused.
    tables: the CornerTables every metric on these faces is evaluated with.
    boundary_edges, boundary_vertices: the edges with one face side, in
        order of first use, and their ends.
    flips: (edges, corners), the edges delaunay_normalize may flip (glued to
        two different faces), ascending, and (2, C) the flat corner 3 * face
        + i facing each in its lower and in its higher face.

    disk(face_ids) gives the _Disk data of a face set, walked once per face
    set and kept on the structure; plan(key, build) gives the plan of one
    combinatorial operation on it (splice_disk, flip_edge,
    holonomy_of_loop), worked out once and kept likewise.

    Raises GeometryError, building nothing, where a side names a missing
    edge, an edge has more than two sides or two in one direction, or a
    face's side chain does not close."""

    def __init__(self, edges: tuple, faces: tuple):
        n_edges = len(edges)
        edge_ids = [s.edge for f in faces for s in f]
        if edge_ids and not (0 <= min(edge_ids) and max(edge_ids) < n_edges):
            side, e = next((k, e) for k, e in enumerate(edge_ids) if not 0 <= e < n_edges)
            raise GeometryError(
                f"edge id {e} of side {side % 3} of face {side // 3} "
                f"is not an edge of the surface (0..{n_edges - 1})"
            )
        ids = np.array(edge_ids, dtype=np.intp)
        fwd = np.array([s.forward for f in faces for s in f], dtype=bool)
        on = np.bincount(ids[fwd], minlength=n_edges)
        against = np.bincount(ids[~fwd], minlength=n_edges)
        crowded = on + against > 2
        bad = crowded | (on == 2) | (against == 2)
        if bad.any():
            e = next(e for e in ids.tolist() if bad[e])
            if crowded[e]:
                raise GeometryError(f"edge {e} used by more than two face sides")
            raise GeometryError(f"edge {e} traversed twice in the same direction")
        ends = np.array([v for e in edges for v in e], dtype=np.intp).reshape(-1, 2)[ids]
        tails = np.where(fwd, ends[:, 0], ends[:, 1]).reshape(-1, 3)
        heads = np.where(fwd, ends[:, 1], ends[:, 0]).reshape(-1, 3)
        open_chain = (heads != tails[:, _NEXT]).any(axis=1)
        if open_chain.any():
            raise GeometryError(f"face {int(np.argmax(open_chain))} side chain does not close")
        vertices = tuple(sorted({v for e in edges for v in e}))
        if not vertices:
            raise GeometryError("a surface needs at least one edge")
        # each edge has at most one forward and one backward side, glued together
        edge_sides = np.full((2, n_edges), -1, dtype=np.intp)
        edge_sides[0, ids[fwd]] = np.flatnonzero(fwd)
        edge_sides[1, ids[~fwd]] = np.flatnonzero(~fwd)
        neighbors = np.where(fwd, edge_sides[1, ids], edge_sides[0, ids]).reshape(-1, 3)
        boundary = ids[neighbors.ravel() < 0].tolist()
        # the sides of an edge in face order; the corner facing side i is i + 2
        first, last = edge_sides.min(axis=0), edge_sides.max(axis=0)
        inner = (first >= 0) & (first // 3 != last // 3)
        uses = np.stack([first[inner], last[inner]])
        self.edges, self.faces, self.vertices = edges, faces, vertices
        self.neighbors = _read_only(neighbors)
        self.edge_sides = _read_only(edge_sides)
        self.tables = CornerTables(ids.reshape(-1, 3), tails, (1 + vertices[-1], n_edges))
        self.boundary_edges = tuple(boundary)
        self.boundary_vertices = frozenset(v for e in boundary for v in edges[e])
        self.flips = (
            _read_only(np.flatnonzero(inner)),
            _read_only(uses - uses % 3 + _PREV[uses % 3]),
        )
        self._disks = _Kept(len(faces))
        self._plans = _Kept(_PLAN_ENTRIES * len(faces))

    def disk(self, face_ids: frozenset) -> _Disk:
        """The _Disk data of a non-empty set of face ids, walked once
        (_walk_disk) and kept; the disks kept cover at most as many faces as
        the structure has, the oldest going first.  A face set that is not
        a disk is not kept, so it raises on every call."""
        found = self._disks.get(face_ids)
        if found is None:
            found = _walk_disk(self, face_ids)
            self._disks.keep(face_ids, found, len(face_ids))
        return found

    def plan(self, key, build):
        """(plan, the structure it leads to or None) of one operation on
        this structure, built once by build(self, key) and kept: the plans
        kept hold at most _PLAN_ENTRIES index entries per face (their
        sizes), the oldest going first.  A plan holds the structure it
        leads to only by weak reference (plan.leads_to), so that no chain
        of plans keeps alive what _STRUCTURES has let go; where that
        structure has gone, the plan is built again.  A build makes the
        triangulation's checks and keeps nothing where they raise, so it
        raises on every call; the metric's checks follow, on each call."""
        found = self._plans.get(key)
        if found is not None:
            if found.leads_to is None:
                return found, None
            target = found.leads_to()
            if target is not None:
                return found, target
        found, target = build(self, key)
        self._plans.keep(key, found, found.size)
        return found, target


class _Disk(NamedTuple):
    """What a DiskSpec reads of its face set: its rim edges ascending, its
    vertices off the rim and its rim walk (DiskSpec.rim)."""

    boundary_edges: tuple
    interior_vertices: frozenset
    rim: tuple


def _walk_disk(structure: _Structure, face_ids: frozenset) -> _Disk:
    """The _Disk of a face set, from the rows of the structure's arrays.
    Raises GeometryError where the faces are not edge-connected, their
    Euler characteristic is not 1 or they have no rim: so they form a disk
    (a surface with a rim has chi <= 1, equality only for a disk, and
    identified vertices lower chi), whose rim is one cycle."""
    glued = structure.neighbors
    # connectivity over shared edges
    seen = {min(face_ids)}
    frontier = [min(face_ids)]
    while frontier:
        for k in glued[frontier.pop()].tolist():
            g = k // 3
            if k >= 0 and g in face_ids and g not in seen:
                seen.add(g)
                frontier.append(g)
    if seen != face_ids:
        raise GeometryError("disk faces are not edge-connected")
    order = sorted(face_ids)
    faces = np.array(order)
    corners = structure.tables.corner_vertices[faces].tolist()
    sides = dict(zip(order, structure.tables.face_edges[faces].tolist()))
    across = dict(zip(order, glued[faces].tolist()))
    vertices = {v for row in corners for v in row}
    edges = {e for row in sides.values() for e in row}
    rim = {
        e
        for f in order
        for e, k in zip(sides[f], across[f])
        if k < 0 or k // 3 not in face_ids
    }
    if len(vertices) - len(edges) + len(face_ids) != 1:
        raise GeometryError("sub-complex is not a disk (chi != 1)")
    if not rim:
        raise GeometryError("sub-complex is not a disk (no rim)")
    # the rim walk (DiskSpec.rim), turning about each vertex it reaches
    # across the interior edges there
    start = f, i = next((f, i) for f in order for i in range(3) if sides[f][i] in rim)
    walk = []
    while True:
        walk.append((f, i))
        i = (i + 1) % 3  # the side leaving the head of side i
        while sides[f][i] not in rim:
            f, j = divmod(across[f][i], 3)
            i = (j + 1) % 3
        if (f, i) == start:
            break
    rim_vertices = {v for e in rim for v in structure.edges[e]}
    return _Disk(tuple(sorted(rim)), frozenset(vertices - rim_vertices), tuple(walk))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Kept:
    """Values kept by key, oldest first out once their sizes add up to more
    than budget (held is the sum); a value larger than the whole budget is
    not kept."""

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self._entries: dict = {}  # key -> (value, size)

    def get(self, key):
        found = self._entries.get(key)
        return None if found is None else found[0]

    def keep(self, key, value, size: int):
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self.held -= replaced[1]
        if size > self.budget:
            return
        self._entries[key] = (value, size)
        self.held += size
        while self.held > self.budget:
            _, dropped = self._entries.pop(next(iter(self._entries)))
            self.held -= dropped


def _interned(edges, faces) -> _Structure:
    """The _Structure of edges and faces, from the process-wide _STRUCTURES,
    keyed by their normalized form ((tail, head) int pairs and Sides), or
    built and kept there.  Only structures that validate are kept, so a
    malformed one raises on every construction.

    Edges and faces equal to a kept key find its structure as they are: a
    Side is equal to the (edge, forward) tuple of its values, and the ints
    and bools normalizing gives are equal to what they are made of, so the
    tuples a document reads need no normalizing."""
    try:
        found = _STRUCTURES.get((edges, faces))
    except TypeError:  # lists, which do not hash
        found = None
    if found is None:
        edges = tuple((int(a), int(b)) for a, b in edges)
        faces = tuple(tuple(map(_as_side, f)) for f in faces)
        key = (edges, faces)
        found = _STRUCTURES.get(key)
        if found is None:
            found = _Structure(edges, faces)
            _STRUCTURES.keep(key, found, len(faces))
    return found


# The bound of the structure cache, in faces held over all triangulations.
# Worst case, when nothing else keeps a structure's edges and faces alive, it
# holds 1.0-1.2 kB per face (tracemalloc, CPython 3.11, numpy 2.4, open fans
# of 12-2000 faces with vertex ids above 1000; arrays, key tuples and Side
# objects), so the cache holds at most ~9.5 MB.  Each structure also keeps the
# _Disk data of disks covering at most as many faces as it has, rim walks
# included; that adds at most ~0.95 kB per face (one-face disks, the worst
# case, measured the same way on fans of 12-2000 faces; 0.07-0.35 kB per face
# for disks of 4-64 faces), so ~17 MB in all.  And each structure keeps the
# plans of its splices, flips and loops (_Structure.plan) that built, none
# holding an error, up to _PLAN_ENTRIES per face of their sizes: index
# entries, and _PLAN_OVERHEAD more per plan, enough for a flip plan on every
# edge.  Filled with plans of one kind, a structure holds 42-91 bytes per unit
# (closed loop plans 39-41, and 44-47 for loops once around a vertex, which
# keep their corners too, on closed surfaces of 12 and 20 faces), so at most
# ~2.2 kB per face (measured the same way on fans of 12 and 200 faces and on
# closed surfaces of 16 and 90 faces, the keys included), ~18 MB more in all.  The structures plans lead to are
# held weakly, and no other cache holds one, so they are the cache's and not
# counted again.  The cone-surfaces benchmark keeps at most 15.6 units per
# face (the torus structure's six splice plans).
_STRUCTURE_FACES = 8192
_STRUCTURES = _Kept(_STRUCTURE_FACES)
_PLAN_ENTRIES = 24
_PLAN_OVERHEAD = 16


class CornerTables:
    """Gather tables of one triangulation, built once per process with its
    _Structure from the (F, 3) face -> edge and corner -> vertex arrays, and
    shared read-only by every metric on it (every surface on these faces,
    catalog.solve_metric's trials).  They are the surface's only copy of
    those arrays.

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
        for a in (self.sides, corner_vertices, self.cells, self.cosine_at):
            _read_only(a)

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


def resolve_loop(loop) -> list[tuple[int, int]]:
    """A loop of (face, exit side index) steps, as a list of int pairs."""
    if not loop:
        raise GeometryError("empty loop")
    return [(int(f), int(i)) for f, i in loop]


def _uses_of(structure: _Structure, e: int) -> list[tuple[int, int]]:
    """The (face, side index) pairs that use edge e, in face order."""
    return [divmod(k, 3) for k in sorted(structure.edge_sides[:, e].tolist()) if k >= 0]


def holonomy_of_loop(s: ConeSurface, loop) -> Proj2:
    """Holonomy of a closed face path, as a projective 2x2 class.

    The isometry carrying the base face from its own frame to where the
    path develops it back: the ordered product T[s_0] ... T[s_k] of the
    surface's closed-form transitions (ConeSurface._transition_table) over
    the steps s_0, ..., s_k.  Face paths never meet vertices, so cone points
    are automatically avoided.

    A loop whose steps are the fan once around the vertex where its first
    exit side ends (the loop loop_around_vertex gives from that corner) has
    that product in closed form, E R(Theta) E^{-1}: the rotation by the sum
    Theta of the corner angles it passes there, added in ascending corner
    order as vertex_angle_sums adds them, about the vertex, with E the base
    face's frame at that corner (_rotation_at).  Such a loop builds no
    transition table.

    The walk is the loop's plan on the structure (_Loop), worked out once
    per loop: it raises GeometryError at the first step whose face or side
    is out of range, that does not chain or crosses a boundary side, or at a
    path that misses its base face.  Each call then raises
    NotHyperbolicError at the first face of the loop with a degenerate
    corner."""
    steps = resolve_loop(loop)
    plan, _ = s._structure.plan(("loop", tuple(steps)), _plan_loop)
    angles, degenerate = s._corners()
    if np.count_nonzero(degenerate):
        bad = degenerate[plan.faces].any(axis=1)
        if bad.any():
            raise NotHyperbolicError(f"degenerate corner at face {plan.faces[np.argmax(bad)]}")
    if plan.corners is not None:
        f, side = steps[0]
        return _rotation_at(s, 3 * f + (side + 1) % 3, sum(angles.ravel()[plan.corners].tolist()))
    factors = s._transition_table()[plan.faces, plan.sides]
    h = factors[0]
    for t in factors[1:]:
        h = h @ t
    return Proj2(h)


def _rotation_at(s: ConeSurface, corner: int, theta: float) -> Proj2:
    """E R(theta) E^{-1}: the rotation by theta about the vertex at a flat
    corner 3 f + i, in the frame of face f, where E = E_{f,i} is the frame
    at corner i (ConeSurface._transition_table), built from the same
    factors B(a_{k-1}) R(pi - alpha_k).  With E = [[p, q], [r, t]] of
    determinant 1 and J = R(pi) = [[0, -1], [1, 0]],
        E R(theta) E^{-1} = cos(theta/2) I + sin(theta/2) E J E^{-1},
        E J E^{-1} = [[pr + qt, -(p^2 + q^2)], [r^2 + t^2, -(pr + qt)]]."""
    f, i = divmod(corner, 3)
    p, q, r, t = 1.0, 0.0, 0.0, 1.0
    if i:
        angles = s._corners()[0][f].tolist()
        sides = s.lengths[s._tables.face_edges[f]].tolist()
        for k in range(1, i + 1):
            # E B(a) R(pi - alpha); the half angle of the rotation has cosine
            # sin(alpha/2) and sine cos(alpha/2)
            grow, shrink = math.exp(sides[k - 1] / 2.0), math.exp(-sides[k - 1] / 2.0)
            cos_h, sin_h = math.sin(angles[k] / 2.0), math.cos(angles[k] / 2.0)
            p, q = (p * grow * cos_h + q * shrink * sin_h, q * shrink * cos_h - p * grow * sin_h)
            r, t = (r * grow * cos_h + t * shrink * sin_h, t * shrink * cos_h - r * grow * sin_h)
    c, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    m = p * r + q * t
    return Proj2(np.array([[c + sn * m, -sn * (p * p + q * q)], [sn * (r * r + t * t), c - sn * m]]))


class _Loop(NamedTuple):
    """The plan of a closed face loop (holonomy_of_loop): its faces, which
    are the faces its walk reaches in order, and its exit sides; for a loop
    once around a vertex (_fan_corners), the flat corners 3 f + i at that
    vertex it passes, ascending, and None for every other loop."""

    faces: np.ndarray
    sides: np.ndarray
    corners: np.ndarray | None
    leads_to = None

    @property
    def size(self) -> int:
        return _PLAN_OVERHEAD + (2 if self.corners is None else 3) * len(self.faces)


def _plan_loop(structure: _Structure, key: tuple) -> tuple[_Loop, None]:
    """The _Loop of the steps in key ("loop", steps): the walk
    ConeSurface.neighbor_across takes, face after face, raising what it
    meets."""
    _, steps = key
    f0 = f = steps[0][0]
    for fi, si in steps:
        if fi != f:
            raise GeometryError("loop steps do not chain")
        f, _ = _across(structure, f, si)
    if f != f0:
        raise GeometryError("loop does not return to its base face")
    faces, sides = np.array(steps, dtype=np.intp).T
    corners = _fan_corners(structure, steps)
    if corners is not None:
        corners = _read_only(np.array(sorted(corners), dtype=np.intp))
    return _Loop(faces, sides, corners), None


def _fan_corners(structure: _Structure, steps) -> list[int] | None:
    """The flat corners 3 f + i a closed loop passes, in loop order, if its
    steps are the fan around the vertex where its first exit side ends, the
    walk _plan_around takes from that corner, once; else None (a double
    turn, a fan walked backwards, any other loop).  The steps have passed
    _plan_loop's walk, so each crosses a glued side."""
    f, side = steps[0]
    start = corner = 3 * f + (side + 1) % 3
    corners = []
    for f, side in steps:
        # the fan leaves corner i of f across side i + 2, which ends there
        if 3 * f + (side + 1) % 3 != corner:
            return None
        corners.append(corner)
        # the glued side starts at the vertex: it is the next corner's
        corner = int(structure.neighbors[f, side])
        if corner == start:
            break
    return corners if corner == start and len(corners) == len(steps) else None


def loop_around_vertex(s: ConeSurface, v: int, base_face: int | None = None) -> list:
    """The positively oriented face loop circling vertex v once, as
    (face, side) steps; its holonomy is elliptic of the cone angle at v.

    It starts at the first corner at v (in face order, or in base_face) of
    the structure's corner -> vertex table and crosses, face after face,
    the side arriving at v (neighbor_across, the glued-side table).  The
    loop is the plan of (v, base_face) on the structure (_Around), worked
    out once.  A base face that is not a face id raises GeometryError
    naming it, as neighbor_across does."""
    plan, _ = s._structure.plan(("around", v, base_face), _plan_around)
    return list(plan.steps)


class _Around(NamedTuple):
    """The plan of a loop around a vertex (loop_around_vertex): its steps."""

    steps: tuple
    leads_to = None

    @property
    def size(self) -> int:
        return _PLAN_OVERHEAD + len(self.steps)


def _plan_around(structure: _Structure, key: tuple) -> tuple[_Around, None]:
    """The _Around of key ("around", v, base_face)."""
    _, v, base_face = key
    corner_vertices = structure.tables.corner_vertices
    n = len(corner_vertices)
    if base_face is None:
        at = np.flatnonzero(corner_vertices.ravel() == v)
    elif base_face in range(n):
        at = 3 * int(base_face) + np.flatnonzero(corner_vertices[int(base_face)] == v)
    else:
        raise GeometryError(f"face id {base_face} is not a face of the surface (0..{n - 1})")
    if not len(at):
        raise GeometryError(f"vertex {v} not found" + ("" if base_face is None else " in base face"))
    steps = []
    start = f, i = divmod(int(at[0]), 3)
    # glued sides pair up, so the walk comes back to its start or meets the rim
    while True:
        # cross the side arriving at v (side i+2 ends at corner i)
        exit_side = (i + 2) % 3
        steps.append((f, exit_side))
        f, i = _across(structure, f, exit_side)
        if (f, i) == start:
            break
    return _Around(tuple(steps)), None


def _across(structure: _Structure, f: int, side_index: int) -> tuple[int, int]:
    """(face, side index) glued to side side_index of face f
    (ConeSurface.neighbor_across); a face or side out of range, or a
    boundary side, raises GeometryError."""
    n = len(structure.faces)
    if not 0 <= f < n:
        raise GeometryError(f"face id {f} is not a face of the surface (0..{n - 1})")
    if not 0 <= side_index < 3:
        raise GeometryError(f"side index {side_index} is not a side of a face (0..2)")
    k = structure.neighbors[f, side_index]
    if k < 0:
        raise GeometryError(f"edge {structure.faces[f][side_index].edge} is a boundary edge")
    return divmod(int(k), 3)


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
        n = len(self.surface.faces)
        for f in sorted(self.face_ids):
            if not 0 <= f < n:
                raise GeometryError(f"face id {f} is not a face of the surface (0..{n - 1})")
        # the spec is frozen: its sets come from the structure, which walks
        # each face set once
        object.__setattr__(self, "_disk", self.surface._structure.disk(self.face_ids))

    @property
    def euler_characteristic(self) -> int:
        return 1  # _walk_disk refuses every other face set

    def boundary_edges(self) -> list[int]:
        return list(self._disk.boundary_edges)

    def interior_vertices(self) -> set[int]:
        return set(self._disk.interior_vertices)

    def marked_angles(self) -> dict[int, float]:
        s = self.surface
        return {v: s.cone_angles[v] for v in self._disk.interior_vertices if v in s.cone_angles}

    def rim(self) -> list[tuple[int, int]]:
        """The rim as (face, side index) steps, as the disk's faces traverse
        it: from the first rim side of the lowest face that has one, each
        step leaves the vertex the last one reached."""
        return list(self._disk.rim)

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


def splice_disk(
    disk: DiskSpec, patch: ConeSurface, lengths, cone_angles
) -> tuple[ConeSurface, DiskSpec]:
    """The disk's surface with the disk's faces replaced by the patch, a
    disk glued in along the rim; returns (surface, the patch's faces in it).

    The patch's rim is its edges 0..k-1, edge i running from vertex i to
    vertex i+1 (mod k) as its faces traverse it (_patch_rim).  lengths are
    those of its edges k, k+1, ..., the rim keeping the host's; cone_angles
    are by patch vertex, and replace the host's inside the disk.  Patch
    vertex i lands on the tail of rim step i (DiskSpec.rim), whose Side the
    patch face takes.  The patch's interior vertices, edges and faces take
    the disk's interior ids in ascending order, then new ids past the
    host's last, so nothing off the disk is renumbered; a patch with fewer
    interior edges or faces than the disk is refused.  The angle check is
    off: the maker switches it on once the metric is final.

    The spliced structure and its id maps are the plan of (disk faces,
    patch) on the host's structure (_Splice), worked out once; each call
    places the patch lengths and maps the cone angles."""
    host = disk.surface
    plan, spliced = host._structure.plan(("splice", disk.face_ids, patch._structure), _plan_splice)
    if len(lengths) != len(plan.edge_ids):
        raise GeometryError("need one length per interior edge of the patch")
    all_lengths = np.concatenate((host.lengths, np.empty(len(spliced.edges) - len(host.lengths))))
    all_lengths[plan.edge_ids] = np.asarray(lengths, dtype=float)
    cones = {v: a for v, a in host.cone_angles.items() if v not in disk._disk.interior_vertices}
    cones.update((plan.vertex[v], a) for v, a in cone_angles.items())
    surface = _surface_on(spliced, all_lengths, cones)
    return surface, DiskSpec(surface, plan.face_ids)


class _Splice(NamedTuple):
    """The plan of splicing a patch structure into a disk of a host
    structure (splice_disk): the spliced structure (weakly), the spliced
    ids of the patch's interior edges, whose lengths a call passes (every
    other edge keeps the host's length), the patch vertex -> spliced vertex
    map and the patch's faces in the spliced structure."""

    leads_to: weakref.ref
    edge_ids: np.ndarray
    vertex: dict
    face_ids: frozenset

    @property
    def size(self) -> int:
        return _PLAN_OVERHEAD + len(self.edge_ids) + len(self.vertex) + len(self.face_ids)


def _plan_splice(host: _Structure, key: tuple) -> tuple[_Splice, _Structure]:
    """The _Splice of key ("splice", disk faces, patch structure), refusing
    a patch whose rim does not fit the disk's or that has fewer interior
    edges or faces than the disk."""
    _, face_ids, patch = key
    disk = host.disk(face_ids)
    rim = [host.faces[f][i] for f, i in disk.rim]
    k = _patch_rim(patch)
    if k != len(rim):
        raise GeometryError(f"a patch with a rim of {k} edges does not fit a rim of {len(rim)}")
    faces_in = sorted(face_ids)
    edges_in = sorted({s.edge for f in faces_in for s in host.faces[f]} - set(disk.boundary_edges))
    new_edges = len(patch.edges) - k - len(edges_in)
    new_faces = len(patch.faces) - len(faces_in)
    if new_edges < 0 or new_faces < 0:
        raise GeometryError("the patch has fewer interior edges or faces than the disk")
    # patch id -> host id
    n_vertices, n_edges, n_faces = host.tables.shape[0], len(host.edges), len(host.faces)
    tails = [host.edges[side.edge][1 - side.forward] for side in rim]
    inside = sorted(disk.interior_vertices)
    vertex = dict(zip(patch.vertices, chain(tails, inside, count(n_vertices))))
    edge_ids = [*edges_in, *range(n_edges, n_edges + new_edges)]
    face_ids = [*faces_in, *range(n_faces, n_faces + new_faces)]
    edges = [*host.edges, *[None] * new_edges]
    for e, (t, h) in zip(edge_ids, patch.edges[k:]):
        edges[e] = (vertex[t], vertex[h])
    sides = [
        rim[s.edge] if s.edge < k else Side(edge_ids[s.edge - k], s.forward)
        for s in chain(*patch.faces)
    ]
    faces = [*host.faces, *[None] * new_faces]
    for n, f in enumerate(face_ids):
        faces[f] = (sides[3 * n], sides[3 * n + 1], sides[3 * n + 2])
    spliced = _interned(tuple(edges), tuple(faces))
    edge_ids = _read_only(np.array(edge_ids, dtype=np.intp))
    return _Splice(weakref.ref(spliced), edge_ids, vertex, frozenset(face_ids)), spliced


def _patch_rim(structure: _Structure) -> int:
    """The rim length k of a splice patch, whose rim must be its edges
    0..k-1, edge i running from vertex i to vertex i+1 (mod k) as its faces
    traverse it (GeometryError otherwise)."""
    k = len(structure.boundary_edges)
    rim_sides = [(s.edge, s.forward) for f in structure.faces for s in f if s.edge < k]
    if sorted(structure.boundary_edges) != list(range(k)) or any(
        structure.edges[e] != ((e, (e + 1) % k) if forward else ((e + 1) % k, e))
        for e, forward in rim_sides
    ):
        raise GeometryError(
            "a patch's rim must be its edges 0..k-1, edge i running from vertex i "
            "to vertex i+1 (mod k) as its faces traverse it"
        )
    return k


def delaunay_normalize(s: ConeSurface) -> ConeSurface:
    """Flip interior edges until the Delaunay angle condition holds: while
    some edge glued to two different faces has facing corners that sum past
    pi + DELAUNAY_MARGIN, flip the lowest-numbered such edge (flip_edge).

    Each round is one vectorized pass over the structure's flip candidates
    (_Structure.flips) on the surface's cached corner table.  A degenerate
    corner facing a candidate edge that the scan reaches raises
    NotHyperbolicError naming its face (the lower face first)."""
    current = s
    for _ in range(10000):
        e = _first_flip(current)
        if e is None:
            return current
        current = flip_edge(current, e)
    raise ArithmeticError("Delaunay normalization did not terminate")


def _first_flip(s: ConeSurface) -> int | None:
    """The lowest edge that delaunay_normalize flips next, or None."""
    edges, corners = s._structure.flips
    angles, degenerate = s._corners()
    bad = degenerate.ravel()[corners]
    facing = angles.ravel()[corners]
    stop = bad.any(axis=0) | (facing[0] + facing[1] > PI + DELAUNAY_MARGIN)
    if not stop.any():
        return None
    k = int(np.argmax(stop))
    for which in (0, 1):
        if bad[which, k]:
            raise NotHyperbolicError(f"degenerate corner at face {corners[which, k] // 3}")
    return int(edges[k])


def flip_edge(s: ConeSurface, e: int) -> ConeSurface:
    """Replace the diagonal e of its two adjacent triangles by the other one.

    The quadrilateral they form must be convex: where the two corners at
    either end of e sum to pi or more, the other diagonal leaves it, and a
    flip would change the cone angles, so it raises GeometryError naming
    that vertex and angle sum instead.

    The flipped structure and the corners and sides read are the plan of
    the edge on the structure (_Flip), worked out once; building it raises
    GeometryError where e is out of range, a boundary or self-glued edge.
    Each call then checks the metric: the four corners for degeneracy,
    convexity and the new diagonal's length."""
    plan, flipped = s._structure.plan(("flip", e), _plan_flip)
    angles, degenerate = s._corners()
    for f, i in plan.corners:
        if degenerate[f, i]:
            raise NotHyperbolicError(f"degenerate corner at face {f}")
    # the quadrilateral's angles at the tail of e in f1 and at its head
    (t1, t2, h1, h2) = (float(angles[f, i]) for f, i in plan.corners)
    tail, head = t1 + t2, h1 + h2
    for vertex, angle in zip(plan.vertices, (tail, head)):
        if angle >= PI:
            raise GeometryError(
                f"cannot flip edge {e}: the quadrilateral is not convex at vertex "
                f"{vertex}, where its corners sum to {angle:.6g} >= pi"
            )
    # the new diagonal by the law of cosines at the tail, across both corner
    # angles there
    into, out_of = s.lengths[plan.sides[0]], s.lengths[plan.sides[1]]
    cosh_new = np.cosh(into) * np.cosh(out_of) - np.sinh(into) * np.sinh(out_of) * np.cos(tail)
    if not cosh_new > 1.0:
        raise NotHyperbolicError("flip would degenerate the quadrilateral")
    lengths = s.lengths.copy()
    lengths[e] = float(np.arccosh(cosh_new))
    return _surface_on(flipped, lengths, s.cone_angles, s.check_angles)


class _Flip(NamedTuple):
    """The plan of flipping an edge (flip_edge): the flipped structure
    (weakly), the corners (face, i) at the tail of the edge in its lower
    face and in its higher one, then at its head, the vertices at its tail
    and head, and the sides into the tail in the lower face and out of it in
    the higher one."""

    leads_to: weakref.ref
    corners: tuple
    vertices: tuple
    sides: tuple
    size = _PLAN_OVERHEAD


def _plan_flip(structure: _Structure, key: tuple) -> tuple[_Flip, _Structure]:
    """The _Flip of key ("flip", e), refusing an edge out of range, a
    boundary or a self-glued edge."""
    _, e = key
    n = len(structure.edges)
    if not 0 <= e < n:
        raise GeometryError(f"edge id {e} is not an edge of the surface (0..{n - 1})")
    uses = _uses_of(structure, e)
    if len(uses) != 2:
        raise GeometryError("cannot flip a boundary edge")
    (f1, i1), (f2, i2) = uses
    if f1 == f2:
        raise GeometryError("cannot flip a self-glued edge")
    # the tail of e in f1 is corner i1 of f1 and corner i2 + 1 of f2, its
    # head corner i1 + 1 of f1 and i2 of f2
    corners = ((f1, i1), (f2, (i2 + 1) % 3), (f1, (i1 + 1) % 3), (f2, i2))
    at = structure.tables.corner_vertices
    vertices = (int(at[f1, i1]), int(at[f1, (i1 + 1) % 3]))
    sides1, sides2 = structure.faces[f1], structure.faces[f2]
    sides = (sides1[(i1 + 2) % 3].edge, sides2[(i2 + 1) % 3].edge)
    # rebuild the two faces: quadrilateral corners around e
    a, b = sides1[(i1 + 1) % 3], sides1[(i1 + 2) % 3]
    c, d = sides2[(i2 + 1) % 3], sides2[(i2 + 2) % 3]
    edges = list(structure.edges)
    edges[e] = (int(at[f1, (i1 + 2) % 3]), int(at[f2, (i2 + 2) % 3]))
    faces = list(structure.faces)
    faces[f1] = (Side(e, True), d, a)
    faces[f2] = (Side(e, False), b, c)
    flipped = _interned(tuple(edges), tuple(faces))
    return _Flip(weakref.ref(flipped), corners, vertices, sides), flipped


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
