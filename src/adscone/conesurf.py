"""Hyperbolic surfaces with cone points, as geodesic triangulations.

A surface is a list of oriented triangles glued along edges.  Multi-edges and
self-loop edges are allowed (one-vertex torus triangulations need both), so
faces are described by sides (edge id, direction) rather than vertex pairs.
Edge lengths determine the corner angles by the hyperbolic law of cosines;
cone points are vertices whose total angle is prescribed to something other
than 2*pi.

Developing maps run in the hyperboloid model of H^2 inside R^{1,2}; loop
holonomies land in SO0(1,2) and are returned as projective 2x2 classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NotHyperbolicError
from .isom import Proj2, psl_of_lorentz3
from .linalg import cross12, dot12

PI = np.pi
TWO_PI = 2.0 * np.pi

ANGLE_TOL = 1e-9

# corner i of a face lies between its sides i and i+2 (= i-1) and faces side i+1
_CORNER = np.arange(3)
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])

# what a surface shares with every other metric on its triangulation
_COMBINATORICS = (
    "edges", "faces", "_side_table_cache", "_vertices", "_face_edges", "_corner_vertices"
)


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
        return 1 + self._vertices[-1]

    @property
    def vertices(self) -> list[int]:
        return list(self._vertices)

    def _side_table(self) -> dict[int, list[tuple[int, int]]]:
        """edge id -> list of (face, side index) using it."""
        cached = getattr(self, "_side_table_cache", None)
        if cached is not None:
            return cached
        table: dict[int, list[tuple[int, int]]] = {}
        for fi, f in enumerate(self.faces):
            for si, s in enumerate(f):
                table.setdefault(s.edge, []).append((fi, si))
        object.__setattr__(self, "_side_table_cache", table)
        return table

    def boundary_edges(self) -> list[int]:
        return [e for e, uses in self._side_table().items() if len(uses) == 1]

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
        """Structural checks; sets the vertex list and the (F, 3) face -> edge
        and corner -> vertex index arrays that the metric computations run on."""
        table = self._side_table()
        for e, uses in table.items():
            if len(uses) > 2:
                raise GeometryError(f"edge {e} used by more than two face sides")
            if len(uses) == 2:
                (f1, s1), (f2, s2) = uses
                if self.faces[f1][s1].forward == self.faces[f2][s2].forward:
                    raise GeometryError(f"edge {e} traversed twice in the same direction")
        for fi, f in enumerate(self.faces):
            for i in range(3):
                head = self.side_endpoints(f[i])[1]
                tail_next = self.side_endpoints(f[(i + 1) % 3])[0]
                if head != tail_next:
                    raise GeometryError(f"face {fi} side chain does not close")
        face_edges = np.array([[s.edge for s in f] for f in self.faces], dtype=np.intp)
        corners = np.array([self.face_corners(fi) for fi in range(len(self.faces))], dtype=np.intp)
        object.__setattr__(self, "_vertices", tuple(sorted({v for e in self.edges for v in e})))
        object.__setattr__(self, "_face_edges", face_edges.reshape(-1, 3))
        object.__setattr__(self, "_corner_vertices", corners.reshape(-1, 3))

    def _check_metric(self):
        """Length checks (and the angle check when check_angles is set)."""
        if np.any(self.lengths <= 0) or not np.all(np.isfinite(self.lengths)):
            raise GeometryError("edge lengths must be positive and finite")
        if len(self.lengths) != len(self.edges):
            raise GeometryError("need one length per edge")
        sides = self.lengths[self._face_edges]
        broken = np.any(sides >= sides[:, _NEXT] + sides[:, _PREV] - 1e-12, axis=1)
        if broken.any():
            raise NotHyperbolicError(
                f"face {int(np.argmax(broken))} violates the triangle inequality"
            )
        if self.check_angles:
            bad = self.angle_defect_report()
            if bad:
                worst = max(bad.items(), key=lambda kv: abs(kv[1]))
                raise GeometryError(
                    "vertex angle sums do not match targets: worst vertex "
                    f"{worst[0]} deviates by {worst[1]:.3e}"
                )

    # -- metric ------------------------------------------------------------

    def _corner_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(angles, degenerate), both (F, 3) over (face, corner): one
        evaluation of the law of cosines per surface, kept like the side
        table (the surface is frozen)."""
        cached = getattr(self, "_corner_cache", None)
        if cached is not None:
            return cached
        cosv = law_of_cosines(self.lengths[self._face_edges])
        cached = (np.arccos(np.clip(cosv, -1.0, 1.0)), np.abs(cosv) > 1 + 1e-12)
        object.__setattr__(self, "_corner_cache", cached)
        return cached

    def corner_angle(self, f: int, i: int) -> float:
        angles, degenerate = self._corner_table()
        if degenerate[f, i]:
            raise NotHyperbolicError(f"degenerate corner at face {f}")
        return float(angles[f, i])

    def corner_angles(self) -> np.ndarray:
        """All corner angles, (F, 3); corner i of a face lies between its
        sides i and i+2 and faces side i+1."""
        angles, degenerate = self._corner_table()
        _raise_degenerate(degenerate)
        return angles

    def vertex_angle_sums(self, vertices=None) -> dict[int, float]:
        """Total corner angle at each of the given vertices (default: all).
        A degenerate corner at one of them raises NotHyperbolicError."""
        angles, degenerate = self._corner_table()
        corners = self._corner_vertices
        if vertices is None:
            vertices = self.vertices
            at = np.ones(corners.shape, dtype=bool)
        else:
            at = (corners[..., None] == np.asarray(vertices)).any(axis=-1)
        _raise_degenerate(degenerate & at)
        sums = np.bincount(corners[at], weights=angles[at], minlength=self.num_vertices)
        return {v: float(sums[v]) for v in vertices}

    def angle_sum_jacobian(self) -> np.ndarray:
        """d(vertex angle sum) / d(log edge length), (num_vertices, E).

        Closed form of the hyperbolic law of cosines: for the corner angle
        alpha facing side a, between sides b and c,
            d alpha / d a = sinh a / (sinh b sinh c sin alpha),
            d alpha / d b = -(d alpha / d a) cos gamma,
        where gamma is the angle where a meets b (likewise for c)."""
        angles = self.corner_angles()
        sides = self.lengths[self._face_edges]
        sh = np.sinh(sides)
        d_opp = sh[:, _NEXT] / (sh * sh[:, _PREV] * np.sin(angles))
        cosv = np.cos(angles)
        # grad[f, i, k] = d angle(f, i) / d side(f, k); side i meets side
        # i+1 at corner i+1, side i+2 meets it at corner i+2
        grad = np.empty((len(self.faces), 3, 3))
        grad[:, _CORNER, _NEXT] = d_opp
        grad[:, _CORNER, _CORNER] = -d_opp * cosv[:, _NEXT]
        grad[:, _CORNER, _PREV] = -d_opp * cosv[:, _PREV]
        grad *= sides[:, None, :]
        n, m = self.num_vertices, len(self.edges)
        cells = self._corner_vertices[:, :, None] * m + self._face_edges[:, None, :]
        return np.bincount(cells.ravel(), weights=grad.ravel(), minlength=n * m).reshape(n, m)

    def target_angle(self, v: int) -> float:
        return self.cone_angles.get(v, TWO_PI)

    def angle_defect_report(self, tol: float = ANGLE_TOL) -> dict[int, float]:
        """Vertices whose angle sum misses the target by more than tol."""
        sums = self.vertex_angle_sums()
        boundary = self.boundary_vertices()
        bad = {}
        for v, s in sums.items():
            if v in boundary:
                continue
            dev = s - self.target_angle(v)
            if abs(dev) > tol:
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
        e = self.faces[f][side_index].edge
        uses = [(fi, si) for (fi, si) in self._side_table()[e] if fi != f or si != side_index]
        if not uses:
            raise GeometryError(f"edge {e} is a boundary edge")
        return uses[0]

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


def law_of_cosines(sides: np.ndarray) -> np.ndarray:
    """Cosines of the corner angles of hyperbolic triangles, unclipped.

    sides[..., i] is the length of side i, which runs from corner i to corner
    i+1; the result's [..., i] is the cosine of the angle at corner i."""
    ch, sh = np.cosh(sides), np.sinh(sides)
    return (ch * ch[..., _PREV] - ch[..., _NEXT]) / (sh * sh[..., _PREV])


def _raise_degenerate(degenerate: np.ndarray):
    """NotHyperbolicError naming the first face with a flagged corner."""
    if degenerate.any():
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


def gauss_bonnet_area(s: ConeSurface, cross_check_tol: float = 1e-8) -> float:
    """Area from the vertex form of Gauss-Bonnet, checked against the sum of
    triangle angle defects.  Closed surfaces only."""
    if s.boundary_edges():
        raise GeometryError("gauss_bonnet_area expects a closed surface")
    sums = s.vertex_angle_sums()
    area = sum(TWO_PI - sums[v] for v in s.vertices) - TWO_PI * s.euler_characteristic
    defects = float(np.sum(PI - s.corner_angles().sum(axis=1)))
    if abs(area - defects) > cross_check_tol:
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


def _uses_of(s: ConeSurface, e: int):
    return s._side_table()[e]


def holonomy_of_loop(s: ConeSurface, loop) -> Proj2:
    """Holonomy of a closed face path, as a projective 2x2 class.

    The loop is developed in the hyperboloid model; the holonomy is the
    isometry carrying the initial placement of the base face to its final
    placement.  Face paths never meet vertices, so cone points are
    automatically avoided."""
    L = holonomy_lorentz(s, loop)
    return psl_of_lorentz3(L)


def holonomy_lorentz(s: ConeSurface, loop) -> np.ndarray:
    steps = resolve_loop(s, loop)
    f0 = steps[0][0]
    initial = s.place_face(f0)
    placed = initial
    f = f0
    for fi, si in steps:
        if fi != f:
            raise GeometryError("loop steps do not chain")
        f, placed = s.develop_across(f, placed, si)
    if f != f0:
        raise GeometryError("loop does not return to its base face")
    return placed.T @ np.linalg.inv(initial.T)


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
        if self.euler_characteristic != 1:
            raise GeometryError("sub-complex is not a disk (chi != 1)")

    @property
    def _elements(self):
        s = self.surface
        es, vs = set(), set()
        for f in self.face_ids:
            for si in range(3):
                es.add(s.faces[f][si].edge)
            vs.update(s.face_corners(f))
        return vs, es

    @property
    def euler_characteristic(self) -> int:
        vs, es = self._elements
        return len(vs) - len(es) + len(self.face_ids)

    def boundary_edges(self) -> list[int]:
        s = self.surface
        out = []
        for f in self.face_ids:
            for si in range(3):
                e = s.faces[f][si].edge
                uses = [fi for fi, _ in _uses_of(s, e)]
                inside = sum(1 for fi in uses if fi in self.face_ids)
                if inside == 1:
                    out.append(e)
        return sorted(set(out))

    def interior_vertices(self) -> set[int]:
        s = self.surface
        vs, _ = self._elements
        bvs = set()
        for e in self.boundary_edges():
            bvs.update(s.edges[e])
        return vs - bvs

    def marked_angles(self) -> dict[int, float]:
        s = self.surface
        return {v: s.cone_angles[v] for v in self.interior_vertices() if v in s.cone_angles}

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


def delaunay_normalize(s: ConeSurface, max_flips: int = 10000) -> ConeSurface:
    """Flip interior edges until the Delaunay angle condition holds."""
    current = s
    for _ in range(max_flips):
        flipped = False
        for e in range(len(current.edges)):
            if _needs_flip(current, e):
                current = flip_edge(current, e)
                flipped = True
                break
        if not flipped:
            return current
    raise ArithmeticError("Delaunay normalization did not terminate")


def _needs_flip(s: ConeSurface, e: int, tol: float = 1e-9) -> bool:
    uses = _uses_of(s, e)
    if len(uses) != 2:
        return False
    (f1, s1), (f2, s2) = uses
    if f1 == f2:
        return False  # self-glued edges are never flipped
    a1 = s.corner_angle(f1, (s1 + 2) % 3)
    a2 = s.corner_angle(f2, (s2 + 2) % 3)
    return a1 + a2 > PI + tol


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


def disks_isometric(
    s1: ConeSurface,
    d1: DiskSpec,
    s2: ConeSurface,
    d2: DiskSpec,
    tol: float = 1e-8,
) -> bool:
    """Whether two disk sub-complexes are isometric (marked angles match,
    edge lengths match after a combinatorial isomorphism), trying every
    boundary correspondence in both orientations after Delaunay
    normalization of both disks."""
    if d1.surface is not s1 or d2.surface is not s2:
        raise GeometryError("disk specs must reference their surfaces")
    if sorted(d1.marked_angles().values()) != sorted(d2.marked_angles().values()):
        if not _angles_close(d1, d2, tol):
            return False
    a, _ = extract_disk_surface(d1)
    b, _ = extract_disk_surface(d2)
    a = delaunay_normalize(a)
    b = delaunay_normalize(b)
    if len(a.faces) != len(b.faces):
        return False
    boundary_b = [
        (f, si)
        for f in range(len(b.faces))
        for si in range(3)
        if len(_uses_of(b, b.faces[f][si].edge)) == 1
    ]
    fa, sa = next(
        (f, si)
        for f in range(len(a.faces))
        for si in range(3)
        if len(_uses_of(a, a.faces[f][si].edge)) == 1
    )
    for fb, sb in boundary_b:
        for reflect in (False, True):
            if _match_from(a, (fa, sa), b, (fb, sb), reflect, tol):
                return True
    return False


def _angles_close(d1, d2, tol):
    a = sorted(d1.marked_angles().values())
    b = sorted(d2.marked_angles().values())
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def _match_from(a, flag_a, b, flag_b, reflect, tol):
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
            if abs(a.lengths[ea] - b.lengths[eb]) > tol:
                return False
            ua, ub = _uses_of(a, ea), _uses_of(b, eb)
            if len(ua) != len(ub):
                return False
            if len(ua) == 2:
                na = [(f, s) for f, s in ua if (f, s) != (fa, ia)][0]
                nb = [(f, s) for f, s in ub if (f, s) != (fb, ib)][0]
                stack.append((na, nb))
    if len(fmap) != len(a.faces):
        return False
    return True
