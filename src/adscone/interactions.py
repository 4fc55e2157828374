"""The graph of interactions: collision surgery, admissibility validation,
and the Van Kampen assembly of holonomies.

Vertices are spacial slices carrying a left and a right hyperbolic cone
metric on the same marked surface; edges are collisions, carrying the disks
that the surgery exchanges and the identification of the complement
generators.  Validation reduces complement isometry to holonomy matching on
those generators (a closed hyperbolic cone surface is determined by its
holonomy) and solves one conjugator per edge; the assembly composes those
conjugators to glue the per-vertex representations into one representation
of the glued fundamental group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .conesurf import (
    ConeSurface,
    DiskSpec,
    disks_isometric,
    dual_cycles,
    holonomy_of_loop,
    loop_around_vertex,
    resolve_loop,
    splice_disk,
)
from .errors import GeometryError
from .isom import Proj2, _canonical_stack, sylvester_rows
from .tolerances import ANGLE_MATCH, CONJUGATOR_NULL_ABS, CONJUGATOR_NULL_REL
from .tolerances import CONJUGATOR_RESIDUAL

if TYPE_CHECKING:
    from .hssurface import SingularHSSurface


@dataclass(frozen=True)
class SliceVertex:
    """A spacial slice: marked cone angles with its left and right metrics.

    generator_loops name the face loops whose holonomies present the slice's
    fundamental group (complement generators first, then meridians)."""

    name: str
    mu_l: ConeSurface
    mu_r: ConeSurface
    marked: dict = field(default_factory=dict)  # vertex id -> angle
    generator_loops: dict = field(default_factory=dict)  # name -> face loop

    def __post_init__(self):
        for surf in (self.mu_l, self.mu_r):
            for v, theta in self.marked.items():
                target = surf.cone_angles.get(v)
                if target is None or abs(target - theta) > ANGLE_MATCH:
                    raise GeometryError(
                        f"marked point {v} of slice {self.name} must be a cone point "
                        f"of angle {theta:.6g} in both metrics"
                    )


@dataclass(frozen=True)
class CollisionEdge:
    """A collision between two slices: before (past) and after (future)."""

    before: str
    after: str
    disk_before: frozenset[int]
    disk_after: frozenset[int]
    # identification of complement generators: name in before -> name in after
    identification: dict[str, str] = field(default_factory=dict)
    vanished: tuple[float, ...] = ()  # marked points of the before slice inside the disk
    created: tuple[float, ...] = ()  # marked points of the after slice inside the disk


@dataclass(frozen=True)
class InteractionGraph:
    vertices: dict
    edges: tuple
    initial: str | None = None
    final: str | None = None

    def vertex(self, name: str) -> SliceVertex:
        return self.vertices[name]


def time_reverse(g: InteractionGraph) -> InteractionGraph:
    """Reverse every edge and swap the initial/final flags."""
    edges = tuple(
        CollisionEdge(
            before=e.after,
            after=e.before,
            disk_before=e.disk_after,
            disk_after=e.disk_before,
            identification={v: k for k, v in e.identification.items()},
            vanished=e.created,
            created=e.vanished,
        )
        for e in g.edges
    )
    return InteractionGraph(dict(g.vertices), edges, initial=g.final, final=g.initial)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple

    def __bool__(self):
        return self.passed


# det X = x^T _DET_FORM x on 2x2 matrices X flattened row-major: the
# polarization of det is (X, Y) -> tr(adj(X) Y) / 2
_DET_FORM = 0.5 * np.array(
    [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0], [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
)


def solve_conjugator(pairs) -> tuple[Proj2, float]:
    """A projective C with C a C^{-1} = b for all (a, b), via the stacked
    Sylvester system; returns (C, residual).

    With a trivial centralizer the null space is one line and C spans it.
    Otherwise C is the representative of largest determinant over the
    orthonormal null basis: the top eigenvector of det's quadratic form
    restricted to the null space."""
    if not pairs:
        raise ValueError("no generator pairs to solve a conjugator from")
    am = np.array([a.m for a, _ in pairs]).reshape(-1, 2, 2)
    bm = np.array([b.m for _, b in pairs]).reshape(-1, 2, 2)
    # C am - bm C = 0, unknown C flattened row-major
    A = sylvester_rows(am, bm).reshape(-1, 4)
    _, sv, vt = np.linalg.svd(A)
    floor = max(CONJUGATOR_NULL_REL * sv[0], CONJUGATOR_NULL_ABS)
    null_dim = int(np.sum(sv <= floor)) or 1
    basis = vt[4 - null_dim :]
    # one null vector is its own top eigenvector: eigh of the 1x1 form is 1
    _, vecs = np.linalg.eigh(basis @ _DET_FORM @ basis.T)
    c = (vecs[:, -1] @ basis).reshape(2, 2)
    if np.linalg.det(c) <= 0:
        # a 2x2 sign flip cannot fix the determinant; the representations are
        # only conjugate through an orientation-reversing map
        raise GeometryError("conjugator is orientation-reversing or singular")
    C = Proj2(c)
    # the true inverse of the unit-determinant C.m: Proj2.inverse would
    # canonicalize it, negating it when tr C = 0
    p, q, r, s = C.m.ravel()
    c_inv = np.array([[s, -q], [-r, p]])
    resid = float(np.abs(C.m @ am @ c_inv - bm).max())
    return C, resid


def _holonomy_memo():
    """holonomy_of_loop, computed once per (surface object, loop) for as long
    as the returned function lives.  Callers keep it local to one call; the
    surfaces themselves carry no holonomy cache."""
    done = {}

    def holonomy(surf: ConeSurface, loop) -> Proj2:
        key = (id(surf), tuple(resolve_loop(loop)))
        if key not in done:
            done[key] = holonomy_of_loop(surf, loop)
        return done[key]

    return holonomy


def validate_geometric_data(
    g: InteractionGraph, tol: float = CONJUGATOR_RESIDUAL
) -> ValidationReport:
    """Admissibility of the geometric data on the graph:

    (1) every marked point is a cone point of its declared angle in both
        metrics of its slice (SliceVertex refuses any other at construction);
    (2) across each edge, the left metrics of the two slices have isometric
        complements, certified by matching holonomies of the identified
        complement generators (one conjugator per edge; an edge that
        identifies none certifies nothing and fails);
    (3) the same for the right metrics;
    additionally the exchanged disks carry the declared vanished/created cone
    points, and the before-disk is isometric between the left and right
    metrics when they differ."""
    return _validate(g, tol, _holonomy_memo())[0]


def _validate(g: InteractionGraph, tol: float, holonomy) -> tuple[ValidationReport, dict]:
    """validate_geometric_data, developing loops through the given memo, and
    the conjugators it certified: (edge index, side) -> C with
    C h_after C^{-1} = h_before on the identified generators.  A side whose
    surfaces are those of a side already solved (a static slice) reuses its
    conjugator."""
    failures = []
    conjugators = {}
    for ei, e in enumerate(g.edges):
        vb, va = g.vertex(e.before), g.vertex(e.after)
        edge = f"edge {e.before}->{e.after}"
        if not e.identification:  # no generators certify no isometry
            failures.append(f"(2/3) {edge}: identifies no complement generators")
        sides = (("l", vb.mu_l, va.mu_l), ("r", vb.mu_r, va.mu_r)) if e.identification else ()
        solved = {}  # (before surface, after surface) -> (C, residual) or error
        for side, sb, sa in sides:
            key = (id(sb), id(sa))
            if key not in solved:
                try:
                    pairs = []
                    for name_b, name_a in e.identification.items():
                        hb = holonomy(sb, vb.generator_loops[name_b])
                        pairs.append((holonomy(sa, va.generator_loops[name_a]), hb))
                    solved[key] = solve_conjugator(pairs)
                except (GeometryError, KeyError) as err:
                    solved[key] = err
            outcome = solved[key]
            if isinstance(outcome, Exception):
                failures.append(f"(2/3) {edge}, mu_{side}: {outcome}")
                continue
            C, resid = outcome
            conjugators[(ei, side)] = C
            if resid > tol:
                failures.append(
                    f"(2/3) {edge}: complement holonomies of mu_{side} differ by {resid:.3e}"
                )
        # disk contents
        try:
            db = DiskSpec(vb.mu_l, e.disk_before)
            da = DiskSpec(va.mu_l, e.disk_after)
        except GeometryError as err:
            failures.append(f"{edge}: bad disk: {err}")
            continue
        for which, disk, declared in (("before", db, e.vanished), ("after", da, e.created)):
            marked, declared = sorted(disk.marked_angles().values()), sorted(declared)
            gaps = [abs(a - b) for a, b in zip(marked, declared)]
            if len(marked) != len(declared) or max(gaps, default=0.0) > ANGLE_MATCH:
                failures.append(f"{edge}: {which}-disk contains {marked}, declared {declared}")
        if vb.mu_l is not vb.mu_r:
            db_r = DiskSpec(vb.mu_r, e.disk_before)
            if not disks_isometric(vb.mu_l, db, vb.mu_r, db_r):
                failures.append(
                    f"{edge}: before-disk not isometric between the left and right metrics"
                )
    return ValidationReport(passed=not failures, failures=tuple(failures)), conjugators


# ---------------------------------------------------------------------------
# holonomy assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyAssembly:
    """Per-vertex representations aligned by per-edge conjugators."""

    graph: InteractionGraph
    tables: dict  # vertex -> side -> {generator name: Proj2}
    conjugators: dict  # (edge index, side) -> Proj2
    alignment: dict  # vertex -> side -> Proj2 (cumulative conjugator)

    def evaluate(self, vertex: str, side: str, word) -> Proj2:
        """Holonomy of a word (sequence of generator names, 'name' or
        'name^-1') spoken in a vertex's generators, in the glued
        representation."""
        table = self.tables[vertex][side]
        align = self.alignment[vertex][side]
        out = Proj2.identity()
        for token in word:
            out = out @ _generator(table, token)
        return Proj2(align.m @ out.m @ np.linalg.inv(align.m))

    def relation_residual(self, edge: CollisionEdge) -> float:
        """Max deviation of the glued relations alpha_e(gamma) gamma^{-1}: the
        largest entry of |evaluate(before, side, [nb]) - evaluate(after, side,
        [na])| over both sides and the identified pairs (nb, na), bit for
        bit, with every pair of both slices and sides in one stack."""
        if not edge.identification:
            return 0.0
        words = zip((edge.before, edge.after), zip(*edge.identification.items()))
        stack, aligns = [], []
        for vertex, names in words:
            for side in ("l", "r"):
                table = self.tables[vertex][side]
                stack.append([_generator(table, name).m for name in names])
                aligns.append(self.alignment[vertex][side].m)
        out = _canonical_stack(stack)  # (4, k, 2, 2): before l, r; after l, r
        align = np.array(aligns)[:, None]
        glued = _canonical_stack(align @ out @ np.linalg.inv(align))
        return float(np.abs(glued[:2] - glued[2:]).max())


def _generator(table: dict, token: str) -> Proj2:
    """The generator a word's token names: 'name' or 'name^-1'."""
    if token.endswith("^-1"):
        return table[token[:-3]].inverse()
    return table[token]


def assemble_holonomy(g: InteractionGraph, tol: float = CONJUGATOR_RESIDUAL) -> HolonomyAssembly:
    """Glue the per-vertex holonomy representations along the edges.

    Refuses unvalidated graphs.  Each vertex contributes the holonomies of
    its marked generator loops for both metrics; each edge contributes the
    conjugator validation certified on the identified complement generators.
    Alignment is propagated from an arbitrary root vertex over a spanning
    tree of the graph, through C on a step from an edge's before slice to
    its after slice and through C's adjugate on a step back."""
    # one memo for validation and the tables: no loop is developed twice
    holonomy = _holonomy_memo()
    report, solved = _validate(g, tol, holonomy)
    if not report:
        raise GeometryError("graph fails validation: " + "; ".join(report.failures))
    tables = {}
    for name, v in g.vertices.items():
        tables[name] = {
            "l": {k: holonomy(v.mu_l, lp) for k, lp in v.generator_loops.items()},
            "r": {k: holonomy(v.mu_r, lp) for k, lp in v.generator_loops.items()},
        }
    conjugators = {}
    alignment = {name: {"l": None, "r": None} for name in g.vertices}
    root = g.initial if g.initial in g.vertices else sorted(g.vertices)[0]
    alignment[root] = {"l": Proj2.identity(), "r": Proj2.identity()}
    frontier = [root]
    seen = {root}
    while frontier:
        cur = frontier.pop()
        for ei, e in enumerate(g.edges):
            if cur not in (e.before, e.after) or {e.before, e.after} <= seen:
                continue
            other = e.after if cur == e.before else e.before
            for side in ("l", "r"):
                # C (other-gen) C^-1 = cur-gen aligns the new vertex
                C = solved[(ei, side)] if cur == e.before else solved[(ei, side)].inverse()
                alignment[other][side] = Proj2(alignment[cur][side].m @ C.m)
                conjugators[(ei, side)] = C
            seen.add(other)
            frontier.append(other)
    for name in g.vertices:
        if alignment[name]["l"] is None:
            raise GeometryError(f"vertex {name} is not connected to the graph root")
    return HolonomyAssembly(g, tables, conjugators, alignment)


# ---------------------------------------------------------------------------
# collision surgery
# ---------------------------------------------------------------------------


def surgery_collision(surface: ConeSurface, link: SingularHSSurface, at: int) -> InteractionGraph:
    """Add a collision below a static slice: the marked point `at` of the
    slice surface becomes the outcome of the collision of the link's two
    past particles.

    The link must be a causally regular HS-sphere whose future particle angle
    equals the cone angle at `at`.  The after slice is the surface itself;
    the before slice carries a metric with the link's two past cone angles in
    the exchanged disk and complement holonomies matching the after slice's,
    the computable content of the cut-and-paste locality of the surgery.
    """
    from .hssurface import SphereClass, classify_hs_sphere

    theta = surface.cone_angles.get(at)
    if theta is None:
        raise GeometryError(f"vertex {at} is not a marked point of the base surface")
    if classify_hs_sphere(link) is not SphereClass.CAUSALLY_REGULAR:
        raise GeometryError("the link of a particle collision must be causally regular")
    future_angles, past_angles = (
        [a for h in link.hyperbolic_regions if h.orientation == side for a in h.cone_angles]
        for side in ("future", "past")
    )
    if len(future_angles) != 1 or len(past_angles) != 2:
        raise GeometryError("surgery expects a (theta; eta1, eta2) collision link")
    if abs(future_angles[0] - theta) > ANGLE_MATCH:
        raise GeometryError(
            f"link future angle {future_angles[0]:.6g} does not match the cone angle "
            f"{theta:.6g} at the surgery point"
        )
    fan = frozenset(f for f in range(len(surface.faces)) if at in surface.face_corners(f))
    if len(fan) != 3:
        raise GeometryError("surgery expects the collision point inside a 3-face fan")
    star = DiskSpec(surface, fan)
    before, disk_before = _before_surface(star, at, *past_angles)
    return _collision_graph(before, disk_before, surface, star, tuple(past_angles), (theta,))


def _before_surface(star: DiskSpec, at: int, eta1: float, eta2: float):
    """The pre-collision metric: the star of the collision point spliced
    out for the two-cone disk whose collar matches it (conesurf.splice_disk,
    with the disk's cone angles; the first cone point keeps the id at), so
    the complement keeps its faces, ids and metric and its holonomies match
    exactly.  Returns (surface, the glued-in disk).
    Raises LinkRealizationError both for unrealizable interaction angles
    (the trace window) and when the collar fit does not converge (deep,
    thin collars are outside the fitted family)."""
    from .catalog import fit_two_cone_disk

    surf = star.surface
    rim = star.rim()
    rim_lengths = [float(surf.lengths[surf.faces[f][i].edge]) for f, i in rim]
    # the star's two corners at the tail of each rim step: the step's own
    # and the head of the step before
    rim_splits = [
        surf.corner_angle(f, i) + surf.corner_angle(g, (j + 1) % 3)
        for (f, i), (g, j) in zip(rim, rim[-1:] + rim[:-1])
    ]
    disk = fit_two_cone_disk(rim_lengths, rim_splits, eta1, eta2, surf.cone_angles[at])
    before, glued = splice_disk(star, disk, disk.lengths[3:], disk.cone_angles)
    return before._switch_on_angle_check(), glued


def elastic_collision_graph(surface: ConeSurface, disk_faces: frozenset) -> InteractionGraph:
    """The graph of an elastic collision: two particles meet and separate
    with unchanged angles, so the slices before and after the interaction
    carry isometric metrics and the exchanged disks coincide.

    The interaction is genuine (its link is a causally regular HS-sphere
    with two past and two future elliptic singularities); the surgery is the
    identity on metrics, which makes this the exactly-solvable fixture for
    the validation and assembly pipeline."""
    disk = DiskSpec(surface, disk_faces)
    marked_in_disk = disk.marked_angles()
    if len(marked_in_disk) != 2:
        raise GeometryError("elastic collision needs a disk with two cone points")
    angles = tuple(sorted(marked_in_disk.values()))
    return _collision_graph(surface, disk, surface, disk, angles, angles)


def _collision_graph(before, disk_before, after, disk_after, vanished, created) -> InteractionGraph:
    """The graph of one collision between two static slices (each surface is
    both metrics of its slice), exchanging disk_before for disk_after.  Each
    slice presents its group by the dual cycles of the disk's complement,
    named g0, g1, ... and identified by name across the edge, and by a
    meridian m<v> around every marked point v."""
    slices = {}
    for name, surf, disk in (("before", before, disk_before), ("after", after, disk_after)):
        loops = {f"g{i}": lp for i, lp in enumerate(dual_cycles(surf, disk.complement()))}
        identification = {k: k for k in loops}
        loops.update((f"m{v}", loop_around_vertex(surf, v)) for v in surf.marked_vertices())
        slices[name] = SliceVertex(name, surf, surf, surf.marked_vertices(), loops)
    faces = (disk_before.face_ids, disk_after.face_ids)
    edge = CollisionEdge("before", "after", *faces, identification, vanished, created)
    return InteractionGraph(slices, (edge,), initial="before", final="after")
