"""The graph of interactions: collision surgery, admissibility validation,
and the Van Kampen assembly of holonomies.

Vertices are spacial slices carrying a left and a right hyperbolic cone
metric on the same marked surface; edges are collisions, carrying the disks
that the surgery exchanges and the identification of the complement
generators.  Validation reduces complement isometry to holonomy matching on
those generators (a closed hyperbolic cone surface is determined by its
holonomy), and the assembly solves one conjugator per edge to glue the
per-vertex representations into one representation of the glued fundamental
group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conesurf import (
    ConeSurface,
    DiskSpec,
    disks_isometric,
    dual_cycles,
    holonomy_of_loop,
    loop_around_vertex,
    resolve_loop,
)
from .errors import GeometryError
from .hssurface import SingularHSSurface, SphereClass, classify_hs_sphere
from .isom import Proj2
from .spacetimes import ModelKind, ModelSpacetime
from .tolerances import ANGLE_MATCH, CONJUGATOR_DET, CONJUGATOR_NULL_ABS, CONJUGATOR_NULL_REL
from .tolerances import CONJUGATOR_RESIDUAL


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
    disk_before: frozenset
    disk_after: frozenset
    # identification of complement generators: name in before -> name in after
    identification: dict = field(default_factory=dict)
    vanished: tuple = ()  # marked points of the before slice inside the disk
    created: tuple = ()  # marked points of the after slice inside the disk


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


def solve_conjugator(pairs) -> tuple[Proj2, float]:
    """A projective C with C a C^{-1} = b for all (a, b), via the stacked
    Sylvester system; returns (C, residual)."""
    rows = []
    for a, b in pairs:
        am, bm = a.m, b.m
        # C am - bm C = 0, unknown C flattened row-major
        block = np.kron(np.eye(2), am.T) - np.kron(bm, np.eye(2))
        rows.append(block)
    A = np.vstack(rows)
    _, sv, vt = np.linalg.svd(A)
    floor = max(CONJUGATOR_NULL_REL * (sv[0] if sv.size else 1.0), CONJUGATOR_NULL_ABS)
    null_dim = int(np.sum(sv <= floor)) or 1
    basis = [vt[-(k + 1)].reshape(2, 2) for k in range(null_dim)]
    c = None
    if null_dim == 1:
        c = basis[0]
    else:
        # non-trivial centralizer: search the null pencil for a positive
        # determinant representative
        for t in np.linspace(0.0, np.pi, 37, endpoint=False):
            cand = np.cos(t) * basis[0] + np.sin(t) * basis[1]
            if np.linalg.det(cand) > CONJUGATOR_DET:
                c = cand
                break
        if c is None:
            c = basis[0]
    if np.linalg.det(c) <= 0:
        # a 2x2 sign flip cannot fix the determinant; the representations are
        # only conjugate through an orientation-reversing map
        raise GeometryError("conjugator is orientation-reversing or singular")
    C = Proj2(c)
    resid = 0.0
    for a, b in pairs:
        d = C.m @ a.m @ np.linalg.inv(C.m) - b.m
        resid = max(resid, float(np.abs(d).max()))
    return C, resid


def _holonomy_memo():
    """holonomy_of_loop, computed once per (surface object, loop) for as long
    as the returned function lives.  Callers keep it local to one call; the
    surfaces themselves carry no holonomy cache."""
    done = {}

    def holonomy(surf: ConeSurface, loop) -> Proj2:
        key = (id(surf), tuple(resolve_loop(surf, loop)))
        if key not in done:
            done[key] = holonomy_of_loop(surf, loop)
        return done[key]

    return holonomy


def validate_geometric_data(
    g: InteractionGraph, tol: float = CONJUGATOR_RESIDUAL
) -> ValidationReport:
    """Admissibility of the geometric data on the graph:

    (1) every marked point is a cone point of its declared angle in both
        metrics of its slice;
    (2) across each edge, the left metrics of the two slices have isometric
        complements, certified by matching holonomies of the identified
        complement generators (one conjugator per edge);
    (3) the same for the right metrics;
    additionally the exchanged disks carry the declared vanished/created cone
    points, and the before-disk is isometric between the left and right
    metrics when they differ."""
    return _validate(g, tol, _holonomy_memo())


def _validate(g: InteractionGraph, tol: float, holonomy) -> ValidationReport:
    """validate_geometric_data, developing loops through the given memo."""
    failures = []
    for name, v in g.vertices.items():
        for p, theta in v.marked.items():
            for side, surf in (("l", v.mu_l), ("r", v.mu_r)):
                got = surf.cone_angles.get(p)
                if got is None or abs(got - theta) > ANGLE_MATCH:
                    failures.append(
                        f"(1) slice {name}: marked point {p} is not a {theta:.6g} cone "
                        f"point of mu_{side}"
                    )
    for e in g.edges:
        vb, va = g.vertex(e.before), g.vertex(e.after)
        for side in ("l", "r"):
            sb = vb.mu_l if side == "l" else vb.mu_r
            sa = va.mu_l if side == "l" else va.mu_r
            pairs = []
            try:
                for name_b, name_a in e.identification.items():
                    hb = holonomy(sb, vb.generator_loops[name_b])
                    ha = holonomy(sa, va.generator_loops[name_a])
                    pairs.append((hb, ha))
                if not pairs:
                    continue
                _, resid = solve_conjugator(pairs)
            except (GeometryError, KeyError) as err:
                failures.append(f"(2/3) edge {e.before}->{e.after}, mu_{side}: {err}")
                continue
            if resid > tol:
                failures.append(
                    f"(2/3) edge {e.before}->{e.after}: complement holonomies of "
                    f"mu_{side} differ by {resid:.3e}"
                )
        # disk contents
        try:
            db = DiskSpec(vb.mu_l, e.disk_before)
            da = DiskSpec(va.mu_l, e.disk_after)
            marked_b = sorted(db.marked_angles().values())
            marked_a = sorted(da.marked_angles().values())
            if sorted(e.vanished) != marked_b:
                failures.append(
                    f"edge {e.before}->{e.after}: before-disk contains {marked_b}, "
                    f"declared {sorted(e.vanished)}"
                )
            if sorted(e.created) != marked_a:
                failures.append(
                    f"edge {e.before}->{e.after}: after-disk contains {marked_a}, "
                    f"declared {sorted(e.created)}"
                )
        except GeometryError as err:
            failures.append(f"edge {e.before}->{e.after}: bad disk: {err}")
            continue
        if vb.mu_l is not vb.mu_r:
            db_r = DiskSpec(vb.mu_r, e.disk_before)
            if not disks_isometric(vb.mu_l, db, vb.mu_r, db_r):
                failures.append(
                    f"edge {e.before}->{e.after}: before-disk not isometric between "
                    "the left and right metrics"
                )
    return ValidationReport(passed=not failures, failures=tuple(failures))


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
            if token.endswith("^-1"):
                m = table[token[:-3]].inverse()
            else:
                m = table[token]
            out = out @ m
        return Proj2(align.m @ out.m @ np.linalg.inv(align.m))

    def relation_residual(self, edge: CollisionEdge) -> float:
        """Max deviation of the glued relations alpha_e(gamma) gamma^{-1}."""
        worst = 0.0
        for side in ("l", "r"):
            for nb, na in edge.identification.items():
                hb = self.evaluate(edge.before, side, [nb])
                ha = self.evaluate(edge.after, side, [na])
                worst = max(worst, float(np.abs(hb.m - ha.m).max()))
        return worst


def assemble_holonomy(g: InteractionGraph, tol: float = CONJUGATOR_RESIDUAL) -> HolonomyAssembly:
    """Glue the per-vertex holonomy representations along the edges.

    Refuses unvalidated graphs.  Each vertex contributes the holonomies of
    its marked generator loops for both metrics; each edge contributes a
    conjugator aligning the identified complement generators, solved from the
    stacked intertwining equations.  Alignment is propagated from an
    arbitrary root vertex over a spanning tree of the graph."""
    # one memo for validation and the tables: no loop is developed twice
    holonomy = _holonomy_memo()
    report = _validate(g, tol, holonomy)
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
            if e.before in seen and e.after in seen:
                continue
            if cur not in (e.before, e.after):
                continue
            other = e.after if cur == e.before else e.before
            for side in ("l", "r"):
                pairs = []
                for nb, na in e.identification.items():
                    h_cur = tables[cur][side][nb if cur == e.before else na]
                    h_other = tables[other][side][na if cur == e.before else nb]
                    pairs.append((h_other, h_cur))
                # C (other-gen) C^-1 = cur-gen aligns the new vertex
                C, resid = solve_conjugator(pairs)
                if resid > tol:
                    raise ArithmeticError(
                        f"conjugator residual {resid:.3e} beyond tolerance on edge "
                        f"{e.before}->{e.after}"
                    )
                base = alignment[cur][side]
                alignment[other][side] = Proj2(base.m @ C.m)
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


def surgery_collision(
    base: ModelSpacetime,
    link: SingularHSSurface,
    at: int,
    *,
    before_name: str = "before",
    after_name: str = "after",
) -> InteractionGraph:
    """Add a collision to a static product spacetime: the marked point `at`
    of the base surface becomes the outcome of the collision of the link's
    two past particles.

    The link must be a causally regular HS-sphere whose future particle angle
    equals the cone angle at `at`.  The after slice keeps the base surface's
    metrics (the product's left and right metrics both equal its base); the
    before slice carries a metric with the link's two past cone angles in the
    exchanged disk and complement holonomies matching the after slice's, the
    computable content of the cut-and-paste locality of the surgery.
    """
    if base.kind is not ModelKind.PRODUCT:
        raise GeometryError("surgery operates on a static product spacetime")
    surf = base.base
    theta = surf.cone_angles.get(at)
    if theta is None:
        raise GeometryError(f"vertex {at} is not a marked point of the base surface")
    if classify_hs_sphere(link) is not SphereClass.CAUSALLY_REGULAR:
        raise GeometryError("the link of a particle collision must be causally regular")
    future_angles = [
        a for h in link.hyperbolic_regions if h.orientation == "future" for a in h.cone_angles
    ]
    past_angles = [
        a for h in link.hyperbolic_regions if h.orientation == "past" for a in h.cone_angles
    ]
    if len(future_angles) != 1 or len(past_angles) != 2:
        raise GeometryError("surgery expects a (theta; eta1, eta2) collision link")
    if abs(future_angles[0] - theta) > ANGLE_MATCH:
        raise GeometryError(
            f"link future angle {future_angles[0]:.6g} does not match the cone angle "
            f"{theta:.6g} at the surgery point"
        )
    eta1, eta2 = past_angles
    before_surface, disk_before, new_vertex, face_map = _before_surface(surf, at, eta1, eta2)
    disk_after = _star_disk(surf, at)

    gen_loops_after = _complement_generator_loops(surf, disk_after)
    # the complement faces keep their structure in the before surface but
    # get re-indexed when the old fan is dropped
    gen_loops_before = {
        k: [(face_map[f], si) for f, si in lp] for k, lp in gen_loops_after.items()
    }
    after_loops = dict(gen_loops_after)
    after_loops[f"m{at}"] = loop_around_vertex(surf, at)
    before_loops = dict(gen_loops_before)
    before_loops[f"m{at}"] = loop_around_vertex(before_surface, at)
    before_loops[f"m{new_vertex}"] = loop_around_vertex(before_surface, new_vertex)

    after_marked = dict(surf.marked_vertices())
    before_marked = dict(before_surface.marked_vertices())

    v_after = SliceVertex(after_name, surf, surf, after_marked, after_loops)
    v_before = SliceVertex(before_name, before_surface, before_surface, before_marked, before_loops)
    edge = CollisionEdge(
        before=before_name,
        after=after_name,
        disk_before=disk_before.face_ids,
        disk_after=frozenset(_star_disk_faces(surf, at)),
        identification={k: k for k in gen_loops_after},
        vanished=(eta1, eta2),
        created=(theta,),
    )
    return InteractionGraph(
        {before_name: v_before, after_name: v_after},
        (edge,),
        initial=before_name,
        final=after_name,
    )


def _star_disk_faces(s: ConeSurface, v: int) -> list[int]:
    faces = [fi for fi in range(len(s.faces)) if v in s.face_corners(fi)]
    return faces


def _star_disk(s: ConeSurface, v: int) -> DiskSpec:
    return DiskSpec(s, frozenset(_star_disk_faces(s, v)))


def _complement_generator_loops(s: ConeSurface, disk: DiskSpec) -> dict:
    comp = disk.complement()
    loops = dual_cycles(s, comp)
    return {f"g{i}": lp for i, lp in enumerate(loops)}


def _before_surface(surf: ConeSurface, at: int, eta1: float, eta2: float):
    """The pre-collision metric: the star disk of the collision point is cut
    out and the exact two-cone disk with the matching collar is glued in.

    The complement keeps its metric verbatim, so complement holonomies match
    exactly; the glued disk carries the two incoming particles.  Raises
    LinkRealizationError both for unrealizable interaction angles (the trace
    window) and when the collar fit does not converge (deep, thin collars
    are outside the fitted family; see the decisions notes)."""
    from .catalog import fit_two_cone_disk

    theta = surf.cone_angles[at]
    star = _star_disk_faces(surf, at)
    if len(star) != 3:
        raise GeometryError("surgery expects the collision point inside a 3-face fan")
    rim_edges = []
    rim_cycle = []
    for f in star:
        sides = surf.faces[f]
        corners = surf.face_corners(f)
        i = corners.index(at)
        rim_side = sides[(i + 1) % 3]
        rim_edges.append(rim_side.edge)
        rim_cycle.append(surf.side_endpoints(rim_side))
    # order the fan so the rim is a cycle q1 -> q2 -> q3 -> q1
    order = [0]
    while len(order) < 3:
        tail = rim_cycle[order[-1]][1]
        nxt = next(k for k in range(3) if k not in order and rim_cycle[k][0] == tail)
        order.append(nxt)
    star = [star[k] for k in order]
    rim_edges = [rim_edges[k] for k in order]
    rim_cycle = [rim_cycle[k] for k in order]
    q_ids = [tc[0] for tc in rim_cycle]
    rim_lengths = [float(surf.lengths[e]) for e in rim_edges]
    splits = {q: 0.0 for q in q_ids}
    for f in star:
        for i, v in enumerate(surf.face_corners(f)):
            if v in splits:
                splits[v] += surf.corner_angle(f, i)
    rim_splits = [splits[q] for q in q_ids]

    disk = fit_two_cone_disk(rim_lengths, rim_splits, eta1, eta2, theta)

    new_v = max(surf.vertices) + 1
    vmap = {0: q_ids[0], 1: q_ids[1], 2: q_ids[2], 3: at, 4: new_v}
    edges = list(surf.edges)
    lengths = list(surf.lengths)
    emap = {0: rim_edges[0], 1: rim_edges[1], 2: rim_edges[2]}
    for e in range(3, 9):
        t, h = disk.edges[e]
        emap[e] = len(edges)
        edges.append((vmap[t], vmap[h]))
        lengths.append(float(disk.lengths[e]))
    from .conesurf import Side

    def remap_side(s: Side) -> Side:
        if s.edge < 3:
            # rim edges keep the orientation of the host surface
            host = rim_edges[s.edge]
            t, h = disk.edges[s.edge]
            want = (vmap[t], vmap[h]) if s.forward else (vmap[h], vmap[t])
            fwd = surf.edges[host] == want
            return Side(host, fwd)
        return Side(emap[s.edge], s.forward)

    new_faces = list(surf.faces)
    disk_ids = []
    for fi, fsides in enumerate(disk.faces):
        mapped = tuple(remap_side(s) for s in fsides)
        disk_ids.append(len(new_faces))
        new_faces.append(mapped)
    # remove the old fan faces (replace by the last three new ones to keep
    # face ids dense: instead drop the fan by index filtering)
    keep = [f for f in range(len(surf.faces)) if f not in star]
    face_list = [new_faces[f] for f in keep] + [new_faces[f] for f in disk_ids]
    # rebuild and track where the disk faces landed
    cones = dict(surf.cone_angles)
    cones[at] = eta1
    cones[new_v] = eta2
    solved = ConeSurface(tuple(edges), tuple(face_list), np.array(lengths), cones)
    disk_start = len(keep)
    disk_faces = frozenset(range(disk_start, disk_start + len(disk.faces)))
    face_map = {old: i for i, old in enumerate(keep)}
    return solved, DiskSpec(solved, disk_faces), new_v, face_map


def elastic_collision_graph(
    surface: ConeSurface,
    disk_faces: frozenset,
    *,
    before_name: str = "before",
    after_name: str = "after",
) -> InteractionGraph:
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
    loops = _complement_generator_loops(surface, disk)
    gen_loops = dict(loops)
    for v in surface.marked_vertices():
        gen_loops[f"m{v}"] = loop_around_vertex(surface, v)
    marked = dict(surface.marked_vertices())
    v_before = SliceVertex(before_name, surface, surface, marked, gen_loops)
    v_after = SliceVertex(after_name, surface, surface, marked, gen_loops)
    angles = tuple(sorted(marked_in_disk.values()))
    edge = CollisionEdge(
        before=before_name,
        after=after_name,
        disk_before=disk.face_ids,
        disk_after=disk.face_ids,
        identification={k: k for k in loops},
        vanished=angles,
        created=angles,
    )
    return InteractionGraph(
        {before_name: v_before, after_name: v_after},
        (edge,),
        initial=before_name,
        final=after_name,
    )
