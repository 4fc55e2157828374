"""Singular HS-surfaces as region decompositions, their causality filter,
the classification of causal positive HS-spheres, and the polyhedral
convexity/length conditions for marked HS-structures.

The classifier works at the statement level: regions, their topology and
their singularity contents are explicit combinatorial data, and the checks
encode the constraints that the analytic theory proves equivalent (a
spacelike hyperbolic singularity forces closed timelike curves, a de Sitter
region carries at most two timelike hyperbolic singularities with its
topology pinned by their number, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CausalityError, GeometryError
from .links import SingKind, SingularityType, particle_mass

PI = np.pi
TWO_PI = 2.0 * np.pi


class RegionTopology(Enum):
    DISK = "disk"
    ANNULUS = "annulus"
    SPHERE = "sphere"


@dataclass(frozen=True)
class HyperbolicRegion:
    """A hyperbolic piece: future or past, with its cone and cusp points."""

    orientation: str  # "future" | "past"
    topology: RegionTopology
    cone_angles: tuple[float, ...] = ()
    cusps: int = 0
    boundary_circles: tuple[int, ...] = ()  # photon circle ids

    def __post_init__(self):
        if self.orientation not in ("future", "past"):
            raise GeometryError("hyperbolic region orientation must be future|past")


@dataclass(frozen=True)
class DeSitterRegion:
    """A de Sitter piece with the singularities it contains."""

    topology: RegionTopology
    singularities: tuple[SingularityType, ...] = ()
    boundary_circles: tuple[int, ...] = ()
    extreme_points: tuple[str, ...] = ()  # "future"/"past" parabolic ends

    def timelike_hyperbolic(self) -> list[SingularityType]:
        return [
            s
            for s in self.singularities
            if s.kind in (SingKind.BTZ_FUTURE, SingKind.BTZ_PAST)
        ]


@dataclass(frozen=True)
class PhotonCircle:
    """A circle of photons with its two adjacent regions and gravitons."""

    hyperbolic_side: int | None  # index into hyperbolic regions
    de_sitter_side: int | None  # index into de Sitter regions
    gravitons: tuple[SingularityType, ...] = ()


@dataclass(frozen=True)
class SingularHSSurface:
    hyperbolic_regions: tuple[HyperbolicRegion, ...] = ()
    de_sitter_regions: tuple[DeSitterRegion, ...] = ()
    photon_circles: tuple[PhotonCircle, ...] = ()

    def all_singularities(self) -> list[SingularityType]:
        out = []
        for h in self.hyperbolic_regions:
            out.extend(
                SingularityType(SingKind.MASSIVE_PARTICLE, angle=a, mass=particle_mass(a))
                for a in h.cone_angles
            )
        for d in self.de_sitter_regions:
            out.extend(d.singularities)
            out.extend(
                SingularityType(
                    SingKind.EXTREME_BTZ_FUTURE if e == "future" else SingKind.EXTREME_BTZ_PAST
                )
                for e in d.extreme_points
            )
        for c in self.photon_circles:
            out.extend(c.gravitons)
        return out

    def euler_characteristic(self) -> int:
        """chi of the glued surface: regions glued along photon circles."""
        chi = 0
        for h in self.hyperbolic_regions:
            chi += _chi(h.topology, len(h.boundary_circles))
        for d in self.de_sitter_regions:
            chi += _chi(d.topology, len(d.boundary_circles)) + len(d.extreme_points)
        return chi


def _chi(top: RegionTopology, boundary_count: int) -> int:
    base = {RegionTopology.DISK: 1, RegionTopology.ANNULUS: 0, RegionTopology.SPHERE: 2}[top]
    expected = {RegionTopology.DISK: 1, RegionTopology.ANNULUS: 2, RegionTopology.SPHERE: 0}[top]
    if boundary_count > expected:
        raise GeometryError(f"{top.value} region cannot have {boundary_count} boundary circles")
    return base


@dataclass(frozen=True)
class CausalReport:
    causal: bool
    failures: tuple[str, ...] = ()


def check_causal(s: SingularHSSurface, positive: bool = False) -> CausalReport:
    """Definition-level causality: no singularity of degree >= 4, no spacelike
    hyperbolic singularity (these force closed timelike curves), and every de
    Sitter region structurally compatible with its singularity contents.

    With positive=True, additionally require every particle angle < 2 pi and
    every tachyon and graviton positive."""
    failures = []
    # structural gluing check
    for ci, c in enumerate(s.photon_circles):
        if c.hyperbolic_side is not None:
            h = s.hyperbolic_regions[c.hyperbolic_side]
            if ci not in h.boundary_circles:
                failures.append(f"photon circle {ci} not listed by its hyperbolic region")
        if c.de_sitter_side is not None:
            d = s.de_sitter_regions[c.de_sitter_side]
            if ci not in d.boundary_circles:
                failures.append(f"photon circle {ci} not listed by its de Sitter region")
    try:
        chi = s.euler_characteristic()
    except GeometryError as err:
        failures.append(str(err))
        chi = None

    for sing in s.all_singularities():
        if sing.kind is SingKind.REJECTED_DEGREE:
            failures.append(
                f"degree-{sing.degree} singularity splits the local future into "
                f"{sing.degree // 2} components"
            )
        if sing.kind is SingKind.REJECTED_SPACELIKE_HYPERBOLIC:
            failures.append("spacelike hyperbolic singularity: closed timelike curves")
        if positive:
            if sing.kind is SingKind.MASSIVE_PARTICLE and sing.angle >= TWO_PI:
                failures.append(f"particle of angle {sing.angle:.6g} >= 2 pi (negative mass)")
            if sing.kind is SingKind.TACHYON and sing.mass <= 0:
                failures.append(f"tachyon of negative mass {sing.mass:.6g}")
            if sing.kind is SingKind.GRAVITON_NEGATIVE:
                failures.append("negative graviton")

    # leaf-limit constraints on de Sitter regions
    for di, d in enumerate(s.de_sitter_regions):
        th = d.timelike_hyperbolic()
        if len(th) > 2:
            failures.append(f"de Sitter region {di} contains {len(th)} BTZ singularities")
        elif len(th) == 2 and d.topology is not RegionTopology.SPHERE:
            failures.append(
                f"de Sitter region {di} has two BTZ singularities but is a {d.topology.value}"
            )
        elif len(th) == 1 and d.topology is not RegionTopology.DISK:
            failures.append(
                f"de Sitter region {di} has one BTZ singularity but is a {d.topology.value}"
            )
        for sing in d.singularities:
            if sing.kind is SingKind.MASSIVE_PARTICLE:
                failures.append(f"massive particle listed inside de Sitter region {di}")
    return CausalReport(causal=not failures, failures=tuple(failures))


class SphereClass(Enum):
    CAUSALLY_REGULAR = "CausallyRegular"
    BLACK_HOLE_INTERACTION = "BlackHoleInteraction"
    WHITE_HOLE_INTERACTION = "WhiteHoleInteraction"
    BIG_BANG_OR_CRUNCH = "BigBangOrCrunch"
    BH_WH_INTERACTION = "BHWHInteraction"


def classify_hs_sphere(s: SingularHSSurface, positive: bool = True) -> SphereClass:
    """The classification of causal positive HS-spheres.

    Exactly one of: causally regular (one de Sitter annulus joining a past
    and a future hyperbolic disk), interaction of black holes (no future
    hyperbolic region) or of white holes (no past one), big bang/crunch
    (a single hyperbolic sphere), or the interaction of a white hole with a
    black hole (no hyperbolic region at all)."""
    report = check_causal(s, positive=positive)
    if not report.causal:
        raise CausalityError("; ".join(report.failures))
    if s.euler_characteristic() != 2:
        raise GeometryError("surface is not a sphere")
    if len(s.all_singularities()) < 3:
        raise GeometryError("an interaction needs at least three singularities")

    future = [h for h in s.hyperbolic_regions if h.orientation == "future"]
    past = [h for h in s.hyperbolic_regions if h.orientation == "past"]
    if len(future) > 1 or len(past) > 1:
        raise GeometryError("a causal HS-sphere has at most one hyperbolic region per side")

    if not s.de_sitter_regions:
        if len(s.hyperbolic_regions) != 1:
            raise GeometryError("no de Sitter region: need a single hyperbolic sphere")
        region = s.hyperbolic_regions[0]
        if region.topology is not RegionTopology.SPHERE:
            raise GeometryError("hyperbolic region without de Sitter part must be a sphere")
        return SphereClass.BIG_BANG_OR_CRUNCH

    if not s.hyperbolic_regions:
        sings = [x for d in s.de_sitter_regions for x in d.timelike_hyperbolic()]
        ends = [e for d in s.de_sitter_regions for e in d.extreme_points]
        futures = sum(1 for x in sings if x.kind is SingKind.BTZ_FUTURE) + ends.count("future")
        pasts = sum(1 for x in sings if x.kind is SingKind.BTZ_PAST) + ends.count("past")
        if futures != 1 or pasts != 1:
            raise GeometryError(
                "white-hole/black-hole interaction needs exactly one past and one "
                "future singularity"
            )
        return SphereClass.BH_WH_INTERACTION

    if future and past:
        annuli = [d for d in s.de_sitter_regions if d.topology is RegionTopology.ANNULUS]
        if (
            len(s.de_sitter_regions) == 1
            and len(annuli) == 1
            and future[0].topology is RegionTopology.DISK
            and past[0].topology is RegionTopology.DISK
        ):
            return SphereClass.CAUSALLY_REGULAR
        raise GeometryError(
            "future and past hyperbolic regions must be disks joined by a single "
            "de Sitter annulus"
        )

    # exactly one side has a hyperbolic region
    want = SingKind.BTZ_FUTURE if past else SingKind.BTZ_PAST
    want_end = "future" if past else "past"
    side = "black-hole" if past else "white-hole"
    for d in s.de_sitter_regions:
        th = d.timelike_hyperbolic()
        ends = d.extreme_points
        # either a disk containing one BTZ singularity, or a disk with the
        # extreme singularity removed (an annulus closed by a parabolic end)
        plain = (
            d.topology is RegionTopology.DISK
            and [x.kind for x in th] == [want]
            and not ends
        )
        extreme = (
            d.topology is RegionTopology.ANNULUS and not th and ends == (want_end,)
        )
        if not (plain or extreme):
            raise GeometryError(
                f"{side} interaction needs each de Sitter region to be a disk with a "
                f"single {want_end} singularity (extreme or not)"
            )
    return (
        SphereClass.BLACK_HOLE_INTERACTION if past else SphereClass.WHITE_HOLE_INTERACTION
    )


def time_reverse_surface(s: SingularHSSurface) -> SingularHSSurface:
    """Swap future and past everywhere."""
    swap_kind = {
        SingKind.BTZ_FUTURE: SingKind.BTZ_PAST,
        SingKind.BTZ_PAST: SingKind.BTZ_FUTURE,
        SingKind.EXTREME_BTZ_FUTURE: SingKind.EXTREME_BTZ_PAST,
        SingKind.EXTREME_BTZ_PAST: SingKind.EXTREME_BTZ_FUTURE,
    }

    def flip_sing(x: SingularityType) -> SingularityType:
        return SingularityType(swap_kind.get(x.kind, x.kind), x.angle, x.mass, x.degree)

    hyp = tuple(
        HyperbolicRegion(
            "past" if h.orientation == "future" else "future",
            h.topology,
            h.cone_angles,
            h.cusps,
            h.boundary_circles,
        )
        for h in s.hyperbolic_regions
    )
    ds = tuple(
        DeSitterRegion(
            d.topology,
            tuple(flip_sing(x) for x in d.singularities),
            d.boundary_circles,
            tuple("past" if e == "future" else "future" for e in d.extreme_points),
        )
        for d in s.de_sitter_regions
    )
    pc = tuple(
        PhotonCircle(c.hyperbolic_side, c.de_sitter_side, tuple(flip_sing(g) for g in c.gravitons))
        for c in s.photon_circles
    )
    return SingularHSSurface(hyp, ds, pc)


# ---------------------------------------------------------------------------
# marked HS-metrics and the polyhedral conditions
# ---------------------------------------------------------------------------


class VertexPosition(Enum):
    HYPERBOLIC = "H"
    INTERIOR_SIGMA = "interior-Sigma"
    INTERIOR_T = "interior-T"
    ISOLATED_SIGMA = "isolated-Sigma"
    S_T = "S_T"
    SIGMA_T_CONNECTED = "Sigma-T-connected"
    SIGMA_T_DISCONNECTED = "Sigma-T-disconnected"


@dataclass(frozen=True)
class FaceAngle:
    """An interior angle, real (Riemannian face) or k pi/2 + i r (Lorentzian).

    lightlike marks faces whose sides at the vertex are lightlike; a
    Riemannian face has none, so a real angle is never lightlike."""

    real: float | None = None
    k: int | None = None
    r: float | None = None
    lightlike: bool = False

    @property
    def is_lorentzian(self) -> bool:
        return self.k is not None

    def __post_init__(self):
        if (self.real is None) == (self.k is None):
            raise GeometryError("angle is either real or of the form k pi/2 + i r")
        if self.lightlike and self.real is not None:
            raise GeometryError("a real angle has no lightlike sides")


@dataclass(frozen=True)
class VertexRecord:
    position: VertexPosition
    angles: tuple[FaceAngle, ...] = ()
    # for S_T and disconnected cases: angles grouped by local component
    sigma_components: tuple[tuple[FaceAngle, ...], ...] = ()
    t_components: tuple[tuple[FaceAngle, ...], ...] = ()


@dataclass(frozen=True)
class CurveRecord:
    length: float
    closed: bool = True
    simple: bool = True
    bounds_degenerate_domain: bool = False


@dataclass(frozen=True)
class MarkedHSMetric:
    """Statement-level data of a marked HS-structure on the sphere."""

    vertices: tuple[VertexRecord, ...] = ()
    sigma_geodesics: tuple[CurveRecord, ...] = ()
    t_geodesics: tuple[CurveRecord, ...] = ()
    type_tag: str = "hyperbolic"  # hyperbolic | bi-hyperbolic | compact
    # structural clauses of the type, declared with the data
    timelike_arcs_join: str = "H-Sigma"  # H-Sigma | H-H | Sigma-Sigma
    compact_segments: tuple[float, ...] = ()  # Sigma-geodesic segment lengths (D.c)
    compact_boundary_lengths: tuple[float, ...] = ()  # boundary of Sigma+- (E)
    has_degenerate_t_domain: bool = False

    def __post_init__(self):
        if self.type_tag not in ("hyperbolic", "bi-hyperbolic", "compact"):
            raise GeometryError("unknown type tag")


@dataclass(frozen=True)
class ConditionReport:
    passed: dict
    failures: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


def _sum_real(angles) -> float:
    out = 0.0
    for a in angles:
        if a.is_lorentzian:
            raise GeometryError("expected Riemannian angles")
        out += a.real
    return out


def _sum_lorentz(angles) -> tuple[int, float]:
    k, r = 0, 0.0
    for a in angles:
        if not a.is_lorentzian:
            raise GeometryError("expected Lorentzian angles")
        k += a.k
        r += a.r
    return k, r


def _check_vertex(v: VertexRecord, out: list):
    pos = v.position
    if pos is VertexPosition.HYPERBOLIC:
        total = _sum_real(v.angles)
        if not total < TWO_PI:
            out.append(f"hyperbolic vertex angle sum {total:.6g} not < 2 pi")
    elif pos is VertexPosition.INTERIOR_SIGMA:
        total = _sum_real(v.angles)
        if not total > TWO_PI:
            out.append(f"interior Sigma vertex angle sum {total:.6g} not > 2 pi")
    elif pos is VertexPosition.INTERIOR_T:
        k, r = _sum_lorentz(v.angles)
        if k * PI / 2 != TWO_PI:
            out.append(f"interior T vertex real part {k}*pi/2 differs from 2 pi")
        elif not r > 0:
            out.append(f"interior T vertex imaginary part {r:.6g} not > 0")
    elif pos is VertexPosition.ISOLATED_SIGMA:
        pass
    elif pos is VertexPosition.S_T:
        if len(v.sigma_components) != 2 or len(v.t_components) != 2:
            out.append("S_T vertex needs two Sigma and two T components")
            return
        for comp in v.sigma_components:
            total = _sum_real(comp)
            if not (0 <= total < PI):
                out.append(f"S_T Sigma component angle {total:.6g} not in [0, pi)")
        for comp in v.t_components:
            k, r = _sum_lorentz(comp)
            if k != 0 or r < 0:
                out.append("S_T T-component angle not in i R_{>=0}")
    elif pos is VertexPosition.SIGMA_T_CONNECTED:
        if len(v.t_components) != 1:
            out.append("connected case needs a single T component")
            return
        if len(v.sigma_components) > 1:
            out.append("connected case needs at most one Sigma component")
            return
        k, r1 = _sum_lorentz(v.t_components[0])
        r1 = -r1  # sum = pi - i r1
        if k * PI / 2 != PI:
            out.append("T angles must sum to pi - i r1")
            return
        r2 = _sum_real(v.sigma_components[0]) if v.sigma_components else 0.0
        if r2 < 0:
            out.append("Sigma angle sum r2 negative")
        elif not (r1 > 0 or r2 < PI):
            out.append(f"need r1 > 0 or r2 < pi (r1={r1:.6g}, r2={r2:.6g})")
    elif pos is VertexPosition.SIGMA_T_DISCONNECTED:
        if len(v.t_components) < 2:
            out.append("disconnected case needs at least two T components")
            return
        total_k, total_r = 0, 0.0
        for comp in v.t_components:
            k, r = _sum_lorentz(comp)
            total_k += k
            total_r += r
            all_light = all(a.lightlike for a in comp)
            if k * PI / 2 == PI and r == 0.0 and all_light:
                continue
            if not (k * PI / 2 == PI and r < 0):
                out.append("T-component angle not in pi - i R_{>0} nor lightlike pi")
        if total_k * PI / 2 == TWO_PI and total_r == 0.0:
            out.append("total angle sum equals 2 pi")


def check_polyhedron_conditions(m: MarkedHSMetric) -> ConditionReport:
    """Per-condition report for the induced-metric characterization.

    A: matched convexity condition at every vertex; B: closed Sigma-geodesics
    of length > 2 pi (= 2 pi only bounding a degenerate domain); C: closed
    simple T-geodesics of length < 2 pi (same degenerate escape); D: the
    declared type's structural clause, with compact-type Sigma-segments < pi;
    E: compact type boundaries of length < 2 pi.
    """
    failures: list[str] = []
    passed = {}

    a_fail: list[str] = []
    for i, v in enumerate(m.vertices):
        before = len(a_fail)
        _check_vertex(v, a_fail)
        if len(a_fail) > before:
            a_fail[before] = f"vertex {i}: {a_fail[before]}"
    passed["A"] = not a_fail
    failures.extend(a_fail)

    b_fail = []
    for i, c in enumerate(m.sigma_geodesics):
        if not c.closed:
            continue
        if c.length > TWO_PI:
            continue
        if c.length == TWO_PI and c.bounds_degenerate_domain and m.has_degenerate_t_domain:
            continue
        if c.bounds_degenerate_domain and not m.has_degenerate_t_domain:
            b_fail.append(f"Sigma-geodesic {i} flagged degenerate without a degenerate T domain")
            continue
        b_fail.append(f"closed Sigma-geodesic {i} of length {c.length:.6g} <= 2 pi")
    passed["B"] = not b_fail
    failures.extend(b_fail)

    c_fail = []
    for i, c in enumerate(m.t_geodesics):
        if not (c.closed and c.simple):
            continue
        if c.length < TWO_PI:
            continue
        if c.length == TWO_PI and c.bounds_degenerate_domain and m.has_degenerate_t_domain:
            continue
        if c.bounds_degenerate_domain and not m.has_degenerate_t_domain:
            c_fail.append(f"T-geodesic {i} flagged degenerate without a degenerate T domain")
            continue
        c_fail.append(f"simple T-geodesic {i} of length {c.length:.6g} >= 2 pi")
    passed["C"] = not c_fail
    failures.extend(c_fail)

    d_fail = []
    expected_join = {"hyperbolic": "H-Sigma", "bi-hyperbolic": "H-H", "compact": "Sigma-Sigma"}
    if m.timelike_arcs_join != expected_join[m.type_tag]:
        d_fail.append(
            f"type {m.type_tag} requires timelike arcs joining "
            f"{expected_join[m.type_tag]}, declared {m.timelike_arcs_join}"
        )
    if m.type_tag == "compact":
        for i, L in enumerate(m.compact_segments):
            if not L < PI:
                d_fail.append(f"compact-type Sigma-geodesic segment {i} of length {L:.6g} >= pi")
    passed["D"] = not d_fail
    failures.extend(d_fail)

    e_fail = []
    if m.type_tag == "compact":
        if len(m.compact_boundary_lengths) != 2:
            e_fail.append("compact type needs the two boundary lengths of Sigma+-")
        for i, L in enumerate(m.compact_boundary_lengths):
            if not L < TWO_PI:
                e_fail.append(f"Sigma component boundary {i} of length {L:.6g} >= 2 pi")
    passed["E"] = not e_fail
    failures.extend(e_fail)

    return ConditionReport(passed=passed, failures=tuple(failures))
