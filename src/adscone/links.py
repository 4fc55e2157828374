"""The dictionary between link circles and singular-line types.

Elliptic links are massive particles (mass m = 1 - theta/2pi), hyperbolic
links of degree 2 are tachyons, parabolic links of degree 2 are gravitons,
and degree-0 links over de Sitter or boundary points are the future/past
singularities of (possibly extreme) BTZ black holes.  Links of degree >= 4
and spacelike hyperbolic links are rejected: the former split the local
future into several components, the latter force closed timelike curves.

Tachyon and black-hole masses are stored as the translation length of the
holonomy (the rapidity of the gluing boost).  Under the cross-ratio
convention of tachyon_mass_from_planes the wedge angle between two timelike
planes equals twice that rapidity; the length normalization is the one the
model-spacetime round trips pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError
from .isom import IsomKind, LiftedProj2, Proj2, classify
from .linalg import HSPointClass, dot12
from .rp1 import ArcTag, CircleKind, CircleTag, LinkCircle, RP1Circle
from .rp1 import elliptic_link_circle, mark_timelike_arcs, refuse_unheld_lift
from .tolerances import COPLANAR_REL, GLUE_AXIS, GLUE_IDENTITY, ISOTROPIC_REL
from .tolerances import SLOPE_VERTICAL, TRACE

PI = np.pi
TWO_PI = 2.0 * np.pi


class SingKind(Enum):
    MASSIVE_PARTICLE = "MassiveParticle"
    TACHYON = "Tachyon"
    GRAVITON_POSITIVE = "GravitonPositive"
    GRAVITON_NEGATIVE = "GravitonNegative"
    BTZ_FUTURE = "BTZFuture"
    BTZ_PAST = "BTZPast"
    EXTREME_BTZ_FUTURE = "ExtremeBTZFuture"
    EXTREME_BTZ_PAST = "ExtremeBTZPast"
    REJECTED_DEGREE = "RejectedDegree"
    REJECTED_SPACELIKE_HYPERBOLIC = "RejectedSpacelikeHyperbolic"


@dataclass(frozen=True)
class SingularityType:
    kind: SingKind
    angle: float | None = None  # massive particle cone angle
    mass: float | None = None  # particle/tachyon mass, BTZ length parameter
    degree: int | None = None  # rejected degrees

    @property
    def is_rejected(self) -> bool:
        return self.kind in (
            SingKind.REJECTED_DEGREE,
            SingKind.REJECTED_SPACELIKE_HYPERBOLIC,
        )

    @property
    def is_positive(self) -> bool:
        """Positive-mass / positive-type filter used by interaction checks."""
        if self.kind is SingKind.MASSIVE_PARTICLE:
            return self.angle < TWO_PI
        if self.kind is SingKind.TACHYON:
            return self.mass > 0
        if self.kind is SingKind.GRAVITON_NEGATIVE:
            return False
        return not self.is_rejected


def particle_mass(theta: float) -> float:
    """Mass of a cone particle of angle theta: m = 1 - theta / 2 pi."""
    return 1.0 - theta / TWO_PI


def classify_singularity(link: LinkCircle) -> SingularityType:
    """Identify the singular line whose link is the given circle."""
    kind: CircleKind = link.kind
    base = link.basepoint_class

    if kind.tag is CircleTag.ELLIPTIC:
        if not base.is_timelike:
            raise GeometryError("elliptic links must sit over a timelike point")
        theta = kind.angle
        return SingularityType(SingKind.MASSIVE_PARTICLE, angle=theta, mass=particle_mass(theta))

    if kind.degree is not None and kind.degree >= 4:
        return SingularityType(SingKind.REJECTED_DEGREE, degree=kind.degree)

    if kind.tag is CircleTag.HYPERBOLIC:
        if base is not HSPointClass.DS2:
            raise GeometryError("hyperbolic links must sit over a de Sitter point")
        if kind.degree == 2:
            if kind.sign is None:
                raise GeometryError("tachyon link needs a marked future anchor")
            return SingularityType(SingKind.TACHYON, mass=kind.sign * kind.length)
        if kind.degree == 0:
            comp = kind.component
            if comp == "future":
                return SingularityType(SingKind.BTZ_PAST, mass=kind.length)
            if comp == "past":
                return SingularityType(SingKind.BTZ_FUTURE, mass=kind.length)
            if comp == "spacelike":
                return SingularityType(SingKind.REJECTED_SPACELIKE_HYPERBOLIC)
            raise GeometryError("degree-0 hyperbolic link lacks a component tag")
        raise GeometryError(f"hyperbolic link of unsupported degree {kind.degree}")

    # parabolic
    if not base.is_boundary:
        raise GeometryError("parabolic links must sit over a boundary point")
    if kind.degree == 2:
        k = SingKind.GRAVITON_POSITIVE if kind.sign == +1 else SingKind.GRAVITON_NEGATIVE
        return SingularityType(k)
    if kind.degree == 0:
        tags = link.arc_tags()
        if len(tags) != 1:
            raise GeometryError("degree-0 parabolic link must carry one arc")
        # the side of the boundary point cancels: an extreme line over B+ and a
        # cuspidal one over B- both carry a past arc (mark_timelike_arcs)
        if tags[0] is ArcTag.FUTURE:
            return SingularityType(SingKind.EXTREME_BTZ_PAST)
        return SingularityType(SingKind.EXTREME_BTZ_FUTURE)
    raise GeometryError(f"parabolic link of unsupported degree {kind.degree}")


def link_of_type(s: SingularityType) -> LinkCircle:
    """The marked link circle of a singular line of the given type: the
    inverse of classify_singularity on every kind it does not reject.

    A particle needs its angle and a tachyon its mass; a missing BTZ mass
    means 1.  A holonomy that classify would not read back as built
    (_resolved) is refused: a particle angle within about sqrt(TRACE) of
    k pi, a tachyon or BTZ mass (0 too) with |tr - 2| <= TRACE.  A finite
    particle angle of 2^28 or more is refused first, as elliptic_link_circle
    refuses it (rp1.refuse_unheld_lift): its lift offset cannot be held."""
    k = s.kind
    if k is SingKind.MASSIVE_PARTICLE:
        if s.angle is None:
            raise GeometryError(f"{k.value} link needs an angle")
        request = f"{k.value} link of angle {s.angle!r}"
        refuse_unheld_lift(s.angle)
        # the rotation elliptic_link_circle builds, which is exact at k pi
        if not s.angle <= 0 and s.angle % PI:
            _resolved(Proj2.elliptic(2.0 * (s.angle % PI)), IsomKind.ELLIPTIC, request)
        return mark_timelike_arcs(elliptic_link_circle(s.angle), HSPointClass.H2_PLUS)
    if k in (SingKind.TACHYON, SingKind.BTZ_FUTURE, SingKind.BTZ_PAST):
        if s.mass is None and k is SingKind.TACHYON:
            raise GeometryError(f"{k.value} link needs a mass")
        mass = 1.0 if s.mass is None else s.mass
        length = abs(mass) if k is SingKind.TACHYON else mass
        request = f"{k.value} link of mass {mass!r}"
        g = _resolved(Proj2.hyperbolic(length), IsomKind.HYPERBOLIC, request)
        if k is SingKind.TACHYON:
            circ = RP1Circle(LiftedProj2(g, 2 * PI), future_anchor=0.0 if mass > 0 else PI / 2)
            return mark_timelike_arcs(circ, HSPointClass.DS2)
        circ = RP1Circle(LiftedProj2(g, 0.0), interval=(PI / 2, PI))
        comp = "past" if k is SingKind.BTZ_FUTURE else "future"
        return mark_timelike_arcs(circ, HSPointClass.DS2, {"component": comp})
    if k in (SingKind.GRAVITON_POSITIVE, SingKind.GRAVITON_NEGATIVE):
        sign = +1 if k is SingKind.GRAVITON_POSITIVE else -1
        return mark_timelike_arcs(_parabolic_circle(sign, 2), HSPointClass.BOUNDARY_PLUS)
    if k in (SingKind.EXTREME_BTZ_FUTURE, SingKind.EXTREME_BTZ_PAST):
        future = k is SingKind.EXTREME_BTZ_FUTURE
        base = HSPointClass.BOUNDARY_PLUS if future else HSPointClass.BOUNDARY_MINUS
        return mark_timelike_arcs(_parabolic_circle(-1, 0), base, {"side": "extreme"})
    raise GeometryError(f"no link model for {s.kind}")


def _resolved(g: Proj2, built: IsomKind, request: str) -> Proj2:
    """g, if classify reads it as built; else the one near-parabolic refusal."""
    if classify(g).kind is not built:
        raise GeometryError(
            f"{request}: its holonomy has |tr - 2| = {abs(g.trace - 2.0):.3e}, within "
            f"TRACE = {TRACE:g}, the resolution of the trace classifier"
        )
    return g


# The model holonomies fix the line angle 0, so their fixed-point lifts have
# offset 0.  diag(e^(l/2), e^(-l/2)) fixes 0 (attracting for l > 0) and pi/2,
# and moves the lines of (pi/2, pi) forward; [[1, +-1], [0, 1]] fixes 0 only.


def _parabolic_circle(sign: int, degree: int) -> RP1Circle:
    g = Proj2.parabolic(1.0 if sign > 0 else -1.0)
    if degree == 0:
        return RP1Circle(LiftedProj2(g, 0.0), interval=(0.0, PI))
    return RP1Circle(LiftedProj2(g, degree * PI))


def tachyon_mass_from_planes(l1, d1, d2, l2) -> float:
    """Log cross-ratio of four coplanar rays, the wedge angle of a tachyon.

    l1, l2 are the isotropic rays of the (Lorentzian) tangent 2-plane and
    d1, d2 the traces of the two timelike planes.  The cross-ratio
    convention is [a:b:c:d] = ((a-c)(b-d)) / ((a-b)(c-d)) on slopes in the
    null basis, with the indexing of (d1, d2) chosen so the value is >= 1.
    """
    l1, d1, d2, l2 = (np.asarray(v, dtype=float) for v in (l1, d1, d2, l2))
    for iso in (l1, l2):
        if abs(dot12(iso, iso)) > ISOTROPIC_REL * np.dot(iso, iso):
            raise GeometryError("l1, l2 must be isotropic")
    for d in (d1, d2):
        if dot12(d, d) >= 0:
            raise GeometryError("d1, d2 must be timelike")
    # coordinates in the null basis (l1, l2) of the plane they span
    basis = np.column_stack([l1, l2])

    def slope(v):
        coef, res, _, _ = np.linalg.lstsq(basis, v, rcond=None)
        if res.size and res[0] > COPLANAR_REL * np.dot(v, v):
            raise GeometryError("rays are not coplanar")
        if abs(coef[0]) < SLOPE_VERTICAL:
            return np.inf
        return coef[1] / coef[0]

    s1, s2 = slope(d1), slope(d2)
    if not (np.isfinite(s1) and np.isfinite(s2)) or s1 * s2 <= 0:
        raise GeometryError("timelike rays must be separated from the null rays")
    # cross-ratio [l1 : d1 : d2 : l2] on parameters (0, s1, s2, inf)
    cr = s2 / s1
    if cr < 1.0:
        cr = 1.0 / cr
    return float(np.log(cr))


@dataclass(frozen=True)
class GluingPositivity:
    positive: bool
    degenerate: bool


def positivity_from_gluing(glue_map, side: str = "future") -> GluingPositivity:
    """Causal positivity of a gluing that fixes the singular geodesic.

    The gluing acts along the lightlike rays of the cut half-plane; it is
    given by its projective action t -> (a t + b)/(c t + d) on the affine ray
    coordinate, with t = 0 on the axis.  Positive mass means every sampled
    point moves into its own causal future: t increases on a future-side
    half-plane and decreases on a past-side one.  The identity gluing is
    reported as degenerate (mass zero) and positive by convention.
    """
    m = np.asarray(getattr(glue_map, "m", glue_map), dtype=float)
    if m.shape != (2, 2):
        raise GeometryError("glue map must be a 2x2 projective matrix")
    m = m / np.sqrt(abs(np.linalg.det(m)))
    if abs(m[0, 1]) > GLUE_AXIS:
        raise GeometryError("glue map does not fix the axis t = 0")
    if side not in ("future", "past"):
        raise GeometryError("side must be future or past")

    ts = np.geomspace(1e-3, 10.0, 64)
    img = (m[0, 0] * ts + m[0, 1]) / (m[1, 0] * ts + m[1, 1])
    disp = img - ts
    if np.abs(disp).max() <= GLUE_IDENTITY * (1 + np.abs(ts).max()):
        return GluingPositivity(positive=True, degenerate=True)
    forward = bool(np.all(disp > 0))
    backward = bool(np.all(disp < 0))
    if not (forward or backward):
        raise GeometryError("glue map does not preserve the ray family")
    positive = forward if side == "future" else backward
    return GluingPositivity(positive=positive, degenerate=False)
