"""Real projective structures on the circle and marked link circles.

An RP^1-circle is stored by its distinguished holonomy generator: the lift
satisfying gx > x on the developing image.  Degree-0 circles (quotients of an
interval between consecutive fixed points) additionally carry the interval.
Link circles of singular points add the class of the basepoint and the
pattern of future/past/spacelike arcs over one fundamental domain.

Angles of elliptic circles are reported in ray units, calibrated so the link
of a regular point has angle exactly 2*pi.  The link circle of a point is
the circle of rays, which double-covers the pencil of projective lines
through the point; in the lifted coordinate (deck translation pi for the
pencil) a cone of angle theta therefore has holonomy translating by theta,
the regular link is the double deck, and tachyon links have degree 2 with
hyperbolic length equal to the log cross-ratio mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegreeParityError, GeometryError
from .isom import (
    IsomKind,
    LiftedProj2,
    Proj2,
    attracting_line_angle,
    classify,
    degree_decomposition,
    fixed_line_angles,
    lift_identity,
    parabolic_sign,
    principal_lift,
    translation_number,
)
from .linalg import HSPointClass
from .tolerances import ANGLE_MATCH, ARC_OVERLAP, DISTINCT_LINE, FIXED_POINT, INTERVAL_SLACK
from .tolerances import LIFT_CONGRUENCE

PI = np.pi


@dataclass(frozen=True)
class RP1Circle:
    """A projective structure on the circle, given by its holonomy generator.

    interval: for degree-0 circles, the lifted interval (x0, x1) between
    consecutive fixed points whose quotient is the circle.
    future_anchor: for circles destined to be links over de Sitter or
    boundary points, the lifted fixed point marked as the left endpoint of a
    future timelike component.
    """

    holonomy: LiftedProj2
    interval: tuple[float, float] | None = None
    future_anchor: float | None = None

    def __post_init__(self):
        h = self.holonomy
        if self.interval is not None:
            x0, x1 = self.interval
            if not x0 < x1 <= x0 + PI + INTERVAL_SLACK:
                raise GeometryError("interval must be a sub-arc between consecutive fixed points")
            for e in (x0, x1):
                if abs(h(e) - e) > FIXED_POINT:
                    raise GeometryError("interval endpoints are not fixed by the holonomy")
            # the first lift of each fixed line after x0 comes at x1 or later
            for a in fixed_line_angles(h.g):
                if (a - x0 - DISTINCT_LINE) % PI < x1 - x0 - 2 * DISTINCT_LINE:
                    raise GeometryError("interval must be a sub-arc between consecutive fixed points")
            mid = 0.5 * (x0 + x1)
            if h(mid) <= mid:
                raise GeometryError("holonomy is not positive on the interval")
        elif translation_number(h) <= 0:
            # a non-elliptic lift moves every point forward exactly when it is
            # a positive number of deck translations from its fixed-point lift
            raise GeometryError("holonomy is not a positively oriented generator")
        if self.future_anchor is not None:
            k, _ = degree_decomposition(h)
            a = self.future_anchor
            if abs(h(a) - a - k * PI) > FIXED_POINT:
                raise GeometryError("future anchor is not a fixed point of the holonomy")

    @property
    def degree(self) -> int:
        cls = classify(self.holonomy.g)
        if cls.kind is IsomKind.ELLIPTIC:
            raise GeometryError("elliptic circles have no degree")
        if self.interval is not None:
            return 0
        k, _ = degree_decomposition(self.holonomy)
        return int(k)


class CircleTag(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class CircleKind:
    tag: CircleTag
    angle: float | None = None  # elliptic: ray-angle, regular point = 2*pi
    degree: int | None = None
    length: float | None = None  # hyperbolic translation length
    sign: int | None = None  # parabolic always; hyperbolic when an anchor is marked
    component: str | None = None  # degree 0: future | past | spacelike (link data)


def classify_circle(c: RP1Circle) -> CircleKind:
    """Classify a projective circle by holonomy, degree and parameters."""
    h = c.holonomy
    cls = classify(h.g)
    if cls.kind in (IsomKind.ELLIPTIC, IsomKind.IDENTITY):
        angle = translation_number(h)
        if angle <= 0:
            raise GeometryError("elliptic circle must have positive angle")
        return CircleKind(CircleTag.ELLIPTIC, angle=float(angle))
    degree = c.degree
    if cls.kind is IsomKind.HYPERBOLIC:
        sign = None
        if degree >= 2 and c.future_anchor is not None:
            att = attracting_line_angle(h.g)
            sign = +1 if _same_line(c.future_anchor, att) else -1
        return CircleKind(
            CircleTag.HYPERBOLIC, degree=degree, length=float(cls.length), sign=sign
        )
    # parabolic: h.g is the element of the fixed-point lift too
    sign = parabolic_sign(h.g)
    if degree == 0 and sign == +1:
        raise GeometryError("parabolic circles of degree 0 are always negative")
    return CircleKind(CircleTag.PARABOLIC, degree=degree, sign=sign)


def _same_line(a: float, b: float) -> bool:
    return abs(((a - b) + PI / 2) % PI - PI / 2) < LIFT_CONGRUENCE


class ArcTag(Enum):
    FUTURE = "future"
    PAST = "past"
    SPACELIKE = "spacelike"


@dataclass(frozen=True)
class Arc:
    start: float
    end: float
    tag: ArcTag

    def __post_init__(self):
        if not self.end > self.start:
            raise GeometryError("empty arc")


@dataclass(frozen=True)
class LinkCircle:
    """The link of a singular line: an RP^1-circle over a point class,
    with its future/past/spacelike arcs over one fundamental domain."""

    circle: RP1Circle
    basepoint_class: HSPointClass
    arcs: tuple[Arc, ...] = field(default_factory=tuple)

    def __post_init__(self):
        arcs = tuple(self.arcs)
        object.__setattr__(self, "arcs", arcs)
        for a, b in zip(arcs, arcs[1:]):
            if b.start < a.end - ARC_OVERLAP:
                raise GeometryError("arcs must be disjoint and ordered")
        if self.basepoint_class is HSPointClass.DS2 and len(arcs) > 1:
            tags = [a.tag for a in arcs]
            for i, t in enumerate(tags):
                nxt = tags[(i + 1) % len(tags)]
                if (t is ArcTag.SPACELIKE) == (nxt is ArcTag.SPACELIKE):
                    raise GeometryError("timelike and spacelike arcs must alternate over DS2")

    @property
    def kind(self) -> CircleKind:
        base = classify_circle(self.circle)
        if base.tag is CircleTag.HYPERBOLIC and base.degree == 0:
            comp = self.arcs[0].tag.value if self.arcs else None
            return CircleKind(
                base.tag, degree=0, length=base.length, sign=base.sign, component=comp
            )
        return base

    def arc_tags(self) -> list[ArcTag]:
        return [a.tag for a in self.arcs]


def mark_timelike_arcs(
    c: RP1Circle, basepoint_class: HSPointClass, fixed_point_data: dict | None = None
) -> LinkCircle:
    """Attach the future/past/spacelike arc pattern of a link circle.

    fixed_point_data carries whatever the basepoint class needs:
      DS2, hyperbolic degree >= 2 : {"future_anchor": x0}
      DS2, hyperbolic degree 0    : {"component": "future"|"past"|"spacelike"}
      Boundary+-, parabolic deg 0 : {"side": "cuspidal"|"extreme"}
    Inconsistent data (an anchor that is not a fixed point) is rejected.  A
    parabolic link of degree >= 2 starts at its fixed line, with its
    first arc going into H^2.
    """
    data = dict(fixed_point_data or {})
    h = c.holonomy
    cls = classify(h.g)

    if basepoint_class.is_timelike:
        if cls.kind not in (IsomKind.ELLIPTIC, IsomKind.IDENTITY):
            raise GeometryError("links over timelike points have elliptic holonomy")
        tag = ArcTag.FUTURE if basepoint_class is HSPointClass.H2_PLUS else ArcTag.PAST
        period = h(0.0) - 0.0
        return LinkCircle(c, basepoint_class, (Arc(0.0, float(period), tag),))

    if basepoint_class is HSPointClass.DS2:
        if cls.kind is IsomKind.HYPERBOLIC:
            k = c.degree
            if k == 0:
                comp = data.get("component")
                if comp not in ("future", "past", "spacelike"):
                    raise GeometryError("degree-0 link needs a component tag")
                x0, x1 = c.interval
                return LinkCircle(c, basepoint_class, (Arc(x0, x1, ArcTag(comp)),))
            if k % 2 != 0:
                raise DegreeParityError(k)
            anchor = data.get("future_anchor", c.future_anchor)
            if anchor is None:
                raise GeometryError("hyperbolic link of positive degree needs a future anchor")
            circle = RP1Circle(h, future_anchor=float(anchor))  # checks that it is fixed
            x0 = float(anchor)
            x1 = _other_fixed_point(h.g, x0)
            arcs = []
            for j in range(k):
                t = ArcTag.FUTURE if j % 2 == 0 else ArcTag.PAST
                arcs.append(Arc(x0 + j * PI, x1 + j * PI, t))
                arcs.append(Arc(x1 + j * PI, x0 + (j + 1) * PI, ArcTag.SPACELIKE))
            return LinkCircle(circle, basepoint_class, tuple(arcs))
        raise GeometryError("links over de Sitter points have hyperbolic holonomy")

    if basepoint_class.is_boundary:
        if cls.kind is not IsomKind.PARABOLIC:
            raise GeometryError("links over boundary points have parabolic holonomy")
        k, _ = degree_decomposition(h)
        future = basepoint_class is HSPointClass.BOUNDARY_PLUS
        if k == 0 or c.interval is not None:
            side = data.get("side")
            if side not in ("cuspidal", "extreme"):
                raise GeometryError("degree-0 parabolic link needs side=cuspidal|extreme")
            x0, x1 = c.interval
            into_h2 = side == "cuspidal"
            tag = ArcTag.FUTURE if (future == into_h2) else ArcTag.PAST
            return LinkCircle(c, basepoint_class, (Arc(x0, x1, tag),))
        if k % 2 != 0:
            raise DegreeParityError(k)
        anchor = fixed_line_angles(h.g)[0]
        arcs = []
        for j in range(k):
            into_h2 = j % 2 == 0
            tag = ArcTag.FUTURE if (future == into_h2) else ArcTag.PAST
            arcs.append(Arc(anchor + j * PI, anchor + (j + 1) * PI, tag))
        return LinkCircle(c, basepoint_class, tuple(arcs))

    raise GeometryError(f"unsupported basepoint class {basepoint_class}")


def _other_fixed_point(g: Proj2, x0: float) -> float:
    angles = fixed_line_angles(g)
    if len(angles) != 2:
        raise GeometryError("hyperbolic element must have two fixed lines")
    for a in angles:
        delta = (a - x0) % PI
        if DISTINCT_LINE < delta < PI - DISTINCT_LINE:
            return float(x0 + delta)
    raise GeometryError("could not locate the second fixed point")


def refuse_unheld_lift(theta: float):
    """GeometryError, naming the angle, for a positive finite cone angle of
    2^28 (about 2.7e8) or more: the lift offset of its link, about the
    angle itself, is a sum rounded twice and the congruence test rounds it
    twice more, so it is known only to 2 ulp(theta), which then exceeds
    LIFT_CONGRUENCE."""
    if 0 < theta < math.inf and 2 * math.ulp(theta) > LIFT_CONGRUENCE:
        raise GeometryError(
            f"cone angle {theta!r}: its lift offset cannot be held to "
            f"LIFT_CONGRUENCE = {LIFT_CONGRUENCE:g} at that size"
        )


def elliptic_link_circle(theta: float) -> RP1Circle:
    """The link circle of a cone of angle theta: holonomy translating the
    lifted coordinate by exactly theta.

    A finite angle of 2^28 or more is refused (refuse_unheld_lift)."""
    if theta <= 0:
        raise GeometryError("cone angle must be positive")
    refuse_unheld_lift(theta)
    t = theta % PI
    if t == 0.0:
        return RP1Circle(lift_identity(int(np.round(theta / PI))))
    lift = principal_lift(Proj2.elliptic(2.0 * t))
    tau = translation_number(lift)
    lift = lift.shifted(int(np.round((theta - tau) / PI)))
    if abs(translation_number(lift) - theta) > ANGLE_MATCH:
        raise GeometryError("could not realize the requested angle as a lift")
    return RP1Circle(lift)
