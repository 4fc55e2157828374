"""Model singular spacetimes and their singular-line links, product metrics,
static BTZ quotients, and the causal checks in singular coordinates.

Models are descriptors carrying their defining parameters; their gluing
isometries are available as ambient 4x4 matrices in the quadric model and
their singular-line links as marked circles, so the link dictionary can be
round-tripped against the classification of singular lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .conesurf import ConeSurface
from .errors import CausalityError, GeometryError
from .hssurface import SingularHSSurface, check_causal
from .isom import (
    IsomKind,
    IsomPair,
    Proj2,
    attracting_line_angle,
    classify,
    fixed_line_angles,
    fixed_point_lift,
    matrix44_of_pair,
)
from .linalg import HSPointClass, dot22, normalize_point
from .links import SingKind, SingularityType, particle_mass
from .rp1 import LinkCircle, RP1Circle, elliptic_link_circle, mark_timelike_arcs
from .tolerances import ACHRONAL_SLACK, BTZ_LENGTH_MATCH, CAUSAL_SPEED_SLACK, DISTINCT_LINE
from .tolerances import INTERTWINER_RANK, POINT_MATCH, SAMPLE_STEP_SLACK

PI = np.pi
TWO_PI = 2.0 * np.pi


class ModelKind(Enum):
    CONE = "ConeP"
    TACHYON = "TachyonT"
    BLACK_HOLE = "BlackHoleB"
    GRAVITON = "GravitonG"
    EXTREME = "ExtremeE"
    PRODUCT = "ProductM"
    SUSPENSION = "Suspension"
    BTZ_STATIC = "BTZStatic"


@dataclass(frozen=True)
class ModelSpacetime:
    kind: ModelKind
    theta: float | None = None
    mass: float | None = None
    sign: int | None = None
    base: ConeSurface | None = None
    link_surface: SingularHSSurface | None = None
    holonomies: tuple[Proj2, Proj2] | None = None
    is_interaction: bool = False
    line_links: dict = field(default_factory=dict)


def cone_spacetime(theta: float) -> ModelSpacetime:
    if theta <= 0:
        raise GeometryError("cone angle must be positive")
    return ModelSpacetime(ModelKind.CONE, theta=theta, mass=particle_mass(theta))


def tachyon_spacetime(mass: float) -> ModelSpacetime:
    if mass == 0:
        raise GeometryError("tachyon mass must be nonzero")
    return ModelSpacetime(ModelKind.TACHYON, mass=float(mass))


def black_hole_spacetime(mass: float) -> ModelSpacetime:
    if mass <= 0:
        raise GeometryError("black hole parameter must be positive")
    return ModelSpacetime(ModelKind.BLACK_HOLE, mass=float(mass))


def graviton_spacetime(sign: int) -> ModelSpacetime:
    if sign not in (+1, -1):
        raise GeometryError("graviton sign must be +1 or -1")
    return ModelSpacetime(ModelKind.GRAVITON, sign=sign)


def extreme_spacetime() -> ModelSpacetime:
    return ModelSpacetime(ModelKind.EXTREME)


def product_spacetime(base: ConeSurface) -> ModelSpacetime:
    """The static product over a hyperbolic cone surface,
    h = -dt^2 + cos^2(t) mu on S x (-pi/2, pi/2)."""
    return ModelSpacetime(ModelKind.PRODUCT, base=base)


# -- links of singular lines -------------------------------------------------


def _degree0_hyperbolic_circle(length: float) -> RP1Circle:
    g = Proj2.hyperbolic(length)
    base = fixed_point_lift(g)
    a = fixed_line_angles(g)  # angle 0 attracting for diag; interval (pi/2, pi)
    return RP1Circle(base, interval=(a[1], a[0] + PI))


def _degree2_hyperbolic_circle(length: float, positive: bool) -> RP1Circle:
    g = Proj2.hyperbolic(length)
    lift = fixed_point_lift(g).shifted(2)
    att = attracting_line_angle(g)
    other = [a for a in fixed_line_angles(g) if abs(a - att) > DISTINCT_LINE][0]
    return RP1Circle(lift, future_anchor=float(att if positive else other))


def _parabolic_circle(sign: int, degree: int) -> RP1Circle:
    g = Proj2.parabolic(1.0 if sign > 0 else -1.0)
    base = fixed_point_lift(g)
    if degree == 0:
        x0 = fixed_line_angles(g)[0]
        return RP1Circle(base, interval=(x0, x0 + PI))
    return RP1Circle(base.shifted(degree))


# model kind -> (its name in messages, line name -> singularity kind)
_MODEL_LINES = {
    ModelKind.CONE: ("a cone", {"c": SingKind.MASSIVE_PARTICLE}),
    ModelKind.TACHYON: ("a tachyon", {"c": SingKind.TACHYON, "c-": SingKind.TACHYON}),
    ModelKind.BLACK_HOLE: ("a black hole", {"c": SingKind.BTZ_FUTURE, "c-": SingKind.BTZ_PAST}),
    ModelKind.GRAVITON: ("a graviton", {"c": SingKind.GRAVITON_POSITIVE}),
    ModelKind.EXTREME: (
        "an extreme", {"c": SingKind.EXTREME_BTZ_FUTURE, "c-": SingKind.EXTREME_BTZ_PAST}
    ),
    ModelKind.BTZ_STATIC: ("a BTZ", {"future": SingKind.BTZ_FUTURE, "past": SingKind.BTZ_PAST}),
}


def link_of_line(m: ModelSpacetime, line: str = "c") -> LinkCircle:
    """The marked link circle of a singular line of a model spacetime."""
    if m.kind is ModelKind.SUSPENSION:
        if line not in m.line_links:
            raise GeometryError(f"unknown line {line!r} of a suspension")
        return m.line_links[line]
    if m.kind is ModelKind.PRODUCT:
        marked = m.base.marked_vertices()
        try:
            v = int(line)
        except ValueError:
            raise GeometryError("product spacetime lines are marked vertex ids")
        if v not in marked:
            raise GeometryError(f"vertex {v} is not a marked point of the base")
        return _link_from_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=marked[v]))
    if m.kind not in _MODEL_LINES:
        raise GeometryError(f"no singular lines on {m.kind}")
    what, kinds = _MODEL_LINES[m.kind]
    if line not in kinds:
        raise GeometryError(f"unknown line {line!r} of {what} spacetime")
    kind = kinds[line]
    if kind is SingKind.GRAVITON_POSITIVE and not m.sign > 0:
        kind = SingKind.GRAVITON_NEGATIVE
    return _link_from_type(SingularityType(kind, angle=m.theta, mass=m.mass))


def model_lines(m: ModelSpacetime) -> list[str]:
    if m.kind in _MODEL_LINES:
        return list(_MODEL_LINES[m.kind][1])
    if m.kind is ModelKind.PRODUCT:
        return [str(v) for v in sorted(m.base.marked_vertices())]
    if m.kind is ModelKind.SUSPENSION:
        return sorted(m.line_links)
    return []


def suspend(link: SingularHSSurface) -> ModelSpacetime:
    """The AdS suspension of a causal singular HS-surface.

    Its singular lines are the singularities of the surface; the vertex is an
    interaction exactly when there are at least three of them."""
    report = check_causal(link)
    if not report.causal:
        raise CausalityError("; ".join(report.failures))
    circles = []
    for h in link.hyperbolic_regions:
        base = HSPointClass.H2_PLUS if h.orientation == "future" else HSPointClass.H2_MINUS
        circles.extend(mark_timelike_arcs(elliptic_link_circle(a), base) for a in h.cone_angles)
    # all_singularities lists the particles of the hyperbolic regions first
    circles.extend(_link_from_type(s) for s in link.all_singularities()[len(circles):])
    return ModelSpacetime(
        ModelKind.SUSPENSION,
        link_surface=link,
        is_interaction=len(circles) >= 3,
        line_links={f"line{i}": c for i, c in enumerate(circles)},
    )


def _link_from_type(s: SingularityType) -> LinkCircle:
    """The marked link circle of a singular line of the given type."""
    k = s.kind
    if k is SingKind.MASSIVE_PARTICLE:
        return mark_timelike_arcs(elliptic_link_circle(s.angle), HSPointClass.H2_PLUS)
    if k is SingKind.TACHYON:
        circ = _degree2_hyperbolic_circle(abs(s.mass), s.mass > 0)
        return mark_timelike_arcs(circ, HSPointClass.DS2)
    if k in (SingKind.BTZ_FUTURE, SingKind.BTZ_PAST):
        circ = _degree0_hyperbolic_circle(s.mass or 1.0)
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


# -- ambient gluing isometries and meridian paths ----------------------------


def cone_gluing(theta: float) -> np.ndarray:
    """Rotation by theta about the timelike axis cos(t) e_base + sin(t) e0."""
    g = np.eye(4)
    g[2, 2] = np.cos(theta)
    g[2, 3] = -np.sin(theta)
    g[3, 2] = np.sin(theta)
    g[3, 3] = np.cos(theta)
    return g


def tachyon_gluing(rapidity: float) -> np.ndarray:
    """Boost fixing the spacelike geodesic cosh(s) e_base + sinh(s) e2."""
    g = np.eye(4)
    g[1, 1] = np.cosh(rapidity)
    g[1, 3] = np.sinh(rapidity)
    g[3, 1] = np.sinh(rapidity)
    g[3, 3] = np.cosh(rapidity)
    return g


def graviton_gluing(s: float) -> np.ndarray:
    """Unipotent fixing the null line through e_base in direction e0 + e2."""
    x = np.array([1.0, 0.0, 0.0, 0.0])
    ll = np.array([0.0, 1.0, 0.0, 1.0])
    u = np.array([0.0, 0.0, 1.0, 0.0])
    cols = []
    for y in np.eye(4):
        img = (
            y
            + s * dot22(y, u) * ll
            - s * dot22(y, ll) * u
            - (s * s / 2.0) * dot22(y, ll) * ll
        )
        cols.append(img)
    return np.column_stack(cols)


def meridian_loop(kind: str, param: float, radius: float = 0.3, samples: int = 2400):
    """A positively oriented meridian around the singular line of a model,
    as (points on the quadric, closing 4x4 gluing G): the loop runs from
    points[0] to points[-1] = G^{-1} points[0], and closes through G.

    kind "cone": around the timelike axis of cone_gluing(param);
    kind "tachyon": around the spacelike axis of tachyon_gluing(param)."""
    x = np.array([1.0, 0.0, 0.0, 0.0])
    if kind == "cone":
        G = cone_gluing(param)
        e1 = np.array([0.0, 0.0, 1.0, 0.0])
        e2 = np.array([0.0, 0.0, 0.0, 1.0])
        phis = np.linspace(param, 0.0, samples)
        pts = [
            normalize_point(np.cos(radius) * x + np.sin(radius) * (np.cos(p) * e1 + np.sin(p) * e2))
            for p in phis
        ]
        return np.array(pts), G
    if kind == "tachyon":
        G = tachyon_gluing(param)
        if radius >= 0.9 / np.cosh(param):
            raise GeometryError("meridian radius too large for this rapidity")
        e0 = np.array([0.0, 1.0, 0.0, 0.0])
        e2 = np.array([0.0, 0.0, 0.0, 1.0])
        end = np.array([np.cosh(param), -np.sinh(param)])  # G^{-1} of (1, 0)
        pts = []
        for tau in np.linspace(0.0, 1.0, samples):
            ang = -TWO_PI * tau
            mix = (1 - tau) * np.array([1.0, 0.0]) + tau * end
            c, s = np.cos(ang), np.sin(ang)
            w = np.array([c * mix[0] - s * mix[1], s * mix[0] + c * mix[1]])
            pts.append(normalize_point(x + radius * (w[0] * e0 + w[1] * e2)))
        return np.array(pts), G
    raise GeometryError(f"no meridian model for kind {kind!r}")


def model_isom_pair(kind: str, param: float) -> IsomPair:
    """The left/right factorization of a model's gluing isometry."""
    from .isom import factor_isometry

    if kind == "cone":
        return factor_isometry(cone_gluing(param))
    if kind == "tachyon":
        return factor_isometry(tachyon_gluing(param))
    if kind == "graviton":
        return factor_isometry(graviton_gluing(param))
    raise GeometryError(f"no model of kind {kind!r}")


# -- causal checks in the singular chart -------------------------------------


def causal_speed_check(
    ts: np.ndarray, zs: np.ndarray, mass: float, slack: float = CAUSAL_SPEED_SLACK
) -> bool:
    """Whether a sampled curve t -> z(t) near a particle of the given mass is
    causal: |dz/dt| <= |z|^m / (1 - m) at every step.

    The curve must stay inside the unit disk and be sampled at steps of at
    most 1e-3 in t."""
    ts = np.asarray(ts, dtype=float)
    zs = np.asarray(zs, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise GeometryError("curve leaves the unit disk of the chart")
    dt = np.diff(ts)
    if np.any(dt <= 0) or np.any(dt > 1e-3 + SAMPLE_STEP_SLACK):
        raise GeometryError("samples must advance in t by at most 1e-3")
    alpha = 1.0 - mass
    speeds = np.abs(np.diff(zs)) / dt
    mids = 0.5 * (np.abs(zs[1:]) + np.abs(zs[:-1]))
    bound = mids ** mass / alpha
    return bool(np.all(speeds <= bound + slack))


def saturating_null_curve(mass: float, t0: float, t1: float, z0: float, n: int = 2001):
    """The radial curve saturating the causal speed bound:
    |z(t)|^(1-m) = t + c, heading outward."""
    alpha = 1.0 - mass
    c = z0 ** alpha - t0
    ts = np.linspace(t0, t1, n)
    if ts[1] - ts[0] > 1e-3:
        n = int(np.ceil((t1 - t0) / 1e-3)) + 1
        ts = np.linspace(t0, t1, n)
    rs = (ts + c) ** (1.0 / alpha)
    if np.any(rs >= 1.0):
        raise GeometryError("curve exits the chart; shorten the interval")
    return ts, rs.astype(complex)


def achronal_graph_check(rs: np.ndarray, phis: np.ndarray, f: np.ndarray, mass: float) -> bool:
    """Whether a sampled graph t = f(z) over a polar grid is achronal:
    the finite-difference gradient satisfies |df| < (1-m) |z|^(-m).

    rs: radii (increasing, excluding 0), phis: angles, f: shape (nr, nphi)."""
    rs = np.asarray(rs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != (len(rs), len(phis)):
        raise GeometryError("f must be sampled on the (r, phi) grid")
    if np.any(np.diff(rs) > 1e-2) or (len(phis) > 1 and np.max(np.diff(phis)) * np.max(rs) > 1e-2):
        raise GeometryError("grid too coarse for the gradient check")
    alpha = 1.0 - mass
    df_dr = np.gradient(f, rs, axis=0)
    if len(phis) > 1:
        df_dphi = np.gradient(f, phis, axis=1) / rs[:, None]
    else:
        df_dphi = np.zeros_like(f)
    grad = np.hypot(df_dr, df_dphi)
    bound = alpha * rs[:, None] ** (-mass)
    return bool(np.all(grad < bound + ACHRONAL_SLACK))


# -- static BTZ ---------------------------------------------------------------


@dataclass(frozen=True)
class BTZLines:
    fixed_line: np.ndarray  # sampled points of l1 (pointwise fixed), shape (n, 4)
    translated_line: np.ndarray  # sampled points of l2
    duality_error: float


def btz_static(g1: Proj2, g2: Proj2) -> ModelSpacetime:
    """The static BTZ descriptor for a pair of hyperbolic elements with the
    same translation length (btz_invariant_lines computes its lines)."""
    c1, c2 = classify(g1), classify(g2)
    if c1.kind is not IsomKind.HYPERBOLIC or c2.kind is not IsomKind.HYPERBOLIC:
        raise GeometryError("both holonomies must be hyperbolic")
    if abs(c1.length - c2.length) > BTZ_LENGTH_MATCH:
        raise GeometryError(
            f"translation lengths differ: {c1.length:.12g} vs {c2.length:.12g}"
        )
    return ModelSpacetime(ModelKind.BTZ_STATIC, mass=c1.length, holonomies=(g1, g2))


def btz_invariant_lines(m: ModelSpacetime, samples: int = 24) -> BTZLines:
    """The two invariant spacelike geodesics of a static BTZ spacetime:
    l1 pointwise fixed, l2 translated, dual at timelike distance pi/2."""
    if m.kind is not ModelKind.BTZ_STATIC:
        raise GeometryError("not a static BTZ descriptor")
    g1, g2 = m.holonomies
    # pointwise-fixed points solve g1 X = X g2: the intertwiner pencil
    A = np.kron(g1.m, np.eye(2)) - np.kron(np.eye(2), g2.m.T)
    _, sv, vt = np.linalg.svd(A)
    if sv[-2] > INTERTWINER_RANK:
        raise GeometryError("intertwiner space is not two-dimensional")
    n1 = vt[-1].reshape(2, 2)
    n2 = vt[-2].reshape(2, 2)

    from .isom import point_of_sl2

    x1, x2 = point_of_sl2(n1), point_of_sl2(n2)
    fixed = _geodesic_from_plane(x1, x2, samples)
    # the dual line is the quadric section of the orthogonal 2-plane
    eta = np.diag([-1.0, -1.0, 1.0, 1.0])
    _, _, vt4 = np.linalg.svd(np.vstack([x1 @ eta, x2 @ eta]))
    u1, u2 = vt4[2], vt4[3]
    trans = _geodesic_from_plane(u1, u2, samples)

    G = matrix44_of_pair(IsomPair(g1, g2))
    err = max(np.abs(G @ x - x).max() for x in fixed)
    if err > POINT_MATCH:
        raise ArithmeticError("fixed line is not pointwise fixed within tolerance")
    moved = max(np.abs(G @ q - q).max() for q in trans)
    if moved < POINT_MATCH:
        raise GeometryError("dual line should be translated, not fixed")
    dual_err = max(abs(dot22(x, q)) for x in fixed[:8] for q in trans[:8])
    return BTZLines(fixed_line=fixed, translated_line=trans, duality_error=float(dual_err))


def _geodesic_from_plane(v1: np.ndarray, v2: np.ndarray, samples: int) -> np.ndarray:
    """Sample the quadric section of the 2-plane spanned by v1, v2; the plane
    must have signature (-,+) so the section is a spacelike geodesic."""
    gram = np.array([[dot22(v1, v1), dot22(v1, v2)], [dot22(v1, v2), dot22(v2, v2)]])
    w, vecs = np.linalg.eigh(gram)
    if not (w[0] < 0 < w[1]):
        raise GeometryError("plane does not meet the quadric in a spacelike geodesic")
    tau = (vecs[0, 0] * v1 + vecs[1, 0] * v2) / np.sqrt(-w[0])
    sig = (vecs[0, 1] * v1 + vecs[1, 1] * v2) / np.sqrt(w[1])
    ss = np.linspace(-1.2, 1.2, samples)
    return np.array([np.cosh(s) * tau + np.sinh(s) * sig for s in ss])
