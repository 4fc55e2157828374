"""Model singular spacetimes and their singular-line links, product metrics,
static BTZ quotients, and the causal checks in singular coordinates.

Models are descriptors carrying their defining parameters; their gluing
isometries are available as ambient 4x4 matrices in the quadric model and
their singular-line links as marked circles, so the link dictionary can be
round-tripped against the classification of singular lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import CausalityError, GeometryError
from .isom import IsomKind, IsomPair, Proj2, attracting_line_angle, classify, factor_isometry
from .isom import point_of_sl2
from .linalg import HSPointClass, dot22, normalize_point
from .links import SingKind, SingularityType, link_of_type, particle_mass
from .rp1 import LinkCircle, mark_timelike_arcs
from .tolerances import ACHRONAL_SLACK, BTZ_LENGTH_MATCH, CAUSAL_SPEED_SLACK, POINT_MATCH
from .tolerances import SAMPLE_STEP_SLACK

if TYPE_CHECKING:
    from .conesurf import ConeSurface
    from .hssurface import SingularHSSurface

TWO_PI = 2.0 * np.pi


class ModelKind(Enum):
    CONE = "ConeP"
    TACHYON = "TachyonT"
    BLACK_HOLE = "BlackHoleB"
    GRAVITON = "GravitonG"
    EXTREME = "ExtremeE"
    PRODUCT = "ProductM"
    BTZ_STATIC = "BTZStatic"


@dataclass(frozen=True)
class ModelSpacetime:
    kind: ModelKind
    theta: float | None = None
    mass: float | None = None
    sign: int | None = None
    base: ConeSurface | None = None
    holonomies: tuple[Proj2, Proj2] | None = None


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
    if m.kind is ModelKind.PRODUCT:
        marked = m.base.marked_vertices()
        try:
            v = int(line)
        except ValueError:
            raise GeometryError("product spacetime lines are marked vertex ids")
        if v not in marked:
            raise GeometryError(f"vertex {v} is not a marked point of the base")
        return link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=marked[v]))
    what, kinds = _MODEL_LINES[m.kind]
    if line not in kinds:
        raise GeometryError(f"unknown line {line!r} of {what} spacetime")
    kind = kinds[line]
    if kind is SingKind.GRAVITON_POSITIVE and not m.sign > 0:
        kind = SingKind.GRAVITON_NEGATIVE
    return link_of_type(SingularityType(kind, angle=m.theta, mass=m.mass))


def model_lines(m: ModelSpacetime) -> list[str]:
    if m.kind is ModelKind.PRODUCT:
        return [str(v) for v in sorted(m.base.marked_vertices())]
    return list(_MODEL_LINES[m.kind][1])


def suspend(link: SingularHSSurface) -> dict[str, LinkCircle]:
    """The links of the singular lines of the AdS suspension of a causal
    singular HS-surface, by name "line<i>": one per singularity of the
    surface, in the order all_singularities lists them.  The vertex is an
    interaction exactly when there are at least three."""
    from .hssurface import check_causal

    report = check_causal(link)
    if not report.causal:
        raise CausalityError("; ".join(report.failures))
    circles = []
    for h in link.hyperbolic_regions:
        base = HSPointClass.H2_PLUS if h.orientation == "future" else HSPointClass.H2_MINUS
        for a in h.cone_angles:
            particle = link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=a))
            circles.append(mark_timelike_arcs(particle.circle, base))
    # all_singularities lists the particles of the hyperbolic regions first
    circles.extend(link_of_type(s) for s in link.all_singularities()[len(circles):])
    return {f"line{i}": c for i, c in enumerate(circles)}


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
    """Unipotent fixing the null line through e_base in direction e0 + e2.

    For s > 0 it moves the cut half-plane to the future.  Both factors are
    I + (s/2) [[1, -1], [1, -1]] (m10 - m01 = s), of parabolic_sign -sign(s):
    for s > 0 they turn lines forward, like a cone's just above 2 pi, while
    graviton_spacetime(+1)'s link [[1, 1], [0, 1]] turns them back, like a
    cone's just below.  Nothing derives which should change: an observed
    convention, pinned by a test."""
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


_GLUINGS = {"cone": cone_gluing, "tachyon": tachyon_gluing, "graviton": graviton_gluing}


def model_isom_pair(kind: str, param: float) -> IsomPair:
    """The left/right factors of a model's gluing isometry, which are its
    meridian holonomies (holonomy_pair): elliptic of angle theta on both
    sides for a cone, hyperbolic of length m for a tachyon of mass m, and
    parabolic of sign -sign(s) for graviton_gluing(s)."""
    if kind not in _GLUINGS:
        raise GeometryError(f"no model of kind {kind!r}")
    return factor_isometry(_GLUINGS[kind](param))


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
    l1 pointwise fixed, l2 translated, dual at timelike distance pi/2.

    They are read off the fixed lines of the holonomies.  In eigenframes
    g_i = P_i D_i P_i^-1 (_eigenframe), D_i = diag(e^(l_i/2), e^(-l_i/2)),
    the gluing Z -> g1 Z g2^-1 of the chart acts on M = P1^-1 Z P2 as
    M -> D1 M D2^-1.  So the chart points P1 M P2^-1 with M = diag(e^s, e^-s)
    are l1, slid by (l1 - l2)/2 (btz_static lets the lengths differ by up to
    BTZ_LENGTH_MATCH, and the self-check allows that slide), and those with
    M = [[0, e^s], [-e^-s, 0]], orthogonal to every diagonal M, are l2,
    translated by (l1 + l2)/2."""
    if m.kind is not ModelKind.BTZ_STATIC:
        raise GeometryError("not a static BTZ descriptor")
    g1, g2 = m.holonomies
    P1, Q2 = _eigenframe(g1), np.linalg.inv(_eigenframe(g2))
    ts = np.linspace(-1.2, 1.2, samples)
    fixed_ends = np.outer(P1[:, 0], Q2[0]), np.outer(P1[:, 1], Q2[1])
    fixed = _chart_geodesic(*fixed_ends, ts)
    slid = _chart_geodesic(*fixed_ends, ts + 0.5 * (m.mass - classify(g2).length))
    if np.abs(g1.m @ fixed @ g2.inverse().m - slid).max() > POINT_MATCH:
        raise ArithmeticError("fixed line is not pointwise fixed within tolerance")
    trans = _chart_geodesic(np.outer(P1[:, 0], Q2[1]), -np.outer(P1[:, 1], Q2[0]), ts)
    fixed, trans = (np.array([point_of_sl2(z) for z in line]) for line in (fixed, trans))
    dual_err = max(abs(dot22(x, q)) for x in fixed[:8] for q in trans[:8])
    return BTZLines(fixed_line=fixed, translated_line=trans, duality_error=float(dual_err))


def _eigenframe(g: Proj2) -> np.ndarray:
    """P of determinant 1 with g = P diag(e^(l/2), e^(-l/2)) P^-1, for g
    hyperbolic of length l: its columns lie on the attracting fixed line of
    g and on the repelling one, which attracts for g^-1."""
    a, r = attracting_line_angle(g), attracting_line_angle(g.inverse())
    det = np.sin(r - a)
    frame = np.array([[np.cos(a), np.cos(r)], [np.sin(a), np.sin(r)]])
    return frame * [1.0, np.sign(det)] / np.sqrt(abs(det))


def _chart_geodesic(a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The chart points e^t a + e^-t b, t counted from the point of least
    norm, where the two terms have equal norms: shape (len(ts), 2, 2)."""
    r = np.sqrt(np.linalg.norm(b) / np.linalg.norm(a))
    return np.exp(ts)[:, None, None] * (r * a) + np.exp(-ts)[:, None, None] * (b / r)
