"""Arithmetic in the flat ambient spaces R^{2,2} and R^{1,2}.

The anti-de Sitter space is the quadric <x,x> = -1 in R^{2,2} with the
bilinear form

    <x,y> = -x0*y0 - x1*y1 + x2*y2 + x3*y3 ,

time orientation given by the counterclockwise direction of the (x0,x1)
plane.  Tangent spaces are copies of Minkowski R^{1,2} with form
-y0^2 + y1^2 + y2^2; the space of rays in such a tangent space splits into
two hyperbolic disks, a de Sitter band and two null circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import FRAME_DEPENDENT, NULL_REL, SAME_BASE, TANGENT, UNIT_SPEED

Vec22 = np.ndarray  # shape (4,)
Mink3Vec = np.ndarray  # shape (3,)


def dot22(u: Vec22, w: Vec22) -> float:
    return float(-u[0] * w[0] - u[1] * w[1] + u[2] * w[2] + u[3] * w[3])


def dot12(u: Mink3Vec, w: Mink3Vec) -> float:
    return float(-u[0] * w[0] + u[1] * w[1] + u[2] * w[2])


def normalize_point(p: Vec22) -> Vec22:
    q = dot22(p, p)
    if q >= 0:
        raise ValueError("point is not in the timelike cone of the quadric")
    return p / np.sqrt(-q)


@dataclass(frozen=True)
class AdSPoint:
    """A point on the quadric <v,v> = -1, re-normalized on construction."""

    v: Vec22

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        q = dot22(v, v)
        if not np.isfinite(q) or q >= 0:
            raise ValueError("not a quadric point: <v,v> = %r" % q)
        object.__setattr__(self, "v", v / np.sqrt(-q))

    @property
    def coords(self) -> Vec22:
        return self.v


def time_orientation_field(x: Vec22) -> Vec22:
    """Global future timelike field V(x) = (-x1, x0, 0, 0) on the quadric."""
    return np.array([-x[1], x[0], 0.0, 0.0])


def is_future(x: Vec22, u: Vec22) -> bool:
    """Whether the causal tangent vector u at x points to the future."""
    return dot22(u, time_orientation_field(x)) < 0


class CausalClass(Enum):
    TIMELIKE_FUTURE = "timelike-future"
    TIMELIKE_PAST = "timelike-past"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def causal_class(x: Vec22, u: Vec22) -> CausalClass:
    q = dot22(u, u)
    scale = float(np.dot(u, u))
    if abs(q) <= NULL_REL * scale:
        return CausalClass.LIGHTLIKE
    if q > 0:
        return CausalClass.SPACELIKE
    return CausalClass.TIMELIKE_FUTURE if is_future(x, u) else CausalClass.TIMELIKE_PAST


@dataclass(frozen=True)
class TangentVec:
    """A tangent vector of the quadric: |<base, v>| <= TANGENT * max(1, |v|^2), |v| Euclidean."""

    base: AdSPoint
    v: Vec22

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", v)
        x = self.base.v
        if abs(dot22(x, v)) > TANGENT * max(1.0, float(np.dot(v, v))):
            raise ValueError("vector is not tangent to the quadric at base")

    @property
    def kind(self) -> CausalClass:
        return causal_class(self.base.v, self.v)


def project_tangent(x: Vec22, u: Vec22) -> Vec22:
    """Orthogonal projection of an ambient vector onto T_x of the quadric."""
    return u + dot22(u, x) * x


def ads_geodesic(x: Vec22, v: Vec22, t: float) -> Vec22:
    """Point at parameter t on the unit-speed geodesic through x with velocity v.

    Timelike directions give trigonometric circles in the quadric (the
    first conjugate point sits at proper time pi), spacelike directions
    hyperbolic branches.  Lightlike directions are rejected; use
    ads_null_geodesic for those.
    """
    q = dot22(v, v)
    if abs(abs(q) - 1.0) > UNIT_SPEED:
        raise ValueError("velocity must be unit (timelike or spacelike)")
    if abs(dot22(x, v)) > TANGENT:
        raise ValueError("velocity must be tangent at x")
    if q < 0:
        p = np.cos(t) * x + np.sin(t) * v
    else:
        p = np.cosh(t) * x + np.sinh(t) * v
    return normalize_point(p)


def ads_null_geodesic(x: Vec22, v: Vec22, t: float) -> Vec22:
    """Affine null geodesic x + t v (lies on the quadric without rescaling)."""
    q = dot22(v, v)
    scale = float(np.dot(v, v))
    if abs(q) > NULL_REL * max(scale, 1.0):
        raise ValueError("velocity is not lightlike")
    if abs(dot22(x, v)) > TANGENT:
        raise ValueError("velocity must be tangent at x")
    return x + t * v


def cross(x: Vec22, u: Vec22, w: Vec22) -> Vec22:
    """Cross product on T_x AdS: <cross(x,u,w), z> = det[x,u,w,z].

    The sign is fixed by declaring an oriented orthonormal tangent frame
    (e0 timelike, e1, e2 spacelike) to satisfy e0 x e1 = e2,
    e1 x e2 = -e0 and e2 x e0 = e1.
    """
    m01 = u[0] * w[1] - u[1] * w[0]
    m02 = u[0] * w[2] - u[2] * w[0]
    m03 = u[0] * w[3] - u[3] * w[0]
    m12 = u[1] * w[2] - u[2] * w[1]
    m13 = u[1] * w[3] - u[3] * w[1]
    m23 = u[2] * w[3] - u[3] * w[2]
    return np.array(
        [
            x[1] * m23 - x[2] * m13 + x[3] * m12,
            -(x[0] * m23 - x[2] * m03 + x[3] * m02),
            -(x[0] * m13 - x[1] * m03 + x[3] * m01),
            x[0] * m12 - x[1] * m02 + x[2] * m01,
        ]
    )


def tangent_cross(u: TangentVec, w: TangentVec) -> TangentVec:
    if not np.allclose(u.base.v, w.base.v, atol=SAME_BASE):
        raise ValueError("cross product requires a common base point")
    return TangentVec(u.base, cross(u.base.v, u.v, w.v))


def orthonormal_tangent_frame(x: Vec22) -> tuple[Vec22, Vec22, Vec22]:
    """An oriented orthonormal frame (t, f1, f2) of T_x, t future timelike."""
    t = time_orientation_field(x)
    t = t / np.sqrt(-dot22(t, t))
    frame = [t]
    for cand in np.eye(4):
        v = project_tangent(x, cand)
        for f in frame:
            v = v - (dot22(v, f) / dot22(f, f)) * f
        nv = dot22(v, v)
        if nv > FRAME_DEPENDENT:
            frame.append(v / np.sqrt(nv))
        if len(frame) == 3:
            break
    t, f1, f2 = frame
    # fix orientation so that f1 x f2 = -t (the convention of `cross`)
    if dot22(cross(x, f1, f2), t) < 0:
        f2 = -f2
    return t, f1, f2


def frame_coordinates(x: Vec22, frame: tuple[Vec22, Vec22, Vec22], u: Vec22) -> Mink3Vec:
    """Coordinates of a tangent vector in an orthonormal frame (t, f1, f2)."""
    t, f1, f2 = frame
    return np.array([-dot22(u, t), dot22(u, f1), dot22(u, f2)])


class HSPointClass(Enum):
    """The five-piece partition of the space of rays in R^{1,2}."""

    H2_PLUS = "H2Plus"
    H2_MINUS = "H2Minus"
    DS2 = "DS2"
    BOUNDARY_PLUS = "BoundaryPlus"
    BOUNDARY_MINUS = "BoundaryMinus"

    @property
    def is_timelike(self) -> bool:
        return self in (HSPointClass.H2_PLUS, HSPointClass.H2_MINUS)

    @property
    def is_boundary(self) -> bool:
        return self in (HSPointClass.BOUNDARY_PLUS, HSPointClass.BOUNDARY_MINUS)


def classify_ray(y: Mink3Vec) -> HSPointClass:
    """Class of the ray R+ * y in HS^2, stable under the library's own noise.

    A ray counts as lightlike when |<y,y>| <= NULL_REL * |y|^2 (Euclidean
    norm), so the decision is invariant under positive rescaling.
    """
    y = np.asarray(y, dtype=float)
    scale = float(np.dot(y, y))
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError("zero or non-finite ray representative")
    q = dot12(y, y)
    if abs(q) <= NULL_REL * scale:
        return HSPointClass.BOUNDARY_PLUS if y[0] > 0 else HSPointClass.BOUNDARY_MINUS
    if q < 0:
        return HSPointClass.H2_PLUS if y[0] > 0 else HSPointClass.H2_MINUS
    return HSPointClass.DS2


def cross12(a: Mink3Vec, b: Mink3Vec) -> Mink3Vec:
    """Lorentzian cross product on R^{1,2}: <a x b, c> = det[a,b,c]."""
    return np.array(
        [
            -(a[1] * b[2] - a[2] * b[1]),
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )
