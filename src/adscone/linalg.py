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

import math
from enum import Enum

import numpy as np

from .tolerances import FRAME_DEPENDENT, NULL_REL

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


def time_orientation_field(x: Vec22) -> Vec22:
    """Global future timelike field V(x) = (-x1, x0, 0, 0) on the quadric."""
    return np.array([-x[1], x[0], 0.0, 0.0])


def project_tangent(x: Vec22, u: Vec22) -> Vec22:
    """Orthogonal projection of an ambient vector onto T_x of the quadric."""
    return u + dot22(u, x) * x


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
    norm), so the decision is invariant under positive rescaling.  The ray
    is first scaled by the power of two that brings its largest entry into
    [1/2, 1), which rounds nothing the squares would keep: a ray whose
    squares are finite gets the decision it would get unscaled, and any
    other finite nonzero ray gets one too (|y|^2 ends up in [1/4, 3)).
    """
    entries = np.asarray(y, dtype=float).tolist()
    largest = max(map(abs, entries))
    if largest == 0.0 or not all(map(math.isfinite, entries)):
        raise ValueError("zero or non-finite ray representative")
    exponent = math.frexp(largest)[1]
    t, a, b = (math.ldexp(v, -exponent) for v in entries)
    scale = t * t + a * a + b * b
    q = -t * t + a * a + b * b  # dot12(y, y)
    if abs(q) <= NULL_REL * scale:
        return HSPointClass.BOUNDARY_PLUS if t > 0 else HSPointClass.BOUNDARY_MINUS
    if q < 0:
        return HSPointClass.H2_PLUS if t > 0 else HSPointClass.H2_MINUS
    return HSPointClass.DS2
