"""Projective 2x2 classes, their classification, and lifts to the universal cover.

PSL(2,R) elements are stored as canonical unit-determinant matrices.  Their
action on the projective line is written in the line-angle coordinate: a
direction (cos(phi), sin(phi)) has line angle phi mod pi, and the universal
cover of the projective line is the real line with deck translation
delta: phi -> phi + pi.  A lift of g is the pair (g, s) where s is the image
of the basepoint angle 0 under the chosen monotone lift.

Isometries of the quadric factor into pairs (g_l, g_r) in the SL(2,R) chart
sl2_of_point, in which a gluing's factors are its meridian holonomies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import DECK_MULTIPLE, FACTOR_RANK, LIFT_CONGRUENCE
from .tolerances import TRACE

PI = np.pi


def _canonical(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    a, b, c, d = m.ravel().tolist()
    det = a * d - b * c
    if not math.isfinite(det):
        # an infinite or NaN entry makes the determinant infinite or NaN
        raise ValueError("matrix entries and determinant must be finite")
    if det <= 0:
        raise ValueError("matrix must have positive determinant")
    m = m / math.sqrt(det)
    tr = m[0, 0] + m[1, 1]
    if tr < 0:
        m = -m
    elif tr == 0:
        for entry in (m[0, 0], m[0, 1], m[1, 0]):
            if entry != 0:
                if entry < 0:
                    m = -m
                break
    return m


def _canonical_stack(ms) -> np.ndarray:
    """_canonical of every 2x2 matrix of a (..., 2, 2) stack, bit for bit, in
    one pass; the first matrix (in C order) that _canonical refuses is
    refused with its message."""
    ms = np.asarray(ms, dtype=float)
    if ms.shape[-2:] != (2, 2):
        raise ValueError("expected a stack of 2x2 matrices")
    a, b, c, d = ms.reshape(-1, 4).T
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * d - b * c
    if det.size and not 0 < det.min() <= det.max() < math.inf:  # a NaN fails both
        first = det[np.flatnonzero(~(det > 0) | (det == math.inf))[0]]
        if not math.isfinite(first):
            raise ValueError("matrix entries and determinant must be finite")
        raise ValueError("matrix must have positive determinant")
    flat = ms.reshape(-1, 4) / np.sqrt(det)[:, None]
    a, b, c, d = flat.T
    tr = a + d
    flip = tr < 0
    zero = tr == 0
    if zero.any():
        # trace zero: the sign of the first nonzero of m00, m01, m10 decides
        lead = np.where(a != 0, a, np.where(b != 0, b, c))
        flip |= zero & (lead < 0)
    np.negative(flat, out=flat, where=flip[:, None])
    return flat.reshape(ms.shape)


@dataclass(frozen=True)
class Proj2:
    """A projective class of 2x2 real matrices, det = 1, trace >= 0."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _canonical(self.m))

    @property
    def trace(self) -> float:
        return float(self.m[0, 0] + self.m[1, 1])

    def __matmul__(self, other: "Proj2") -> "Proj2":
        return Proj2(self.m @ other.m)

    def inverse(self) -> "Proj2":
        a, b, c, d = self.m.ravel()
        return Proj2(np.array([[d, -b], [-c, a]]))

    def conjugate(self, a: "Proj2") -> "Proj2":
        return Proj2(a.m @ self.m @ a.inverse().m)

    @staticmethod
    def identity() -> "Proj2":
        return Proj2(np.eye(2))

    @staticmethod
    def elliptic(theta: float) -> "Proj2":
        """Rotation whose meridian angle is theta (line-angle theta/2)."""
        t = theta / 2.0
        return Proj2(np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]))

    @staticmethod
    def hyperbolic(length: float) -> "Proj2":
        """Translation of length |length| along the axis fixing angles 0, pi/2."""
        return Proj2(np.diag([np.exp(length / 2.0), np.exp(-length / 2.0)]))

    @staticmethod
    def parabolic(s: float) -> "Proj2":
        return Proj2(np.array([[1.0, s], [0.0, 1.0]]))


def sylvester_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix of X -> X a - b X on 2x2 matrices X flattened row-major,
    for stacks a, b of shape (..., 2, 2); shape (..., 4, 4).  Row (i, k) and
    column (i', j) hold delta(i, i') a[j, k] - b[i, i'] delta(j, k)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(a.shape[:-2] + (2, 2, 2, 2))
    out[..., 0, :, 0, :] = out[..., 1, :, 1, :] = np.swapaxes(a, -1, -2)
    out[..., :, 0, :, 0] -= b
    out[..., :, 1, :, 1] -= b
    return out.reshape(a.shape[:-2] + (4, 4))


class IsomKind(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class IsomClass:
    kind: IsomKind
    angle: float | None = None  # elliptic: rotation angle in (0, 2pi)
    length: float | None = None  # hyperbolic: translation length > 0
    sign: int | None = None  # parabolic: +1 if gx <= x on the lifted line


def classify(g: Proj2) -> IsomClass:
    """Elliptic / parabolic / hyperbolic classification with parameters.

    The elliptic angle theta in (0, 2pi) is twice the line angle t in
    (0, pi) by which g turns every line: g is the rotation by t mod pi, with
    cos t = tr/2 and sin t of the sign of m10 - m01 and modulus
    sqrt(-(a - d)^2/4 - bc), which is 1 - tr^2/4 without its cancellation
    near tr = 2.  The hyperbolic length solves tr = 2 cosh(l/2); the
    parabolic sign is the lifted-line inequality (parabolic_sign).
    """
    a, b, c, d = g.m.ravel().tolist()
    tr = a + d
    if max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0)) <= TRACE:
        return IsomClass(IsomKind.IDENTITY)
    if tr < 2.0 - TRACE:
        sin = math.sqrt(max(-0.25 * (a - d) ** 2 - b * c, 0.0))
        t = math.atan2(sin if c > b else -sin, 0.5 * tr) % PI
        return IsomClass(IsomKind.ELLIPTIC, angle=2.0 * t)
    if tr > 2.0 + TRACE:
        return IsomClass(IsomKind.HYPERBOLIC, length=2.0 * float(np.arccosh(tr / 2.0)))
    return IsomClass(IsomKind.PARABOLIC, sign=parabolic_sign(g))


def _eigenline_angle(m: np.ndarray, lam: float) -> float:
    """The line angle in [0, pi) of the eigenline of m for the eigenvalue
    lam: the longer of (b, lam - a) and (lam - d, c), each orthogonal to a
    row of m - lam, turned into the upper half-plane first, so that a line
    just below the x-axis does not round to pi."""
    a, b, c, d = m.ravel().tolist()
    x, y = (b, lam - a) if b * b + (lam - a) ** 2 >= c * c + (lam - d) ** 2 else (lam - d, c)
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return math.atan2(y, x) % PI


def _eigenvalues(tr: float) -> tuple[float, float]:
    """The eigenvalues (larger, smaller) of a unit-determinant matrix of
    trace tr > 2; the smaller is 1/larger, free of cancellation."""
    big = 0.5 * (tr + math.sqrt((tr - 2.0) * (tr + 2.0)))
    return big, 1.0 / big


def fixed_line_angles(g: Proj2) -> list[float]:
    """Fixed line angles of g on RP^1, each in [0, pi); empty for elliptic,
    one (the eigenline of 1) within TRACE of tr = 2."""
    tr = g.trace
    if tr < 2.0 - TRACE:
        return []
    if tr <= 2.0 + TRACE:
        return [_eigenline_angle(g.m, 1.0)]
    return sorted(_eigenline_angle(g.m, lam) for lam in _eigenvalues(tr))


def attracting_line_angle(g: Proj2) -> float:
    """Fixed line of the larger eigenvalue (hyperbolic g only)."""
    return _eigenline_angle(g.m, _eigenvalues(g.trace)[0])


def parabolic_sign(g: Proj2) -> int:
    """+1 for the positive parabolic class (gx <= x for every lifted x).

    g must be parabolic (classify decides that; the sign does not check
    it): a conjugate A [[1, s], [0, 1]] A^-1 has m01 - m10 = s |A e1|^2, so
    the class is the sign of m01 - m10."""
    return +1 if g.m[0, 1] > g.m[1, 0] else -1


@dataclass(frozen=True)
class LiftedProj2:
    """A monotone lift of the action of g on the lifted projective line.

    s is the image of the basepoint angle 0; it must be congruent mod pi to
    the line angle of g e1.  Composing with the deck translation delta
    changes s by +pi.
    """

    g: Proj2
    s: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError("lift offset s must be finite")
        alpha = _image_angle(self.g)
        if abs(((self.s - alpha) + PI / 2) % PI - PI / 2) > LIFT_CONGRUENCE:
            raise ValueError("lift offset s is not congruent to the image of 0")

    def __call__(self, phi: float) -> float:
        """n pi + s plus the turn from g e1 to g (cos r, sin r), for
        phi = n pi + r with r in [0, pi).  The turn has sine det(g) sin r =
        sin r >= 0, so it lies in [0, pi] and crosses no seam of the
        line-angle coordinate; its cosine is the dot product of the images."""
        n = math.floor(phi / PI)
        r = phi - n * PI
        a, b, c, d = self.g.m.ravel().tolist()
        sin, cos = math.sin(r), math.cos(r)
        return n * PI + self.s + math.atan2(sin, (a * a + c * c) * cos + (a * b + c * d) * sin)

    def compose(self, other: "LiftedProj2") -> "LiftedProj2":
        """The lift of self after other (self o other)."""
        return LiftedProj2(self.g @ other.g, self(other.s))

    def inverse(self) -> "LiftedProj2":
        ginv = self.g.inverse()
        beta = _image_angle(ginv)
        raw = self(beta)
        k = np.round(raw / PI)
        return LiftedProj2(ginv, float(beta - k * PI))

    def shifted(self, k: int) -> "LiftedProj2":
        """Compose with delta^k (adds k*pi to the lift)."""
        return LiftedProj2(self.g, self.s + k * PI)


def _image_angle(g: Proj2) -> float:
    """The line angle in [0, pi) of g e1, the image of the basepoint angle 0."""
    return math.atan2(g.m[1, 0], g.m[0, 0]) % PI


def lift_identity(k: int = 0) -> LiftedProj2:
    """delta^k: the lift of the identity translating by k*pi."""
    return LiftedProj2(Proj2.identity(), k * PI)


def principal_lift(g: Proj2) -> LiftedProj2:
    """The lift with s in [0, pi)."""
    return LiftedProj2(g, _image_angle(g))


def fixed_point_lift(g: Proj2) -> LiftedProj2:
    """The unique lift fixing the lifted fixed points (non-elliptic g)."""
    angles = fixed_line_angles(g)
    if not angles:
        raise ValueError("elliptic element has no fixed point on the line")
    beta = angles[0]
    lift = principal_lift(g)
    k = np.round((lift(beta) - beta) / PI)
    return LiftedProj2(g, float(lift.s - k * PI))


def translation_number(h: LiftedProj2) -> float:
    """Translation number of the lift, in line-angle units (delta has pi).

    Exact per conjugacy class.  An elliptic lift fixes no lifted angle, so
    it moves every angle by between k pi and (k + 1) pi, k = floor(s / pi):
    its translation number is k pi plus the line angle by which g turns
    every line, half its classify angle.  A parabolic or
    hyperbolic lift is k deck translations of its fixed-point lift, and an
    identity lift translates by a multiple of pi.
    """
    cls = classify(h.g)
    if cls.kind == IsomKind.IDENTITY:
        return float(PI * np.round(h.s / PI))
    if cls.kind == IsomKind.ELLIPTIC:
        return float(PI * math.floor(h.s / PI) + cls.angle / 2.0)
    k, _ = degree_decomposition(h)
    return float(k * PI)


def degree_decomposition(h: LiftedProj2) -> tuple[int, LiftedProj2]:
    """Write h = delta^k g0 with g0 the fixed-point lift of the same element.

    Only parabolic and hyperbolic underlying elements admit the
    decomposition; elliptic input is rejected (use translation_number).
    """
    cls = classify(h.g)
    if cls.kind == IsomKind.ELLIPTIC:
        raise ValueError("elliptic element: no fixed points on the lifted line")
    if cls.kind == IsomKind.IDENTITY:
        k = np.round(h.s / PI)
        return int(k), lift_identity(0)
    g0 = fixed_point_lift(h.g)
    k = (h.s - g0.s) / PI
    ki = int(np.round(k))
    if abs(k - ki) > DECK_MULTIPLE:
        raise ArithmeticError("lift offset is not an integer multiple of pi")
    return ki, g0


@dataclass(frozen=True)
class IsomPair:
    """An orientation and time-orientation preserving AdS isometry, as the
    ordered pair of its left and right projective factors."""

    left: Proj2
    right: Proj2

    def inverse(self) -> "IsomPair":
        return IsomPair(self.left.inverse(), self.right.inverse())

    def __matmul__(self, other: "IsomPair") -> "IsomPair":
        return IsomPair(self.left @ other.left, self.right @ other.right)


# ---------------------------------------------------------------------------
# left/right factorization of ambient isometries
#
# The quadric is identified with SL(2,R) via
#   Z(x) = [[x0-x3, x2+x1], [x2-x1, x0+x3]],  det Z = -<x,x> ,
# and an orientation/time-orientation preserving isometry acts as
# Z -> g_l Z g_r^{-1}.  The flat connections are right and left translation
# in this chart (lrmetrics.transport), so g_l and g_r are the left and right
# meridian holonomies.
# ---------------------------------------------------------------------------


def sl2_of_point(x: np.ndarray) -> np.ndarray:
    return np.array([[x[0] - x[3], x[2] + x[1]], [x[2] - x[1], x[0] + x[3]]])


def point_of_sl2(Z: np.ndarray) -> np.ndarray:
    return np.array(
        [
            (Z[0, 0] + Z[1, 1]) / 2.0,
            (Z[0, 1] - Z[1, 0]) / 2.0,
            (Z[0, 1] + Z[1, 0]) / 2.0,
            (Z[1, 1] - Z[0, 0]) / 2.0,
        ]
    )


# the matrices of x -> vec Z(x) and of its inverse
_SL2_OF_POINT = np.column_stack([sl2_of_point(e).ravel() for e in np.eye(4)])
_POINT_OF_SL2 = np.column_stack([point_of_sl2(E.reshape(2, 2)) for E in np.eye(4)])


def factor_isometry(L: np.ndarray) -> IsomPair:
    """Factor a 4x4 isometry of the quadric into its left/right pair, which
    is also its pair of left/right meridian holonomies.

    On 2x2 entries Z -> g_l Z g_r^{-1} is K = kron(g_l, g_r^{-T}); rearranged
    as a 4x4 array, K is the rank-one outer product vec(g_l) vec(g_r^{-T})^T,
    so the column of its largest entry is a multiple of vec(g_l) and that
    entry's row is a multiple of vec(g_r^{-T}).
    """
    K = _SL2_OF_POINT @ np.asarray(L, dtype=float) @ _POINT_OF_SL2
    R = K.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    i, j = np.unravel_index(np.argmax(np.abs(R)), R.shape)
    col, row = R[:, j] / R[i, j], R[i]
    if not np.abs(R - np.outer(col, row)).max() <= FACTOR_RANK * max(abs(R[i, j]), 1.0):
        raise ValueError("matrix is not an orientation-preserving quadric isometry")
    gl, grinvT = col.reshape(2, 2), row.reshape(2, 2)
    if np.linalg.det(gl) < 0:
        # time-orientation reversing candidates do not factor with real signs
        raise ValueError("matrix does not preserve orientation data")
    return IsomPair(Proj2(gl), Proj2(grinvT.T).inverse())
