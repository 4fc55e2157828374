"""Projective 2x2 classes, their classification, and lifts to the universal cover.

PSL(2,R) elements are stored as canonical unit-determinant matrices.  Their
action on the projective line is written in the line-angle coordinate: a
direction (cos(phi), sin(phi)) has line angle phi mod pi, and the universal
cover of the projective line is the real line with deck translation
delta: phi -> phi + pi.  A lift of g is the pair (g, s) where s is the image
of the basepoint angle 0 under the chosen monotone lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import Mink3Vec
from .tolerances import DECK_MULTIPLE, FACTOR_RANK, LIFT_CONGRUENCE, LORENTZ_ROUND_TRIP
from .tolerances import PARABOLIC_DISPLACEMENT, RIGID_ROTATION, TRACE

PI = np.pi


def _canonical(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    d = float(np.linalg.det(m))
    if d <= 0:
        raise ValueError("matrix must have positive determinant")
    m = m / np.sqrt(d)
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

    def almost_equal(self, other: "Proj2", tol: float) -> bool:
        return bool(np.abs(self.m - other.m).max() <= tol)

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

    The elliptic angle theta in (0, 2pi) satisfies tr = 2 cos(theta/2) up to
    the rotation direction, which is read from the sign of m10 - m01; the
    hyperbolic length solves tr = 2 cosh(l/2); the parabolic sign is the
    lifted-line inequality (positive iff gx <= x for every x).
    """
    m = g.m
    tr = g.trace
    if np.abs(m - np.eye(2)).max() <= TRACE:
        return IsomClass(IsomKind.IDENTITY)
    if tr < 2.0 - TRACE:
        a = float(np.arccos(np.clip(tr / 2.0, -1.0, 1.0)))
        half = a if (m[1, 0] - m[0, 1]) > 0 else PI - a
        return IsomClass(IsomKind.ELLIPTIC, angle=2.0 * half)
    if tr > 2.0 + TRACE:
        return IsomClass(IsomKind.HYPERBOLIC, length=2.0 * float(np.arccosh(tr / 2.0)))
    return IsomClass(IsomKind.PARABOLIC, sign=parabolic_sign(g))


def fixed_line_angles(g: Proj2) -> list[float]:
    """Fixed line angles of g on RP^1, each in [0, pi); empty for elliptic."""
    tr = g.trace
    if tr < 2.0 - TRACE:
        return []
    if tr <= 2.0 + TRACE:
        # parabolic (or identity): the kernel of m - I, via SVD for stability
        _, _, vt = np.linalg.svd(g.m - np.eye(2))
        v = vt[-1]
        return [float(np.arctan2(v[1], v[0]) % PI)]
    w, vecs = np.linalg.eig(g.m)
    out = []
    for i in range(2):
        v = vecs[:, i].real
        out.append(float(np.arctan2(v[1], v[0]) % PI))
    return sorted(out)


def attracting_line_angle(g: Proj2) -> float:
    """Fixed line of the larger-modulus eigenvalue (hyperbolic g only)."""
    w, vecs = np.linalg.eig(g.m)
    i = int(np.argmax(np.abs(w)))
    v = vecs[:, i].real
    return float(np.arctan2(v[1], v[0]) % PI)


def parabolic_sign(g: Proj2) -> int:
    """+1 for the positive parabolic class (gx <= x for every lifted x)."""
    lift = fixed_point_lift(g)
    xs = np.linspace(0.05, PI - 0.05, 37) + lift.s
    disp = np.array([lift(x) - x for x in xs])
    if np.all(disp <= PARABOLIC_DISPLACEMENT):
        return +1
    if np.all(disp >= -PARABOLIC_DISPLACEMENT):
        return -1
    raise ValueError("element is not parabolic (mixed displacements)")


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
        alpha = _image_angle(self.g, 0.0)
        if abs(((self.s - alpha) + PI / 2) % PI - PI / 2) > LIFT_CONGRUENCE:
            raise ValueError("lift offset s is not congruent to the image of 0")

    def __call__(self, phi: float) -> float:
        n = np.floor(phi / PI)
        r = phi - n * PI
        if r == 0.0:
            return float(n * PI + self.s)
        alpha = _image_angle(self.g, r)
        return float(n * PI + self.s + ((alpha - self.s) % PI))

    def compose(self, other: "LiftedProj2") -> "LiftedProj2":
        """The lift of self after other (self o other)."""
        return LiftedProj2(self.g @ other.g, self(other.s))

    def inverse(self) -> "LiftedProj2":
        ginv = self.g.inverse()
        beta = _image_angle(ginv, 0.0)
        raw = self(beta)
        k = np.round(raw / PI)
        return LiftedProj2(ginv, float(beta - k * PI))

    def shifted(self, k: int) -> "LiftedProj2":
        """Compose with delta^k (adds k*pi to the lift)."""
        return LiftedProj2(self.g, self.s + k * PI)


def _image_angle(g: Proj2, phi: float) -> float:
    w = g.m @ np.array([np.cos(phi), np.sin(phi)])
    return float(np.arctan2(w[1], w[0]) % PI)


def lift_identity(k: int = 0) -> LiftedProj2:
    """delta^k: the lift of the identity translating by k*pi."""
    return LiftedProj2(Proj2.identity(), k * PI)


def principal_lift(g: Proj2) -> LiftedProj2:
    """The lift with s in [0, pi)."""
    return LiftedProj2(g, _image_angle(g, 0.0))


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

    Computed exactly per conjugacy class: elliptic lifts are conjugated to a
    rigid rotation, parabolic/hyperbolic lifts reduce to their fixed-point
    lift, identity lifts translate by a multiple of pi.
    """
    cls = classify(h.g)
    if cls.kind == IsomKind.IDENTITY:
        return float(PI * np.round(h.s / PI))
    if cls.kind == IsomKind.ELLIPTIC:
        conj = _diagonalizing_conjugator(h.g)
        a = principal_lift(conj)
        rigid = a.compose(h).compose(a.inverse())
        # rigid is a lift of a rotation: its translation number is exactly s'
        t = rigid.s
        # guard: the conjugated map must be a rigid translation
        probe = rigid(1.2345) - 1.2345
        if abs(probe - t) > RIGID_ROTATION:
            raise ArithmeticError("conjugation to a rigid rotation failed")
        return float(t)
    k, _ = degree_decomposition(h)
    return float(k * PI)


def translation_number_by_iteration(h: LiftedProj2, n: int = 2 ** 14) -> float:
    """Orbit-average translation number with one Richardson extrapolation.

    Exact for rational rotations and rapidly convergent in the parabolic and
    hyperbolic cases; used as an independent cross-check of
    translation_number.
    """
    phi = 0.0
    half = None
    for i in range(n):
        if i == n // 2:
            half = phi
        phi = h(phi)
    tau_n = phi / n
    tau_half = half / (n // 2)
    return float(2.0 * tau_n - tau_half)


def _diagonalizing_conjugator(g: Proj2) -> Proj2:
    """For elliptic g, a matrix a with a g a^-1 a rigid rotation."""
    # complex eigenvector x + i y gives a real basis (x, y) in which g is a
    # rotation-and-scale; normalizing the basis makes it a pure rotation.
    w, vecs = np.linalg.eig(g.m)
    i = 0 if w[0].imag > 0 else 1
    v = vecs[:, i]
    x, y = v.real, v.imag
    b = np.column_stack([x, y])
    if np.linalg.det(b) < 0:
        b = np.column_stack([x, -y])
    return Proj2(np.linalg.inv(b))


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
# spin isomorphism PSL(2,R) <-> SO0(1,2)
#
# R^{1,2} is identified with symmetric 2x2 matrices via
#   X(v) = [[v0+v1, v2], [v2, v0-v1]],   det X = v0^2 - v1^2 - v2^2,
# on which g acts by X -> g X g^T.
# ---------------------------------------------------------------------------


def _sym_of_vec(v: Mink3Vec) -> np.ndarray:
    return np.array([[v[0] + v[1], v[2]], [v[2], v[0] - v[1]]])


def _vec_of_sym(x: np.ndarray) -> Mink3Vec:
    return np.array([(x[0, 0] + x[1, 1]) / 2.0, (x[0, 0] - x[1, 1]) / 2.0, x[0, 1]])


def lorentz3_of_psl(g: Proj2) -> np.ndarray:
    """The SO0(1,2) matrix of g acting on R^{1,2}."""
    m = g.m
    cols = [_vec_of_sym(m @ _sym_of_vec(e) @ m.T) for e in np.eye(3)]
    return np.column_stack(cols)


def psl_of_lorentz3(L: np.ndarray) -> Proj2:
    """Inverse of lorentz3_of_psl, via polar decomposition.

    L e0 determines g g^T; the rotation factor is then solved from L e1.
    """
    L = np.asarray(L, dtype=float)
    S = _sym_of_vec(L[:, 0])
    w, P = np.linalg.eigh(S)
    if np.any(w <= 0):
        raise ValueError("matrix does not preserve the future cone")
    shalf = P @ np.diag(np.sqrt(w)) @ P.T
    sinv = P @ np.diag(1.0 / np.sqrt(w)) @ P.T
    y = sinv @ _sym_of_vec(L[:, 1]) @ sinv
    beta = 0.5 * np.arctan2(y[0, 1], y[0, 0])
    r = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    g = Proj2(shalf @ r)
    if np.abs(lorentz3_of_psl(g) - L).max() > LORENTZ_ROUND_TRIP:
        raise ArithmeticError("Lorentz matrix is not in SO0(1,2) within tolerance")
    return g


# ---------------------------------------------------------------------------
# left/right factorization of ambient isometries
#
# The quadric is identified with SL(2,R) via
#   X(x) = [[x0+x3, x2+x1], [x2-x1, x0-x3]],  det X = -<x,x> ,
# and an orientation/time-orientation preserving isometry acts as
# X -> g_l X g_r^{-1}.
# ---------------------------------------------------------------------------


def sl2_of_point(x: np.ndarray) -> np.ndarray:
    return np.array([[x[0] + x[3], x[2] + x[1]], [x[2] - x[1], x[0] - x[3]]])


def point_of_sl2(X: np.ndarray) -> np.ndarray:
    return np.array(
        [
            (X[0, 0] + X[1, 1]) / 2.0,
            (X[0, 1] - X[1, 0]) / 2.0,
            (X[0, 1] + X[1, 0]) / 2.0,
            (X[0, 0] - X[1, 1]) / 2.0,
        ]
    )


def matrix44_of_pair(pair: IsomPair) -> np.ndarray:
    """The 4x4 ambient matrix of x -> g_l X(x) g_r^{-1}."""
    gl, gr = pair.left.m, pair.right.inverse().m
    cols = []
    for e in np.eye(4):
        cols.append(point_of_sl2(gl @ sl2_of_point(e) @ gr))
    return np.column_stack(cols)


def factor_isometry(L: np.ndarray) -> IsomPair:
    """Factor a 4x4 isometry of the quadric into its left/right pair.

    Uses the Kronecker structure of X -> g_l X g_r^{-1} on matrix entries:
    rearranged as a 4x4 array it is the outer product vec(g_l) vec(g_r^{-T}),
    recovered from the dominant singular pair.
    """
    L = np.asarray(L, dtype=float)
    M = np.zeros((4, 4))
    for j, e in enumerate(np.eye(4)):
        M[:, j] = sl2_of_point(L @ e).ravel()
    B = np.zeros((4, 4))
    for j in range(4):
        E = sl2_of_point(np.eye(4)[j]).ravel()
        B[:, j] = E
    # entries: sl2_of_point is linear, M = K B with K the matrix of
    # Y -> g_l Y g_r^{-1} on 2x2 entries, i.e. K = kron(g_l, g_r^{-T}).
    K = M @ np.linalg.inv(B)
    R = K.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vt = np.linalg.svd(R)
    if s[1] > FACTOR_RANK * max(s[0], 1.0):
        raise ValueError("matrix is not an orientation-preserving quadric isometry")
    gl = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    grinvT = (vt[0] * np.sqrt(s[0])).reshape(2, 2)
    dl = np.linalg.det(gl)
    if dl < 0:
        # time-orientation reversing candidates do not factor with real signs
        raise ValueError("matrix does not preserve orientation data")
    gr = np.linalg.inv(grinvT.T)
    return IsomPair(Proj2(gl), Proj2(gr))
