"""The left and right flat connections on unit timelike vectors, transverse
fields, and the extraction of the left/right hyperbolic metrics.

The connections on the bundle of unit timelike vectors are

    D^l_x u = nabla_x u + u x x ,      D^r_x u = nabla_x u - u x x ,

both flat.  On the quadric, identified with SL(2,R) by the chart
isom.sl2_of_point, they are right and left translation, so transport along
them is closed form and their holonomies around a meridian are the two
factors of the gluing isometry (holonomy_pair).  On a spacelike surface with
shape operator B and complex structure J the induced metrics are

    mu_l(v, v) = I((-B + J) v, (-B + J) v),
    mu_r(v, v) = I((-B - J) v, (-B - J) v),

nondegenerate exactly where det(-B +- J) = det(B) + 1 = -K differs from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .isom import IsomPair, factor_isometry, point_of_sl2, sl2_of_point
from .linalg import cross, dot22, normalize_point, project_tangent
from .tolerances import JET_SELF_ADJOINT, JET_SYMMETRIC, POINT_MATCH, TRANSPORT_TANGENT, TRANSVERSE

PI = np.pi


# ---------------------------------------------------------------------------
# 2x2 pointwise algebra on surface jets
# ---------------------------------------------------------------------------


def complex_structure(I: np.ndarray) -> np.ndarray:
    """The rotation by +pi/2 of a 2x2 positive metric in chart coordinates."""
    I = np.asarray(I, dtype=float)
    det = I[0, 0] * I[1, 1] - I[0, 1] * I[1, 0]
    if det <= 0 or I[0, 0] <= 0:
        raise GeometryError("first fundamental form must be positive definite")
    rt = np.sqrt(det)
    return np.array([[-I[0, 1], -I[1, 1]], [I[0, 0], I[0, 1]]]) / rt


@dataclass(frozen=True)
class JetSample:
    """Pointwise second-order data of a spacelike surface patch."""

    I: np.ndarray  # first fundamental form, SPD
    B: np.ndarray  # shape operator, I-self-adjoint

    def __post_init__(self):
        I = np.asarray(self.I, dtype=float)
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "B", B)
        # written so that a NaN (an I @ B that overflowed) fails them
        if not np.abs(I - I.T).max() <= JET_SYMMETRIC:
            raise GeometryError("I must be symmetric")
        s = I @ B
        if not np.abs(s - s.T).max() <= JET_SELF_ADJOINT * max(1.0, np.abs(s).max()):
            raise GeometryError("B must be self-adjoint for I")

    @property
    def J(self) -> np.ndarray:
        return complex_structure(self.I)


@dataclass(frozen=True)
class SurfaceJet:
    """A sampled spacelike patch: pointwise (I, B) data on a grid.

    For general (non-normal) transverse fields, carry instead the derivative
    data du: maps v -> nabla_v u as 2x3 blocks; the normal-field case is the
    one all surgery constructions use."""

    samples: tuple[JetSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise GeometryError("empty jet")


def left_right_metrics(j: SurfaceJet):
    """The pullback metrics mu_l, mu_r at every sample of the jet."""
    check = transverse_check(j)
    if not check.transverse:
        raise GeometryError(
            f"field is not transverse at samples {check.degenerate_samples}"
        )
    return _pullback_metrics(j)


def _pullback_metrics(j: SurfaceJet):
    """left_right_metrics of a jet that transverse_check has passed."""
    out_l, out_r = [], []
    for s in j.samples:
        J = s.J
        a_l = -s.B + J
        a_r = -s.B - J
        out_l.append(a_l.T @ s.I @ a_l)
        out_r.append(a_r.T @ s.I @ a_r)
    return out_l, out_r


@dataclass(frozen=True)
class TransverseReport:
    transverse: bool
    curvatures: tuple[float, ...]
    degenerate_samples: tuple[int, ...]


def transverse_check(j: SurfaceJet) -> TransverseReport:
    """Rank-2 check of v -> D^{l,r}_v u for the normal field:
    det(-B +- J) = det(B) + 1 = -K must be bounded away from 0."""
    curvatures = []
    bad = []
    for i, s in enumerate(j.samples):
        detb = float(np.linalg.det(s.B))
        curvatures.append(-(detb + 1.0))
        if abs(detb + 1.0) <= TRANSVERSE:
            bad.append(i)
    return TransverseReport(
        transverse=not bad, curvatures=tuple(curvatures), degenerate_samples=tuple(bad)
    )


def equidistant_jet(mu: np.ndarray, t: float) -> JetSample:
    """The jet of the slice at time t of a static product -dt^2 + cos^2 t mu:
    I = cos^2(t) mu and B = tan(t) Id."""
    I = np.cos(t) ** 2 * np.asarray(mu, dtype=float)
    B = np.tan(t) * np.eye(2)
    return JetSample(I, B)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def _checked_path(path) -> np.ndarray:
    """path as an array, once each sample and each chord sum a + b is in the
    timelike cone: then every chord is, and its normalization is the
    geodesic segment from a to b."""
    path = np.asarray(path, dtype=float)
    stages = np.concatenate((path, path[:-1] + path[1:]))
    norms = -stages[:, 0] ** 2 - stages[:, 1] ** 2 + stages[:, 2] ** 2 + stages[:, 3] ** 2
    if np.any(norms >= 0):
        k = int(np.argmax(norms))
        where = f"sample {k}" if k < len(path) else f"chord {k - len(path)}"
        raise GeometryError(
            f"path leaves the timelike cone at {where}: <p,p> = {norms[k]:.3e} >= 0"
        )
    return path


def transport(path: np.ndarray, u0: np.ndarray, kind: str = "left") -> np.ndarray:
    """Parallel transport of a tangent vector along a polyline of quadric
    points, for the left, right, or Levi-Civita connection.

    The left and right connections are flat and globally trivial: in the
    chart Z = isom.sl2_of_point a tangent vector U at a = path[0] arrives at
    b = path[-1] as U Z(a)^{-1} Z(b) (left) or Z(b) Z(a)^{-1} U (right),
    whatever the samples in between.  The Levi-Civita connection is not
    flat; each segment of the path is the geodesic from a to b, whose
    transport is u -> u + <b, u> / (1 - <a, b>) (a + b), and the result is
    projected onto the tangent space once, at the end.  Every path is
    checked where a segment's geodesic is defined (_checked_path)."""
    if kind not in ("left", "right", "lc"):
        raise GeometryError("kind must be left, right or lc")
    path = _checked_path(path)
    u = np.asarray(u0, dtype=float).copy()
    if abs(dot22(u, path[0])) > TRANSPORT_TANGENT * max(1.0, float(np.dot(u, u))):
        raise GeometryError("initial vector must be tangent at the path start")
    if kind != "lc":
        a, b = normalize_point(path[0]), normalize_point(path[-1])
        za, zb, U = sl2_of_point(a), sl2_of_point(b), sl2_of_point(u)
        moved = U @ np.linalg.solve(za, zb) if kind == "left" else zb @ np.linalg.solve(za, U)
        return project_tangent(b, point_of_sl2(moved))
    points = [normalize_point(p) for p in path]
    for a, b in zip(points[:-1], points[1:]):
        u = u + dot22(b, u) / (1.0 - dot22(a, b)) * (a + b)
    return project_tangent(points[-1], u)


def loop_deviation(path: np.ndarray, u0: np.ndarray, kind: str) -> float:
    """Norm of the transport defect around a closed polyline."""
    u1 = transport(path, u0, kind)
    return float(np.sqrt(np.dot(u1 - u0, u1 - u0)))


def square_loop(x: np.ndarray, d1: np.ndarray, d2: np.ndarray, size: float, n: int = 40):
    """A contractible square loop at x spanned by two tangent directions."""
    pts = []
    for t in np.linspace(0.0, 1.0, n):
        pts.append(x + t * size * d1)
    for t in np.linspace(0.0, 1.0, n):
        pts.append(x + size * d1 + t * size * d2)
    for t in np.linspace(0.0, 1.0, n):
        pts.append(x + size * (1 - t) * d1 + size * d2)
    for t in np.linspace(0.0, 1.0, n):
        pts.append(x + size * (1 - t) * d2)
    arr = np.array(pts)
    return np.array([normalize_point(p) for p in arr])


def holonomy_pair(path: np.ndarray, closing: np.ndarray) -> IsomPair:
    """Left/right holonomies around a meridian of a model spacetime.

    path runs from a = path[0] to b = path[-1] = G^{-1} a in the ambient
    quadric and closes through the gluing G ('closing'), Z -> G_l Z G_r^{-1}
    in the chart Z = isom.sl2_of_point.  Left transport takes U at a to
    U Z(a)^{-1} Z(b), and dG brings that back as G_l U Z(a)^{-1} G_l^{-1} Z(a):
    on V = U Z(a)^{-1} the left holonomy is conjugation by G_l, and likewise
    the right one by G_r on V = Z(a)^{-1} U.  Read in the frame
    orthonormal_tangent_frame(e) at the identity e = (1, 0, 0, 0), the pair
    is the closing's factors (isom.factor_isometry); at another base point
    it is the holonomy in the frame that translation carries there from e.

    The path is checked as transport checks it: every sample and every
    chord sum a + b must lie in the timelike cone."""
    path = np.asarray(path, dtype=float)
    if np.abs(closing @ path[-1] - path[0]).max() > POINT_MATCH:
        raise GeometryError("closing isometry does not match the path endpoints")
    _checked_path(path)
    return factor_isometry(closing)


# ---------------------------------------------------------------------------
# geodesic-flow invariance and the disk configuration
# ---------------------------------------------------------------------------


def jacobi_form_value(
    x: np.ndarray, v: np.ndarray, u1: np.ndarray, u2: np.ndarray, t: float, side: str = "left"
) -> float:
    """The degenerate metric M_l (or M_r) evaluated on the Jacobi field
    x'(t) = u0 + u1 cos t + u2 sin t along the geodesic through (x, v);
    invariance under the geodesic flow makes this independent of t."""
    gx = np.cos(t) * x + np.sin(t) * v
    gv = -np.sin(t) * x + np.cos(t) * v
    xp = gv + np.cos(t) * u1 + np.sin(t) * u2
    vp = -np.sin(t) * u1 + np.cos(t) * u2
    w = cross(gx, gv, xp)
    val = vp + w if side == "left" else vp - w
    return float(dot22(val, val))


def cone_point_field_samples(radii, n_phi: int = 16):
    """Samples of the geodesic-cone configuration around a vertex: at each
    radius r, points of the past distance sphere with the field u' pointing
    back at the vertex, returning tuples (x, u', tangent basis).

    The derivative data for D^l u' is exact: nabla_v u' for v tangent to the
    distance sphere is computed from the closed-form parametrization."""
    c = np.array([1.0, 0.0, 0.0, 0.0])
    T = np.array([0.0, 1.0, 0.0, 0.0])
    E1 = np.array([0.0, 0.0, 1.0, 0.0])
    E2 = np.array([0.0, 0.0, 0.0, 1.0])
    out = []
    for r in radii:
        for phi in np.linspace(0.0, 2 * PI, n_phi, endpoint=False):
            for a in (0.15, 0.3):
                udir = np.cosh(a) * T + np.sinh(a) * (np.cos(phi) * E1 + np.sin(phi) * E2)
                x = np.cos(r) * c - np.sin(r) * udir
                uprime = np.sin(r) * c + np.cos(r) * udir
                # tangent of the distance sphere: derivative in a and phi
                dudir_da = np.sinh(a) * T + np.cosh(a) * (np.cos(phi) * E1 + np.sin(phi) * E2)
                dudir_dphi = np.sinh(a) * (-np.sin(phi) * E1 + np.cos(phi) * E2)
                va = -np.sin(r) * dudir_da
                vphi = -np.sin(r) * dudir_dphi
                dup_da = np.cos(r) * dudir_da
                dup_dphi = np.cos(r) * dudir_dphi
                out.append((x, uprime, (va, dup_da), (vphi, dup_dphi), r))
    return out


def disk_link_isometry_check(radii, n_phi: int = 10) -> float:
    """Max deviation of ||D^l_v u'||^2 sin^2(r) from ||w||^2 over the cone
    configuration; the cone-field identity ||D^l u||^2 = ||w||^2 / sin^2(r)
    makes this vanish."""
    worst = 0.0
    for x, uprime, (va, dva), (vphi, dvphi), r in cone_point_field_samples(radii, n_phi):
        for v, dv in ((va, dva), (vphi, dvphi)):
            # nabla_v u' = dv - <u', v> x  (ambient derivative minus normal part)
            nab = dv - dot22(uprime, v) * x
            dl = nab + cross(x, uprime, v)
            w = v  # distance spheres are orthogonal to the radial field
            lhs = dot22(dl, dl) * np.sin(r) ** 2
            rhs = dot22(w, w)
            worst = max(worst, abs(lhs - rhs))
    return float(worst)
