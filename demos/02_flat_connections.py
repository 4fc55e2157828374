"""
The left and right flat connections
===================================

On the bundle of unit timelike vectors the two connections
D^l u = nabla u + u x v and D^r u = nabla u - u x v are flat: transport
around contractible loops returns the vector, while the Levi-Civita
comparison picks up curvature proportional to the enclosed area.  Their
holonomies around a meridian of a cone spacetime are the two projective
factors of the gluing isometry: an elliptic pair whose angle is the cone
angle.

On the quadric, identified with SL(2,R) by the chart Z (isom.sl2_of_point),
the flat connections are right and left translation, so left/right
transport is closed form and returns around every loop to rounding.  The
Levi-Civita transport is closed form along each geodesic segment of the
loop, and its deviation is the curvature.  In the same chart the
gluing acts as Z -> g_l Z g_r^{-1}, and holonomy_pair returns its factors
(g_l, g_r) themselves, which model_isom_pair also returns: the meridian path
is only checked.

The metrics the two connections induce on a spacelike slice,
mu_l = I((-B + J)., (-B + J).) and mu_r = I((-B - J)., (-B - J).), are the
base metric mu itself on every equidistant slice of a static product
-dt^2 + cos^2(t) mu, where I = cos^2(t) mu and B = tan(t) Id.
"""

import numpy as np

from adscone.isom import classify
from adscone.linalg import normalize_point, orthonormal_tangent_frame
from adscone.lrmetrics import (
    SurfaceJet,
    equidistant_jet,
    holonomy_pair,
    left_right_metrics,
    loop_deviation,
    square_loop,
)
from adscone.spacetimes import meridian_loop, model_isom_pair

x = normalize_point(np.array([1.1, 0.2, 0.3, -0.1]))
t, f1, f2 = orthonormal_tangent_frame(x)
u0 = np.cosh(3.0) * t + np.sinh(3.0) * f1
loop = square_loop(x, f1, f2, 1e-2, 40)

print("transport around a contractible square loop of side 1e-2:")
for kind in ("left", "right", "lc"):
    print(f"  {kind:5s}: deviation {loop_deviation(loop, u0, kind):.3e}")

print("\ncone meridians: holonomy pairs and the gluing's factors")
for theta in (np.pi / 3, np.pi / 2, np.pi):
    path, G = meridian_loop("cone", theta, samples=1200)
    pair = holonomy_pair(path, G)
    model = model_isom_pair("cone", theta)
    print(
        f"  theta={theta:.4f}: pair elliptic({classify(pair.left).angle:.6f}, "
        f"{classify(pair.right).angle:.6f}), factors elliptic("
        f"{classify(model.left).angle:.6f}, {classify(model.right).angle:.6f})"
    )

print("\ntachyon meridian: the pair is the gluing isometry's factors")
path, G = meridian_loop("tachyon", 0.8, radius=0.25, samples=1600)
pair = holonomy_pair(path, G)
model = model_isom_pair("tachyon", 0.8)
gap = max(np.abs(pair.left.m - model.left.m).max(), np.abs(pair.right.m - model.right.m).max())
print(f"  meridian pair: lengths ({classify(pair.left).length:.6f}, "
      f"{classify(pair.right).length:.6f})")
print(f"  factors:       lengths ({classify(model.left).length:.6f}, "
      f"{classify(model.right).length:.6f})")
print(f"  largest entry gap between pair and factors: {gap:.1e}")

print("\nleft/right metrics of equidistant slices of a static product")
mu = np.array([[2.0, 0.3], [0.3, 1.0]])
ts = (-0.6, 0.0, 0.4, 1.0)
mls, mrs = left_right_metrics(SurfaceJet(tuple(equidistant_jet(mu, t) for t in ts)))
for t, ml, mr in zip(ts, mls, mrs):
    print(f"  t={t:+.1f}: largest entry gap to mu: mu_l {np.abs(ml - mu).max():.1e}, "
          f"mu_r {np.abs(mr - mu).max():.1e}")
