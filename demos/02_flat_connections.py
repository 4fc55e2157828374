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

The contractible-loop deviations come from RK4 transport.  The meridian
pairs are exact: on the quadric, identified with SL(2,R), the flat
connections are left and right translation, so holonomy_pair reads the pair
off the gluing's own factors, X -> g_l X g_r^{-1}, as (S g_r S, S g_l S)
with S = diag(1, -1); the meridian path is only checked.
"""

import numpy as np

from adscone.isom import classify
from adscone.linalg import normalize_point, orthonormal_tangent_frame
from adscone.lrmetrics import holonomy_pair, loop_deviation, square_loop
from adscone.spacetimes import meridian_loop, model_isom_pair

x = normalize_point(np.array([1.1, 0.2, 0.3, -0.1]))
t, f1, f2 = orthonormal_tangent_frame(x)
u0 = np.cosh(3.0) * t + np.sinh(3.0) * f1
loop = square_loop(x, f1, f2, 1e-2, 40)

print("transport around a contractible square loop of side 1e-2:")
for kind in ("left", "right", "lc"):
    print(f"  {kind:5s}: deviation {loop_deviation(loop, u0, kind):.3e}")

print("\ncone meridians: holonomy pairs")
for theta in (np.pi / 3, np.pi / 2, np.pi):
    path, G = meridian_loop("cone", theta, samples=1200)
    pair = holonomy_pair(path, G)
    cl, cr = classify(pair.left), classify(pair.right)
    print(
        f"  theta={theta:.4f}: left elliptic({cl.angle:.6f}), "
        f"right elliptic({cr.angle:.6f})"
    )

print("\ntachyon meridian vs the gluing isometry's factors")
path, G = meridian_loop("tachyon", 0.8, radius=0.25, samples=1600)
pair = holonomy_pair(path, G)
model = model_isom_pair("tachyon", 0.8)
print(f"  meridian pair: lengths ({classify(pair.left).length:.6f}, "
      f"{classify(pair.right).length:.6f})")
print(f"  factors:       lengths ({classify(model.left).length:.6f}, "
      f"{classify(model.right).length:.6f})")
