"""
Static BTZ spacetimes and causal checks in the singular chart
=============================================================

A pair of hyperbolic holonomies with equal translation lengths leaves two
spacelike geodesics invariant: one pointwise fixed (the future singularity),
one translated, dual at timelike distance pi/2.  Near a massive particle the
causal curves obey the weighted speed bound |dz/dt| <= |z|^m / (1-m), with
the radial curve saturating it as the null boundary case; a graph t = f(z)
is achronal where its gradient stays below the inverse bound (1-m) |z|^(-m).
"""

import numpy as np

from adscone.isom import Proj2
from adscone.links import classify_singularity
from adscone.spacetimes import (
    achronal_graph_check,
    btz_invariant_lines,
    btz_static,
    causal_speed_check,
    link_of_line,
    saturating_null_curve,
)

g = Proj2(np.diag([np.e, 1 / np.e]))  # translation length 2
m = btz_static(g, g)
lines = btz_invariant_lines(m)
print("static BTZ from a pair of boosts of length 2")
print("  duality defect of the two invariant lines:", lines.duality_error)
for line in ("future", "past"):
    s = classify_singularity(link_of_line(m, line))
    print(f"  {line} singularity: {s.kind.value}, parameter {s.mass:.6f}")

print("\ncausal speed bound near a particle")
for mass in (0.25, 0.5, 0.75):
    ts, zs = saturating_null_curve(mass, 0.0, 0.2, 0.05)
    ok = causal_speed_check(ts, zs, mass)
    bad = causal_speed_check(ts, zs[0] + 1.01 * (zs - zs[0]), mass)
    print(f"  m={mass}: saturating curve causal: {ok}; 1% faster: {bad}")

print("\nachronal graphs t = c |z|^(1-m) near a particle (c = 1 is the null cone)")
rs = np.linspace(0.05, 0.6, 120)
phis = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
for mass in (0.25, 0.5):
    for c in (0.9, 1.1):
        f = np.tile((c * rs ** (1 - mass))[:, None], (1, len(phis)))
        print(f"  m={mass}, c={c}: achronal: {achronal_graph_check(rs, phis, f, mass)}")
