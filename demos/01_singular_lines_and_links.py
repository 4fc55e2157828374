"""
Model singular lines and their links
====================================

Every model spacetime carries singular lines whose links are projective
circles: elliptic circles for massive particles, degree-2 hyperbolic circles
for tachyons, degree-2 parabolic circles for gravitons, degree-0 circles for
the singularities of (possibly extreme) BTZ black holes.  The classification
of the link recovers the defining data of the model.  A regular point is the
calibration: its link is elliptic of angle exactly 2 pi.
"""

import numpy as np

from adscone.links import (
    SingKind,
    SingularityType,
    classify_singularity,
    link_of_type,
    tachyon_mass_from_planes,
)
from adscone.spacetimes import (
    black_hole_spacetime,
    cone_spacetime,
    extreme_spacetime,
    graviton_spacetime,
    link_of_line,
    model_lines,
    tachyon_spacetime,
)

models = [
    ("massive particle, angle pi/2", cone_spacetime(np.pi / 2)),
    ("massive particle, angle 3pi/2", cone_spacetime(3 * np.pi / 2)),
    ("tachyon of mass +1", tachyon_spacetime(1.0)),
    ("tachyon of mass -1/2", tachyon_spacetime(-0.5)),
    ("static black hole, parameter 1.3", black_hole_spacetime(1.3)),
    ("positive graviton", graviton_spacetime(+1)),
    ("negative graviton", graviton_spacetime(-1)),
    ("extreme black hole", extreme_spacetime()),
]

# the link of a regular point is that of a particle of angle 2 pi
regular_link = link_of_type(SingularityType(SingKind.MASSIVE_PARTICLE, angle=2 * np.pi))
regular = classify_singularity(regular_link)
print(f"regular point: {regular.kind.value}, angle={regular.angle:.6f} (2 pi = {2 * np.pi:.6f})")

for label, model in models:
    print(f"\n{label}")
    for line in model_lines(model):
        link = link_of_line(model, line)
        s = classify_singularity(link)
        parts = [s.kind.value]
        if s.angle is not None:
            parts.append(f"angle={s.angle:.6f}")
        if s.mass is not None:
            parts.append(f"mass={s.mass:+.6f}")
        print(f"  line {line!r}: " + ", ".join(parts))

# A tachyon's mass is also a cross-ratio: the log cross-ratio of the two
# isotropic rays of a Lorentzian plane and the traces of the two timelike
# planes of its wedge, here at boosts -1/4 and +1/4 (mass 4 x 1/4 = 1).
def boosted(u):
    return np.array([np.cosh(u), np.sinh(u), 0.0])


null_rays = np.array([1.0, -1.0, 0.0]), np.array([1.0, 1.0, 0.0])
cross_ratio_mass = tachyon_mass_from_planes(null_rays[0], boosted(-0.25), boosted(0.25), null_rays[1])
link_length = link_of_line(tachyon_spacetime(1.0), "c").kind.length
print(f"\ntachyon of mass +1: cross-ratio mass={cross_ratio_mass:.6f}, link length={link_length:.6f}")

# The wedge family: moving the apex of a cut-and-glue wedge from the
# hyperbolic plane across its boundary circle into the de Sitter band turns
# a massive particle into a graviton and then a tachyon, all positive.
from adscone.catalog import wedge_family_link  # noqa: E402

print("\nwedge family (apex position lambda; lambda=1 is the null boundary)")
for lam in (0.3, 0.6, 0.9, 1.0, 1.1, 1.4, 2.0, 3.0):
    s = classify_singularity(wedge_family_link(lam))
    extra = f" mass={s.mass:+.4f}" if s.mass is not None else ""
    print(f"  lambda={lam:4.1f}: {s.kind.value}{extra}")
