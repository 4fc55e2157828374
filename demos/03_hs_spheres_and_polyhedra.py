"""
Causal HS-spheres and the polyhedral length conditions
======================================================

The link of an interaction point is a causal HS-sphere.  The AdS
suspension of such a sphere has one singular line per singularity of the
sphere, and its vertex is an interaction when there are at least three
lines.  The classifier sorts these spheres into the four mutually
exclusive shapes (causally regular, black-hole or white-hole interaction,
big bang/crunch, and the black-hole/white-hole interaction), and the
marked-structure checker tests the convexity and length conditions that
characterize metrics induced on convex polyhedra in the extended
hyperbolic space.
"""

import numpy as np

from adscone.catalog import double_triangle_sphere
from adscone.conesurf import cone_area, gauss_bonnet_area, holonomy_of_loop, loop_around_vertex
from adscone.hssurface import (
    CurveRecord,
    DeSitterRegion,
    FaceAngle,
    HyperbolicRegion,
    MarkedHSMetric,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
    VertexPosition,
    VertexRecord,
    check_polyhedron_conditions,
    classify_hs_sphere,
    time_reverse_surface,
)
from adscone.isom import classify
from adscone.links import SingKind, SingularityType, classify_singularity
from adscone.spacetimes import suspend

PI = np.pi

collision = SingularHSSurface(
    hyperbolic_regions=(
        HyperbolicRegion("future", RegionTopology.DISK, (PI,), 0, (0,)),
        HyperbolicRegion("past", RegionTopology.DISK, (PI / 3, PI / 3), 0, (1,)),
    ),
    de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
    photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
)
print("two particles -> one particle:", classify_hs_sphere(collision).value)
lines = suspend(collision)
for name, link in lines.items():
    print(f"  suspension {name}: {classify_singularity(link).kind.value}")
print("  an interaction (at least three lines):", len(lines) >= 3)

bh = SingularHSSurface(
    hyperbolic_regions=(
        HyperbolicRegion("past", RegionTopology.DISK, (2.0, 2.2, 1.9), 0, (0,)),
    ),
    de_sitter_regions=(
        DeSitterRegion(RegionTopology.DISK, (SingularityType(SingKind.BTZ_FUTURE, mass=1.0),), (0,)),
    ),
    photon_circles=(PhotonCircle(0, 0),),
)
print("particles collapsing:", classify_hs_sphere(bh).value)
print("... after time reversal:", classify_hs_sphere(time_reverse_surface(bh)).value)

double_triangle = SingularHSSurface(
    hyperbolic_regions=(
        HyperbolicRegion("past", RegionTopology.SPHERE, (PI / 2, PI / 2, PI / 2)),
    ),
)
print("double of a triangle:", classify_hs_sphere(double_triangle).value)

# Its hyperbolic part as a cone surface: the double of the triangle with
# angles pi/4, a sphere with three cone points of angle pi/2.  Gauss-Bonnet
# on the triangulation gives the area the cone angles predict, and the loop
# around each cone point is a rotation by its cone angle.
sphere = double_triangle_sphere(PI / 4, PI / 4, PI / 4)
print(f"  area {gauss_bonnet_area(sphere):.12f}, "
      f"from the cone angles alone {cone_area(sphere.cone_angles.values(), chi=2):.12f}")
for v, angle in sorted(sphere.cone_angles.items()):
    rotation = classify(holonomy_of_loop(sphere, loop_around_vertex(sphere, v)))
    print(f"  cone point {v}: {rotation.kind.value} holonomy of angle {rotation.angle:.12f} "
          f"(cone angle {angle:.12f})")

print("\npolyhedral conditions on marked structures:")
examples = [
    (
        "hyperbolic vertex with angle sum 2pi + 0.1",
        MarkedHSMetric(
            vertices=(
                VertexRecord(
                    VertexPosition.HYPERBOLIC,
                    tuple(FaceAngle(real=(2 * PI + 0.1) / 3) for _ in range(3)),
                ),
            )
        ),
    ),
    (
        "closed Sigma-geodesic of length 5",
        MarkedHSMetric(sigma_geodesics=(CurveRecord(5.0),)),
    ),
    (
        "simple T-geodesic of length 2pi bounding a degenerate domain",
        MarkedHSMetric(
            t_geodesics=(CurveRecord(2 * PI, bounds_degenerate_domain=True),),
            has_degenerate_t_domain=True,
        ),
    ),
]
for label, metric in examples:
    rep = check_polyhedron_conditions(metric)
    verdict = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(rep.passed.items()))
    print(f"  {label}\n    {verdict}")
