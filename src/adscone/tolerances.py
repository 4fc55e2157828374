"""Every numerical threshold the library decides with, one name per decision.

Checks share a name only when they decide the same thing; a threshold is
absolute unless its reason says what it is relative to.  Literals that
parametrize one algorithm (damping schedules, finite-difference steps, the
arccosh floor, sampling grids, plot floors) stay at their one site.
"""

# the ambient spaces R^{2,2} and R^{1,2}
NULL_REL = 1e-10  # a vector or ray is lightlike: |<y,y>| <= NULL_REL |y|^2
FRAME_DEPENDENT = 1e-6  # a projected candidate with <v,v> below this adds nothing to a frame
POINT_MATCH = 1e-9  # two quadric points agree entrywise (closing maps; the BTZ fixed line, in the chart)
# projective classes and their lifts
TRACE = 1e-9  # identity within this entrywise, else elliptic/parabolic/hyperbolic: tr vs 2 +- this;
# so links are refused at particle angles ~sqrt(TRACE) from k pi, masses to 2 arccosh(1 + TRACE/2)
LIFT_CONGRUENCE = 1e-7  # two line angles agree mod pi
DECK_MULTIPLE = 1e-7  # a lift offset is a whole number of deck translations (in units of pi)
FACTOR_RANK = 1e-8  # kron(g_l, g_r^-T) rearranged is rank one, entrywise within this * max(top entry, 1)
# projective circles and links
FIXED_POINT = 1e-7  # a lifted angle x is fixed by a lift h: |h(x) - x|
DISTINCT_LINE = 1e-9  # two fixed lines differ: their line angles differ by more, mod pi
INTERVAL_SLACK = 1e-9  # a degree-0 interval spans at most pi + this
ARC_OVERLAP = 1e-12  # consecutive arcs of a link may overlap by this much
ISOTROPIC_REL = 1e-9  # the null rays of a tachyon plane: |<l,l>| <= ISOTROPIC_REL |l|^2
COPLANAR_REL = 1e-9  # a ray lies in the null plane: its distance to the plane <= this * |v|
GLUE_AXIS = 1e-9  # a ray gluing fixes the axis t = 0: |m01|
GLUE_IDENTITY = 1e-12  # a ray gluing is the identity: max displacement <= this * (1 + max t)
# cone surfaces
ANGLE_MATCH = 1e-9  # a cone angle or vertex angle sum equals its declared value
TRIANGLE_MARGIN = 1e-12  # each side is shorter than the other two together by more than this
DEGENERATE_CORNER = 1e-12  # a corner cosine beyond [-1 - this, 1 + this], or not finite
GAUSS_BONNET_CROSS_CHECK = 1e-8  # the vertex and face forms of Gauss-Bonnet agree
DELAUNAY_MARGIN = 1e-9  # an edge is flipped when its opposite angles exceed pi + this
DISK_ISOMETRY = 1e-8  # two disks match: each edge length and marked angle
DISK_CLOSING_ANGLE = 1e-7  # a fitted collision disk closes up at its last rim vertex
# solver stop rules
METRIC_SOLVE_STOP = 1e-12  # solve_metric is done when every residual is below this
DISK_FIT_STOP = 1e-11  # a fit_two_cone_disk seed converges when every residual is below this
DISK_FIT_STALL = 1e-10  # ... and gives up when a step cuts its residual norm by at most this, relative
# interaction graphs
CONJUGATOR_NULL_REL = 1e-7  # a singular value <= max(this * largest, CONJUGATOR_NULL_ABS) ...
CONJUGATOR_NULL_ABS = 1e-12  # ... spans the null space of the conjugator system
CONJUGATOR_RESIDUAL = 1e-8  # complement holonomies match across an edge (--tolerance-scale)
# surface jets and transport
JET_SYMMETRIC = 1e-12  # a first fundamental form is symmetric, entrywise
JET_SELF_ADJOINT = 1e-9  # I B is symmetric, relative to max(1, |I B|)
TRANSVERSE = 1e-9  # det(-B +- J) = det B + 1 is bounded away from 0 by more than this
TRANSPORT_TANGENT = 1e-8  # a transported vector starts tangent: |<x,u>| <= this * max(1, |u|^2)
# causality and static BTZ
CAUSAL_SPEED_SLACK = 1e-6  # a sampled curve may exceed the causal speed bound (--tolerance-scale)
SAMPLE_STEP_SLACK = 1e-12  # a sample step may exceed the 1e-3 limit by this much
ACHRONAL_SLACK = 1e-9  # a graph gradient may exceed the achronal bound by this much
BTZ_LENGTH_MATCH = 1e-9  # two hyperbolic holonomies have the same translation length
