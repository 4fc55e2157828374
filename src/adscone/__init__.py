"""Anti-de Sitter 3-geometry with interacting cone singularities.

Quadric-model arithmetic, projective holonomy and its lifts, link circles of
singular lines and their classification, hyperbolic cone surfaces, singular
HS-surfaces with the causal-positive sphere classifier, model spacetimes,
left/right flat connections and metrics, and the graph of interactions with
collision surgery.
"""

from .errors import (
    CausalityError,
    DegreeParityError,
    GeometryError,
    LinkRealizationError,
    NotHyperbolicError,
)
from .isom import IsomKind, IsomPair, LiftedProj2, Proj2, classify, translation_number
from .linalg import HSPointClass, classify_ray, cross
from .links import SingKind, SingularityType, classify_singularity, particle_mass
from .rp1 import CircleKind, CircleTag, LinkCircle, RP1Circle, classify_circle, mark_timelike_arcs

__all__ = [
    "CausalityError",
    "CircleKind",
    "CircleTag",
    "DegreeParityError",
    "GeometryError",
    "HSPointClass",
    "IsomKind",
    "IsomPair",
    "LiftedProj2",
    "LinkCircle",
    "LinkRealizationError",
    "NotHyperbolicError",
    "Proj2",
    "RP1Circle",
    "SingKind",
    "SingularityType",
    "classify",
    "classify_circle",
    "classify_ray",
    "classify_singularity",
    "cross",
    "mark_timelike_arcs",
    "particle_mass",
    "translation_number",
]
