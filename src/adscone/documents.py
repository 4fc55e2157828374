"""Versioned JSON documents for the library's data types.

Every document is an envelope {"schema": ..., "version": ..., "payload":
...}.  Serialization is deterministic: keys are sorted and floats rendered
with 17 significant digits, so identical inputs give byte-identical output.
Matrices travel as length-4 arrays in row-major order.

Each *_from_doc function imports the layer whose types it builds when it is
called, so that importing this module (as the command line does) loads none
of conesurf, hssurface, lrmetrics, spacetimes or interactions.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .isom import LiftedProj2, Proj2
from .linalg import HSPointClass
from .links import SingKind, SingularityType
from .rp1 import Arc, ArcTag, LinkCircle, RP1Circle

if TYPE_CHECKING:
    from .conesurf import ConeSurface
    from .hssurface import CurveRecord, FaceAngle, MarkedHSMetric, SingularHSSurface
    from .lrmetrics import SurfaceJet
    from .spacetimes import ModelSpacetime


class DocumentError(ValueError):
    pass


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""

    def render(x):
        if isinstance(x, dict):
            items = sorted(x.items(), key=lambda kv: kv[0])
            return "{" + ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in items) + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ",".join(render(v) for v in x) + "]"
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        if x is None:
            return "null"
        return json.dumps(x)

    return render(obj)


def envelope(schema: str, payload: dict, version: int = 1) -> dict:
    return {"schema": schema, "version": version, "payload": payload}


def check_envelope(doc: dict, schema: str) -> dict:
    if not isinstance(doc, dict) or "schema" not in doc or "payload" not in doc:
        raise DocumentError("document is not a schema/version/payload envelope")
    if doc["schema"] != schema:
        raise DocumentError(f"expected schema {schema!r}, got {doc['schema']!r}")
    if int(doc.get("version", 1)) != 1:
        raise DocumentError(f"unsupported version {doc.get('version')}")
    return doc["payload"]


def matrix_to_list(m: np.ndarray) -> list:
    return [float(v) for v in np.asarray(m, dtype=float).ravel()]


def matrix_from_list(vals) -> np.ndarray:
    arr = np.asarray(vals, dtype=float)
    if arr.size != 4:
        raise DocumentError("matrices are length-4 row-major arrays")
    entries = arr.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        # a null entry reads as NaN
        raise DocumentError(f"matrix entries must be finite, got {entries}")
    return arr.reshape(2, 2)


# -- link circles -------------------------------------------------------------


def link_circle_to_doc(link: LinkCircle) -> dict:
    c = link.circle
    payload = {
        "holonomy": matrix_to_list(c.holonomy.g.m),
        "lift_offset": float(c.holonomy.s),
        "basepoint_class": link.basepoint_class.value,
        "arcs": [
            {"start": float(a.start), "end": float(a.end), "tag": a.tag.value}
            for a in link.arcs
        ],
    }
    if c.interval is not None:
        payload["interval"] = [float(c.interval[0]), float(c.interval[1])]
    if c.future_anchor is not None:
        payload["future_anchor"] = float(c.future_anchor)
    return envelope("link-circle.json", payload)


def _finite_number(value, field: str) -> float:
    """A JSON number that is finite, as a float; anything else (a string,
    null, NaN, an infinity, a boolean) is refused by the field's name."""
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise DocumentError(f"{field} must be a finite number, got {value!r}")
    return x


def link_circle_from_doc(doc: dict) -> LinkCircle:
    payload = check_envelope(doc, "link-circle.json")
    lift = LiftedProj2(Proj2(matrix_from_list(payload["holonomy"])), float(payload["lift_offset"]))
    interval, anchor = payload.get("interval"), payload.get("future_anchor")
    if "interval" in payload:
        if not (isinstance(interval, list) and len(interval) == 2):
            raise DocumentError(f"interval must be two finite numbers, got {interval!r}")
        interval = tuple(_finite_number(x, "interval end") for x in interval)
    if "future_anchor" in payload:
        anchor = _finite_number(anchor, "future_anchor")
    circle = RP1Circle(lift, interval=interval, future_anchor=anchor)
    arcs = tuple(
        Arc(float(a["start"]), float(a["end"]), ArcTag(a["tag"])) for a in payload["arcs"]
    )
    return LinkCircle(circle, HSPointClass(payload["basepoint_class"]), arcs)


# -- cone surfaces ------------------------------------------------------------


def cone_surface_to_doc(s: ConeSurface) -> dict:
    payload = {
        "edges": [[int(t), int(h)] for t, h in s.edges],
        "faces": [[[int(side.edge), bool(side.forward)] for side in f] for f in s.faces],
        "lengths": [float(x) for x in s.lengths],
        "cone_angles": {str(v): float(a) for v, a in s.cone_angles.items()},
    }
    return envelope("cone-surface.json", payload)


def cone_surface_from_doc(doc: dict) -> ConeSurface:
    from .conesurf import ConeSurface, Side

    payload = check_envelope(doc, "cone-surface.json")
    return ConeSurface(
        tuple((int(t), int(h)) for t, h in payload["edges"]),
        tuple(tuple(Side(int(e), bool(fwd)) for e, fwd in f) for f in payload["faces"]),
        np.asarray(payload["lengths"], dtype=float),
        {int(v): float(a) for v, a in payload.get("cone_angles", {}).items()},
    )


# -- marked HS-metrics --------------------------------------------------------


def _angle_to_obj(a: FaceAngle):
    if a.is_lorentzian:
        return {"k": int(a.k), "r": float(a.r), "lightlike": bool(a.lightlike)}
    return {"real": float(a.real)}


def marked_metric_to_doc(m: MarkedHSMetric) -> dict:
    payload = {
        "vertices": [
            {
                "position": v.position.value,
                "angles": [_angle_to_obj(a) for a in v.angles],
                "sigma_components": [
                    [_angle_to_obj(a) for a in comp] for comp in v.sigma_components
                ],
                "t_components": [
                    [_angle_to_obj(a) for a in comp] for comp in v.t_components
                ],
            }
            for v in m.vertices
        ],
        "sigma_geodesics": [_curve_to_obj(c) for c in m.sigma_geodesics],
        "t_geodesics": [_curve_to_obj(c) for c in m.t_geodesics],
        "type": m.type_tag,
        "timelike_arcs_join": m.timelike_arcs_join,
        "compact_segments": [float(x) for x in m.compact_segments],
        "compact_boundary_lengths": [float(x) for x in m.compact_boundary_lengths],
        "has_degenerate_t_domain": bool(m.has_degenerate_t_domain),
    }
    return envelope("marked-hs-metric.json", payload)


def _curve_to_obj(c: CurveRecord):
    return {
        "length": float(c.length),
        "closed": bool(c.closed),
        "simple": bool(c.simple),
        "bounds_degenerate_domain": bool(c.bounds_degenerate_domain),
    }


def marked_metric_from_doc(doc: dict) -> MarkedHSMetric:
    from .hssurface import CurveRecord, FaceAngle, MarkedHSMetric, VertexPosition, VertexRecord

    payload = check_envelope(doc, "marked-hs-metric.json")

    def angle(o):
        if "real" in o:
            return FaceAngle(real=float(o["real"]))
        return FaceAngle(k=int(o["k"]), r=float(o["r"]), lightlike=bool(o.get("lightlike", False)))

    def curve(o):
        return CurveRecord(
            float(o["length"]),
            bool(o.get("closed", True)),
            bool(o.get("simple", True)),
            bool(o.get("bounds_degenerate_domain", False)),
        )

    vertices = tuple(
        VertexRecord(
            VertexPosition(v["position"]),
            tuple(angle(a) for a in v.get("angles", [])),
            tuple(tuple(angle(a) for a in comp) for comp in v.get("sigma_components", [])),
            tuple(tuple(angle(a) for a in comp) for comp in v.get("t_components", [])),
        )
        for v in payload.get("vertices", [])
    )
    return MarkedHSMetric(
        vertices=vertices,
        sigma_geodesics=tuple(curve(c) for c in payload.get("sigma_geodesics", [])),
        t_geodesics=tuple(curve(c) for c in payload.get("t_geodesics", [])),
        type_tag=payload.get("type", "hyperbolic"),
        timelike_arcs_join=payload.get("timelike_arcs_join", "H-Sigma"),
        compact_segments=tuple(payload.get("compact_segments", [])),
        compact_boundary_lengths=tuple(payload.get("compact_boundary_lengths", [])),
        has_degenerate_t_domain=bool(payload.get("has_degenerate_t_domain", False)),
    )


# -- hs-surfaces (region decompositions) --------------------------------------


def hs_surface_to_doc(s: SingularHSSurface) -> dict:
    def sing(x: SingularityType):
        return {
            "kind": x.kind.value,
            "angle": None if x.angle is None else float(x.angle),
            "mass": None if x.mass is None else float(x.mass),
            "degree": None if x.degree is None else int(x.degree),
        }

    payload = {
        "hyperbolic_regions": [
            {
                "orientation": h.orientation,
                "topology": h.topology.value,
                "cone_angles": [float(a) for a in h.cone_angles],
                "cusps": int(h.cusps),
                "boundary_circles": [int(c) for c in h.boundary_circles],
            }
            for h in s.hyperbolic_regions
        ],
        "de_sitter_regions": [
            {
                "topology": d.topology.value,
                "singularities": [sing(x) for x in d.singularities],
                "boundary_circles": [int(c) for c in d.boundary_circles],
                "extreme_points": list(d.extreme_points),
            }
            for d in s.de_sitter_regions
        ],
        "photon_circles": [
            {
                "hyperbolic_side": c.hyperbolic_side,
                "de_sitter_side": c.de_sitter_side,
                "gravitons": [sing(x) for x in c.gravitons],
            }
            for c in s.photon_circles
        ],
    }
    return envelope("hs-surface.json", payload)


def hs_surface_from_doc(doc: dict) -> SingularHSSurface:
    from .hssurface import DeSitterRegion, HyperbolicRegion, PhotonCircle, RegionTopology
    from .hssurface import SingularHSSurface

    payload = check_envelope(doc, "hs-surface.json")

    def sing(o):
        return SingularityType(
            SingKind(o["kind"]),
            angle=o.get("angle"),
            mass=o.get("mass"),
            degree=o.get("degree"),
        )

    return SingularHSSurface(
        hyperbolic_regions=tuple(
            HyperbolicRegion(
                h["orientation"],
                RegionTopology(h["topology"]),
                tuple(float(a) for a in h.get("cone_angles", [])),
                int(h.get("cusps", 0)),
                tuple(int(c) for c in h.get("boundary_circles", [])),
            )
            for h in payload.get("hyperbolic_regions", [])
        ),
        de_sitter_regions=tuple(
            DeSitterRegion(
                RegionTopology(d["topology"]),
                tuple(sing(x) for x in d.get("singularities", [])),
                tuple(int(c) for c in d.get("boundary_circles", [])),
                tuple(d.get("extreme_points", [])),
            )
            for d in payload.get("de_sitter_regions", [])
        ),
        photon_circles=tuple(
            PhotonCircle(
                c.get("hyperbolic_side"),
                c.get("de_sitter_side"),
                tuple(sing(x) for x in c.get("gravitons", [])),
            )
            for c in payload.get("photon_circles", [])
        ),
    )


# -- models -------------------------------------------------------------------


def model_to_doc(m: ModelSpacetime) -> dict:
    payload = {"kind": m.kind.value}
    if m.theta is not None:
        payload["theta"] = float(m.theta)
    if m.mass is not None:
        payload["mass"] = float(m.mass)
    if m.sign is not None:
        payload["sign"] = int(m.sign)
    if m.base is not None:
        payload["base"] = cone_surface_to_doc(m.base)
    if m.holonomies is not None:
        payload["holonomies"] = [matrix_to_list(g.m) for g in m.holonomies]
    return envelope("model.json", payload)


def model_from_doc(doc: dict) -> ModelSpacetime:
    from .spacetimes import ModelKind, black_hole_spacetime, btz_static, cone_spacetime
    from .spacetimes import extreme_spacetime, graviton_spacetime, product_spacetime
    from .spacetimes import tachyon_spacetime

    payload = check_envelope(doc, "model.json")
    kind = ModelKind(payload["kind"])
    if kind is ModelKind.CONE:
        return cone_spacetime(float(payload["theta"]))
    if kind is ModelKind.TACHYON:
        return tachyon_spacetime(float(payload["mass"]))
    if kind is ModelKind.BLACK_HOLE:
        return black_hole_spacetime(float(payload["mass"]))
    if kind is ModelKind.GRAVITON:
        return graviton_spacetime(int(payload["sign"]))
    if kind is ModelKind.EXTREME:
        return extreme_spacetime()
    if kind is ModelKind.PRODUCT:
        return product_spacetime(cone_surface_from_doc(payload["base"]))
    if kind is ModelKind.BTZ_STATIC:
        g1, g2 = (Proj2(matrix_from_list(v)) for v in payload["holonomies"])
        return btz_static(g1, g2)
    raise DocumentError(f"cannot rebuild model of kind {kind}")


# -- surface jets -------------------------------------------------------------


def surface_jet_to_doc(j: SurfaceJet) -> dict:
    payload = {
        "samples": [
            {"I": matrix_to_list(s.I), "B": matrix_to_list(s.B)} for s in j.samples
        ]
    }
    return envelope("surface-jet.json", payload)


def surface_jet_from_doc(doc: dict) -> SurfaceJet:
    from .lrmetrics import JetSample, SurfaceJet

    payload = check_envelope(doc, "surface-jet.json")
    return SurfaceJet(
        tuple(
            JetSample(matrix_from_list(s["I"]), matrix_from_list(s["B"]))
            for s in payload["samples"]
        )
    )


# -- interaction graphs -------------------------------------------------------


def interaction_graph_to_doc(g) -> dict:
    payload = {
        "vertices": {
            name: {
                "mu_l": cone_surface_to_doc(v.mu_l),
                "mu_r": cone_surface_to_doc(v.mu_r),
                "marked": {str(k): float(a) for k, a in v.marked.items()},
                "generator_loops": {
                    k: [[int(f), int(si)] for f, si in lp]
                    for k, lp in v.generator_loops.items()
                },
            }
            for name, v in g.vertices.items()
        },
        "edges": [
            {
                "before": e.before,
                "after": e.after,
                "disk_before": sorted(int(f) for f in e.disk_before),
                "disk_after": sorted(int(f) for f in e.disk_after),
                "identification": dict(e.identification),
                "vanished": [float(a) for a in e.vanished],
                "created": [float(a) for a in e.created],
            }
            for e in g.edges
        ],
        "initial": g.initial,
        "final": g.final,
    }
    return envelope("interaction-graph.json", payload)


def interaction_graph_from_doc(doc: dict):
    from .interactions import CollisionEdge, InteractionGraph, SliceVertex

    payload = check_envelope(doc, "interaction-graph.json")
    # equal surface documents parse to one ConeSurface, so a slice whose left
    # and right metrics agree carries one object for both
    parsed = []  # (surface document, surface)

    def surface(sdoc):
        for seen, surf in parsed:
            if seen == sdoc:
                return surf
        parsed.append((sdoc, cone_surface_from_doc(sdoc)))
        return parsed[-1][1]

    vertices = {}
    for name, v in payload["vertices"].items():
        vertices[name] = SliceVertex(
            name,
            surface(v["mu_l"]),
            surface(v["mu_r"]),
            {int(k): float(a) for k, a in v.get("marked", {}).items()},
            {k: [(int(f), int(si)) for f, si in lp] for k, lp in v.get("generator_loops", {}).items()},
        )
    edges = tuple(
        CollisionEdge(
            e["before"],
            e["after"],
            frozenset(int(f) for f in e["disk_before"]),
            frozenset(int(f) for f in e["disk_after"]),
            dict(e.get("identification", {})),
            tuple(e.get("vanished", [])),
            tuple(e.get("created", [])),
        )
        for e in payload.get("edges", [])
    )
    return InteractionGraph(vertices, edges, payload.get("initial"), payload.get("final"))
