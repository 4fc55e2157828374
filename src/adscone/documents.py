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

import dataclasses
import functools
import json
import math
import typing
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .isom import LiftedProj2, Proj2
from .linalg import HSPointClass
from .rp1 import Arc, ArcTag, LinkCircle, RP1Circle

if TYPE_CHECKING:
    from .conesurf import ConeSurface
    from .hssurface import MarkedHSMetric, SingularHSSurface
    from .lrmetrics import SurfaceJet
    from .spacetimes import ModelSpacetime


class DocumentError(ValueError):
    pass


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits.
    A float that is not finite has no JSON text: ValueError."""

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
            if not math.isfinite(x):
                raise ValueError(f"out of range float value {float(x)!r} is not JSON compliant")
            return format(float(x), ".17g")
        if x is None:
            return "null"
        return json.dumps(x)

    return render(obj)


def envelope(schema: str, payload: dict) -> dict:
    return {"schema": schema, "version": 1, "payload": payload}


def check_envelope(doc: dict, schema: str) -> dict:
    if not isinstance(doc, dict) or "schema" not in doc or "payload" not in doc:
        raise DocumentError("document is not a schema/version/payload envelope")
    if doc["schema"] != schema:
        raise DocumentError(f"expected schema {schema!r}, got {doc['schema']!r}")
    version = doc.get("version", 1)
    if type(version) is not int:  # a JSON integer; a bool is none
        raise DocumentError(f"version: expected integer, got {json.dumps(version)}")
    if version != 1:
        raise DocumentError(f"unsupported version {version}")
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


# -- HS-structures and surface jets: one codec --------------------------------
#
# These documents are their dataclasses, every field under its own name and
# of its annotated kind, encoded and decoded by a plan built per class on
# first use.  The departures: MarkedHSMetric.type_tag travels under "type"; a
# FaceAngle, real or Lorentzian, writes and reads the first of its _LAYOUTS
# whose first field it holds, and each field of that layout holds a value; a
# missing field takes its default, or None where it is annotated X | None.

_KEYS = {"type_tag": "type"}
_LAYOUTS = {"FaceAngle": (("real",), ("k", "r", "lightlike"))}
_LEAVES = {float: "number", int: "integer", bool: "boolean", str: "string"}


class _Wrong(DocumentError):
    """A value of the wrong kind, or a missing entry: its text starts ": "
    until each container it leaves prepends its key."""


def _expected(kind: str, value) -> _Wrong:
    return _Wrong(f": expected {kind}, got {json.dumps(value)}")


def _optional(tp):
    """X for an annotation X | None, else None."""
    args = typing.get_args(tp)
    return args[0] if type(None) in args else None


@functools.cache
def _codec(tp):
    """(encode, decode) for values annotated tp; decode refuses a value of
    another kind."""
    if dataclasses.is_dataclass(tp):
        return _dataclass_codec(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        enc, dec = _codec(typing.get_args(tp)[0])

        def decode_items(v):
            if not isinstance(v, (list, tuple)):
                raise _expected("array", v)
            items = []
            try:
                for x in v:
                    items.append(dec(x))
            except _Wrong as err:
                err.args = (f"[{len(items)}]{err}",)
                raise
            return tuple(items)

        return (lambda v: [enc(x) for x in v]), decode_items
    if _optional(tp) is not None:
        enc, dec = _codec(_optional(tp))
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if tp is np.ndarray:
        return matrix_to_list, matrix_from_list
    if issubclass(tp, Enum):
        enc, kinds = (lambda m: m.value), (str,)
        kind = "one of " + ", ".join(json.dumps(m.value) for m in tp)
    else:  # an int is a number too, but a bool is no int
        enc, kind, kinds = tp, _LEAVES[tp], (int, float) if tp is float else (tp,)

    def decode_leaf(v):
        if type(v) in kinds:
            try:
                return tp(v)
            except ValueError:  # a string that names no member
                pass
        raise _expected(kind, v)

    return enc, decode_leaf


def _dataclass_codec(cls):
    """(encode, decode) for a dataclass, from its fields and their annotations."""
    hints = typing.get_type_hints(cls)
    variants = _LAYOUTS.get(cls.__name__)
    plan = {}  # field name -> (key, encode, decode, default or MISSING)
    for f in dataclasses.fields(cls):
        tp, default = hints[f.name], f.default
        if variants and default is None:
            tp, default = _optional(tp), dataclasses.MISSING
        elif default is dataclasses.MISSING and _optional(tp) is not None:
            default = None
        plan[f.name] = (_KEYS.get(f.name, f.name), *_codec(tp), default)
    layouts = [[(name, *plan[name]) for name in names] for names in variants or (plan,)]

    def encode(x):
        fields = next((l for l in layouts if getattr(x, l[0][0]) is not None), layouts[-1])
        return {key: enc(getattr(x, name)) for name, key, enc, _, _ in fields}

    def decode(v):
        if not isinstance(v, dict):
            raise _expected("object", v)
        fields = next((l for l in layouts if l[0][1] in v), layouts[-1])
        values = {}
        try:
            for name, key, _, dec, default in fields:
                if key in v:
                    values[name] = dec(v[key])
                elif default is dataclasses.MISSING:
                    raise _Wrong(": missing")
                else:
                    values[name] = default
        except _Wrong as err:
            err.args = (f".{key}{err}",)
            raise
        return cls(**values)

    return encode, decode


def _from_doc(doc: dict, schema: str, cls):
    try:
        return _codec(cls)[1](check_envelope(doc, schema))
    except _Wrong as err:
        err.args = (f"payload{err}",)
        raise


def hs_surface_to_doc(s: SingularHSSurface) -> dict:
    return envelope("hs-surface.json", _codec(type(s))[0](s))


def hs_surface_from_doc(doc: dict) -> SingularHSSurface:
    from .hssurface import SingularHSSurface

    return _from_doc(doc, "hs-surface.json", SingularHSSurface)


def marked_metric_to_doc(m: MarkedHSMetric) -> dict:
    return envelope("marked-hs-metric.json", _codec(type(m))[0](m))


def marked_metric_from_doc(doc: dict) -> MarkedHSMetric:
    from .hssurface import MarkedHSMetric

    return _from_doc(doc, "marked-hs-metric.json", MarkedHSMetric)


def surface_jet_to_doc(j: SurfaceJet) -> dict:
    return envelope("surface-jet.json", _codec(type(j))[0](j))


def surface_jet_from_doc(doc: dict) -> SurfaceJet:
    from .lrmetrics import SurfaceJet

    return _from_doc(doc, "surface-jet.json", SurfaceJet)


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
