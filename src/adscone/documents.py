"""Versioned JSON documents for the library's data types.

Every document is an envelope {"schema": ..., "version": ..., "payload":
...}.  Serialization is deterministic: keys are sorted and floats rendered
with 17 significant digits, so identical inputs give byte-identical output.
Matrices travel as length-4 arrays in row-major order.

Every value a document holds is read by one rule, the codec below: it must
be of the kind its place annotates, and a number must be finite.  Anything
else raises DocumentError naming the value by its path in the document.  An
array of numbers, integers, booleans or strings, or of rows of them, is
checked a whole array at a time, each check one C-level pass over all its
entries (_one_pass); it is walked value by value only where that check
fails, to name the value.

Each *_from_doc function imports the layer whose types it builds when it is
called, so that importing this module (as the command line does) loads none
of conesurf, hssurface, lrmetrics, spacetimes or interactions.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
import re
import types
import typing
from enum import Enum
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from .isom import LiftedProj2, Proj2
from .linalg import HSPointClass
from .rp1 import Arc, LinkCircle, RP1Circle

if TYPE_CHECKING:
    from .spacetimes import ModelSpacetime


class DocumentError(ValueError):
    pass


class _Wrong(DocumentError):
    """A wrong kind, a missing entry, an unsupported envelope or a value the
    library refuses, by its path."""

    path = ""

    def __str__(self):
        return f"{self.path[1:]}: {self.args[0]}" if self.path else self.args[0]

    def at(self, key) -> _Wrong:
        """This error, raised inside the entry key of an object or an array."""
        self.path = (f"[{key}]" if type(key) is int else f".{key}") + self.path
        return self


def _expected(kind: str, value) -> _Wrong:
    return _Wrong(f"expected {kind}, got {json.dumps(value)}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits
    and -0.0 as 0, which json reads back as it reads -0 (the int 0).  A
    float that is not finite has no JSON text: ValueError."""

    def number(x: float) -> str:
        if not math.isfinite(x):
            raise ValueError(f"out of range float value {float(x)!r} is not JSON compliant")
        return format(float(x) + 0.0, ".17g")  # -0.0 + 0.0 == +0.0

    def render(x):
        # floats and arrays, most of a report, by exact type before the chain
        kind = type(x)
        if kind is float:
            return number(x)
        if kind is list or kind is tuple:
            return "[" + ",".join(map(render, x)) + "]"
        if isinstance(x, dict):
            items = sorted(x.items(), key=lambda kv: kv[0])
            return "{" + ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in items) + "}"
        if isinstance(x, (list, tuple)):
            return "[" + ",".join(render(v) for v in x) + "]"
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return number(x)
        if x is None:
            return "null"
        return json.dumps(x)

    return render(obj)


def envelope(schema: str, payload: dict) -> dict:
    return {"schema": schema, "version": 1, "payload": payload}


def check_envelope(doc: dict, schema: str) -> dict:
    """The payload, an object, of a document of the schema; a missing
    version reads as 1."""
    if not isinstance(doc, dict):
        raise _expected("object", doc)
    if _read(doc, "schema", str) != schema:
        raise _expected(json.dumps(schema), doc["schema"]).at("schema")
    version = _read(doc, "version", int, 1)
    if version != 1:
        raise _Wrong(f"unsupported version {version}")
    return _read(doc, "payload", dict)


def _from_doc(doc: dict, schema: str, read):
    """read(payload) of a document of the schema."""
    check_envelope(doc, schema)
    return _read(doc, "payload", read)


def matrix_to_list(m: np.ndarray) -> list:
    return [float(v) for v in np.asarray(m, dtype=float).ravel()]


# -- the codec ----------------------------------------------------------------
#
# A value annotated X travels as _codec(X), a plan built on first use.  A
# dataclass is an object of its fields, each under its name and of its
# annotated kind, except: MarkedHSMetric.type_tag travels as "type" (_KEYS),
# and a FaceAngle holds all fields of the first of its _LAYOUTS whose first
# field it has.  A missing field takes its default, or None for X | None.
# tuple[X, ...], list[X] and frozenset[X] (sorted) are arrays, tuple[X, Y]
# one of that many, dict[K, V] an object (an int key as its decimal text),
# np.ndarray a matrix.  A float is a finite number (an int counts), an int
# an integer (a bool is none), an Enum one of its values.  An array of
# leaves or of rows of them (edges, [edge, forward] sides, faces, loop
# steps), and a fixed tuple of one leaf kind (a matrix), are read by
# _one_pass: the kinds and lengths of all their entries in a few C-level
# passes.  Where one is wrong, _array walks the array value by value to
# name it.

_KEYS = {"type_tag": "type"}
_LAYOUTS = {"FaceAngle": (("real",), ("k", "r", "lightlike"))}
_LEAVES = {float: "number", int: "integer", bool: "boolean", str: "string", dict: "object"}
_OWN_DEFAULT = object()
_FLOAT_MAX = int(np.finfo(float).max)
_FLOAT, _NUMBER, _LIST = {float}, {float, int}, {list}
_INT_TEXT = re.compile(r"[ \t\n\r]*-?(?:0|[1-9][0-9]*)[ \t\n\r]*")  # what json.loads reads as an int


def _read(obj: dict, key: str, tp, default=dataclasses.MISSING):
    """obj[key] read as tp, an annotation or a function of the JSON value, or
    default where obj has no key."""
    if key not in obj:
        if default is dataclasses.MISSING:
            raise _Wrong("missing").at(key)
        return default
    try:
        return (tp if type(tp) is types.FunctionType else _codec(tp)[1])(obj[key])
    except _Wrong as err:
        raise err.at(key)


def _array(v, decs, n=None) -> list:
    """The items of the JSON array v read by decs in turn, n of them if given."""
    if type(v) is not list or n is not None and len(v) != n:
        raise _expected("array" if n is None else f"array of length {n}", v)
    items = []
    try:
        for dec, x in zip(decs, v):
            items.append(dec(x))
    except _Wrong as err:
        raise err.at(len(items))
    return items


def _int_key(k: str) -> int:
    """An object key that is the text of a JSON integer, JSON whitespace
    around it allowed."""
    if _INT_TEXT.fullmatch(k):
        try:
            return int(k)
        except ValueError:  # more digits than int() converts, as in json.loads
            pass
    raise _expected("integer key", k)


def _numbers(values: list) -> list | None:
    """values as floats, where each is a finite number (an int within the
    float range counts), else None: each check one C-level pass.  A sum of
    floats is finite only if each is; where it overflows, None too.  With
    ints, the range check leaves out the infinities, and a NaN makes the sum
    NaN."""
    kinds = set(map(type, values))
    if kinds <= _FLOAT:
        total = sum(values)
        return values if total - total == 0 else None
    if kinds <= _NUMBER and -_FLOAT_MAX <= min(values) and max(values) <= _FLOAT_MAX:
        floats = list(map(float, values))
        total = sum(floats)
        return floats if total == total else None
    return None


def _one_pass(tp):
    """check(values): the JSON values, annotated tp, typed (a row as a
    tuple, an int read as a number as a float), or None where one is not of
    its kind; each check is one C-level pass over all the values.  None for
    an annotation other than a leaf (number, integer, boolean, string) or a
    fixed tuple of such, all of one annotation or integers and booleans.
    The entries of all the rows (JSON arrays of the tuple's length) are
    checked as one list: as args[0], or by their types, args repeated."""
    if tp is float:
        return _numbers
    if tp in (int, bool, str):
        kinds = {tp}  # a bool is no int: the check is by type
        return lambda values: values if set(map(type, values)) <= kinds else None
    args = typing.get_args(tp)
    if typing.get_origin(tp) is not tuple or args[-1] is ...:
        return None
    n = len(args)
    if len(set(args)) == 1:
        check = _one_pass(args[0])
    elif set(args) <= {int, bool}:
        pattern = list(args)
        check = lambda values: values if list(map(type, values)) == pattern * (len(values) // n) else None
    else:
        check = None
    if check is None:
        return None
    shape = {n}

    def rows(values):
        if set(map(type, values)) <= _LIST and set(map(len, values)) <= shape:
            typed = check(list(chain.from_iterable(values)))
            if typed is not None:
                return list(zip(*[iter(typed)] * n))
        return None

    return rows


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
    if isinstance(tp, str):  # "module.Class" of a layer, imported on first use
        module, name = tp.split(".")
        return _codec(getattr(importlib.import_module(f".{module}", __package__), name))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, frozenset) or origin is tuple and args[-1] is ...:
        (enc, dec), typed = _codec(args[0]), _one_pass(args[0])
        order = sorted if origin is frozenset else iter

        def decode_array(v):
            items = typed(v) if typed is not None and type(v) is list else None
            return origin(_array(v, repeat(dec)) if items is None else items)

        return (lambda v: [enc(x) for x in order(v)]), decode_array
    if origin is tuple:
        encs, decs = zip(*map(_codec, args))
        n, typed = len(args), _one_pass(args[0]) if len(set(args)) == 1 else None

        def decode_fixed(v):
            items = typed(v) if typed is not None and type(v) is list and len(v) == n else None
            return tuple(_array(v, decs, n) if items is None else items)

        return (lambda v: [e(x) for e, x in zip(encs, v)]), decode_fixed
    if origin is dict:
        key, (enc, dec) = _int_key if args[0] is int else str, _codec(args[1])

        def decode_object(v):  # each entry named by its key
            entries, read = _codec(dict)[1](v), {}
            try:
                for k, x in entries.items():
                    typed_key = key(k)  # the key is checked first
                    read[typed_key] = dec(x)
            except _Wrong as err:
                raise err.at(k)
            return read

        return (lambda v: {str(k): enc(x) for k, x in v.items()}), decode_object
    if _optional(tp) is not None:
        enc, dec = _codec(_optional(tp))
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if tp is np.ndarray:
        dec = _codec(tuple[float, float, float, float])[1]
        return matrix_to_list, lambda v: np.array(dec(v)).reshape(2, 2)
    if issubclass(tp, Enum):
        members, kind = {m.value: m for m in tp}, "one of " + ", ".join(json.dumps(m.value) for m in tp)

        def decode_member(v):
            if type(v) is str and v in members:
                return members[v]
            raise _expected(kind, v)

        return (lambda m: m.value), decode_member
    kind = _LEAVES[tp]

    def decode_leaf(v):  # a bool is no int
        if type(v) is tp and (tp is not float or v - v == 0):  # Python's json reads NaN, Infinity
            return v
        if tp is float and type(v) is int and abs(v) <= _FLOAT_MAX:  # an int is a number too
            return tp(v)
        raise _expected(kind, v)

    return tp, decode_leaf


def _dataclass_codec(cls):
    """(encode, decode) for a dataclass, from its fields and their annotations."""
    hints = typing.get_type_hints(cls)
    variants = _LAYOUTS.get(cls.__name__)
    plan = {}  # field name -> (key, encode, decode, what a missing entry takes)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if variants and f.default is None:
            tp, default = _optional(tp), dataclasses.MISSING
        elif f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING:
            default = _OWN_DEFAULT
        else:
            default = dataclasses.MISSING if _optional(tp) is None else None
        plan[f.name] = (_KEYS.get(f.name, f.name), *_codec(tp), default)
    layouts = [[(name, *plan[name]) for name in names] for names in variants or (plan,)]

    def encode(x):
        fields = next((l for l in layouts if getattr(x, l[0][0]) is not None), layouts[-1])
        return {key: enc(getattr(x, name)) for name, key, enc, _, _ in fields}

    def decode(v):
        if not isinstance(v, dict):
            raise _expected("object", v)
        fields = layouts[0] if not variants else next((l for l in layouts if l[0][1] in v), layouts[-1])
        values = {}
        try:
            for name, key, _, dec, default in fields:
                if key in v:
                    values[name] = dec(v[key])
                elif default is dataclasses.MISSING:
                    raise _Wrong("missing")
                elif default is not _OWN_DEFAULT:
                    values[name] = default
        except _Wrong as err:
            raise err.at(key)
        return cls(**values)

    return encode, decode


def _built(tp, make):
    """A decoder of a value annotated tp that make turns into a library value;
    a ValueError of make (isom refuses a matrix of determinant <= 0 and a lift
    offset that its holonomy does not give) is the document's, by its path."""

    def decode(v, dec=_codec(tp)[1]):
        x = dec(v)
        try:
            return make(x)
        except ValueError as err:
            raise _Wrong(str(err)) from None

    return decode


# -- documents whose payload is a dataclass -----------------------------------


def _documents(schema: str, cls: str):
    """The writer and the reader of the documents whose payload is the
    dataclass cls, "module.Class" of a layer the reader imports on first use."""

    def to_doc(x) -> dict:
        return envelope(schema, _codec(type(x))[0](x))

    def from_doc(doc: dict):
        return _from_doc(doc, schema, _codec(cls)[1])

    return to_doc, from_doc


hs_surface_to_doc, hs_surface_from_doc = _documents("hs-surface.json", "hssurface.SingularHSSurface")
marked_metric_to_doc, marked_metric_from_doc = _documents(
    "marked-hs-metric.json", "hssurface.MarkedHSMetric"
)
surface_jet_to_doc, surface_jet_from_doc = _documents("surface-jet.json", "lrmetrics.SurfaceJet")


# -- cone surfaces ------------------------------------------------------------

_EDGES = tuple[tuple[int, int], ...]  # (tail, head) vertex pairs
_FACES = tuple[tuple[tuple[int, bool], tuple[int, bool], tuple[int, bool]], ...]  # [edge, forward] sides


def cone_surface_to_doc(s) -> dict:
    payload = {
        "edges": _codec(_EDGES)[0](s.edges),
        "faces": [[[side.edge, side.forward] for side in f] for f in s.faces],
        "lengths": s.lengths.tolist(),
        "cone_angles": _codec(dict[int, float])[0](s.cone_angles),
    }
    return envelope("cone-surface.json", payload)


def _surface_parts(doc: dict) -> tuple:
    """(edges, faces, lengths, cone_angles) of a cone-surface document, typed
    as tuples and a dict, and consistent: one length per edge, and every
    side naming one of the edges."""

    def read(p):
        edges, faces = _read(p, "edges", _EDGES), _read(p, "faces", _FACES)
        lengths = _read(p, "lengths", tuple[float, ...])
        cone_angles = _read(p, "cone_angles", dict[int, float], {})
        if len(lengths) != len(edges):  # the document contradicts itself
            raise _expected(f"array of length {len(edges)}, one per edge", p["lengths"]).at("lengths")
        sides = list(chain.from_iterable(faces))  # (edge, forward) sort by edge id first
        if sides and not (0 <= min(sides)[0] and max(sides)[0] < len(edges)):
            k, e = next((k, e) for k, (e, _) in enumerate(sides) if not 0 <= e < len(edges))
            err = _Wrong(f"expected an edge of the surface (0..{len(edges) - 1}), got {e}")
            raise err.at(0).at(k % 3).at(k // 3).at("faces")
        return edges, faces, lengths, cone_angles

    return _from_doc(doc, "cone-surface.json", read)


def _cone_surface(parts: tuple):
    from .conesurf import ConeSurface

    edges, faces, lengths, cone_angles = parts
    return ConeSurface(edges, faces, np.array(lengths), cone_angles)


def cone_surface_from_doc(doc: dict):
    return _cone_surface(_surface_parts(doc))


# -- link circles and models --------------------------------------------------


def link_circle_to_doc(link: LinkCircle) -> dict:
    c = link.circle
    payload = {
        "holonomy": matrix_to_list(c.holonomy.g.m),
        "lift_offset": c.holonomy.s,
        "basepoint_class": link.basepoint_class.value,
        "arcs": _codec(tuple[Arc, ...])[0](link.arcs),
        "interval": c.interval and list(c.interval),
        "future_anchor": c.future_anchor,
    }
    return envelope("link-circle.json", {k: v for k, v in payload.items() if v is not None})


def link_circle_from_doc(doc: dict) -> LinkCircle:
    def read(p):
        g = _read(p, "holonomy", _built(np.ndarray, Proj2))
        lift = _read(p, "lift_offset", _built(float, lambda s: LiftedProj2(g, s)))
        interval = _read(p, "interval", tuple[float, float], None)
        circle = RP1Circle(lift, interval, _read(p, "future_anchor", float, None))
        arcs = _read(p, "arcs", tuple[Arc, ...])
        return LinkCircle(circle, _read(p, "basepoint_class", HSPointClass), arcs)

    return _from_doc(doc, "link-circle.json", read)


def model_to_doc(m: ModelSpacetime) -> dict:
    payload = {"kind": m.kind.value, "theta": m.theta, "mass": m.mass, "sign": m.sign}
    payload["base"] = m.base and cone_surface_to_doc(m.base)
    payload["holonomies"] = m.holonomies and [matrix_to_list(g.m) for g in m.holonomies]
    return envelope("model.json", {k: v for k, v in payload.items() if v is not None})


def model_from_doc(doc: dict) -> ModelSpacetime:
    from . import spacetimes as st

    def read(p):
        kind = _read(p, "kind", st.ModelKind)
        if kind is st.ModelKind.CONE:
            return st.cone_spacetime(_read(p, "theta", float))
        if kind is st.ModelKind.TACHYON:
            return st.tachyon_spacetime(_read(p, "mass", float))
        if kind is st.ModelKind.BLACK_HOLE:
            return st.black_hole_spacetime(_read(p, "mass", float))
        if kind is st.ModelKind.GRAVITON:
            return st.graviton_spacetime(_read(p, "sign", int))
        if kind is st.ModelKind.EXTREME:
            return st.extreme_spacetime()
        if kind is st.ModelKind.PRODUCT:
            return st.product_spacetime(_read(p, "base", cone_surface_from_doc))
        # the one kind left, BTZ_STATIC
        holonomy = _built(np.ndarray, Proj2)
        return st.btz_static(*_read(p, "holonomies", lambda v: _array(v, [holonomy] * 2, 2)))

    return _from_doc(doc, "model.json", read)


# -- interaction graphs -------------------------------------------------------

_LOOPS = dict[str, list[tuple[int, int]]]  # generator name -> (face, side) steps


def _check_steps(loops: dict, faces: int):
    """Each (face, side) step of the loops names a face of both surfaces of
    its slice, which have at least `faces` faces, and a side of a face:
    checked in one pass, and walked only where it fails, to name the step."""
    steps = list(chain.from_iterable(loops.values()))
    if all(0 <= min(column) and max(column) < n for column, n in zip(zip(*steps), (faces, 3))):
        return
    ranges = (("a face of mu_l and mu_r", faces), ("a side of a face", 3))
    for name, loop in loops.items():
        for k, step in enumerate(loop):
            for i, (value, (what, n)) in enumerate(zip(step, ranges)):
                if not 0 <= value < n:
                    err = _Wrong(f"expected {what} (0..{n - 1}), got {value}")
                    raise err.at(i).at(k).at(name).at("generator_loops")


def interaction_graph_to_doc(g) -> dict:
    from .interactions import CollisionEdge

    vertices = {
        name: {
            "mu_l": cone_surface_to_doc(v.mu_l),
            "mu_r": cone_surface_to_doc(v.mu_r),
            "marked": _codec(dict[int, float])[0](v.marked),
            "generator_loops": _codec(_LOOPS)[0](v.generator_loops),
        }
        for name, v in g.vertices.items()
    }
    edges = _codec(tuple[CollisionEdge, ...])[0](g.edges)
    payload = {"vertices": vertices, "edges": edges, "initial": g.initial, "final": g.final}
    return envelope("interaction-graph.json", payload)


def interaction_graph_from_doc(doc: dict):
    from .interactions import CollisionEdge, InteractionGraph, SliceVertex

    # surface documents whose typed parts are equal (so key order, extra keys
    # and 1 against 1.0 do not count, and a false where an id belongs is
    # refused before) are one ConeSurface: validation reuses work by object
    # identity
    built = {}

    def surface(v, key):
        edges, faces, lengths, cone_angles = parts = _read(v, key, _surface_parts)
        form = (edges, faces, lengths, tuple(sorted(cone_angles.items())))
        found = built.get(form)
        if found is None:
            found = built[form] = _cone_surface(parts)
        return found

    def read(p):
        vertices = {}
        for name, v in _read(p, "vertices", dict[str, dict]).items():
            try:
                marked = _read(v, "marked", dict[int, float], {})
                loops = _read(v, "generator_loops", _LOOPS, {})
                mu_l, mu_r = surface(v, "mu_l"), surface(v, "mu_r")
                _check_steps(loops, min(len(mu_l.faces), len(mu_r.faces)))
                vertices[name] = SliceVertex(name, mu_l, mu_r, marked, loops)
            except _Wrong as err:
                raise err.at(name).at("vertices")
        edges = _read(p, "edges", tuple[CollisionEdge, ...], ())
        ends = (_read(p, key, str | None, None) for key in ("initial", "final"))
        return InteractionGraph(vertices, edges, *ends)

    return _from_doc(doc, "interaction-graph.json", read)


# -- request payloads ---------------------------------------------------------


def causal_curve_from_doc(doc: dict):
    """(ts, zs, mass) of a causal-curve document, zs = x + iy for its (t, x, y)
    samples: thousands of numbers, typed and converted in one pass."""

    def read(p):
        samples = p.get("samples")
        try:
            typed = set(map(len, samples)) == {3} and set(map(type, chain(*samples))) <= {int, float}
            flat = np.fromiter(chain(*samples), float, 3 * len(samples)) if typed else None
        except (TypeError, OverflowError):
            flat = None
        if flat is None or not np.isfinite(flat).all():
            _read(p, "samples", tuple[tuple[float, float, float], ...])  # names the wrong entry
            raise _expected("non-empty array", []).at("samples")  # the only one left
        mass = _read(p, "mass", float)
        # the speed bound |z|^m / (1 - m) and the plot's envelope need 0 <= m < 1
        if not 0.0 <= mass < 1.0:
            raise _Wrong(f"causal-curve mass must lie in [0, 1), got {mass}").at("mass")
        ts, xs, ys = flat.reshape(-1, 3).T
        return ts, xs + 1j * ys, mass

    return _from_doc(doc, "causal-curve.json", read)


def surgery_request_from_doc(doc: dict):
    """(base, link, at) of a surgery request: the host surface, the HS-sphere
    of the collision and the cone vertex it happens at."""

    def read(p):
        base, link = _read(p, "base", cone_surface_from_doc), _read(p, "link", hs_surface_from_doc)
        return base, link, _read(p, "at", int)

    return _from_doc(doc, "surgery-request.json", read)
