"""The CLI contract on mutated documents: every run of every subcommand
exits 0, 1 or 2 without a traceback, writes strict JSON (no NaN or
Infinity) to stdout or nothing, and writes the same bytes to stdout and
stderr when it runs twice in one process and once through --batch.  On the
unmutated documents a fresh interpreter answers as the running process does.

The documents start from library constructions.  Surfaces parsed from them
share one interned structure per triangulation across runs, so a stale or
corrupted structure cache would show here as a changed answer."""

import functools
import io
import json
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone import documents as docs
from adscone.catalog import subdivide_face_with_cone, torus_with_cone_point
from adscone.cli import COMMANDS, main
from adscone.errors import GeometryError
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
)
from adscone.interactions import elastic_collision_graph
from adscone.linalg import HSPointClass
from adscone.links import SingKind, SingularityType, link_of_type
from adscone.lrmetrics import JetSample, SurfaceJet, equidistant_jet
from adscone.rp1 import elliptic_link_circle, mark_timelike_arcs
from adscone.spacetimes import product_spacetime, saturating_null_curve

PI = np.pi
# what a mutated leaf becomes, besides a scaled copy of a number
ODD_VALUES = (None, True, -1, 0, 2, 7, 0.5, -0.25, 1e300, "x", [], {})
# the JSON texts a numeric leaf is set to in the repeat test, and how many
# leaves of one document it visits
EXTREME_TEXTS = ("null", '"nan"', "1e400", "-1e400", "1e300", "-1e300", "1e-320", "0")
EXTREME_LEAVES = 12
# link documents with the fields an elliptic link lacks: a tachyon's future
# anchor and a BTZ line's interval
LINK_VARIANTS = {
    "classify-link/tachyon": SingularityType(SingKind.TACHYON, mass=0.8),
    "classify-link/btz": SingularityType(SingKind.BTZ_FUTURE, mass=1.3),
}


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _base_doc(command: str) -> dict:
    """The unmutated document of a command.  The link circle is a massive
    particle, the sphere the (pi; 2pi/3, 2pi/3) collision link, the marked
    metric has a hyperbolic and a timelike vertex, the curve saturates the
    causal bound and the jet samples an equidistant slice.  The model is the
    product over the theta = pi torus, the surgery request is outside the
    collision window on that torus, and the graph is the elastic collision
    graph on that torus refined at face 1.  The variants in LINK_VARIANTS
    are classify-link documents of a tachyon and a BTZ line."""
    if command in LINK_VARIANTS:
        return docs.link_circle_to_doc(link_of_type(LINK_VARIANTS[command]))
    if command == "classify-link":
        return docs.link_circle_to_doc(mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS))
    link = SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (PI,), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (2 * PI / 3, 2 * PI / 3), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )
    if command in ("classify-sphere", "trace-causal"):
        return docs.hs_surface_to_doc(link)
    if command == "check-polyhedron":
        metric = MarkedHSMetric(
            vertices=(
                VertexRecord(VertexPosition.HYPERBOLIC, (FaceAngle(real=1.2),) * 3),
                VertexRecord(VertexPosition.INTERIOR_T, (FaceAngle(k=2, r=0.3), FaceAngle(k=2, r=0.2))),
            ),
            sigma_geodesics=(CurveRecord(7.0),),
            t_geodesics=(CurveRecord(5.0),),
        )
        return docs.marked_metric_to_doc(metric)
    if command == "speed-check":
        ts, zs = saturating_null_curve(0.5, 0.0, 0.02, 0.05, n=21)
        samples = [[float(t), float(z.real), float(z.imag)] for t, z in zip(ts, zs)]
        return docs.envelope("causal-curve.json", {"mass": 0.5, "samples": samples})
    if command == "lr-metrics":
        mu = np.array([[2.0, 0.3], [0.3, 1.0]])
        return docs.surface_jet_to_doc(SurfaceJet(tuple(equidistant_jet(mu, t) for t in (-0.4, 0.2, 0.7))))
    torus, _ = torus_with_cone_point(PI)
    if command == "classify-model-links":
        return docs.model_to_doc(product_spacetime(torus))
    if command == "surgery":
        payload = {"base": docs.cone_surface_to_doc(torus), "link": docs.hs_surface_to_doc(link), "at": 4}
        return docs.envelope("surgery-request.json", payload)
    refined, disk, _ = subdivide_face_with_cone(torus, 1, 2.5)
    graph = elastic_collision_graph(refined, frozenset(disk.face_ids) | frozenset({7, 8, 9}))
    return docs.interaction_graph_to_doc(graph)


@functools.cache
def _base_text(command: str) -> str:
    """The canonical text of the unmutated document of a command."""
    return docs.canonical_json(_base_doc(command))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text: str):
    """The value of a JSON text that holds no NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_no_constant)


def _paths(node, path=()):
    """The path of every node of a JSON document below its root."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(doc, data) -> str:
    """One to three mutations of the document, then its text: replace a node
    (an odd value, or a number scaled), delete it or swap it with a sibling;
    one time in ten the text is then cut short."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        parent, key = _parent(doc, path), path[-1]
        kind = data.draw(st.sampled_from(("replace", "scale", "delete", "swap")), label="kind")
        if kind == "replace":
            parent[key] = data.draw(st.sampled_from(ODD_VALUES), label="value")
        elif kind == "scale" and type(parent[key]) in (int, float):
            parent[key] *= data.draw(st.sampled_from((-1, 0.5, 0.999, 1.001, 2, 100)), label="factor")
        elif kind == "delete":
            del parent[key]
        elif kind == "swap" and isinstance(parent, list) and len(parent) > 1:
            other = data.draw(st.integers(0, len(parent) - 1), label="other")
            parent[key], parent[other] = parent[other], parent[key]
    text = docs.canonical_json(doc)
    if data.draw(st.integers(0, 9), label="truncate") == 0:
        text = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    return text


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_mutated_documents_keep_the_cli_contract(command, data):
    text = _mutate(json.loads(_base_text(command)), data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        first = run_cli([command, "--input", str(path)])
        second = run_cli([command, "--input", str(path)])
        batch = run_cli([command, "--batch", tmp])
    code, out, err = first
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if out:
        _strict_json(out)
    assert second == first
    summary = docs.canonical_json({"batch": {"doc.json": code}}) + "\n"
    assert batch == (code, out, err + summary)


def _numeric_leaves(command, doc):
    """At most EXTREME_LEAVES numeric leaves of a document, spread over it;
    for surgery only the cone angles of the link, since one disk fit on a
    changed host can take seconds."""
    leaves = [p for p in _paths(doc) if type(_parent(doc, p)[p[-1]]) in (int, float)]
    if command in LINK_VARIANTS:
        return leaves  # at most 15, the interval or anchor among them
    if command == "surgery":
        return [p for p in leaves if p[:2] == ("payload", "link") and "cone_angles" in p]
    return leaves[:: -(-len(leaves) // EXTREME_LEAVES)]


@pytest.mark.parametrize("command", sorted(COMMANDS) + sorted(LINK_VARIANTS))
def test_extreme_numbers_give_the_same_answer_twice(tmp_path, command):
    """Each visited leaf set to null, "nan", +-1e400, +-1e300, 1e-320 or 0:
    two runs in one process give the same exit code, stdout and stderr, with
    no traceback and no RuntimeWarning.  numpy warns once per call site and
    process, so a warning that escaped would reach stderr on the first run
    only."""
    base = json.loads(_base_text(command))
    path = tmp_path / "doc.json"
    run = command.split("/")[0]
    for leaf in _numeric_leaves(command, base):
        doc = json.loads(_base_text(command))
        _parent(doc, leaf)[leaf[-1]] = "__leaf__"
        template = docs.canonical_json(doc)
        for text in EXTREME_TEXTS:
            path.write_text(template.replace('"__leaf__"', text))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = run_cli([run, "--input", str(path)])
                second = run_cli([run, "--input", str(path)])
            where = (leaf, text)
            assert [str(w.message) for w in caught] == [], where
            assert first == second, where
            assert first[0] in (0, 1, 2) and "Traceback" not in first[1] + first[2], where


def _scaled(node, factor):
    """The document with every float of it multiplied by factor."""
    if isinstance(node, dict):
        return {k: _scaled(v, factor) for k, v in node.items()}
    if isinstance(node, list):
        return [_scaled(v, factor) for v in node]
    return node * factor if type(node) is float else node


def _corpus_jet() -> dict:
    """The first valid lr-metrics document of the seed-1 cli-corpus."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import corpus

    return json.loads(next(d.text for d in corpus.cli_corpus(1) if d.cmd == "lr-metrics"))


@pytest.mark.parametrize(
    "jet,factor,refused",
    [
        ("base", 1e100, "sample 0: det_mu_l is not finite"),
        ("base", 1e150, "sample 0: mu_l is not finite"),
        ("base", 1e155, "B must be self-adjoint for I"),
        ("base", 1e300, "B must be self-adjoint for I"),
        ("corpus", 1e100, "sample 0: det_mu_l is not finite"),
        ("corpus", 1e155, "B must be self-adjoint for I"),
    ],
)
def test_scaled_jets_are_refused_naming_sample_and_quantity(tmp_path, jet, factor, refused):
    """A jet with every number scaled by a large factor stays self-adjoint,
    which one large leaf (the mutation property) does not: its determinants,
    then its metrics, then its curvatures overflow.  That is a domain
    rejection naming the first sample and quantity that is not finite, one
    stderr line and no report, where it printed Infinity or NaN as JSON and
    let numpy warn."""
    doc = json.loads(_base_text("lr-metrics")) if jet == "base" else _corpus_jet()
    doc["payload"] = _scaled(doc["payload"], factor)
    path = tmp_path / "doc.json"
    path.write_text(docs.canonical_json(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answer = run_cli(["lr-metrics", "--input", str(path)])
    assert [str(w.message) for w in caught] == []
    assert answer == (2, "", f"rejected: {refused}\n")


def test_a_jet_sample_whose_product_overflows_is_refused():
    """The first sample of the seed-1 corpus jet with every number scaled by
    1e155: I @ B overflows, so its self-adjointness test compares a NaN,
    which `x > tol` let through (left_right_metrics then returned NaN
    metrics to a library caller)."""
    sample = _scaled(_corpus_jet()["payload"], 1e155)["samples"][0]
    I, B = (np.reshape(sample[key], (2, 2)) for key in ("I", "B"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GeometryError, match="^B must be self-adjoint for I$"):
            JetSample(I, B)


@pytest.mark.parametrize(
    "path,value,error",
    [
        (
            ("payload", "base", "payload", "cone_angles"),
            None,
            "payload.base.payload.cone_angles: expected object, got null",
        ),
        (
            ("payload", "base", "payload", "edges", 0, 0),
            1e300,
            "payload.base.payload.edges[0][0]: expected integer, got 1e+300",
        ),
    ],
)
def test_values_of_the_wrong_kind_are_input_errors(tmp_path, path, value, error):
    """Two documents the property found escaping as tracebacks: a null where
    the cone angles belong, and a float (too large for an index array) where
    a vertex id belongs.  They were refused by the name of the exception
    they raised, an AttributeError and an OverflowError."""
    doc = json.loads(_base_text("surgery"))
    _parent(doc, path)[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(docs.canonical_json(doc))
    assert run_cli(["surgery", "--input", str(doc_path)]) == (1, "", f"input error: {error}\n")


@pytest.mark.parametrize(
    "variant,path,text",
    [
        ("classify-link/btz", ("interval", 0), "NaN"),
        ("classify-link/btz", ("interval", 1), "Infinity"),
        ("classify-link/btz", ("interval", 1), '"pi"'),
        ("classify-link/btz", ("interval", 0), "null"),
        ("classify-link/btz", ("interval",), "null"),
        ("classify-link/btz", ("interval",), "[1.5]"),
        ("classify-link/tachyon", ("future_anchor",), "NaN"),
        ("classify-link/tachyon", ("future_anchor",), "-Infinity"),
        ("classify-link/tachyon", ("future_anchor",), "1e400"),
        ("classify-link/tachyon", ("future_anchor",), '"0"'),
        ("classify-link/tachyon", ("future_anchor",), "null"),
        ("classify-link/tachyon", ("future_anchor",), "true"),
    ],
)
def test_link_interval_and_anchor_must_be_finite_numbers(tmp_path, variant, path, text):
    """A link document's interval is two finite numbers and its future anchor
    one: anything else is an input error that names the field by its path
    and the kind it expects (a NaN interval end was a domain rejection, and
    a bad anchor surfaced as math.floor's text)."""
    doc = json.loads(_base_text(variant))
    _parent(doc["payload"], path)[path[-1]] = "__leaf__"
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(docs.canonical_json(doc).replace('"__leaf__"', text))
    code, out, err = run_cli(["classify-link", "--input", str(doc_path)])
    assert (code, out) == (1, "")
    where = _path_text(("payload", *path))
    assert err.startswith(f"input error: {where}: expected ") and err.count("\n") == 1, err


# the annotated kind of each leaf of the base documents, by the field that
# holds it or its array; a "?" marks a kind that admits null.  A face side
# is [edge, forward]: an integer, then a boolean.
LEAF_KINDS = {
    "schema": "string",
    "version": "integer",
    "orientation": "string",
    "topology": "string",
    "cone_angles": "number",
    "cusps": "integer",
    "boundary_circles": "integer",
    "hyperbolic_side": "integer?",
    "de_sitter_side": "integer?",
    "position": "string",
    "real": "number",
    "k": "integer",
    "r": "number",
    "lightlike": "boolean",
    "length": "number",
    "closed": "boolean",
    "simple": "boolean",
    "bounds_degenerate_domain": "boolean",
    "type": "string",
    "timelike_arcs_join": "string",
    "has_degenerate_t_domain": "boolean",
    "holonomy": "number",
    "lift_offset": "number",
    "basepoint_class": "string",
    "start": "number",
    "end": "number",
    "tag": "string",
    "interval": "number",
    "future_anchor": "number",
    "mass": "number",
    "samples": "number",
    "I": "number",
    "B": "number",
    "kind": "string",
    "at": "integer",
    "edges": "integer",
    "lengths": "number",
    "marked": "number",
    "generator_loops": "integer",
    "before": "string",
    "after": "string",
    "disk_before": "integer",
    "disk_after": "integer",
    "identification": "string",
    "vanished": "number",
    "created": "number",
    "initial": "string?",
    "final": "string?",
}
# the objects whose keys are data (vertex ids, names), not fields
MAPS = {"vertices", "marked", "cone_angles", "generator_loops", "identification"}
# JSON texts of another kind for a node of each kind
WRONG_KINDS = {
    "number": ('"2.5"', "true"),
    "integer": ("0.5", '"1"', "false"),
    "boolean": ("1", '"false"'),
    "string": ("7", "true"),
    "object": ("[]", '"x"'),
    "array": ("{}", "1.5"),
}
# texts Python's json reads as a float that is not finite
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
# a document with more payload nodes sets each node to one of its values, in
# turn, rather than to each of them
EVERY_VALUE_UP_TO = 100
GRAPH_COMMANDS = ("validate-graph", "assemble-holonomy")
DELETE = object()
# a number written as the int nearest it, which the reader takes, makes some
# documents contradict themselves: the library's refusal, by the field that
# holds the number (none of these texts can come from classify-sphere,
# trace-causal or check-polyhedron, which give a report for every such int)
ROUNDED_REFUSED = {
    "lengths": (2, "rejected: vertex angle sums do not match targets"),
    "cone_angles": (2, "rejected: vertex angle sums do not match targets"),
    "marked": (2, "rejected: marked point "),
    "I": (2, "rejected: I must be symmetric\n"),
    "B": (2, "rejected: B must be self-adjoint for I\n"),
    "samples": (2, "rejected: samples must advance in t by at most 1e-3\n"),
    "interval": (2, "rejected: interval endpoints are not fixed by the holonomy\n"),
    "start": (2, "rejected: arcs must be disjoint and ordered\n"),
    "end": (2, "rejected: arcs must be disjoint and ordered\n"),
    # an offset that its holonomy does not give is malformed input, by its path
    "lift_offset": (1, "input error: payload.lift_offset: lift offset s is not congruent to the image of 0\n"),
}


def _path_text(path) -> str:
    """A document path as the CLI names it: payload.key[index]."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:]


def _field_at(path) -> str:
    """The field that holds the node at path, or the array or map it is in."""
    return next(k for i, k in reversed(list(enumerate(path))) if type(k) is str and path[i - 1] not in MAPS)


def _kind_at(doc, path) -> str:
    node = _parent(doc, path)[path[-1]]
    if isinstance(node, (dict, list)):
        return "object" if isinstance(node, dict) else "array"
    field = _field_at(path)
    return ("integer", "boolean")[path[-1]] if field == "faces" else LEAF_KINDS[field]


def _accepted(answer, path) -> bool:
    """A report (exit 0 or 2, no stderr), or the one-line refusal that
    ROUNDED_REFUSED names for the field of the node."""
    code, out, err = answer
    if code in (0, 2) and out and not err:
        return True
    code_as, err_as = ROUNDED_REFUSED.get(_field_at(path), (None, None))
    return (code, out) == (code_as, "") and err.startswith(err_as) and err.count("\n") == 1


def _run_with(tmp_path, command, path, text):
    """The CLI on the base document of a command with the node at path set
    to a JSON text, or deleted for DELETE."""
    doc = json.loads(_base_text(command))
    if text is DELETE:
        del _parent(doc, path)[path[-1]]
    else:
        _parent(doc, path)[path[-1]] = "__node__"
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc).replace('"__node__"', str(text)))
    return run_cli([command.split("/")[0], "--input", str(doc_path)])


@pytest.mark.parametrize("command", sorted(COMMANDS) + sorted(LINK_VARIANTS))
def test_a_value_of_the_wrong_kind_is_refused_by_its_path(tmp_path, command):
    """Every node of a payload, nested documents included, set to a value of
    another JSON kind (a string or bool for a number, a float for an int, an
    int for a bool, a list for an object), to NaN, +-Infinity or 1e400, or
    to null where its entry is required: exit 1, nothing on stdout and one
    stderr line naming the node and the kind it expects.  A document of more
    than EVERY_VALUE_UP_TO nodes tries one of these values per node, in
    turn; validate-graph and assemble-holonomy, which read one base document
    with one reader, take every other node of it each.  An int where a
    number belongs (the number rounded) and a null where the annotation
    admits one stay accepted: the command gives its report, or for a
    rounded number of a field in ROUNDED_REFUSED the library's refusal."""
    base = json.loads(_base_text(command))
    nodes = [path for path in _paths(base) if path[0] == "payload" and len(path) > 1]
    if command in GRAPH_COMMANDS:
        nodes = nodes[GRAPH_COMMANDS.index(command) :: 2]
    refused = accepted = 0
    for i, path in enumerate(nodes):
        kind = _kind_at(base, path)
        wrong = WRONG_KINDS[kind.rstrip("?")] + NON_FINITE + (() if kind.endswith("?") else ("null",))
        for text in wrong if len(nodes) <= EVERY_VALUE_UP_TO else wrong[i % len(wrong) :][:1]:
            code, out, err = _run_with(tmp_path, command, path, text)
            assert (code, out) == (1, ""), (path, text, err)
            assert err.startswith(f"input error: {_path_text(path)}: expected ") and err.count("\n") == 1, err
            refused += 1
        node = _parent(base, path)[path[-1]]
        for text in ((str(round(node)),) if kind == "number" else ()) + ("null",) * kind.endswith("?"):
            answer = _run_with(tmp_path, command, path, text)
            assert _accepted(answer, path), (path, text, answer)
            accepted += 1
    assert refused >= len(nodes) and accepted > 4


@pytest.mark.parametrize(
    "command,path,value,error",
    [
        (
            "classify-sphere",
            ("payload", "hyperbolic_regions", 1, "cone_angles", 0),
            "2.5",
            'payload.hyperbolic_regions[1].cone_angles[0]: expected number, got "2.5"',
        ),
        (
            "classify-sphere",
            ("payload", "hyperbolic_regions", 0, "cone_angles", 0),
            True,
            "payload.hyperbolic_regions[0].cone_angles[0]: expected number, got true",
        ),
        (
            "trace-causal",
            ("payload", "hyperbolic_regions", 0, "cusps"),
            0.4,
            "payload.hyperbolic_regions[0].cusps: expected integer, got 0.4",
        ),
        (
            "check-polyhedron",
            ("payload", "has_degenerate_t_domain"),
            "false",
            'payload.has_degenerate_t_domain: expected boolean, got "false"',
        ),
        (
            "check-polyhedron",
            ("payload", "sigma_geodesics", 0, "closed"),
            0,
            "payload.sigma_geodesics[0].closed: expected boolean, got 0",
        ),
        (
            "classify-sphere",
            ("payload", "hyperbolic_regions", 0, "orientation"),
            7,
            "payload.hyperbolic_regions[0].orientation: expected string, got 7",
        ),
        (
            "check-polyhedron",
            ("payload", "vertices", 0, "position"),
            "corner",
            'payload.vertices[0].position: expected one of "H", "interior-Sigma", "interior-T", '
            '"isolated-Sigma", "S_T", "Sigma-T-connected", "Sigma-T-disconnected", got "corner"',
        ),
        (
            "surgery",
            ("payload", "link", "payload", "photon_circles", 1, "de_sitter_side"),
            "0",
            'payload.link.payload.photon_circles[1].de_sitter_side: expected integer, got "0"',
        ),
        (
            "classify-sphere",
            ("payload", "hyperbolic_regions", 0, "orientation"),
            DELETE,
            "payload.hyperbolic_regions[0].orientation: missing",
        ),
        (
            "check-polyhedron",
            ("payload", "vertices", 1, "angles", 0, "k"),
            DELETE,
            "payload.vertices[1].angles[0].k: missing",
        ),
        ("lr-metrics", ("payload", "samples", 0, "B"), DELETE, "payload.samples[0].B: missing"),
    ],
)
def test_the_escapes_of_the_hand_written_readers_are_refused(tmp_path, command, path, value, error):
    """The first six passed as valid (exit 0), or, for the orientation,
    failed as a domain rejection (exit 2).  A surgery request names a leaf
    of its link by the path from the request, and a missing entry, which
    was a KeyError naming only its key, is named by its path."""
    text = value if value is DELETE else json.dumps(value)
    assert _run_with(tmp_path, command, path, text) == (1, "", f"input error: {error}\n")


def test_surgery_does_not_load_the_spacetime_layer(tmp_path, child_env):
    """Surgery cuts the request's slice surface itself: a fresh interpreter
    that runs it has not imported adscone.spacetimes."""
    path = tmp_path / "surgery.json"
    path.write_text(_base_text("surgery"))
    script = (
        "import sys; from adscone.cli import main; "
        "main(['surgery', '--input', sys.argv[1], '--output', sys.argv[2]]); "
        "print('adscone.spacetimes' in sys.modules, 'adscone.interactions' in sys.modules)"
    )
    args = [sys.executable, "-c", script, str(path), str(tmp_path / "report.json")]
    run = subprocess.run(args, capture_output=True, text=True, env=child_env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False True\n", "")


def test_fresh_interpreters_answer_as_the_running_process(tmp_path, child_env):
    """Each subcommand on its unmutated document, run by `python -m
    adscone.cli`, gives the exit code, stdout and stderr of main() in this
    process.  A fresh interpreter imports only the layers that subcommand
    runs, and in its own order, where pytest has every module loaded."""
    calls = []
    for command in sorted(COMMANDS):
        path = tmp_path / f"{command}.json"
        path.write_text(_base_text(command))
        calls.append([command, "--input", str(path)])
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "adscone.cli", *call],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env,
        )
        for call in calls
    ]
    expected = []
    for proc in fresh:
        out, err = proc.communicate(timeout=60)
        expected.append((proc.returncode, out, err))
    for call, want in zip(calls, expected):
        got = run_cli(call)
        assert got == want, call
        assert got[0] in (0, 2) and got[1] and not got[2], call
        _strict_json(got[1])
