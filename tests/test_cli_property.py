"""The CLI contract on mutated documents: every run of `surgery`,
`validate-graph` and `assemble-holonomy` exits 0, 1 or 2 without a traceback,
and writes the same bytes to stdout and stderr when it runs twice in one
process and once through --batch.

The documents start from adscone.catalog constructions.  Surfaces parsed
from them share one interned structure per triangulation across runs, so a
stale or corrupted structure cache would show here as a changed answer."""

import functools
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone import documents as docs
from adscone.catalog import subdivide_face_with_cone, torus_with_cone_point
from adscone.cli import main
from adscone.hssurface import (
    DeSitterRegion,
    HyperbolicRegion,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
)
from adscone.interactions import elastic_collision_graph

PI = np.pi
COMMANDS = ("surgery", "validate-graph", "assemble-holonomy")
# what a mutated leaf becomes, besides a scaled copy of a number
ODD_VALUES = (None, True, -1, 0, 2, 7, 0.5, -0.25, 1e300, "x", [], {})


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _base_text(command: str) -> str:
    """The canonical text of the unmutated document of a command: a surgery
    request outside the collision window on the theta = pi torus, and the
    elastic collision graph on that torus refined at face 1."""
    torus, _ = torus_with_cone_point(PI)
    if command == "surgery":
        link = SingularHSSurface(
            hyperbolic_regions=(
                HyperbolicRegion("future", RegionTopology.DISK, (PI,), 0, (0,)),
                HyperbolicRegion("past", RegionTopology.DISK, (2 * PI / 3, 2 * PI / 3), 0, (1,)),
            ),
            de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
            photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
        )
        payload = {"base": docs.cone_surface_to_doc(torus), "link": docs.hs_surface_to_doc(link), "at": 4}
        return docs.canonical_json(docs.envelope("surgery-request.json", payload))
    refined, disk, _ = subdivide_face_with_cone(torus, 1, 2.5)
    graph = elastic_collision_graph(refined, frozenset(disk.face_ids) | frozenset({7, 8, 9}))
    return docs.canonical_json(docs.interaction_graph_to_doc(graph))


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


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
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
    assert second == first
    summary = docs.canonical_json({"batch": {"doc.json": code}}) + "\n"
    assert batch == (code, out, err + summary)


@pytest.mark.parametrize(
    "path,value,error",
    [
        (("payload", "base", "payload", "cone_angles"), None, "AttributeError"),
        (("payload", "base", "payload", "edges", 0, 0), 1e300, "OverflowError"),
    ],
)
def test_values_of_the_wrong_kind_are_input_errors(tmp_path, path, value, error):
    """Two documents the property found escaping as tracebacks: a null where
    the cone angles belong, and a vertex id too large for an index array."""
    doc = json.loads(_base_text("surgery"))
    _parent(doc, path)[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(docs.canonical_json(doc))
    code, out, err = run_cli(["surgery", "--input", str(doc_path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: {error}: ")
