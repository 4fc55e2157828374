"""The codec's one-pass array reads (documents._one_pass) against the walk
they fall back to: same values, same refusals by path, same CLI bytes."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from adscone import conesurf
from adscone import documents as docs
from adscone.cli import main
from adscone.catalog import subdivide_face_with_cone, torus_with_cone_point
from adscone.interactions import elastic_collision_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _outcome(read, *args):
    try:
        return "value", read(*args)
    except docs.DocumentError as err:
        return "refused", str(err)


def _walked(monkeypatch, read, *args):
    """_outcome(read, *args) with the codec's one-pass branch declining
    every array, so that every array is read value by value; the plans
    built meanwhile go with it."""
    monkeypatch.setattr(docs, "_one_pass", lambda tp: None)
    docs._codec.cache_clear()
    try:
        return _outcome(read, *args)
    finally:
        monkeypatch.undo()
        docs._codec.cache_clear()


# -- the corpus through the CLI -----------------------------------------------


def _corpus_outputs(dirs, documents):
    return [
        run_cli([d.cmd, "--input", str(dirs[d.cmd] / d.name), *corpus.FLAGS.get(d.cmd, ())])
        for d in documents
    ]


def test_the_corpus_reads_the_same_value_by_value(tmp_path, monkeypatch):
    """Every cli-corpus document of seeds 1-3 gives the same exit code,
    stdout and stderr when every array is read value by value."""
    documents, dirs = [], {}
    for seed in (1, 2, 3):
        seed_docs = corpus.cli_corpus(seed)
        dirs[seed] = corpus.write_corpus(seed_docs, tmp_path / str(seed))
        documents.append(seed_docs)
    one_pass = [_corpus_outputs(dirs[seed], d) for seed, d in zip((1, 2, 3), documents)]
    asked = []
    monkeypatch.setattr(docs, "_one_pass", lambda tp: asked.append(tp))
    docs._codec.cache_clear()
    try:
        walked = [_corpus_outputs(dirs[seed], d) for seed, d in zip((1, 2, 3), documents)]
    finally:
        monkeypatch.undo()
        docs._codec.cache_clear()
    assert asked  # the plans were built again, with the branch declining
    assert sum(map(len, documents)) == 360
    assert walked == one_pass
    codes = {code for outputs in one_pass for code, _, _ in outputs}
    assert codes == {0, 1, 2}


# -- wrong leaves at the first, middle and last place of each array kind -------

WRONG = {
    "true": True,
    '"1"': "1",
    "null": None,
    "NaN": float("nan"),
    "Infinity": float("inf"),  # what json reads 1e400 as
    "1": 1,
    "1.5": 1.5,
}
KIND_OF = {float: "number", int: "integer", bool: "boolean", str: "string"}
RIGHT = {float: 0.25, int: 3, bool: False, str: "s"}


def _wrong_for(leaf):
    """The wrong leaves for a place of the leaf kind: every one whose own
    kind differs (an int is a number, a bool no int)."""
    ok = {float: (float, int), int: (int,), bool: (bool,), str: (str,)}[leaf]
    for text, value in WRONG.items():
        finite = not isinstance(value, float) or value - value == 0
        if type(value) not in ok or not finite:
            yield text, value


# annotation, the leaf kinds of one item (one row; None for a matrix), rows
# in the array; the objects' keys are the texts of their rows' numbers
ARRAYS = [
    (tuple[float, ...], (float,), 5),
    (tuple[int, ...], (int,), 5),
    (frozenset[int], (int,), 5),
    (tuple[str, ...], (str,), 5),
    (docs._EDGES, (int, int), 5),
    (list[tuple[int, int]], (int, int), 5),
    (tuple[float, float, float, float], None, 4),
    (docs._FACES, ((int, bool),) * 3, 3),
    (dict[str, str], (str,), 5),
    (dict[int, float], (float,), 5),
    (docs._LOOPS, (int, int), 3),
]


def _row(kinds):
    if isinstance(kinds[0], tuple):
        return [_row(k) for k in kinds]
    return [RIGHT[k] for k in kinds] if len(kinds) > 1 else RIGHT[kinds[0]]


def _array(tp, kinds, n):
    """A valid JSON value annotated tp with n rows, and the path suffix of
    row i."""
    if tp == tuple[float, float, float, float]:
        return [0.25, 0.5, 0.75, 1.0], lambda i: f"[{i}]"
    if tp is docs._LOOPS:  # one loop per name, of n steps
        return {"g": [_row(kinds) for _ in range(n)]}, lambda i: f".g[{i}]"
    if getattr(tp, "__origin__", None) is dict:
        return {str(i): _row(kinds) for i in range(n)}, lambda i: f".{i}"
    if tp == frozenset[int] or tp == tuple[int, ...]:  # distinct entries
        return list(range(n)), lambda i: f"[{i}]"
    return [_row(kinds) for _ in range(n)], lambda i: f"[{i}]"


def _places(tp, kinds, n):
    """(row, column path, leaf kind) of the leaves tried: the first, middle
    and last row, and in a row its first and last leaf."""
    for i in sorted({0, n // 2, n - 1}):
        if kinds is None:
            yield i, "", float
        elif isinstance(kinds[0], tuple):  # a face: its first and last side
            for j, side in ((0, kinds[0]), (len(kinds) - 1, kinds[-1])):
                yield i, f"[{j}][0]", side[0]
                yield i, f"[{j}][{len(side) - 1}]", side[-1]
        elif len(kinds) > 1:
            yield i, "[0]", kinds[0]
            yield i, f"[{len(kinds) - 1}]", kinds[-1]
        else:
            yield i, "", kinds[0]


def _set(value, tp, row, column, leaf):
    """value with the leaf at row and column set."""
    value = json.loads(json.dumps(value))
    node = value["g"] if tp is docs._LOOPS else value
    key = str(row) if isinstance(node, dict) else row
    if not column:
        node[key] = leaf
        return value
    node = node[key]
    steps = [int(k) for k in column.strip("[]").split("][")]
    for k in steps[:-1]:
        node = node[k]
    node[steps[-1]] = leaf
    return value


def _cases():
    for tp, kinds, n in ARRAYS:
        value, row_path = _array(tp, kinds, n)
        for row, column, leaf_kind in _places(tp, kinds, n):
            for text, leaf in _wrong_for(leaf_kind):
                wrong = _set(value, tp, row, column, leaf)
                error = f"x{row_path(row)}{column}: expected {KIND_OF[leaf_kind]}, got {text}"
                yield pytest.param(tp, value, wrong, error, id=f"{tp}-{row}{column}-{text}")


@pytest.mark.parametrize("tp,value,wrong,error", list(_cases()))
def test_a_wrong_leaf_is_named_by_its_path(monkeypatch, tp, value, wrong, error):
    """A wrong leaf anywhere in an array (or in an object's values, which
    are read entry by entry) is refused with the walk's message; the value
    without it reads to the walk's values, of the same types."""
    read = lambda v: docs._read({"x": v}, "x", tp)  # noqa: E731
    assert _outcome(read, wrong) == ("refused", error) == _walked(monkeypatch, read, wrong)
    got = _outcome(read, value)
    assert got[0] == "value"
    assert repr(got) == repr(_walked(monkeypatch, read, value))


def _shape_cases():
    """Rows of the wrong length or not arrays, at the first, middle and last
    row of each array of rows (for faces, a face and a side)."""
    rows = [
        (docs._EDGES, 2, 5, ""),
        (list[tuple[int, int]], 2, 5, ""),
        (docs._FACES, 3, 3, ""),
        (docs._FACES, 2, 3, "[1]"),
        (docs._LOOPS, 2, 3, ""),
        (tuple[tuple[float, ...], ...], None, 3, ""),
    ]
    for tp, length, n, inner in rows:
        value, row_path = _array(tp, ((int, bool),) * 3 if tp is docs._FACES else (int, int), n)
        if tp == tuple[tuple[float, ...], ...]:
            value = [[0.5, 1], [], [2.5]]
        for i in sorted({0, n // 2, n - 1}):
            for text, bad in (("[3]", [3]), ("[3, 3, 3]", [3, 3, 3]), ('{"a": 3, "b": 3}', {"a": 3, "b": 3}),
                              ('"ab"', "ab"), ("3", 3), ("null", None)):
                if length is None and type(bad) is list:
                    continue
                wrong = json.loads(json.dumps(value))
                node = wrong["g"] if tp is docs._LOOPS else wrong
                if inner:
                    node[i][1] = bad
                else:
                    node[i] = bad
                at = f"x{row_path(i)}{inner}"
                if length is None:
                    error = f"{at}: expected array, got {text}"
                elif type(bad) is list and len(bad) == length:  # a face of three numbers
                    error = f"{at}[0]: expected array of length 2, got 3"
                else:
                    error = f"{at}: expected array of length {length}, got {text}"
                yield pytest.param(tp, wrong, error, id=f"{tp}-{i}{inner}-{text}")


@pytest.mark.parametrize("tp,wrong,error", list(_shape_cases()))
def test_a_row_of_another_shape_is_named_by_its_path(monkeypatch, tp, wrong, error):
    read = lambda v: docs._read({"x": v}, "x", tp)  # noqa: E731
    assert _outcome(read, wrong) == ("refused", error) == _walked(monkeypatch, read, wrong)


@pytest.mark.parametrize(
    "numbers",
    [
        [1, float("nan")],
        [float("nan"), 1, 2.5],
        [1, 2.5, -0.0, 0, 10**300],
        [1e308, 1e308],
        [-1e308, -1e308, 1.0],
        [docs._FLOAT_MAX, 1.5],
        [1.5, docs._FLOAT_MAX + 1],
        [-docs._FLOAT_MAX - 1],
        [10**400],
        [1.0, float("nan"), 10**400],
        [float("nan"), 10**400],
        [],
    ],
)
def test_numbers_at_the_ends_of_the_float_range(monkeypatch, numbers):
    """A sum that overflows sends finite numbers to the walk, which reads
    them; an int beyond the float range is refused, a NaN beside it too;
    the ints that are read become floats."""
    read = lambda v: docs._read({"x": v}, "x", tuple[float, ...])  # noqa: E731
    got = _outcome(read, numbers)
    assert repr(got) == repr(_walked(monkeypatch, read, numbers))
    if got[0] == "value":
        assert {type(x) for x in got[1]} <= {float}


@pytest.mark.parametrize(
    "key",
    ["0", "7", "-0", "-12", " 1", "\t2\n", "\r3 ", "01", "-01", "1_0", "+1", "1.0", "1e3", "true",
     "null", "", " ", "-", "0x1", "\u0661", "1\x0c", "\xa01", "9" * 5000],
)
def test_an_int_key_is_read_as_json_reads_it(key):
    """An object key annotated int is the text of a JSON integer, JSON
    whitespace around it allowed: "-0" and " 1" are keys 0 and 1; "01",
    "1_0", "+1" and an Arabic-Indic digit are not, and a text of more digits
    than int() converts is refused as json.loads refuses it."""
    try:
        parsed = json.loads(key)
        expected = ("value", {parsed: 0.5}) if type(parsed) is int else None
    except ValueError:
        expected = None
    if expected is None:
        expected = ("refused", f"x.{key}: expected integer key, got {json.dumps(key)}")
    assert _outcome(docs._read, {"x": {key: 0.5}}, "x", dict[int, float]) == expected


def test_a_wrong_key_is_named_before_its_value():
    doc = {"x": {"1": 0.5, "a": None}}
    assert _outcome(docs._read, doc, "x", dict[int, float]) == ("refused", 'x.a: expected integer key, got "a"')


# -- graph surfaces shared by their read value ---------------------------------


def _graph_doc():
    surf, _ = torus_with_cone_point(2.0)
    surf2, disk2, _ = subdivide_face_with_cone(surf, 1, 2.5)
    g = elastic_collision_graph(surf2, frozenset(disk2.face_ids) | frozenset({7, 8, 9}))
    return json.loads(docs.canonical_json(docs.interaction_graph_to_doc(g)))


def _surface_docs(doc):
    return [v[k] for v in doc["payload"]["vertices"].values() for k in ("mu_l", "mu_r")]


def _read_counting(monkeypatch, doc):
    """The graph of doc, and how many ConeSurfaces its read built; json.dumps
    raises meanwhile."""
    built = []
    post_init = conesurf.ConeSurface.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(conesurf.ConeSurface, "__post_init__", counted)
    monkeypatch.setattr(json, "dumps", no_dumps)
    try:
        return docs.interaction_graph_from_doc(doc), len(built)
    finally:
        monkeypatch.undo()


def _unit_lengths(doc):
    """doc with every surface document's lengths 1.0, its cone angles the
    angle sums of that metric, and no marked points: a surface whose
    lengths a document can write as integers."""
    p = _surface_docs(doc)[0]["payload"]
    edges = tuple(map(tuple, p["edges"]))
    faces = tuple(tuple(conesurf.Side(*s) for s in f) for f in p["faces"])
    unit = conesurf.ConeSurface(edges, faces, np.ones(len(edges)), check_angles=False)
    angles = {str(v): a for v, a in unit.vertex_angle_sums().items()}
    for v in doc["payload"]["vertices"].values():
        v["marked"] = {}
        for key in ("mu_l", "mu_r"):
            v[key]["payload"].update(lengths=[1.0] * len(edges), cone_angles=dict(angles))


def _reversed_keys(node):
    if isinstance(node, dict):
        return {k: _reversed_keys(node[k]) for k in reversed(node)}
    return [_reversed_keys(x) for x in node] if isinstance(node, list) else node


@pytest.mark.parametrize(
    "change", ["none", "keys reversed", "2 against 2.0", "length 1 against 1.0", "extra key"]
)
def test_equal_surface_documents_build_one_surface(monkeypatch, change):
    """Four surface documents equal in value build one ConeSurface and call
    no json.dumps, with one of them listing its keys in reverse, writing its
    cone angle 2 as 2.0 or a length 1.0 as 1, or holding a key no reader
    reads."""
    doc = _graph_doc()
    surfaces = _surface_docs(doc)
    assert all(s == surfaces[0] for s in surfaces)
    after = doc["payload"]["vertices"]["after"]
    if change == "keys reversed":
        after["mu_r"] = _reversed_keys(after["mu_r"])
    elif change == "2 against 2.0":
        angles = after["mu_r"]["payload"]["cone_angles"]
        assert type(angles["4"]) is int
        angles["4"] = 2.0
    elif change == "length 1 against 1.0":
        _unit_lengths(doc)
        assert all(s == surfaces[0] for s in surfaces)
        after["mu_r"]["payload"]["lengths"][0] = 1
    elif change == "extra key":
        after["mu_r"]["payload"]["note"] = "unread"
    g, built = _read_counting(monkeypatch, doc)
    assert built == 1
    assert len({id(s) for v in g.vertices.values() for s in (v.mu_l, v.mu_r)}) == 1


def test_two_different_surfaces_build_two(monkeypatch):
    doc = _graph_doc()
    lengths = doc["payload"]["vertices"]["after"]["mu_r"]["payload"]["lengths"]
    lengths[0] = lengths[0] * (1 + 2**-40)  # another metric, same angles to ANGLE_MATCH
    g, built = _read_counting(monkeypatch, doc)
    assert built == 2
    after = g.vertex("after")
    assert after.mu_r is not after.mu_l is g.vertex("before").mu_l


@pytest.mark.parametrize("where", ["edges", "faces"])
def test_false_for_an_id_0_is_refused_by_its_path(where):
    """A false where the other surface documents hold the id 0 is equal to
    them by ==, but is refused by its path."""
    doc = _graph_doc()
    p = doc["payload"]["vertices"]["after"]["mu_r"]["payload"]
    if where == "edges":
        k = next(i for i, e in enumerate(p["edges"]) if e[0] == 0)
        p["edges"][k][0], at = False, f"edges[{k}][0]"
    else:
        f, i = next((f, i) for f, face in enumerate(p["faces"]) for i, s in enumerate(face) if s[0] == 0)
        p["faces"][f][i][0], at = False, f"faces[{f}][{i}][0]"
    assert _surface_docs(doc)[1] == _surface_docs(doc)[0]
    assert _outcome(docs.interaction_graph_from_doc, doc) == (
        "refused", f"payload.vertices.after.mu_r.payload.{at}: expected integer, got false"
    )


# -- a side naming an edge the surface lacks -----------------------------------


def _product_doc():
    from adscone.spacetimes import product_spacetime

    surf, _ = torus_with_cone_point(2.0)
    return json.loads(docs.canonical_json(docs.model_to_doc(product_spacetime(surf))))


@pytest.mark.parametrize("edge", [15, -1, 2**70])
@pytest.mark.parametrize("side", [(0, 1), (9, 2)])
def test_a_side_naming_no_edge_is_refused_by_its_path(tmp_path, edge, side):
    """A face side naming an edge id outside 0..E-1 exits 1 naming its path,
    in a model's base surface and in a graph's surfaces."""
    f, i = side
    doc = _product_doc()
    doc["payload"]["base"]["payload"]["faces"][f][i][0] = edge
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    where = f"payload.base.payload.faces[{f}][{i}][0]"
    assert run_cli(["classify-model-links", "--input", str(path)]) == (
        1, "", f"input error: {where}: expected an edge of the surface (0..14), got {edge}\n"
    )
    graph = _graph_doc()
    graph["payload"]["vertices"]["before"]["mu_r"]["payload"]["faces"][f][i][0] = edge + (edge > 0) * 3
    path.write_text(json.dumps(graph))
    where = f"payload.vertices.before.mu_r.payload.faces[{f}][{i}][0]"
    assert run_cli(["validate-graph", "--input", str(path)]) == (
        1, "", f"input error: {where}: expected an edge of the surface (0..17), got {edge + (edge > 0) * 3}\n"
    )
