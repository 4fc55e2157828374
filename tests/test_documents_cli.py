import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adscone import cli
from adscone import documents as docs
from adscone import interactions
from adscone import lrmetrics
from adscone.catalog import solve_metric, subdivide_face_with_cone, torus_with_cone_point
from adscone.cli import COMMANDS, build_parser, main
from adscone.conesurf import holonomy_of_loop
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
from adscone.interactions import (
    InteractionGraph,
    SliceVertex,
    assemble_holonomy,
    elastic_collision_graph,
    validate_geometric_data,
)
from adscone.linalg import HSPointClass
from adscone.links import SingKind, SingularityType
from adscone.lrmetrics import JetSample, SurfaceJet
from adscone.rp1 import elliptic_link_circle, mark_timelike_arcs
from adscone.spacetimes import cone_spacetime, product_spacetime, saturating_null_curve

PI = np.pi

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_canonical_json_deterministic():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5, -0.0, np.float64(-0.0)], "c": {"y": True, "x": None}}
    s1 = docs.canonical_json(obj)
    s2 = docs.canonical_json(json.loads(s1))
    assert s1 == s2
    assert format(1.0 / 3.0, ".17g") in s1
    assert '"a":[1,2.5,0,0]' in s1  # json reads -0 as the int 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("inf")])
def test_canonical_json_refuses_a_float_that_is_not_finite(value):
    """Strict JSON has no NaN or Infinity, so no report can print one."""
    with pytest.raises(ValueError, match="is not JSON compliant$"):
        docs.canonical_json({"a": [1.0, value]})


NAN, INF = float("nan"), float("inf")


def test_canonical_json_renders_as_the_recursive_renderer(tmp_path, monkeypatch, recursive_canonical_json):
    """The exact-type dispatch of canonical_json gives the text, or the
    ValueError, of one isinstance chain per value: on numpy scalars, signed
    zeros, booleans, nested tuples, and every report of the cli-corpus
    documents of seeds 1-3."""
    values = [
        -0.0, np.float64(-0.0), np.float64(1 / 3), np.float32(0.1), np.int64(-7), 2 ** 70, True, False,
        None, "\u00fc\"", 1e-320, (1, (2.5, (-0.0, [np.float64(2.0), ()]), "s")),
        {"b": (False,), "a": [True, np.int64(3)], "c": {}},
    ]
    for value in values:
        assert docs.canonical_json(value) == recursive_canonical_json(value), value
    for bad in (NAN, INF, -INF, np.float64(NAN), np.float64(-INF), [1.0, (INF,)]):
        texts = []
        for render in (docs.canonical_json, recursive_canonical_json):
            with pytest.raises(ValueError) as err:
                render({"a": bad})
            texts.append(str(err.value))
        assert texts[0] == texts[1], bad
    reports = []
    canonical = docs.canonical_json
    monkeypatch.setattr(docs, "canonical_json", lambda obj: reports.append(obj) or canonical(obj))
    for seed in (1, 2, 3):
        documents = corpus.cli_corpus(seed)
        dirs = corpus.write_corpus(documents, tmp_path / str(seed))
        for d in documents:
            run_cli([d.cmd, "--input", str(dirs[d.cmd] / d.name), *corpus.FLAGS.get(d.cmd, ())])
    assert len(reports) > 250
    for report in reports:
        assert canonical(report) == recursive_canonical_json(report)


def _first_valid_documents():
    """The first valid seed-1 cli-corpus document of each subcommand."""
    firsts = {}
    for d in corpus.cli_corpus(1):
        if d.kind == "valid":
            firsts.setdefault(d.cmd, d)
    assert sorted(firsts) == sorted(corpus.SUBCOMMANDS)
    return [firsts[cmd] for cmd in corpus.SUBCOMMANDS]


_MISSING = object()


@pytest.mark.parametrize("doc", _first_valid_documents(), ids=lambda d: d.cmd)
def test_every_document_kind_accepts_only_an_integer_version(tmp_path, doc):
    """A version that is not a JSON integer (a fraction, a bool, a string,
    null, an array, an object, 1.0) is an input error naming the field; an
    integer other than 1 is unsupported; 1, or no version, is read."""
    path = tmp_path / "doc.json"
    flags = list(corpus.FLAGS.get(doc.cmd, ()))

    def run(version):
        text = json.loads(doc.text)
        if version is _MISSING:
            del text["version"]
        else:
            text["version"] = version
        path.write_text(json.dumps(text))
        return run_cli([doc.cmd, "--input", str(path), *flags])

    path.write_text(doc.text)
    answer = run_cli([doc.cmd, "--input", str(path), *flags])
    assert answer[0] == doc.exit
    for version in (1.5, True, False, "x", "1", None, [1], {}, 1.0):
        assert run(version) == (1, "", f"input error: version: expected integer, got {json.dumps(version)}\n")
    assert run(2) == (1, "", "input error: unsupported version 2\n")
    assert run(1) == answer
    assert run(_MISSING) == answer


def test_link_circle_roundtrip():
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    doc = docs.link_circle_to_doc(link)
    back = docs.link_circle_from_doc(json.loads(docs.canonical_json(doc)))
    assert back.basepoint_class is link.basepoint_class
    assert abs(back.kind.angle - PI / 2) < 1e-12


def _non_finite_doc(command):
    if command == "classify-link":
        return docs.link_circle_to_doc(mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS))
    if command == "lr-metrics":
        return docs.surface_jet_to_doc(SurfaceJet(tuple(JetSample(np.eye(2), k * np.eye(2)) for k in (0.5, 0.7))))
    return docs.envelope("causal-curve.json", _curve_payload())


@pytest.mark.parametrize(
    "command,path,value,error",
    [
        pytest.param(
            "classify-link",
            ("holonomy", 1),
            float("nan"),
            "payload.holonomy[1]: expected number, got NaN",
            id="classify-link-holonomy",
        ),
        pytest.param(
            "classify-link",
            ("lift_offset",),
            float("nan"),
            "payload.lift_offset: expected number, got NaN",
            id="classify-link-lift-offset",
        ),
        pytest.param(
            "lr-metrics",
            ("samples", 0, "B", 3),
            None,
            "payload.samples[0].B[3]: expected number, got null",
            id="lr-metrics-null-in-B",
        ),
        pytest.param(
            "lr-metrics",
            ("samples", 1, "I", 0),
            float("inf"),
            "payload.samples[1].I[0]: expected number, got Infinity",
            id="lr-metrics-infinite-I",
        ),
        pytest.param(
            "speed-check",
            ("samples", 1, 2),
            None,
            "payload.samples[1][2]: expected number, got null",
            id="speed-check-null-sample",
        ),
        pytest.param(
            "speed-check",
            ("mass",),
            float("inf"),
            "payload.mass: expected number, got Infinity",
            id="speed-check-infinite-mass",
        ),
        pytest.param(
            "speed-check",
            ("mass",),
            "nan",
            'payload.mass: expected number, got "nan"',
            id="speed-check-nan-text-mass",
        ),
    ],
)
def test_a_non_finite_number_is_an_input_error(tmp_path, command, path, value, error):
    """A null, NaN or infinite number in a link circle, a matrix or a causal
    curve is malformed input (exit 1), not a NaN in the report, and is named
    by its path.  A null in a surface jet used to reach the report as NaN,
    which is not JSON, with exit 0 and numpy's "invalid value" warning on
    the first call in a process only."""
    doc = json.loads(docs.canonical_json(_non_finite_doc(command)))
    node = doc["payload"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert run_cli([command, "--input", str(doc_path)]) == (1, "", f"input error: {error}\n")


def test_cone_surface_roundtrip():
    surf, _ = torus_with_cone_point(2.0)
    doc = docs.cone_surface_to_doc(surf)
    back = docs.cone_surface_from_doc(json.loads(docs.canonical_json(doc)))
    assert np.abs(back.lengths - surf.lengths).max() < 1e-15
    assert back.cone_angles == surf.cone_angles
    assert back.faces == surf.faces


def _curve_to_doc(curve) -> dict:
    """The causal-curve document of causal_curve_from_doc's (ts, zs, mass)."""
    ts, zs, mass = curve
    samples = [[t, z.real, z.imag] for t, z in zip(ts.tolist(), zs.tolist())]
    return docs.envelope("causal-curve.json", {"mass": mass, "samples": samples})


def _request_to_doc(request) -> dict:
    """The surgery-request document of surgery_request_from_doc's (base, link, at)."""
    base, link, at = request
    payload = {"base": docs.cone_surface_to_doc(base), "link": docs.hs_surface_to_doc(link), "at": at}
    return docs.envelope("surgery-request.json", payload)


# the reader and writer of each cli-corpus subcommand's document; the payloads
# of speed-check and surgery are written from their parts
DOCUMENTS = {
    "classify-link": (docs.link_circle_from_doc, docs.link_circle_to_doc),
    "classify-sphere": (docs.hs_surface_from_doc, docs.hs_surface_to_doc),
    "trace-causal": (docs.hs_surface_from_doc, docs.hs_surface_to_doc),
    "check-polyhedron": (docs.marked_metric_from_doc, docs.marked_metric_to_doc),
    "speed-check": (docs.causal_curve_from_doc, _curve_to_doc),
    "lr-metrics": (docs.surface_jet_from_doc, docs.surface_jet_to_doc),
    "classify-model-links": (docs.model_from_doc, docs.model_to_doc),
    "surgery": (docs.surgery_request_from_doc, _request_to_doc),
    "validate-graph": (docs.interaction_graph_from_doc, docs.interaction_graph_to_doc),
    "assemble-holonomy": (docs.interaction_graph_from_doc, docs.interaction_graph_to_doc),
}


def test_codec_documents_are_written_back_byte_for_byte():
    """Reading a written document and writing what was read gives its bytes
    again, on every valid document of the benchmark's seeds 1-3 (270 of
    them): every kind, with the cone surfaces nested in surgery requests and
    graphs and the HS-spheres nested in surgery requests, negative zeros
    among them."""
    seen = set()
    for seed in (1, 2, 3):
        for d in corpus.cli_corpus(seed):
            if d.kind == "valid":
                read, write = DOCUMENTS[d.cmd]
                assert docs.canonical_json(write(read(json.loads(d.text)))) == d.text, (seed, d.cmd, d.name)
                seen.add((seed, d.cmd, d.name))
    assert len(seen) == 270 and {cmd for _, cmd, _ in seen} == set(DOCUMENTS)


@pytest.mark.parametrize("lengths", [[1.0], []])
def test_a_cone_surface_gives_one_length_per_edge(tmp_path, lengths):
    """A cone-surface document with another number of lengths than of edges
    contradicts itself: malformed input (exit 1) naming its lengths, where
    it was the domain rejection "need one length per edge" (exit 2)."""
    torus, _ = torus_with_cone_point(2.0)
    doc = json.loads(docs.canonical_json(docs.model_to_doc(product_spacetime(torus))))
    doc["payload"]["base"]["payload"]["lengths"] = lengths
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    n = len(torus.edges)
    error = f"payload.base.payload.lengths: expected array of length {n}, one per edge, got {lengths}"
    assert run_cli(["classify-model-links", "--input", str(path)]) == (1, "", f"input error: {error}\n")


_finite = st.floats(allow_nan=False, allow_infinity=False)
_singularities = st.builds(
    SingularityType,
    st.sampled_from(SingKind),
    st.none() | _finite,
    st.none() | _finite,
    st.none() | st.integers(),
)
_hs_surfaces = st.builds(
    SingularHSSurface,
    st.lists(
        st.builds(
            HyperbolicRegion,
            st.sampled_from(("future", "past")),
            st.sampled_from(RegionTopology),
            st.lists(_finite, max_size=3).map(tuple),
            st.integers(),
            st.lists(st.integers(), max_size=2).map(tuple),
        ),
        max_size=2,
    ).map(tuple),
    st.lists(
        st.builds(
            DeSitterRegion,
            st.sampled_from(RegionTopology),
            st.lists(_singularities, max_size=3).map(tuple),
            st.lists(st.integers(), max_size=2).map(tuple),
            st.lists(st.text(max_size=6), max_size=2).map(tuple),
        ),
        max_size=2,
    ).map(tuple),
    st.lists(
        st.builds(
            PhotonCircle,
            st.none() | st.integers(),
            st.none() | st.integers(),
            st.lists(_singularities, max_size=2).map(tuple),
        ),
        max_size=3,
    ).map(tuple),
)
def _real_angle(real: float, lightlike: bool) -> FaceAngle:
    """A real angle; one drawn lightlike is refused (a Riemannian face has
    no lightlike sides), and the angle without the flag comes back."""
    if lightlike:
        with pytest.raises(GeometryError, match="^a real angle has no lightlike sides$"):
            FaceAngle(real=real, lightlike=True)
    return FaceAngle(real=real)


_angles = st.lists(
    st.builds(_real_angle, _finite, st.booleans())
    | st.builds(FaceAngle, k=st.integers(), r=_finite, lightlike=st.booleans()),
    max_size=3,
).map(tuple)
_curves = st.lists(
    st.builds(CurveRecord, _finite, st.booleans(), st.booleans(), st.booleans()), max_size=2
).map(tuple)
_marked_metrics = st.builds(
    MarkedHSMetric,
    st.lists(
        st.builds(
            VertexRecord,
            st.sampled_from(VertexPosition),
            _angles,
            st.lists(_angles, max_size=2).map(tuple),
            st.lists(_angles, max_size=2).map(tuple),
        ),
        max_size=3,
    ).map(tuple),
    _curves,
    _curves,
    st.sampled_from(("hyperbolic", "bi-hyperbolic", "compact")),
    st.text(max_size=12),
    st.lists(_finite, max_size=2).map(tuple),
    st.lists(_finite, max_size=2).map(tuple),
    st.booleans(),
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    value=st.tuples(_hs_surfaces, st.just((docs.hs_surface_from_doc, docs.hs_surface_to_doc)))
    | st.tuples(_marked_metrics, st.just((docs.marked_metric_from_doc, docs.marked_metric_to_doc)))
)
def test_codec_reads_back_what_it_writes(value):
    """An HS-surface or a marked HS-metric, written as JSON text and read
    back, is the value that was written."""
    x, (read, write) = value
    assert read(json.loads(docs.canonical_json(write(x)))) == x


def _graph_doc(theta=2.0, face=1, eta=2.5):
    """Document of the elastic collision graph on a torus with a theta cone
    point and a second cone point of angle eta in `face`."""
    surf, _ = torus_with_cone_point(theta)
    surf2, disk2, _ = subdivide_face_with_cone(surf, face, eta)
    g = elastic_collision_graph(surf2, frozenset(disk2.face_ids) | frozenset({7, 8, 9}))
    return json.loads(docs.canonical_json(docs.interaction_graph_to_doc(g)))


def test_interaction_graph_roundtrip():
    back = docs.interaction_graph_from_doc(_graph_doc())
    assert validate_geometric_data(back).passed


def _keys_reversed(node):
    """A JSON value whose objects list their keys in the reverse order."""
    if isinstance(node, dict):
        return {k: _keys_reversed(node[k]) for k in reversed(node)}
    return [_keys_reversed(x) for x in node] if isinstance(node, list) else node


def test_equal_surface_documents_parse_to_one_surface():
    """Equal surface documents parse to one ConeSurface, whatever the order
    in which they list their keys."""
    doc = _graph_doc()
    after = doc["payload"]["vertices"]["after"]
    after["mu_r"] = _keys_reversed(after["mu_r"])
    assert json.dumps(after["mu_r"]) != json.dumps(after["mu_l"])
    g = docs.interaction_graph_from_doc(doc)
    surfaces = {id(s) for v in g.vertices.values() for s in (v.mu_l, v.mu_r)}
    assert len(surfaces) == 1


def test_a_surface_equal_to_another_but_for_a_kind_is_read_on_its_own():
    """A false where the other surface document holds the vertex id 0 is
    equal to it by ==, but is read, and refused, on its own."""
    doc = _graph_doc()
    edges = doc["payload"]["vertices"]["after"]["mu_r"]["payload"]["edges"]
    k = next(i for i, edge in enumerate(edges) if edge[0] == 0)
    edges[k][0] = False
    assert doc["payload"]["vertices"]["after"]["mu_r"] == doc["payload"]["vertices"]["after"]["mu_l"]
    where = f"payload.vertices.after.mu_r.payload.edges[{k}][0]"
    with pytest.raises(docs.DocumentError, match=rf"^{re.escape(where)}: expected integer, got false$"):
        docs.interaction_graph_from_doc(doc)


def test_perturbed_right_metric_is_still_checked():
    doc = _graph_doc()
    before = doc["payload"]["vertices"]["before"]
    surf = docs.cone_surface_from_doc(before["mu_r"])
    # the same cone angles on another metric of the solution family
    rng = np.random.default_rng(0)
    seed = surf.with_lengths(surf.lengths * np.exp(rng.uniform(-0.05, 0.05, surf.lengths.size)))
    targets = {v: surf.cone_angles.get(v, 2 * PI) for v in surf.vertices}
    before["mu_r"] = docs.cone_surface_to_doc(solve_metric(seed, targets))
    g = docs.interaction_graph_from_doc(doc)
    assert g.vertex("before").mu_r is not g.vertex("before").mu_l
    assert g.vertex("after").mu_l is g.vertex("after").mu_r is g.vertex("before").mu_l
    failures = validate_geometric_data(g).failures
    assert any(f.startswith("(2/3) edge before->after: complement holonomies of mu_r") for f in failures)
    assert (
        "edge before->after: before-disk not isometric between the left and right metrics"
        in failures
    )


@pytest.mark.parametrize(
    "theta,face,eta",
    [(1.6, 1, 1.2), (2.1, 3, 2.8), (2.6, 5, 1.6), (3.1, 7, 2.4), (3.6, 8, 1.0), (4.0, 9, 2.0)],
)
def test_assembly_equals_holonomies_of_separate_surfaces(theta, face, eta):
    """With shared surfaces and each loop holonomy computed once, the
    assembled tables and relation residuals are bit-identical to those of
    surfaces parsed one by one."""
    doc = _graph_doc(theta, face, eta)
    g = docs.interaction_graph_from_doc(doc)
    asm = assemble_holonomy(g)
    separate = {}
    for name, v in g.vertices.items():
        vdoc = doc["payload"]["vertices"][name]
        mu = {side: docs.cone_surface_from_doc(vdoc[f"mu_{side}"]) for side in "lr"}
        separate[name] = SliceVertex(name, mu["l"], mu["r"], v.marked, v.generator_loops)
        for side in "lr":
            for k, loop in v.generator_loops.items():
                direct = holonomy_of_loop(mu[side], loop)
                assert np.array_equal(asm.tables[name][side][k].m, direct.m), (name, side, k)
    unshared = InteractionGraph(separate, g.edges, g.initial, g.final)
    residuals = [asm.relation_residual(e) for e in g.edges]
    assert residuals == [assemble_holonomy(unshared).relation_residual(e) for e in g.edges]


def test_assembly_develops_each_loop_once(monkeypatch):
    """Validation and the holonomy tables share one memo: the elastic graph
    has four distinct (surface, loop) pairs, and each is developed once."""
    g = docs.interaction_graph_from_doc(_graph_doc())
    calls = []

    def counted(surf, loop):
        calls.append((id(surf), tuple(map(tuple, loop))))
        return holonomy_of_loop(surf, loop)

    monkeypatch.setattr(interactions, "holonomy_of_loop", counted)
    assemble_holonomy(g)
    assert len(calls) == len(set(calls)) == 4


def sphere_fixture():
    return SingularHSSurface(
        hyperbolic_regions=(
            HyperbolicRegion("future", RegionTopology.DISK, (PI,), 0, (0,)),
            HyperbolicRegion("past", RegionTopology.DISK, (PI / 3, PI / 3), 0, (1,)),
        ),
        de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
        photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
    )


def test_cli_classify_link(tmp_path):
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    path = tmp_path / "link.json"
    path.write_text(docs.canonical_json(docs.link_circle_to_doc(link)))
    code, out, _ = run_cli(["classify-link", "--input", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "MassiveParticle"
    assert abs(report["mass"] - 0.75) < 1e-12


def test_cli_classify_link_rejects_degree4(tmp_path):
    from adscone.isom import Proj2, attracting_line_angle, fixed_point_lift
    from adscone.rp1 import RP1Circle

    g = Proj2.hyperbolic(1.0)
    link = mark_timelike_arcs(
        RP1Circle(fixed_point_lift(g).shifted(4)),
        HSPointClass.DS2,
        {"future_anchor": attracting_line_angle(g)},
    )
    path = tmp_path / "deg4.json"
    path.write_text(docs.canonical_json(docs.link_circle_to_doc(link)))
    code, out, _ = run_cli(["classify-link", "--input", str(path)])
    assert code == 2
    assert json.loads(out)["kind"] == "RejectedDegree"


def _fixed_line_link_doc(m, basepoint_class):
    """A link-circle document whose holonomy is the fixed-point lift of m,
    with no interval and one future arc over a deck translation."""
    from adscone.isom import Proj2, fixed_point_lift

    lift = fixed_point_lift(Proj2(m))
    payload = {
        "holonomy": docs.matrix_to_list(lift.g.m),
        "lift_offset": lift.s,
        "basepoint_class": basepoint_class,
        "arcs": [{"start": 0.0, "end": PI, "tag": "future"}],
    }
    return docs.envelope("link-circle.json", payload)


def _turned(t, m):
    c, s = np.cos(t), np.sin(t)
    r = np.array([[c, -s], [s, c]])
    return r @ np.asarray(m) @ r.T


def _eigenlines(t0, t1, lam):
    """The matrix with eigenvalue lam on the line t0 and 1 / lam on t1."""
    p = np.array([[np.cos(t0), np.cos(t1)], [np.sin(t0), np.sin(t1)]])
    return p @ np.diag([lam, 1 / lam]) @ np.linalg.inv(p)


@pytest.mark.parametrize(
    "m,basepoint_class",
    [
        pytest.param(_turned(0.15, [[1.0, -1.0], [0.0, 1.0]]), "BoundaryPlus", id="parabolic-line-0.15"),
        pytest.param(_turned(0.0, [[1.0, -1.0], [0.0, 1.0]]), "BoundaryPlus", id="parabolic-line-0"),
        pytest.param(_eigenlines(0.1, 0.2, 1.3), "DS2", id="hyperbolic-lines-0.1-0.2"),
    ],
)
def test_cli_classify_link_refuses_a_lift_with_fixed_points(tmp_path, m, basepoint_class):
    """Translation number 0 is no generator, wherever the fixed lines sit:
    a fixed line at 0.15 used to pass as ExtremeBTZPast with exit 0."""
    path = tmp_path / "link.json"
    path.write_text(docs.canonical_json(_fixed_line_link_doc(m, basepoint_class)))
    code, out, err = run_cli(["classify-link", "--input", str(path)])
    assert (code, out, err) == (2, "", "rejected: holonomy is not a positively oriented generator\n")


def test_cli_truncated_input(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "link-circle.json", "payload"')
    code, _, err = run_cli(["classify-link", "--input", str(path)])
    assert code == 1


def test_cli_classify_sphere(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(docs.canonical_json(docs.hs_surface_to_doc(sphere_fixture())))
    code, out, _ = run_cli(["classify-sphere", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["classification"] == "CausallyRegular"


def test_cli_check_polyhedron_condition_B(tmp_path):
    from adscone.hssurface import CurveRecord, MarkedHSMetric

    metric = MarkedHSMetric(sigma_geodesics=(CurveRecord(5.0),))
    path = tmp_path / "metric.json"
    path.write_text(docs.canonical_json(docs.marked_metric_to_doc(metric)))
    code, out, _ = run_cli(["check-polyhedron", "--input", str(path)])
    assert code == 2
    report = json.loads(out)
    assert report["conditions"]["B"] is False
    assert report["conditions"]["A"] is True


def test_cli_speed_check_and_plot(tmp_path):
    ts, zs = saturating_null_curve(0.5, 0.0, 0.15, 0.05)
    payload = {
        "mass": 0.5,
        "samples": [[float(t), float(z.real), float(z.imag)] for t, z in zip(ts, zs)],
    }
    path = tmp_path / "curve.json"
    path.write_text(docs.canonical_json(docs.envelope("causal-curve.json", payload)))
    svg = tmp_path / "curve.svg"
    code, out, _ = run_cli(["speed-check", "--input", str(path), "--plot", str(svg)])
    assert code == 0
    assert json.loads(out)["causal"] is True
    assert svg.read_text().startswith("<svg")


def test_cli_lr_metrics_and_determinism(tmp_path):
    jet = SurfaceJet(
        tuple(JetSample(np.eye(2), k * np.eye(2)) for k in (0.0, 0.3, 0.7))
    )
    path = tmp_path / "jet.json"
    path.write_text(docs.canonical_json(docs.surface_jet_to_doc(jet)))
    svg = tmp_path / "det.svg"
    code1, out1, _ = run_cli(["lr-metrics", "--input", str(path), "--plot", str(svg)])
    code2, out2, _ = run_cli(["lr-metrics", "--input", str(path)])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    assert svg.exists()


@pytest.mark.parametrize(
    "b_last,code", [(0.7 * np.eye(2), 0), (np.diag([1.0, -1.0]), 2)], ids=["transverse", "degenerate"]
)
def test_cli_lr_metrics_checks_transversality_once(tmp_path, monkeypatch, b_last, code):
    """One transverse_check per lr-metrics run, whether the jet passes it or
    not: the metric pass does not check again."""
    jet = SurfaceJet((JetSample(np.eye(2), 0.3 * np.eye(2)), JetSample(np.eye(2), b_last)))
    path = tmp_path / "jet.json"
    path.write_text(docs.canonical_json(docs.surface_jet_to_doc(jet)))
    calls = []
    check = lrmetrics.transverse_check
    monkeypatch.setattr(lrmetrics, "transverse_check", lambda j: calls.append(j) or check(j))
    assert run_cli(["lr-metrics", "--input", str(path)])[0] == code
    assert len(calls) == 1


def test_cli_validate_and_assemble(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(docs.canonical_json(_graph_doc()))
    code, out, _ = run_cli(["validate-graph", "--input", str(path)])
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run_cli(["assemble-holonomy", "--input", str(path)])
    assert code == 0
    report = json.loads(out)
    assert max(report["relation_residuals"]) < 1e-8
    assert "m4" in report["generators"]["after"]["l"]


@pytest.mark.parametrize("face", [-1, 12])
def test_cli_validate_graph_names_a_disk_face_outside_the_surface(tmp_path, face):
    """A disk face id outside 0..F-1 is a bad disk, a domain rejection like
    every other: not face F - 1 read from the end, and not an IndexError."""
    doc = _graph_doc()
    doc["payload"]["edges"][0]["disk_before"] = [face]
    path = tmp_path / "graph.json"
    path.write_text(docs.canonical_json(doc))
    code, out, err = run_cli(["validate-graph", "--input", str(path)])
    assert (code, err) == (2, "")
    assert json.loads(out)["failures"] == [
        f"edge before->after: bad disk: face id {face} is not a face of the surface (0..11)"
    ]


def test_cli_surgery_rejects_impossible(tmp_path):
    surf, _ = torus_with_cone_point(PI)
    payload = {
        "base": docs.cone_surface_to_doc(surf),
        "link": docs.hs_surface_to_doc(
            SingularHSSurface(
                hyperbolic_regions=(
                    HyperbolicRegion("future", RegionTopology.DISK, (PI,), 0, (0,)),
                    HyperbolicRegion(
                        "past", RegionTopology.DISK, (2 * PI / 3, 2 * PI / 3), 0, (1,)
                    ),
                ),
                de_sitter_regions=(DeSitterRegion(RegionTopology.ANNULUS, (), (0, 1)),),
                photon_circles=(PhotonCircle(0, 0), PhotonCircle(1, 0)),
            )
        ),
        "at": 4,
    }
    path = tmp_path / "surgery.json"
    path.write_text(docs.canonical_json(docs.envelope("surgery-request.json", payload)))
    code, out, _ = run_cli(["surgery", "--input", str(path)])
    assert code == 2
    assert "not realizable" in json.loads(out)["error"]


def test_cli_batch(tmp_path):
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    doc = docs.canonical_json(docs.link_circle_to_doc(link))
    for i in range(3):
        (tmp_path / f"l{i}.json").write_text(doc)
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, _, err = run_cli(
        ["classify-link", "--batch", str(tmp_path), "--output", str(outdir)]
    )
    assert code == 0
    assert len(list(outdir.glob("*.report.json"))) == 3
    reports = {p.read_text() for p in outdir.glob("*.report.json")}
    assert len(reports) == 1  # identical inputs give identical bytes


def test_cli_model_doc(tmp_path):
    m = cone_spacetime(PI / 2)
    path = tmp_path / "model.json"
    path.write_text(docs.canonical_json(docs.model_to_doc(m)))
    code, out, _ = run_cli(["classify-model-links", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["lines"]["c"]["kind"] == "MassiveParticle"


def _models_with_documents():
    """A model of each kind that has a document form, with the singularity
    kinds of its lines."""
    from adscone.isom import Proj2
    from adscone.spacetimes import black_hole_spacetime, btz_static, extreme_spacetime
    from adscone.spacetimes import graviton_spacetime, product_spacetime, tachyon_spacetime

    g = Proj2.hyperbolic(1.3)
    two_cones, _, _ = subdivide_face_with_cone(torus_with_cone_point(2.0)[0], 1, 2.5)
    return {
        "graviton +1": (graviton_spacetime(+1), ["GravitonPositive"]),
        "graviton -1": (graviton_spacetime(-1), ["GravitonNegative"]),
        "extreme": (extreme_spacetime(), ["ExtremeBTZFuture", "ExtremeBTZPast"]),
        "static BTZ": (
            btz_static(g, g.conjugate(Proj2(np.array([[1.4, 0.3], [0.2, 1.0]])))),
            ["BTZFuture", "BTZPast"],
        ),
        "cone": (cone_spacetime(2.0), ["MassiveParticle"]),
        "tachyon": (tachyon_spacetime(-0.7), ["Tachyon", "Tachyon"]),
        "black hole": (black_hole_spacetime(1.5), ["BTZFuture", "BTZPast"]),
        "product": (product_spacetime(two_cones), ["MassiveParticle", "MassiveParticle"]),
    }


@pytest.mark.parametrize("name", list(_models_with_documents()))
def test_every_model_kind_round_trips_through_its_document(tmp_path, name):
    """model_to_doc -> canonical_json -> model_from_doc gives the same lines,
    each classified as before, and classify-model-links reads them from
    the document."""
    from adscone.links import classify_singularity
    from adscone.spacetimes import link_of_line, model_lines

    model, kinds = _models_with_documents()[name]
    text = docs.canonical_json(docs.model_to_doc(model))
    back = docs.model_from_doc(json.loads(text))
    assert back.kind is model.kind
    assert model_lines(back) == model_lines(model)
    for line in model_lines(model):
        assert classify_singularity(link_of_line(back, line)) == classify_singularity(
            link_of_line(model, line)
        )
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out, err = run_cli(["classify-model-links", "--input", str(path)])
    assert (code, err) == (0, "")
    lines = json.loads(out)["lines"]
    assert list(lines) == sorted(model_lines(model))
    assert [lines[line]["kind"] for line in model_lines(model)] == kinds


@pytest.mark.parametrize(
    "command,path,value,error",
    [
        pytest.param(
            "classify-link",
            ("holonomy",),
            [1, 0, 0, -1],
            "payload.holonomy: matrix must have positive determinant",
            id="link-holonomy-det-negative",
        ),
        pytest.param(
            "classify-link",
            ("lift_offset",),
            PI / 2 + 0.25,
            "payload.lift_offset: lift offset s is not congruent to the image of 0",
            id="link-lift-offset-not-given",
        ),
        pytest.param(
            "classify-model-links",
            ("holonomies", 1),
            [1, 2, 2, 1],
            "payload.holonomies[1]: matrix must have positive determinant",
            id="btz-holonomy-det-negative",
        ),
        *(
            pytest.param(
                command,
                ("vertices", "before", "generator_loops", "g0", 0, i),
                value,
                f"payload.vertices.before.generator_loops.g0[0][{i}]: expected {what}, got {value}",
                id=f"graph-loop-{('face', 'side')[i]}-{value}",
            )
            for command, i, value, what in [
                ("validate-graph", 0, 12, "a face of mu_l and mu_r (0..11)"),
                ("assemble-holonomy", 1, 3, "a side of a face (0..2)"),
                ("validate-graph", 0, 10**20, "a face of mu_l and mu_r (0..11)"),
                ("assemble-holonomy", 0, -1, "a face of mu_l and mu_r (0..11)"),
                ("validate-graph", 1, -1, "a side of a face (0..2)"),
            ]
        ),
    ],
)
def test_a_value_the_library_refuses_is_an_input_error_by_its_path(tmp_path, command, path, value, error):
    """Numbers of the right kind that the library cannot hold (a matrix of
    determinant <= 0, a lift offset its holonomy does not give, a loop step
    naming a face or a side its surfaces lack) are malformed input named by
    their path, where they were a bare ValueError or IndexError (or, for
    face -1, read as the last face)."""
    if command == "classify-link":
        doc = _non_finite_doc(command)
    elif command == "classify-model-links":
        doc = docs.model_to_doc(_models_with_documents()["static BTZ"][0])
    else:
        doc = _graph_doc()
    doc = json.loads(docs.canonical_json(doc))
    node = doc["payload"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    assert run_cli([command, "--input", str(doc_path)]) == (1, "", f"input error: {error}\n")


@pytest.mark.parametrize("theta, code", [(1e8, 0), (1e10, 2), (1e16, 2), (3141592653.589793, 2)])
def test_cli_huge_cone_angles_are_rejected_by_angle(tmp_path, theta, code):
    """A cone angle whose link's lift offset cannot be held (from 2^28 on) is
    a domain rejection naming the angle, not an input error."""
    path = tmp_path / "model.json"
    path.write_text(docs.canonical_json(docs.model_to_doc(cone_spacetime(theta))))
    got, out, err = run_cli(["classify-model-links", "--input", str(path)])
    assert got == code
    if code:
        assert out == ""
        assert err == (
            f"rejected: cone angle {theta!r}: its lift offset cannot be held to "
            "LIFT_CONGRUENCE = 1e-07 at that size\n"
        )
    else:
        assert json.loads(out)["lines"]["c"]["angle"] == theta


def test_console_entry_point(child_env):
    code = subprocess.run(
        [sys.executable, "-m", "adscone.cli", "--help"], capture_output=True, env=child_env
    )
    assert code.returncode == 0


def test_reused_parser_matches_fresh_interpreters(tmp_path, child_env):
    """main() called again and again in one process, with flags switched on
    and off between calls, answers each call as a fresh interpreter does."""
    # a massive particle of angle > 2 pi: accepted, but not positive
    link = mark_timelike_arcs(elliptic_link_circle(7.0), HSPointClass.H2_PLUS)
    link_path = tmp_path / "link.json"
    link_path.write_text(docs.canonical_json(docs.link_circle_to_doc(link)))
    # a curve 1e-4 faster than the causal bound allows: fails at the default
    # slack of 1e-6, passes at 100 times it
    payload = _curve_payload()
    payload["samples"] = [[t * (1 - 1e-4), x, y] for t, x, y in payload["samples"]]
    curve_path = tmp_path / "curve.json"
    curve_path.write_text(docs.canonical_json(docs.envelope("causal-curve.json", payload)))
    sphere_path = tmp_path / "sphere.json"
    sphere_path.write_text(docs.canonical_json(docs.hs_surface_to_doc(sphere_fixture())))
    link_arg, curve_arg = ["--input", str(link_path)], ["--input", str(curve_path)]
    calls = [
        ["classify-link", *link_arg, "--positive"],
        ["classify-link", *link_arg],
        ["speed-check", *curve_arg, "--tolerance-scale", "100"],
        ["speed-check", *curve_arg],
        ["classify-link", *link_arg, "--output", str(tmp_path / "report.json")],
        ["classify-link", *link_arg],
        ["classify-sphere", "--input", str(sphere_path), "--positive"],
        ["nonexistent-command"],
        ["speed-check", *curve_arg],
        ["speed-check", *curve_arg, "--tolerance-scale", "inf"],
        ["speed-check", *curve_arg],
    ]
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "adscone.cli", *call],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=child_env,
        )
        for call in calls
    ]
    expected = [(p.communicate(timeout=60)[0], p.returncode) for p in fresh]
    # the flags decide these calls, so a flag left over from a previous call
    # would show
    assert [code for _, code in expected[:4]] == [2, 0, 0, 2]
    # usage errors are input errors, and leave nothing behind either
    assert [code for _, code in expected[7:]] == [1, 2, 1, 2]
    for call, (out, code) in zip(calls, expected):
        try:
            got = run_cli(call)
        except SystemExit as err:
            got = (err.code, "", "")
        assert got[:2] == (code, out), call


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "abc"])
def test_a_tolerance_scale_not_finite_and_positive_is_an_input_error(tmp_path, scale):
    """0 used to mean 1, -1 and nan rejected every curve as a domain
    rejection, inf passed every curve, and abc was an argparse exit 2."""
    path = tmp_path / "curve.json"
    path.write_text(docs.canonical_json(docs.envelope("causal-curve.json", _curve_payload())))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["speed-check", "--input", str(path), "--tolerance-scale", scale])
    assert exc.value.code == 1
    assert out.getvalue() == ""
    assert f"input error: argument --tolerance-scale: must be a finite number > 0, got {scale!r}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


# the options each subcommand reads besides --input, --output and --batch
READS = {
    "--plot": {"speed-check", "lr-metrics"},
    "--positive": {"classify-link", "classify-sphere", "trace-causal"},
    "--tolerance-scale": {"speed-check", "validate-graph", "assemble-holonomy"},
}


def _usage_exit(call):
    """(exit code, stderr) of a call that exits through SystemExit, as a
    usage error or a help text does; None for a call that returns."""
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            call()
        except SystemExit as stop:
            return stop.code, err.getvalue()
    return None


def test_each_subcommand_takes_only_the_options_it_reads(tmp_path, monkeypatch):
    """Of the 60 (subcommand, option) pairs, the 38 that a subcommand reads
    parse; any other option is a usage error naming it (exit 1), where it
    was accepted and ignored.  main, which parses a call by the
    subcommand's own parser, exits on the same 22 with the full parser's
    usage and error line."""
    monkeypatch.chdir(tmp_path)  # --input a.json and --batch d name nothing here
    values = {"--input": ["a.json"], "--output": ["r.json"], "--batch": ["d"], "--plot": ["p.svg"]}
    values.update({"--tolerance-scale": ["2"], "--positive": []})
    taken = set()
    for command in COMMANDS:
        for option, value in values.items():
            argv = [command, option, *value]
            parsed = _usage_exit(lambda: build_parser().parse_args(argv))
            assert _usage_exit(lambda: main(argv)) == parsed, argv
            if parsed is None:
                taken.add((command, option))
            else:
                unrecognized = " ".join(argv[1:])
                assert parsed[0] == 1
                assert parsed[1].startswith("usage: adscone [-h]")
                assert parsed[1].endswith(f"input error: unrecognized arguments: {unrecognized}\n")
    reads = {(c, o) for o, cs in READS.items() for c in cs}
    assert taken == {(c, o) for c in COMMANDS for o in ("--input", "--output", "--batch")} | reads
    assert len(taken) == 38


def _link_path(tmp_path) -> str:
    """The path of a massive particle's link document."""
    link = mark_timelike_arcs(elliptic_link_circle(2.0), HSPointClass.H2_PLUS)
    path = tmp_path / "link.json"
    path.write_text(docs.canonical_json(docs.link_circle_to_doc(link)))
    return str(path)


def _full_parse(argv):
    args = build_parser().parse_args(argv)
    return args.command, args


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = ("exit", stop.code)
    return code, out.getvalue(), err.getvalue()


def test_a_call_parses_as_the_full_parser_parses_it(tmp_path, monkeypatch):
    """main parses a call that names a subcommand first by that
    subcommand's parser alone; every call, that one or not, gives the exit
    code, stdout and stderr of main parsing with the full parser, help
    texts and usage errors included."""
    doc = _link_path(tmp_path)
    cases = [
        [],
        ["-h"],
        ["--help"],
        ["classify-link", "-h"],
        ["speed-check", "--help"],
        ["nonexistent-command"],
        ["--input", "x", "classify-link"],
        ["--input", "classify-link"],
        ["--inp", doc],
        ["classify-link", "--inp", doc],
        ["classify-link", f"--input={doc}", "--pos"],
        ["--"],
        ["--", "classify-link", "--input", doc],
        ["classify-link", "--", doc],
        ["classify-link", "--input"],
        ["speed-check", "--tolerance-scale"],
        ["speed-check", "--tolerance-scale", "0", "--input", doc],
        ["classify-link", "--input", doc, "extra"],
        ["classify-link", "extra", "--input", doc, "-x"],
        ["classify-link", "--input", doc, "--plot", "p.svg"],
        ["classify-link", "--input", doc],
    ]
    once = [_main_outcome(argv) for argv in cases]
    monkeypatch.setattr(cli, "_parse", _full_parse)
    full = [_main_outcome(argv) for argv in cases]
    for argv, got, want in zip(cases, once, full):
        assert got == want, argv
    codes = [code for code, _, _ in full]
    assert ("exit", 0) in codes and ("exit", 1) in codes and 0 in codes


def test_one_call_builds_only_its_subcommand_parser(tmp_path, child_env):
    """A fresh interpreter that runs one subcommand builds that
    subcommand's parser and not the full one."""
    path = _link_path(tmp_path)
    script = (
        "import sys; from adscone import cli; "
        "code = cli.main(['classify-link', '--input', sys.argv[1]]); "
        "print(code, cli.build_parser.cache_info().currsize, cli._command_parser.cache_info().currsize)"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, path], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.splitlines()[-1] == "0 0 1"


def _curve_payload():
    ts, zs = saturating_null_curve(0.5, 0.0, 0.15, 0.05)
    return {
        "mass": 0.5,
        "samples": [[float(t), float(z.real), float(z.imag)] for t, z in zip(ts, zs)],
    }


@pytest.mark.parametrize("mass", [1.0, 1.5, -0.5, -1e300])
def test_cli_speed_check_refuses_a_mass_outside_the_unit_interval(tmp_path, mass):
    """The speed bound |z|^m / (1 - m) holds for 0 <= m < 1 only; a mass of
    1 used to pass as causal, with numpy's divide-by-zero warning on the
    first call in a process only.  The refusal names the mass by its path,
    as every value the library cannot hold is named."""
    path = tmp_path / "curve.json"
    payload = dict(_curve_payload(), mass=mass)
    path.write_text(docs.canonical_json(docs.envelope("causal-curve.json", payload)))
    code, out, err = run_cli(["speed-check", "--input", str(path)])
    refusal = f"payload.mass: causal-curve mass must lie in [0, 1), got {mass}"
    assert (code, out, err) == (1, "", f"input error: {refusal}\n")


def _malformed_curves(tmp_path):
    """A valid causal-curve document and two malformed ones: a missing key
    and a string where a number belongs."""
    valid = _curve_payload()
    missing = {k: v for k, v in valid.items() if k != "mass"}
    bad = {**valid, "mass": "1.5e"}
    paths = {}
    for name, payload in (("a_valid", valid), ("b_missing", missing), ("c_bad", bad)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(docs.canonical_json(docs.envelope("causal-curve.json", payload)))
    return paths


def test_cli_malformed_payload_exits_1(tmp_path):
    paths = _malformed_curves(tmp_path)
    errors = {"b_missing": "payload.mass: missing", "c_bad": 'payload.mass: expected number, got "1.5e"'}
    for name, error in errors.items():
        assert run_cli(["speed-check", "--input", str(paths[name])]) == (1, "", f"input error: {error}\n")
    # a missing entry of a nested document is an input error as well
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    doc = docs.link_circle_to_doc(link)
    del doc["payload"]["holonomy"]
    path = tmp_path / "link.json"
    path.write_text(docs.canonical_json(doc))
    assert run_cli(["classify-link", "--input", str(path)]) == (1, "", "input error: payload.holonomy: missing\n")


def test_cli_batch_survives_malformed_files(tmp_path):
    paths = _malformed_curves(tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, _, err = run_cli(["speed-check", "--batch", str(tmp_path), "--output", str(outdir)])
    assert code == 1
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary == {"batch": {"a_valid.json": 0, "b_missing.json": 1, "c_bad.json": 1}}
    assert sorted(p.name for p in outdir.iterdir()) == ["a_valid.report.json"]
    single = tmp_path / "single.report.json"
    run_cli(["speed-check", "--input", str(paths["a_valid"]), "--output", str(single)])
    assert (outdir / "a_valid.report.json").read_text() == single.read_text()


def test_cli_batch_stdout_follows_file_order(tmp_path):
    names = []
    for i, angle in enumerate((0.4, 0.9, 1.3, 1.7, 2.2, 2.6)):
        link = mark_timelike_arcs(elliptic_link_circle(angle), HSPointClass.H2_PLUS)
        names.append(f"l{5 - i}.json")  # file order is the reverse of creation order
        (tmp_path / names[-1]).write_text(docs.canonical_json(docs.link_circle_to_doc(link)))
    runs = [run_cli(["classify-link", "--batch", str(tmp_path)]) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    singles = "".join(
        run_cli(["classify-link", "--input", str(tmp_path / name)])[1] for name in sorted(names)
    )
    assert out == singles


def test_unwritable_output_exits_1(tmp_path):
    paths = _malformed_curves(tmp_path)
    missing = tmp_path / "no-such-dir"
    for flag, target in (("--output", missing / "r.json"), ("--plot", missing / "c.svg")):
        code, _, err = run_cli(["speed-check", "--input", str(paths["a_valid"]), flag, str(target)])
        assert code == 1
        assert err.startswith(f"output error: cannot write {target}")
        assert "Traceback" not in err
    assert not missing.exists()


def test_batch_survives_unwritable_output(tmp_path):
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    for name in ("l0", "l1"):
        (tmp_path / f"{name}.json").write_text(docs.canonical_json(docs.link_circle_to_doc(link)))
    (tmp_path / "l2.json").write_text('{"schema": "link-circle.json", "payload"')
    code, _, err = run_cli(
        ["classify-link", "--batch", str(tmp_path), "--output", str(tmp_path / "no-such-dir")]
    )
    assert code == 1
    lines = err.strip().splitlines()
    # each file gets its own error line and code, and the batch goes on to the end
    assert [line.split(":")[0] for line in lines[:-1]] == ["output error"] * 2 + ["input error"]
    assert json.loads(lines[-1]) == {"batch": {"l0.json": 1, "l1.json": 1, "l2.json": 1}}
    assert "Traceback" not in err


# -- structure and loop errors through the CLI -------------------------------


def _broken_before(doc, change):
    """Apply change to both metrics of the before slice (equal documents
    stay equal, so they still parse to one surface)."""
    before = doc["payload"]["vertices"]["before"]
    for side in ("mu_l", "mu_r"):
        change(before[side]["payload"])
    return before


def _third_use(p):
    p["faces"][1][0] = list(p["faces"][0][0])


def _same_way(p):
    p["faces"][2][1][1] = not p["faces"][2][1][1]


def _open_chain(p):
    f = p["faces"][7]
    f[1], f[2] = f[2], f[1]


@pytest.mark.parametrize(
    "change,message",
    [
        (_third_use, "edge {e0} used by more than two face sides"),
        (_same_way, "edge {e2} traversed twice in the same direction"),
        (_open_chain, "face 7 side chain does not close"),
    ],
)
@pytest.mark.parametrize("command", ["validate-graph", "assemble-holonomy"])
def test_broken_surface_is_rejected_naming_its_edge_or_face(tmp_path, command, change, message):
    doc = _graph_doc()
    faces = doc["payload"]["vertices"]["before"]["mu_l"]["payload"]["faces"]
    expected = message.format(e0=faces[0][0][0], e2=faces[2][1][0])
    _broken_before(doc, change)
    path = tmp_path / "graph.json"
    path.write_text(docs.canonical_json(doc))
    code, out, err = run_cli([command, "--input", str(path)])
    assert (code, out, err) == (2, "", f"rejected: {expected}\n")


def _slit(p):
    """Cut the surface open along the edge of side 2 of face 0: the other
    side of that edge gets an edge of its own."""
    e = p["faces"][0][2][0]
    for f in p["faces"][1:]:
        for side in f:
            if side[0] == e:
                side[0] = len(p["edges"])
    p["edges"].append(list(p["edges"][e]))
    p["lengths"].append(p["lengths"][e])


@pytest.mark.parametrize(
    "loops,message",
    [
        ({"g0": [[0, 2], [5, 2], [4, 0]]}, "loop steps do not chain"),
        ({"g0": [[0, 2], [6, 2], [5, 2]]}, "loop does not return to its base face"),
        ({}, "edge {e} is a boundary edge"),
    ],
)
def test_broken_loop_is_reported_naming_its_edge(tmp_path, loops, message):
    doc = _graph_doc()
    before = doc["payload"]["vertices"]["before"]
    assert before["generator_loops"]["g0"] == [[0, 2], [6, 2], [5, 2], [4, 0]]
    expected = message.format(e=before["mu_l"]["payload"]["faces"][0][2][0])
    if loops:
        before["generator_loops"].update(loops)
    else:
        _broken_before(doc, _slit)
    path = tmp_path / "graph.json"
    path.write_text(docs.canonical_json(doc))
    code, out, err = run_cli(["validate-graph", "--input", str(path)])
    failures = json.loads(out)["failures"]
    assert code == 2 and err == ""
    assert f"(2/3) edge before->after, mu_l: {expected}" in failures
    code, out, err = run_cli(["assemble-holonomy", "--input", str(path)])
    assert code == 2 and err == ""
    assert expected in json.loads(out)["error"]
