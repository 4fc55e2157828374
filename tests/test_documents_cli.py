import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adscone
from adscone import documents as docs
from adscone import interactions
from adscone.catalog import solve_metric, subdivide_face_with_cone, torus_with_cone_point
from adscone.cli import main
from adscone.conesurf import holonomy_of_loop
from adscone.hssurface import (
    DeSitterRegion,
    HyperbolicRegion,
    PhotonCircle,
    RegionTopology,
    SingularHSSurface,
)
from adscone.interactions import (
    InteractionGraph,
    SliceVertex,
    assemble_holonomy,
    elastic_collision_graph,
    validate_geometric_data,
)
from adscone.linalg import HSPointClass
from adscone.lrmetrics import JetSample, SurfaceJet
from adscone.rp1 import elliptic_link_circle, mark_timelike_arcs
from adscone.spacetimes import cone_spacetime, saturating_null_curve

PI = np.pi


def run_cli(args):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_canonical_json_deterministic():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5], "c": {"y": True, "x": None}}
    s1 = docs.canonical_json(obj)
    s2 = docs.canonical_json(json.loads(s1))
    assert s1 == s2
    assert format(1.0 / 3.0, ".17g") in s1


def test_link_circle_roundtrip():
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    doc = docs.link_circle_to_doc(link)
    back = docs.link_circle_from_doc(json.loads(docs.canonical_json(doc)))
    assert back.basepoint_class is link.basepoint_class
    assert abs(back.kind.angle - PI / 2) < 1e-12


def test_cone_surface_roundtrip():
    surf, _ = torus_with_cone_point(2.0)
    doc = docs.cone_surface_to_doc(surf)
    back = docs.cone_surface_from_doc(json.loads(docs.canonical_json(doc)))
    assert np.abs(back.lengths - surf.lengths).max() < 1e-15
    assert back.cone_angles == surf.cone_angles
    assert back.faces == surf.faces


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


def test_equal_surface_documents_parse_to_one_surface():
    g = docs.interaction_graph_from_doc(_graph_doc())
    surfaces = {id(s) for v in g.vertices.values() for s in (v.mu_l, v.mu_r)}
    assert len(surfaces) == 1


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


def _child_env():
    # the child imports the same adscone as this process, also when pytest
    # put src/ on sys.path itself (pythonpath in pyproject.toml)
    src = str(Path(adscone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point():
    code = subprocess.run(
        [sys.executable, "-m", "adscone.cli", "--help"], capture_output=True, env=_child_env()
    )
    assert code.returncode == 0


def test_reused_parser_matches_fresh_interpreters(tmp_path):
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
    ]
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "adscone.cli", *call],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_child_env(),
        )
        for call in calls
    ]
    expected = [(p.communicate(timeout=60)[0], p.returncode) for p in fresh]
    # the flags decide these calls, so a flag left over from a previous call
    # would show
    assert [code for _, code in expected[:4]] == [2, 0, 0, 2]
    for call, (out, code) in zip(calls, expected):
        try:
            got = run_cli(call)
        except SystemExit as err:
            got = (err.code, "", "")
        assert got[:2] == (code, out), call


def _curve_payload():
    ts, zs = saturating_null_curve(0.5, 0.0, 0.15, 0.05)
    return {
        "mass": 0.5,
        "samples": [[float(t), float(z.real), float(z.imag)] for t, z in zip(ts, zs)],
    }


def _malformed_curves(tmp_path):
    """A valid causal-curve document and two malformed ones: a missing key
    (KeyError) and a bad number (ValueError)."""
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
    for name, kind in (("b_missing", "KeyError"), ("c_bad", "ValueError")):
        code, out, err = run_cli(["speed-check", "--input", str(paths[name])])
        assert code == 1
        assert out == ""
        assert err.startswith(f"input error: {kind}")
        assert "Traceback" not in err
    # a missing entry of a nested document is an input error as well
    link = mark_timelike_arcs(elliptic_link_circle(PI / 2), HSPointClass.H2_PLUS)
    doc = docs.link_circle_to_doc(link)
    del doc["payload"]["holonomy"]
    path = tmp_path / "link.json"
    path.write_text(docs.canonical_json(doc))
    code, _, err = run_cli(["classify-link", "--input", str(path)])
    assert code == 1 and err.startswith("input error: KeyError")


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
