import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import adscone
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


def test_interaction_graph_roundtrip():
    surf, _ = torus_with_cone_point(2.0)
    surf2, disk2, v2 = subdivide_face_with_cone(surf, 1, 2.5)
    both = frozenset(disk2.face_ids) | frozenset({7, 8, 9})
    g = elastic_collision_graph(surf2, both)
    doc = docs.interaction_graph_to_doc(g)
    back = docs.interaction_graph_from_doc(json.loads(docs.canonical_json(doc)))
    from adscone.interactions import validate_geometric_data

    assert validate_geometric_data(back).passed


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
    surf, _ = torus_with_cone_point(2.0)
    surf2, disk2, v2 = subdivide_face_with_cone(surf, 1, 2.5)
    both = frozenset(disk2.face_ids) | frozenset({7, 8, 9})
    g = elastic_collision_graph(surf2, both)
    path = tmp_path / "graph.json"
    path.write_text(docs.canonical_json(docs.interaction_graph_to_doc(g)))
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


def test_console_entry_point():
    # the child imports the same adscone as this process, also when pytest
    # put src/ on sys.path itself (pythonpath in pyproject.toml)
    src = str(Path(adscone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = subprocess.run(
        [sys.executable, "-m", "adscone.cli", "--help"], capture_output=True, env=env
    )
    assert code.returncode == 0


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
