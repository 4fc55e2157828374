"""Tests of the benchmark itself: seeded inputs, the output checker and the
span tree.  Run with `python -m pytest perfbench/tests`."""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import corpus  # noqa: E402
import spans  # noqa: E402
from check import Invocation, RepeatLog, check_invocation, invoke, mismatches  # noqa: E402


@pytest.fixture(scope="module")
def docs_seed7():
    return corpus.cli_corpus(7)


def _shape(docs):
    return sorted((d.cmd, d.kind, d.exit) for d in docs)


def test_same_seed_same_inputs(docs_seed7):
    again = corpus.cli_corpus(7)
    assert [(d.cmd, d.name, d.text) for d in again] == [(d.cmd, d.name, d.text) for d in docs_seed7]
    assert _shape(again) == _shape(docs_seed7)
    assert len(docs_seed7) == len(corpus.SUBCOMMANDS) * (corpus.VALID_PER_SUBCOMMAND + 3)
    assert corpus.meridian_inputs(7) == corpus.meridian_inputs(7)
    assert corpus.cone_inputs(7) == corpus.cone_inputs(7)
    hosts = corpus.surgery_hosts(7)
    assert corpus.surgery_inputs(7, hosts) == corpus.surgery_inputs(7, corpus.surgery_hosts(7))
    # another seed moves the inputs but keeps the op counts per class
    other = corpus.cli_corpus(8)
    assert _shape(other) == _shape(docs_seed7)
    assert [d.text for d in other] != [d.text for d in docs_seed7]
    assert len(corpus.cone_inputs(8)) == len(corpus.cone_inputs(7))


def test_surgery_mix_follows_the_trace_window():
    import numpy as np

    # collision_distance(pi; pi/3, pi/3) = arccosh 3
    assert abs(corpus.collision_cosh(np.pi, np.pi / 3, np.pi / 3) - 3.0) < 1e-12
    thetas = corpus.surgery_hosts(3)
    ops = corpus.surgery_inputs(3, thetas)
    for op in ops:
        theta, total = thetas[op.host], op.eta1 + op.eta2
        assert (total < theta) == op.admissible
        assert op.wrapped == (total > 2 * corpus.TWO_PI - theta)
        assert (corpus.collision_cosh(theta, op.eta1, op.eta2) > 1) == (op.admissible or op.wrapped)
    assert sum(op.admissible for op in ops) * 4 == 3 * len(ops)
    assert sum(op.wrapped for op in ops) == 2
    # every run of four requests keeps the 3/4 share
    assert all(sum(op.admissible for op in ops[k:k + 4]) == 3 for k in range(0, len(ops), 4))


def test_checker_passes_reference_and_flags_corruption(tmp_path, docs_seed7):
    from adscone.cli import main

    doc = next(d for d in docs_seed7 if d.cmd == "classify-link" and d.kind == "valid")
    path = tmp_path / "link.json"
    path.write_text(doc.text)
    inv = invoke(main, ["classify-link", "--input", str(path)])
    assert check_invocation(inv, doc.exit, doc.checks).ok

    report = json.loads(inv.out)
    report["mass"] += 1e-6
    bad = Invocation(inv.code, json.dumps(report), inv.err, None)
    got = check_invocation(bad, doc.exit, doc.checks)
    assert not got.ok and got.unexpected and "mass" in got.detail
    assert mismatches(report, doc.checks)

    wrong_exit = check_invocation(Invocation(1, inv.out, "", None), doc.exit, doc.checks)
    assert not wrong_exit.ok and "exit 1" in wrong_exit.detail


def test_checker_flags_traceback():
    def raising_main(argv):
        raise KeyError("holonomy")

    inv = invoke(raising_main, ["classify-link"])
    assert inv.code is None and "KeyError" in inv.tb
    plain = check_invocation(inv, 1, ())
    assert not plain.ok and plain.unexpected
    known = check_invocation(inv, 1, (), traceback_defect="cli-traceback-on-malformed")
    assert not known.ok and not known.unexpected and known.defect == "cli-traceback-on-malformed"


def test_repeat_log_flags_changed_output():
    log = RepeatLog()
    assert log.check("a", "0\n{}").ok
    assert log.check("a", "0\n{}").ok
    assert not log.check("a", "0\n{ }").ok


def test_span_tree_nests_and_self_times_sum_to_wall():
    rec = spans.Recorder()
    with rec.op_span(0):
        with rec.span("catalog.torus"):
            time.sleep(0.002)
            with rec.span("catalog.solve_metric"):
                time.sleep(0.002)
                with rec.span("catalog.solve_metric"):
                    time.sleep(0.001)
        with rec.span("conesurf.area"):
            time.sleep(0.001)
    by_name = {}
    for sp in rec.spans:
        by_name.setdefault(sp.name, []).append(sp)
    (root,) = by_name["op"]
    (torus,) = by_name["catalog.torus"]
    outer, inner = sorted(by_name["catalog.solve_metric"], key=lambda s: s.start)
    assert root.parent is None and torus.parent == root.id and outer.parent == torus.id
    assert inner.parent == outer.id and by_name["conesurf.area"][0].parent == root.id
    assert all(sp.op == 0 for sp in rec.spans)
    assert all(p.start <= c.start and c.end <= p.end for p, c in ((root, torus), (torus, outer), (outer, inner)))

    own = spans.self_times(rec.spans)
    assert sum(own.values()) == root.end - root.start
    assert all(v >= 0 for v in own.values())
    # a span nested in one of its own name is counted once
    assert spans.busy_ns(rec.spans)["catalog.solve_metric"] == outer.end - outer.start
    layers = spans.layer_self_ns(rec.spans)
    assert sum(layers.values()) == root.end - root.start


def test_installed_wraps_callers_and_restores():
    import adscone.conesurf as conesurf
    import adscone.isom as isom
    from adscone.isom import Proj2

    original, original_hol = isom.classify, conesurf.holonomy_of_loop
    rec = spans.Recorder()
    with spans.installed(rec):
        assert isom.classify is not original
        with rec.op_span(3):
            isom.classify(Proj2.elliptic(1.0))
    assert isom.classify is original and conesurf.holonomy_of_loop is original_hol
    (sp,) = [s for s in rec.spans if s.name == "isom.classify"]
    assert sp.op == 3 and sp.parent == rec.spans[-1].id


def test_speed_ticks_are_taken_out_of_the_op():
    import speed

    log = speed.SpeedLog()
    with log.ticking():
        t0, spent = time.perf_counter(), log.spent
        end = t0 + 0.3
        while time.perf_counter() < end:
            pass
        latency = time.perf_counter() - t0 - (log.spent - spent)
    assert len(log.kernel_s) >= 3 and log.spent > 0
    assert 0.25 < latency < 0.3
    # the factor uses the kernel samples in the window around the op only
    log.at, log.kernel_s = [1.0, 2.0, 2.1, 2.2, 5.0], [9.0, 1.0, 2.0, 3.0, 9.0]
    assert log.factor(2.05, 2.15) == speed.REF_S / 2.0
    assert log.factor(3.5, 3.6) == speed.REF_S / 3.0  # no sample near: all of them


def test_ops_count_inputs_not_runs():
    import run
    from check import OK, Outcome

    class Stub:
        cycle = ["a", "b", "c"]

        def details(self, records):
            return {}

    def rec(i, outcome):
        return run.Record(i, "op", None, 0.0, 0.001, outcome, False)

    stall = Outcome(False, "metric-solve-stall", "stalled")
    # input 1 fails on its second run only; input 2 on both
    records = [rec(0, OK), rec(1, OK), rec(2, stall), rec(3, OK), rec(4, stall), rec(5, stall)]
    result, details = run.summary(Stub(), records)
    assert result == {"correct": True, "attempted": 3, "failed": 2}
    assert details["failures_by_defect"] == {"metric-solve-stall": 2} and details["op_runs"] == 6
    # an op the time limit cut off leaves the run incorrect
    assert run.summary(Stub(), records[:2])[0]["correct"] is False


def test_importtime_parser():
    from probe import parse_importtime

    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1909 |     138812 |       numpy\n"
        "import time:       647 |     177660 |   adscone\n"
        "import time:      3983 |     259681 | adscone.cli\n"
    )
    got = parse_importtime(text)
    assert got["numpy"] == 138.812 and got["adscone.cli"] == 259.681


def test_manifest_matches_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((BENCH / "manifest.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(manifest["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in manifest["end_to_end"].items()
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in manifest["per_layer"].items()
    }
    named = {m for row in manifest["layer_map"] for m in row["metrics"]}
    assert named <= set(manifest["per_layer"])
