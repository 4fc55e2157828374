"""The four workloads.

Each runs closed-loop from one process and one client thread: the next op
starts when the previous one has returned.  A workload prepares a list of
ops from the seed, then the runner cycles through it until the time is up.
`call` is the timed part of an op; `check` compares its result with the
reference built with the input (untimed).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import adscone.catalog as catalog
import adscone.cli as cli
import adscone.conesurf as conesurf
import adscone.documents as docs
import adscone.interactions as interactions
import adscone.isom as isom
import adscone.lrmetrics as lrmetrics
import adscone.spacetimes as spacetimes
from adscone.errors import LinkRealizationError

import corpus
from check import OK, Outcome, RepeatLog, check_invocation, invoke

TWO_PI = 2.0 * np.pi
# Meridian transport: the documented contract for the flat connections at
# the documented sampling.
MERIDIAN_TOL = 1e-6
# Cone surfaces: vertex angle sums, loop holonomy angles and Gauss-Bonnet.
CONE_TOL = 1e-8

# Known defects a failure may match (manifest.json describes each).
MALFORMED_TRACEBACK = "cli-traceback-on-malformed"
SOLVE_STALL = "metric-solve-stall"
FIT_NONCONVERGENCE = "surgery-fit-nonconvergence"
ADMISSIBLE_REFUSED = "surgery-refuses-admissible"
WINDOW_WRAPS = "trace-window-wraps"


class Workload:
    name = ""
    primary = "op"  # latency metrics use ops of this kind
    cycle: list  # one cycle of (kind, input), set by prepare

    def prepare(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def call(self, kind, item, span):
        raise NotImplementedError

    def check(self, kind, item, raw) -> Outcome:
        raise NotImplementedError

    def before(self, kind, item) -> None:
        """Untimed preparation of one op."""

    def cli_bytes(self, kind, item, inv) -> tuple[int, int]:
        """Document bytes read and report bytes written by a CLI op."""
        return 0, 0

    def details(self, records) -> dict:
        """Workload-only metrics for the run's detail line."""
        return {}


# ---------------------------------------------------------------------------


class CliCorpus(Workload):
    """Every document once through `adscone <cmd> --input`, then every
    subcommand directory once through `--batch DIR --output OUT`."""

    name = "cli-corpus"
    primary = "single"

    def prepare(self, seed, work):
        self.docs = corpus.cli_corpus(seed)
        self.dirs = corpus.write_corpus(self.docs, work / "docs")
        self.out_root = work / "out"
        order = corpus.rng_for(seed, 500).permutation(len(self.docs))
        self.cycle = [("single", self.docs[i]) for i in order]
        self.cycle += [("batch", cmd) for cmd in corpus.SUBCOMMANDS]
        self.by_cmd = {}
        for d in self.docs:
            self.by_cmd.setdefault(d.cmd, []).append(d)
        self.repeats = RepeatLog()
        self.single_out = {}

    def before(self, kind, item):
        if kind == "batch":
            out = self.out_root / item
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)

    def call(self, kind, item, span):
        if kind == "single":
            path = self.dirs[item.cmd] / item.name
            return invoke(cli.main, [item.cmd, "--input", str(path), *corpus.FLAGS.get(item.cmd, ())])
        argv = [item, "--batch", str(self.dirs[item]), "--output", str(self.out_root / item)]
        return invoke(cli.main, [*argv, *corpus.FLAGS.get(item, ())])

    def check(self, kind, item, inv):
        if kind == "single":
            escapes = MALFORMED_TRACEBACK if item.kind in ("missing-key", "bad-number") else None
            got = check_invocation(inv, item.exit, item.checks, traceback_defect=escapes)
            key = (item.cmd, item.name)
            self.single_out.setdefault(key, inv.out)
            again = self.repeats.check(key, f"{inv.exit_key}\n{inv.out}")
            return got if not got.ok else again
        # batch reports must equal the single-invocation reports, byte for byte
        for d in self.by_cmd[item]:
            report = self.out_root / item / (Path(d.name).stem + ".report.json")
            if report.exists() and report.read_text() != self.single_out.get((item, d.name)):
                return Outcome(False, None, f"{item}/{d.name}: batch report differs from --input report")
        docs_in = self.by_cmd[item]
        escapes = any(d.kind in ("missing-key", "bad-number") for d in docs_in)
        return check_invocation(
            inv, max(d.exit for d in docs_in), (),
            traceback_defect=MALFORMED_TRACEBACK if escapes else None,
        )

    def cli_bytes(self, kind, item, inv):
        if kind == "single":
            return len(item.text.encode()), len(inv.out.encode())
        docs_in = self.by_cmd[item]
        written = sum(
            p.stat().st_size for p in (self.out_root / item).glob("*.report.json")
        )
        return sum(len(d.text.encode()) for d in docs_in), written

    def batch_docs(self, item) -> int:
        return len(self.by_cmd[item])

    def details(self, records):
        batch = [r for r in records if r.kind == "batch"]
        docs_done = sum(self.batch_docs(r.item) for r in batch)
        secs = sum(r.latency for r in batch)
        return {"batch_docs_per_s": docs_done / secs if secs else 0.0}


# ---------------------------------------------------------------------------


class MeridianHolonomy(Workload):
    """meridian_loop at its documented 2400 samples, then holonomy_pair,
    checked by trace against the exact factorization model_isom_pair."""

    name = "meridian-holonomy"

    def prepare(self, seed, work):
        self.cycle = [("op", m) for m in corpus.meridian_inputs(seed)]
        self.err_max = 0.0

    def call(self, kind, m, span):
        path, closing = spacetimes.meridian_loop(m.kind, m.param)
        pair = lrmetrics.holonomy_pair(path, closing)
        model = spacetimes.model_isom_pair(m.kind, m.param)
        kinds = [isom.classify(g).kind for g in (pair.left, pair.right, model.left, model.right)]
        return pair, model, kinds

    def check(self, kind, m, raw):
        pair, model, kinds = raw
        err = max(
            abs(pair.left.trace - model.left.trace), abs(pair.right.trace - model.right.trace)
        )
        self.err_max = max(self.err_max, err)
        if err > MERIDIAN_TOL:
            return Outcome(False, None, f"{m}: holonomy trace off the model by {err:.3e}")
        if kinds[:2] != kinds[2:] or (m.kind == "cone" and kinds[0] is not isom.IsomKind.ELLIPTIC):
            return Outcome(False, None, f"{m}: holonomy classes {kinds[:2]}, model {kinds[2:]}")
        return OK

    def details(self, records):
        return {"holonomy_err_max": self.err_max}


# ---------------------------------------------------------------------------


class ConeSurfaces(Workload):
    """torus_with_cone_point -> subdivide_face_with_cone -> loop holonomy
    around every cone point, vertex angle sums, Delaunay flips and
    Gauss-Bonnet area."""

    name = "cone-surfaces"

    def prepare(self, seed, work):
        self.cycle = [("op", op) for op in corpus.cone_inputs(seed)]
        self.resid_max = 0.0

    def call(self, kind, op, span):
        try:
            surf, _ = catalog.torus_with_cone_point(op.theta)
            surf, _, new_v = catalog.subdivide_face_with_cone(surf, op.face, op.eta)
        except LinkRealizationError as err:
            return err
        hol = {
            v: conesurf.holonomy_of_loop(surf, conesurf.loop_around_vertex(surf, v))
            for v in sorted(surf.cone_angles)
        }
        with span("conesurf.angle_sums"):
            sums = surf.vertex_angle_sums()
        flipped = conesurf.delaunay_normalize(surf)
        area = conesurf.gauss_bonnet_area(flipped)
        return new_v, hol, sums, area

    def check(self, kind, op, raw):
        if isinstance(raw, LinkRealizationError):
            return Outcome(False, SOLVE_STALL, f"{op}: {raw}")
        new_v, hol, sums, area = raw
        cones = {corpus.CONE_VERTEX: op.theta, corpus.CONE_VERTEX + 1: op.eta}
        if new_v != corpus.CONE_VERTEX + 1 or set(hol) != set(cones):
            return Outcome(False, None, f"{op}: cone points {sorted(hol)}, expected {sorted(cones)}")
        resid = max(abs(s - cones.get(v, TWO_PI)) for v, s in sums.items())
        for v, g in hol.items():
            # |tr| of an elliptic element of rotation angle a is 2 |cos(a/2)|
            half = cones[v] / 2
            resid = max(resid, abs(abs(g.trace) - 2 * abs(np.cos(half))) / max(np.sin(half), 1e-3))
        self.resid_max = max(self.resid_max, resid)
        want_area = sum(TWO_PI - a for a in cones.values())  # chi = 0
        if resid > CONE_TOL or abs(area - want_area) > CONE_TOL:
            return Outcome(
                False, None, f"{op}: angle residual {resid:.3e}, area {area} vs {want_area}"
            )
        return OK

    def details(self, records):
        return {"angle_residual_max": self.resid_max}


# ---------------------------------------------------------------------------


class Surgery(Workload):
    """One in-process `adscone surgery --input` per request; every graph it
    returns is re-checked with validate_geometric_data."""

    name = "surgery"

    def prepare(self, seed, work):
        thetas = corpus.surgery_hosts(seed)
        hosts = [catalog.torus_with_cone_point(t)[0] for t in thetas]
        self.cycle = []
        root = work / "surgery"
        root.mkdir(parents=True)
        for i, op in enumerate(corpus.surgery_inputs(seed, thetas)):
            path = root / f"{i:03d}.json"
            doc = corpus.surgery_doc(hosts[op.host], thetas[op.host], op.eta1, op.eta2)
            path.write_text(docs.canonical_json(doc))
            self.cycle.append(("op", (i, op, path)))
        self.repeats = RepeatLog()
        self.outcomes = {"realized": 0, "trace_window": 0, "nonconverged": 0, "other": 0}
        self.admissible = 0
        self.validated = 0

    def call(self, kind, item, span):
        _, _, path = item
        return invoke(cli.main, ["surgery", "--input", str(path)])

    def cli_bytes(self, kind, item, inv):
        return item[2].stat().st_size, len(inv.out.encode())

    def classify(self, inv) -> str:
        if inv.tb is not None or inv.code not in (0, 2):
            return "other"
        try:
            report = json.loads(inv.out)
        except json.JSONDecodeError:
            return "other"
        if inv.code == 0:
            return "realized"
        err = report.get("error") or ""
        if "not realizable" in err:
            return "trace_window"
        if "did not converge" in err or "stalled" in err:
            return "nonconverged"
        return "other"

    def check(self, kind, item, inv):
        i, op, _ = item
        outcome = self.classify(inv)
        self.outcomes[outcome] += 1
        self.admissible += op.admissible
        again = self.repeats.check(i, f"{inv.exit_key}\n{inv.out}")
        if inv.tb is not None:
            return Outcome(False, None, f"request {i}: traceback {inv.tb.strip().splitlines()[-1]}")
        if not op.admissible:
            if outcome == "trace_window":
                return again
            if op.wrapped and outcome == "nonconverged":
                return Outcome(False, WINDOW_WRAPS, f"request {i}: {json.loads(inv.out)['error']}")
            return Outcome(False, None, f"request {i}: inadmissible request gave {outcome}")
        if outcome == "realized":
            graph = docs.interaction_graph_from_doc(json.loads(inv.out))
            report = interactions.validate_geometric_data(graph)
            if not report.passed:
                return Outcome(False, None, f"request {i}: graph fails validation: {report.failures[:1]}")
            self.validated += 1
            return again
        if outcome == "nonconverged":
            return Outcome(False, FIT_NONCONVERGENCE, f"request {i}: {json.loads(inv.out)['error']}")
        if outcome == "other" and inv.code == 2:
            return Outcome(False, ADMISSIBLE_REFUSED, f"request {i}: {inv.out.strip()}")
        return Outcome(False, None, f"request {i}: admissible request gave {outcome}")

    def details(self, records):
        return {
            "surgery_realized_ratio": self.validated / self.admissible if self.admissible else 0.0,
            "surgery_outcomes": dict(self.outcomes),
        }


WORKLOADS = {w.name: w for w in (CliCorpus, MeridianHolonomy, ConeSurfaces, Surgery)}
