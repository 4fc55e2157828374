"""Spans recorded from the benchmark's side of each layer boundary.

While a Recorder is installed, the public functions listed in TARGETS are
replaced, in their defining module and in every adscone module that imported
them by name, with wrappers that record one span per call: name, start, end,
parent span, op id and thread.  Spans stay in memory and are written out when
the run ends.  Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function, span name, per-call counter or None).  Class methods are
# not wrapped: ConeSurface methods run thousands of times inside the metric
# solver, so the workloads time the calls they make themselves instead.
TARGETS = (
    ("adscone.cli", "main", "cli.main", None),
    ("adscone.cli", "_load", "documents.parse", None),
    ("adscone.cli", "_emit", "documents.emit", None),
    ("adscone.documents", "check_envelope", "documents.parse", None),
    ("adscone.documents", "link_circle_from_doc", "documents.parse", None),
    ("adscone.documents", "cone_surface_from_doc", "documents.parse", None),
    ("adscone.documents", "hs_surface_from_doc", "documents.parse", None),
    ("adscone.documents", "marked_metric_from_doc", "documents.parse", None),
    ("adscone.documents", "model_from_doc", "documents.parse", None),
    ("adscone.documents", "surface_jet_from_doc", "documents.parse", None),
    ("adscone.documents", "interaction_graph_from_doc", "documents.parse", None),
    ("adscone.links", "classify_singularity", "links.classify", None),
    ("adscone.spacetimes", "link_of_line", "spacetimes.link_of_line", None),
    ("adscone.spacetimes", "meridian_loop", "spacetimes.meridian_loop", None),
    ("adscone.spacetimes", "model_isom_pair", "spacetimes.model_isom_pair", None),
    ("adscone.spacetimes", "causal_speed_check", "spacetimes.causal_speed", None),
    ("adscone.hssurface", "check_causal", "hssurface.check", None),
    ("adscone.hssurface", "classify_hs_sphere", "hssurface.check", None),
    ("adscone.hssurface", "check_polyhedron_conditions", "hssurface.check", None),
    ("adscone.lrmetrics", "left_right_metrics", "lrmetrics.left_right", None),
    ("adscone.lrmetrics", "transverse_check", "lrmetrics.left_right", None),
    ("adscone.lrmetrics", "holonomy_pair", "lrmetrics.holonomy_pair", None),
    (
        "adscone.lrmetrics",
        "transport",
        "lrmetrics.transport",
        lambda path, *a, **k: {"segments": (len(path) - 1) * k.get("substeps", 1)},
    ),
    ("adscone.isom", "factor_isometry", "isom.factor_isometry", None),
    ("adscone.isom", "classify", "isom.classify", None),
    ("adscone.interactions", "validate_geometric_data", "interactions.validate", None),
    ("adscone.interactions", "assemble_holonomy", "interactions.assemble", None),
    ("adscone.interactions", "surgery_collision", "interactions.surgery", None),
    ("adscone.catalog", "torus_with_cone_point", "catalog.torus", None),
    ("adscone.catalog", "subdivide_face_with_cone", "catalog.subdivide", None),
    ("adscone.catalog", "solve_metric", "catalog.solve_metric", None),
    ("adscone.catalog", "fit_two_cone_disk", "catalog.fit_disk", None),
    ("adscone.conesurf", "holonomy_of_loop", "conesurf.holonomy", None),
    ("adscone.conesurf", "delaunay_normalize", "conesurf.delaunay", None),
    ("adscone.conesurf", "gauss_bonnet_area", "conesurf.area", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    op: int | None
    thread: int
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store.  Each thread keeps its own stack; a span opened
    on a thread with an empty stack (the CLI's batch pool) gets the op's root
    span as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self.op: int | None = None
        self.op_root: int | None = None

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else self.op_root
        sp = Span(sid, name, time.perf_counter_ns(), 0, parent, self.op, threading.get_ident())
        if counts:
            sp.counts = counts
        stack.append(sid)
        try:
            yield sp
        except BaseException as err:
            sp.error = type(err).__name__
            raise
        finally:
            stack.pop()
            sp.end = time.perf_counter_ns()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one op; every span opened inside belongs to it."""
        self.op = op_id
        with self.span("op") as root:
            self.op_root = root.id
            try:
                yield root
            finally:
                self.op = self.op_root = None

    def dump(self, path):
        rows = [sp.__dict__ for sp in sorted(self.spans, key=lambda s: s.id)]
        path.write_text(json.dumps(rows))


def _wrap(rec: Recorder, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = counter(*args, **kwargs) if counter else None
        with rec.span(name, counts):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Swap every target for its recording wrapper; restore on exit."""
    undo = []
    try:
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            wrapper = _wrap(rec, original, name, counter)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("adscone") and (
                    getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapper)
                    undo.append((other, attr, original))
        yield rec
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of its interval covered by
    its children (children on other threads may overlap each other)."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {
        sp.id: (sp.end - sp.start) - _union_ns(
            (max(a, sp.start), min(b, sp.end)) for a, b in children[sp.id] if b > sp.start and a < sp.end
        )
        for sp in spans
    }


def busy_ns(spans: list[Span]) -> dict[str, int]:
    """Span name -> total time inside spans of that name, counting a span
    nested in a span of the same name (parse inside parse) only once."""
    by_id = {sp.id: sp for sp in spans}
    out = defaultdict(int)
    for sp in spans:
        p = by_id.get(sp.parent)
        nested = False
        while p is not None:
            if p.name == sp.name:
                nested = True
                break
            p = by_id.get(p.parent)
        if not nested:
            out[sp.name] += sp.end - sp.start
    return dict(out)


def layer_self_ns(spans: list[Span]) -> dict[str, int]:
    """Layer (the span name's prefix, 'op' for the benchmark itself) ->
    summed self time."""
    st = self_times(spans)
    out = defaultdict(int)
    for sp in spans:
        out[sp.name.split(".")[0]] += st[sp.id]
    return dict(out)
