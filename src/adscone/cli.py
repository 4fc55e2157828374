"""Command-line front end.

Every subcommand reads a JSON document, runs the corresponding library
operation and writes a deterministic JSON report.  Exit codes: 0 for a
successful classification or passing check, 2 for a domain rejection (a
rejected singularity type, a failed causality or condition check), 1 for
malformed input (a usage error included) or a report or figure that cannot
be written.

Start-up is most of the wall time of one invocation, so each subcommand
imports the library layer it runs only when it runs: `import adscone.cli`
loads this front end, documents, errors, tolerances and the modules the
package itself imports (isom, linalg, rp1, links), and no other layer.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import documents as docs
from .errors import GeometryError
from .links import classify_singularity
from .tolerances import CAUSAL_SPEED_SLACK, CONJUGATOR_RESIDUAL

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECT = 2


class OutputError(Exception):
    """A report or figure could not be written."""


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise docs.DocumentError(f"cannot read {path}: {err}")


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise OutputError(f"cannot write {path}: {err}") from err


def _emit(report: dict, out_path: str | None):
    text = docs.canonical_json(report)
    if out_path:
        _write(out_path, text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_classify_link(args) -> int:
    link = docs.link_circle_from_doc(_load(args.input))
    s = classify_singularity(link)
    report = {
        "kind": s.kind.value,
        "angle": s.angle,
        "mass": s.mass,
        "degree": s.degree,
        "positive": s.is_positive,
    }
    _emit(report, args.output)
    if s.is_rejected or (args.positive and not s.is_positive):
        return EXIT_REJECT
    return EXIT_OK


def cmd_classify_sphere(args) -> int:
    from .hssurface import classify_hs_sphere

    surface = docs.hs_surface_from_doc(_load(args.input))
    try:
        tag = classify_hs_sphere(surface, positive=args.positive)
    except GeometryError as err:
        _emit({"classification": None, "error": str(err)}, args.output)
        return EXIT_REJECT
    _emit({"classification": tag.value}, args.output)
    return EXIT_OK


def cmd_trace_causal(args) -> int:
    from .hssurface import check_causal

    surface = docs.hs_surface_from_doc(_load(args.input))
    report = check_causal(surface, positive=args.positive)
    _emit({"causal": report.causal, "failures": list(report.failures)}, args.output)
    return EXIT_OK if report.causal else EXIT_REJECT


def cmd_check_polyhedron(args) -> int:
    from .hssurface import check_polyhedron_conditions

    metric = docs.marked_metric_from_doc(_load(args.input))
    report = check_polyhedron_conditions(metric)
    _emit(
        {
            "conditions": {k: bool(v) for k, v in sorted(report.passed.items())},
            "failures": list(report.failures),
        },
        args.output,
    )
    return EXIT_OK if report.all_passed else EXIT_REJECT


def cmd_speed_check(args) -> int:
    from .spacetimes import causal_speed_check

    ts, zs, mass = docs.causal_curve_from_doc(_load(args.input))
    ok = causal_speed_check(ts, zs, mass, slack=CAUSAL_SPEED_SLACK * args.tolerance_scale)
    _emit({"causal": bool(ok), "mass": mass}, args.output)
    if args.plot:
        _plot_speed(ts, zs, mass, args.plot)
    return EXIT_OK if ok else EXIT_REJECT


def cmd_classify_model_links(args) -> int:
    from .spacetimes import link_of_line, model_lines

    model = docs.model_from_doc(_load(args.input))
    out = {}
    rejected = False
    for line in model_lines(model):
        s = classify_singularity(link_of_line(model, line))
        out[line] = {"kind": s.kind.value, "angle": s.angle, "mass": s.mass}
        rejected = rejected or s.is_rejected
    _emit({"lines": out}, args.output)
    return EXIT_REJECT if rejected else EXIT_OK


def cmd_lr_metrics(args) -> int:
    from .lrmetrics import _pullback_metrics, transverse_check

    # the products of a jet with large entries overflow: numpy is told not
    # to warn, and a sample whose curvature, metrics or determinants are not
    # finite is refused, naming the sample and the quantity
    with np.errstate(all="ignore"):
        jet = docs.surface_jet_from_doc(_load(args.input))
        check = transverse_check(jet)
        _refuse_non_finite({"curvature": check.curvatures})
        if not check.transverse:
            _emit(
                {
                    "transverse": False,
                    "degenerate_samples": list(check.degenerate_samples),
                    "curvatures": list(check.curvatures),
                },
                args.output,
            )
            return EXIT_REJECT
        # the check above is the one left_right_metrics would make
        mls, mrs = _pullback_metrics(jet)
        report = {
            "transverse": True,
            "curvatures": list(check.curvatures),
            "mu_l": [docs.matrix_to_list(m) for m in mls],
            "mu_r": [docs.matrix_to_list(m) for m in mrs],
            "det_mu_l": [float(np.linalg.det(m)) for m in mls],
            "det_mu_r": [float(np.linalg.det(m)) for m in mrs],
        }
    _refuse_non_finite({key: report[key] for key in ("mu_l", "mu_r", "det_mu_l", "det_mu_r")})
    _emit(report, args.output)
    if args.plot:
        _plot_determinants(report["det_mu_l"], report["det_mu_r"], args.plot)
    return EXIT_OK


def _refuse_non_finite(quantities: dict):
    """GeometryError naming the first sample, and in it the first of the
    quantities (name -> per sample a number or a list of numbers), that is
    not finite."""
    for k, values in enumerate(zip(*quantities.values())):
        for name, value in zip(quantities, values):
            if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
                raise GeometryError(f"sample {k}: {name} is not finite")


def cmd_surgery(args) -> int:
    from .interactions import surgery_collision

    base, link, at = docs.surgery_request_from_doc(_load(args.input))
    try:
        graph = surgery_collision(base, link, at)
    except GeometryError as err:
        _emit({"graph": None, "error": str(err)}, args.output)
        return EXIT_REJECT
    _emit(docs.interaction_graph_to_doc(graph), args.output)
    return EXIT_OK


def cmd_validate_graph(args) -> int:
    from .interactions import validate_geometric_data

    graph = docs.interaction_graph_from_doc(_load(args.input))
    report = validate_geometric_data(graph, tol=CONJUGATOR_RESIDUAL * args.tolerance_scale)
    _emit({"valid": report.passed, "failures": list(report.failures)}, args.output)
    return EXIT_OK if report.passed else EXIT_REJECT


def cmd_assemble_holonomy(args) -> int:
    from .interactions import assemble_holonomy

    graph = docs.interaction_graph_from_doc(_load(args.input))
    try:
        asm = assemble_holonomy(graph, tol=CONJUGATOR_RESIDUAL * args.tolerance_scale)
    except (GeometryError, ArithmeticError) as err:
        _emit({"assembly": None, "error": str(err)}, args.output)
        return EXIT_REJECT
    tables = {
        vertex: {
            side: {name: docs.matrix_to_list(g.m) for name, g in table.items()}
            for side, table in sides.items()
        }
        for vertex, sides in asm.tables.items()
    }
    residuals = [asm.relation_residual(e) for e in graph.edges]
    _emit({"generators": tables, "relation_residuals": residuals}, args.output)
    return EXIT_OK


# -- tiny deterministic SVG plots ----------------------------------------------


def _plot_speed(ts, zs, mass, path):
    """Causal curve |z|(t) against the saturating envelope."""
    rs = np.abs(zs)
    alpha = 1.0 - mass
    t0, t1 = float(ts[0]), float(ts[-1])
    env = (ts - t0 + rs[0] ** alpha) ** (1.0 / alpha)
    xs = [400 * (t - t0) / max(t1 - t0, 1e-12) for t in ts]
    curves = [
        ([280 * min(r, 1.0) for r in rs], "#225599", 1.5),
        ([280 * min(r, 1.0) for r in env], "#bb3333", 1.5),
    ]
    caption = f"|z|(t) (blue) vs saturating envelope (red), m={mass:.4g}"
    _write_svg(path, xs, curves, caption)


def _plot_determinants(det_l, det_r, path):
    """Determinant profiles of the left and right metrics over the samples."""
    n = len(det_l)
    top = max(max(det_l), max(det_r), 1e-12)
    xs = [400 * (i / max(n - 1, 1)) for i in range(n)]
    curves = [
        ([280 * (v / top) for v in det_l], "#225599", 2.5),
        ([280 * (v / top) for v in det_r], "#dd8800", 1.2),
    ]
    _write_svg(path, xs, curves, "det mu_l (blue) and det mu_r (orange) per sample")


def _write_svg(path, xs, curves, caption):
    """A 480 x 320 figure on white: a polyline through (40 + x, 300 - y) for
    each (ys, color, stroke width) of curves, and the caption at the top."""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="320" '
        'viewBox="0 0 480 320">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for ys, color, width in curves:
        pts = " ".join(f"{40 + x:.2f},{300 - y:.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'
        )
    parts.append(f'<text x="46" y="24" font-size="12">{caption}</text>')
    parts.append("</svg>")
    _write(path, "".join(parts))


# -- driver ---------------------------------------------------------------------


COMMANDS = {
    "classify-link": cmd_classify_link,
    "classify-sphere": cmd_classify_sphere,
    "trace-causal": cmd_trace_causal,
    "check-polyhedron": cmd_check_polyhedron,
    "speed-check": cmd_speed_check,
    "classify-model-links": cmd_classify_model_links,
    "lr-metrics": cmd_lr_metrics,
    "surgery": cmd_surgery,
    "validate-graph": cmd_validate_graph,
    "assemble-holonomy": cmd_assemble_holonomy,
}


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 1 with an input error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"input error: {message}\n")


def _tolerance_scale(text: str) -> float:
    """The value of --tolerance-scale: a finite number > 0."""
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not 0 < scale < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return scale


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused for every
    later call in the process; parse_args keeps no state between calls."""
    parser = _Parser(
        prog="adscone",
        description="anti-de Sitter cone-singularity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        # each subcommand takes only the options it reads
        p = sub.add_parser(name)
        p.add_argument("--input", required=False, help="input document path")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        if name in ("speed-check", "lr-metrics"):
            p.add_argument("--plot", help="write a static SVG figure here")
        p.add_argument("--batch", help="process every .json file in this directory")
        if name in ("speed-check", "validate-graph", "assemble-holonomy"):
            p.add_argument(
                "--tolerance-scale",
                type=_tolerance_scale,
                default=1.0,
                dest="tolerance_scale",
                help="multiply the tolerance of the check",
            )
        if name in ("classify-link", "classify-sphere", "trace-causal"):
            p.add_argument("--positive", action="store_true", help="enable the positive-mass filter")
    return parser


def _run_single(fn, args) -> int:
    try:
        return fn(args)
    except docs.DocumentError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT
    except OutputError as err:
        sys.stderr.write(f"output error: {err}\n")
        return EXIT_INPUT
    except GeometryError as err:
        sys.stderr.write(f"rejected: {err}\n")
        return EXIT_REJECT
    except (AttributeError, KeyError, IndexError, OverflowError, TypeError, ValueError) as err:
        # after GeometryError, a ValueError: values of the right kind that the
        # library cannot hold (a vertex id too large for an index array)
        sys.stderr.write(f"input error: {type(err).__name__}: {err}\n")
        return EXIT_INPUT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn = COMMANDS[args.command]
    if args.batch:
        files = sorted(Path(args.batch).glob("*.json"))
        if not files:
            sys.stderr.write("batch directory contains no .json files\n")
            return EXIT_INPUT
        codes = {}
        for path in files:
            sub_args = copy.copy(args)
            sub_args.input = str(path)
            if args.output:
                sub_args.output = str(Path(args.output) / (path.stem + ".report.json"))
            codes[path.name] = _run_single(fn, sub_args)
        sys.stderr.write(docs.canonical_json({"batch": codes}) + "\n")
        return max(codes.values())
    if not args.input:
        sys.stderr.write("--input is required outside batch mode\n")
        return EXIT_INPUT
    return _run_single(fn, args)


if __name__ == "__main__":
    sys.exit(main())
