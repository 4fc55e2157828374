"""Run one adscone benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
src/.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from spans, including
the tracing overhead.  An op is one input of the workload's seeded cycle:
the runner repeats the cycle for the timing, and an op fails if any of its
runs fails, so attempted and failed depend on the seed alone.  Op times
are calibrated to a reference machine speed (see speed.py).  The line
before the last holds the workload-only figures (failed_ratio, batch
throughput, accuracy, failures by known defect) and the raw wall times.
`--workload all` runs every workload in its own process and prints each
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((HERE / "manifest.json").read_text())
OUT = ROOT / ".perfbench"


def die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    src = ROOT / "src"
    if not (src / "adscone" / "cli.py").is_file():
        die(f"no adscone sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import adscone

    if Path(adscone.__file__).resolve().parent != (src / "adscone").resolve():
        die(f"imported adscone from {adscone.__file__}, not from {src}")


@dataclass
class Record:
    i: int  # position in the op stream
    kind: str
    item: object
    at: float  # perf_counter at the start of the timed call
    latency: float  # seconds, the timed call only
    outcome: object
    traced: bool
    exit_key: str | None = None  # CLI ops: "0", "1", "2" or "traceback"
    bytes_in: int = 0
    bytes_out: int = 0


def null_span(name):
    return nullcontext()


def run_ops(wl, seconds: float, rec, speed) -> list[Record]:
    """Closed loop over the workload's op cycle until `seconds` have passed
    and every op of the cycle has run.  The cycle's first op runs once
    untimed and unchecked, to warm up.  Under tracing every op runs twice,
    untraced and traced, alternating which goes first; only the traced call
    records spans.  The speed kernel ticks through the loop, except during
    ops of other kinds than the primary one (the --batch pool's threads
    would hold it up); its time is taken out of each latency."""
    from check import Invocation, Outcome
    from spans import installed

    cycle = wl.cycle
    records = []
    kind, item = cycle[0]
    wl.before(kind, item)
    try:
        wl.call(kind, item, null_span)
    except Exception:  # checked when it runs in the loop
        pass
    speed.sample()
    with speed.ticking():
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(cycle) or time.perf_counter() < deadline:
            kind, item = cycle[i % len(cycle)]
            if kind == wl.primary:
                speed.resume()
            else:
                speed.pause()
            modes = (False,) if rec is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in modes:
                wl.before(kind, item)
                t0, spent, latency = time.perf_counter(), speed.spent, None
                try:
                    if traced:
                        with installed(rec), rec.op_span(i):
                            t0, spent = time.perf_counter(), speed.spent
                            raw = wl.call(kind, item, rec.span)
                            latency = time.perf_counter() - t0 - (speed.spent - spent)
                    else:
                        t0, spent = time.perf_counter(), speed.spent
                        raw = wl.call(kind, item, null_span)
                        latency = time.perf_counter() - t0 - (speed.spent - spent)
                    outcome = wl.check(kind, item, raw)
                except Exception as err:  # an op must not stop the run
                    if latency is None:
                        latency = time.perf_counter() - t0 - (speed.spent - spent)
                    raw = None
                    outcome = Outcome(False, None, f"op raised {type(err).__name__}: {err}")
                r = Record(i, kind, item, t0, latency, outcome, traced)
                if isinstance(raw, Invocation):
                    r.exit_key = raw.exit_key
                    r.bytes_in, r.bytes_out = wl.cli_bytes(kind, item, raw)
                records.append(r)
            i += 1
    speed.sample()
    return records


def mix_quantile(samples: list[tuple[float, float]], q: float) -> float:
    """Lower q-quantile of (value, weight) samples."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    acc = 0.0
    for value, w in samples:
        acc += w
        if acc >= q * total * (1 - 1e-12):
            return value
    return samples[-1][0]


def summary(wl, records) -> tuple[dict, dict]:
    """(result fields, detail fields) common to both modes.  An op is one
    input of the cycle; it fails if any of its runs fails, and counts under
    the known defect of its first failing run."""
    runs = {}
    for r in records:
        runs.setdefault(r.i % len(wl.cycle), []).append(r)
    first_bad = [next(r for r in rs if not r.outcome.ok) for rs in runs.values()
                 if any(not r.outcome.ok for r in rs)]
    unexpected = [r.outcome.detail for r in records if r.outcome.unexpected]
    by_defect = Counter(r.outcome.defect or "unexpected" for r in first_bad)
    result = {
        "correct": len(runs) == len(wl.cycle) and not unexpected,
        "attempted": len(runs),
        "failed": len(first_bad),
    }
    details = {
        "failed_ratio": len(first_bad) / len(runs),
        "failures_by_defect": dict(sorted(by_defect.items())),
        "unexpected_failures": unexpected[:5],
        "op_runs": len(records),
        **wl.details(records),
    }
    return result, details


def calibrated(speed, at: float, seconds: float) -> float:
    """Op seconds that started at `at`, at the reference speed."""
    return seconds * speed.factor(at, at + seconds)


def end_to_end(wl, records, setup, setup_wall, speed) -> tuple[dict, dict]:
    """Latency and throughput of the workload's op mix, calibrated.  A run
    stops part way through its op cycle, so each sample is weighted by one
    over the number of runs of its input: every input of the cycle counts
    once, and where the time limit cuts the cycle does not move the
    figures."""
    prim = [r for r in records if r.kind == wl.primary]
    by_input = {}
    for r in prim:
        by_input.setdefault(r.i % len(wl.cycle), []).append(calibrated(speed, r.at, r.latency))
    weighted = [(x, 1.0 / len(xs)) for xs in by_input.values() for x in xs]
    pct = MANIFEST["workloads"][wl.name]["tail_percentile"]
    tail_s = mix_quantile(weighted, pct / 100)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(by_input) / sum(statistics.fmean(xs) for xs in by_input.values()),
        "op_p50_ms": mix_quantile(weighted, 0.5) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "primary_ops": len(prim),
        "inputs_covered": f"{len(by_input)}/{sum(1 for k, _ in wl.cycle if k == wl.primary)}",
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": sum(1 for xs in by_input.values() for x in xs if x > tail_s),
        "setup_samples_s": setup,
        "wall_setup_s": statistics.median(setup_wall),
        "speed_factor": speed.run_factor(),
        "wall_op_p50_ms": statistics.median(r.latency for r in prim) * 1e3,
    }
    return values, extra


def per_layer(wl, records, rec, imports, speed) -> dict:
    from spans import busy_ns, layer_self_ns, self_times

    traced = [r for r in records if r.traced]
    n = max(len(traced), 1)
    spans = rec.spans
    busy = busy_ns(spans)
    selfs = layer_self_ns(spans)
    own = self_times(spans)
    values = {"import.numpy_ms": imports["numpy"], "import.adscone_ms": imports["adscone"]}
    for metric, spec in MANIFEST["per_layer"].items():
        if "span" in spec:
            values[metric] = busy.get(spec["span"], 0) / n / 1e6
        elif "self_of" in spec:
            values[metric] = selfs.get(spec["self_of"], 0) / n / 1e6
    values["cli.self_ms"] = sum(own[s.id] for s in spans if s.name == "cli.main") / n / 1e6
    batch = [r for r in records if r.kind == "batch"]
    values["cli.batch_ms_per_doc"] = (
        1e3 * sum(r.latency for r in batch) / sum(wl.batch_docs(r.item) for r in batch)
        if batch else 0.0
    )
    total = len(records)
    codes = Counter(r.exit_key for r in records if r.exit_key is not None)
    for key in ("0", "1", "2", "traceback"):
        values[f"cli.exit_{key}"] = codes[key] / total
    values["documents.bytes_in"] = sum(r.bytes_in for r in records) / total
    values["documents.bytes_out"] = sum(r.bytes_out for r in records) / total
    transports = [s for s in spans if s.name == "lrmetrics.transport"]
    values["lrmetrics.transport_calls"] = len(transports) / n
    values["lrmetrics.transport_segments"] = sum(s.counts["segments"] for s in transports) / n
    values["catalog.solve_failures"] = (
        sum(1 for s in spans if s.name == "catalog.solve_metric" and s.error) / n
    )
    outcomes = wl.details(records).get("surgery_outcomes", {})
    for key in ("realized", "trace_window", "nonconverged", "other"):
        values[f"interactions.surgery_{key}"] = outcomes.get(key, 0) / total
    pairs = {}
    for r in records:
        if r.kind == wl.primary:
            pairs.setdefault(r.i, {})[r.traced] = calibrated(speed, r.at, r.latency)
    ratios = [p[True] / p[False] - 1.0 for p in pairs.values() if len(p) == 2]
    values["trace.overhead_pct"] = 100.0 * statistics.median(ratios) if ratios else 0.0
    # op times at the reference speed, like the end-to-end ones; import
    # times are taken inside fresh interpreters, which the kernel does not
    # follow
    for metric, spec in MANIFEST["per_layer"].items():
        if spec["unit"].startswith("ms") and not metric.startswith("import."):
            values[metric] *= speed.run_factor()
    values["trace.spans_per_op"] = len(spans) / n
    values["trace.ops"] = float(len(traced))
    return values


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    import probe
    from spans import Recorder
    from speed import SpeedLog
    from workloads import WORKLOADS

    settings = MANIFEST["settings"]
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = SpeedLog()
    try:
        if trace:
            imports = probe.import_breakdown(ROOT, settings["import_samples"])
        else:
            setup, setup_wall = probe.setup_seconds(ROOT, settings["setup_samples"])
        wl = WORKLOADS[name]()
        wl.prepare(seed, work)
        rec = Recorder() if trace else None
        records = run_ops(wl, seconds, rec, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, details = summary(wl, records)
    if trace:
        values = per_layer(wl, records, rec, imports, speed)
        units = {k: v["unit"] for k, v in MANIFEST["per_layer"].items()}
        rec.dump(OUT / f"trace-{name}-seed{seed}.json")
    else:
        values, extra = end_to_end(wl, records, setup, setup_wall, speed)
        details.update(extra)
        units = {k: v["unit"] for k, v in MANIFEST["end_to_end"].items()}
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result, details


def run_all(args) -> int:
    """Every workload in its own process; print each metric with its unit."""
    table = {}
    for name in MANIFEST["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        table[name] = {"result": result, "details": detail["details"]}
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
        for key, v in detail["details"].items():
            print(f"  {key:34s} {json.dumps(v)}")
    print(json.dumps(table))
    return 0 if all(t["result"]["correct"] for t in table.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*MANIFEST["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    load_library()
    if args.workload == "all":
        return run_all(args)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
