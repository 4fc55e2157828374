"""Set-up probe: a fresh interpreter importing adscone.cli, the cost every
CLI invocation pays before it reads its input."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

IMPORT = "import adscone.cli"
# The reference a set-up sample is calibrated against: numpy alone, a
# dependency and not the program, so a change to the program leaves it be.
REFERENCE = "import numpy"
# Median wall time of REFERENCE on a 2-vCPU x86-64 VM, the speed the
# calibrated set-up time is quoted at.
REF_IMPORT_S = 0.2


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _wall(root: Path, source: str) -> float:
    """Wall time of a fresh interpreter running `source`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", source], cwd=root, env=_env(root),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # wait() with a timeout polls at up to 50 ms intervals, which would
    # round the sample up; a blocking wait and a kill timer do not
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return wall


def setup_seconds(root: Path, samples: int) -> tuple[list[float], list[float]]:
    """(calibrated, wall) times of `samples` fresh interpreters importing
    the CLI.  Set-up is process start, page faults and file reads, whose
    speed drifts by a third over minutes here and which the in-process
    kernel of speed.py does not follow; a like process does.  So each
    sample is followed by one of REFERENCE and scaled by REF_IMPORT_S over
    that one's time."""
    calibrated, wall = [], []
    for _ in range(samples):
        t = _wall(root, IMPORT)
        wall.append(t)
        calibrated.append(t * REF_IMPORT_S / _wall(root, REFERENCE))
    return calibrated, wall


def parse_importtime(text: str) -> dict[str, float]:
    """Module -> cumulative import time in ms, from the stderr of
    `python -X importtime` (each module is imported once)."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[1].isdigit():
            continue
        out.setdefault(parts[2], int(parts[1]) / 1000.0)
    return out


def import_breakdown(root: Path, samples: int) -> dict[str, float]:
    """Median over `samples` fresh interpreters of numpy's cumulative import
    time, and of adscone.cli's minus numpy's (numpy is imported inside it)."""
    rows = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT], cwd=root, env=_env(root),
            check=True, capture_output=True, text=True, timeout=60,
        )
        cum = parse_importtime(proc.stderr)
        rows.append((cum.get("numpy", 0.0), cum.get(IMPORT.split()[1], 0.0) - cum.get("numpy", 0.0)))
    return {
        "numpy": statistics.median(r[0] for r in rows),
        "adscone": statistics.median(r[1] for r in rows),
    }
