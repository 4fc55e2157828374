"""Output checker: exit codes, tracebacks, reports against references,
repeat and batch byte-identity.

An op's outcome is ok, or a failure.  A failure carries the name of the
known defect it matches (see manifest.json), or None when it matches none;
an unmatched failure makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

# Absolute-plus-relative tolerance for numbers in a report.
REPORT_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    ok: bool
    defect: str | None = None  # known defect a failure matches
    detail: str = ""

    @property
    def unexpected(self) -> bool:
        return not self.ok and self.defect is None


OK = Outcome(True)


@dataclass(frozen=True)
class Invocation:
    """What one in-process CLI call left behind."""

    code: int | None  # None when main raised
    out: str
    err: str
    tb: str | None

    @property
    def exit_key(self) -> str:
        return "traceback" if self.tb is not None else str(self.code)


def invoke(main, argv) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    tb = None
    code = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI contract forbids these; record, do not stop
        tb = traceback.format_exc()
    return Invocation(code, out.getvalue(), err.getvalue(), tb)


def _close(got, want) -> bool:
    return abs(got - want) <= REPORT_TOL * (1.0 + abs(want))


def _at(report, path):
    for k in path:
        report = report[k]
    return report


def mismatches(report, checks) -> list[str]:
    """The checks a parsed report fails, as readable strings."""
    bad = []
    for path, op, want in checks:
        try:
            got = _at(report, path)
        except (KeyError, IndexError, TypeError):
            bad.append(f"{'/'.join(map(str, path))}: missing")
            continue
        if op == "eq":
            ok = got == want and type(got) is type(want)
        elif op == "approx":
            ok = isinstance(got, (int, float)) and not isinstance(got, bool) and _close(got, want)
        elif op == "all_below":
            ok = all(abs(x) < want for x in got)
        elif op == "has_key":
            ok = want in got
        elif op == "contains":
            ok = isinstance(got, str) and want in got
        elif op == "empty":
            ok = len(got) == 0
        elif op == "nonempty":
            ok = len(got) > 0
        else:
            raise ValueError(f"unknown check {op!r}")
        if not ok:
            bad.append(f"{'/'.join(map(str, path))}: {op} {want!r}, got {got!r}")
    return bad


def check_invocation(inv: Invocation, exit_code: int, checks, traceback_defect=None) -> Outcome:
    """A CLI call against its expected exit code and report checks.

    traceback_defect names the known defect a traceback on this input
    matches (malformed documents today), or None."""
    if inv.tb is not None:
        last = inv.tb.strip().splitlines()[-1]
        return Outcome(False, traceback_defect, f"traceback: {last}")
    if inv.code != exit_code:
        return Outcome(False, None, f"exit {inv.code}, expected {exit_code}")
    if not checks:
        return OK
    try:
        report = json.loads(inv.out)
    except json.JSONDecodeError:
        return Outcome(False, None, f"report is not one JSON document: {inv.out[:80]!r}")
    bad = mismatches(report, checks)
    if bad:
        return Outcome(False, None, "; ".join(bad[:3]))
    return OK


class RepeatLog:
    """First output seen per key; later outputs must match it byte for byte."""

    def __init__(self):
        self.first: dict = {}

    def check(self, key, text: str) -> Outcome:
        seen = self.first.setdefault(key, text)
        if seen != text:
            return Outcome(False, None, f"{key}: output differs from an earlier invocation")
        return OK
