"""The library keeps no helper that only tests use: every public function,
class and public method of a public class of adscone, exported in
adscone.__all__ or not, has a caller in the library, the demos or the
benchmark, or an allowlist entry below with its reason.

A name counts as called where it appears as a name or an attribute in one
of those files, imports aside; names are matched by spelling, not by
module."""

import ast
from pathlib import Path

import adscone

SRC = Path(adscone.__file__).parent
ROOT = SRC.parents[1]
CALLERS = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

# (module, name) -> why it stays with test callers only: each states a claim
# of the paper that a test checks, and none has a demo yet
DOCUMENTED_API = {
    ("links", "positivity_from_gluing"): "causal positivity of a gluing along the singular line",
    ("lrmetrics", "jacobi_form_value"): "acceptance criterion 05: the left/right metrics on Jacobi fields",
    ("lrmetrics", "disk_link_isometry_check"): "acceptance criterion 10: the cone-field identity",
    ("spacetimes", "suspend"): "the AdS suspension of a causal singular HS-surface",
    ("isom", "Proj2.conjugate"): "holonomy classes are conjugation invariant: classify, "
    "factor_isometry and solve_conjugator are checked on conjugated holonomies",
    ("isom", "LiftedProj2.compose"): "lifts to the universal cover compose as a group, "
    "and translation numbers are conjugation invariant",
}


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _public_names():
    """(module, name) of every public module-level function and class, and
    (module, "Class.method") of every public method of a public class."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in filter(_public, ast.parse(path.read_text()).body):
            names.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                names.update((path.stem, f"{node.name}.{m.name}") for m in filter(_public, node.body))
    return names


def _called_names():
    used = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_or_is_documented_api():
    called = _called_names()
    uncalled = sorted(
        f"{module}.{name}"
        for module, name in _public_names()
        if name.rpartition(".")[2] not in called and (module, name) not in DOCUMENTED_API
    )
    assert not uncalled, "public names that only tests use:\n" + "\n".join(uncalled)


def test_every_allowlisted_name_still_needs_it():
    """An entry goes once its name is gone or has gained a caller."""
    public, called = _public_names(), _called_names()
    stale = sorted(
        f"{module}.{name}"
        for module, name in DOCUMENTED_API
        if (module, name) not in public or name.rpartition(".")[2] in called
    )
    assert not stale, "allowlist entries to drop:\n" + "\n".join(stale)
