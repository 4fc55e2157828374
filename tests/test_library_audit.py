"""The library keeps no helper that only tests use: every public function and
class of adscone has a caller in the library, the demos or the benchmark, or
is documented API (adscone.__all__, or the allowlist below with its reason).

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
    ("linalg", "ads_null_geodesic"): "null geodesics of AdS3 are affine lines on the quadric",
    ("links", "positivity_from_gluing"): "causal positivity of a gluing along the singular line",
    ("links", "tachyon_mass_from_planes"): "a tachyon's mass is the log cross-ratio of its planes",
    ("lrmetrics", "jacobi_form_value"): "acceptance criterion 05: the left/right metrics on Jacobi fields",
    ("lrmetrics", "disk_link_isometry_check"): "acceptance criterion 10: the cone-field identity",
    ("spacetimes", "suspend"): "the AdS suspension of a causal singular HS-surface",
}


def _public_names():
    """(module, name) of every public module-level function and class."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add((path.stem, node.name))
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
        if name not in called and name not in adscone.__all__ and (module, name) not in DOCUMENTED_API
    )
    assert not uncalled, "public names that only tests use:\n" + "\n".join(uncalled)


def test_every_allowlisted_name_still_needs_it():
    """An entry goes once its name is gone or has gained a caller."""
    public, called = _public_names(), _called_names()
    stale = sorted(
        f"{module}.{name}"
        for module, name in DOCUMENTED_API
        if (module, name) not in public or name in called
    )
    assert not stale, "allowlist entries to drop:\n" + "\n".join(stale)
