"""The tolerance policy: every threshold the library decides with is a name in
adscone.tolerances, and every name there decides something."""

import ast
from pathlib import Path

import adscone
from adscone import tolerances

SRC = Path(adscone.__file__).parent

# (module, enclosing function) -> (the float literals below 1e-2 allowed there,
# why they are not tolerances): parameters of one algorithm, not decisions
ALGORITHM_LITERALS = {
    ("catalog", "solve_metric"): ({1e-10, 1e-12, 1e-8}, "damping schedule"),
    ("catalog", "_disk_development"): ({5e-16}, "arccosh floor: coincident points get a tiny length"),
    ("catalog", "fit_two_cone_disk"): ({1e-8, 1e-12, 1e-7}, "damping schedule, FD step"),
    ("spacetimes", "causal_speed_check"): ({1e-3}, "the sampling step the check requires"),
    ("spacetimes", "saturating_null_curve"): ({1e-3}, "sampling step"),
    ("links", "positivity_from_gluing"): ({1e-3}, "sampling grid"),
    ("cli", "_plot_speed"): ({1e-12}, "plot floor for a zero time span"),
    ("cli", "_plot_determinants"): ({1e-12}, "plot floor for zero determinants"),
}


def _small_float_literals(path: Path):
    """(enclosing function qualname, value) of every float literal below 1e-2."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if 0 < abs(node.value) < 1e-2:
                found.append((".".join(scope), node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_thresholds_come_from_the_table():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for scope, value in _small_float_literals(path):
            allowed, _ = ALGORITHM_LITERALS.get((path.stem, scope), (set(), ""))
            if value not in allowed:
                stray.append(f"{path.name}: {scope or '<module>'}: {value!r}")
    assert not stray, "threshold literals outside adscone.tolerances:\n" + "\n".join(stray)


def test_every_tolerance_is_a_used_number():
    table = ast.parse(Path(tolerances.__file__).read_text())
    names = []
    for node in table.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        assert isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant), (
            "adscone.tolerances holds plain named numbers only"
        )
        names.append(node.targets[0].id)
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "tolerances.py":
            tree = ast.parse(path.read_text())
            used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [n for n in names if n not in used] == []
    assert len(set(names)) == len(names)


def test_every_allowlisted_literal_is_still_there():
    """An allowlist entry outlives neither its function nor its literals:
    a stale entry would let a new threshold in at that site unnoticed."""
    found = {}
    for path in SRC.glob("*.py"):
        for scope, value in _small_float_literals(path):
            found.setdefault((path.stem, scope), set()).add(value)
    stale = [
        f"{module}: {scope}: {sorted(allowed - found.get((module, scope), set()))}"
        for (module, scope), (allowed, _) in ALGORITHM_LITERALS.items()
        if not allowed <= found.get((module, scope), set())
    ]
    assert not stale, "allowlisted literals no longer in the code:\n" + "\n".join(stale)
