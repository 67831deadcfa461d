"""Source hygiene checked with the stdlib alone: every import in a module is used,
every private module-level name is used somewhere in the package, and every
seeded draw is decided in ``numerics``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "erasurekit"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# __init__.py re-exports what it imports, so it is exempt
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private (single leading underscore) functions, classes and constants a module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_used():
    # a use is a load of the bare name or an attribute of that name
    # (``numerics._haar``); a definition or an import alone is not one
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(module, name) for module in trees for name in _private_definitions(trees[module])]
    assert defined
    assert sorted(f"{module}: {name}" for module, name in defined if name not in used) == []


def _draw_decisions(tree: ast.Module) -> list[str]:
    """Calls that decide a seeded draw: any ``.normal`` or ``.standard_normal``, and ``np.linalg.qr``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if node.func.attr in ("normal", "standard_normal") or name == "np.linalg.qr":
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "numerics.py")
)
def test_every_seeded_draw_is_decided_in_numerics(module):
    # one module draws every complex Gaussian and orthonormalizes every Haar
    # draw, so a seeded draw has one definition
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _draw_decisions(tree) == []
