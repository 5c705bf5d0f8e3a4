"""The package holds no code that only the tests reach.

Every public module-level function and class of ``src/symptok`` must be
referenced in code (a name, an attribute or an import) in ``src/``,
``scripts/`` or ``perfbench/*.py``; docstrings and comments do not count.
The benchmark names the functions it traces by strings, so the strings of
``perfbench/layers.py``'s ``TRACED`` count too.  A name that fails this
belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symptok"


def _references(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            names.update(part for const in ast.walk(node.value)
                         if isinstance(const, ast.Constant)
                         and isinstance(const.value, str)
                         for part in const.value.split("."))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    code = modules + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set()
    for path in code:
        referenced |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unreached = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in referenced]
    assert not unreached, f"only tests reach {unreached}; move them to tests/oracles.py"
