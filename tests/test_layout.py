"""The package holds no code that only the tests reach.

Every public module-level function and class of ``src/symptok``, and every
public method and property of such a class, must be referenced in code (a
name, an attribute or an import) in ``src/``, ``scripts/`` or
``perfbench/*.py``; docstrings and comments do not count.  The benchmark
names the functions it traces by strings, so the strings of
``perfbench/layers.py``'s ``TRACED`` count too.  A function or class that
fails this belongs in ``tests/oracles.py``; a method that fails it is
deleted, or rewritten there as a function.  Dunder methods are called by
syntax, not by name, so no scan of names can find their callers.

Every public module-level function that takes a rank ``n`` must have a case
in ``test_shapes.RANK_TAKERS``, the table of calls that must refuse a rank
that is not an int of at least 1.

Every ``(module, attribute)`` that ``perfbench/layers.py`` traces must
resolve the way its tracer resolves it, so that renaming or removing one
fails here rather than in a traced benchmark run.

The shifted shape rule is named once, in the family rule table of
``weights``, so no step callback checks shapes itself.
"""

import ast
import importlib
import importlib.util
import sys
from functools import lru_cache
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


MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def _referenced() -> frozenset:
    code = MODULES + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    return frozenset().union(*(_references(_tree(path)) for path in code))


def _public(nodes, kinds) -> list:
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_name_has_a_caller_outside_the_tests():
    unreached = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in _public(_tree(path).body, (ast.FunctionDef, ast.ClassDef))
        if node.name not in _referenced()]
    assert not unreached, f"only tests reach {unreached}; move them to tests/oracles.py"


def test_every_public_method_has_a_caller_outside_the_tests():
    unreached = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in MODULES
        for cls in _public(_tree(path).body, ast.ClassDef)
        for node in _public(cls.body, ast.FunctionDef)
        if node.name not in _referenced()]
    assert not unreached, f"only tests reach {unreached}; delete them"


def test_every_rank_taker_is_in_the_refusal_table():
    from test_shapes import RANK_TAKERS

    takers = {
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in _public(_tree(path).body, ast.FunctionDef)
        if "n" in {a.arg for a in node.args.posonlyargs + node.args.args
                   + node.args.kwonlyargs}}
    assert takers == set(RANK_TAKERS), (
        f"missing from RANK_TAKERS: {sorted(takers - set(RANK_TAKERS))}; "
        f"no rank n: {sorted(set(RANK_TAKERS) - takers)}")


def _traced() -> tuple:
    """perfbench/layers.py's TRACED, read by importing the file (and the
    spans module it imports) without changing it."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                      ROOT / "perfbench" / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(bench)
    return layers.TRACED


def test_every_traced_name_resolves_as_the_tracer_resolves_it():
    # spans.Tracer.install reads vars(module)[attr], or vars(Class)[method]
    # of getattr(module, Class) for "Class.method"
    unresolved = []
    for module, attr, *_ in _traced():
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        if owner is None or attr not in vars(owner):
            unresolved.append(f"{module}.{attr}")
    assert not unresolved, f"the benchmark traces names that are gone: {unresolved}"


def test_each_shape_rule_is_named_once_and_no_callback_checks_shapes():
    # the shifted shape rule is written into the family rule table and read
    # nowhere else: the engine checks it once per shape, so a step callback
    # that checked it too would pay again on every step
    named = [(path.stem, node.lineno) for path in MODULES
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Name) and node.id == "_shifted_step"
             or isinstance(node, ast.Attribute) and node.attr == "_shifted_step"]
    assert len(named) == 1, named
    [table] = [node for node in _tree(PACKAGE / "weights.py").body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["_SHAPE_RULES"]]
    [(stem, line)] = named
    assert stem == "weights" and table.lineno <= line <= table.end_lineno
