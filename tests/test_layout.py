"""Library code serves the system: every function, class and method in
``src/tklwb`` is named outside its own body, in the package or in the
benchmark under ``perfbench/``, or it is exported in ``tklwb.__all__``.
Code that only the tests call belongs in ``tests/``."""

import ast
from collections import Counter
from pathlib import Path

import tklwb

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tklwb"
BENCHMARK = ROOT / "perfbench"
EXEMPT = {"cli.main"}  # the console script


def names(tree) -> Counter:
    """How often each name is referred to in a tree: as a variable, an
    attribute or a whole string (``getattr`` and the benchmark's wrappers
    name functions by string).  Bare string statements are docstrings."""
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and id(node) not in bare:
            found[node.value] += 1
    return found


def definitions(tree, prefix):
    """``(qualified name, node)`` for every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            yield qualified, node
            yield from definitions(node, qualified)


def unreferenced() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARK.glob("*.py"))
    }
    total = sum((names(tree) for tree in trees.values()), Counter())
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, node in definitions(trees[path], path.stem):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualified in EXEMPT or name in tklwb.__all__:
                continue
            if total[name] - names(node)[name] <= 0:
                out.append(qualified)
    return out


def test_every_definition_serves_the_system():
    assert unreferenced() == []

