"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "perstrees"


def module_names(tree):
    """The names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            for name in ast.walk(target) if target is not None else ():
                if isinstance(name, ast.Name):
                    yield name.id


def referenced(tree):
    """Every name a module reads, as a bare name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_referenced():
    # a private helper or constant that nothing reads is a leftover
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    used = {name for tree in trees.values() for name in referenced(tree)}
    unused = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path, tree in trees.items() for name in module_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    )
    assert len(trees) > 10 and unused == []
