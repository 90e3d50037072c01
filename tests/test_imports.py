"""Every name a pidf module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

import pidf

MODULES = sorted(Path(pidf.__file__).parent.glob("*.py"))


def imported_names(tree):
    """The names a module's import statements bind, __future__ aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree):
    """The names a module reads: in code, in quoted annotations, and as the
    strings of its __all__."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def test_every_public_name_resolves_once():
    """``from pidf import *`` reads __all__, so a stale entry for a deleted
    name breaks it."""
    assert len(pidf.__all__) == len(set(pidf.__all__))
    assert [name for name in pidf.__all__ if not hasattr(pidf, name)] == []
