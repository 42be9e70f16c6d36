"""The package holds only code that the commands or the benchmark call."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "whisksim").glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(paths) -> set:
    """Every name these files use: a bare name, an attribute, an imported
    name or a whole string constant (the benchmark patches functions by
    their names as strings). A def or class statement defines its name
    without using it, and a docstring never equals one."""
    used = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def _definitions(path: Path) -> list:
    return [node.name for node in ast.walk(_tree(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_the_source_is_found():
    assert len(SRC) >= 8
    assert (ROOT / "bench" / "traced_cli.py").is_file()


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_definition_is_used_outside_the_tests(path):
    used = _references(SRC + sorted((ROOT / "bench").glob("*.py")))
    unused = [name for name in _definitions(path) if name not in used]
    assert unused == [], f"{path.name} defines names only tests use: {unused}"


def _unused_imports(path: Path) -> list:
    """Names that path's module-level imports bind but the file never uses
    (`from __future__` imports aside)."""
    tree = _tree(path)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    unused = _unused_imports(path)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, os.path as osp\nimport numpy as np\n"
                      "from .pipeline import Dataset, FEATURE_WIDTH\n"
                      "def f(d: Dataset):\n    return np.zeros(os.cpu_count())\n")
    assert _unused_imports(module) == ["osp", "FEATURE_WIDTH"]
