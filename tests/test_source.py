"""The package holds only code that the commands or the benchmark call,
every name that the benchmark looks up is still there, and one module
manages processes."""

import ast
import importlib
import os
import subprocess
import sys
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


# the calls that fork, reap and signal workers and carry their replies;
# cli's SIGTERM handler uses signal.signal, which is not among them
PROCESS_CALLS = {"os.fork", "os.pipe", "os.waitpid", "signal.pthread_sigmask",
                 "pickle"}


def _process_calls(path: Path) -> set:
    """The PROCESS_CALLS that path makes: os.fork as an attribute or an
    imported name, and pickle by any import."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found & PROCESS_CALLS


def test_only_the_pool_manages_processes():
    calls = {path.name: _process_calls(path) for path in SRC}
    pool = calls.pop("pool.py", set())
    assert {name: found for name, found in calls.items() if found} == {}
    assert pool == PROCESS_CALLS


def _bench_module(monkeypatch, name: str):
    """A module of bench/, imported as the harness imports it: beside spans."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module(name)


def test_every_function_the_traced_harness_wraps_exists(monkeypatch):
    # a stand-in tracer that wraps nothing and lists what it cannot find;
    # a deleted or renamed function would crash every traced run
    missing = []

    class Recorder:
        def patch(self, owner, attr, name, counts=None):
            if not hasattr(owner, attr):
                missing.append(f"{owner.__name__}.{attr}")

    _bench_module(monkeypatch, "traced_cli").install(Recorder(), {})
    assert missing == []


def test_the_benchmark_setup_probe_runs(monkeypatch, tmp_path):
    # it imports, resolves the config and resolves the profiles, as every
    # command does before its work
    probe = _bench_module(monkeypatch, "run").SETUP_PROBE
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe, "--seed", "1",
                           "--out", str(tmp_path / "out"), "train-eval"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.split()[-1]).resolve().parent == ROOT / "src" / "whisksim"
