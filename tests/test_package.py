import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import distparse

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that finds the package under src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


def test_each_submodule_imports_on_its_own():
    # __main__ runs the command line on import
    names = sorted(
        m.name for m in pkgutil.iter_modules(distparse.__path__) if m.name != "__main__"
    )
    assert {"binarize", "cli", "codec"} <= set(names)
    for name in names:
        result = _run(f"import distparse.{name}")
        assert result.returncode == 0, f"distparse.{name}:\n{result.stderr}"

    result = _run(
        "import inspect, distparse.binarize as b\n"
        "assert inspect.ismodule(b), b\n"
        "assert callable(b.binarize) and callable(b.debinarize)\n"
    )
    assert result.returncode == 0, result.stderr


def test_every_imported_name_is_used():
    # a standard-library stand-in for a linter's unused-import rule, so
    # that deleting code leaves no import behind
    unused = []
    for path in sorted((SRC / "distparse").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # ``import a.b`` binds ``a``
                    imported[alias.asname or alias.name.partition(".")[0]] = node
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {name}"
            for name, node in imported.items()
            if name not in used
        ]
    assert unused == []


def test_every_private_module_name_is_used():
    # a module-level ``_name`` is the module's own helper, so a module
    # that never reads it holds dead code
    unused = []
    for path in sorted((SRC / "distparse").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined[name.id] = node
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{node.lineno}: {name}"
            for name, node in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in used
        ]
    assert unused == []
