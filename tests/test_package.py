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
