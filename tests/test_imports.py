"""`import golazo` stays light: the heavy optional modules load only when a
function that needs them runs.  The package itself imports only the
standard library, numpy and scipy, and declares only numpy and scipy."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy", "scipy"}


def test_import_loads_no_heavy_modules():
    heavy = ("networkx", "scipy.sparse", "scipy.stats")
    probe = f"import sys, golazo; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_looks_up_no_blas_library():
    # The bundled OpenBLAS libraries are looked up on the first CLI command.
    probe = "import golazo; print(golazo.linalg._blas_pools.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_package_imports_only_stdlib_numpy_scipy():
    # Every absolute import, function-local ones included; relative imports
    # stay inside the package.
    foreign = []
    for path in sorted((ROOT / "src" / "golazo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | RUNTIME]
    assert foreign == []


def test_declared_dependencies_are_numpy_and_scipy():
    # Read as text: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
             for spec in re.findall(r'"([^"]+)"', block)}
    assert names == RUNTIME
