"""`import golazo` stays light: the heavy optional modules load only when a
function that needs them runs."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_heavy_modules():
    heavy = ("networkx", "scipy.sparse", "scipy.stats")
    probe = f"import sys, golazo; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
