"""`import golazo` stays light: the heavy optional modules load only when a
function that needs them runs.  The package itself imports only the
standard library, numpy and scipy, and declares only numpy and scipy."""
import ast
import json
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


def test_modules_use_every_name_they_import():
    # __init__ imports to re-export, so it is left out.  A name counts as
    # used when it is read anywhere in the module, annotations included.
    unused = []
    for path in sorted((ROOT / "src" / "golazo").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


PUBLIC_NAMES = [
    "BoxQP", "EDGE_THRESHOLD", "EbicConfig", "FitResult", "GraphSpec",
    "MdeResult", "PathResult", "PenaltyBounds", "SolverConfig", "asymmetric_bounds",
    "boxqp", "cholesky_logdet", "clip_to_finite", "data",
    "dual_mle_edge_positivity", "dual_positivity_bounds", "duality_gap", "ebic",
    "errors", "estimators", "fit", "fit_path", "gaussian_neg_loglik", "ggm_bounds",
    "ggm_mle", "glasso_bounds", "golazo_norm", "invert_pd", "is_locally_associated",
    "is_m_matrix", "is_markov", "kendall_tau_matrix", "kkt_residuals", "linalg", "mde",
    "mtp2_bounds", "nearest_correlation", "penalty", "positive_glasso_bounds",
    "sample_covariance", "sample_locally_associated", "selection",
    "skeptic_correlation", "solve_boxqp", "solver", "to_correlation",
]


# Parameter names of every exported function, in order.
PUBLIC_PARAMETERS = {
    "asymmetric_bounds": ["rho_neg", "rho_pos", "d"],
    "cholesky_logdet": ["a"],
    "clip_to_finite": ["bounds", "s"],
    "dual_mle_edge_positivity": ["khat", "graph", "config"],
    "dual_positivity_bounds": ["graph"],
    "duality_gap": ["s", "k", "bounds"],
    "ebic": ["s", "fit_result", "n", "gamma"],
    "fit": ["s", "bounds", "config", "screen", "start"],
    "fit_path": ["s", "base_bounds", "config", "solver_config"],
    "gaussian_neg_loglik": ["s", "k"],
    "ggm_bounds": ["graph"],
    "ggm_mle": ["s", "graph", "config"],
    "glasso_bounds": ["rho", "d"],
    "golazo_norm": ["k", "bounds"],
    "invert_pd": ["a"],
    "is_locally_associated": ["sigma", "graph", "tol"],
    "is_m_matrix": ["k", "tol"],
    "is_markov": ["k", "graph", "tol"],
    "kendall_tau_matrix": ["x"],
    "kkt_residuals": ["s", "result", "bounds"],
    "mde": ["s", "graph", "config"],
    "mtp2_bounds": ["d"],
    "nearest_correlation": ["r"],
    "positive_glasso_bounds": ["rho", "d"],
    "sample_covariance": ["x"],
    "sample_locally_associated": ["graph", "seed"],
    "skeptic_correlation": ["x"],
    "solve_boxqp": ["problem", "state", "tol", "max_iter", "point"],
    "to_correlation": ["s"],
}

# Public fields, methods and properties of every exported class, sorted.
PUBLIC_ATTRIBUTES = {
    "BoxQP": ["a", "lower", "movable", "upper"],
    "EbicConfig": ["gamma", "grid", "n"],
    "FitResult": ["dual_gap", "edge_count", "edges", "gap_trace", "isolated_rows", "khat",
                  "sigma_hat", "sign_pattern", "sweeps"],
    "GraphSpec": ["adjacency", "chain", "complement", "d", "edges", "from_support",
                  "sorted_edges"],
    "MdeResult": ["conditions_report", "kcheck", "khat", "sigma_check", "sigma_hat"],
    "PathResult": ["dual_gaps", "ebic_scores", "edge_counts", "failures", "selected_fit",
                   "selected_index"],
    "PenaltyBounds": ["dim", "lower", "scaled", "upper"],
    "SolverConfig": ["dual_gap_tol", "max_sweeps"],
}

_SURFACE_PROBE = """
import dataclasses, inspect, json, golazo
public = {n: v for n, v in vars(golazo).items() if not n.startswith("_")}
def attributes(cls):
    # Fields without a default are not class attributes, so dir() misses them.
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return sorted(fields | {a for a in dir(cls) if not a.startswith("_")})
print(json.dumps({
    "names": sorted(public),
    "parameters": {n: list(inspect.signature(v).parameters)
                   for n, v in public.items() if inspect.isfunction(v)},
    "attributes": {n: attributes(v) for n, v in public.items() if inspect.isclass(v)},
}))
"""


def test_public_names_are_pinned():
    # A fresh interpreter: importing golazo.cli elsewhere in the test run
    # would add ``cli``.  Adding or removing a public name, a parameter of
    # an exported function or an attribute of an exported class means
    # editing the lists above, so the change shows up in review.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _SURFACE_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    surface = json.loads(done.stdout)
    assert surface["names"] == PUBLIC_NAMES
    assert surface["parameters"] == PUBLIC_PARAMETERS
    assert surface["attributes"] == PUBLIC_ATTRIBUTES
