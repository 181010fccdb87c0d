"""The package's import graph: scipy only inside functions, jsonschema nowhere.

scipy is imported inside the function that first needs it (a solve), so
``import kgeolab``, ``load_config`` and every exit-1 config error run
without loading it.  jsonschema is a test dependency only: the package
validates configs and reports with its own walker of the shipped schemas.
The scan is syntactic (``ast``), over every module under ``src/kgeolab``:
an import counts as module level unless it sits in a function body.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kgeolab"
ROOT = SRC.parents[1]


def _run_at_import(node):
    """node and every node below it that is not inside a function."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_at_import(child)


def _is_in(name, package) -> bool:
    return name is not None and (name == package or name.startswith(package + "."))


def imports_of(package: str, root: Path = SRC, anywhere: bool = False) -> list:
    """file:line of every import of package under root: run at module import, or anywhere."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = sorted(
            node.lineno
            for node in (ast.walk(tree) if anywhere else _run_at_import(tree))
            if (isinstance(node, ast.Import) and any(_is_in(a.name, package) for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and _is_in(node.module, package))
        )
        found += [f"{path.relative_to(root)}:{line}" for line in lines]
    return found


def test_package_imports_scipy_only_inside_functions():
    found = imports_of("scipy")
    assert found == [], f"scipy imported at module level; import it where it is first used: {found}"


def test_package_never_imports_jsonschema():
    found = imports_of("jsonschema", anywhere=True)
    assert found == [], f"jsonschema is a test dependency only: {found}"


def test_scan_finds_a_module_level_scipy_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy\n"
        "from scipy import sparse\n"
        "try:\n"
        "    import scipy.linalg as la\n"
        "except ImportError:\n"
        "    la = None\n"
        "\n"
        "\n"
        "def f(x):\n"
        "    from scipy.special import xlogy\n"
        "    import jsonschema.exceptions\n"
        "    return xlogy(x, x)\n"
    )
    assert imports_of("scipy", tmp_path) == ["mod.py:2", "mod.py:4"]
    assert imports_of("scipy", tmp_path, anywhere=True) == ["mod.py:2", "mod.py:4", "mod.py:10"]
    assert imports_of("jsonschema", tmp_path) == []
    assert imports_of("jsonschema", tmp_path, anywhere=True) == ["mod.py:11"]
    assert imports_of("scip", tmp_path, anywhere=True) == []  # a package, not a name prefix


def test_cli_loads_and_runs_without_jsonschema(tmp_path):
    """Import and load_config load neither scipy nor jsonschema; geodesic runs with jsonschema blocked."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"n_points": 64},
        "time": {"n_time": 8},
        "endpoints": {"endpoint_0": [], "endpoint_1": [[1, 0.05 / (2.0 * math.pi) ** 2, 0.0]]},
        "epsilons": [0.1, 0.01],
    }))
    loaded = (
        "import sys\n"
        "import kgeolab.cli as cli\n"
        f"cli.load_config({str(ROOT / 'configs' / 'canonical.json')!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    done = subprocess.run([sys.executable, "-c", loaded], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"

    blocked = (
        "import sys\n"
        "sys.modules['jsonschema'] = None  # any import of it raises ImportError\n"
        "from kgeolab.cli import main\n"
        f"sys.exit(main(['geodesic', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", blocked], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "geodesic_report.json").is_file()
