"""The package's import graph: neither scipy nor jsonschema, anywhere, and no numpy.random.

scipy and jsonschema are test dependencies only.  The package factors its
sparse systems with numpy (nested dissection for the space-time Jacobian,
cyclic reduction for the fiber step) and validates configs and reports with
its own walker of the shipped schemas.  The scan is syntactic (``ast``),
over every module under ``src/kgeolab``, and counts imports inside function
bodies too.  verify draws its test data from the stdlib ``random.Random``:
numpy.random would load nine extension modules and, through ``secrets``,
``hashlib`` with OpenSSL, for 120 draws and two noise fields.
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


def _is_in(name, package) -> bool:
    return name is not None and (name == package or name.startswith(package + "."))


def imports_of(package: str, root: Path = SRC) -> list:
    """file:line of every import of package under root, at module level or inside a function."""
    found = []
    for path in sorted(root.rglob("*.py")):
        lines = sorted(
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Import) and any(_is_in(a.name, package) for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and _is_in(node.module, package))
        )
        found += [f"{path.relative_to(root)}:{line}" for line in lines]
    return found


def numpy_random_uses(root: Path = SRC) -> list:
    """file:line of every import of numpy.random and every np.random or numpy.random attribute under root."""
    found = []
    for path in sorted(root.rglob("*.py")):
        lines = sorted(
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Import) and any(_is_in(a.name, "numpy.random") for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and (
                _is_in(node.module, "numpy.random")
                or (node.module == "numpy" and any(a.name == "random" for a in node.names))
            ))
            or (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        )
        found += [f"{path.relative_to(root)}:{line}" for line in lines]
    return found


def test_package_never_uses_numpy_random():
    found = numpy_random_uses()
    assert found == [], f"verify draws from random.Random: {found}"


def test_scan_finds_numpy_random_uses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "import random\n"
        "rng = np.random.default_rng(0)\n"
        "from numpy import random as npr\n"
        "import numpy.random\n"
        "from numpy.random import default_rng\n"
        "x = random.Random(0).random()\n"
        "y = numpy.random.rand()\n"
    )
    assert numpy_random_uses(tmp_path) == ["mod.py:3", "mod.py:4", "mod.py:5", "mod.py:6", "mod.py:8"]


def test_verify_runs_with_numpy_random_secrets_and_hashlib_blocked(tmp_path):
    """verify --suite all on the canonical config exits 0 with numpy.random, secrets and hashlib
    unimportable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    blocked = (
        "import sys\n"
        "for name in ('numpy.random', 'secrets', 'hashlib'):\n"
        "    sys.modules[name] = None  # any import of it raises ImportError\n"
        "from kgeolab.cli import main\n"
        f"sys.exit(main(['verify', '--suite', 'all', '--config', {str(ROOT / 'configs' / 'canonical.json')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", blocked], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "verify_results.csv").is_file()


def test_package_never_imports_scipy():
    found = imports_of("scipy")
    assert found == [], f"scipy is a test dependency only: {found}"


def test_package_never_imports_jsonschema():
    found = imports_of("jsonschema")
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
    assert imports_of("scipy", tmp_path) == ["mod.py:2", "mod.py:4", "mod.py:10"]
    assert imports_of("jsonschema", tmp_path) == ["mod.py:11"]
    assert imports_of("scip", tmp_path) == []  # a package, not a name prefix


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
