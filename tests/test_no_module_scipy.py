"""No module of the package imports scipy at module level.

scipy is imported inside the function that first needs it (a solve, an
entropy), so ``import kgeolab``, ``load_config`` and every exit-1 config
error run without loading it.  The scan is syntactic (``ast``), over every
module under ``src/kgeolab``: an import counts as module level unless it
sits in a function body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kgeolab"


def _run_at_import(node):
    """node and every node below it that is not inside a function."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_at_import(child)


def _is_scipy(name) -> bool:
    return name is not None and (name == "scipy" or name.startswith("scipy."))


def module_level_scipy_imports(root: Path = SRC) -> list:
    """file:line of every scipy import executed when a module under root is imported."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in _run_at_import(tree)
            if (isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0 and _is_scipy(node.module))
        ]
    return found


def test_package_imports_scipy_only_inside_functions():
    found = module_level_scipy_imports()
    assert found == [], f"scipy imported at module level; import it where it is first used: {found}"


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
        "    return xlogy(x, x)\n"
    )
    assert module_level_scipy_imports(tmp_path) == ["mod.py:2", "mod.py:4"]
