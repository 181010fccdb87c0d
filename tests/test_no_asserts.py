"""No assert statement in the package.

Asserts vanish under ``python -O``, so a check that guards a result must
raise a typed error instead.  The scan is syntactic (``ast``), over every
module under ``src/kgeolab``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kgeolab"


def assert_statements(root: Path = SRC) -> list:
    """file:line of every assert statement in the modules under root."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    return found


def test_package_has_no_assert_statements():
    found = assert_statements()
    assert found == [], f"assert statements vanish under python -O; raise a typed error: {found}"


def test_scan_finds_an_assert(tmp_path):
    (tmp_path / "mod.py").write_text("def f(x):\n    if x:\n        assert x > 0\n    return x\n")
    assert assert_statements(tmp_path) == ["mod.py:3"]
