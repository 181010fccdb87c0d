"""tools/compare_artifacts.py on synthetic artifact trees."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)

PATH_ROWS = [
    "s,x0,x1,x2",
    "0.0,0.0,0.001,-0.002",
    "0.5,-0.0125,0.0105,-0.0045",
    "1.0,0.0,0.02,-0.003",
]


def _report(**overrides):
    doc = {
        "timestamp": "2026-01-01T00:00:00+00:00",
        "passed": True,
        "counts": {"controls": 12, "passed": 49, "total": 49},
        "margins": [0.0645700923089842, 1.2345678901234567],
        "residual_sups": [3.1e-13, 8.0e-13],
        "newton_iters": [3, 2],
    }
    doc.update(overrides)
    return doc


def _tree(root: Path, rows=PATH_ROWS, report=None) -> Path:
    root.mkdir()
    (root / "geodesic_path_eps00.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = _report() if report is None else report
    (root / "verify_report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (root / "verify_results.csv").write_text(
        "name,pass,margin\nentropy,true,0.0645700923089842\n", encoding="utf-8"
    )
    return root


def _verdict(a: Path, b: Path) -> str:
    return compare_artifacts.compare_trees(a, b)[0]


def test_identical_trees(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert _verdict(a, b) == "byte-identical"


def test_timestamp_only_is_byte_identical(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", report=_report(timestamp="2027-06-30T12:00:00+00:00"))
    assert _verdict(a, b) == "byte-identical"


def test_roundoff_cell_change(tmp_path):
    rows = list(PATH_ROWS)
    rows[2] = "0.5,-0.012500000000001,0.0105,-0.0045"  # 1e-15 off
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", rows=rows)
    assert _verdict(a, b) == "round-off-equivalent"


def test_roundoff_margin_and_residual_change(tmp_path):
    report = _report(margins=[0.0645700923089842 * (1 + 2e-10), 1.2345678901234567],
                     residual_sups=[9.0e-11, 4.4e-13])
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", report=report)
    assert _verdict(a, b) == "round-off-equivalent"


def test_large_cell_change_is_different(tmp_path):
    rows = list(PATH_ROWS)
    rows[2] = "0.5,-0.012500001,0.0105,-0.0045"  # 1e-9 off
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", rows=rows)
    verdict, problems = compare_artifacts.compare_trees(a, b)
    assert verdict == "different"
    assert any("geodesic_path_eps00.csv:3:x0" in p for p in problems)


def test_flipped_passed_is_different(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", report=_report(passed=False))
    assert _verdict(a, b) == "different"


def test_missing_file_is_different(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "verify_results.csv").unlink()
    verdict, problems = compare_artifacts.compare_trees(a, b)
    assert verdict == "different"
    assert problems == [f"verify_results.csv: only in {a}"]


def test_extra_key_is_different(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", report=_report(extra=1.0))
    assert _verdict(a, b) == "different"


@pytest.mark.parametrize(
    "report",
    [
        _report(counts={"controls": 11, "passed": 49, "total": 49}),
        _report(newton_iters=[3, 3]),
        _report(residual_sups=[3.1e-13, 2.0e-10]),
        _report(margins=[0.0645700923089842 * (1 + 1e-8), 1.2345678901234567]),
    ],
    ids=["controls", "iterations", "residual-above-cap", "margin"],
)
def test_counts_residual_cap_and_margins(tmp_path, report):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", report=report)
    assert _verdict(a, b) == "different"


def test_exit_status(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", report=_report(passed=False))
    same = subprocess.run([sys.executable, str(TOOL), str(a), str(a)], capture_output=True, text=True)
    diff = subprocess.run([sys.executable, str(TOOL), str(a), str(b)], capture_output=True, text=True)
    assert (same.returncode, same.stdout.splitlines()[-1]) == (0, "byte-identical")
    assert (diff.returncode, diff.stdout.splitlines()[-1]) == (1, "different")
