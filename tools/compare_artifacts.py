#!/usr/bin/env python3
"""Classify two kgeolab artifact trees as byte-identical, round-off equivalent or different.

    python3 tools/compare_artifacts.py PARENT_DIR CHANGE_DIR

Both directories hold the output of the same command on the same config,
run by two versions of the program.  The verdict is printed on the last
line and sets the exit status: 0 for ``byte-identical`` and
``round-off-equivalent``, 1 for ``different``, 2 for a usage error.

* **byte-identical**: the same file set, and every file has the same bytes,
  except the top-level ``timestamp`` of a JSON report.
* **round-off-equivalent**: every file that is not byte-identical differs
  only by what a change of floating-point evaluation order can cause:

  - the same file set, CSV headers and row lengths, JSON keys, value types
    and list lengths;
  - every string, boolean and integer equal, so ``passed`` and ``pass``
    flags, check counts, control counts and Newton iteration counts do not
    move;
  - CSV numeric cells within an absolute ``CSV_ABS``, except the ``margin``
    column of ``verify_results.csv``, which repeats the verify margins of
    ``verify_report.json`` and is compared like them;
  - JSON floats within ``JSON_REL * max(|a|, |b|) + JSON_ABS``;
  - residual fields (``residual_sup``, ``residual_sups``, ``residuals``)
    are not compared with each other: every value on both sides must stay
    at or below ``RESIDUAL_CAP``, the largest solver tolerance.

* **different**: anything else.

The tool uses numpy and the standard library only and imports no kgeolab
code, so it judges a change with nothing the change can alter.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

#: absolute bound on a CSV numeric cell (solved fields, traces, bound samples)
CSV_ABS = 1e-12
#: relative and absolute parts of the bound on a JSON float
JSON_REL = 1e-9
JSON_ABS = 1e-12
#: residual fields need only stay at or below the largest solver tolerance
RESIDUAL_CAP = 1e-10
RESIDUAL_KEYS = frozenset({"residual_sup", "residual_sups", "residuals"})
#: the CSV column that repeats the JSON verify margins: (file name, column)
MARGIN_COLUMN = ("verify_results.csv", "margin")
#: problems listed before the verdict
MAX_LISTED = 20


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _load_json(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc.pop("timestamp", None)
    return doc


def _float_close(a: float, b: float, rel: float, abs_: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _residuals_capped(value, where: str, problems: list) -> None:
    """Every number in a residual field must be a finite value <= RESIDUAL_CAP."""
    arr = np.asarray(value, dtype=float)
    bad = ~(np.abs(arr) <= RESIDUAL_CAP)
    if np.any(bad):
        problems.append(f"{where}: residual {float(np.max(np.abs(arr))):.3e} above {RESIDUAL_CAP:g}")


def _shape(value):
    """Nesting of lists and their lengths, for residual fields."""
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return type(value).__name__


def compare_json(a, b, where: str, problems: list) -> None:
    """Append a line to problems for every difference beyond round-off."""
    if type(a) is not type(b):
        problems.append(f"{where}: type {type(a).__name__} vs {type(b).__name__}")
    elif isinstance(a, dict):
        if set(a) != set(b):
            problems.append(f"{where}: keys differ: {sorted(set(a) ^ set(b))}")
            return
        for key in sorted(a):
            sub = f"{where}.{key}"
            if key in RESIDUAL_KEYS:
                if _shape(a[key]) != _shape(b[key]):
                    problems.append(f"{sub}: residual field shapes differ")
                else:
                    _residuals_capped(a[key], sub + " (parent)", problems)
                    _residuals_capped(b[key], sub + " (change)", problems)
            else:
                compare_json(a[key], b[key], sub, problems)
    elif isinstance(a, list):
        if len(a) != len(b):
            problems.append(f"{where}: list length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, f"{where}[{i}]", problems)
    elif isinstance(a, float):
        if not _float_close(a, b, JSON_REL, JSON_ABS):
            problems.append(f"{where}: {a!r} vs {b!r}")
    elif a != b:
        problems.append(f"{where}: {a!r} vs {b!r}")


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(name: str, text_a: str, text_b: str, problems: list) -> None:
    rows_a = list(csv.reader(io.StringIO(text_a)))
    rows_b = list(csv.reader(io.StringIO(text_b)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        problems.append(f"{name}: CSV headers differ")
        return
    if len(rows_a) != len(rows_b):
        problems.append(f"{name}: {len(rows_a)} vs {len(rows_b)} rows")
        return
    header = rows_a[0]
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if len(ra) != len(rb):
            problems.append(f"{name}:{r}: {len(ra)} vs {len(rb)} cells")
            continue
        for c, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            fx, fy = _as_float(x), _as_float(y)
            column = header[c] if c < len(header) else str(c)
            if fx is None or fy is None:
                problems.append(f"{name}:{r}:{column}: {x!r} vs {y!r}")
            elif (Path(name).name, column) == MARGIN_COLUMN:
                if not _float_close(fx, fy, JSON_REL, JSON_ABS):
                    problems.append(f"{name}:{r}:{column}: margin {x} vs {y}")
            elif not _float_close(fx, fy, 0.0, CSV_ABS):
                problems.append(f"{name}:{r}:{column}: {x} vs {y} (|diff| {abs(fx - fy):.3e})")


def compare_trees(parent: Path, change: Path) -> tuple:
    """(verdict, problems): problems is empty unless the verdict is 'different'."""
    files_a, files_b = _files(parent), _files(change)
    problems = []
    if files_a != files_b:
        for name in sorted(files_a - files_b):
            problems.append(f"{name}: only in {parent}")
        for name in sorted(files_b - files_a):
            problems.append(f"{name}: only in {change}")
        return "different", problems
    identical = True
    for name in sorted(files_a):
        pa, pb = parent / name, change / name
        raw_a, raw_b = pa.read_bytes(), pb.read_bytes()
        if raw_a == raw_b:
            continue
        if name.endswith(".json"):
            doc_a, doc_b = _load_json(pa), _load_json(pb)
            if json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True):
                continue
            identical = False
            compare_json(doc_a, doc_b, name, problems)
        elif name.endswith(".csv"):
            identical = False
            compare_csv(name, raw_a.decode("utf-8"), raw_b.decode("utf-8"), problems)
        else:
            identical = False
            problems.append(f"{name}: bytes differ")
    if problems:
        return "different", problems
    return ("byte-identical" if identical else "round-off-equivalent"), []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)
    for d in (args.parent_dir, args.change_dir):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    verdict, problems = compare_trees(args.parent_dir, args.change_dir)
    for line in problems[:MAX_LISTED]:
        print(line)
    if len(problems) > MAX_LISTED:
        print(f"... and {len(problems) - MAX_LISTED} more")
    print(verdict)
    return 0 if verdict != "different" else 1


if __name__ == "__main__":
    sys.exit(main())
