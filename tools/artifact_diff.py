"""Differences between two artifact roots written by ``tools/artifact_digests.py``.

Usage: ``python tools/artifact_diff.py A B``

For every ``.csv`` and ``.npy`` file under both roots whose bytes differ,
prints the number of values that differ, the largest absolute difference,
also as a share of the file's largest value in A, and the largest relative
difference |b - a| / |a|, with A's value a as the reference, and that a
(a value that is 0 in A and not in B has relative difference inf; near a
zero of a fringe pattern the relative difference says little, and the
share of the largest value says more).  CSV cells are compared as numbers
where both parse as one and as text otherwise.  For every ``report.json``
whose entries differ, prints each differing entry ``path: a -> b``,
leaving out ``runtime_s`` as the digests do.  Files under one root only,
and other files whose bytes differ, are listed by name.  Prints ``no differences`` when every file
common to both roots has the same bytes and neither root has a file the
other lacks.  Otherwise the last line gives the largest |b - a| as a share
of its file's largest |a| over every differing ``.csv`` and ``.npy`` file,
and that file, so that a bound stated against each file's largest value
reads off one number.  Exits 0 in either case, and 2 on bad arguments.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np


def _files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _spread(a: np.ndarray, b: np.ndarray):
    """How many of the values differ, the largest |b - a|, also as a share
    of the largest |a|, and the largest |b - a| / |a| with the a it is at;
    and that share, 0 when no value differs."""
    a, b = a.ravel(), b.ravel()
    diff = np.abs(b - a)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(a))
        share = diff.max(initial=0.0) / np.abs(a).max(initial=0.0) if diff.any() else 0.0
    if not share:
        return f"0 of {a.size} values differ", share
    worst = int(np.argmax(rel))
    return (f"{np.count_nonzero(diff)} of {a.size} values differ, max abs {diff.max():.3g} "
            f"({share:.3g} of max |A|), max rel {rel[worst]:.3g} (at A = {a[worst]:.6g})"), share


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_line(a_bytes: bytes, b_bytes: bytes) -> str:
    rows_a = list(csv.reader(io.StringIO(a_bytes.decode())))
    rows_b = list(csv.reader(io.StringIO(b_bytes.decode())))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return f"shape differs: {len(rows_a)} vs {len(rows_b)} rows", None
    xs, ys, text = [], [], 0
    for cell_a, cell_b in ((x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)):
        num_a, num_b = _float(cell_a), _float(cell_b)
        if num_a is not None and num_b is not None:
            xs.append(num_a)
            ys.append(num_b)
        elif cell_a != cell_b:
            text += 1
    line, share = _spread(np.array(xs), np.array(ys))
    return line + (f"; {text} text cells differ" if text else ""), share


def _npy_line(a_path: Path, b_path: Path) -> str:
    a, b = np.load(a_path, allow_pickle=False), np.load(b_path, allow_pickle=False)
    if a.shape != b.shape:
        return f"shape differs: {a.shape} vs {b.shape}", None
    return _spread(a, b)


def _leaves(doc, path=""):
    """(path, value) of every leaf of a JSON document; a list element that
    is a report entry is labelled with its ``check``."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            label = f"{i}:{item['check']}" if isinstance(item, dict) and "check" in item else i
            yield from _leaves(item, f"{path}[{label}]")
    else:
        yield path, doc


def _report_lines(a_bytes: bytes, b_bytes: bytes) -> list[str]:
    docs = []
    for data in (a_bytes, b_bytes):
        doc = json.loads(data)
        doc.pop("runtime_s", None)
        docs.append(dict(_leaves(doc)))
    a, b = docs
    lines = []
    for key in [*a, *(key for key in b if key not in a)]:  # in document order
        va, vb = a.get(key, "<absent>"), b.get(key, "<absent>")
        if va == vb:
            continue
        line = f"{key}: {va!r} -> {vb!r}"
        numbers = [v for v in (va, vb) if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if len(numbers) == 2 and va != 0:
            line += f" (rel {abs(vb - va) / abs(va):.3g})"
        lines.append(line)
    return lines


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root_a, root_b = (Path(arg) for arg in argv)
    files_a, files_b = _files(root_a), _files(root_b)
    found = False
    largest = None  # (share, file) of the largest share of a file's max |A|
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only under {root_a if rel in files_a else root_b}")
        found = True
    for rel in sorted(files_a & files_b):
        a_path, b_path = root_a / rel, root_b / rel
        a_bytes, b_bytes = a_path.read_bytes(), b_path.read_bytes()
        if a_bytes == b_bytes:
            continue
        if rel.name == "report.json":
            lines = _report_lines(a_bytes, b_bytes)
            if lines:
                print(f"{rel}:")
                print("\n".join(f"  {line}" for line in lines))
                found = True
            continue
        found = True
        if rel.suffix not in (".csv", ".npy"):
            print(f"{rel}: bytes differ")
            continue
        if rel.suffix == ".csv":
            line, share = _csv_line(a_bytes, b_bytes)
        else:
            line, share = _npy_line(a_path, b_path)
        print(f"{rel}: {line}")
        if share is not None and (largest is None or share > largest[0]):
            largest = (share, rel)
    if not found:
        print("no differences")
    elif largest is None:
        print("largest share of max |A|: no .csv or .npy values compared")
    else:
        print(f"largest share of max |A|: {largest[0]:.3g} ({largest[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
