#!/usr/bin/env python3
"""Compare two trees of radsolve outputs field by field.

    python scripts/compare_reports.py A B

Files are paired by their path relative to the tree root: every ``*.json``
report, every ``*.csv`` solution file, and every file named ``exit_code``
(the exit status of the run whose outputs share its directory, written by
whatever drove the runs).  A file present in one tree only, a different exit
code, or any non-numeric difference (a string, a boolean, null against a
number, a changed key set, list length or CSV header) is printed and makes
the script exit 1.  Two strings that are equal once their numbers are masked
(as the note "... window (1, 6.33822)" is when a window end moves) are not a
non-numeric difference: their k-th numbers are compared on the field
``<field>#<k>``.

Numbers that moved are summarised per field, where a field is a JSON key path
with list indices collapsed to ``[]`` (prefixed by the file name) or a CSV
column (prefixed by ``csv:``), so one line covers every run.  Each line gives
the largest relative move |a - b| / max(|a|, |b|), the largest absolute move,
how many values moved, and where the largest relative move happened.
Moved numbers alone leave the exit status at 0.
"""

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path


class Comparison:
    def __init__(self):
        self.mismatches: list[str] = []
        self.moves: dict[str, list] = {}  # field -> [max_rel, max_abs, count, where]

    def mismatch(self, where: str, what: str) -> None:
        self.mismatches.append(f"{where}: {what}")

    def number(self, field: str, where: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        rel = diff / max(abs(a), abs(b)) if math.isfinite(diff) else math.inf
        entry = self.moves.setdefault(field, [0.0, 0.0, 0, ""])
        if rel > entry[0] or not entry[3]:
            entry[0], entry[3] = rel, where
        entry[1] = max(entry[1], diff)
        entry[2] += 1


# a number token as :g and repr print one, not inside a name such as u1 or f[0]
_NUMBER = re.compile(r"(?<![\w.])(?<!\w\[)[-+]?"
                     r"(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, where: str, field: str, cmp: Comparison) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                cmp.mismatch(f"{where}.{key}", f"only in {'B' if key not in a else 'A'}")
            else:
                _walk(a[key], b[key], f"{where}.{key}", f"{field}.{key}", cmp)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            cmp.mismatch(where, f"length {len(a)} -> {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", f"{field}[]", cmp)
    elif _is_number(a) and _is_number(b):
        cmp.number(field, where, float(a), float(b))
    elif (isinstance(a, str) and isinstance(b, str) and a != b
          and _NUMBER.sub("#", a) == _NUMBER.sub("#", b)):
        for k, (x, y) in enumerate(zip(_NUMBER.findall(a), _NUMBER.findall(b))):
            cmp.number(f"{field}#{k}", f"{where}#{k}", float(x), float(y))
    elif type(a) is not type(b) or a != b:
        cmp.mismatch(where, f"{a!r} -> {b!r}")


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(path_a: Path, path_b: Path, rel: str, cmp: Comparison) -> None:
    with path_a.open(newline="", encoding="utf-8") as fa, \
            path_b.open(newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        cmp.mismatch(rel, "CSV headers differ")
        return
    if len(rows_a) != len(rows_b):
        cmp.mismatch(rel, f"{len(rows_a) - 1} -> {len(rows_b) - 1} rows")
        return
    header = rows_a[0]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for col, x, y in zip(header, ra, rb):
            fx, fy = _as_float(x), _as_float(y)
            if fx is not None and fy is not None:
                cmp.number(f"csv:{col}", f"{rel}:{i}:{col}", fx, fy)
            elif x != y:
                cmp.mismatch(f"{rel}:{i}:{col}", f"{x!r} -> {y!r}")


def _tracked(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file() and (p.suffix in (".json", ".csv") or p.name == "exit_code")}


def compare(root_a: Path, root_b: Path) -> Comparison:
    cmp = Comparison()
    files_a, files_b = _tracked(root_a), _tracked(root_b)
    for rel in sorted(files_a ^ files_b):
        cmp.mismatch(rel, f"only in {'A' if rel in files_a else 'B'}")
    for rel in sorted(files_a & files_b):
        path_a, path_b = root_a / rel, root_b / rel
        if path_a.name == "exit_code":
            code_a, code_b = path_a.read_text().strip(), path_b.read_text().strip()
            if code_a != code_b:
                cmp.mismatch(rel, f"exit code {code_a} -> {code_b}")
        elif path_a.suffix == ".csv":
            _compare_csv(path_a, path_b, rel, cmp)
        else:
            doc_a = json.loads(path_a.read_text(encoding="utf-8"))
            doc_b = json.loads(path_b.read_text(encoding="utf-8"))
            _walk(doc_a, doc_b, rel, path_a.name, cmp)
    return cmp


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", type=Path, help="reference output tree")
    ap.add_argument("b", type=Path, help="output tree to compare against it")
    args = ap.parse_args()
    for root in (args.a, args.b):
        if not root.is_dir():
            ap.error(f"{root} is not a directory")

    cmp = compare(args.a, args.b)
    for line in cmp.mismatches:
        print(f"DIFF {line}")
    if cmp.moves:
        print(f"{'field':<60} {'max rel':>9} {'max abs':>9} {'moved':>7}  at")
    for field, (rel, diff, count, where) in sorted(cmp.moves.items(),
                                                   key=lambda kv: -kv[1][0]):
        print(f"{field:<60} {rel:9.2e} {diff:9.2e} {count:7d}  {where}")
    print(f"{len(_tracked(args.a))} files in A; {len(cmp.mismatches)} non-numeric "
          f"differences; {len(cmp.moves)} numeric fields moved")
    return 1 if cmp.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
