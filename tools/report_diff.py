"""Compare two kolpot output directories, report by report.

    python tools/report_diff.py OLD NEW

For every ``.json`` and ``.csv`` file in either directory it prints, per
numeric field (list indices folded to ``[*]``), the largest absolute change
|a - b| and the largest relative change |a - b| / max(|a|, |b|) over the
field's occurrences (each its own maximum), and it lists every bool,
string or list field that differs, every field found on one side only and
every file missing from one side.  Lists of numbers compare element by element;
other lists of scalars, such as ``flags``, compare as a whole.  A residue near
0, such as a mean-value deviation at quadrature level, can change by a
relative 1 while its absolute change stays at rounding level; the absolute
column tells the two apart.

Exit codes: 0 when only numbers changed, 1 when a non-numeric field differs or
a file is missing, 2 on a usage error.  A reader that stops early, such as
``| head``, changes neither the exit code nor the comparison.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from pathlib import Path


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _flatten(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict) and obj:
        for key, val in obj.items():
            _flatten(val, f"{path}.{key}" if path else str(key), out)
    elif isinstance(obj, list) and obj and (all(_is_number(v) for v in obj)
                                            or any(isinstance(v, (dict, list)) for v in obj)):
        for k, val in enumerate(obj):
            _flatten(val, f"{path}[{k}]", out)
    else:
        out[path] = obj


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        pass
    try:
        # cli._write_csv writes dicts and lists as JSON with ";" for ","
        return json.loads(text.replace(";", ","))
    except ValueError:
        return text


def _load(path: Path) -> dict:
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
    else:
        with path.open(newline="") as fh:
            obj = [{k: _csv_cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    out: dict = {}
    _flatten(obj, "", out)
    return out


def _change(a: float, b: float) -> tuple[float, float]:
    """(|a - b|, |a - b| / max(|a|, |b|))."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b), abs(a - b) / max(abs(a), abs(b))


def compare_file(old: Path, new: Path) -> tuple[dict, list[str]]:
    """Largest (absolute, relative) change per numeric field, and the non-numeric
    differences."""
    a, b = _load(old), _load(new)
    changes: dict[str, tuple[float, float]] = {}
    differ = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b or key not in a:
            side = "OLD" if key in a else "NEW"
            differ.append(f"{key}: only in {side} ({json.dumps(a.get(key, b.get(key)))})")
        elif _is_number(a[key]) and _is_number(b[key]):
            field = re.sub(r"\[\d+\]", "[*]", key)
            prev = changes.get(field, (0.0, 0.0))
            changes[field] = tuple(map(max, prev, _change(a[key], b[key])))
        elif a[key] != b[key]:
            differ.append(f"{key}: {json.dumps(a[key])} -> {json.dumps(b[key])}")
    return changes, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            parser.error(f"not a directory: {d}")
    names = sorted({p.name for d in (args.old, args.new) for p in d.iterdir()
                    if p.suffix in (".json", ".csv")})
    failed = False
    lines = ["  max |a-b|  max rel    field"]
    for name in names:
        old, new = args.old / name, args.new / name
        if not (old.is_file() and new.is_file()):
            lines.append(f"{name}: missing in {'NEW' if old.is_file() else 'OLD'}")
            failed = True
            continue
        changes, differ = compare_file(old, new)
        lines.append(name)
        for field, (absolute, rel) in sorted(changes.items(), key=lambda kv: (-kv[1][1], kv[0])):
            lines.append(f"  {absolute:9.2e}  {rel:9.2e}  {field}")
        lines.extend(f"  DIFFERS    {line}" for line in differ)
        failed = failed or bool(differ)
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe: send what is left to /dev/null, so that
        # the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
