"""Measure how far the benchmark's artifacts move between two checkouts.

    python3 tools/artifact_drift.py --seed N --root OLD

Writes every artifact of the four workloads at ``--seed`` twice, once with
``OLD``'s ``src/`` and once with that of the checkout holding this file.
Each tree runs in its own child process,
``tools/artifact_digests.py --keep``, with one OpenBLAS thread. For each
artifact whose bytes differ it prints

    workload index kind  max_abs A (LEAF)  max_rel R (LEAF)

over the numbers the two artifacts hold: the numeric leaves of a JSON
artifact, every CSV cell (a ``weights_json`` cell is parsed as JSON), and
the numbers written inside text, such as a ``verify`` check's detail. The
relative difference is |a - b| / max(|a|, |b|). A closing table gives the
same maxima per leaf over all artifacts.

A structural difference is reported as ``STRUCTURE`` and makes the tool
exit 1: a different exit code, JSON key, list length, CSV row or cell count,
or any difference outside the numbers (text, or a number in place of text).
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
# A decimal number standing on its own inside text (not the 0 of "g0").
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


class Structural(Exception):
    """The two artifacts differ in something other than their numbers."""


def _cell(text: str):
    """A CSV cell as the value it holds: a number, a JSON list, or text."""
    try:
        return float(text)
    except ValueError:
        return json.loads(text) if text.startswith("[") else text


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(old, new, where: str):
    """Yield ``(leaf, old, new)`` for each pair of numbers the two values hold."""
    if _is_number(old) and _is_number(new):
        yield where, float(old), float(new)
    elif type(old) is not type(new):
        raise Structural(f"{where}: {old!r} vs {new!r}")
    elif isinstance(old, dict):
        if list(old) != list(new):
            raise Structural(f"{where}: keys {list(old)} vs {list(new)}")
        for key in old:
            yield from _numbers(old[key], new[key], f"{where}.{key}" if where else key)
    elif isinstance(old, list):
        if len(old) != len(new):
            raise Structural(f"{where}: {len(old)} vs {len(new)} entries")
        for a, b in zip(old, new):
            label = a.get("name", "*") if isinstance(a, dict) else "*"
            yield from _numbers(a, b, f"{where}[{label}]")
    elif isinstance(old, str):
        if NUMBER.split(old) != NUMBER.split(new):
            raise Structural(f"{where}: {old!r} vs {new!r}")
        pairs = zip(NUMBER.findall(old), NUMBER.findall(new))
        for k, (a, b) in enumerate(pairs):
            yield f"{where}#{k}", float(a), float(b)
    elif old != new:
        raise Structural(f"{where}: {old!r} vs {new!r}")


def _load(path: str):
    """A JSON artifact as its document, a CSV one as {column: [cells]}."""
    with open(path, encoding="utf-8", newline="") as handle:
        if path.endswith(".json"):
            return json.load(handle)
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise Structural(f"{path}: a row has other than {len(header)} cells")
    return {name: [_cell(row[j]) for row in body] for j, name in enumerate(header)}


def _artifacts(root: Path, seed: int, directory: str) -> list[tuple[str, str, str, str]]:
    """``(digest or exit=CODE, workload, index, kind)`` of each request, in order."""
    run = subprocess.run(
        [sys.executable, str(TOOLS / "artifact_digests.py"), "--seed", str(seed),
         "--root", str(root), "--keep", directory],
        capture_output=True, text=True)
    lines = [tuple(line.split()) for line in run.stdout.splitlines()]
    if "Traceback" in run.stderr:
        print(f"{root} stopped after {len(lines)} requests:\n{run.stderr.rstrip()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True, help="the old checkout")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, "old"), os.path.join(tmp, "new")]
        old, new = (_artifacts(root.resolve(), args.seed, d)
                    for root, d in zip((args.root, TOOLS.parent), dirs))
        if [line[1:] for line in old] != [line[1:] for line in new]:
            print(f"STRUCTURE the trees ran {len(old)} and {len(new)} requests")
            return 1
        structural, differ, per_leaf = 0, 0, {}
        for (a, name, index, kind), (b, *_) in zip(old, new):
            if a == b:
                continue
            differ += 1
            label = f"{name} {index} {kind}"
            try:
                if a.startswith("exit=") or b.startswith("exit="):
                    raise Structural(f"{a} vs {b}")
                pattern = f"r{int(index):04d}-{kind}.*"
                paths = [glob.glob(os.path.join(d, name, "out", pattern))[0] for d in dirs]
                leaves = list(_numbers(_load(paths[0]), _load(paths[1]), ""))
            except Structural as exc:
                structural += 1
                print(f"{label}  STRUCTURE {exc}")
                continue
            worst_abs, worst_rel = (0.0, "-"), (0.0, "-")
            for leaf, x, y in leaves:
                if x == y:
                    continue
                abs_diff = abs(x - y)
                rel_diff = abs_diff / max(abs(x), abs(y))
                worst_abs = max(worst_abs, (abs_diff, leaf))
                worst_rel = max(worst_rel, (rel_diff, leaf))
                key = f"{kind} {leaf}"
                seen = per_leaf.get(key, (0.0, 0.0, 0))
                per_leaf[key] = (max(seen[0], abs_diff), max(seen[1], rel_diff), seen[2] + 1)
            print(f"{label}  max_abs {worst_abs[0]:.3g} ({worst_abs[1]})"
                  f"  max_rel {worst_rel[0]:.3g} ({worst_rel[1]})")
    print(f"\n{differ} of {len(old)} artifacts differ, {structural} in structure")
    if per_leaf:
        print(f"{'leaf':<48} {'max_abs':>10} {'max_rel':>10} {'count':>6}")
        for key, (abs_diff, rel_diff, count) in sorted(per_leaf.items()):
            print(f"{key:<48} {abs_diff:>10.3g} {rel_diff:>10.3g} {count:>6}")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
