"""Measure how far the benchmark's artifacts move between two checkouts.

    python3 tools/artifact_drift.py --seed N --root OLD

Writes every artifact of the four workloads at ``--seed`` twice, once with
``OLD``'s ``src/`` and once with that of the checkout holding this file.
Each tree runs in its own child process,
``tools/artifact_digests.py --keep``, with one OpenBLAS thread. For each
artifact whose bytes differ it prints

    workload index kind  max_abs A (LEAF)  max_rel R (LEAF)  normwise N (LEAF)  = K kappa eps

over the numbers the two artifacts hold: the numeric leaves of a JSON
artifact, every CSV cell (a ``weights_json`` cell is parsed as JSON), and
the numbers written inside text, such as a ``verify`` check's detail. The
relative difference is |a - b| / max(|a|, |b|). The normwise difference of
a leaf is its largest |a - b| over the whole leaf (every entry of an array,
every cell of a CSV column) divided by its largest |a| or |b| in the same
artifact, so that an ulp's move of a near-zero weight reads as an ulp of
the vector, not as a large relative change. K is that normwise drift in
units of kappa eps, kappa the condition number of the sample covariance of
the request's panel (its eigenvalues floored at 1e-10 of the largest, as the
program floors them), computed here: the yardstick of a change that only
reorders rounding. A closing table gives the same maxima per leaf over all
artifacts, K included.

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

import numpy as np

TOOLS = Path(__file__).resolve().parent
EPS = float(np.finfo(float).eps)
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


def _drift(leaves) -> dict[str, tuple[float, float, float, int]]:
    """(max |a - b|, max relative, normwise, count) per leaf that moved, over
    ``(leaf, a, b)`` triples: the differences of its entries that differ,
    and the normwise one against the largest |a| or |b| of all its entries."""
    scale, moved = {}, {}
    for leaf, x, y in leaves:
        scale[leaf] = max(scale.get(leaf, 0.0), abs(x), abs(y))
        if x != y:
            abs_diff = abs(x - y)
            seen = moved.get(leaf, (0.0, 0.0, 0))
            moved[leaf] = (max(seen[0], abs_diff),
                           max(seen[1], abs_diff / max(abs(x), abs(y))), seen[2] + 1)
    return {leaf: (abs_diff, rel_diff, abs_diff / scale[leaf], count)
            for leaf, (abs_diff, rel_diff, count) in moved.items()}


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


def _kappa(path: str) -> float:
    """The condition number of the sample covariance of a returns CSV, its
    eigenvalues floored at 1e-10 of the largest."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rho = np.linalg.eigvalsh(np.cov(rows, rowvar=False, ddof=1))
    return float(rho[-1] / max(rho[0], 1e-10 * rho[-1]))


def _kappas(seed: int, directory: str) -> dict[tuple[str, str], float]:
    """kappa of each request's panel, by (workload, index): the workloads are
    built again over the panels ``artifact_digests.py --keep`` left in
    ``directory``, which rewrites the same bytes and reads the script, the
    shrunk solves it appends included."""
    sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "perfbench")]
    from artifact_digests import make_workload
    from workloads import NAMES

    kappas = {}
    for name in NAMES:
        workload = make_workload(name, seed, os.path.join(directory, name))
        panels = [_kappa(path) for path in workload.panels]
        for index, request in enumerate(workload.script):
            kappas[name, str(index)] = panels[request.panel]
    return kappas


def _artifacts(root: Path, seed: int, directory: str) -> list[tuple[str, str, str, str]]:
    """``(digest or exit=CODE, workload, index, kind)`` of each request, in order."""
    run = subprocess.run(
        [sys.executable, str(TOOLS / "artifact_digests.py"), "--seed", str(seed),
         "--root", str(root), "--keep", directory],
        capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
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
        structural, differ, per_leaf, kappas = 0, 0, {}, None
        for (a, name, index, kind), (b, *_) in zip(old, new):
            if a == b:
                continue
            differ += 1
            kappas = kappas or _kappas(args.seed, dirs[1])
            keps = kappas[name, index] * EPS
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
            worst = [(0.0, "-")] * 3
            for leaf, (abs_diff, rel_diff, norm, count) in _drift(leaves).items():
                maxima = (abs_diff, rel_diff, norm, norm / keps)
                worst = [max(w, (m, leaf)) for w, m in zip(worst, maxima)]
                key = f"{kind} {leaf}"
                seen = per_leaf.get(key, (0.0, 0.0, 0.0, 0.0, 0))
                per_leaf[key] = (*map(max, seen[:4], maxima), seen[4] + count)
            print(f"{label}  max_abs {worst[0][0]:.3g} ({worst[0][1]})"
                  f"  max_rel {worst[1][0]:.3g} ({worst[1][1]})"
                  f"  normwise {worst[2][0]:.3g} ({worst[2][1]})"
                  f"  = {worst[2][0] / keps:.3g} kappa eps")
    print(f"\n{differ} of {len(old)} artifacts differ, {structural} in structure")
    if per_leaf:
        print(f"{'leaf':<48} {'max_abs':>10} {'max_rel':>10} {'normwise':>10} "
              f"{'kappa eps':>10} {'count':>6}")
        for key, (abs_diff, rel_diff, norm, in_keps, count) in sorted(per_leaf.items()):
            print(f"{key:<48} {abs_diff:>10.3g} {rel_diff:>10.3g} {norm:>10.3g} "
                  f"{in_keps:>10.3g} {count:>6}")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
