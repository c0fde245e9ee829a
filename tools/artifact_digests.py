"""Print the SHA-256 of every artifact the benchmark's request scripts write.

    python3 tools/artifact_digests.py --seed N [--root DIR] [--keep DIR]

Builds the four workloads of ``perfbench/workloads.py`` at ``--seed`` in a
temporary directory, runs each request once through ``mvgear.cli.main`` and
prints one ``sha256 workload index kind`` line per request, in script order.
``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this file), so two commits compare with one diff:

    python3 tools/artifact_digests.py --seed 11 --root ../old > old.txt
    python3 tools/artifact_digests.py --seed 11 > new.txt
    diff old.txt new.txt

``--keep`` builds the workloads in that directory instead and leaves them
there: request ``index`` of ``workload`` writes its artifact to
``DIR/workload/out/r{index:04d}-{kind}.{json,csv}``
(``tools/artifact_drift.py`` reads them from there).

All requests run in this one process, so every request after the first on a
panel finds that panel and its moments in ``mvgear.moments``' one-entry memo:
a digest diff against a tree that parsed every request afresh also shows that
cache hits write the bytes a miss writes.

OpenBLAS runs single-threaded, as in the benchmark, so that BLAS reductions
sum in one order. A request that exits nonzero prints ``exit=CODE`` in place
of the digest, and the tool then exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--keep", default=None,
                        help="build the workloads here and keep their artifacts")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import NAMES, make_workload

    from mvgear import cli

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        directory = tmp if args.keep is None else args.keep
        for name in NAMES:
            workload = make_workload(name, args.seed, os.path.join(directory, name))
            for index, request in enumerate(workload.script):
                code = cli.main(list(request.argv))
                if code == 0:
                    with open(request.output, "rb") as handle:
                        digest = hashlib.sha256(handle.read()).hexdigest()
                else:
                    digest, failed = f"exit={code}", True
                print(digest, name, index, request.kind, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
