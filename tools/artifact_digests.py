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

No benchmark request runs ``solve --shrink-mode`` or verifies a QOQC
record, so each workload's script is followed by shrunk solves of GMV, VI
and VII on its first panel, a ``qoqc`` and a VII shrunk toward the identity
at k = 0.9 k0, each with a ``verify`` of its record, then by a diagonal
``shrink-sweep`` of VII over ``0:0.1:1``, and last by an ``estimate`` of
that panel (:func:`make_workload`); every pass runs them, and their lines
follow the benchmark's. On sweep-surface, whose script sweeps that grid toward the
diagonal with no ``--program``, that sweep reads every kappa~ the
covariance kept from the other one, so a digest diff against a tree that
formed each kappa~ afresh also shows that a kappa~ kept from another
request writes the bytes of a fresh one. Every script but small-fresh's
estimates its first panel before, so that last ``estimate`` writes the text
``mvgear.cli`` kept with the covariance, after the sweeps and solves in
between: a digest diff against a tree that formatted every estimate afresh
shows that the kept text has the bytes of a fresh one.

All requests run in this one process, so every request after the first on a
panel finds that panel and its moments in ``mvgear.moments``' one-entry memo:
a digest diff against a tree that parsed every request afresh also shows that
cache hits write the bytes a miss writes.

After that pass the tool overwrites every artifact with junk longer than the
artifact and runs each workload's script again, in the same process. The CLI
rewrites ``--output`` in place and cuts it to the new length, so this second
pass checks that an artifact written over a longer file has the bytes of a
fresh write; a digest that differs from the first pass's is named on stderr,
and the tool then exits 1.

A third pass runs each script once more with ``mvgear.moments``'
``TRUST_WINDOW_S`` set to 0 in this process, so that a panel's file key is
trusted once two loads have seen it and every later load of it reads no
bytes. It prints the number of such trusted hits per workload on stderr; a
digest that differs from the first pass's is named there too, and the tool
exits 1 if one does or if no load was a trusted hit. A tree at ``--root``
whose memo has no trust window skips this pass and says so on stderr. The
printed lines are the first pass's alone.

OpenBLAS runs single-threaded, as in the benchmark, so that BLAS reductions
sum in one order, unless the caller sets ``OPENBLAS_NUM_THREADS``: set to
the number of CPUs, it leaves none spare, so ``verify``'s sampler draws its
blocks in turn rather than overlapped and a digest diff checks that path
too. A request that exits nonzero prints ``exit=CODE`` in place
of the digest, and the tool then exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent


def make_workload(name: str, seed: int, directory: str):
    """``workloads.make_workload``, with GMV, VI (alpha0 of
    ``workloads._vi_alpha0``) and VII (gamma 10, g0 1) solved on the first
    panel at each shrink, angle at k = k0/2 and simple and diagonal at
    q = 0, 0.5 and 1, then the benchmark's ``qoqc`` (n0 = n/4) and VII at
    the angle shrink k = 0.9 k0, where the benchmark's angle grid ends, each
    followed by a ``verify`` of its record, then a diagonal sweep of VII
    over ``0:0.1:1`` and an ``estimate``: requests appended to the script,
    so every pass runs them."""
    import workloads

    workload = workloads.make_workload(name, seed, directory)
    script = workloads._Script(workload.panels, os.path.dirname(workload.script[0].output))
    script.requests = workload.script
    m = workload.moments[0]
    k0 = m.angle_floor()
    shrinks = [("angle", "--k", k0 / 2)] + [
        (mode, "--q", q) for mode in ("simple", "diagonal") for q in (0.0, 0.5, 1.0)]
    programs = [("GMV", {}), ("VI", {"alpha0": workloads._vi_alpha0(m), "g0": 1.0}),
                ("VII", {"gamma": workloads.GAMMA, "g0": 1.0})]
    for program, params in programs:
        flags = [text for key, value in params.items()
                 for text in (f"--{key}", workloads._num(value))]
        for mode, flag, value in shrinks:
            solved = script.add("solve", 0, ["--program", program, *flags, "--shrink-mode",
                                             mode, flag, workloads._num(value)])
            script.verify(0, solved)
    script.verify(0, script.qoqc(0, m))
    script.verify(0, script.add("solve", 0, [
        "--program", "VII", "--gamma", workloads._num(workloads.GAMMA), "--g0", "1",
        "--shrink-mode", "angle", "--k", workloads._num(0.9 * k0)]))
    script.sweep(0, "diagonal", "0:0.1:1", 11,
                 ["--program", "VII", "--gamma", workloads._num(workloads.GAMMA), "--g0", "1"])
    script.add("estimate", 0, [])
    return workload


def _digest(cli, request) -> str:
    """The SHA-256 of the artifact ``request`` writes, or ``exit=CODE``."""
    code = cli.main(list(request.argv))
    if code != 0:
        return f"exit={code}"
    with open(request.output, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _trusted_pass(cli, moments, workloads, first) -> bool:
    """Run every script again with the memo's trust window at 0 and print the
    trusted hits of each workload, those loads that read no bytes of the file
    they opened; returns whether the pass failed."""
    unread = []  # per file the loader opened: True until that file is read

    def spied_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        read, index = handle.read, len(unread)
        unread.append(True)

        def reading(*args):
            unread[index] = False
            return read(*args)

        handle.read = reading
        return handle

    window = moments.TRUST_WINDOW_S
    moments.TRUST_WINDOW_S, moments.open = 0.0, spied_open
    failed, hits = False, 0
    try:
        for name, workload in workloads:
            start = len(unread)
            for index, request in enumerate(workload.script):
                digest = _digest(cli, request)
                if digest != first[name, index]:
                    print(f"trusted: {digest} {name} {index} {request.kind}, "
                          f"fresh: {first[name, index]}", file=sys.stderr, flush=True)
                    failed = True
            loads = unread[start:]
            hits += sum(loads)
            print(f"trusted hits: {name} {sum(loads)} of {len(loads)} loads",
                  file=sys.stderr, flush=True)
    finally:
        moments.TRUST_WINDOW_S = window
        del moments.open
    return failed or hits == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--keep", default=None,
                        help="build the workloads here and keep their artifacts")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import NAMES

    from mvgear import cli, moments

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        directory = tmp if args.keep is None else args.keep
        workloads, first = [], {}
        for name in NAMES:
            workload = make_workload(name, args.seed, os.path.join(directory, name))
            workloads.append((name, workload))
            for index, request in enumerate(workload.script):
                digest = first[name, index] = _digest(cli, request)
                failed |= digest.startswith("exit=")
                print(digest, name, index, request.kind, flush=True)
        for _, workload in workloads:
            for request in workload.script:
                if os.path.exists(request.output):
                    junk = b"\xff" * (os.path.getsize(request.output) + 4096)
                    with open(request.output, "wb") as handle:
                        handle.write(junk)
        for name, workload in workloads:
            for index, request in enumerate(workload.script):
                digest = _digest(cli, request)
                if digest != first[name, index]:
                    print(f"overwritten: {digest} {name} {index} {request.kind}, "
                          f"fresh: {first[name, index]}", file=sys.stderr, flush=True)
                    failed = True
        if hasattr(moments, "TRUST_WINDOW_S"):
            failed |= _trusted_pass(cli, moments, workloads, first)
        else:
            print("no trust window in this tree's memo: trusted-hit pass skipped",
                  file=sys.stderr, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
