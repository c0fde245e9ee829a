"""mvgear benchmark: per-subcommand CLI latency on seeded workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One closed-loop client drives ``mvgear.cli.main(argv)`` in-process, with real
CSV inputs and real artifact files, inside a child process per workload (so
``peak_rss_mb`` is that workload's own). Set-up writes the panels and runs the
request script once untimed; then whole passes of the script are timed for
``PASS_SHARE`` of ``--seconds`` and fresh-process cold starts for the rest.
With ``--trace 1`` untraced and traced passes alternate for all of
``--seconds`` and the per-layer metrics come from the traced ones. Fixed
reference work (``calibrate.py``) is timed between requests and around each
cold start, and every timing is reported scaled to reference machine speed
by the reference times taken around it; the measured seconds are kept
beside it in the result record. Output checks run after the timed region.
The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--workload all`` its
metric names are prefixed by the workload. Per-run records (environment
stamp, sample counts, percentiles) go to ``.perfbench/results/`` and traced
spans to ``.perfbench/spans/`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import stats  # noqa: E402
from workloads import NAMES  # noqa: E402

SUBCOMMANDS = ("estimate", "solve", "frontier", "surface", "bounds",
               "shrink-sweep", "qoqc", "verify")
# Set-up (panel generation and CSV writes) is repeated this many times per
# run and its median reported, plus the one untimed warm-up pass.
SETUP_REPEATS = 3
# Of the measured ``--seconds``, this share goes to in-process passes and the
# rest to cold starts (at least MIN_COLD_STARTS, at most MAX_COLD_STARTS).
# With --trace 1 there are no cold starts and passes get it all.
PASS_SHARE = 0.7
MIN_PASSES = 3
MIN_COLD_STARTS = 3
MAX_COLD_STARTS = 12
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1
# The reference kernel runs between requests whenever this long has passed
# since it last ran, so that its times sample the whole run.
REFERENCE_EVERY_S = 0.25

E2E_UNITS = {
    "setup_s": "s", "script_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
    "cold_start_s": "s", "request_p50_s": "s", "request_p90_s": "s",
    **{f"{kind}.p50_s": "s" for kind in SUBCOMMANDS},
}


def _layer_units() -> dict:
    from spans import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "moments.parse.self_s": "s", "moments.parse.cells_per_s": "1/s",
        "moments.spectrum.self_s": "s", "moments.spectrum.calls": "count",
        "eigh.calls": "count", "eigh.self_s": "s",
        "robust.shrink.calls_per_point": "count",
        "serialize.bytes_out": "B", "serialize.bytes_per_s": "B/s",
        "serialize.load.self_s": "s",
        "oracle.samples": "count", "oracle.bytes_computed": "B",
        "trace.overhead_ratio": "ratio",
    })
    return units


# -- child: one workload ----------------------------------------------------
@dataclass
class Pass:
    start: float
    total: float
    starts: list[float]
    latencies: list[float]
    codes: list[int]
    digests: list[str | None]
    traced: bool


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except Exception:  # a traceback breaks the 0/2/3 exit contract: a failure
        import traceback

        traceback.print_exc()
        return 1


def run_pass(cli, script, reference, tracer=None, pass_no=0) -> Pass:
    starts, latencies, codes = [], [], []
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    for index, request in enumerate(script):
        if tracer is not None:
            tracer.request_id = pass_no * len(script) + index
        t0 = clock()
        codes.append(_call(cli, request.argv))
        starts.append(t0)
        latencies.append(clock() - t0)
        paused += reference.due()
    total = clock() - start - paused
    digests = [_digest(request.output) for request in script]
    return Pass(start, total, starts, latencies, codes, digests, tracer is not None)


def cold_starts(argv, until: float) -> tuple[list[tuple[float, float, int]], list[float]]:
    """Fresh ``python -m mvgear.cli`` processes, each between two process
    references, until ``until`` (within MIN/MAX_COLD_STARTS).

    Returns (scaled seconds, measured seconds, exit code) of each cold start
    and the process reference times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    refs = [calibrate.process_reference(env)]
    colds = []
    while len(colds) < MAX_COLD_STARTS and (
            len(colds) < MIN_COLD_STARTS
            or time.perf_counter() + colds[-1][1] + refs[-1] <= until):
        seconds, code = calibrate.run_timed([sys.executable, "-m", "mvgear.cli", *argv],
                                            env, cwd=ROOT)
        refs.append(calibrate.process_reference(env))
        factor = calibrate.PROCESS_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
        colds.append((seconds * factor, seconds, code))
    return colds, refs


def timing(scaled, measured, p=50.0) -> dict:
    """A percentile of timings scaled to reference speed, beside the same
    percentile of the seconds as measured."""
    return {"value": stats.quantile(scaled, p), "measured": stats.quantile(measured, p),
            "samples": len(scaled), "percentile": p}


def e2e_metrics(workload, setup, passes, colds, ok_ratio, reference) -> dict:
    def scaled(samples, p=50.0):
        return timing([reference.scale(t, d) for t, d in samples],
                      [d for _, d in samples], p)

    timed = [p for p in passes if not p.traced]
    requests = [(t, d) for p in timed for t, d in zip(p.starts, p.latencies)]
    metrics = {
        "setup_s": scaled([setup]),
        "script_s": scaled([(p.start, p.total) for p in timed]),
        "ok_ratio": {"value": ok_ratio},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "cold_start_s": timing([c[0] for c in colds], [c[1] for c in colds]),
        "request_p50_s": scaled(requests),
        "request_p90_s": scaled(requests, 90.0),
    }
    for kind in SUBCOMMANDS:
        metrics[f"{kind}.p50_s"] = scaled([(p.starts[i], p.latencies[i]) for p in timed
                                           for i, r in enumerate(workload.script)
                                           if r.kind == kind])
    tail = stats.tail_percentile(len(requests))
    if tail is not None:
        metrics["request_p90_s"]["tail_percentile"] = tail
        metrics["request_p90_s"]["tail_value"] = scaled(requests, tail)["value"]
    return metrics


def layer_metrics(tracer, workload, passes, factor) -> tuple[dict, dict]:
    import spans as sp

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    records = tracer.spans
    selfs = [s * factor for s in sp.self_times(records)]
    script = workload.script

    def total(pred):
        return sum(s for r, s in zip(records, selfs) if pred(r))

    def calls(pred):
        return sum(1 for r in records if pred(r))

    out = {}
    for layer in sp.LAYERS:
        out[f"{layer}.self_s"] = total(lambda r: r[sp.LAYER] == layer) / k
        out[f"{layer}.calls"] = calls(lambda r: r[sp.LAYER] == layer
                                      and r[sp.NAME] != sp.EIGH) / k
    # Named totals are reference-speed seconds, like the self times.
    named = {name: (total(lambda r: r[sp.NAME] == name),
                    calls(lambda r: r[sp.NAME] == name))
             for name in (sp.PARSE, sp.SPECTRUM, sp.EIGH, sp.LOAD)}
    counters = tracer.counters
    out["moments.parse.self_s"] = named[sp.PARSE][0] / k
    out["moments.parse.cells_per_s"] = counters.get("parse.cells", 0.0) / named[sp.PARSE][0]
    out["moments.spectrum.self_s"] = named[sp.SPECTRUM][0] / k
    out["moments.spectrum.calls"] = named[sp.SPECTRUM][1] / k
    out["eigh.calls"] = named[sp.EIGH][1] / k
    out["eigh.self_s"] = named[sp.EIGH][0] / k
    kinds = [script[r[sp.REQUEST] % len(script)].kind for r in records]
    shrinks = sum(1 for r, kind in zip(records, kinds)
                  if r[sp.NAME] == sp.SHRINK and kind == "shrink-sweep")
    points = sum(r.points for r in script if r.kind == "shrink-sweep")
    out["robust.shrink.calls_per_point"] = shrinks / (k * points)
    out["serialize.bytes_out"] = counters.get("serialize.bytes_out", 0.0) / k
    out["serialize.bytes_per_s"] = (counters.get("serialize.bytes_out", 0.0)
                                    / (out["serialize.self_s"] * k))
    out["serialize.load.self_s"] = named[sp.LOAD][0] / k
    out["oracle.samples"] = counters.get("oracle.samples", 0.0) / k
    out["oracle.bytes_computed"] = counters.get("oracle.bytes_computed", 0.0) / k
    out["trace.overhead_ratio"] = (stats.median([p.total for p in traced])
                                   / stats.median([p.total for p in untraced]) - 1.0)

    per_kind: dict[str, dict] = {}
    for r, kind in zip(records, kinds):
        if r[sp.NAME] == sp.EIGH:
            per_kind.setdefault(kind, {"eigh": 0})["eigh"] += 1
    requests = {kind: k * sum(1 for r in script if r.kind == kind) for kind in per_kind}
    detail = {"traced_passes": k, "untraced_passes": len(untraced),
              "eigh_calls_per_request": {kind: v["eigh"] / requests[kind]
                                         for kind, v in sorted(per_kind.items())}}
    return out, detail


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": commit,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from checks import check_request
    from spans import Tracer
    from workloads import make_workload

    from mvgear import cli

    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        # -- set-up: panels, CSV writes, one untimed warm-up pass ----------
        calibrate.reference()  # its first call pays for lazy set-up
        reference = calibrate.Reference(REFERENCE_EVERY_S)
        make_times, panel_digests = [], set()
        setup_start = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = make_workload(name, seed, str(workdir))
            make_times.append(time.perf_counter() - t0)
            panel_digests.add(tuple(_digest(p) for p in workload.panels))
            reference.run()
        warm = run_pass(cli, workload.script, reference)

        # -- timed passes ---------------------------------------------------
        # A pass starts only if the last one would still end within the pass
        # budget, so that no run overshoots it by a whole pass.
        tracer = Tracer() if trace else None
        passes: list[Pass] = []
        start = time.perf_counter()
        pass_end = start + (seconds if trace else PASS_SHARE * seconds)
        while (len(passes) < MIN_PASSES
               or time.perf_counter() + passes[-1].total <= pass_end):
            gc.collect()  # every pass starts from the same collector state
            if tracer is not None and len(passes) % 2 == 1:
                tracer.install()
                try:
                    passes.append(run_pass(cli, workload.script, reference,
                                           tracer, len(passes)))
                finally:
                    tracer.uninstall()
            else:
                passes.append(run_pass(cli, workload.script, reference))
        colds, process_refs = ([], []) if trace else cold_starts(workload.cold_start,
                                                                   start + seconds)
        factor = reference.factor()

        # -- output checks, outside the timed region -----------------------
        problems = []
        if len(panel_digests) != 1:
            problems.append("panel CSVs differ between set-up repeats of one seed")
        content = []
        for request in workload.script:
            moments = workload.moments[request.panel]
            try:
                content.append(check_request(request, moments))
            except Exception as exc:  # noqa: BLE001 - any error fails the check
                content.append(f"{type(exc).__name__}: {exc}")
        attempted = failed = 0
        for run in [warm, *passes]:
            for i, request in enumerate(workload.script):
                attempted += 1
                why = None
                if run.codes[i] != 0:
                    why = f"exit code {run.codes[i]}"
                elif run.digests[i] != warm.digests[i]:
                    why = "artifact differs from the warm-up pass"
                elif content[i] is not None:
                    why = content[i]
                if why is not None:
                    failed += 1
                    problems.append(f"request {i} ({request.kind}): {why}")
        cold_digest = _digest(str(workload.cold_start[-1]))
        for _, _, code in colds:
            attempted += 1
            if code != 0 or cold_digest != warm.digests[workload.cold_reference]:
                failed += 1
                problems.append(f"cold start: exit {code} or artifact mismatch")

        result = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "attempted": attempted, "failed": failed,
                  "failed_ratio": failed / attempted, "problems": problems[:50],
                  "passes": len(passes), "requests_per_pass": len(workload.script),
                  "kinds": [r.kind for r in workload.script],
                  "samples": [{"start": p.start, "traced": p.traced, "latencies": p.latencies}
                              for p in passes],
                  "cold_starts": [{"scaled": c, "seconds": d, "code": code}
                                  for c, d, code in colds]}
        result["reference"] = {"factor": factor, "times": reference.times,
                               "stamps": reference.stamps,
                               "median_s": stats.median(reference.times),
                               "nominal_s": calibrate.NOMINAL_S,
                               "process_times": process_refs,
                               "process_nominal_s": calibrate.PROCESS_NOMINAL_S}
        if trace:
            layers, detail = layer_metrics(tracer, workload, passes, factor)
            result["metrics"] = {key: {"value": value} for key, value in layers.items()}
            result["detail"] = detail
            spans_dir = OUT / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(str(spans_dir / f"{name}-seed{seed}.jsonl"))
        else:
            setup = (setup_start, stats.median(make_times) + warm.total)
            result["metrics"] = e2e_metrics(workload, setup, passes, colds,
                                            1.0 - failed / attempted, reference)
            result["metrics"]["setup_s"].update(samples=SETUP_REPEATS,
                                                warmup_s=warm.total)
        result["environment"] = environment(seed)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- parent -----------------------------------------------------------------
def spawn(name: str, args) -> dict | None:
    OUT.mkdir(exist_ok=True)
    result_path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child-result", str(result_path)]
    # One BLAS thread: with two on a 2-vCPU machine, waking the second thread
    # made ~30 ms requests take either ~30 or ~55 ms, so their medians flipped.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{name}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def print_table(result: dict, units: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}, "
          f"{result['passes']} passes x {result['requests_per_pass']} requests)")
    print(f"   failed_ratio {result['failed_ratio']!r} "
          f"({result['failed']} of {result['attempted']} requests)")
    for key, metric in result["metrics"].items():
        extra = ""
        if "samples" in metric:
            extra = (f"  [p{metric['percentile']:g} of {metric['samples']} samples;"
                     f" measured {metric['measured']!r} s]")
        if "tail_percentile" in metric:
            extra += (f"  [highest percentile with 10 samples beyond: "
                      f"p{metric['tail_percentile']:g} = {metric['tail_value']!r} s]")
        print(f"   {key:34s} {metric['value']!r} {units[key]}{extra}")
    for line in result["problems"]:
        print(f"   FAILED {line}")
    if "detail" in result:
        print(f"   {json.dumps(result['detail'])}")
    ref = result["reference"]
    print(f"   reference kernel: median {ref['median_s']!r} s of {len(ref['times'])},"
          f" nominal {ref['nominal_s']!r} s")
    print(f"   {json.dumps(result['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--child-result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mvgear" / "cli.py").is_file():
        print(f"mvgear sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.child_result:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        with open(args.child_result, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        return 0

    units = _layer_units() if args.trace else E2E_UNITS
    names = NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = spawn(name, args)
        if result is None:
            return 1
        print_table(result, units)
        results.append(result)

    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for key, metric in result["metrics"].items():
            name = f"{result['workload']}.{key}" if prefix else key
            metrics[name] = {"value": metric["value"], "unit": units[key]}
    summary = {
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
