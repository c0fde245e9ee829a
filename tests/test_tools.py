"""The benchmark's tools: which differences ``tools/artifact_drift.py`` reads as
numbers and which as structure, and the flag checks every request passes."""

import importlib.util
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import forget_loads, write_micro_csv

_ROOT = Path(__file__).resolve().parent.parent


def _module(name, path):
    """The module the file at ``path`` defines, loaded afresh as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


drift = _module("artifact_drift", _ROOT / "tools" / "artifact_drift.py")


def test_drift_pairs_every_number_an_artifact_holds():
    old = {"psi": 0.5, "bh": None, "checks": [
        {"name": "bound_slack", "passed": True, "detail": "cos_phi = 0.25, slack = 1e-3"}]}
    new = {"psi": 0.5000001, "bh": None, "checks": [
        {"name": "bound_slack", "passed": True, "detail": "cos_phi = 0.25, slack = 2e-3"}]}
    assert list(drift._numbers(old, new, "")) == [
        ("psi", 0.5, 0.5000001),
        ("checks[bound_slack].detail#0", 0.25, 0.25),
        ("checks[bound_slack].detail#1", 1e-3, 2e-3),
    ]


@pytest.mark.parametrize("old,new", [
    ({"a": 1.0}, {"b": 1.0}),
    ({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}),
    ([1.0], [1.0, 2.0]),
    ({"a": "x"}, {"a": "y"}),
    ({"a": 1.0}, {"a": "1.0"}),
    ({"a": True}, {"a": 1.0}),
    ({"a": None}, {"a": 0.0}),
    ("1'theta = 1.0 vs g0 = 1.0", "1'theta = 1.0 vs g1 = 1.0"),
])
def test_drift_refuses_a_structural_difference(old, new):
    with pytest.raises(drift.Structural):
        list(drift._numbers(old, new, ""))


def test_drift_reads_csv_cells_and_weights_json(tmp_path):
    old, new, short = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "short.csv"
    old.write_text('k,flag,weights_json\n0.5,1,"[0.25, 0.75]"\n')
    new.write_text('k,flag,weights_json\n0.5,1,"[0.25, 0.7500001]"\n')
    short.write_text("k,flag,weights_json\n0.5,1\n")
    leaves = list(drift._numbers(drift._load(str(old)), drift._load(str(new)), ""))
    assert leaves[-1] == ("weights_json[*][*]", 0.75, 0.7500001)
    assert len(leaves) == 4
    with pytest.raises(drift.Structural):
        drift._load(str(short))


def test_drift_reads_an_array_leaf_normwise():
    # a near-zero weight moved by rounding at the vector's scale is a large
    # relative change of that weight, but a few eps of the vector; a scalar
    # leaf reads the same both ways
    old = {"weights": [0.5, 3e-17, -0.25], "sigma_p": 0.2}
    new = {"weights": [0.5, 1e-16, -0.25], "sigma_p": 0.2000000001}
    drifts = drift._drift(drift._numbers(old, new, ""))
    abs_diff, rel_diff, norm, count = drifts["weights[*]"]
    assert (abs_diff, count) == (1e-16 - 3e-17, 1)
    assert rel_diff == pytest.approx(0.7)
    assert norm == abs_diff / 0.5
    assert drifts["sigma_p"][1] == drifts["sigma_p"][2]
    assert set(drifts) == {"weights[*]", "sigma_p"}


@pytest.mark.parametrize("periods", [40, 4])
def test_drift_measures_in_kappa_eps_of_the_panel(tmp_path, periods):
    # kappa of the sample covariance, its eigenvalues floored at 1e-10 of the
    # largest as the program floors them: a panel with fewer periods than
    # assets reads 1e10
    rows = np.random.default_rng(8).standard_normal((periods, 6)) * [1, 2, 3, 4, 5, 6]
    path = tmp_path / "panel.csv"
    path.write_text("a,b,c,d,e,f\n" + "\n".join(",".join(map(repr, r)) for r in rows.tolist()))
    rho = np.linalg.eigvalsh(np.cov(rows, rowvar=False))
    expected = rho[-1] / rho[0] if periods > 6 else 1e10
    assert drift._kappa(str(path)) == pytest.approx(expected, rel=1e-12)


_WORKLOADS = _ROOT / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded as ``workloads`` for the test."""
    spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


def _flag_checks(args):
    """What ``cli`` checks of a request's flags before it reads its panel."""
    from mvgear import cli

    if args.command in ("solve", "qoqc", "shrink-sweep"):
        cli._program_params(args)
    if args.command in ("solve", "qoqc"):
        cli._shrink_spec(args)
    for grid in ("alpha_grid", "grid") + (("g0",) if args.command == "surface" else ()):
        if getattr(args, grid, None) is not None:
            cli.parse_grid(getattr(args, grid))


def test_every_benchmark_request_passes_the_flag_checks(tmp_path, monkeypatch):
    # A request a flag check refused would exit 2 in the benchmark and lower
    # its ok_ratio; this builds each workload's script and solves nothing.
    from mvgear import cli

    workloads = _workloads(monkeypatch)
    commands = set()
    for name in workloads.NAMES:
        workload = workloads.make_workload(name, 11, str(tmp_path / name))
        for argv in [workload.cold_start, *(r.argv for r in workload.script)]:
            args = cli._build_parser().parse_args(argv)
            _flag_checks(args)
            commands.add(args.command)
    assert commands == set(cli.COMMANDS)


def test_digests_follow_each_script_with_shrunk_solves_and_their_verifies(tmp_path,
                                                                          monkeypatch):
    # no benchmark request runs solve --shrink-mode or verifies a QOQC record:
    # the tool appends GMV, VI and VII at seven shrinks each on the first
    # panel, a qoqc and VII at the angle shrink k = 0.9 k0, a verify after
    # each, then a diagonal sweep of VII over 0:0.1:1, which reads the kappa~ kept
    # from the benchmark's own diagonal sweep of that grid, and last an
    # estimate, which writes the text kept from the benchmark's own estimate
    from mvgear import cli

    workloads = _workloads(monkeypatch)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it when loaded
    tool = _module("artifact_digests", _ROOT / "tools" / "artifact_digests.py")
    bench = workloads.make_workload("sweep-surface", 11, str(tmp_path / "bench"))
    workload = tool.make_workload("sweep-surface", 11, str(tmp_path / "tool"))
    added = workload.script[len(bench.script):]
    assert [r.kind for r in workload.script[:len(bench.script)]] == [
        r.kind for r in bench.script]
    assert len(added) == 48 and {r.panel for r in added} == {0}
    assert cli._build_parser().parse_args(added[-1].argv).command == "estimate"
    assert any(r.kind == "estimate" and r.panel == 0 for r in bench.script)
    sweep = cli._build_parser().parse_args(added[-2].argv)
    _flag_checks(sweep)
    assert (sweep.command, sweep.mode, sweep.grid, sweep.program, sweep.gamma, sweep.g0) == (
        "shrink-sweep", "diagonal", "0:0.1:1", "VII", 10.0, 1.0)
    assert any(r.kind == "shrink-sweep" and "diagonal" in r.argv and "0:0.1:1" in r.argv
               and "--program" not in r.argv for r in bench.script)
    shrinks = []
    for solved, verified in zip(added[:-2:2], added[1:-1:2]):
        args = cli._build_parser().parse_args(solved.argv)
        _flag_checks(args)
        shrinks.append((args.program, args.mode,
                        getattr(args, "k" if args.mode == "angle" else "q", None)))
        assert verified.argv[verified.argv.index("--portfolio") + 1] == solved.output
    k = workload.moments[0].angle_floor() / 2
    assert shrinks == [(program, mode, value) for program in ("GMV", "VI", "VII")
                       for mode, value in [("angle", float(f"{k:.6g}")),
                                           *((m, q) for m in ("simple", "diagonal")
                                             for q in (0.0, 0.5, 1.0))]] + [
        ("QOQC", None, None), ("VII", "angle", float(f"{1.8 * k:.6g}"))]


# Two workloads of one panel each: every load of a panel after the first two
# of its pass is a trusted hit once the trust window is 0.
_SINGLE_PANEL = ("wide-estimate", "sweep-surface")


@pytest.fixture
def digests(monkeypatch):
    """``tools/artifact_digests.py`` on two workloads, in this process, with a
    trust window that only its trusted-hit pass lowers."""
    from mvgear import moments

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout first
    monkeypatch.setattr(_workloads(monkeypatch), "NAMES", _SINGLE_PANEL)
    monkeypatch.setattr(moments, "TRUST_WINDOW_S", math.inf)
    forget_loads(monkeypatch)
    return _module("artifact_digests", _ROOT / "tools" / "artifact_digests.py")


@pytest.mark.parametrize("caller,threads", [(None, "1"), ("2", "2")])
def test_digests_run_one_blas_thread_unless_the_caller_sets_a_count(monkeypatch, caller,
                                                                     threads):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")  # restored after the test
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    _module("artifact_digests", _ROOT / "tools" / "artifact_digests.py")
    assert os.environ["OPENBLAS_NUM_THREADS"] == threads


def test_drift_runs_each_tree_on_one_blas_thread(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(drift.subprocess, "run", lambda argv, **kwargs: calls.append(
        kwargs) or SimpleNamespace(stdout="", stderr=""))
    assert drift._artifacts(_ROOT, 11, str(tmp_path)) == []
    assert [kwargs["env"]["OPENBLAS_NUM_THREADS"] for kwargs in calls] == ["1"]


def _script_lengths(out):
    """The number of digest lines per workload, in order."""
    names = [line.split()[1] for line in out.splitlines()]
    return [names.count(name) for name in dict.fromkeys(names)]


def test_digests_of_trusted_hits_equal_the_first_pass(digests, capsys):
    from mvgear import moments

    assert digests.main(["--seed", "11"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"trusted hits: {name} {count - 2} of {count} loads"
        for name, count in zip(_SINGLE_PANEL, _script_lengths(out))]
    assert moments.TRUST_WINDOW_S == math.inf and not hasattr(moments, "open")


@pytest.mark.parametrize("key,why", [
    (None, "no trusted hit"),
    ((0, 0, 0, 0, 0), "a key that names no one file"),
])
def test_digests_fail_on_a_stat_key_that_cannot_be_trusted(digests, monkeypatch,
                                                          capsys, key, why):
    from mvgear import moments

    monkeypatch.setattr(moments, "_stat_key", lambda handle: key)
    assert digests.main(["--seed", "11"]) == 1, why
    err = capsys.readouterr().err
    if key is None:
        assert " 0 of " in err and "trusted: " not in err
    else:
        # sweep-surface is served wide-estimate's panel from the trusted key
        assert "trusted: " in err and "sweep-surface" in err.split("trusted: ")[1]


def test_the_benchmark_tracer_records_a_request_and_restores_every_name(tmp_path,
                                                                         monkeypatch):
    # perfbench/spans.py looks up mvgear's layer modules, CovMatrix.from_entries
    # and numpy's eigh by name, and wraps oracle.dominance_sample by its
    # signature: a removal or a rename that breaks it fails here, not only in
    # a traced benchmark run.
    import mvgear
    from mvgear import cli

    spans = _module("spans", _ROOT / "perfbench" / "spans.py")
    owners = [mvgear, *(getattr(mvgear, layer) for layer in spans.LAYERS),
              mvgear.CovMatrix, np.linalg]
    before = [{key: value for key, value in vars(owner).items()
               if callable(value) or isinstance(value, classmethod)} for owner in owners]
    csv, port = write_micro_csv(tmp_path / "r.csv"), tmp_path / "p.json"
    forget_loads(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["solve", "--input", str(csv), "--program", "RISKY",
                         "--output", str(port)]) == 0
        assert cli.main(["verify", "--input", str(csv), "--portfolio", str(port),
                         "--samples", "10", "--output", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    assert {spans.PARSE, spans.EIGH, spans.SAMPLE} <= {span[spans.NAME]
                                                       for span in tracer.spans}
    for owner, names in zip(owners, before):
        assert [key for key, value in names.items() if vars(owner)[key] is not value] == []
