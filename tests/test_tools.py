"""The benchmark's tools: which differences ``tools/artifact_drift.py`` reads as
numbers and which as structure, and the flag checks every request passes."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_drift.py"
_SPEC = importlib.util.spec_from_file_location("artifact_drift", _PATH)
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)


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


_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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

    spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    commands = set()
    for name in workloads.NAMES:
        workload = workloads.make_workload(name, 11, str(tmp_path / name))
        for argv in [workload.cold_start, *(r.argv for r in workload.script)]:
            args = cli._build_parser().parse_args(argv)
            _flag_checks(args)
            commands.add(args.command)
    assert commands == set(cli.COMMANDS)
