import argparse
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from mvgear import AlphaVector, CovMatrix, cli, diversity, robust
from mvgear.cli import MAX_GRID_POINTS, SWEEP_HEADER, main, parse_grid
from mvgear.cli import CliError
from mvgear.geometry import alpha_angle, kantorovich_bound
from mvgear.moments import estimate_moments, load_returns_csv
from mvgear.robust import ShrinkageSpec, ShrinkMode
from mvgear.serialize import csv_lines, dumps, portfolio_to_dict
from mvgear.solvers import PROGRAMS, Program

from conftest import (forget_loads, odd_surface_instance, reference_csv,
                      reference_surface, write_micro_csv)


@pytest.fixture
def micro_csv(tmp_path):
    return write_micro_csv(tmp_path / "returns.csv")


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# Grid parsing
# ---------------------------------------------------------------------------

def test_parse_grid_inclusive_endpoints():
    grid = parse_grid("0.1:0.01:0.3")
    assert len(grid) == 21
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(0.3)


def test_parse_grid_degenerate():
    npt.assert_allclose(parse_grid("1:1:1"), [1.0])
    npt.assert_allclose(parse_grid("2.5"), [2.5])


def test_parse_grid_rejects_garbage():
    with pytest.raises(CliError):
        parse_grid("0:0:1")
    with pytest.raises(CliError):
        parse_grid("a:b:c")
    with pytest.raises(CliError):
        parse_grid("1:2")


@pytest.mark.parametrize("text", ["0:1e-12:1", "0:1e-320:1", "-1e308:1:1e308"])
def test_parse_grid_rejects_oversized_grid_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(CliError) as info:
            parse_grid(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.code == "BadGrid"
    assert peak < 1_000_000


def test_parse_grid_accepts_grid_at_the_cap():
    assert parse_grid(f"0:1:{MAX_GRID_POINTS - 1}").size == MAX_GRID_POINTS
    with pytest.raises(CliError):
        parse_grid(f"0:1:{MAX_GRID_POINTS}")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "inf:1:inf",
                                  "0:1:nan", "0:inf:1"])
def test_parse_grid_refuses_a_non_finite_value_in_either_form(text):
    with pytest.raises(CliError) as info:
        parse_grid(text)
    assert info.value.code == "BadGrid"


# Each grid flag, with the other flags its subcommand needs.
GRID_FLAGS = [
    ("surface", "--alpha-grid", ["--g0", "1"]),
    ("surface", "--g0", ["--alpha-grid", "0.1"]),
    ("frontier", "--alpha-grid", []),
    ("shrink-sweep", "--grid", ["--mode", "simple"]),
]


@pytest.mark.parametrize("command,flag,rest", GRID_FLAGS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "inf:1:inf", "0:0.1:nan"])
def test_non_finite_grid_exits_2_with_one_line(micro_csv, capsys, command, flag, rest,
                                               value):
    assert run([command, "--input", micro_csv, f"{flag}={value}", *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("code=BadGrid ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("g0", ["nan", "inf", "-inf"])
def test_frontier_non_finite_gearing_exits_2_like_the_surface(micro_csv, capsys, g0):
    # frontier's --g0 is the surface's one-point gearing grid
    assert run(["frontier", "--input", micro_csv, "--alpha-grid", "0.1",
                f"--g0={g0}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadGrid ")
    assert len(err.splitlines()) == 1


def test_oversized_frontier_exits_2(micro_csv, capsys):
    assert run(["frontier", "--input", micro_csv, "--alpha-grid", "0:1e-12:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadGrid")
    assert len(err.splitlines()) == 1


def test_surface_caps_the_product_of_its_grids(micro_csv, capsys):
    # 1001 x 1001 points: each grid is small, their product is over the cap
    assert run(["surface", "--input", micro_csv, "--g0", "0:0.001:1",
                "--alpha-grid", "0:0.001:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadGrid")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# estimate / solve
# ---------------------------------------------------------------------------

def test_estimate_micro(micro_csv, tmp_path):
    out = tmp_path / "m.json"
    assert run(["estimate", "--input", micro_csv, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["assets"] == ["EQT", "BND"]
    npt.assert_allclose(doc["alpha"], [0.1, 0.2], atol=1e-14)
    npt.assert_allclose(doc["covariance"], np.eye(2), atol=1e-14)
    assert doc["condition_number"] == pytest.approx(1.0, abs=1e-12)


def test_solve_vii_micro(micro_csv, tmp_path):
    out = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["program"] == "VII"
    npt.assert_allclose(doc["weights"], [0.45, 0.55], atol=1e-12)
    assert doc["gearing"] == pytest.approx(1.0, abs=1e-12)
    assert doc["assets"] == ["EQT", "BND"]


def test_solve_is_byte_deterministic(micro_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["solve", "--input", micro_csv, "--program", "VI",
                    "--alpha0", 0.2, "--g0", 1, "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_non_utf8_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "r.csv"
    # the offset counts from the start of the file, byte-order mark included
    path.write_bytes(b"\xef\xbb\xbfa,b\n0.1,0.2\n0.3,0.4\xe9\n")
    assert run(["estimate", "--input", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=NonFiniteData")
    assert "byte 0xe9 at offset 22 is not UTF-8" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("row", [1, 3])
def test_overlong_cell_exits_3(tmp_path, capsys, row):
    # one cell over the csv module's field limit, in the header or in a data row
    long = "x" * 200_000
    lines = [f"{long},b" if row == 1 else "a,b", "0.1,0.2",
             f"0.3,{long}" if row == 3 else "0.3,0.4"]
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["estimate", "--input", path]) == 3
    assert capsys.readouterr().err == (
        f"code=NonFiniteData {path}: row {row} cannot be read as CSV: "
        "field larger than field limit (131072)\n")


@pytest.mark.parametrize("cell", ["1_0", "\u0663"])
def test_cell_only_python_float_reads_exits_3(tmp_path, capsys, cell):
    path = tmp_path / "r.csv"
    path.write_text(f"a,b\n0.1,0.2\n0.3,{cell}\n", encoding="utf-8")
    assert run(["estimate", "--input", path]) == 3
    assert capsys.readouterr().err == (
        f"code=NonFiniteData {path}: cell at row 3, column 2 is not a number: {cell!r}\n")


def test_solve_missing_parameter_exits_2(micro_csv, capsys):
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=MissingParameter")
    assert len(err.strip().splitlines()) == 1


def test_solve_module_error_exits_3(micro_csv, capsys):
    assert run(["solve", "--input", micro_csv, "--program", "I",
                "--sigma0", -0.5]) == 3
    assert capsys.readouterr().err.startswith("code=NonPositiveParameter")


# The flags each program requires, as the CLI has always enforced them.
REQUIRED_FLAGS = {
    Program.I: ("sigma0",), Program.II: ("alpha0",), Program.III: ("gamma",),
    Program.IV: (), Program.V: (), Program.VI: ("alpha0", "g0"),
    Program.VII: ("gamma", "g0"), Program.VIII: ("g0",), Program.GMV: (),
    Program.RISKY: (), Program.QOQC: ("gamma", "g0", "n0"),
}
# The programs --program names: the table, less QOQC, which is its own command.
CHOICES = [Program(choice) for choice in cli.PROGRAM_CHOICES]
FLAG_VALUES = {"sigma0": 0.5, "alpha0": 0.2, "gamma": 1, "g0": 1, "n0": 2}
SWEEP_ARGS = ["--mode", "simple", "--grid", "0:0.5:1"]


def flags(names):
    return [arg for name in names for arg in (f"--{name}", FLAG_VALUES[name])]


# Each program parameter that is used in arithmetic without a sign check, and
# QOQC's gamma and g0, with each command that runs it.
NON_FINITE_CASES = [(Program.II, "alpha0"), (Program.IV, "g0"), (Program.V, "g0"),
                    (Program.VI, "alpha0"), (Program.VI, "g0"), (Program.VII, "g0"),
                    (Program.VIII, "g0")]
NON_FINITE_RUNS = [*((program, name, command) for command in ("solve", "shrink-sweep")
                     for program, name in NON_FINITE_CASES),
                   (Program.QOQC, "gamma", "qoqc"), (Program.QOQC, "g0", "qoqc")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("program,name,command", NON_FINITE_RUNS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_program_parameter_exits_3_before_any_arithmetic(
        micro_csv, capsys, command, program, name, value):
    # a numpy RuntimeWarning raised as an error here would be a traceback
    others = [n for n in REQUIRED_FLAGS[program] if n != name]
    program_flag = [] if command == "qoqc" else ["--program", program.value]
    argv = [command, "--input", micro_csv, *program_flag,
            *flags(others), f"--{name}", value]
    if command == "shrink-sweep":
        argv += SWEEP_ARGS
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"code=NonPositiveParameter {name} must be finite, got {value}\n"


@pytest.mark.parametrize("command,flag,value", [
    ("solve", "--g0", "-1e-3"), ("solve", "--g0", "-.5e-1"),
    ("frontier", "--alpha-grid", "-1e-3:1e-3:1e-2"),
    ("surface", "--g0", "-1E-1:1e-1:1e-1"),
])
def test_negative_value_after_a_space_reads_as_with_equals(micro_csv, tmp_path,
                                                          command, flag, value):
    # argparse alone takes only -1 and -0.5 for values; -1e-3 read as a flag
    args = {"solve": ["--program", "VII", "--gamma", "1"], "frontier": ["--g0", "1"],
            "surface": ["--alpha-grid", "0.1:0.05:0.2"]}[command]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run([command, "--input", micro_csv, *args, flag, value,
                "--output", spaced]) == 0
    assert run([command, "--input", micro_csv, *args, f"{flag}={value}",
                "--output", joined]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("tail", [["--g0", "1", "--bogus"], ["--g0", "-x"],
                                  ["--g0", "1", "-1"]])
def test_unknown_flag_still_exits_2(micro_csv, capsys, tail):
    assert run(["solve", "--input", micro_csv, "--program", "VII", "--gamma", "1",
                *tail]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=BadArguments")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["--program", "VII", "--gamma", "1", "--g0", "inf"],
    ["--program", "VI", "--alpha0", "inf", "--g0", "1"],
    ["--program", "IV", "--g0", "inf"],
])
def test_non_finite_program_parameter_prints_one_line_from_a_fresh_process(tmp_path,
                                                                           argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mvgear.cli", "solve", "--input",
         str(write_micro_csv(tmp_path / "r.csv")), *argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("code=NonPositiveParameter ")
    assert len(proc.stderr.splitlines()) == 1


def test_program_table_requires_the_flags_the_cli_requires():
    assert {p: e.required for p, e in PROGRAMS.items()} == REQUIRED_FLAGS
    assert PROGRAMS[Program.IV].optional == ("g0",)
    assert PROGRAMS[Program.V].one_of == ("sigma0", "g0")


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program", CHOICES)
def test_program_runs_with_its_table_flags(micro_csv, command, program):
    entry = PROGRAMS[program]
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", program.value, *extra,
                *flags(entry.required + entry.one_of[:1])]) == 0


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program,dropped", [
    (program, name) for program in CHOICES for name in PROGRAMS[program].required
])
def test_dropping_a_required_flag_exits_2(micro_csv, capsys, command, program, dropped):
    entry = PROGRAMS[program]
    kept = [name for name in entry.required if name != dropped]
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", program.value, *extra,
                *flags(kept + list(entry.one_of[:1]))]) == 2
    assert capsys.readouterr().err == (
        f"code=MissingParameter program {program.value} requires --{dropped}\n")


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("given", [(), ("sigma0", "g0")])
def test_program_v_takes_exactly_one_of_sigma0_and_g0(micro_csv, capsys, command, given):
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", "V", *extra,
                *flags(given)]) == 2
    assert capsys.readouterr().err == (
        "code=MissingParameter program V takes exactly one of --sigma0 / --g0\n")


@pytest.mark.parametrize("argv,err", [
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--q", 0.5],
     "--q needs --shrink-mode"),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--k", 0.1],
     "--k needs --shrink-mode"),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--shrink-mode", "simple",
      "--q", 0.5, "--k", 0.2], "simple shrink takes --q, not --k"),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, "--shrink-mode", "angle",
      "--k", 0.1, "--q", 0.2], "angle shrink takes --k, not --q"),
    (["shrink-sweep", "--mode", "simple", "--grid", "0:0.5:1", "--gamma", 5],
     "--gamma needs --program"),
    (["solve", "--program", "III", "--gamma", 1, "--g0", 7], "program III takes no --g0"),
])
def test_a_flag_the_run_would_ignore_exits_2(micro_csv, tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    assert run([*argv, "--input", micro_csv, "--output", out]) == 2
    assert capsys.readouterr().err == f"code=BadArguments {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program,name", [
    (program, name) for program in CHOICES for name in FLAG_VALUES
    if name != "n0" and name not in (*PROGRAMS[program].required,
                                     *PROGRAMS[program].optional, *PROGRAMS[program].one_of)
])
def test_a_parameter_the_program_does_not_take_exits_2(micro_csv, capsys, command,
                                                        program, name):
    entry = PROGRAMS[program]
    extra = SWEEP_ARGS if command == "shrink-sweep" else []
    assert run([command, "--input", micro_csv, "--program", program.value, *extra,
                *flags(entry.required + entry.one_of[:1] + (name,))]) == 2
    assert capsys.readouterr().err == (
        f"code=BadArguments program {program.value} takes no --{name}\n")


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
def test_program_choices_are_the_table_keys(command):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    choices = next(a.choices for a in commands[command]._actions if a.dest == "program")
    assert choices == cli.PROGRAM_CHOICES
    assert choices == [program.value for program in PROGRAMS if program is not Program.QOQC]
    assert choices == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "GMV", "RISKY"]


# The flags each subcommand has always accepted.
SUBCOMMAND_FLAGS = {
    "estimate": set(),
    "solve": {"--program", "--sigma0", "--alpha0", "--gamma", "--g0", "--shrink-mode",
              "--k", "--q"},
    "frontier": {"--g0", "--alpha-grid"},
    "surface": {"--g0", "--alpha-grid"},
    "bounds": {"--portfolio", "--theta", "--psi"},
    "shrink-sweep": {"--mode", "--grid", "--program", "--sigma0", "--alpha0", "--gamma",
                     "--g0"},
    "qoqc": {"--gamma", "--g0", "--n0"},
    "verify": {"--portfolio", "--seed", "--samples"},
}


def test_each_subcommand_accepts_its_flags():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli.COMMANDS) == set(SUBCOMMAND_FLAGS)
    for command, sub in commands.items():
        accepted = {flag for a in sub._actions for flag in a.option_strings}
        assert accepted == {"-h", "--help", "--input", "--output", "--format",
                            *SUBCOMMAND_FLAGS[command]}, command


# Request sequences whose later requests would read an earlier one's flags
# if parsing left state on the parser.
PARSER_REUSE_CASES = {
    "error_then_valid": [
        ["solve", "--program", "VII", "--gamma", "x", "--g0", "1"],
        ["solve", "--program", "VII", "--gamma", "10", "--g0", "1"],
    ],
    "program_then_none": [
        ["solve", "--program", "VII", "--gamma", "10", "--g0", "1"],
        ["shrink-sweep", "--mode", "simple", "--grid", "0:0.5:1"],
    ],
    "solve_then_qoqc": [
        ["solve", "--program", "VII", "--gamma", "10", "--g0", "1",
         "--shrink-mode", "simple", "--q", "0.5"],
        ["qoqc", "--gamma", "10", "--g0", "1", "--n0", "2"],
    ],
}


@pytest.mark.parametrize("case", PARSER_REUSE_CASES)
def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, case):
    csv = sweep_csv(tmp_path)

    def request(argv):
        code = run([*argv, "--input", csv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    requests = PARSER_REUSE_CASES[case]
    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(request(argv))
    cli._build_parser.cache_clear()
    assert [request(argv) for argv in requests] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [2 if case == "error_then_valid" else 0, 0]


def test_bad_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("code=BadArguments")


def test_solve_with_shrink(micro_csv, tmp_path):
    out = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--shrink-mode", "simple",
                "--q", 0.5, "--output", out]) == 0
    doc = json.loads(out.read_text())
    # identity moments: shrinking is a no-op
    npt.assert_allclose(doc["weights"], [0.45, 0.55], atol=1e-12)
    assert doc["params"]["shrink_mode"] == "simple"


# ---------------------------------------------------------------------------
# frontier / surface
# ---------------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_surface_inflection_audit(micro_csv, tmp_path):
    out = tmp_path / "s.csv"
    assert run(["surface", "--input", micro_csv, "--g0", "1:1:1",
                "--alpha-grid", "0.1:0.01:0.3", "--output", out]) == 0
    header, rows = read_csv(out)
    assert header == ["alpha_p", "g0", "sigma_p", "is_gmv_line", "is_risky_line"]
    assert len(rows) == 21
    sigmas = [float(r[2]) for r in rows]
    alphas = [float(r[0]) for r in rows]
    # minimum sigma_p sits at the grid point nearest g0 B / A = 0.15
    best = int(np.argmin(sigmas))
    assert alphas[best] == pytest.approx(0.15, abs=1e-12)
    flagged = [r for r in rows if r[3] == "1"]
    assert len(flagged) == 1 and float(flagged[0][0]) == pytest.approx(0.15)


def test_surface_deterministic(micro_csv, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["surface", "--input", micro_csv, "--g0", "0.5:0.25:1.5",
                    "--alpha-grid", "0.05:0.05:0.3", "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_frontier_slice(micro_csv, tmp_path):
    out = tmp_path / "f.csv"
    assert run(["frontier", "--input", micro_csv, "--g0", 1.0,
                "--alpha-grid", "0.1:0.05:0.2", "--output", out]) == 0
    header, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [1.0, 1.0, 1.0]
    # sigma^2 = (2 a^2 - 0.6 a + 0.05) / 0.01 at g0 = 1
    for r in rows:
        a_p, sigma = float(r[0]), float(r[2])
        assert sigma**2 == pytest.approx(
            (2 * a_p**2 - 0.6 * a_p + 0.05) / 0.01, rel=1e-10
        )


@pytest.mark.parametrize("argv,point", [
    (["surface", "--g0", "1", "--alpha-grid", "1e200"], "alpha_p = 1e+200, g0 = 1.0"),
    (["frontier", "--g0", "1e300", "--alpha-grid", "0"], "alpha_p = 0.0, g0 = 1e+300"),
    (["surface", "--g0", "1", "--alpha-grid", "1e153"], "alpha_p = 1e+153, g0 = 1.0"),
])
def test_non_finite_variance_exits_3_naming_the_point(micro_csv, capsys, argv, point):
    # the square of 1e200 and of 1e300 overflows; 1e153 squares to a finite
    # 1e306, which A = 2 and D = 0.01 carry over the largest double
    assert run([*argv, "--input", micro_csv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"code=NonFiniteData variance at {point} is inf\n"


def exponent_instance():
    """The micro moments on grids whose ``%.17g`` text has a decimal exponent."""
    edges = np.array([1e-5, 9.999999999999999e-05, 1e-4, 1e16, 9.999999999999998e16,
                      1e17, -1e17])
    return (AlphaVector(np.array([0.1, 0.2])), CovMatrix.identity(2), edges,
            edges[[0, 3, 5]])


def zero_b_instance():
    """1'Sigma^-1 alpha = 0 exactly: no point is on the risky line."""
    return (AlphaVector(np.array([0.1, -0.1])), CovMatrix.identity(2),
            np.linspace(-0.3, 0.3, 13), np.array([-1.0, 0.0, 1.0, 2.0]))


def signed_zero_instance():
    """The odd squares, g0 = 0 and both lines, with -0.0 in both grids."""
    alpha, cov, alphas, gearings = odd_surface_instance()
    return alpha, cov, np.append(alphas, -0.0), np.append(gearings, -0.0)


SURFACE_CASES = {"odd": odd_surface_instance, "signed_zero": signed_zero_instance,
                 "zero_b": zero_b_instance, "exponent": exponent_instance}


@pytest.mark.parametrize("case", SURFACE_CASES)
def test_surface_text_equals_the_per_point_writer(monkeypatch, capsys, case):
    alpha, cov, alphas, gearings = SURFACE_CASES[case]()
    monkeypatch.setattr(cli, "_moments", lambda args: (None, alpha, cov))
    monkeypatch.setattr(cli, "parse_grid", {"A": alphas, "G": gearings}.__getitem__)
    assert run(["surface", "--input", "-", "--alpha-grid", "A", "--g0", "G"]) == 0
    text = capsys.readouterr().out
    assert text == reference_csv(reference_surface(alpha, cov, alphas, gearings))
    for g0 in gearings.tolist():
        assert run(["frontier", "--input", "-", "--alpha-grid", "A",
                    "--g0", repr(g0)]) == 0
        assert capsys.readouterr().out == reference_csv(
            reference_surface(alpha, cov, alphas, [g0]))
    if case == "signed_zero":
        assert "\n-0,-0,0,1,1\n" in text
    if case == "zero_b":
        assert all(line.endswith(",0") for line in text.splitlines()[1:])
    if case == "exponent":
        assert "\n1e+17,1e+17," in text
        assert "\n1.0000000000000001e-05,10000000000000000," in text


def test_surface_on_a_panel_equals_the_per_point_writer(tmp_path):
    csv = sweep_csv(tmp_path)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    grids = {"surface": ("-0.1:0.002:0.298", "0:0.05:2"),
             "frontier": ("-0.2:0.0004:0.2", "1")}
    for command, (alpha_text, g0_text) in grids.items():
        alphas = parse_grid(alpha_text)
        gearings = parse_grid(g0_text)
        out = tmp_path / f"{command}.csv"
        assert run([command, "--input", csv, f"--alpha-grid={alpha_text}",
                    "--g0", g0_text, "--output", out]) == 0
        assert out.read_bytes().decode() == reference_csv(
            reference_surface(alpha, cov, alphas, gearings))
        assert (alphas.size, gearings.size) == {"surface": (200, 41),
                                                "frontier": (1001, 1)}[command]


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_collinear_theta(micro_csv, tmp_path):
    out = tmp_path / "b.json"
    assert run(["bounds", "--input", micro_csv, "--theta", "0.1,0.2",
                "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["cos_phi"] == pytest.approx(1.0, abs=1e-12)
    assert doc["slack"] == pytest.approx(1.0 - doc["bound_kantorovich"], abs=1e-12)


def test_bounds_from_portfolio_file(micro_csv, tmp_path):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--output", port]) == 0
    out = tmp_path / "b.json"
    assert run(["bounds", "--input", micro_csv, "--portfolio", port,
                "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["slack"] >= -1e-10


def test_bounds_requires_exactly_one_source(micro_csv, capsys):
    assert run(["bounds", "--input", micro_csv]) == 2
    assert capsys.readouterr().err.startswith("code=MissingParameter")


@pytest.fixture
def five_asset_panels(tmp_path):
    """The same returns with columns A..E, and with the columns reversed."""
    rng = np.random.default_rng(2)
    rows = rng.normal(0.0, 0.04, size=(60, 5)) + np.linspace(0.005, 0.02, 5)
    names = ["A", "B", "C", "D", "E"]
    forward, reverse = tmp_path / "fwd.csv", tmp_path / "rev.csv"
    for path, order in ((forward, slice(None)), (reverse, slice(None, None, -1))):
        lines = [",".join(names[order])]
        lines += [",".join(repr(float(v)) for v in row[order]) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    port = tmp_path / "p.json"
    assert run(["solve", "--input", forward, "--program", "VII",
                "--gamma", 10, "--g0", 1, "--output", port]) == 0
    return forward, reverse, port


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_portfolio_on_reordered_panel_exits_2(five_asset_panels, capsys, command):
    forward, reverse, port = five_asset_panels
    assert run([command, "--input", forward, "--portfolio", port,
                "--output", port.with_suffix(".out")]) == 0
    capsys.readouterr()
    assert run([command, "--input", reverse, "--portfolio", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=AssetMismatch")
    assert "'A' for column 1, the panel has 'E'" in err
    assert len(err.splitlines()) == 1


def test_portfolio_naming_fewer_assets_exits_2(five_asset_panels, capsys):
    forward, _, port = five_asset_panels
    doc = json.loads(port.read_text())
    doc["assets"] = doc["assets"][:4]
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", forward, "--portfolio", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith("code=AssetMismatch")
    assert "None for column 5, the panel has 'E'" in err


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_portfolio_without_assets_skips_the_name_check(five_asset_panels, command):
    _, reverse, port = five_asset_panels
    doc = json.loads(port.read_text())
    doc["assets"] = None
    port.write_text(json.dumps(doc))
    out = port.with_suffix(".out")
    # the check is skipped; verify then audits the weights on the wrong columns
    expected = 0 if command == "bounds" else 3
    assert run([command, "--input", reverse, "--portfolio", port,
                "--output", out]) == expected


def test_bounds_theta_skips_the_name_check(five_asset_panels):
    _, reverse, port = five_asset_panels
    theta = ",".join(repr(w) for w in json.loads(port.read_text())["weights"])
    assert run(["bounds", "--input", reverse, f"--theta={theta}"]) == 0


# ---------------------------------------------------------------------------
# shrink-sweep / qoqc
# ---------------------------------------------------------------------------

def sweep_csv(tmp_path):
    """A 3-asset panel whose moments have a real condition number, so that a
    shrink sweep actually moves."""
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(2)
    base = rng.multivariate_normal([0.01, 0.02, 0.015],
                                   [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]],
                                   size=40)
    csv.write_text("a,b,c\n" + "\n".join(",".join(repr(float(v)) for v in row)
                                         for row in base) + "\n")
    return csv


def test_shrink_sweep(tmp_path):
    csv = sweep_csv(tmp_path)
    out = tmp_path / "sweep.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", "simple",
                "--grid", "0:0.1:1", "--program", "VII", "--gamma", 1,
                "--g0", 1, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,kappa_tilde,cos_phi_risky,cos_phi_optimal,bound_kantorovich,weights_json"
    assert len(lines) == 12
    kappas = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(x >= y - 1e-12 for x, y in zip(kappas, kappas[1:]))
    cos_risky = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(y >= x - 1e-12 for x, y in zip(cos_risky, cos_risky[1:]))
    weights = json.loads(lines[1].split('"')[1])
    assert len(weights) == 3


@pytest.mark.parametrize("mode,grid,program", [
    ("simple", "0:0.1:1", ["--program", "VII", "--gamma", 1, "--g0", 1]),
    ("diagonal", "0:0.25:1", []),
])
def test_shrink_sweep_shrinks_once_per_point(tmp_path, monkeypatch, mode, grid, program):
    csv = sweep_csv(tmp_path)
    # the sweep as the library composes it, one shrink per call
    alpha, cov = estimate_moments(load_returns_csv(csv))
    rows = []
    for k in parse_grid(grid):
        spec = ShrinkageSpec(mode=ShrinkMode(mode), k=float(k))
        shrunk = robust.shrink_covariance(cov, alpha, spec)
        risky = robust.solve_robust(Program.RISKY, alpha, cov, spec).weights
        optimal = robust.solve_robust(Program.VII, alpha, cov, spec, gamma=1.0,
                                      g0=1.0).weights if program else risky
        rows.append([float(k), shrunk.condition_number, alpha_angle(alpha, risky),
                     alpha_angle(alpha, optimal),
                     kantorovich_bound(shrunk.condition_number),
                     '"' + dumps(list(optimal)) + '"'])
    real, calls = robust.shrink_covariance, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(robust, "shrink_covariance", counting)
    out = tmp_path / "sweep.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid,
                *program, "--output", out]) == 0
    assert len(calls) == len(rows)
    assert out.read_text() == csv_lines(SWEEP_HEADER, rows)


def count_calls(monkeypatch, name):
    """The argument tuples of every call to ``numpy.linalg.<name>`` from now on."""
    real, calls = getattr(np.linalg, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("mode,fresh,warm", [
    ("simple", (1, 0), (0, 0)), ("angle", (1, 0), (0, 0)), ("diagonal", (2, 9), (0, 9)),
], ids=["simple", "angle", "diagonal"])
def test_shrink_sweep_decomposes_each_covariance_once(tmp_path, monkeypatch, mode,
                                                      fresh, warm):
    # (eigh, eigvalsh) calls per request. A fresh load decomposes Sigma, and
    # identity shrinks map its spectrum. Diagonal shrinks map the spectrum of
    # Sigma's correlation matrix R, decomposed once, and each of the 9
    # interior points reads its own eigenvalues for kappa~ (q = 0 is Sigma and
    # q = 1 is D, whose spectra are known). A warm request on the same bytes
    # reuses both decompositions and writes the same bytes.
    csv = sweep_csv(tmp_path)
    grid = "0:0.1:1"
    if mode == "angle":
        k0 = robust.angle_floor(*estimate_moments(load_returns_csv(csv)))
        grid = f"0:{k0 / 11!r}:{10 * k0 / 11!r}"
    assert parse_grid(grid).size == 11
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    forget_loads(monkeypatch)
    argv = ["shrink-sweep", "--input", csv, "--mode", mode, "--grid", grid,
            "--program", "VII", "--gamma", 1, "--g0", 1]
    for name, expected in (("fresh", fresh), ("warm", warm)):
        eigh.clear(), eigvalsh.clear()
        assert run([*argv, "--output", tmp_path / f"{name}.csv"]) == 0
        assert (len(eigh), len(eigvalsh)) == expected, name
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_diagonal_shrunk_solve_and_verify_read_no_shrunk_spectrum(tmp_path, monkeypatch):
    # the solves run through R's spectrum; only kappa~ needs the shrunk
    # matrix's own eigenvalues, and neither solve nor verify reports it
    csv = sweep_csv(tmp_path)
    eigh, eigvalsh = count_calls(monkeypatch, "eigh"), count_calls(monkeypatch, "eigvalsh")
    forget_loads(monkeypatch)
    out = tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1, "--g0", 1,
                "--shrink-mode", "diagonal", "--q", 0.3, "--output", out]) == 0
    assert (len(eigh), len(eigvalsh)) == (2, 0)
    assert run(["verify", "--input", csv, "--portfolio", out]) == 0
    assert (len(eigh), len(eigvalsh)) == (2, 0)


def test_shrink_sweep_without_a_risky_portfolio_exits_3(tmp_path, capsys):
    # alpha = (0.1, -0.1) and Sigma = I: 1'Sigma~^-1 alpha = 0 at every shrink
    csv = tmp_path / "r.csv"
    csv.write_text("a,b\n1.1,0.9\n-0.9,-1.1\n1.1,-1.1\n-0.9,0.9\n0.1,-0.1\n")
    assert run(["shrink-sweep", "--input", csv, "--mode", "simple",
                "--grid", "0:0.5:1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=ZeroB")
    assert len(err.splitlines()) == 1


def test_qoqc_command(micro_csv, tmp_path):
    out = tmp_path / "q.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1,
                "--n0", 1, "--output", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["program"] == "QOQC"
    npt.assert_allclose(doc["weights"], [0.0, 1.0], atol=1e-10)
    assert doc["params"]["lambda1"] == pytest.approx(0.45, abs=1e-10)


def test_qoqc_infeasible_exits_3(micro_csv, capsys):
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 2,
                "--n0", 1]) == 3
    assert capsys.readouterr().err.startswith("code=Infeasible")


@pytest.mark.parametrize("g0", ["nan", "inf"])
def test_qoqc_non_finite_g0_exits_3(micro_csv, capsys, g0):
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", g0,
                "--n0", 1]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=NonPositiveParameter g0 must be finite")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# verify round-trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve_args", [
    ["--program", "VII", "--gamma", 1, "--g0", 1],
    ["--program", "VI", "--alpha0", 0.2, "--g0", 1],
    ["--program", "VIII", "--g0", 2],
    ["--program", "GMV"],
    ["--program", "V", "--sigma0", 0.9],
    ["--program", "III", "--gamma", 2],
    ["--program", "I", "--sigma0", 0.5],
    ["--program", "II", "--alpha0", 0.05],
    ["--program", "RISKY"],
])
def test_verify_round_trip(micro_csv, tmp_path, solve_args):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, *solve_args, "--output", port]) == 0
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--samples", 20000, "--output", report]) == 0
    text = report.read_text()
    assert "np.float64(" not in text
    doc = json.loads(text)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_shrunk_solve_round_trip(tmp_path):
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(8)
    base = rng.multivariate_normal(
        [0.01, 0.02, 0.015],
        [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]], size=60)
    csv.write_text("a,b,c\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in base) + "\n")
    port = tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1,
                "--g0", 1, "--shrink-mode", "simple", "--q", 0.4,
                "--output", port]) == 0
    report = tmp_path / "v.json"
    assert run(["verify", "--input", csv, "--portfolio", port,
                "--output", report]) == 0
    assert json.loads(report.read_text())["passed"] is True


def test_verify_qoqc_round_trip(micro_csv, tmp_path):
    port = tmp_path / "q.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1,
                "--n0", 1, "--output", port]) == 0
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 0
    assert json.loads(report.read_text())["passed"] is True


FIELDS = ["gearing_field", "leverage_field", "alpha_p", "sigma_p", "weights_resolve"]
GEARING, RETURN, RISK = "gearing_constraint", "return_constraint", "risk_constraint"
SHRINK = ["--shrink-mode", "simple", "--q", 0.4]


@pytest.mark.parametrize("command,expected", [
    (["solve", "--program", "GMV"],
     ["gearing_field", "leverage_field", "sigma_p", "weights_resolve", GEARING,
      "bound_slack"]),
    (["solve", "--program", "RISKY"],
     FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "I", "--sigma0", 0.5], FIELDS + [RISK, "bound_slack"]),
    (["solve", "--program", "II", "--alpha0", 0.02], FIELDS + [RETURN, "bound_slack"]),
    (["solve", "--program", "III", "--gamma", 2], FIELDS + ["bound_slack"]),
    (["solve", "--program", "IV"], FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "V", "--sigma0", 0.9],
     FIELDS + [GEARING, RISK, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "V", "--g0", 1.5],
     FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "VI", "--alpha0", 0.02, "--g0", 1],
     FIELDS + [GEARING, RETURN, "bound_slack"]),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1],
     FIELDS + [GEARING, "bound_slack"]),
    (["solve", "--program", "VIII", "--g0", 2],
     FIELDS + [GEARING, "bound_slack", "sharpe_dominance"]),
    (["solve", "--program", "VI", "--alpha0", 0.02, "--g0", 1, *SHRINK],
     FIELDS + [GEARING, RETURN, "bound_slack"]),
    (["solve", "--program", "VII", "--gamma", 1, "--g0", 1, *SHRINK],
     FIELDS + [GEARING, "bound_slack"]),
    (["solve", "--program", "V", "--sigma0", 0.9, *SHRINK],
     FIELDS + [GEARING, "bound_slack"]),
    (["qoqc", "--gamma", 1, "--g0", 1, "--n0", 2],
     FIELDS + [GEARING, "diversity_constraint", "stationarity", "bound_slack"]),
])
def test_verify_audits_each_program(tmp_path, command, expected):
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(8)
    base = rng.multivariate_normal(
        [0.01, 0.02, 0.015],
        [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]], size=60)
    csv.write_text("a,b,c\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in base) + "\n")
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run([command[0], "--input", csv, *command[1:], "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 2000,
                "--output", report]) == 0
    assert [c["name"] for c in json.loads(report.read_text())["checks"]] == expected


def test_table_audits_are_verify_audits_in_verify_order():
    for program, entry in PROGRAMS.items():
        assert [name for name in cli.AUDITS if name in entry.audits] == list(entry.audits)
        assert "bound" not in entry.audits, program


def _three_asset_csv(tmp_path):
    """The panel ``test_verify_audits_each_program`` solves on."""
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(8)
    base = rng.multivariate_normal(
        [0.01, 0.02, 0.015],
        [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]], size=60)
    csv.write_text("a,b,c\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in base) + "\n")
    return csv


def test_verify_passes_a_qoqc_record_on_the_boundary(tmp_path):
    # n0 = n/g0^2: g0 e is the only feasible point, and the multipliers the
    # record carries certify nothing, so stationarity is not audited; the
    # constraints still are
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", csv, "--gamma", 1, "--g0", 1, "--n0", 3,
                "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port,
                "--output", report]) == 0
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks] == FIELDS + [
        GEARING, "diversity_constraint", "bound_slack"]
    assert all(c["passed"] for c in checks)


def test_verify_audits_stationarity_off_the_boundary(tmp_path):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", csv, "--gamma", 1, "--g0", 1, "--n0", 2.999,
                "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port,
                "--output", report]) == 0
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    _, alpha, cov = cli._moments(argparse.Namespace(input=csv))
    doc = json.loads(port.read_text())
    params = doc["params"]
    residual = diversity.stationarity_residual(
        alpha.entries, cov, params["gamma"], np.array(doc["weights"]),
        params["lambda1"], params["lambda2"])
    assert checks["stationarity"] == {
        "name": "stationarity", "passed": True, "detail": f"residual {residual:g}"}


def test_verify_audits_a_shrunk_qoqc_record(tmp_path):
    # the qoqc command takes no shrink flags; the library writes the record
    csv = _three_asset_csv(tmp_path)
    alpha, cov = estimate_moments(load_returns_csv(csv))
    port = robust.solve_robust(Program.QOQC, alpha, cov, ShrinkageSpec.simple(0.4),
                               gamma=1.0, g0=1.0, n0=2.0)
    path, report = tmp_path / "q.json", tmp_path / "v.json"
    path.write_text(dumps(portfolio_to_dict(port)))
    assert run(["verify", "--input", csv, "--portfolio", path, "--output", report]) == 0
    checks = json.loads(report.read_text())["checks"]
    # stationarity holds on the shrunk covariance only, so it is skipped
    assert [c["name"] for c in checks] == FIELDS + [
        GEARING, "diversity_constraint", "bound_slack"]
    assert all(c["passed"] for c in checks)


def test_verify_fails_the_return_audit_of_a_vi_record_without_alpha0(tmp_path, capsys):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", "VI", "--alpha0", 0.02, "--g0", 1,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    del doc["params"]["alpha0"]
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", csv, "--portfolio", port, "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks] == FIELDS + [GEARING, RETURN, "bound_slack"]
    missing = "MissingParameter: program VI requires --alpha0"
    for c in checks:
        if c["name"] in ("weights_resolve", RETURN):
            assert c == {"name": c["name"], "passed": False, "detail": missing}
        else:
            assert c["passed"] is True


def test_verify_fails_a_sharpe_record_with_zero_weights(tmp_path, capsys):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", "RISKY", "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc.update(weights=[0.0, 0.0, 0.0], gearing=0.0, leverage=0.0, alpha_p=0.0,
               sigma_p=0.0)
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 200,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["sharpe_dominance"] == {
        "name": "sharpe_dominance", "passed": False,
        "detail": "ZeroDivisionError: float division by zero"}


@pytest.mark.parametrize("program", ["IV", "VIII"])
@pytest.mark.parametrize("g0", [0.5, 1, 2])
def test_verify_passes_a_geared_sharpe_record(tmp_path, program, g0):
    csv = _three_asset_csv(tmp_path)
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", csv, "--program", program, "--g0", g0,
                "--output", port]) == 0
    assert run(["verify", "--input", csv, "--portfolio", port, "--samples", 20000,
                "--output", report]) == 0
    checks = {c["name"]: c["passed"] for c in json.loads(report.read_text())["checks"]}
    assert checks["sharpe_dominance"] and checks["bound_slack"] and all(checks.values())


@pytest.mark.parametrize("command", ["solve", "shrink-sweep"])
@pytest.mark.parametrize("program", ["IV", "VIII"])
@pytest.mark.parametrize("g0", ["-1", "0"])
def test_a_sharpe_program_refuses_a_gearing_that_is_not_positive(
        tmp_path, capsys, command, program, g0):
    # On 1'theta = g0 < 0, g0 theta_alpha is the Sharpe minimum and no maximum
    # exists; at g0 = 0 it is the zero portfolio.
    csv, out = _three_asset_csv(tmp_path), tmp_path / "out"
    argv = [command, "--input", csv, "--program", program, f"--g0={g0}", "--output", out]
    if command == "shrink-sweep":
        argv += SWEEP_ARGS
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        f"code=NonPositiveParameter g0 must be positive, got {float(g0)}\n")
    assert not out.exists()


def test_verify_flags_tampered_weights(micro_csv, tmp_path, capsys):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII",
                "--gamma", 1, "--g0", 1, "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["weights"] = [0.25, 0.75]
    doc["gearing"] = 1.0
    doc["leverage"] = 1.0
    port.write_text(json.dumps(doc))
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err.startswith("code=VerificationFailed")
    doc = json.loads(report.read_text())
    assert not doc["passed"]
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "weights_resolve" in failed


@pytest.mark.parametrize("solve_args,edit,detail", [
    (["--program", "VII", "--gamma", 1, "--g0", 1],
     lambda params: params.pop("gamma"),
     "MissingParameter: program VII requires --gamma"),
    (["--program", "VI", "--alpha0", 0.2, "--g0", 1, *SHRINK],
     lambda params: params.pop("g0"),
     "MissingParameter: program VI requires --g0"),
    (["--program", "V", "--g0", 1],
     lambda params: params.update(shrink_mode="max"),
     "InvalidPortfolio: unknown shrink mode 'max'; expected one of angle, simple, diagonal"),
])
def test_verify_fails_a_file_its_program_cannot_resolve(
        micro_csv, tmp_path, capsys, solve_args, edit, detail):
    port, report = tmp_path / "p.json", tmp_path / "v.json"
    assert run(["solve", "--input", micro_csv, *solve_args, "--output", port]) == 0
    doc = json.loads(port.read_text())
    edit(doc["params"])
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--samples", 200, "--output", report]) == 3
    assert capsys.readouterr().err.startswith("code=VerificationFailed")
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["weights_resolve"] == {
        "name": "weights_resolve", "passed": False, "detail": detail}


@pytest.mark.parametrize("name", ["gamma", "g0", "n0", "lambda1", "lambda2"])
def test_verify_fails_a_qoqc_file_without_a_param(micro_csv, tmp_path, capsys, name):
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1, "--n0", 1,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    del doc["params"][name]
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = json.loads(report.read_text())["checks"]
    # every audit still runs; the re-solve and each audit that reads the name fail
    assert [c["name"] for c in checks] == FIELDS + [
        GEARING, "diversity_constraint", "stationarity", "bound_slack"]
    needs = {"weights_resolve": {"gamma", "g0", "n0"}, GEARING: {"g0"}, "diversity_constraint": {"n0"},
             "stationarity": {"gamma", "lambda1", "lambda2"}}
    missing = f"MissingParameter: program QOQC requires --{name}"
    for c in checks:
        if name in needs.get(c["name"], ()):
            assert c == {"name": c["name"], "passed": False, "detail": missing}
        else:
            assert c["passed"] is True


def test_verify_fails_a_qoqc_file_with_zero_n0(micro_csv, tmp_path, capsys):
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    assert run(["qoqc", "--input", micro_csv, "--gamma", 1, "--g0", 1, "--n0", 1,
                "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["params"]["n0"] = 0
    port.write_text(json.dumps(doc))
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["weights_resolve"]["detail"].startswith("Infeasible: ")
    assert checks["diversity_constraint"] == {
        "name": "diversity_constraint", "passed": False,
        "detail": "ZeroDivisionError: float division by zero"}


def _solved_record(tmp_path, csv, edit):
    """A solved shrunk program VII file with ``edit`` applied to its record."""
    port = tmp_path / "p.json"
    assert run(["solve", "--input", csv, "--program", "VII", "--gamma", 1, "--g0", 1,
                *SHRINK, "--output", port]) == 0
    doc = json.loads(port.read_text())
    edit(doc)
    port.write_text(json.dumps(doc))
    return port


MISTYPED = {
    "params.gamma": lambda doc: doc["params"].update(gamma="abc"),
    "params.g0": lambda doc: doc["params"].update(g0="abc"),
    "params.g0 true": lambda doc: doc["params"].update(g0=True),
    "params.g0 NaN": lambda doc: doc["params"].update(g0=float("nan")),
    "params.shrink_k": lambda doc: doc["params"].update(shrink_k="x"),
    "params.shrink_mode": lambda doc: doc["params"].update(shrink_mode=0.4),
    "params list": lambda doc: doc.update(params=[["g0", 1]]),
    "gearing": lambda doc: doc.update(gearing="x"),
    "gearing null": lambda doc: doc.update(gearing=None),
    "leverage": lambda doc: doc.update(leverage="x"),
    "alpha_p": lambda doc: doc.update(alpha_p="x"),
    "sigma_p": lambda doc: doc.update(sigma_p=[1.0]),
    "assets": lambda doc: doc.update(assets=5),
    "assets string": lambda doc: doc.update(assets="ab"),
    "assets numbers": lambda doc: doc.update(assets=[1, 2]),
    "weights strings": lambda doc: doc.update(weights=[str(w) for w in doc["weights"]]),
    "weights booleans": lambda doc: doc.update(weights=[True, False]),
    "weights null entry": lambda doc: doc.update(weights=[None, 1.0]),
    "weights null": lambda doc: doc.update(weights=None),
    "weights nested": lambda doc: doc.update(weights=[[w] for w in doc["weights"]]),
}


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("field", MISTYPED)
def test_mistyped_portfolio_field_exits_3(micro_csv, tmp_path, capsys, command, field):
    port = _solved_record(tmp_path, micro_csv, MISTYPED[field])
    assert run([command, "--input", micro_csv, "--portfolio", port]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=InvalidPortfolio ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("edit,detail", [
    (lambda params: params.pop("shrink_k"),
     "MissingParameter: shrink mode simple requires shrink_k"),
    (lambda params: params.update(shrink_k=None),
     "MissingParameter: shrink mode simple requires shrink_k"),
    (lambda params: params.update(shrink_mode="bogus"),
     "InvalidPortfolio: unknown shrink mode 'bogus'; expected one of angle, simple, diagonal"),
    (lambda params: params.update(shrink_mode="max"),
     "InvalidPortfolio: unknown shrink mode 'max'; expected one of angle, simple, diagonal"),
])
def test_unreadable_shrink_record_fails_weights_resolve(
        micro_csv, tmp_path, capsys, command, edit, detail):
    port = _solved_record(tmp_path, micro_csv, lambda doc: edit(doc["params"]))
    report = tmp_path / "out.json"
    if command == "bounds":
        # bounds reads only the weights
        assert run(["bounds", "--input", micro_csv, "--portfolio", port,
                    "--output", report]) == 0
        return
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 3
    assert capsys.readouterr().err == "code=VerificationFailed one or more checks failed\n"
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["weights_resolve"] == {
        "name": "weights_resolve", "passed": False, "detail": detail}
    assert all(c["passed"] for name, c in checks.items() if name != "weights_resolve")


def test_verify_reads_params_named_like_solver_arguments(micro_csv, tmp_path):
    # a param may share a name with an argument of solvers.solve or solve_robust
    port = _solved_record(tmp_path, micro_csv, lambda doc: doc["params"].update(
        program=1.0, alpha=2.0, cov=3.0, spec=4.0))
    report = tmp_path / "v.json"
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                "--output", report]) == 0


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("content", [
    "{not json", '["x"]', '{"program": "VII", "weights": {"a": 1}}',
])
def test_bad_portfolio_file_exits_3(micro_csv, tmp_path, capsys, command, content):
    port = tmp_path / "p.json"
    port.write_text(content)
    assert run([command, "--input", micro_csv, "--portfolio", port]) == 3
    err = capsys.readouterr().err
    assert err.startswith("code=InvalidPortfolio")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,value,low", [
    ("--seed", -1, 0), ("--samples", 0, 1), ("--samples", -5, 1)])
def test_verify_refuses_a_negative_seed_or_no_samples(micro_csv, tmp_path, capsys,
                                                      flag, value, low):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VIII",
                "--g0", 1, "--output", port]) == 0
    assert run(["verify", "--input", micro_csv, "--portfolio", port,
                flag, value]) == 2
    err = capsys.readouterr().err
    assert err == f"code=BadArguments argument {flag}: must be at least {low}, got {value}\n"


def test_importing_the_cli_imports_no_scipy():
    code = ("import sys, mvgear.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout == "[]\n"


def test_verify_seed_is_reproducible(micro_csv, tmp_path):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VIII",
                "--g0", 1, "--output", port]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["verify", "--input", micro_csv, "--portfolio", port,
                    "--seed", 7, "--samples", 5000, "--output", out]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# The memo of the last load: a request on unchanged bytes reuses the panel
# ---------------------------------------------------------------------------

def memo_script(k0):
    """One request of every subcommand, as (artifact name, argv): each
    shrink-sweep mode, and bounds and verify of records written before them."""
    vii = ["--program", "VII", "--gamma", 2, "--g0", 1]
    return [
        ("estimate.json", ["estimate"]),
        ("vii.json", ["solve", *vii]),
        ("vi.json", ["solve", "--program", "VI", "--alpha0", 0.3, "--g0", 1.5,
                     "--shrink-mode", "diagonal", "--q", 0.3]),
        ("frontier.csv", ["frontier", "--alpha-grid", "0:0.02:0.4", "--g0", 1.2]),
        ("surface.csv", ["surface", "--alpha-grid", "0:0.04:0.4",
                         "--g0", "0.5:0.25:1.5"]),
        ("bounds.json", ["bounds", "--portfolio", "vii.json"]),
        ("angle.csv", ["shrink-sweep", "--mode", "angle",
                       "--grid", f"0:{k0 / 5!r}:{4 * k0 / 5!r}", *vii]),
        ("simple.csv", ["shrink-sweep", "--mode", "simple", "--grid", "0:0.25:1"]),
        ("diagonal.csv", ["shrink-sweep", "--mode", "diagonal", "--grid", "0:0.25:1",
                          *vii]),
        ("qoqc.json", ["qoqc", "--gamma", 2, "--g0", 1, "--n0", 2]),
        ("verify_vii.json", ["verify", "--portfolio", "vii.json", "--samples", 2000]),
        ("verify_vi.json", ["verify", "--portfolio", "vi.json", "--samples", 2000]),
        ("verify_qoqc.json", ["verify", "--portfolio", "qoqc.json"]),
    ]


def test_cache_hits_write_the_bytes_misses_write(tmp_path, monkeypatch, loadtxt_calls):
    csv = sweep_csv(tmp_path)
    script = memo_script(robust.angle_floor(*estimate_moments(load_returns_csv(csv))))
    names = [name for name, _ in script]

    def run_script(directory, fresh):
        directory.mkdir()
        for name, argv in script:
            if fresh:
                forget_loads(monkeypatch)
            argv = [directory / a if a in names else a for a in argv]
            assert run([*argv, "--input", csv, "--output", directory / name]) == 0, name
        return {name: (directory / name).read_bytes() for name in names}

    loadtxt_calls.clear()
    misses = run_script(tmp_path / "misses", fresh=True)
    assert len(loadtxt_calls) == len(script)
    loadtxt_calls.clear()
    hits = run_script(tmp_path / "hits", fresh=False)
    assert loadtxt_calls == []
    assert hits == misses
    assert all(json.loads(hits[name])["passed"] for name in hits if "verify" in name)


# ---------------------------------------------------------------------------
# Writing the artifact: over --output in place, cut to the new length
# ---------------------------------------------------------------------------

@pytest.fixture
def write_calls(monkeypatch):
    """The (path, flags) of each ``os.open`` and the length of each
    ``os.ftruncate`` made during the test."""
    calls = SimpleNamespace(opened=[], truncated=[])
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        calls.opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    def spy_ftruncate(fd, length):
        calls.truncated.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    return calls


def _panel_csv(path, names, periods):
    rows = np.random.default_rng(len(names)).normal(0.001, 0.02, (periods, len(names)))
    path.write_text(",".join(names) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n", encoding="utf-8")
    return path


ASSET_NAMES = {"ascii": [f"A{i}" for i in range(8)],
               "utf8": [f"Aktie-{i}-\u00c4\u00d6-\u682a\u5f0f-\U0001f642" for i in range(8)]}
PREFILL = {"fresh": None, "shrink": b"\xff" * 2**20, "grow": b"0123456789"}


@pytest.mark.parametrize("names", ASSET_NAMES)
@pytest.mark.parametrize("prefill", PREFILL)
def test_an_artifact_written_over_a_file_has_the_bytes_of_a_fresh_write(
        tmp_path, write_calls, names, prefill):
    csv = _panel_csv(tmp_path / "r.csv", ASSET_NAMES[names], periods=30)
    fresh, out = tmp_path / "fresh.json", tmp_path / "out.json"
    assert run(["estimate", "--input", csv, "--output", fresh]) == 0
    expected = fresh.read_bytes()
    if PREFILL[prefill] is not None:
        out.write_bytes(PREFILL[prefill])
    write_calls.truncated.clear()
    assert run(["estimate", "--input", csv, "--output", out]) == 0
    assert out.read_bytes() == expected
    # cut to the byte length only when the old file was longer
    assert write_calls.truncated == ([len(expected)] if prefill == "shrink" else [])
    flags = [f for path, f in write_calls.opened if path in (str(fresh), str(out))]
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)
    if names == "utf8":
        assert len(expected) > len(expected.decode("utf-8"))


def test_an_artifact_written_to_dev_null_exits_0(micro_csv, write_calls):
    assert run(["estimate", "--input", micro_csv, "--output", os.devnull]) == 0
    assert write_calls.truncated == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_receives_the_whole_artifact(tmp_path, write_calls):
    # 80 assets: the artifact is larger than a pipe's buffer, so the write
    # waits on the reader
    csv = _panel_csv(tmp_path / "r.csv", [f"A{i}" for i in range(80)], periods=160)
    fresh, fifo = tmp_path / "fresh.json", tmp_path / "fifo"
    assert run(["estimate", "--input", csv, "--output", fresh]) == 0
    expected = fresh.read_bytes()
    assert len(expected) > 2**16
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_calls.truncated.clear()
    assert run(["estimate", "--input", csv, "--output", fifo]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected]
    assert write_calls.truncated == []


@pytest.mark.parametrize("argv,code", [
    (["solve", "--program", "VII", "--gamma", 1], 2),
    (["frontier", "--alpha-grid", "0:0:1"], 2),
    (["solve", "--program", "VIII", "--g0=-1"], 3),
    (["qoqc", "--gamma", 1, "--g0", 2, "--n0", 1], 3),
])
def test_a_request_that_fails_before_emitting_leaves_the_old_file(
        micro_csv, tmp_path, capsys, write_calls, argv, code):
    out = tmp_path / "old.json"
    old = "old artifact \u2713\n".encode("utf-8") * 1000
    out.write_bytes(old)
    assert run([*argv, "--input", micro_csv, "--output", out]) == code
    assert capsys.readouterr().err.startswith("code=")
    assert out.read_bytes() == old
    assert str(out) not in [path for path, _ in write_calls.opened]


def test_a_failing_verify_report_replaces_a_longer_old_report(micro_csv, tmp_path, capsys):
    port = tmp_path / "p.json"
    assert run(["solve", "--input", micro_csv, "--program", "VII", "--gamma", 1,
                "--g0", 1, "--output", port]) == 0
    doc = json.loads(port.read_text())
    doc["weights"] = [0.25, 0.75]
    port.write_text(json.dumps(doc))
    fresh, report = tmp_path / "fresh.json", tmp_path / "report.json"
    report.write_bytes(b" " * 2**20)
    for out in (fresh, report):
        assert run(["verify", "--input", micro_csv, "--portfolio", port,
                    "--samples", 2000, "--output", out]) == 3
    assert capsys.readouterr().err.count("code=VerificationFailed") == 2
    assert report.read_bytes() == fresh.read_bytes()
    assert json.loads(report.read_text())["passed"] is False


def test_a_new_artifact_gets_the_mode_open_gives(micro_csv, tmp_path):
    out, reference = tmp_path / "m.json", tmp_path / "reference"
    umask = os.umask(0o027)
    try:
        with open(reference, "w"):
            pass
        assert run(["estimate", "--input", micro_csv, "--output", out]) == 0
    finally:
        os.umask(umask)
    assert (stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
            == 0o666 & ~0o027)


# ---------------------------------------------------------------------------
# Full workflow on a realistic synthetic panel
# ---------------------------------------------------------------------------

def test_full_workflow_on_monthly_panel(tmp_path):
    rng = np.random.default_rng(314)
    n = 6
    b = rng.standard_normal((n, n)) * 0.03
    true_cov = b @ b.T + np.diag(rng.uniform(0.0005, 0.004, n))
    true_mu = rng.uniform(0.002, 0.015, n)
    rows = rng.multivariate_normal(true_mu, true_cov, size=120)
    csv = tmp_path / "monthly.csv"
    names = [f"SEC{i}" for i in range(n)]
    csv.write_text(",".join(names) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")

    moments = tmp_path / "moments.json"
    assert run(["estimate", "--input", csv, "--output", moments]) == 0
    est = json.loads(moments.read_text())
    assert est["condition_number"] > 1.0

    for program, extra in [
        ("GMV", []),
        ("RISKY", []),
        ("VI", ["--alpha0", 0.01, "--g0", 1]),
        ("VII", ["--gamma", 3, "--g0", 1]),
        ("VIII", ["--g0", 1.5]),
    ]:
        port = tmp_path / f"{program}.json"
        assert run(["solve", "--input", csv, "--program", program, *extra,
                    "--output", port]) == 0
        report = tmp_path / f"{program}_verify.json"
        assert run(["verify", "--input", csv, "--portfolio", port,
                    "--samples", 20000, "--output", report]) == 0
        assert json.loads(report.read_text())["passed"] is True

    surface = tmp_path / "surface.csv"
    assert run(["surface", "--input", csv, "--g0", "0.5:0.5:1.5",
                "--alpha-grid", "0:0.002:0.02", "--output", surface]) == 0
    assert len(surface.read_text().strip().splitlines()) == 1 + 11 * 3

    bounds = tmp_path / "bounds.json"
    assert run(["bounds", "--input", csv, "--portfolio", tmp_path / "VII.json",
                "--output", bounds]) == 0
    doc = json.loads(bounds.read_text())
    assert doc["slack"] >= -1e-10 and doc["psi"] is not None

    sweep = tmp_path / "sweep.csv"
    assert run(["shrink-sweep", "--input", csv, "--mode", "angle",
                "--grid", "0:0.05:0.3", "--output", sweep]) == 0
    lines = sweep.read_text().strip().splitlines()
    cos_risky = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(y >= x - 1e-12 for x, y in zip(cos_risky, cos_risky[1:]))

    qoqc = tmp_path / "qoqc.json"
    assert run(["qoqc", "--input", csv, "--gamma", 3, "--g0", 1, "--n0", 3,
                "--output", qoqc]) == 0
    report = tmp_path / "qoqc_verify.json"
    assert run(["verify", "--input", csv, "--portfolio", qoqc,
                "--output", report]) == 0
    assert json.loads(report.read_text())["passed"] is True
