import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mvgear.cli import MAX_GRID_POINTS, main, parse_grid
from mvgear.cli import CliError

from conftest import write_micro_csv


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

def test_shrink_sweep(tmp_path):
    # moments with a real condition number so the sweep actually moves
    csv = tmp_path / "r.csv"
    rng = np.random.default_rng(2)
    base = rng.multivariate_normal([0.01, 0.02, 0.015],
                                   [[4.0, 1.0, 0.0], [1.0, 2.0, 0.3], [0.0, 0.3, 1.0]],
                                   size=40)
    csv.write_text("a,b,c\n" + "\n".join(",".join(repr(float(v)) for v in row)
                                         for row in base) + "\n")
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
