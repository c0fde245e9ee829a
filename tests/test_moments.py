import csv
import io
import os
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    AlphaVector,
    AsymmetricCovariance,
    ConvergenceFailure,
    CovMatrix,
    DegenerateAlpha,
    DimensionError,
    NonFiniteData,
    Program,
    ReturnsPanel,
    ShrinkageSpec,
    ShrinkMode,
    SingularCovariance,
    SpdRepairWarning,
    estimate_moments,
    load_returns_csv,
    solve_robust,
)
from mvgear import cli, moments
from mvgear.moments import _CSV_RECORD, EIGEN_FLOOR_RATIO, _sign_fix_columns

from conftest import forget_loads, random_cov, random_spd


# ---------------------------------------------------------------------------
# Panel and type validation
# ---------------------------------------------------------------------------

def test_single_asset_panel_rejected():
    with pytest.raises(DimensionError):
        ReturnsPanel(assets=("only",), rows=np.array([[0.1], [0.2]]))


def test_single_period_panel_rejected():
    with pytest.raises(DimensionError):
        ReturnsPanel(assets=("a", "b"), rows=np.array([[0.1, 0.2]]))


def test_non_finite_panel_rejected():
    with pytest.raises(NonFiniteData):
        ReturnsPanel(assets=("a", "b"), rows=np.array([[0.1, np.nan], [0.0, 0.1]]))


def test_duplicate_asset_names_rejected():
    with pytest.raises(NonFiniteData):
        ReturnsPanel(assets=("a", "a"), rows=np.array([[0.1, 0.2], [0.0, 0.1]]))


def test_alpha_vector_validation():
    with pytest.raises(NonFiniteData):
        AlphaVector(np.array([0.1, np.inf]))
    with pytest.raises(DimensionError):
        AlphaVector(np.array([0.1]))


def test_cov_requires_symmetry():
    with pytest.raises(AsymmetricCovariance):
        CovMatrix.from_entries(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_cov_requires_positive_definite():
    with pytest.raises(SingularCovariance):
        CovMatrix.from_entries(np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# estimate_moments
# ---------------------------------------------------------------------------

def test_two_point_panel_triggers_repair():
    panel = ReturnsPanel(assets=("a", "b"), rows=np.array([[0.1, 0.0], [0.3, 0.0]]))
    with pytest.warns(SpdRepairWarning):
        alpha, cov = estimate_moments(panel)
    npt.assert_allclose(alpha.entries, [0.2, 0.0], atol=1e-15)
    # column a: ((0.1-0.2)^2 + (0.3-0.2)^2) / 1 = 0.02; column b repaired
    npt.assert_allclose(cov.entries[0, 0], 0.02, rtol=1e-12)
    assert cov.eigenvalues[-1] >= EIGEN_FLOOR_RATIO * cov.eigenvalues[0] * (1 - 1e-9)


def test_repair_disabled_raises():
    panel = ReturnsPanel(assets=("a", "b"), rows=np.array([[0.1, 0.0], [0.3, 0.0]]))
    with pytest.raises(SingularCovariance):
        estimate_moments(panel, spd_repair=False)


def test_duplicated_column_triggers_repair():
    rng = np.random.default_rng(3)
    base = rng.normal(0.0, 0.02, size=(12, 1))
    rows = np.hstack([base, base, rng.normal(0.01, 0.02, size=(12, 1))])
    panel = ReturnsPanel(assets=("a", "a2", "b"), rows=rows)
    with pytest.warns(SpdRepairWarning):
        _, cov = estimate_moments(panel)
    floor = EIGEN_FLOOR_RATIO * cov.eigenvalues[0]
    assert cov.eigenvalues[-1] >= floor * (1 - 1e-9)


def test_equal_column_means_degenerate():
    rows = np.array([[0.1, 0.3], [0.3, 0.1], [0.2, 0.2]])
    panel = ReturnsPanel(assets=("a", "b"), rows=rows)
    with pytest.raises(DegenerateAlpha):
        estimate_moments(panel)


def test_large_sample_recovers_standard_normal_moments():
    rng = np.random.default_rng(42)
    panel = ReturnsPanel(
        assets=("a", "b", "c"), rows=rng.standard_normal((10_000, 3))
    )
    alpha, cov = estimate_moments(panel)
    assert np.max(np.abs(alpha.entries)) < 0.05
    assert np.linalg.norm(cov.entries - np.eye(3)) < 0.1


def test_unbiased_denominator_micro_panel():
    rows = np.array(
        [[1.1, 1.2], [-0.9, 1.2], [1.1, -0.8], [-0.9, -0.8], [0.1, 0.2]]
    )
    alpha, cov = estimate_moments(ReturnsPanel(assets=("x", "y"), rows=rows))
    npt.assert_allclose(alpha.entries, [0.1, 0.2], rtol=0, atol=1e-15)
    npt.assert_allclose(cov.entries, np.eye(2), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# condition number
# ---------------------------------------------------------------------------

def test_condition_number_identity():
    assert CovMatrix.identity(4).condition_number == pytest.approx(1.0, abs=1e-14)


def test_condition_number_diagonal():
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    assert cov.condition_number == pytest.approx(4.0, rel=1e-14)


def test_condition_number_matches_characteristic_polynomial():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((5, 5))
    mat = b.T @ b + 0.1 * np.eye(5)
    cov = CovMatrix.from_entries(mat)
    roots = np.sort(np.real(np.roots(np.poly(mat))))
    assert cov.condition_number == pytest.approx(roots[-1] / roots[0], rel=1e-6)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 7.5, 1e3])
def test_condition_number_scale_invariant(c):
    rng = np.random.default_rng(5)
    mat = random_spd(rng, 4, kappa=30.0)
    kappa = CovMatrix.from_entries(mat).condition_number
    kappa_scaled = CovMatrix.from_entries(c * mat).condition_number
    assert kappa_scaled == pytest.approx(kappa, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_spectral_decompose_diagonal():
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    rho, vecs = cov.eigenpairs
    npt.assert_allclose(rho, [4.0, 1.0])
    npt.assert_allclose(vecs[:, 0], [1.0, 0.0])
    npt.assert_allclose(vecs[:, 1], [0.0, 1.0])


def test_spectral_decompose_classic_2x2():
    cov = CovMatrix.from_entries([[2.0, 1.0], [1.0, 2.0]])
    rho, vecs = cov.eigenpairs
    npt.assert_allclose(rho, [3.0, 1.0], rtol=1e-14)
    npt.assert_allclose(vecs[:, 0], [1.0, 1.0] / np.sqrt(2.0), rtol=1e-14)
    npt.assert_allclose(vecs[:, 1], [1.0, -1.0] / np.sqrt(2.0), rtol=1e-14)


def test_spectral_reconstruction_6x6():
    rng = np.random.default_rng(9)
    cov = random_cov(rng, 6, kappa=200.0)
    rho, vecs = cov.eigenpairs
    recon = (vecs * rho) @ vecs.T
    err = np.linalg.norm(recon - cov.entries) / np.linalg.norm(cov.entries)
    assert err < 1e-10
    npt.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)
    assert np.all(np.diff(rho) <= 0)


def test_estimated_covariances_keep_invariants():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rows = rng.multivariate_normal(
            mean=rng.uniform(-0.01, 0.01, 4), cov=random_spd(rng, 4), size=30
        )
        _, cov = estimate_moments(ReturnsPanel(("a", "b", "c", "d"), rows))
        assert np.max(np.abs(cov.entries - cov.entries.T)) <= 1e-12 * np.max(
            np.abs(cov.entries)
        )
        rho, vecs = cov.eigenpairs
        assert rho[-1] > 0
        recon = (vecs * rho) @ vecs.T
        assert (
            np.linalg.norm(recon - cov.entries) / np.linalg.norm(cov.entries) < 1e-10
        )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_load_returns_csv_roundtrip(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n0.1,0.0\n0.3,0.01\n")
    panel = load_returns_csv(path)
    assert panel.assets == ("a", "b")
    npt.assert_allclose(panel.rows, [[0.1, 0.0], [0.3, 0.01]])


def test_load_returns_csv_strips_utf8_bom(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b"\xef\xbb\xbfA,B\n0.1,0.0\n0.3,0.01\n")
    assert load_returns_csv(path).assets == ("A", "B")


def test_load_returns_csv_missing_cell(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n0.1,\n0.3,0.01\n")
    with pytest.raises(NonFiniteData):
        load_returns_csv(path)


def test_load_returns_csv_short_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n0.1\n0.3,0.01\n")
    with pytest.raises(NonFiniteData):
        load_returns_csv(path)


def test_load_returns_csv_non_numeric(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b\n0.1,oops\n")
    with pytest.raises(NonFiniteData):
        load_returns_csv(path)


# ---------------------------------------------------------------------------
# CSV ingestion against the per-cell reference reader
# ---------------------------------------------------------------------------

def reference_load(path) -> ReturnsPanel:
    """The per-cell reader that ``np.loadtxt`` replaced: ``csv`` plus ``float``."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if len(rows) < 2:
        raise NonFiniteData(f"{path}: need a header row and at least one data row")
    header = [name.strip() for name in rows[0]]
    n = len(header)
    data = np.empty((len(rows) - 1, n), dtype=float)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise NonFiniteData(f"{path}: row {i} has {len(row)} cells, expected {n}")
        for j, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise NonFiniteData(f"{path}: missing cell at row {i}, column {j + 1}")
            try:
                data[i - 2, j] = float(text)
            except ValueError as exc:
                raise NonFiniteData(
                    f"{path}: cell at row {i}, column {j + 1} is not a number: {text!r}"
                ) from exc
    return ReturnsPanel(assets=tuple(header), rows=data)


def _messy_csv(rng, t, n) -> str:
    """CSV text of a random panel with quoted and padded cells, blank lines
    and mixed line ends."""
    values = rng.normal(0.0, 0.05, size=(t, n)) * 10.0 ** rng.integers(-3, 3, (t, n))
    formats = ["{!r}", "{:.10g}", "{:.17g}", "{:.3e}", "{:+.6f}"]
    pads = ["", " ", "  ", "\t", " \t "]
    ends = ["\n", "\r\n", "\r"]
    names = [f"asset {j}" if j % 3 else f'"A,{j}\r\n{j}"' for j in range(n)]
    lines = [",".join(names)]
    for row in values:
        cells = []
        for v in row:
            text = formats[rng.integers(len(formats))].format(float(v))
            pad, tail = pads[rng.integers(len(pads))], pads[rng.integers(len(pads))]
            if rng.random() < 0.3:
                cells.append(f'"{pad}{text}{tail}"')
            else:
                cells.append(f"{pad}{text}{tail}")
        lines.append(",".join(cells))
        if rng.random() < 0.1:
            lines.append("")
    return "".join(line + ends[rng.integers(len(ends))] for line in lines)


@pytest.mark.parametrize("seed", range(8))
def test_loader_equals_per_cell_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    text = _messy_csv(rng, int(rng.integers(2, 60)), int(rng.integers(2, 30)))
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    panel, reference = load_returns_csv(path), reference_load(path)
    assert panel.assets == reference.assets
    assert np.array_equal(panel.rows, reference.rows)


def test_loader_keeps_leading_blank_lines_and_bom(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b"\xef\xbb\xbf\r\n\na,b\r\n\r\n0.1,0.2\r\n0.3,0.4\r\n\r\n")
    panel = load_returns_csv(path)
    assert panel.assets == ("a", "b")
    assert np.array_equal(panel.rows, reference_load(path).rows)


@pytest.mark.parametrize("body", [
    "a,b\n0.1,\n0.3,0.01\n",                 # missing cell
    "a,b\n0.1\n0.3,0.01\n",                  # short row
    "a,b\n0.1,0.2,\n0.3,0.01\n",             # trailing comma
    "a,b\n0.1,0.2\n   \n0.3,0.01\n",         # whitespace-only line
    "a,b\n\n0.1,0.2\n\n0.3,oops\n",          # non-number, after blank lines
    "a,b\n0.1,0.2\n0.3,0.1#x\n",             # no comment syntax
    'a,b\n0.1,0.2\n"0.3,0.4"\n',             # quoted comma is inside one cell
    "a,b\n0.1,0.2,0.5\n0.3,0.4,0.5\n",       # every row too long
    "a,b\n",                                 # header only
    "a,b\n\n\r\n",                           # header and blank lines only
    "",                                      # empty file
])
def test_loader_error_messages_match_reference(tmp_path, body):
    path = tmp_path / "r.csv"
    path.write_text(body, newline="")
    with pytest.raises(NonFiniteData) as expected:
        reference_load(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteData) as got:
            load_returns_csv(path)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("cell", ["1_0", "١", "0.٢"])
def test_loader_rejects_what_only_python_float_accepts(tmp_path, cell):
    path = tmp_path / "r.csv"
    path.write_text(f"a,b\n0.1,0.2\n{cell},0.4\n", encoding="utf-8")
    assert reference_load(path).rows[1, 0] == float(cell)
    with pytest.raises(NonFiniteData) as got:
        load_returns_csv(path)
    assert str(got.value) == f"{path}: cell at row 3, column 1 is not a number: {cell!r}"


def test_loader_names_a_fault_after_a_row_csv_cannot_read(tmp_path):
    # row 3 holds a number numpy reads but that is over the csv module's field
    # size limit; the fault is the cell in row 4
    long = "0.1" + "0" * 199_997
    path = tmp_path / "r.csv"
    path.write_text(f"a,b\n0.1,0.2\n{long},0.3\noops,0.4\n")
    assert len(long) == 200_000 and float(long) == 0.1
    with pytest.raises(NonFiniteData) as got:
        load_returns_csv(path)
    assert str(got.value) == f"{path}: cell at row 4, column 1 is not a number: 'oops'"


def test_loader_names_a_row_csv_cannot_read_that_spans_lines(tmp_path):
    # row 3's quoted cell is over the csv module's field size limit and holds
    # a line break; it is one row, and the rows after it are numbered from 4
    long = "1" * 200_000
    path = tmp_path / "r.csv"
    path.write_text(f'a,b\n0.1,0.2\n0.3,"{long}\n2"\n0.4,0.5\n0.6,0.7\n')
    with pytest.raises(NonFiniteData) as got:
        load_returns_csv(path)
    assert str(got.value) == (f"{path}: row 3 cannot be read as CSV: "
                              "field larger than field limit (131072)")
    path.write_text(f'a,b\n0.1,0.2\n0.3,"{long}\n2"\n0.4,0.5\noops,0.7\n')
    with pytest.raises(NonFiniteData) as got:
        load_returns_csv(path)
    assert str(got.value) == f"{path}: cell at row 5, column 1 is not a number: 'oops'"


@pytest.mark.parametrize("text", [
    'a,b\r\n1,2\r\n', 'a,b\r1,2\r', '"a\nb",c\n1,2\n', '"a""\n",b\n1,2',
    'a,b\n\n  \n1,"2"x\n', 'a,"b\n', '"a"b"\n",c\n', ',\n,,\r\n"',
])
def test_record_split_matches_the_csv_module(text):
    records, end = [], 0
    while end < len(text):
        record = _CSV_RECORD.match(text, end)
        end = record.end()
        rows = list(csv.reader([record.group()]))
        assert len(rows) <= 1
        records += rows
    assert records == list(csv.reader(io.StringIO(text, newline="")))


# ---------------------------------------------------------------------------
# One eigendecomposition per estimate
# ---------------------------------------------------------------------------

@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_estimate_moments_decomposes_once(eigh_calls):
    rng = np.random.default_rng(21)
    rows = rng.normal(0.01, 0.02, size=(40, 6)) + np.linspace(0.0, 0.01, 6)
    _, cov = estimate_moments(ReturnsPanel(tuple("abcdef"), rows))
    assert len(eigh_calls) == 1
    # the reused decomposition is bit for bit the one from_entries computes
    again = CovMatrix.from_entries(cov.entries)
    assert np.array_equal(again.entries, cov.entries)
    assert np.array_equal(again.eigenvalues, cov.eigenvalues)
    assert np.array_equal(again.eigenpairs[1], cov.eigenpairs[1])


def test_estimate_moments_decomposes_once_when_repairing(eigh_calls):
    # the floored matrix is V max(rho, floor) V', so its spectrum is known
    panel = ReturnsPanel(assets=("a", "b"), rows=np.array([[0.1, 0.0], [0.3, 0.0]]))
    with pytest.warns(SpdRepairWarning):
        _, cov = estimate_moments(panel)
    assert len(eigh_calls) == 1
    floor = EIGEN_FLOOR_RATIO * cov.eigenvalues[0]
    assert cov.eigenvalues[-1] == floor
    rho, vecs = cov.eigenpairs
    npt.assert_allclose((vecs * rho) @ vecs.T, cov.entries, rtol=0, atol=1e-15 * rho[0])


def test_nan_reconstruction_raises_convergence_failure(monkeypatch):
    real = np.linalg.eigh

    def nan_vectors(a):
        rho, vecs = real(a)
        return rho, np.full_like(vecs, np.nan)

    monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
    with pytest.raises(ConvergenceFailure, match="reconstruction error nan"):
        CovMatrix.from_entries(random_spd(np.random.default_rng(3), 4))


# ---------------------------------------------------------------------------
# One parse and one decomposition per unchanged input
# ---------------------------------------------------------------------------

# Two assets that move together: the sample covariance is singular and floored.
FLOORED_CSV = "a,b\n0.1,0.2\n0.3,0.6\n-0.1,-0.2\n"


def test_repeat_load_parses_and_decomposes_nothing(tmp_path, monkeypatch,
                                                   loadtxt_calls, eigh_calls):
    forget_loads(monkeypatch)
    path, twin = tmp_path / "r.csv", tmp_path / "twin.csv"
    path.write_text("a,b,c\n0.1,0.2,0.05\n0.3,-0.1,0.0\n-0.2,0.1,0.3\n0.0,0.4,-0.1\n")
    twin.write_bytes(path.read_bytes())
    panel = load_returns_csv(path)
    alpha, cov = estimate_moments(panel)
    assert (len(loadtxt_calls), len(eigh_calls)) == (1, 1)
    for again in (path, twin):  # the key is the bytes, not the path
        assert load_returns_csv(again) is panel
        assert estimate_moments(panel) == (alpha, cov)
        assert estimate_moments(panel)[1] is cov
    assert (len(loadtxt_calls), len(eigh_calls)) == (1, 1)
    # an equal panel that is another object is estimated afresh, bit for bit
    alpha2, cov2 = estimate_moments(ReturnsPanel(panel.assets, panel.rows))
    assert len(eigh_calls) == 2 and cov2 is not cov
    assert np.array_equal(alpha2.entries, alpha.entries)
    assert np.array_equal(cov2.eigenpairs[1], cov.eigenpairs[1])


def test_rewritten_file_of_the_same_size_and_mtime_is_parsed_again(
        tmp_path, monkeypatch, loadtxt_calls):
    forget_loads(monkeypatch)
    path = tmp_path / "r.csv"
    path.write_text("a,b\n0.1,0.2\n0.3,0.4\n")
    stamp = path.stat()
    first = load_returns_csv(path)
    path.write_text("a,b\n0.1,0.2\n0.3,0.5\n")
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stamp.st_size,
                                                              stamp.st_mtime_ns)
    second = load_returns_csv(path)
    assert len(loadtxt_calls) == 2 and second is not first
    assert second.rows[1, 1] == 0.5 and first.rows[1, 1] == 0.4


def test_floored_panel_warns_on_every_load_hits_included(tmp_path, monkeypatch,
                                                         eigh_calls):
    forget_loads(monkeypatch)
    path = tmp_path / "r.csv"
    path.write_text(FLOORED_CSV)
    messages, covs = [], []
    for _ in range(3):
        with pytest.warns(SpdRepairWarning) as record:
            covs.append(estimate_moments(load_returns_csv(path))[1])
        assert len(record) == 1 and record[0].filename == __file__
        messages.append(str(record[0].message))
    assert len(set(messages)) == 1 and messages[0].startswith("sample covariance")
    assert covs[1] is covs[0] and covs[2] is covs[0]
    assert len(eigh_calls) == 1  # one load: the sample, floored in its own eigenbasis


def test_floored_panel_without_repair_still_raises_after_a_repair(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(FLOORED_CSV)
    panel = load_returns_csv(path)
    with pytest.warns(SpdRepairWarning):
        estimate_moments(panel, spd_repair=True)
    for _ in range(2):
        with pytest.raises(SingularCovariance, match="SPD repair is disabled"):
            estimate_moments(panel, spd_repair=False)
    with pytest.warns(SpdRepairWarning):
        estimate_moments(panel, spd_repair=True)


def test_failing_csv_is_never_cached(tmp_path, monkeypatch, capsys, loadtxt_calls):
    forget_loads(monkeypatch)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("a,b\n0.1,0.2\n0.3,0.4\n")
    bad.write_text("a,b\n0.1,0.2\n0.3,oops\n")
    panel = load_returns_csv(good)
    answers = []
    for _ in range(3):
        with pytest.raises(NonFiniteData) as info:
            load_returns_csv(bad)
        assert str(info.value) == f"{bad}: cell at row 3, column 2 is not a number: 'oops'"
        assert cli.main(["estimate", "--input", str(bad)]) == 3
        answers.append(capsys.readouterr())
        assert moments._last_load[1] is panel
    assert len(loadtxt_calls) == 1 + 2 * 3
    assert answers[0].out == "" and answers.count(answers[0]) == 3
    assert answers[0].err == f"code=NonFiniteData {info.value}\n"
    assert load_returns_csv(good) is panel


# ---------------------------------------------------------------------------
# The identity and the shrink toward it, on the cached spectrum
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def test_identity_decomposes_nothing(eigh_calls):
    identity = CovMatrix.identity(5)
    assert eigh_calls == []
    assert np.array_equal(identity.entries, np.eye(5))
    assert np.array_equal(identity.eigenvalues, np.ones(5))
    assert np.array_equal(identity.eigenpairs[1], np.eye(5))
    with pytest.raises(DimensionError):
        CovMatrix.identity(1)


def test_toward_identity_maps_the_spectrum_without_decomposing(eigh_calls):
    cov = random_cov(np.random.default_rng(33), 6, kappa=1e3)
    eigh_calls.clear()
    w = 0.37
    shrunk = cov.toward_identity(w)
    assert eigh_calls == []
    # the entries are the bits the convex combination has always had
    assert np.array_equal(shrunk.entries, w * np.eye(6) + (1.0 - w) * cov.entries)
    assert np.array_equal(shrunk.eigenvalues, w + (1.0 - w) * cov.eigenvalues)
    assert shrunk.eigenpairs[1] is cov.eigenpairs[1]
    assert not shrunk.entries.flags.writeable
    assert not shrunk.eigenvalues.flags.writeable


def test_toward_identity_at_zero_is_the_spectrum_bit_for_bit():
    cov = random_cov(np.random.default_rng(31), 7, kappa=1e4)
    shrunk = cov.toward_identity(0.0)
    assert np.array_equal(shrunk.entries, cov.entries)
    assert np.array_equal(shrunk.eigenvalues, cov.eigenvalues)
    assert shrunk.eigenpairs[1] is cov.eigenpairs[1]


def test_toward_identity_at_one_is_the_identity_bit_for_bit():
    cov = random_cov(np.random.default_rng(32), 7, kappa=1e4)
    shrunk, identity = cov.toward_identity(1.0), CovMatrix.identity(7)
    for field in ("entries", "spectrum", "basis"):
        assert np.array_equal(getattr(shrunk, field), getattr(identity, field))


@pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
def test_toward_identity_matches_a_fresh_decomposition(n):
    # Each eigenvalue and kappa~ within 32 kappa~ eps relative of what eigh
    # gives for the same entries (largest seen over n <= 200 and kappa <= 1e6:
    # 7.6 kappa~ eps).
    rng = np.random.default_rng(40 + n)
    for w in [*10.0 ** rng.uniform(-8.0, -1.0, 3), *rng.uniform(0.0, 1.0, 3)]:
        cov = random_cov(rng, n, kappa=10.0 ** rng.uniform(0.0, 6.0))
        mapped = cov.toward_identity(float(w))
        fresh = CovMatrix.from_entries(mapped.entries)
        tolerance = 32.0 * fresh.condition_number * EPS
        npt.assert_allclose(mapped.eigenvalues, fresh.eigenvalues, rtol=tolerance, atol=0)
        assert mapped.condition_number == pytest.approx(fresh.condition_number,
                                                        rel=tolerance, abs=0)


# ---------------------------------------------------------------------------
# The shrink toward the diagonal, through the correlation spectrum
# ---------------------------------------------------------------------------

@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def toward_diagonal_entries(cov, w):
    """The bits the convex combination toward diag(Sigma) has always had."""
    return w * np.diag(np.diag(cov.entries)) + (1.0 - w) * cov.entries


def test_toward_diagonal_decomposes_the_correlation_once(eigh_calls, eigvalsh_calls):
    cov = random_cov(np.random.default_rng(34), 6, kappa=1e3)
    eigh_calls.clear()
    shrunk = [cov.toward_diagonal(w) for w in (0.3, 0.7, 0.3)]
    assert eigh_calls == [(6, 6)] and eigvalsh_calls == []
    for w, matrix in zip((0.3, 0.7, 0.3), shrunk):
        assert np.array_equal(matrix.entries, toward_diagonal_entries(cov, w))
        assert matrix.basis is shrunk[0].basis
        assert not matrix.entries.flags.writeable
        matrix.solve(np.ones(6))
    assert eigvalsh_calls == []
    # kappa~ reads the shrunk matrix's own eigenvalues, once per matrix
    kappas = [matrix.condition_number for matrix in shrunk + shrunk]
    assert eigvalsh_calls == [(6, 6)] * 3 and kappas[:3] == kappas[3:]
    assert not shrunk[0].eigenvalues.flags.writeable
    assert eigh_calls == [(6, 6)]


def test_a_diagonal_shrunk_qoqc_solve_pairs_one_decomposition(eigh_calls, eigvalsh_calls):
    # QOQC reads the shrunk matrix's eigenvalues and eigenvectors from its one
    # eigh, and not the eigvalsh that kappa~ reads
    rng = np.random.default_rng(39)
    n = 30
    cov = random_cov(rng, n, kappa=1e3)
    alpha = AlphaVector(rng.uniform(0.02, 0.2, n))
    cov.toward_diagonal(0.5)  # R's eigh, kept with cov
    eigh_calls.clear()
    spec = ShrinkageSpec(mode=ShrinkMode.DIAGONAL, k=0.3)
    solve_robust(Program.QOQC, alpha, cov, spec, gamma=2.0, g0=1.0, n0=10.0)
    assert (eigh_calls, eigvalsh_calls) == ([(n, n)], [])
    shrunk = cov.toward_diagonal(0.3)
    rho, vecs = shrunk.eigenpairs
    residual = np.linalg.norm(shrunk.entries @ vecs - vecs * rho, axis=0)
    assert residual.max() <= 8.0 * n * EPS * rho[0]
    # kappa~ keeps eigvalsh's bits, whatever was read before it
    assert np.array_equal(shrunk.eigenvalues, np.linalg.eigvalsh(shrunk.entries)[::-1])
    assert shrunk.eigenpairs[0] is rho


def test_toward_diagonal_endpoints_decompose_nothing(eigh_calls, eigvalsh_calls):
    cov = random_cov(np.random.default_rng(35), 7, kappa=1e4)
    eigh_calls.clear()
    assert cov.toward_diagonal(0.0) is cov
    full = cov.toward_diagonal(1.0)
    d = np.diag(cov.entries)
    assert np.array_equal(full.entries, np.diag(d))
    assert np.array_equal(full.eigenvalues, np.sort(d)[::-1])
    assert full.condition_number == d.max() / d.min()
    x = np.random.default_rng(36).standard_normal(7)
    # the bits a fresh decomposition of D gives: (1/d) x through a permutation
    assert np.array_equal(full.solve(x), CovMatrix.from_entries(np.diag(d)).solve(x))
    assert (eigh_calls, eigvalsh_calls) == ([(7, 7)], [])


@pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
def test_toward_diagonal_matches_a_fresh_decomposition(n):
    # Each eigenvalue and kappa~ within 32 n kappa~ eps relative, and each
    # solve within 32 n kappa~ eps of its largest entry, of what a fresh eigh
    # of the same entries gives; both sides' errors have an O(n eps) floor
    # (largest seen here: 1.5 n kappa~ eps for a solve and 0.27 n kappa~ eps
    # for an eigenvalue). The factor whitens.
    rng = np.random.default_rng(140 + n)
    for w in [*10.0 ** rng.uniform(-8.0, -1.0, 3), *rng.uniform(0.0, 1.0, 3)]:
        cov = random_cov(rng, n, kappa=10.0 ** rng.uniform(0.0, 6.0))
        shrunk = cov.toward_diagonal(float(w))
        fresh = CovMatrix.from_entries(shrunk.entries)
        tolerance = 32.0 * n * fresh.condition_number * EPS
        npt.assert_allclose(shrunk.eigenvalues, fresh.eigenvalues, rtol=tolerance, atol=0)
        assert shrunk.condition_number == pytest.approx(fresh.condition_number,
                                                        rel=tolerance, abs=0)
        assert np.array_equal(shrunk.eigenpairs[1], fresh.eigenpairs[1])
        x = rng.standard_normal(n)
        want = fresh.solve(x)
        npt.assert_allclose(shrunk.solve(x), want, rtol=0,
                            atol=tolerance * np.abs(want).max())
        assert np.linalg.norm(shrunk.whiten(x)) ** 2 == pytest.approx(x @ want, rel=tolerance)
        assert np.linalg.norm(shrunk.risk_coordinates(x)) ** 2 == pytest.approx(
            shrunk.quad(x), rel=32.0 * n * EPS)


def test_a_scaled_matrix_shrinks_again_through_its_own_entries():
    cov = random_cov(np.random.default_rng(37), 8, kappa=1e3)
    shrunk = cov.toward_diagonal(0.4)
    x = np.random.default_rng(38).standard_normal(8)
    for again in (shrunk.toward_identity(0.5), shrunk.toward_diagonal(0.5)):
        fresh = CovMatrix.from_entries(again.entries)
        tolerance = 256.0 * fresh.condition_number * EPS
        npt.assert_allclose(again.eigenvalues, fresh.eigenvalues, rtol=tolerance, atol=0)
        npt.assert_allclose(again.solve(x), fresh.solve(x), rtol=0,
                            atol=tolerance * np.abs(fresh.solve(x)).max())
    assert np.array_equal(shrunk.toward_identity(0.5).entries,
                          0.5 * np.eye(8) + 0.5 * shrunk.entries)
    assert np.array_equal(shrunk.toward_diagonal(0.5).entries,
                          toward_diagonal_entries(shrunk, 0.5))


def reference_sign_fix(vectors: np.ndarray) -> np.ndarray:
    """Column-by-column sign convention that ``_sign_fix_columns`` vectorizes."""
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        thresh = 1e-8 * np.max(np.abs(col))
        idx = np.flatnonzero(np.abs(col) > thresh)
        pivot = idx[0] if idx.size else 0
        if col[pivot] < 0:
            fixed[:, j] = -col
    return fixed


@pytest.mark.parametrize("order", ["C", "F"])
def test_sign_fix_matches_column_loop(order):
    rng = np.random.default_rng(8)
    vecs = rng.standard_normal((7, 9))
    vecs[:3, 1] = [-1e-12, 1e-11, -3e-9]   # leading entries below the threshold
    vecs[:2, 2] = [-1e-9, 0.0]
    vecs[:, 3] = 0.0                         # no entry above the threshold
    vecs[:, 4] = -vecs[:, 4] ** 2            # all negative
    vecs = np.asarray(vecs, order=order)
    fixed = _sign_fix_columns(vecs)
    assert np.array_equal(fixed, reference_sign_fix(vecs))
    assert fixed.flags.c_contiguous
    assert fixed[3, 1] > 0 and fixed[2, 2] > 0
