import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    AlphaVector,
    AsymmetricCovariance,
    CovMatrix,
    DegenerateAlpha,
    DimensionError,
    NonFiniteData,
    ReturnsPanel,
    SingularCovariance,
    SpdRepairWarning,
    condition_number,
    estimate_moments,
    load_returns_csv,
    spectral_decompose,
)
from mvgear.moments import EIGEN_FLOOR_RATIO

from conftest import random_cov, random_spd


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
    assert condition_number(CovMatrix.identity(4)) == pytest.approx(1.0, abs=1e-14)


def test_condition_number_diagonal():
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    assert condition_number(cov) == pytest.approx(4.0, rel=1e-14)


def test_condition_number_matches_characteristic_polynomial():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((5, 5))
    mat = b.T @ b + 0.1 * np.eye(5)
    cov = CovMatrix.from_entries(mat)
    roots = np.sort(np.real(np.roots(np.poly(mat))))
    assert condition_number(cov) == pytest.approx(roots[-1] / roots[0], rel=1e-6)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 7.5, 1e3])
def test_condition_number_scale_invariant(c):
    rng = np.random.default_rng(5)
    mat = random_spd(rng, 4, kappa=30.0)
    kappa = condition_number(CovMatrix.from_entries(mat))
    kappa_scaled = condition_number(CovMatrix.from_entries(c * mat))
    assert kappa_scaled == pytest.approx(kappa, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_spectral_decompose_diagonal():
    rho, vecs = spectral_decompose(CovMatrix.from_entries(np.diag([4.0, 1.0])))
    npt.assert_allclose(rho, [4.0, 1.0])
    npt.assert_allclose(vecs[:, 0], [1.0, 0.0])
    npt.assert_allclose(vecs[:, 1], [0.0, 1.0])


def test_spectral_decompose_classic_2x2():
    rho, vecs = spectral_decompose(CovMatrix.from_entries([[2.0, 1.0], [1.0, 2.0]]))
    npt.assert_allclose(rho, [3.0, 1.0], rtol=1e-14)
    npt.assert_allclose(vecs[:, 0], [1.0, 1.0] / np.sqrt(2.0), rtol=1e-14)
    npt.assert_allclose(vecs[:, 1], [1.0, -1.0] / np.sqrt(2.0), rtol=1e-14)


def test_spectral_reconstruction_6x6():
    rng = np.random.default_rng(9)
    cov = random_cov(rng, 6, kappa=200.0)
    rho, vecs = spectral_decompose(cov)
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
        assert cov.eigenvalues[-1] > 0
        recon = (cov.eigenvectors * cov.eigenvalues) @ cov.eigenvectors.T
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
