import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    AlphaVector,
    CovMatrix,
    DegenerateAlpha,
    InvalidK,
    KktProblem,
    MissingParameter,
    NonPositiveParameter,
    Portfolio,
    Program,
    ShrinkageSpec,
    ShrinkMode,
    alpha_angle,
    angle_floor,
    robust,
    robust_alpha,
    shrink_covariance,
    solve,
    solve_kkt,
    solve_robust,
    solvers,
)

from mvgear.moments import as_vector

from conftest import random_instance, random_spd


def full_shrink(program, alpha, **params):
    """``program`` at the full-shrink limit: the same program on Sigma~ = I."""
    return solvers.solve(program, alpha, CovMatrix.identity(as_vector(alpha).size),
                         **params)


def damped_implicit_iteration(alpha, cov, k, iterations=200, damping=0.5):
    """Independent oracle for the uncertainty-ball covariance identity.

    Iterates the raw bracket form

        theta <- (1-d) theta + d N[ (k|a||t|/s) I + ((a't - k|a||t|)/s) Sigma ]^-1 a

    where the bracket's return/risk terms (t, s) are those of the base
    fully-invested risky portfolio (recomputed from plain dot products and a
    dense solve every pass) and N normalizes to gearing one.
    """
    a = np.asarray(alpha.entries if hasattr(alpha, "entries") else alpha, float)
    sigma = np.asarray(cov.entries, float)
    base = np.linalg.solve(sigma, a)
    base = base / base.sum()
    theta = base.copy()
    for _ in range(iterations):
        norm_prod = np.linalg.norm(a) * np.linalg.norm(base)
        risk = np.sqrt(base @ sigma @ base)
        bracket = (k * norm_prod / risk) * np.eye(a.size) + (
            (a @ base - k * norm_prod) / risk
        ) * sigma
        candidate = np.linalg.solve(bracket, a)
        candidate = candidate / candidate.sum()
        theta = (1.0 - damping) * theta + damping * candidate
    return theta


# ---------------------------------------------------------------------------
# robust_alpha
# ---------------------------------------------------------------------------

def test_robust_alpha_zero_radius(micro_alpha):
    theta = np.array([0.4, 0.6])
    assert robust_alpha(micro_alpha, theta, k=0.0) == pytest.approx(
        float(micro_alpha.entries @ theta), abs=1e-15
    )


def test_robust_alpha_collinear(micro_alpha):
    a = micro_alpha.entries
    for k in [0.1, 0.5, 0.9]:
        assert robust_alpha(micro_alpha, a, k) == pytest.approx(
            (1.0 - k) * float(a @ a), abs=1e-15
        )


def test_robust_alpha_worked_example(micro_alpha):
    value = robust_alpha(micro_alpha, np.array([0.0, 1.0]), k=0.5)
    assert value == pytest.approx(0.2 - 0.5 * np.sqrt(0.05), abs=1e-12)


def test_robust_alpha_rejects_bad_k(micro_alpha):
    for k in [-0.1, 1.0, 1.5]:
        with pytest.raises(InvalidK):
            robust_alpha(micro_alpha, micro_alpha.entries, k)


def test_robust_alpha_angle_decomposition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal(4)
        t = rng.standard_normal(4)
        k = float(rng.uniform(0.0, 0.99))
        scale = np.linalg.norm(a) * np.linalg.norm(t)
        assert robust_alpha(a, t, k) == pytest.approx(
            scale * (alpha_angle(a, t) - k), abs=1e-12 * max(1.0, scale)
        )


@pytest.mark.parametrize("scale", [2.0**700, 2.0**-700, 1e200, 1e-200])
def test_robust_alpha_holds_when_a_norm_alone_overflows(scale):
    # |alpha||theta| is finite though |theta| (or |alpha|) alone squares past
    # the float range: exact for a power of two, within a few eps otherwise
    rng = np.random.default_rng(4)
    a, t = rng.standard_normal(4), rng.standard_normal(4)
    want = robust_alpha(a, t, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = robust_alpha(a / scale, t * scale, 0.3)
    if np.log2(scale).is_integer():
        assert got == want
    assert got == pytest.approx(want, rel=8 * np.finfo(float).eps, abs=0)


# ---------------------------------------------------------------------------
# shrink_covariance
# ---------------------------------------------------------------------------

def test_shrink_zero_is_identity_map():
    rng = np.random.default_rng(5)
    alpha, cov = random_instance(rng, 4)
    shrunk = shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.0))
    npt.assert_allclose(shrunk.entries, cov.entries, rtol=0, atol=1e-15)


def test_simple_full_shrink_reaches_identity(micro_alpha):
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    shrunk = shrink_covariance(cov, micro_alpha, ShrinkageSpec(ShrinkMode.SIMPLE, 1.0))
    npt.assert_allclose(shrunk.entries, np.eye(2), atol=1e-15)


def test_simple_half_shrink_diagonal(micro_alpha):
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    shrunk = shrink_covariance(cov, micro_alpha, ShrinkageSpec(ShrinkMode.SIMPLE, 0.5))
    npt.assert_allclose(shrunk.entries, np.diag([2.5, 1.0]), atol=1e-15)
    assert shrunk.condition_number == pytest.approx(2.5, rel=1e-12)


def test_diagonal_mode_preserves_diagonal(micro_alpha):
    entries = np.array([[0.04, 0.01], [0.01, 0.09]])
    cov = CovMatrix.from_entries(entries)
    shrunk = shrink_covariance(cov, micro_alpha, ShrinkageSpec(ShrinkMode.DIAGONAL, 0.5))
    npt.assert_allclose(np.diag(shrunk.entries), np.diag(entries), atol=1e-15)
    assert shrunk.entries[0, 1] == pytest.approx(0.005, abs=1e-15)


def test_condition_number_never_worsens():
    rng = np.random.default_rng(7)
    for mode in ShrinkMode:
        for _ in range(20):
            alpha, cov = random_instance(rng, int(rng.integers(2, 7)))
            if mode is ShrinkMode.ANGLE_TARGETED:
                k = float(rng.uniform(0.0, 0.999)) * angle_floor(alpha, cov)
            else:
                k = float(rng.uniform(0.0, 1.0))
            shrunk = shrink_covariance(cov, alpha, ShrinkageSpec(mode=mode, k=k))
            assert shrunk.condition_number <= cov.condition_number + 1e-10


def test_condition_number_strictly_improves():
    rng = np.random.default_rng(9)
    alpha, cov = random_instance(rng, 5, kappa=50.0)
    shrunk = shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.SIMPLE, 0.3))
    assert shrunk.condition_number < cov.condition_number - 1e-6


@pytest.mark.parametrize("mode", [ShrinkMode.SIMPLE, ShrinkMode.ANGLE_TARGETED])
@pytest.mark.parametrize("n", [2, 3, 10, 50, 200])
def test_identity_shrinks_solve_like_a_fresh_decomposition(mode, n):
    # The mapped spectrum and a fresh eigh of the same entries give every
    # program's weights within 256 kappa~ eps of the largest weight (largest
    # seen over n <= 200 and kappa <= 1e6: 70 kappa~ eps, program VI at n = 3).
    rng = np.random.default_rng(60 + n)
    params = {"sigma0": 0.5, "alpha0": 0.1, "gamma": 2.0, "g0": 1.0,
              "n0": min(1.5, n)}
    for _ in range(3):
        alpha, cov = random_instance(rng, n, kappa=10.0 ** rng.uniform(0.0, 6.0),
                                     min_d_ratio=0.01)
        q = float(rng.uniform(0.0, 1.0))
        k = q * angle_floor(alpha, cov) if mode is ShrinkMode.ANGLE_TARGETED else q
        mapped = shrink_covariance(cov, alpha, ShrinkageSpec(mode=mode, k=k))
        fresh = CovMatrix.from_entries(mapped.entries)
        tolerance = 256.0 * fresh.condition_number * np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", solvers.InefficientBranchWarning)
            for program in solvers.PROGRAMS:
                got = solvers.solve(program, alpha, mapped, **params).weights
                want = solvers.solve(program, alpha, fresh, **params).weights
                npt.assert_allclose(got, want, rtol=0,
                                    atol=tolerance * np.abs(want).max(),
                                    err_msg=f"program {program.value}")


def scaled_correlation_instance(rng, n, kappa):
    """(AlphaVector, CovMatrix) with Sigma = S R S: a correlation R with
    kappa(R) <= 100 and volatilities S spread so that kappa(Sigma) ~ kappa,
    ill-conditioned in the diagonal that the shrink targets."""
    r = random_spd(rng, n, kappa=100.0)
    r = r / np.sqrt(np.outer(np.diag(r), np.diag(r)))
    vol = np.exp(rng.uniform(0.0, 0.5 * np.log(kappa), n))
    vol[:2] = 1.0, np.sqrt(kappa)
    return (AlphaVector(rng.uniform(0.02, 0.2, n)),
            CovMatrix.from_entries(vol[:, None] * r * vol[None, :]))


@pytest.mark.parametrize("n", [50, 200, 500])
def test_diagonal_shrink_matches_the_kkt_oracle(n):
    # GMV, VI and VII on Sigma(q) = q diag(Sigma) + (1 - q) Sigma against the
    # bordered KKT system of Sigma(q)'s entries, each weight within
    # 8 n kappa~ eps of the largest (largest seen: 1.03 n kappa~ eps, VII at
    # n = 200, q = 0.9, kappa~ = 1.9; the error has an O(n eps) floor, so the
    # well-conditioned points are the tight ones)
    rng = np.random.default_rng(90 + n)
    ones, zeros = np.ones((1, n)), np.zeros(n)
    for kappa in (1e2, 1e5, 1e8):
        for alpha, cov in (random_instance(rng, n, kappa=kappa, min_d_ratio=0.01),
                           scaled_correlation_instance(rng, n, kappa)):
            a, alpha0 = alpha.entries, float(alpha.entries.mean())
            for q in (0.1, 0.5, 0.9):
                shrunk = shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.DIAGONAL, q))
                sigma = shrunk.entries
                cases = {
                    Program.GMV: ({}, KktProblem(sigma, zeros, ones, [1.0])),
                    Program.VI: ({"alpha0": alpha0, "g0": 1.0},
                                 KktProblem(sigma, zeros, np.vstack([a, ones]),
                                            [alpha0, 1.0])),
                    Program.VII: ({"gamma": 2.0, "g0": 1.0},
                                  KktProblem(2.0 * sigma, a, ones, [1.0])),
                }
                tolerance = 8.0 * n * shrunk.condition_number * np.finfo(float).eps
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", solvers.InefficientBranchWarning)
                    for program, (params, problem) in cases.items():
                        want, _ = solve_kkt(problem)
                        got = solvers.solve(program, alpha, shrunk, **params).weights
                        npt.assert_allclose(got, want, rtol=0,
                                            atol=tolerance * np.abs(want).max(),
                                            err_msg=f"{program.value}, kappa {kappa}, q {q}")


def test_angle_targeted_k_range():
    rng = np.random.default_rng(11)
    alpha, cov = random_instance(rng, 3)
    k0 = angle_floor(alpha, cov)
    with pytest.raises(InvalidK):
        shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, k0))
    with pytest.raises(InvalidK):
        shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, -0.01))
    with pytest.raises(InvalidK):
        shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.SIMPLE, 1.5))


def test_angle_targeted_weight_is_k_over_floor():
    rng = np.random.default_rng(13)
    alpha, cov = random_instance(rng, 3)
    k0 = angle_floor(alpha, cov)
    angle = shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.5 * k0))
    plain = shrink_covariance(cov, alpha, ShrinkageSpec(ShrinkMode.SIMPLE, 0.5))
    npt.assert_allclose(angle.entries, plain.entries, rtol=1e-14)


# ---------------------------------------------------------------------------
# Shrunk portfolios
# ---------------------------------------------------------------------------

def test_shrunk_risky_zero_shrink():
    rng = np.random.default_rng(15)
    alpha, cov = random_instance(rng, 4)
    port = solve_robust(Program.RISKY, alpha, cov,
                        ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.0))
    npt.assert_allclose(
        port.weights, solve(Program.RISKY, alpha, cov).weights, atol=1e-12
    )


def test_shrunk_risky_full_shrink_is_alpha_hat():
    rng = np.random.default_rng(17)
    alpha, cov = random_instance(rng, 5)
    port = solve_robust(Program.RISKY, alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 1.0))
    npt.assert_allclose(
        port.weights, alpha.entries / alpha.entries.sum(), rtol=1e-12
    )


def test_shrunk_risky_alignment_monotone_on_grid():
    alpha = AlphaVector([0.1, 0.2])
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    ports = [solve_robust(Program.RISKY, alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, q))
             for q in [0.0, 0.5, 1.0]]
    cosines = [alpha_angle(alpha, port.weights) for port in ports]
    assert cosines[0] <= cosines[1] + 1e-12 <= cosines[2] + 2e-12


def test_shrunk_gmv_limits():
    rng = np.random.default_rng(19)
    alpha, cov = random_instance(rng, 4)
    zero = solve_robust(Program.GMV, alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 0.0))
    npt.assert_allclose(zero.weights, solve(Program.GMV, None, cov).weights, atol=1e-12)
    full = solve_robust(Program.GMV, alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 1.0))
    npt.assert_allclose(full.weights, np.full(4, 0.25), atol=1e-12)


def test_shrunk_gmv_half_shrink_diagonal(micro_alpha):
    cov = CovMatrix.from_entries(np.diag([4.0, 1.0]))
    port = solve_robust(Program.GMV, micro_alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 0.5))
    expected = solve(Program.GMV, None, CovMatrix.from_entries(np.diag([2.5, 1.0]))).weights
    npt.assert_allclose(port.weights, expected, rtol=1e-13)
    npt.assert_allclose(port.weights, [0.4 / 1.4, 1.0 / 1.4], rtol=1e-12)


def test_cash_neutrality_preserved_along_grid():
    rng = np.random.default_rng(23)
    alpha, cov = random_instance(rng, 5)
    for q in np.linspace(0.0, 1.0, 11):
        spec = ShrinkageSpec(ShrinkMode.SIMPLE, float(q))
        gmv = solve_robust(Program.GMV, alpha, cov, spec)
        risky = solve_robust(Program.RISKY, alpha, cov, spec)
        assert float(np.sum(gmv.weights - risky.weights)) == pytest.approx(
            0.0, abs=1e-12
        )


# ---------------------------------------------------------------------------
# solve_robust
# ---------------------------------------------------------------------------

def test_solve_robust_zero_shrink_matches_plain():
    rng = np.random.default_rng(29)
    alpha, cov = random_instance(rng, 4)
    spec = ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.0)
    plain = solve(Program.VII, alpha, cov, gamma=2.0, g0=1.0)
    shrunk = solve_robust(Program.VII, alpha, cov, spec, gamma=2.0, g0=1.0)
    npt.assert_allclose(shrunk.weights, plain.weights, atol=1e-12)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_zero_shrink_is_identity_on_every_program():
    rng = np.random.default_rng(30)
    alpha, cov = random_instance(rng, 4)
    spec = ShrinkageSpec(ShrinkMode.SIMPLE, 0.0)
    cases = [
        (Program.GMV, {}),
        (Program.RISKY, {}),
        (Program.I, {"sigma0": 0.4}),
        (Program.II, {"alpha0": 0.08}),
        (Program.III, {"gamma": 2.0}),
        (Program.IV, {"g0": 1.0}),
        (Program.V, {"g0": 1.3}),
        (Program.VI, {"alpha0": 0.2, "g0": 1.0}),
        (Program.VII, {"gamma": 1.5, "g0": 1.0}),
        (Program.VIII, {"g0": 2.0}),
    ]
    for program, params in cases:
        via = solve_robust(program, alpha, cov, spec, **params)
        npt.assert_allclose(via.weights, solve(program, alpha, cov, **params).weights,
                            atol=1e-12, rtol=0)


@pytest.mark.parametrize("spec", [None, ShrinkageSpec(ShrinkMode.SIMPLE, 0.4),
                                  ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.1)])
def test_solve_robust_builds_one_record(monkeypatch, spec):
    # The shrunk weights come from the table's weights step; only the record
    # on the unshrunk covariance is a Portfolio.
    rng = np.random.default_rng(38)
    alpha, cov = random_instance(rng, 4)
    built, real = [], Portfolio.__post_init__

    def counting(self):
        built.append(self.program)
        real(self)

    monkeypatch.setattr(Portfolio, "__post_init__", counting)
    port = solve_robust(Program.VII, alpha, cov, spec, gamma=1.5, g0=1.0)
    assert built == [Program.VII]
    assert port.params["g0"] == 1.0
    assert ("shrink_k" in port.params) == (spec is not None)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_solve_robust_delegates_to_shrunk_solver():
    rng = np.random.default_rng(31)
    alpha, cov = random_instance(rng, 4)
    spec = ShrinkageSpec(ShrinkMode.SIMPLE, 0.4)
    shrunk_cov = shrink_covariance(cov, alpha, spec)
    direct = solve(Program.VI, alpha, shrunk_cov, alpha0=0.12, g0=1.0)
    via = solve_robust(Program.VI, alpha, cov, spec, alpha0=0.12, g0=1.0)
    npt.assert_allclose(via.weights, direct.weights, atol=1e-13)


def test_solve_robust_ignores_unset_and_unused_parameters():
    rng = np.random.default_rng(32)
    alpha, cov = random_instance(rng, 4)
    spec = ShrinkageSpec(ShrinkMode.SIMPLE, 0.4)
    npt.assert_array_equal(
        solve_robust(Program.IV, alpha, cov, spec, g0=None).weights,
        solve_robust(Program.IV, alpha, cov, spec, g0=1.0).weights)
    npt.assert_array_equal(
        solve_robust(Program.VII, alpha, cov, spec, sigma0=None, alpha0=None,
                     gamma=1.5, g0=1.0).weights,
        solve_robust(Program.VII, alpha, cov, spec, gamma=1.5, g0=1.0).weights)
    npt.assert_array_equal(
        solve_robust(Program.GMV, alpha, cov, spec, sigma0=0.3, gamma=2.0).weights,
        solve_robust(Program.GMV, alpha, cov, spec).weights)
    with pytest.raises(MissingParameter, match="program VII requires --gamma"):
        solve_robust(Program.VII, alpha, cov, spec, gamma=None, g0=1.0)


def test_solve_robust_full_shrink_matches_max_shrink_vii():
    # the geared equal-weight portfolio plus a cash-neutral relative-return tilt
    rng = np.random.default_rng(37)
    alpha, cov = random_instance(rng, 5)
    via = solve_robust(Program.VII, alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 1.0),
                       gamma=1.5, g0=0.8)
    a = alpha.entries
    npt.assert_allclose(via.weights, 0.8 / 5 + (a - a.mean()) / 1.5, atol=1e-12)


def test_solve_robust_vi_on_identity(micro_alpha, micro_cov):
    port = solve_robust(Program.VI, micro_alpha, micro_cov,
                        ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, 0.0), alpha0=0.2, g0=1.0)
    npt.assert_allclose(port.weights, [0.0, 1.0], atol=1e-13)


# ---------------------------------------------------------------------------
# Maximally shrunk programs: each program on Sigma~ = I
# ---------------------------------------------------------------------------

def test_max_shrink_vii_flat_alpha_is_equal_weight():
    port = full_shrink(Program.VII, AlphaVector([0.07, 0.07, 0.07]), gamma=2.0, g0=1.5)
    npt.assert_allclose(port.weights, np.full(3, 0.5), atol=1e-15)


def test_max_shrink_vii_worked_example(micro_alpha):
    port = full_shrink(Program.VII, micro_alpha, gamma=1.0, g0=1.0)
    npt.assert_allclose(port.weights, [0.45, 0.55], rtol=1e-13)


def test_max_shrink_vii_cash_neutral(micro_alpha):
    port = full_shrink(Program.VII, micro_alpha, gamma=1.0, g0=0.0)
    npt.assert_allclose(port.weights, [-0.05, 0.05], atol=1e-15)
    assert port.gearing == pytest.approx(0.0, abs=1e-15)


def test_max_shrink_vii_matches_solve_vii_on_identity(micro_alpha, micro_cov):
    cov = CovMatrix.from_entries(np.array([[0.04, 0.01], [0.01, 0.09]]))
    closed = solve_robust(Program.VII, micro_alpha, cov, ShrinkageSpec(ShrinkMode.SIMPLE, 1.0),
                          gamma=1.0, g0=1.0)
    direct = solve(Program.VII, micro_alpha, micro_cov, gamma=1.0, g0=1.0)
    npt.assert_allclose(closed.weights, direct.weights, rtol=1e-13)


def test_max_shrink_vii_rejects_nonpositive_gamma(micro_alpha):
    with pytest.raises(NonPositiveParameter):
        full_shrink(Program.VII, micro_alpha, gamma=0.0, g0=1.0)


def test_max_shrink_vi_inflection_is_equal_weight():
    alpha = AlphaVector([0.05, 0.1, 0.15])
    port = full_shrink(Program.VI, alpha, alpha0=0.1 * 1.2, g0=1.2)
    npt.assert_allclose(port.weights, np.full(3, 0.4), atol=1e-13)


def test_max_shrink_vi_worked_example(micro_alpha):
    port = full_shrink(Program.VI, micro_alpha, alpha0=0.2, g0=1.0)
    npt.assert_allclose(port.weights, [0.0, 1.0], atol=1e-13)
    theta, _ = solve_kkt(KktProblem(
        quadratic=np.eye(2), linear=np.zeros(2),
        eq_matrix=np.vstack([micro_alpha.entries, np.ones(2)]), eq_rhs=[0.2, 1.0],
    ))
    npt.assert_allclose(port.weights, theta, atol=1e-10)


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_max_shrink_vi_constraint_audit():
    rng = np.random.default_rng(41)
    for _ in range(20):
        alpha = AlphaVector(rng.uniform(0.01, 0.2, 5))
        alpha0 = float(rng.uniform(0.02, 0.3))
        g0 = float(rng.uniform(0.2, 2.0))
        port = full_shrink(Program.VI, alpha, alpha0=alpha0, g0=g0)
        assert float(alpha.entries @ port.weights) == pytest.approx(alpha0, rel=1e-10)
        assert port.gearing == pytest.approx(g0, rel=1e-10)
        # g0 e + w~ (alpha^ - e), w~ = (alpha0 abar - g0 abar^2) / var(alpha)
        a = alpha.entries
        tilt = (alpha0 * a.mean() - g0 * a.mean() ** 2) / a.var()
        npt.assert_allclose(port.weights, g0 / 5 + tilt * (a / a.sum() - 1 / 5),
                            rtol=1e-10, atol=1e-12)


def test_max_shrink_vi_degenerate_alpha():
    with pytest.raises(DegenerateAlpha):
        full_shrink(Program.VI, AlphaVector([0.1, 0.1]), alpha0=0.1, g0=1.0)


# ---------------------------------------------------------------------------
# Implicit shrunk portfolio (uncertainty-ball identity): the angle-targeted
# shrink of the risky portfolio
# ---------------------------------------------------------------------------

def implicit(alpha, cov, k):
    return solve_robust(Program.RISKY, alpha, cov, ShrinkageSpec(ShrinkMode.ANGLE_TARGETED, k))


def test_implicit_zero_k_is_risky():
    rng = np.random.default_rng(43)
    alpha, cov = random_instance(rng, 4)
    port = implicit(alpha, cov, 0.0)
    npt.assert_allclose(
        port.weights, solve(Program.RISKY, alpha, cov).weights, atol=1e-12
    )


def test_implicit_identity_cov_any_k(micro_alpha, micro_cov):
    for k in [0.1, 0.4, 0.8]:
        port = implicit(micro_alpha, micro_cov, k)
        npt.assert_allclose(
            port.weights, micro_alpha.entries / micro_alpha.entries.sum(), rtol=1e-12
        )


def test_implicit_matches_damped_fixed_point():
    rng = np.random.default_rng(47)
    alpha, cov = random_instance(rng, 4)
    k = 0.5 * angle_floor(alpha, cov)
    port = implicit(alpha, cov, k)
    oracle = damped_implicit_iteration(alpha, cov, k)
    npt.assert_allclose(port.weights, oracle, atol=1e-8)


def test_implicit_rejects_k_at_or_above_floor():
    rng = np.random.default_rng(53)
    alpha, cov = random_instance(rng, 3)
    with pytest.raises(InvalidK):
        implicit(alpha, cov, angle_floor(alpha, cov))


# ---------------------------------------------------------------------------
# Alignment monotonicity (the point of the whole construction)
# ---------------------------------------------------------------------------

def test_alignment_monotone_in_shrink():
    rng = np.random.default_rng(59)
    done = 0
    while done < 25:
        alpha, cov = random_instance(rng, int(rng.integers(2, 7)))
        grid = np.linspace(0.0, 1.0, 11)
        try:
            ports = [
                solve_robust(Program.RISKY, alpha, cov,
                             ShrinkageSpec(ShrinkMode.SIMPLE, float(q)))
                for q in grid
            ]
        except Exception:
            continue
        cosines = [alpha_angle(alpha, p.weights) for p in ports]
        assert all(b >= a - 1e-12 for a, b in zip(cosines, cosines[1:]))
        done += 1


# ---------------------------------------------------------------------------
# kappa~ of a diagonal shrink: one eigvalsh per weight per covariance
# ---------------------------------------------------------------------------

def counted_eigvalsh(monkeypatch):
    """One entry per ``numpy.linalg.eigvalsh`` call from now on."""
    real, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def fresh_kappa(cov, w):
    """kappa~(w) from one eigvalsh of w D + (1 - w) Sigma, formed afresh."""
    sigma = np.asarray(cov.entries)
    rho = np.linalg.eigvalsh(w * np.diag(np.diag(sigma)) + (1.0 - w) * sigma)[::-1]
    return float(rho[0] / rho[-1])


def kept_weights(cov):
    return set(cov.__dict__.get("_diagonal_conditions", {}))


def test_a_diagonal_sweep_reads_kappa_once_per_weight_bit_for_bit(monkeypatch):
    # a miss, the same sweep repeated and a sweep of the same grid for
    # another program all write one kappa~ column, the fresh eigvalsh's bits;
    # only the miss calls eigvalsh, once per point inside (0, 1)
    alpha, cov = random_instance(np.random.default_rng(61), 12)
    grid = np.linspace(0.0, 1.0, 11)
    expected = [float(cov.condition_number),
                *(fresh_kappa(cov, float(q)) for q in grid[1:-1]),
                float(cov._diagonal.condition_number)]
    calls = counted_eigvalsh(monkeypatch)
    for program, params, eigvalsh in [(None, {}, 9), (None, {}, 0),
                                      (Program.VII, {"gamma": 1.0, "g0": 1.0}, 0)]:
        calls.clear()
        path = robust.shrink_sweep(alpha, cov, ShrinkMode.DIAGONAL, grid, program, **params)
        assert path.kappa_tilde.tolist() == expected
        assert len(calls) == eigvalsh
    assert kept_weights(cov) == set(grid[1:-1].tolist())


def test_a_point_solved_alone_reads_the_batch_kappa(monkeypatch):
    # _sweep_point and the batch read one memoized kappa~: each alone, on its
    # own copy of the covariance, forms the same bits; after the batch a point
    # solved alone calls no eigvalsh
    alpha, cov = random_instance(np.random.default_rng(67), 8)
    a, twin = as_vector(alpha), CovMatrix.from_entries(cov.entries)
    for q in (0.1, 0.5, 0.9):
        spec = ShrinkageSpec(ShrinkMode.DIAGONAL, q)
        batch = robust.shrink_sweep(a, cov, ShrinkMode.DIAGONAL, [q]).kappa_tilde[0]
        alone = robust._sweep_point(a, twin, spec, None, {})[0]
        assert alone == batch == fresh_kappa(cov, q)
        calls = counted_eigvalsh(monkeypatch)
        assert robust._sweep_point(a, cov, spec, None, {})[0] == batch
        assert calls == []
        monkeypatch.undo()


def test_a_sweep_keeps_no_weight_outside_its_grid():
    alpha, cov = random_instance(np.random.default_rng(71), 6)
    first = np.linspace(0.0, 1.0, 6)
    second = np.array([0.4, 0.5, 0.6, 1.0])
    robust.shrink_sweep(alpha, cov, ShrinkMode.DIAGONAL, first)
    assert kept_weights(cov) == {0.2, 0.4, 0.6000000000000001, 0.8}
    robust.shrink_sweep(alpha, cov, ShrinkMode.DIAGONAL, second)
    assert kept_weights(cov) == {0.4, 0.5, 0.6}
    robust.shrink_sweep(alpha, cov, ShrinkMode.SIMPLE, first)  # no kappa~ read
    assert kept_weights(cov) == {0.4, 0.5, 0.6}
    robust.shrink_sweep(alpha, cov, ShrinkMode.DIAGONAL, [0.0, 1.0])
    assert kept_weights(cov) == set()
