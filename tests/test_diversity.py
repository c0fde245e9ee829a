import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize_scalar

from mvgear import (
    AlphaVector,
    CovMatrix,
    Infeasible,
    NonPositiveParameter,
    QoqcProblem,
    solve_QOQC,
    solve_qoqc,
)
from mvgear.diversity import GEARING_TOL, SPHERE_TOL, STATIONARITY_TOL

from conftest import random_instance


def manifold_grid_oracle(problem, samples=1_000_000):
    """Brute force the circle {1'theta = g0, theta'theta = 1/n0} in 3-D.

    Parameterizes the feasible set, scans `samples` angles, then polishes the
    best one with a bounded scalar search.
    """
    n = problem.dim
    assert n == 3
    center = problem.g0 * np.ones(n) / n
    radius = np.sqrt(1.0 / problem.n0 - problem.g0**2 / n)
    z1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    z2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)

    def point(t):
        return center + radius * (np.cos(t) * z1 + np.sin(t) * z2)

    ts = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    thetas = center + radius * (
        np.cos(ts)[:, None] * z1 + np.sin(ts)[:, None] * z2
    )
    values = thetas @ problem.alpha - 0.5 * problem.gamma * np.einsum(
        "ij,jk,ik->i", thetas, problem.cov.entries, thetas
    )
    best = int(np.argmax(values))
    step = 2.0 * np.pi / samples
    result = minimize_scalar(
        lambda t: -problem.objective(point(t)),
        bounds=(ts[best] - 2 * step, ts[best] + 2 * step),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return point(result.x)


def check_solution(problem, sol):
    theta = sol.weights
    assert abs(float(theta @ theta) - 1.0 / problem.n0) <= SPHERE_TOL
    assert abs(float(theta.sum()) - problem.g0) <= GEARING_TOL
    assert sol.kkt_residual <= STATIONARITY_TOL
    grad = (
        -problem.alpha
        + problem.gamma * problem.cov.entries @ theta
        - 2.0 * sol.lambda1 * theta
        - sol.lambda2 * np.ones(problem.dim)
    )
    assert np.abs(grad).max() <= STATIONARITY_TOL


# ---------------------------------------------------------------------------
# Worked instances
# ---------------------------------------------------------------------------

def test_unique_feasible_point(micro_alpha, micro_cov):
    problem = QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                          gamma=1.0, g0=1.0, n0=2.0)
    sol = solve_qoqc(problem)
    npt.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-14)
    assert sol.diagnostics["boundary"]


def test_two_point_feasible_set(micro_alpha, micro_cov):
    # {1'theta = 1, theta'theta = 1} in 2-D is {(1,0), (0,1)}; the objective
    # alpha'theta - theta'theta/2 prefers (0, 1).
    problem = QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                          gamma=1.0, g0=1.0, n0=1.0)
    sol = solve_qoqc(problem)
    npt.assert_allclose(sol.weights, [0.0, 1.0], atol=1e-10)
    assert sol.objective > problem.objective(np.array([1.0, 0.0]))
    check_solution(problem, sol)


def test_matches_manifold_grid_oracle():
    rng = np.random.default_rng(101)
    alpha, cov = random_instance(rng, 3)
    problem = QoqcProblem(alpha=alpha.entries, cov=cov, gamma=2.0, g0=1.0, n0=2.0)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    oracle = manifold_grid_oracle(problem)
    npt.assert_allclose(sol.weights, oracle, atol=1e-6)
    assert sol.objective >= problem.objective(oracle) - 1e-10


def test_matches_manifold_grid_oracle_more_instances():
    rng = np.random.default_rng(103)
    for _ in range(5):
        alpha, cov = random_instance(rng, 3)
        g0 = float(rng.uniform(0.4, 1.4))
        hi = min(3.0, 3.0 / g0**2)
        n0 = float(rng.uniform(1.05, 0.97 * hi))
        problem = QoqcProblem(alpha=alpha.entries, cov=cov,
                              gamma=float(rng.uniform(0.5, 4.0)), g0=g0, n0=n0)
        sol = solve_qoqc(problem)
        check_solution(problem, sol)
        oracle = manifold_grid_oracle(problem, samples=400_000)
        npt.assert_allclose(sol.weights, oracle, atol=1e-6)


# ---------------------------------------------------------------------------
# Validation and edge cases
# ---------------------------------------------------------------------------

def test_infeasible_gearing(micro_alpha, micro_cov):
    with pytest.raises(Infeasible):
        QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                    gamma=1.0, g0=2.0, n0=1.0)


def test_n0_outside_range(micro_alpha, micro_cov):
    with pytest.raises(Infeasible):
        QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                    gamma=1.0, g0=1.0, n0=3.0)


def test_nonpositive_gamma(micro_alpha, micro_cov):
    with pytest.raises(NonPositiveParameter):
        QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                    gamma=-1.0, g0=1.0, n0=1.5)


def test_boundary_returns_geared_equal_weight_exactly():
    rng = np.random.default_rng(107)
    alpha, cov = random_instance(rng, 4)
    g0 = 1.0
    problem = QoqcProblem(alpha=alpha.entries, cov=cov, gamma=1.5, g0=g0, n0=4.0)
    sol = solve_qoqc(problem)
    npt.assert_array_equal(sol.weights, g0 * np.ones(4) / 4)


def test_approaches_equal_weight_as_diversity_tightens():
    # diagonal covariance; pushing n0 toward the feasibility bound forces g0 e
    alpha = AlphaVector([0.05, 0.1, 0.15, 0.2])
    cov = CovMatrix.from_entries(np.diag([0.04, 0.09, 0.01, 0.16]))
    g0 = 1.0
    e = g0 * np.ones(4) / 4
    previous = np.inf
    for n0 in [2.0, 3.0, 3.6, 3.9, 3.99]:
        sol = solve_qoqc(QoqcProblem(alpha=alpha.entries, cov=cov,
                                     gamma=2.0, g0=g0, n0=n0))
        distance = float(np.linalg.norm(sol.weights - e))
        assert distance < previous
        previous = distance


def test_hard_case_construction():
    # alpha - gamma g0 Sigma e in span{1} makes the reduced linear term vanish
    cov = CovMatrix.from_entries(np.diag([0.04, 0.04, 0.09]))
    gamma, g0 = 2.0, 1.0
    alpha = gamma * g0 * cov.entries @ (np.ones(3) / 3) + 0.01
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=2.0)
    sol = solve_qoqc(problem)
    assert sol.diagnostics["hard_case"]
    check_solution(problem, sol)


def test_second_order_condition_on_generic_instances():
    # Second-order optimality lives in the gearing-eliminated space:
    # gamma Z'Sigma Z + nu I must be PSD for the returned ridge shift nu.
    from scipy.linalg import null_space

    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        alpha, cov = random_instance(rng, n)
        g0 = float(rng.uniform(0.3, 1.5))
        hi = n / g0**2
        n0 = float(rng.uniform(1.0, min(n, 0.9 * hi)))
        problem = QoqcProblem(alpha=alpha.entries, cov=cov,
                              gamma=float(rng.uniform(0.5, 5.0)), g0=g0, n0=n0)
        sol = solve_qoqc(problem)
        check_solution(problem, sol)
        if not sol.diagnostics.get("boundary"):
            shift = sol.diagnostics["ridge_shift"]
            z = null_space(np.ones((1, n)))
            reduced = problem.gamma * z.T @ cov.entries @ z + shift * np.eye(n - 1)
            assert np.linalg.eigvalsh(reduced).min() > -1e-10


def test_ridge_matrix_spd_on_worked_example(micro_alpha, micro_cov):
    problem = QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                          gamma=1.0, g0=1.0, n0=1.0)
    sol = solve_qoqc(problem)
    shift = sol.diagnostics["ridge_shift"]
    assert shift == pytest.approx(-0.9, abs=1e-10)
    ridge = shift * np.eye(2) + problem.gamma * micro_cov.entries
    assert np.linalg.eigvalsh(ridge).min() > 0


def test_portfolio_wrapper(micro_alpha, micro_cov):
    problem = QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                          gamma=1.0, g0=1.0, n0=1.0)
    sol = solve_qoqc(problem)
    port = solve_QOQC(micro_alpha, micro_cov, gamma=1.0, g0=1.0, n0=1.0)
    assert np.array_equal(port.weights, sol.weights)
    assert port.program.value == "QOQC"
    assert port.params["n0"] == 1.0
    assert port.params["lambda1"] == pytest.approx(0.45, abs=1e-10)
    assert port.gearing == pytest.approx(1.0, abs=1e-12)
