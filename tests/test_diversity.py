import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import null_space
from scipy.optimize import brentq, minimize_scalar

from mvgear import (
    AlphaVector,
    CovMatrix,
    Infeasible,
    NonFiniteData,
    NonPositiveParameter,
    Program,
    QoqcProblem,
    ToleranceNotMet,
    diversity,
    solve,
    solve_qoqc,
    solvers,
)
from mvgear.cli import main
from mvgear.diversity import GEARING_TOL, SPHERE_TOL

from conftest import random_cov, random_instance, random_orthogonal

EPS = np.finfo(float).eps


def objective(problem, theta) -> float:
    """alpha'theta - (gamma/2) theta'Sigma theta, the objective QOQC maximizes."""
    return float(problem.alpha @ theta - 0.5 * problem.gamma * problem.cov.quad(theta))


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
        lambda t: -objective(problem, point(t)),
        bounds=(ts[best] - 2 * step, ts[best] + 2 * step),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return point(result.x)


def reference_qoqc(problem):
    """Weights by the earlier solver: a ``null_space`` basis, bracket doubling, ``brentq``.

    Covers the case with a pole at -lambda_min only (no hard case, no
    boundary); the stated tolerances are checked on the production solver.
    """
    n = problem.dim
    delta2 = 1.0 / problem.n0 - problem.g0**2 / n
    delta = float(np.sqrt(delta2))
    e = np.ones(n) / n
    basis = null_space(np.ones((1, n)))
    reduced_h = problem.gamma * (basis.T @ problem.cov.entries @ basis)
    reduced_h = 0.5 * (reduced_h + reduced_h.T)
    b = basis.T @ (problem.alpha - problem.gamma * problem.g0 * (problem.cov.entries @ e))
    d, u_vecs = np.linalg.eigh(reduced_h)
    bt = u_vecs.T @ b

    def h(nu):
        return float(np.sum((bt / (d + nu)) ** 2)) - delta2

    scale = max(1.0, float(np.abs(d).max()))
    lo = -d[0] + 1e-13 * scale
    assert h(lo) > 0.0
    hi = max(lo + scale, float(np.linalg.norm(b)) / delta - d[0])
    for _ in range(60):
        if h(hi) <= 0.0:
            break
        hi = 2.0 * hi + scale
    else:
        raise AssertionError("no sign change after 60 doublings")
    nu = brentq(h, lo, hi, xtol=1e-12, maxiter=200)
    u = u_vecs @ (bt / (d + nu))
    u *= delta / float(np.linalg.norm(u))
    return problem.g0 * e + basis @ u


def certificate(problem, sol):
    """(passed, detail) of the program table's certificate of ``sol``, the
    check a QOQC solve and ``verify`` run."""
    params = {"gamma": problem.gamma, "g0": problem.g0, "n0": problem.n0,
              "lambda1": sol.lambda1, "lambda2": sol.lambda2}
    passed, detail, _ = solvers._certificate(sol.weights, problem.alpha, problem.cov,
                                             problem.cov.entries, Program.QOQC, params)
    return passed, detail


def check_solution(problem, sol) -> float:
    """Assert the constraints, the certificate and an absolute 1e-8 on the
    Lagrangian gradient (these instances are of unit scale); returns the
    gradient's max-norm."""
    theta = sol.weights
    assert abs(float(theta @ theta) - 1.0 / problem.n0) <= SPHERE_TOL
    assert abs(float(theta.sum()) - problem.g0) <= GEARING_TOL
    passed, detail = certificate(problem, sol)
    assert passed, detail
    grad = (
        -problem.alpha
        + problem.gamma * problem.cov.entries @ theta
        - 2.0 * sol.lambda1 * theta
        - sol.lambda2 * np.ones(problem.dim)
    )
    residual = float(np.abs(grad).max())
    assert residual <= 1e-8
    return residual


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
    assert objective(problem, sol.weights) > objective(problem, np.array([1.0, 0.0]))
    check_solution(problem, sol)


def test_matches_manifold_grid_oracle():
    rng = np.random.default_rng(101)
    alpha, cov = random_instance(rng, 3)
    problem = QoqcProblem(alpha=alpha.entries, cov=cov, gamma=2.0, g0=1.0, n0=2.0)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    oracle = manifold_grid_oracle(problem)
    npt.assert_allclose(sol.weights, oracle, atol=1e-6)
    assert objective(problem, sol.weights) >= objective(problem, oracle) - 1e-10


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


@pytest.mark.parametrize("g0", [np.nan, np.inf, -np.inf])
def test_non_finite_g0(micro_alpha, micro_cov, g0):
    with pytest.raises(NonPositiveParameter, match="g0 must be finite"):
        QoqcProblem(alpha=micro_alpha.entries, cov=micro_cov,
                    gamma=1.0, g0=g0, n0=1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_alpha(micro_cov, bad):
    with pytest.raises(NonFiniteData):
        QoqcProblem(alpha=[bad, 0.2], cov=micro_cov, gamma=1.0, g0=1.0, n0=1.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1e308, 1e100])
def test_an_overflowing_gamma_rho_max_is_refused_unwarned(gamma):
    # rho_max = 4e108: gamma rho_max passes the float range at 1e308, and only
    # its square does at 1e100
    cov = CovMatrix.from_entries(np.diag([4e108, 1e108, 2e108]))
    problem = QoqcProblem(alpha=[0.1, 0.2, 0.3], cov=cov, gamma=gamma, g0=1.0, n0=2.0)
    with pytest.raises(NonFiniteData, match="gamma rho_max = .* squares past the float"):
        solve_qoqc(problem)


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


def test_matches_reference_solver_on_seeded_instances():
    # Over 800 such instances (this seed and three others) the largest gap
    # was 3.1e-12 max|theta|; the reference's absolute root tolerance of
    # 1e-12 dominates it.
    rng = np.random.default_rng(113)
    for _ in range(200):
        n = int(np.exp(rng.uniform(np.log(2.0), np.log(200.0))))
        alpha, cov = random_instance(rng, n, kappa=float(10.0 ** rng.uniform(0.0, 6.0)))
        g0 = float(rng.uniform(0.25, min(2.0, np.sqrt(n))))
        n0 = float(rng.uniform(1.0, min(n, n / g0**2)))
        problem = QoqcProblem(alpha=alpha.entries, cov=cov,
                              gamma=float(10.0 ** rng.uniform(-1.0, 1.5)), g0=g0, n0=n0)
        sol = solve_qoqc(problem)
        check_solution(problem, sol)
        reference = reference_qoqc(problem)
        npt.assert_allclose(sol.weights, reference, rtol=0.0,
                            atol=1e-11 * np.abs(reference).max())


@pytest.mark.parametrize("bottom", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("ratio", [1.01, 4.0])
def test_near_hard_case_converges(bottom, ratio):
    # b has component `bottom` on the bottom eigenvector of Z'Sigma Z, and the
    # rest of b alone overfills the sphere at the pole by `ratio`, so the root
    # lies right of the steep pole term that Newton starts on. Over 21 seeds
    # Newton took at most 13 steps. The weights are sensitive to nu here: the
    # gap to the reference reached 2.6e-8 max|theta|, where the reference's
    # stationarity residual was 4e-13 and this solver's 1e-16.
    rng = np.random.default_rng(127)
    for _ in range(4):
        n = int(rng.integers(3, 40))
        cov = random_cov(rng, n, kappa=float(10.0 ** rng.uniform(0.0, 4.0)))
        gamma, g0 = 2.0, 1.0
        n0 = float(rng.uniform(1.0, 0.9 * n))
        delta = np.sqrt(1.0 / n0 - g0**2 / n)
        z = null_space(np.ones((1, n)))
        d, x = np.linalg.eigh(gamma * z.T @ cov.entries @ z)
        bt = rng.standard_normal(n - 1)
        bt *= ratio * delta / np.linalg.norm(bt[1:] / (d[1:] - d[0]))
        bt[0] = bottom
        alpha = gamma * g0 * cov.entries @ (np.ones(n) / n) + z @ (x @ bt) + 0.05
        problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
        sol = solve_qoqc(problem)
        check_solution(problem, sol)
        assert not sol.diagnostics["hard_case"]
        assert sol.diagnostics["iterations"] <= 20
        reference = reference_qoqc(problem)
        npt.assert_allclose(sol.weights, reference, rtol=0.0,
                            atol=1e-7 * np.abs(reference).max())
        assert objective(problem, sol.weights) >= objective(problem, reference) - 1e-15


@pytest.mark.parametrize("seed", range(30))
def test_root_next_to_the_pole_solves(seed):
    # b has component 1e-4, 1e-8 or 1e-12 on the bottom eigenvector of
    # Z'Sigma Z, and the rest of b fills only half the radius at the pole, so
    # the root sits that close to -lambda_min and nu is fixed only to eps |nu|.
    # A uniform rescale onto the sphere then left stationarity residuals of
    # 1.3e-8 to 7.2e-7 on all ten 1e-12 instances.
    rng = np.random.default_rng(seed)
    n, gamma, g0, n0 = 8, 1.0, 1.0, 2.0
    a = rng.standard_normal((n, n))
    cov = CovMatrix.from_entries(a @ a.T / n + 0.1 * np.eye(n))
    delta = np.sqrt(1.0 / n0 - g0**2 / n)
    z = null_space(np.ones((1, n)))
    d, x = np.linalg.eigh(gamma * z.T @ cov.entries @ z)
    bt = rng.standard_normal(n - 1)
    bt *= 0.5 * delta / np.linalg.norm(bt[1:] / (d[1:] - d[0]))
    bt[0] = [1e-4, 1e-8, 1e-12][seed % 3]
    alpha = gamma * g0 * cov.entries @ (np.ones(n) / n) + z @ (x @ bt) + 0.01
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    assert not sol.diagnostics["hard_case"]


def second_order_gap(problem, sol):
    """Smallest eigenvalue of gamma Z'Sigma Z + nu I; with stationarity and
    the constraints, a value >= 0 certifies the global maximum (trust-region
    optimality)."""
    n = problem.dim
    z = null_space(np.ones((1, n)))
    reduced = problem.gamma * z.T @ problem.cov.entries @ z
    return float(np.linalg.eigvalsh(
        reduced + sol.diagnostics["ridge_shift"] * np.eye(n - 1)).min())


def pole_instance(rng, cov, gamma, g0, n0, bottom, ratio):
    """alpha whose reduced linear term has component ``bottom`` on the bottom
    eigenvector of gamma Z'Sigma Z, the rest filling ``ratio`` times the
    radius at the pole; the constant 0.05 is the multiplier's to absorb."""
    n = cov.dim
    delta = np.sqrt(1.0 / n0 - g0**2 / n)
    z = null_space(np.ones((1, n)))
    d, x = np.linalg.eigh(gamma * z.T @ cov.entries @ z)
    bt = rng.standard_normal(n - 1)
    bt *= ratio * delta / np.linalg.norm(bt[1:] / (d[1:] - d[0]))
    bt[0] = bottom
    return gamma * g0 * cov.entries @ (np.ones(n) / n) + z @ (x @ bt) + 0.05


@pytest.mark.parametrize("n", [50, 200, 500])
@pytest.mark.parametrize("kappa", [1e2, 1e5, 1e8])
def test_matches_reference_solver_at_scale(n, kappa):
    # Sigma's cached eigenpairs against the reference's own eigh of the
    # reduced matrix; the largest gap seen was 0.26 kappa eps max|theta|
    # (n = 500, kappa = 1e2), where the reference itself is off by 0.06.
    rng = np.random.default_rng(n + int(np.log10(kappa)))
    alpha, cov = random_instance(rng, n, kappa=kappa)
    problem = QoqcProblem(alpha=alpha.entries, cov=cov,
                          gamma=float(rng.uniform(1.0, 10.0)), g0=1.0, n0=n / 4)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    reference = reference_qoqc(problem)
    npt.assert_allclose(sol.weights, reference, rtol=0.0,
                        atol=4.0 * kappa * EPS * np.abs(reference).max())


def small_r_alpha(rng, cov, gamma, g0, away):
    """alpha with r = alpha - gamma g0 Sigma e of size 1e-6 (so the rest of
    the reduced linear term underfills the sphere at the pole) plus a
    constant, and no component along the unit vector ``away``."""
    n = cov.dim
    r = 1e-6 * rng.standard_normal(n)
    r -= (r @ away) * away
    return gamma * g0 * cov.entries @ (np.ones(n) / n) + r + 0.05


@pytest.mark.parametrize("factor", ["exact", "tiny", "eigh"])
@pytest.mark.parametrize("hard", [False, True])
def test_bottom_eigenvectors_orthogonal_to_ones(hard, factor):
    # Sigma's two bottom eigenvectors (e_1 - e_2)/sqrt(2) and
    # (e_1 + e_2 - 2 e_3)/sqrt(6) lie in the complement of 1: they are
    # eigenvectors of gamma Z'Sigma Z too, the first with its bottom
    # eigenvalue gamma rho_n, and the secular root is not the pole. Held with
    # that exact factor, c_1 = c_2 = 0. Moved by 1e-170 each, c_1^2 underflows
    # and no rotation pairs them, so only the deflation of |c_i| <= 8 eps
    # sqrt(n) keeps the root finder off a zero division. From eigh, c_1 and
    # c_2 are rounding (1e-14 here).
    rng = np.random.default_rng(137)
    n, gamma, g0, n0 = 12, 2.0, 1.0, 3.0
    pair = np.zeros((n, 2))
    pair[:3, 0] = [np.sqrt(0.5), -np.sqrt(0.5), 0.0]
    pair[:3, 1] = [1.0, 1.0, -2.0] / np.sqrt(6.0)
    rest = rng.standard_normal((n, n - 2))
    rest, _ = np.linalg.qr(rest - pair @ (pair.T @ rest))
    if factor == "tiny":
        pair[5:7, [0, 1]] = [[1e-170, 0.0], [0.0, 1e-170]]
    basis = np.column_stack([rest[:, ::-1], pair[:, ::-1]])
    rho = np.geomspace(1.0, 1e-3, n)
    entries = (basis * rho) @ basis.T
    entries = 0.5 * (entries + entries.T)
    cov = (CovMatrix.from_entries(entries) if factor == "eigh"
           else CovMatrix(entries=entries, spectrum=rho, basis=basis))
    if factor != "eigh":
        c = cov.eigenpairs[1].sum(axis=0)
        npt.assert_array_equal(c[-2:], 1e-170 if factor == "tiny" else 0.0)
    bottom = pair[:, 0]
    alpha = (small_r_alpha(rng, cov, gamma, g0, bottom) if hard
             else rng.uniform(0.02, 0.2, n))
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    assert sol.diagnostics["hard_case"] == hard
    assert second_order_gap(problem, sol) >= -1e-12
    if hard:
        assert sol.diagnostics["ridge_shift"] == pytest.approx(-gamma * 1e-3, rel=1e-9)
    else:
        reference = reference_qoqc(problem)
        npt.assert_allclose(sol.weights, reference, rtol=0.0,
                            atol=1e-11 * np.abs(reference).max())


@pytest.mark.parametrize("hard", [False, True])
def test_repeated_bottom_eigenvalue(hard):
    # rho_n twice: one combination of its two eigenvectors lies in the
    # complement of 1 and is the bottom eigenvector of gamma Z'Sigma Z, and the
    # deflation finds it by rotating the pair.
    rng = np.random.default_rng(139)
    n, gamma, g0, n0 = 12, 2.0, 1.0, 3.0
    q = random_orthogonal(rng, n)
    rho = np.concatenate([[1e-3, 1e-3], np.geomspace(2e-3, 1.0, n - 2)])
    cov = CovMatrix.from_entries((q * rho) @ q.T)
    pair = q[:, :2]
    bottom = pair @ np.array([pair[:, 1].sum(), -pair[:, 0].sum()])
    bottom /= np.linalg.norm(bottom)
    alpha = (small_r_alpha(rng, cov, gamma, g0, bottom) if hard
             else rng.uniform(0.02, 0.2, n))
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    assert sol.diagnostics["hard_case"] == hard
    assert second_order_gap(problem, sol) >= -1e-12
    if not hard:
        reference = reference_qoqc(problem)
        npt.assert_allclose(sol.weights, reference, rtol=0.0,
                            atol=1e-11 * np.abs(reference).max())


def test_hard_case_on_the_secular_root():
    # generic Sigma: the bottom eigenvector of gamma Z'Sigma Z mixes all of
    # Sigma's, and is (D - h_1 I)^-1 c in their basis
    rng = np.random.default_rng(149)
    n, gamma, g0, n0 = 30, 2.0, 1.0, 5.0
    cov = random_cov(rng, n, kappa=1e3)
    alpha = pole_instance(rng, cov, gamma, g0, n0, bottom=0.0, ratio=0.5)
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    sol = solve_qoqc(problem)
    check_solution(problem, sol)
    assert sol.diagnostics["hard_case"]
    assert second_order_gap(problem, sol) >= -1e-12


@pytest.mark.parametrize("n,kappa,seed", [(60, 1e5, 0), (120, 4e7, 1), (240, 5e7, 2)])
@pytest.mark.parametrize("bottom", [0.0, 1e-12, 1e-8])
def test_root_at_the_pole_of_an_ill_conditioned_covariance(n, kappa, seed, bottom):
    # The bottom of gamma Sigma sits 1e-7 to 1e-10 below its neighbours, so
    # (D - h_1 I)^-1 c is large. Before a was projected on the complement of
    # c, rounding of its constant part in those entries left 1'theta off by
    # up to 1e-7 (ToleranceNotMet) on such instances.
    rng = np.random.default_rng(seed)
    gamma, g0, n0 = 10.0, 1.0, n / 3
    cov = random_cov(rng, n, kappa=kappa)
    alpha = pole_instance(rng, cov, gamma, g0, n0, bottom=bottom, ratio=0.5)
    problem = QoqcProblem(alpha=alpha, cov=cov, gamma=gamma, g0=g0, n0=n0)
    sol = solve_qoqc(problem)
    assert check_solution(problem, sol) <= 1e-13
    assert second_order_gap(problem, sol) >= -1e-12


def test_qoqc_request_decomposes_nothing_after_the_load(tmp_path, monkeypatch):
    # The load decomposes Sigma once and keeps it; the solve and the verify
    # re-solve then read its eigenpairs and run no second decomposition.
    rng = np.random.default_rng(151)
    n = 15
    rows = 0.01 + 0.05 * rng.standard_normal((60, n))
    csv = tmp_path / "returns.csv"
    csv.write_text(",".join(f"a{i}" for i in range(n)) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    port, report = tmp_path / "q.json", tmp_path / "v.json"
    argv = ["qoqc", "--input", str(csv), "--gamma", "5", "--g0", "1", "--n0", "4",
            "--output", str(port)]
    assert main(argv) == 0
    first = port.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a second decomposition")

    for name in ("eigh", "eigvalsh", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert main(argv) == 0
    assert port.read_bytes() == first
    assert main(["verify", "--input", str(csv), "--portfolio", str(port),
                 "--output", str(report)]) == 0


def test_newton_step_cap_raises_tolerance_not_met(monkeypatch):
    rng = np.random.default_rng(131)
    alpha, cov = random_instance(rng, 6)
    problem = QoqcProblem(alpha=alpha.entries, cov=cov, gamma=2.0, g0=1.0, n0=3.0)
    assert solve_qoqc(problem).diagnostics["iterations"] > 1
    monkeypatch.setattr(diversity, "ROOT_MAXITER", 1)
    with pytest.raises(ToleranceNotMet, match="1 Newton steps"):
        solve_qoqc(problem)


@pytest.mark.parametrize("spoil", [
    lambda sol: dataclasses.replace(sol, lambda2=sol.lambda2 * (1.0 + 1e-6)),
    lambda sol: dataclasses.replace(sol, lambda1=np.nan, lambda2=np.nan),
], ids=["lambda2-off-by-1e-6", "nan-multipliers"])
def test_qoqc_refuses_a_solution_its_certificate_fails(tmp_path, monkeypatch, capsys, spoil):
    # qoqc writes only what the program table's certificate, verify's check,
    # certifies: a solution whose multipliers fail it exits 3 with one
    # ToleranceNotMet line and leaves --output as it was
    rng = np.random.default_rng(131)
    n = 6
    rows = 0.01 + 0.05 * rng.standard_normal((30, n))
    csv = tmp_path / "returns.csv"
    csv.write_text(",".join(f"a{i}" for i in range(n)) + "\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    port = tmp_path / "q.json"
    argv = ["qoqc", "--input", str(csv), "--gamma", "2", "--g0", "1", "--n0", "3",
            "--output", str(port)]
    assert main(argv) == 0
    first = port.read_bytes()
    capsys.readouterr()
    solved = solvers.solve_qoqc
    monkeypatch.setattr(solvers, "solve_qoqc", lambda problem: spoil(solved(problem)))
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("code=ToleranceNotMet QOQC solution not certified: "), lines
    assert port.read_bytes() == first


def test_nan_weights_raise_tolerance_not_met():
    # NaN cached eigenvectors of Sigma make every weight NaN
    rng = np.random.default_rng(131)
    alpha, cov = random_instance(rng, 6)
    nan_cov = CovMatrix(entries=cov.entries, spectrum=cov.spectrum,
                        basis=np.full_like(cov.basis, np.nan))
    problem = QoqcProblem(alpha=alpha.entries, cov=nan_cov, gamma=2.0, g0=1.0, n0=3.0)
    with pytest.raises(ToleranceNotMet, match="constraint residuals"):
        solve_qoqc(problem)


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
    port = solve(Program.QOQC, micro_alpha, micro_cov, gamma=1.0, g0=1.0, n0=1.0)
    assert np.array_equal(port.weights, sol.weights)
    assert port.program.value == "QOQC"
    assert port.params["n0"] == 1.0
    assert port.params["lambda1"] == pytest.approx(0.45, abs=1e-10)
    assert port.gearing == pytest.approx(1.0, abs=1e-12)
