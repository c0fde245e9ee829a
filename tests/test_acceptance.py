"""
Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertion.
"""

import functools
import json
import time

import numpy as np
import numpy.testing as npt
import pytest

import mvgear
from mvgear import (
    CovMatrix,
    KktProblem,
    ShrinkageSpec,
    alpha_angle,
    angle_floor,
    frontier_scalars,
    frontier_variance,
    gmv_portfolio,
    Program,
    kantorovich_bound,
    optimal_risky_portfolio,
    shrink_covariance,
    solve_I,
    solve_II,
    solve_III,
    solve_IV,
    solve_V,
    solve_VI,
    solve_VII,
    solve_VIII,
    solve_kkt,
    solve_qoqc,
    solve_robust,
    solvers,
    worst_case_constrained,
    worst_case_unconstrained,
)
from mvgear.cli import main as cli_main
from mvgear.diversity import QoqcProblem

from conftest import random_cov, random_instance, write_micro_csv
from test_diversity import check_solution, manifold_grid_oracle
from test_robust import damped_implicit_iteration


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {num:02d}] FAIL {desc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"[acceptance {num:02d}] PASS {desc} ({elapsed:.2f}s)")

        return wrapper

    return decorate


def oracle_weights(q, c, e, d):
    theta, _ = solve_kkt(KktProblem(quadratic=q, linear=c, eq_matrix=e, eq_rhs=d))
    return theta


@criterion(1, "Kantorovich bound holds on 1000 instances, kappa up to 1e6")
def test_criterion_01_kantorovich_suite():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        kappa_target = 10.0 ** rng.uniform(0.0, 6.0)
        cov = random_cov(rng, n, kappa=kappa_target)
        alpha = rng.standard_normal(n)
        if np.linalg.norm(alpha) == 0.0:
            continue
        cos = alpha_angle(alpha, cov.solve(alpha))
        kappa = cov.condition_number
        assert cos**2 >= 4.0 * kappa / (kappa + 1.0) ** 2 - 1e-10
    assert time.perf_counter() - start < 5.0


@criterion(2, "worst-case pairs attain their bounds within 1e-10")
def test_criterion_02_equality_attainment():
    rng = np.random.default_rng(2002)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        cov = random_cov(rng, n, kappa=10.0 ** rng.uniform(0.0, 4.0))
        pair = worst_case_unconstrained(cov)
        assert abs(pair.achieved_cos - kantorovich_bound(cov.condition_number)) <= 1e-10
    for _ in range(50):
        n = int(rng.integers(2, 9))
        cov = random_cov(rng, n, kappa=10.0 ** rng.uniform(0.0, 3.0))
        kappa = cov.condition_number
        for eta in (1.0, 2.0, 4.0, 8.0):
            pair = worst_case_constrained(cov, eta=eta)
            target = 2.0 * np.sqrt(eta * kappa) / (eta * kappa + 1.0)
            assert abs(pair.achieved_cos - target) <= 1e-10


@criterion(3, "closed forms match the KKT oracle on 500 instances (1e-8/weight)")
@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(3003)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 9))
        alpha, cov = random_instance(rng, n, kappa=10.0 ** rng.uniform(0.0, 3.0),
                                     min_d_ratio=0.05)
        a = alpha.entries
        sigma = cov.entries
        ones = np.ones(n)
        sigma0 = float(rng.uniform(0.1, 1.0))
        alpha0 = float(rng.uniform(0.05, 0.3))
        gamma = float(rng.uniform(0.5, 5.0))
        g0 = float(rng.uniform(0.5, 2.0))
        zero = np.zeros(n)
        both = np.vstack([a, ones])

        gmv = gmv_portfolio(cov).weights
        npt.assert_allclose(gmv, oracle_weights(sigma, zero, ones[None, :], [1.0]),
                            atol=1e-8, rtol=0)

        w1 = solve_I(alpha, cov, sigma0=sigma0).weights
        npt.assert_allclose(
            w1, oracle_weights(sigma, zero, a[None, :], [float(a @ w1)]),
            atol=1e-8, rtol=0)

        w2 = solve_II(alpha, cov, alpha0=alpha0).weights
        npt.assert_allclose(w2, oracle_weights(sigma, zero, a[None, :], [alpha0]),
                            atol=1e-8, rtol=0)

        w3 = solve_III(alpha, cov, gamma=gamma).weights
        npt.assert_allclose(
            w3, oracle_weights(gamma * sigma, a, np.zeros((0, n)), []),
            atol=1e-8, rtol=0)

        for w_risky in (solve_IV(alpha, cov, g0=g0).weights,
                        solve_V(alpha, cov, g0=g0).weights,
                        solve_VIII(alpha, cov, g0=g0).weights):
            npt.assert_allclose(
                w_risky,
                oracle_weights(sigma, zero, both, [float(a @ w_risky), g0]),
                atol=1e-8, rtol=0)

        scal = frontier_scalars(alpha, cov)
        target = float(g0 * scal.B / scal.A + rng.uniform(0.0, 0.1))
        w6 = solve_VI(alpha, cov, alpha0=target, g0=g0).weights
        npt.assert_allclose(w6, oracle_weights(sigma, zero, both, [target, g0]),
                            atol=1e-8, rtol=0)

        w7 = solve_VII(alpha, cov, gamma=gamma, g0=g0).weights
        npt.assert_allclose(w7, oracle_weights(gamma * sigma, a, ones[None, :], [g0]),
                            atol=1e-8, rtol=0)

        # each program at the full-shrink limit, Sigma~ = I
        m6 = solvers.solve(Program.VI, alpha, CovMatrix.identity(n), alpha0=alpha0,
                           g0=g0).weights
        npt.assert_allclose(m6, oracle_weights(np.eye(n), zero, both, [alpha0, g0]),
                            atol=1e-8, rtol=0)

        m7 = solvers.solve(Program.VII, alpha, CovMatrix.identity(n), gamma=gamma,
                           g0=g0).weights
        npt.assert_allclose(
            m7, oracle_weights(gamma * np.eye(n), a, ones[None, :], [g0]),
            atol=1e-8, rtol=0)
    assert time.perf_counter() - start < 10.0


@criterion(4, "binding gearing/return constraints hold to 1e-10")
@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_criterion_04_constraint_audit():
    rng = np.random.default_rng(4004)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        alpha, cov = random_instance(rng, n, min_d_ratio=0.02)
        a = alpha.entries
        g0 = float(rng.choice([-1.0, 0.5, 1.0, 2.0]))
        alpha0 = float(rng.uniform(0.02, 0.3))

        w = solve_VI(alpha, cov, alpha0=alpha0, g0=g0).weights
        assert abs(w.sum() - g0) <= 1e-10
        assert abs(float(a @ w) - alpha0) <= 1e-10

        w = solve_VII(alpha, cov, gamma=float(rng.uniform(0.5, 5.0)), g0=g0).weights
        assert abs(w.sum() - g0) <= 1e-10

        w = solve_VIII(alpha, cov, g0=abs(g0)).weights
        assert abs(w.sum() - abs(g0)) <= 1e-10

        w = solve_V(alpha, cov, g0=abs(g0)).weights
        assert abs(w.sum() - abs(g0)) <= 1e-10

        for g_neutral in (0.0,):
            w = solve_VII(alpha, cov, gamma=1.0, g0=g_neutral).weights
            assert abs(w.sum() - g_neutral) <= 1e-10

        w = solvers.solve(Program.VI, alpha, CovMatrix.identity(n), alpha0=alpha0,
                          g0=g0).weights
        assert abs(w.sum() - g0) <= 1e-10
        assert abs(float(a @ w) - alpha0) <= 1e-10

        w = solvers.solve(Program.VII, alpha, CovMatrix.identity(n), gamma=2.0,
                          g0=g0).weights
        assert abs(w.sum() - g0) <= 1e-10

    for seed in range(10):
        rng2 = np.random.default_rng(44_000 + seed)
        alpha, cov = random_instance(rng2, 3)
        problem = QoqcProblem(alpha=alpha.entries, cov=cov, gamma=2.0, g0=1.0, n0=2.0)
        sol = solve_qoqc(problem)
        assert abs(sol.weights.sum() - 1.0) <= 1e-10


@criterion(5, "frontier parabola matches solver variance on a 20x10 grid")
@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
def test_criterion_05_frontier_consistency():
    rng = np.random.default_rng(5005)
    alpha, cov = random_instance(rng, 5)
    scal = frontier_scalars(alpha, cov)
    g0_grid = np.linspace(0.2, 2.0, 10)
    for g0 in g0_grid:
        inflection = g0 * scal.B / scal.A
        alpha_grid = np.linspace(inflection - 0.1, inflection + 0.1, 20)
        for alpha_p in alpha_grid:
            w = solve_VI(alpha, cov, alpha0=float(alpha_p), g0=float(g0)).weights
            var = frontier_variance(scal, float(alpha_p), float(g0))
            assert abs(cov.quad(w) - var) <= 1e-10 * max(1.0, abs(var))
        floor = frontier_variance(scal, float(inflection), float(g0))
        assert abs(floor - g0**2 / scal.A) <= 1e-10 * max(1.0, g0**2 / scal.A)
        sampled = [frontier_variance(scal, float(a_p), float(g0))
                   for a_p in alpha_grid]
        assert floor <= min(sampled) + 1e-15


@criterion(6, "two-fund separation affine identity on 100 triples (1e-10/weight)")
def test_criterion_06_two_fund_separation():
    rng = np.random.default_rng(6006)
    import warnings as _warnings

    for _ in range(100):
        n = int(rng.integers(2, 8))
        alpha, cov = random_instance(rng, n)
        g0 = float(rng.uniform(0.5, 1.5))
        a0, b0 = (float(x) for x in rng.uniform(0.05, 0.3, size=2))
        lam = float(rng.uniform(-0.5, 1.5))
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", mvgear.InefficientBranchWarning)
            mixed = solve_VI(alpha, cov, alpha0=lam * a0 + (1 - lam) * b0, g0=g0).weights
            split = (lam * solve_VI(alpha, cov, alpha0=a0, g0=g0).weights
                     + (1 - lam) * solve_VI(alpha, cov, alpha0=b0, g0=g0).weights)
        npt.assert_allclose(mixed, split, atol=1e-10, rtol=0)


@criterion(7, "shrinkage limits, alignment monotonicity, conditioning")
def test_criterion_07_shrinkage():
    rng = np.random.default_rng(7007)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 8))
        alpha, cov = random_instance(rng, n)
        grid = np.linspace(0.0, 1.0, 11)
        try:
            risky = [solve_robust(Program.RISKY, alpha, cov,
                                  ShrinkageSpec.simple(float(q))) for q in grid]
        except mvgear.ZeroB:
            continue
        # zero shrink is the identity
        npt.assert_allclose(risky[0].weights,
                            optimal_risky_portfolio(alpha, cov).weights,
                            atol=1e-10, rtol=0)
        gmv0 = solve_robust(Program.GMV, alpha, cov, ShrinkageSpec.simple(0.0))
        npt.assert_allclose(gmv0.weights, gmv_portfolio(cov).weights,
                            atol=1e-10, rtol=0)
        # full-shrink limits
        npt.assert_allclose(risky[-1].weights,
                            alpha.entries / alpha.entries.sum(), atol=1e-10, rtol=0)
        gmv1 = solve_robust(Program.GMV, alpha, cov, ShrinkageSpec.simple(1.0))
        npt.assert_allclose(gmv1.weights, np.full(n, 1.0 / n), atol=1e-10, rtol=0)
        # alignment is monotone along the grid
        cosines = [alpha_angle(alpha, p.weights) for p in risky]
        assert all(b >= a - 1e-12 for a, b in zip(cosines, cosines[1:]))
        # condition number never worsens
        for q in grid:
            shrunk = shrink_covariance(cov, alpha, ShrinkageSpec.simple(float(q)))
            assert shrunk.condition_number <= cov.condition_number + 1e-10
        done += 1


@criterion(8, "implicit shrunk portfolio matches damped fixed point (1e-8/weight)")
def test_criterion_08_implicit_form():
    rng = np.random.default_rng(8008)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        alpha, cov = random_instance(rng, n)
        k = float(rng.uniform(0.1, 0.9)) * angle_floor(alpha, cov)
        closed = solve_robust(Program.RISKY, alpha, cov,
                              ShrinkageSpec.angle_targeted(k)).weights
        iterated = damped_implicit_iteration(alpha, cov, k, iterations=200,
                                             damping=0.5)
        npt.assert_allclose(closed, iterated, atol=1e-8, rtol=0)


@criterion(9, "diversity solver: constraints, stationarity, grid oracle, boundary")
def test_criterion_09_qoqc():
    rng = np.random.default_rng(9009)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        alpha, cov = random_instance(rng, n)
        g0 = float(rng.uniform(0.3, 1.4))
        hi = min(float(n), n / g0**2)
        n0 = float(rng.uniform(1.0, 0.95 * hi))
        problem = QoqcProblem(alpha=alpha.entries, cov=cov,
                              gamma=float(rng.uniform(0.5, 4.0)), g0=g0, n0=n0)
        check_solution(problem, solve_qoqc(problem))
    for seed in range(5):
        rng2 = np.random.default_rng(90_000 + seed)
        alpha, cov = random_instance(rng2, 3)
        problem = QoqcProblem(alpha=alpha.entries, cov=cov, gamma=2.0,
                              g0=1.0, n0=2.0)
        sol = solve_qoqc(problem)
        npt.assert_allclose(sol.weights, manifold_grid_oracle(problem, 400_000),
                            atol=1e-6, rtol=0)
    alpha, cov = random_instance(np.random.default_rng(99), 4)
    boundary = solve_qoqc(QoqcProblem(alpha=alpha.entries, cov=cov,
                                      gamma=1.0, g0=1.0, n0=4.0))
    npt.assert_array_equal(boundary.weights, np.ones(4) / 4)


@criterion(10, "worked micro-instance chain exact to 1e-12, oracle-confirmed")
def test_criterion_10_micro_instance():
    cov = CovMatrix.identity(2)
    alpha = mvgear.AlphaVector(np.array([0.1, 0.2]))
    scal = frontier_scalars(alpha, cov)
    assert abs(scal.A - 2.0) <= 1e-12
    assert abs(scal.B - 0.3) <= 1e-12
    assert abs(scal.C - 0.05) <= 1e-12
    assert abs(scal.D - 0.01) <= 1e-12

    w6 = solve_VI(alpha, cov, alpha0=0.2, g0=1.0).weights
    npt.assert_allclose(w6, [0.0, 1.0], atol=1e-12, rtol=0)
    npt.assert_allclose(
        w6,
        oracle_weights(np.eye(2), np.zeros(2),
                       np.vstack([alpha.entries, np.ones(2)]), [0.2, 1.0]),
        atol=1e-10, rtol=0)

    w7 = solve_VII(alpha, cov, gamma=1.0, g0=1.0).weights
    npt.assert_allclose(w7, [0.45, 0.55], atol=1e-12, rtol=0)
    npt.assert_allclose(
        w7,
        oracle_weights(np.eye(2), alpha.entries, np.ones((1, 2)), [1.0]),
        atol=1e-10, rtol=0)

    w_inflect = solve_VI(alpha, cov, alpha0=0.15, g0=1.0).weights
    npt.assert_allclose(w_inflect, [0.5, 0.5], atol=1e-12, rtol=0)
    npt.assert_allclose(
        w_inflect,
        oracle_weights(np.eye(2), np.zeros(2),
                       np.vstack([alpha.entries, np.ones(2)]), [0.15, 1.0]),
        atol=1e-10, rtol=0)


@criterion(11, "CLI byte-determinism and solve/verify round-trip")
def test_criterion_11_cli(tmp_path):
    csv = write_micro_csv(tmp_path / "returns.csv")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, second):
        code = cli_main(["solve", "--input", str(csv), "--program", "VII",
                         "--gamma", "1", "--g0", "1", "--output", str(out)])
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    npt.assert_allclose(doc["weights"], [0.45, 0.55], atol=1e-12)

    surf_a, surf_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
    for out in (surf_a, surf_b):
        assert cli_main(["surface", "--input", str(csv), "--g0", "1:1:1",
                         "--alpha-grid", "0.1:0.01:0.3",
                         "--output", str(out)]) == 0
    assert surf_a.read_bytes() == surf_b.read_bytes()

    report = tmp_path / "verify.json"
    code = cli_main(["verify", "--input", str(csv), "--portfolio", str(first),
                     "--samples", "20000", "--output", str(report)])
    assert code == 0
    verdict = json.loads(report.read_text())
    assert verdict["passed"] is True
    assert all(c["passed"] for c in verdict["checks"])
