import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    KktProblem,
    RankDeficientConstraints,
    SingularKkt,
    dominance_sample,
    project_to_gearing,
    sharpe_objective,
    solve_kkt,
)

from mvgear.oracle import SAMPLE_BLOCK_BYTES, _row_quadratic

from conftest import random_instance, random_spd

BLOCK_DIM = 20
BLOCK_ROWS = SAMPLE_BLOCK_BYTES // (8 * BLOCK_DIM)
BLOCK_COUNTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 100_007]


def test_oracle_never_imports_production_solvers():
    import ast
    import inspect

    import mvgear.oracle as oracle_module

    tree = ast.parse(inspect.getsource(oracle_module))
    banned = {"solvers", "robust", "geometry", "diversity", "moments"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            assert module not in banned, f"oracle imports {module}"
        if isinstance(node, ast.Import):
            for name in node.names:
                assert name.name.split(".")[-1] not in banned


def test_gmv_on_identity():
    theta, nu = solve_kkt(KktProblem(
        quadratic=np.eye(2), linear=np.zeros(2),
        eq_matrix=np.ones((1, 2)), eq_rhs=[1.0],
    ))
    npt.assert_allclose(theta, [0.5, 0.5], atol=1e-14)
    assert nu.shape == (1,)


@pytest.mark.parametrize("part", [slice(0, 2), slice(2, 3)], ids=["weights", "multiplier"])
def test_nan_solution_raises_singular_kkt(monkeypatch, part):
    real = np.linalg.solve

    def nan_solve(a, b):
        sol = real(a, b)
        sol[part] = np.nan
        return sol

    monkeypatch.setattr(np.linalg, "solve", nan_solve)
    with pytest.raises(SingularKkt, match="KKT residual nan"):
        solve_kkt(KktProblem(quadratic=np.eye(2), linear=np.zeros(2),
                             eq_matrix=np.ones((1, 2)), eq_rhs=[1.0]))


def test_encodes_geared_risk_minimization(micro_alpha, micro_cov):
    theta, _ = solve_kkt(KktProblem(
        quadratic=micro_cov.entries, linear=np.zeros(2),
        eq_matrix=np.vstack([micro_alpha.entries, np.ones(2)]),
        eq_rhs=[0.2, 1.0],
    ))
    npt.assert_allclose(theta, [0.0, 1.0], atol=1e-12)


def test_encodes_geared_mean_variance(micro_alpha, micro_cov):
    theta, _ = solve_kkt(KktProblem(
        quadratic=1.0 * micro_cov.entries, linear=micro_alpha.entries,
        eq_matrix=np.ones((1, 2)), eq_rhs=[1.0],
    ))
    npt.assert_allclose(theta, [0.45, 0.55], atol=1e-13)


def test_unconstrained_problem(micro_alpha, micro_cov):
    theta, nu = solve_kkt(KktProblem(
        quadratic=3.0 * micro_cov.entries, linear=micro_alpha.entries,
        eq_matrix=np.zeros((0, 2)), eq_rhs=[],
    ))
    npt.assert_allclose(theta, micro_alpha.entries / 3.0, rtol=1e-14)
    assert nu.size == 0


def test_rank_deficient_constraints_rejected():
    with pytest.raises(RankDeficientConstraints):
        solve_kkt(KktProblem(
            quadratic=np.eye(2), linear=np.zeros(2),
            eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]), eq_rhs=[1.0, 2.0],
        ))


def test_more_constraints_than_unknowns_rejected():
    with pytest.raises(RankDeficientConstraints):
        solve_kkt(KktProblem(
            quadratic=np.eye(2), linear=np.zeros(2),
            eq_matrix=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            eq_rhs=[1.0, 1.0, 2.0],
        ))


def test_indefinite_quadratic_rejected():
    with pytest.raises(SingularKkt):
        solve_kkt(KktProblem(
            quadratic=np.diag([1.0, -1.0]), linear=np.zeros(2),
            eq_matrix=np.ones((1, 2)), eq_rhs=[1.0],
        ))


def test_residuals_within_tolerance_on_random_instances():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        q = random_spd(rng, n)
        c = rng.standard_normal(n)
        m = int(rng.integers(0, min(n - 1, 3) + 1))
        e = rng.standard_normal((m, n))
        d = rng.standard_normal(m)
        theta, nu = solve_kkt(KktProblem(quadratic=q, linear=c,
                                         eq_matrix=e, eq_rhs=d))
        assert np.abs(q @ theta - c - (e.T @ nu if m else 0)).max() <= 1e-10
        if m:
            assert np.abs(e @ theta - d).max() <= 1e-10


# ---------------------------------------------------------------------------
# Dominance sampling
# ---------------------------------------------------------------------------

def test_dominance_deterministic():
    rng = np.random.default_rng(73)
    alpha, cov = random_instance(rng, 4)
    objective = sharpe_objective(alpha.entries, cov.entries)
    projector = project_to_gearing(1.0)
    a = dominance_sample(objective, projector, dim=4, count=10_000, seed=5)
    b = dominance_sample(objective, projector, dim=4, count=10_000, seed=5)
    assert a == b


def test_dominance_single_sample():
    value = dominance_sample(lambda batch: batch @ np.array([1.0, 2.0]),
                             project_to_gearing(1.0), dim=2, count=1, seed=0)
    assert np.isfinite(value)


def test_dominance_constant_objective():
    value = dominance_sample(lambda batch: np.full(len(batch), 3.25),
                             project_to_gearing(1.0), dim=3, count=100, seed=0)
    assert value == 3.25


def test_sharpe_never_beats_risky_portfolio():
    rng = np.random.default_rng(79)
    alpha, cov = random_instance(rng, 5)
    raw = cov.solve(alpha.entries)
    theta = raw / raw.sum()
    mine = float(alpha.entries @ theta) / np.sqrt(cov.quad(theta))
    best = dominance_sample(
        sharpe_objective(alpha.entries, cov.entries), project_to_gearing(1.0),
        dim=5, count=100_000, seed=0,
    )
    assert best <= mine + 1e-9


def test_row_quadratic_matches_three_operand_einsum():
    rng = np.random.default_rng(89)
    cov = random_spd(rng, 100, kappa=1e4)
    batch = rng.standard_normal((1000, 100))
    reference = np.einsum("ij,jk,ik->i", batch, cov, batch)
    rel = np.abs(_row_quadratic(batch, cov) - reference) / reference
    assert rel.max() <= 1e-12


@pytest.fixture(scope="module")
def sharpe_on_gearing_plane():
    alpha, cov = random_instance(np.random.default_rng(97), BLOCK_DIM)
    return sharpe_objective(alpha.entries, cov.entries), project_to_gearing(1.0)


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_dominance_blocks_score_one_unblocked_draw(sharpe_on_gearing_plane, count):
    objective, projector = sharpe_on_gearing_plane
    draw = np.random.default_rng(11).standard_normal((count, BLOCK_DIM))
    reference = float(objective(projector(draw)).max())
    value = dominance_sample(objective, projector, BLOCK_DIM, count, 11)
    npt.assert_allclose(value, reference, rtol=1e-12)


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_dominance_projects_each_row_once(sharpe_on_gearing_plane, count):
    objective, projector = sharpe_on_gearing_plane
    seen = []

    def counting(batch):
        seen.append(len(batch))
        return projector(batch)

    dominance_sample(objective, counting, BLOCK_DIM, count, 3)
    assert sum(seen) == count
    assert max(seen) <= BLOCK_ROWS


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_dominance_same_seed_is_bit_identical(sharpe_on_gearing_plane, count):
    objective, projector = sharpe_on_gearing_plane
    a = dominance_sample(objective, projector, BLOCK_DIM, count, 5)
    b = dominance_sample(objective, projector, BLOCK_DIM, count, 5)
    assert a == b


def test_dominance_memory_does_not_grow_with_count():
    alpha, cov = random_instance(np.random.default_rng(101), 100)
    objective = sharpe_objective(alpha.entries, cov.entries)
    projector = project_to_gearing(1.0)
    tracemalloc.start()
    try:
        dominance_sample(objective, projector, 100, 100_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One unblocked 100k x 100 draw alone is 80 MB.
    assert peak < 32e6
