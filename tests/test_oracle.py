import os
import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mvgear import (
    KktProblem,
    oracle,
    RankDeficientConstraints,
    SingularKkt,
    dominance_sample,
    project_to_gearing,
    sharpe_objective,
    solve_kkt,
)

from mvgear.cli import main
from mvgear.oracle import (BACKWARD_TOL_PER_UNKNOWN, BLAS_THREAD_VARIABLES,
                           SAMPLE_BLOCK_BYTES, _row_quadratic)

from conftest import random_instance, random_spd, write_micro_csv

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


def geared_mean_variance_at_scale():
    """VII with gamma = g0 = 1 at n = 500, kappa = 1e8: well posed, |theta| ~ 3e6."""
    rng = np.random.default_rng(500)
    return KktProblem(quadratic=random_spd(rng, 500, kappa=1e8),
                      linear=rng.uniform(0.02, 0.2, 500),
                      eq_matrix=np.ones((1, 500)), eq_rhs=[1.0])


def geared_mean_variance_micro():
    return KktProblem(quadratic=np.array([[2.0, 0.5], [0.5, 1.0]]),
                      linear=np.array([0.1, 0.2]), eq_matrix=np.ones((1, 2)),
                      eq_rhs=[1.0])


def test_ill_conditioned_problem_at_scale_is_accepted():
    # rounding in a theta of 3e6 leaves an absolute stationarity residual
    # above 1e-10, which a max-norm test refused; as a backward error it is
    # below eps, and the solution meets its constraint to the feasibility
    # backward error solve_kkt documents, |1'theta - 1| / (|E||theta| + |d|)
    # in the max norm (E = 1', so |E| = n). An absolute test on 1'theta
    # asked for 3e-15 of max|theta| and passed or failed with the BLAS
    # summation order.
    problem = geared_mean_variance_at_scale()
    theta, nu = solve_kkt(problem)
    q, c = problem.quadratic, problem.linear
    n, m = c.size, 1
    assert np.abs(theta).max() > 1e6
    assert np.abs(q @ theta - c - nu[0]).max() > 1e-10
    feasibility = abs(theta.sum() - 1.0) / (n * np.abs(theta).max() + 1.0)
    assert feasibility <= BACKWARD_TOL_PER_UNKNOWN * (n + m)


@pytest.mark.parametrize("make,part", [
    (geared_mean_variance_micro, "weights"),
    (geared_mean_variance_micro, "multiplier"),
    (geared_mean_variance_at_scale, "weights"),
])
def test_a_solve_off_by_1e_8_is_refused(monkeypatch, make, part):
    # each entry of the weights (or multipliers) moved by 1e-8 of the largest,
    # with seeded signs; at kappa = 1e8 the multiplier itself is not resolved
    # to 1e-8, so only the weights are moved there
    problem = make()
    n = problem.linear.size
    block = slice(0, n) if part == "weights" else slice(n, None)
    real = np.linalg.solve

    def off_solve(a, b):
        sol = real(a, b)
        signs = np.random.default_rng(0).choice([-1.0, 1.0], sol[block].size)
        sol[block] += 1e-8 * np.abs(sol[block]).max() * signs
        return sol

    solve_kkt(problem)
    monkeypatch.setattr(np.linalg, "solve", off_solve)
    with pytest.raises(SingularKkt, match="KKT residual"):
        solve_kkt(problem)


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


@pytest.fixture(params=[False, True], ids=["serial", "overlapped"])
def overlap(request, monkeypatch):
    """The sampler's gate forced off, then on, for the test."""
    monkeypatch.setattr(oracle, "_spare_cpu", lambda: request.param)
    return request.param


def test_dominance_memory_does_not_grow_with_count(overlap):
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


def serial_sample(objective, projector, dim, count, seed):
    """The sampler as one thread runs it: each block drawn into one buffer,
    then projected and scored."""
    rng = np.random.default_rng(seed)
    rows = max(1, SAMPLE_BLOCK_BYTES // (8 * dim))
    block = np.empty((min(rows, count), dim))
    peaks = []
    for start in range(0, count, rows):
        batch = rng.standard_normal(out=block[:min(rows, count - start)])
        peaks.append(np.asarray(objective(projector(batch)), dtype=float).max())
    return float(np.max(peaks))


def sharpe_at(dim, g0, seed=0):
    rng = np.random.default_rng([dim, seed])
    f = rng.standard_normal((dim, dim))
    cov = f @ f.T / dim + 0.1 * np.eye(dim)
    return sharpe_objective(rng.uniform(0.02, 0.2, size=dim), cov), project_to_gearing(g0)


def block_counts(dim):
    rows = SAMPLE_BLOCK_BYTES // (8 * dim)
    return [1, rows - 1, rows, rows + 1, 2 * rows, 3 * rows + 7]


@pytest.mark.parametrize("g0", [1.0, -0.5])
@pytest.mark.parametrize("dim", [1, 7, 100])
def test_dominance_either_way_equals_the_serial_loop(overlap, dim, g0):
    objective, projector = sharpe_at(dim, g0)
    for count in block_counts(dim):
        assert (dominance_sample(objective, projector, dim, count, 17)
                == serial_sample(objective, projector, dim, count, 17)), count


def test_a_sampling_verify_writes_the_same_bytes_either_way(tmp_path, monkeypatch):
    rows = np.random.default_rng(5).standard_normal((60, 20)) * 0.05 + 0.01
    csv, port = tmp_path / "r.csv", tmp_path / "viii.json"
    csv.write_text(",".join(f"a{j}" for j in range(20)) + "\n"
                   + "\n".join(",".join(map(repr, row)) for row in rows.tolist()) + "\n")
    assert main(["solve", "--input", str(csv), "--program", "VIII", "--g0", "1",
                 "--output", str(port)]) == 0
    reports = []
    for spare in (False, True):
        monkeypatch.setattr(oracle, "_spare_cpu", lambda: spare)
        report = tmp_path / f"verify-{spare}.json"
        assert main(["verify", "--input", str(csv), "--portfolio", str(port),
                     "--samples", "100000", "--output", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert b"best sampled" in reports[0]


def test_an_objective_error_propagates_and_leaves_no_thread(overlap):
    objective, projector = sharpe_at(100, 1.0)
    calls = []

    def failing(batch):
        calls.append(1)
        if len(calls) == 3:
            raise ArithmeticError("block 3")
        return objective(batch)

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="block 3"):
        dominance_sample(failing, projector, 100, 100_000, 0)
    assert len(calls) == 3
    assert threading.active_count() == before


def test_a_drawing_error_is_raised_on_the_caller_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(oracle, "_spare_cpu", lambda: True)
    real = np.random.default_rng

    class Failing:
        def __init__(self, seed):
            self.rng, self.draws = real(seed), 0

        def standard_normal(self, out):
            self.draws += 1
            if self.draws == 3:
                raise MemoryError("draw 3")
            return self.rng.standard_normal(out=out)

    objective, projector = sharpe_at(100, 1.0)
    monkeypatch.setattr(np.random, "default_rng", Failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="draw 3"):
        dominance_sample(objective, projector, 100, 100_000, 0)
    assert threading.active_count() == before


def test_callbacks_run_on_the_calling_thread_only(overlap):
    objective, projector = sharpe_at(100, 1.0)
    seen, alive = set(), []

    def on_caller(callback):
        def call(batch):
            seen.add(threading.get_ident())
            alive.append(threading.active_count())
            return callback(batch)
        return call

    before = threading.active_count()
    dominance_sample(on_caller(objective), on_caller(projector), 100,
                     3 * (SAMPLE_BLOCK_BYTES // 800) + 7, 0)
    assert seen == {threading.get_ident()}
    # four blocks: while the first is scored the helper waits to draw the third
    assert alive[0] == before + overlap


def test_concurrent_overlapped_samples_each_equal_the_serial_loop(monkeypatch):
    # Four callers, each with its helper, on a shortened switch interval: a
    # block scored before it is drawn, or drawn over while scored, changes
    # some caller's result.
    monkeypatch.setattr(oracle, "_spare_cpu", lambda: True)
    count = 3 * (SAMPLE_BLOCK_BYTES // 800) + 7
    results = {}

    def sample(seed):
        objective, projector = sharpe_at(100, 1.0, seed)
        results[seed] = (dominance_sample(objective, projector, 100, count, seed),
                         serial_sample(objective, projector, 100, count, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sample, args=(seed,)) for seed in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(results) == list(range(4))
    for sampled, reference in results.values():
        assert sampled == reference


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)


def test_a_one_block_sample_starts_no_thread(monkeypatch, no_threads, tmp_path):
    monkeypatch.setattr(oracle, "_spare_cpu", lambda: True)
    objective, projector = sharpe_at(100, 1.0)
    rows = SAMPLE_BLOCK_BYTES // 800
    assert (dominance_sample(objective, projector, 100, rows, 3)
            == serial_sample(objective, projector, 100, rows, 3))
    # the token verify of a Sharpe-family record: 64 samples, one block
    csv, port = write_micro_csv(tmp_path / "r.csv"), tmp_path / "risky.json"
    assert main(["solve", "--input", str(csv), "--program", "RISKY",
                 "--output", str(port)]) == 0
    assert main(["verify", "--input", str(csv), "--portfolio", str(port),
                 "--samples", "64", "--output", str(tmp_path / "v.json")]) == 0


@pytest.fixture
def blas_env(monkeypatch):
    """Two usable CPUs and no BLAS thread variable, for the test to change."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return monkeypatch


@pytest.mark.parametrize("variables,cpus,spare", [
    ("OPENBLAS_NUM_THREADS=1", 2, True),
    ("OPENBLAS_NUM_THREADS=1", 1, False),
    ("OPENBLAS_NUM_THREADS=2", 2, False),
    ("", 2, False),
    ("OMP_NUM_THREADS=1", 2, True),
    ("MKL_NUM_THREADS=1 OMP_NUM_THREADS=2", 2, True),
    ("OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=1", 2, False),
    ("OPENBLAS_NUM_THREADS=one OMP_NUM_THREADS=1", 2, True),
    ("OPENBLAS_NUM_THREADS=one OMP_NUM_THREADS=2", 2, False),
    ("OPENBLAS_NUM_THREADS=0 MKL_NUM_THREADS=1", 2, True),
])
def test_the_gate_reads_the_first_blas_thread_count(blas_env, no_threads, variables, cpus,
                                                     spare):
    for pair in variables.split():
        blas_env.setenv(*pair.split("="))
    blas_env.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert oracle._spare_cpu() is spare


def test_with_no_blas_thread_variable_the_sample_is_serial(blas_env, no_threads):
    objective, projector = sharpe_at(100, 1.0)
    count = 3 * (SAMPLE_BLOCK_BYTES // 800) + 7
    assert (dominance_sample(objective, projector, 100, count, 2)
            == serial_sample(objective, projector, 100, count, 2))

