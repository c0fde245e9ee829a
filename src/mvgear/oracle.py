"""
Independent numerical verification tools.

A generic equality-constrained quadratic program

    min (1/2) theta'Q theta - c'theta   s.t.   E theta = d

is solved through a direct factorization of the bordered (KKT) matrix, and
a seeded Monte Carlo sampler reports the best objective over random
portfolios projected onto a constraint set. Both exist to cross-check the
closed-form solvers; neither calls, nor is called by, any production solve
path, and they operate on raw arrays only.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficientConstraints, SingularKkt

# The backward error a solve may leave, per unknown of the bordered system,
# in units of eps; a backward-stable solve leaves about one.
BACKWARD_TOL_PER_UNKNOWN = 8.0 * np.finfo(float).eps

# Bytes in one block of float64 samples in dominance_sample, whose working set
# is two blocks (one drawn while the other is scored) and the objective's scratch.
SAMPLE_BLOCK_BYTES = 2 * 1024 * 1024

# The variables that fix the BLAS thread count, in the order they are read.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class KktProblem:
    """min (1/2) theta'Q theta - c'theta subject to E theta = d."""

    quadratic: np.ndarray
    linear: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quadratic, dtype=float)
        c = np.asarray(self.linear, dtype=float)
        e = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        d = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        n = c.size
        if q.shape != (n, n):
            raise DimensionError(f"Q shape {q.shape} incompatible with c length {n}")
        if e.size == 0:
            e = e.reshape(0, n)
        if e.shape[1] != n or e.shape[0] != d.size:
            raise DimensionError(
                f"E shape {e.shape} incompatible with c length {n} / d length {d.size}"
            )
        object.__setattr__(self, "quadratic", q)
        object.__setattr__(self, "linear", c)
        object.__setattr__(self, "eq_matrix", e)
        object.__setattr__(self, "eq_rhs", d)


def solve_kkt(problem: KktProblem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the bordered system; returns (theta, multipliers).

    Multipliers satisfy Q theta - c - E' nu = 0. Each residual is checked as
    a normwise backward error (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 7), in the max norm: stationarity relative to
    |Q||theta| + |E'||nu| + |c|, feasibility relative to |E||theta| + |d|.
    Both must be at most ``BACKWARD_TOL_PER_UNKNOWN * (n + m)``. An absolute
    test would refuse a well-posed ill-conditioned problem, whose large
    theta carries rounding in proportion.
    """
    q = problem.quadratic
    c = problem.linear
    e = problem.eq_matrix
    d = problem.eq_rhs
    n = c.size
    m = d.size
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise SingularKkt(f"quadratic term is not positive definite: {exc}") from exc
    if m > 0:
        sv = np.linalg.svd(e, compute_uv=False)
        if sv.size < m or sv.min() <= 1e-12 * max(1.0, sv.max()):
            raise RankDeficientConstraints(
                f"constraint matrix rank below {m} (smallest singular value {sv.min():g})"
            )
        bordered = np.block([[q, e.T], [e, np.zeros((m, m))]])
        rhs = np.concatenate([c, d])
        try:
            sol = np.linalg.solve(bordered, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularKkt(f"bordered system solve failed: {exc}") from exc
        theta, nu = sol[:n], -sol[n:]
    else:
        theta = np.linalg.solve(q, c)
        nu = np.zeros(0)
    stationarity = q @ theta - c - (e.T @ nu if m else 0.0)
    feasibility = (e @ theta - d) if m else np.zeros(0)
    # np.max keeps a NaN from either residual, and ``not err <= tol`` fails it.
    err = np.max([
        _backward_error(stationarity, _norm(q) * _norm(theta) + _norm(e.T) * _norm(nu)
                        + _norm(c)),
        _backward_error(feasibility, _norm(e) * _norm(theta) + _norm(d)),
    ])
    tol = BACKWARD_TOL_PER_UNKNOWN * (n + m)
    if not err <= tol:
        raise SingularKkt(f"KKT residual {err:g} exceeds {tol:g}, relative to the data")
    return theta, nu


def _norm(a: np.ndarray) -> float:
    """Max norm of a vector, or the norm it induces on a matrix (max row sum);
    0 for an empty one."""
    rows = np.abs(a) if a.ndim == 1 else np.abs(a).sum(axis=1)
    return float(rows.max(initial=0.0))


def _backward_error(residual: np.ndarray, scale: float) -> float:
    """|residual| / scale, 0 for a zero residual whatever the scale."""
    return _norm(residual) / max(scale, np.finfo(float).tiny)


def _row_quadratic(batch: np.ndarray, cov_entries: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """theta'Sigma theta for every row theta of ``batch``: one GEMM, into
    ``out`` if given, and one row dot."""
    return np.einsum("ij,ij->i", np.matmul(batch, cov_entries, out=out), batch)


def project_to_gearing(g0: float):
    """Projector onto {theta : 1'theta = g0} for float sample batches; it
    shifts the batch in place and returns it."""

    def project(batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(batch)
        shift = (g0 - batch.sum(axis=1)) / batch.shape[1]
        batch += shift[:, None]
        return batch

    return project


def sharpe_objective(alpha: np.ndarray, cov_entries: np.ndarray):
    """Vectorized alpha'theta / sqrt(theta'Sigma theta).

    Sigma theta is formed in a buffer the objective keeps, grown to the
    largest batch it has seen, so a sampler's blocks reuse one array.
    """
    scratch = np.empty((0, cov_entries.shape[1]))

    def objective(batch: np.ndarray) -> np.ndarray:
        nonlocal scratch
        batch = np.atleast_2d(batch)
        if scratch.shape[0] < batch.shape[0]:
            scratch = np.empty((batch.shape[0], cov_entries.shape[1]))
        ret = batch @ alpha
        var = _row_quadratic(batch, cov_entries, out=scratch[:batch.shape[0]])
        return ret / np.sqrt(np.maximum(var, 1e-300))

    return objective


def _spare_cpu() -> bool:
    """Whether this process may use more CPUs than BLAS takes.

    The first of ``BLAS_THREAD_VARIABLES`` holding a positive integer fixes
    BLAS's threads; with none, BLAS takes every CPU and none is spare. Drawing
    beside a BLAS thread pool that spins on every CPU is slower than not
    overlapping at all.
    """
    for name in BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity mask on this platform
                cpus = os.cpu_count() or 1
            return cpus > threads
    return False


def dominance_sample(objective, projector, dim: int, count: int, seed: int) -> float:
    """Best objective over ``count`` seeded samples projected to the set.

    The samples are the rows of ``default_rng(seed).standard_normal((count,
    dim))``, drawn in order but in blocks of ``SAMPLE_BLOCK_BYTES // (8 * dim)``
    rows (at least one), so memory does not grow with ``count``. With two
    blocks or more and a spare CPU (:func:`_spare_cpu`), a one-worker executor
    draws the next block into a second buffer while the current one is scored
    (numpy's fills release the GIL); otherwise each block is drawn once the
    one before is scored. The blocks, and so the result, are the same bits
    either way. ``projector`` and ``objective`` run on the calling thread,
    once per block, in order; they see every row exactly once and may
    overwrite the block they are given.
    """
    if count < 1 or dim < 1:
        raise DimensionError(f"count and dim must be >= 1, got {count} and {dim}")
    rng = np.random.default_rng(seed)
    rows = max(1, SAMPLE_BLOCK_BYTES // (8 * dim))
    sizes = [min(rows, count - start) for start in range(0, count, rows)]
    pool = None
    if len(sizes) > 1 and _spare_cpu():
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only here
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mvgear-sampler")
    buffers = [np.empty((sizes[0], dim)) for _ in range(1 if pool is None else 2)]

    def draw(i):
        return rng.standard_normal(out=buffers[i % len(buffers)][:sizes[i]])

    def score(batch):
        return np.asarray(objective(projector(batch)), dtype=float).max()

    with pool or contextlib.nullcontext():
        batch, peaks = draw(0), []
        for i in range(1, len(sizes)):
            ahead = None if pool is None else pool.submit(draw, i)
            peaks.append(score(batch))
            batch = draw(i) if ahead is None else ahead.result()
        peaks.append(score(batch))
    return float(np.max(peaks))
