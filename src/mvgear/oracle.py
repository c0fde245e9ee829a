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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficientConstraints, SingularKkt

RESIDUAL_TOL = 1e-10

# Byte budget for one block of float64 samples in dominance_sample; it bounds
# the sampler's working set whatever the sample count.
SAMPLE_BLOCK_BYTES = 2 * 1024 * 1024


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

    Multipliers satisfy Q theta - c - E' nu = 0. Stationarity and
    feasibility residuals are verified to 1e-10 in max-norm.
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
    err = float(np.abs(np.concatenate([stationarity, feasibility])).max())
    if not err <= RESIDUAL_TOL:
        raise SingularKkt(f"KKT residual {err:g} exceeds {RESIDUAL_TOL:g}")
    return theta, nu


def _row_quadratic(batch: np.ndarray, cov_entries: np.ndarray) -> np.ndarray:
    """theta'Sigma theta for every row theta of ``batch``: one GEMM, one row dot."""
    return np.einsum("ij,ij->i", batch @ cov_entries, batch)


def project_to_gearing(g0: float):
    """Projector onto {theta : 1'theta = g0} for sample batches."""

    def project(batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(batch)
        shift = (g0 - batch.sum(axis=1)) / batch.shape[1]
        return batch + shift[:, None]

    return project


def sharpe_objective(alpha: np.ndarray, cov_entries: np.ndarray):
    """Vectorized alpha'theta / sqrt(theta'Sigma theta)."""

    def objective(batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(batch)
        ret = batch @ alpha
        var = _row_quadratic(batch, cov_entries)
        return ret / np.sqrt(np.maximum(var, 1e-300))

    return objective


def dominance_sample(objective, projector, dim: int, count: int, seed: int) -> float:
    """Best objective over ``count`` seeded samples projected to the set.

    The samples are the rows of ``default_rng(seed).standard_normal((count,
    dim))``, drawn in order but in blocks of ``SAMPLE_BLOCK_BYTES // (8 * dim)``
    rows (at least one). Each block is projected and scored before the next
    is drawn, so memory does not grow with ``count``; ``projector`` and
    ``objective`` are called once per block and see every row exactly once.
    """
    if count < 1:
        raise DimensionError(f"count must be >= 1, got {count}")
    if dim < 1:
        raise DimensionError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    rows = max(1, SAMPLE_BLOCK_BYTES // (8 * dim))
    peaks = []
    for start in range(0, count, rows):
        batch = rng.standard_normal((min(rows, count - start), dim))
        peaks.append(np.asarray(objective(projector(batch)), dtype=float).max())
    return float(np.max(peaks))
