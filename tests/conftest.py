"""Shared instance generators and the exact worked micro-instance."""

import numpy as np
import pytest

from mvgear import AlphaVector, CovMatrix

# Five periods engineered so the sample moments are exactly
# alpha = (0.1, 0.2) and Sigma = I (unbiased, T-1 denominator).
MICRO_CSV_ROWS = [
    ["EQT", "BND"],
    ["1.1", "1.2"],
    ["-0.9", "1.2"],
    ["1.1", "-0.8"],
    ["-0.9", "-0.8"],
    ["0.1", "0.2"],
]


@pytest.fixture
def micro_alpha():
    return AlphaVector(np.array([0.1, 0.2]))


@pytest.fixture
def micro_cov():
    return CovMatrix.identity(2)


def write_micro_csv(path):
    path.write_text("\n".join(",".join(row) for row in MICRO_CSV_ROWS) + "\n")
    return path


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, kappa=None, scale=1.0):
    """Random SPD matrix with eigenvalue spread kappa (log-uniform inner)."""
    if kappa is None:
        kappa = float(np.exp(rng.uniform(0.0, np.log(50.0))))
    inner = np.exp(rng.uniform(np.log(1.0 / kappa), 0.0, size=n - 2))
    rho = np.concatenate([[1.0], np.sort(inner)[::-1], [1.0 / kappa]]) * scale
    q = random_orthogonal(rng, n)
    return (q * rho) @ q.T


def random_cov(rng, n, kappa=None, scale=1.0):
    return CovMatrix.from_entries(random_spd(rng, n, kappa=kappa, scale=scale))


def random_instance(rng, n, kappa=None, scale=1.0, min_d_ratio=0.0):
    """(AlphaVector, CovMatrix) with positive alphas and 1'Sigma^-1 alpha > 0.

    ``min_d_ratio`` floors D/(A C) = sin^2 of the whitened angle between
    alpha and 1; absolute per-weight tolerances need weights of O(1), which
    degenerate-D instances (covered by their own error path) cannot give.
    """
    for _ in range(256):
        cov = random_cov(rng, n, kappa=kappa, scale=scale)
        alpha = rng.uniform(0.02, 0.2, size=n)
        si_alpha = cov.solve(alpha)
        si_ones = cov.solve(np.ones(n))
        big_a = float(np.ones(n) @ si_ones)
        big_b = float(si_alpha.sum())
        big_c = float(alpha @ si_alpha)
        if big_b <= 1e-6:
            continue
        if big_a * big_c - big_b**2 < min_d_ratio * big_a * big_c:
            continue
        return AlphaVector(alpha), cov
    raise RuntimeError("could not draw an instance with B > 0 and D bounded away from 0")
