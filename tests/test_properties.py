"""Property tests of the robust path over every closed-form program.

Instances run from n = 2 to 200 assets and condition numbers from 1 to 1e6.
Each tolerance is a multiple of kappa * eps, with kappa the condition number
of the covariance the compared solves decompose, relative to the largest
weight. Hypothesis runs derandomized with a bounded example count, so every
run tests the same instances.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvgear import AlphaVector, CovMatrix, ShrinkageSpec, solve_robust, solvers

from conftest import random_instance

EPS = np.finfo(float).eps

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw):
    """(alpha, cov, params, rng): a random instance and one value per parameter.

    n = 200 and kappa = 1e6 are each drawn about half the time."""
    n = draw(st.just(200) | st.integers(2, 200))
    kappa = 10.0 ** (draw(st.just(600) | st.integers(0, 600)) / 100)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha, cov = random_instance(rng, n, kappa=kappa, min_d_ratio=0.01)
    params = {"sigma0": draw(st.floats(0.1, 1.0)), "alpha0": draw(st.floats(0.02, 0.3)),
              "gamma": draw(st.floats(0.5, 5.0)), "g0": draw(st.floats(0.25, 2.0))}
    return alpha, cov, params, rng


def solve_all(solve):
    """{program: weights} of ``solve(program)`` for every PROGRAMS entry."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", solvers.InefficientBranchWarning)
        return {program: solve(program).weights for program in solvers.PROGRAMS}


def assert_close(got, want, multiple, kappa):
    """Each weight within multiple * kappa * eps of the largest weight."""
    for program, weights in want.items():
        tolerance = multiple * kappa * EPS * np.abs(weights).max()
        np.testing.assert_allclose(got[program], weights, rtol=0, atol=tolerance,
                                   err_msg=f"program {program.value}")


@PROPERTY
@given(instances())
def test_zero_shrink_is_the_plain_solve(instance):
    alpha, cov, params, _ = instance
    spec = ShrinkageSpec.simple(0.0)
    shrunk = solve_all(lambda p: solve_robust(p, alpha, cov, spec, **params))
    plain = solve_all(lambda p: solvers.solve(p, alpha, cov, **params))
    assert_close(shrunk, plain, 4.0, cov.condition_number)


@PROPERTY
@given(instances())
def test_full_shrink_is_the_program_on_the_identity(instance):
    # whatever Sigma is, Sigma~ = I and kappa~ = 1
    alpha, cov, params, _ = instance
    spec = ShrinkageSpec.simple(1.0)
    identity = CovMatrix.identity(cov.dim)
    shrunk = solve_all(lambda p: solve_robust(p, alpha, cov, spec, **params))
    plain = solve_all(lambda p: solvers.solve(p, alpha, identity, **params))
    assert_close(shrunk, plain, 4.0, 1.0)


@PROPERTY
@given(instances())
def test_solve_is_permutation_equivariant(instance):
    # the eigensolver's backward error grows with n, hence a multiple of 8n
    alpha, cov, params, rng = instance
    perm = rng.permutation(cov.dim)
    moved_alpha = AlphaVector(alpha.entries[perm])
    moved_cov = CovMatrix.from_entries(cov.entries[np.ix_(perm, perm)])
    plain = solve_all(lambda p: solvers.solve(p, alpha, cov, **params))
    moved = solve_all(lambda p: solvers.solve(p, moved_alpha, moved_cov, **params))
    assert_close(moved, {p: w[perm] for p, w in plain.items()}, 8.0 * cov.dim,
                 cov.condition_number)
