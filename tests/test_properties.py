"""Property tests of the robust path over every table program, QOQC included,
of the condition number along the shrinks toward the identity and toward the
diagonal, of linearity in the gearing, and of the Kantorovich and
Bauer-Householder bounds on the alpha-weight angle.

Instances run from n = 2 to 200 assets and condition numbers from 1 to 1e6.
Each weight tolerance is a multiple of kappa * eps, with kappa the condition
number of the covariance the compared solves decompose, relative to the
largest weight. Hypothesis runs derandomized with a bounded example count,
so every run tests the same instances.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from mvgear import (AlphaVector, CovMatrix, Program, ShrinkageSpec, shrink_covariance,
                    solve_robust, solvers)
from mvgear.geometry import alpha_angle, kantorovich_bound, verify_bound

from conftest import random_instance

EPS = np.finfo(float).eps

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw):
    """(alpha, cov, params, rng): a random instance and one value per parameter.

    n = 200 and kappa = 1e6 are each drawn about half the time. g0^2 <= n and
    n0 <= n / g0^2, so QOQC's gearing plane meets its diversity sphere."""
    n = draw(st.just(200) | st.integers(2, 200))
    kappa = 10.0 ** (draw(st.just(600) | st.integers(0, 600)) / 100)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        alpha, cov = random_instance(rng, n, kappa=kappa, min_d_ratio=0.01)
    except RuntimeError:  # no draw met B > 0 and D >= 0.01 AC: not an instance
        reject()
    params = {"sigma0": draw(st.floats(0.1, 1.0)), "alpha0": draw(st.floats(0.02, 0.3)),
              "gamma": draw(st.floats(0.5, 5.0)),
              "g0": draw(st.floats(0.25, min(2.0, np.sqrt(n))))}
    params["n0"] = draw(st.floats(1.0, min(n, n / params["g0"] ** 2)))
    return alpha, cov, params, rng


# The programs whose weights (Sigma, alpha) -> (c Sigma, c alpha) leaves as
# they are: their parameters (gamma, g0) carry no unit of return or risk.
SCALE_FREE = (Program.III, Program.IV, Program.VII, Program.VIII, Program.GMV,
              Program.RISKY)


def solve_all(solve, programs=solvers.PROGRAMS):
    """{program: weights} of ``solve(program)`` for every one of ``programs``
    (or {key: weights} of ``solve(key)`` for any other keys)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", solvers.InefficientBranchWarning)
        return {program: solve(program).weights for program in programs}


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


@PROPERTY
@given(instances(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
def test_shrinking_toward_the_identity_never_raises_kappa(instance, weights):
    # kappa~ = (q + (1-q) rho_1) / (q + (1-q) rho_n) falls as q grows; each
    # computed value is within 8 eps of it (seven roundings), so a later one
    # may exceed an earlier one by 16 eps relative at most
    alpha, cov, _, _ = instance
    kappas = [cov.condition_number] + [
        shrink_covariance(cov, alpha, ShrinkageSpec.simple(q)).condition_number
        for q in sorted(weights)]
    for before, after in zip(kappas, kappas[1:]):
        assert after <= before * (1.0 + 16.0 * EPS)
    assert kappas[-1] >= 1.0


@PROPERTY
@given(instances(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_shrinking_toward_the_diagonal_never_raises_kappa(instance, weights):
    # diag(Sigma) lies in [rho_n, rho_1] (Weyl), so the spectrum of
    # q diag(Sigma) + (1-q) Sigma does too. kappa~ comes from eigvalsh of the
    # shrunk entries and kappa from eigh of Sigma's: where q is too small to
    # move the entries, the two drivers agree on rho_n only to ~eps rho_1,
    # hence the kappa eps (largest seen: 0.23 kappa eps, at q = 1e-300)
    alpha, cov, _, _ = instance
    kappa = cov.condition_number
    for q in weights:
        shrunk = shrink_covariance(cov, alpha, ShrinkageSpec.diagonal(q))
        assert 1.0 <= shrunk.condition_number <= kappa * (1.0 + 4.0 * kappa * EPS)


@PROPERTY
@given(instances())
def test_full_diagonal_shrink_is_the_program_on_the_diagonal(instance):
    # Sigma~ = D = diag(Sigma), held with its own spectrum (the sorted
    # variances), so kappa~ = max(d) / min(d) and the solves are those of a
    # fresh decomposition of D
    alpha, cov, params, _ = instance
    d = np.diag(cov.entries)
    spec = ShrinkageSpec.diagonal(1.0)
    shrunk = shrink_covariance(cov, alpha, spec)
    assert shrunk.condition_number == pytest.approx(d.max() / d.min(), rel=2.0 * EPS,
                                                    abs=0.0)
    diagonal = CovMatrix.from_entries(np.diag(d))
    got = solve_all(lambda p: solve_robust(p, alpha, cov, spec, **params))
    want = solve_all(lambda p: solvers.solve(p, alpha, diagonal, **params))
    assert_close(got, want, 4.0, d.max() / d.min())


@PROPERTY
@given(instances(), st.floats(0.0, 1.0), st.sampled_from([1e-4, 0.37, 3.0, 250.0]))
def test_diagonal_shrink_is_scale_invariant(instance, q, c):
    # (Sigma, alpha) -> (c Sigma, c alpha) leaves Sigma~'s correlation, and so
    # kappa~ and every scale-free program's weights, as they are. Both sides
    # decompose their own Sigma and R, and eigvalsh's error in each eigenvalue
    # is ~n eps |Sigma~|, so they agree within 4 n kappa~ eps (largest seen:
    # 0.57 n kappa~ eps for kappa~ and 0.62 n kappa~ eps for a weight, at n = 2)
    alpha, cov, params, _ = instance
    spec = ShrinkageSpec.diagonal(q)
    scaled_alpha = AlphaVector(c * alpha.entries)
    scaled_cov = CovMatrix.from_entries(c * cov.entries)
    kappa = shrink_covariance(cov, alpha, spec).condition_number
    moved = shrink_covariance(scaled_cov, scaled_alpha, spec).condition_number
    assert moved == pytest.approx(kappa, rel=4.0 * cov.dim * kappa * EPS, abs=0.0)
    plain = solve_all(lambda p: solve_robust(p, alpha, cov, spec, **params), SCALE_FREE)
    scaled = solve_all(lambda p: solve_robust(p, scaled_alpha, scaled_cov, spec, **params),
                       SCALE_FREE)
    assert_close(scaled, plain, 4.0 * cov.dim, kappa)


# The geared programs and the parameter each takes besides g0.
GEARED = ((Program.VI, "alpha0"), (Program.VII, "gamma"))


@PROPERTY
@given(instances())
def test_geared_weights_are_affine_in_the_gearing(instance):
    # VI and VII are lambda1 Sigma^-1 alpha + lambda2 Sigma^-1 1 with both
    # multipliers affine in g0 and the two solves the same bits for every g0,
    # so theta(g0) = theta(0) + g0 (theta(1) - theta(0)) up to the rounding of
    # the multipliers (largest seen: 3.6 kappa eps of max|theta|)
    alpha, cov, params, _ = instance
    g0 = params["g0"]
    for program, name in GEARED:
        at = solve_all(lambda gearing: solvers.solve(program, alpha, cov, g0=gearing,
                                                     **{name: params[name]}), (0.0, 1.0, g0))
        line = at[0.0] + g0 * (at[1.0] - at[0.0])
        assert_close({program: line}, {program: at[g0]}, 16.0, cov.condition_number)


@PROPERTY
@given(instances())
def test_the_unconstrained_direction_meets_the_kantorovich_bound(instance):
    # cos(alpha, Sigma^-1 alpha) >= 2 sqrt(kappa) / (kappa + 1); the solve's
    # error is ~kappa eps relative (largest seen: the bound met exactly)
    alpha, cov, _, _ = instance
    kappa = cov.condition_number
    assert alpha_angle(alpha, cov.solve(alpha)) >= kantorovich_bound(kappa) - 4.0 * kappa * EPS


@PROPERTY
@given(instances())
def test_geared_solutions_meet_the_bauer_householder_bound(instance):
    # alpha'theta > 0 for VI (= alpha0) and VII (g0 B/A + D/(A gamma), with
    # B, D > 0 here), so psi exists; the slack is never below rounding
    # (smallest seen: +1.5 kappa eps)
    alpha, cov, params, _ = instance
    kappa = cov.condition_number
    geared = solve_all(lambda p: solvers.solve(p, alpha, cov, **params),
                       [program for program, _ in GEARED])
    for program, weights in geared.items():
        assert verify_bound(alpha, cov, weights).slack >= -4.0 * kappa * EPS, program.value
