"""The stationarity certificate ``verify`` gates each record on, at realistic
size and conditioning: every program of the table, QOQC and a shrunk record
of each mode pass it at n up to 1000 and kappa up to 1e10, and a record
whose gamma is off by 1% fails it at every size and kappa.

The normwise backward error of a 1% error in gamma is about 1e-2 / kappa
(2.6e-12 at n = 50 and kappa = 1e10, 1.3e-12 at n = 1000, where the
tolerance 8 n eps is 1.8e-12), so past kappa ~ 1e9 only the comparison of
the stated nu_alpha with the fitted one, within 8 kappa eps, sees it. A 1%
error in a shrink's q or k reads 3e-5 or more at every kappa here."""

import numpy as np
import pytest

from mvgear import CovMatrix, robust
from mvgear.robust import ShrinkageSpec, ShrinkMode
from mvgear.solvers import CERTIFICATE_TOL_PER_ASSET, PROGRAMS, Program

from conftest import random_spd

KAPPAS = [1e2, 1e6, 1e10]
# n = 1000 costs about 0.3 s of eigh and QR per covariance, so two kappas.
CASES = [(n, kappa) for n in (50, 200) for kappa in KAPPAS] + [(1000, 1e6), (1000, 1e10)]


def _instance(n, kappa):
    """(alpha, cov): daily-scale returns N(0, 1e-4) on random_spd with spread
    kappa, alpha's sign chosen so that B = 1'Sigma^-1 alpha > 0 and the
    Sharpe programs have a maximum at g0 > 0."""
    rng = np.random.default_rng([n, int(np.log10(kappa))])
    cov = CovMatrix.from_entries(random_spd(rng, n, kappa=kappa, scale=1e-4))
    alpha = rng.normal(0.0, 1e-2, n)
    return alpha * np.sign(alpha @ cov.solve(np.ones(n))), cov


def _params(program, alpha):
    """The flags of ``program``: gamma 5, g0 1 (g0 1.5 for V), a return target
    half the largest alpha, a risk target of 0.5, n0 = n/4."""
    return {"gamma": 5.0, "g0": 1.5 if program is Program.V else 1.0,
            "alpha0": float(alpha.max()) / 2, "sigma0": 0.5, "n0": alpha.size / 4}


def _certified(port, alpha, cov, **edits):
    """The certificate of ``port``'s record with ``edits`` to its params:
    (passed, backward error)."""
    passed, detail, _ = robust.certificate(port.weights, alpha, cov, port.program,
                                           {**port.params, **edits})
    return passed, float(detail.split()[2])


@pytest.fixture(scope="module")
def instances():
    return {case: _instance(*case) for case in CASES}


@pytest.mark.filterwarnings("ignore::mvgear.InefficientBranchWarning")
@pytest.mark.parametrize("n,kappa", CASES)
def test_every_program_is_certified_at_scale(instances, n, kappa):
    alpha, cov = instances[n, kappa]
    for program in PROGRAMS:
        entry = PROGRAMS[program]
        params = _params(program, alpha)
        port = robust.solve_robust(program, alpha, cov, None, **entry.arguments(params))
        passed, error = _certified(port, alpha, cov)
        assert passed and error <= CERTIFICATE_TOL_PER_ASSET * n, (program, error)


@pytest.mark.parametrize("n,kappa", CASES)
@pytest.mark.parametrize("mode", list(ShrinkMode))
def test_a_shrunk_record_is_certified_on_its_shrunk_covariance(instances, n, kappa, mode):
    # VII at q = 0.3, or at k = 0.3 k0; its q or k off by 1% fails
    alpha, cov = instances[n, kappa]
    k = 0.3 * (robust.angle_floor(alpha, cov) if mode is ShrinkMode.ANGLE_TARGETED else 1.0)
    port = robust.solve_robust(Program.VII, alpha, cov, ShrinkageSpec(mode, k),
                               gamma=5.0, g0=1.0)
    assert _certified(port, alpha, cov)[0]
    assert not _certified(port, alpha, cov, shrink_k=1.01 * k)[0]


@pytest.mark.parametrize("n,kappa", [case for case in CASES if case[1] > 1e2])
@pytest.mark.parametrize("program", [Program.III, Program.VII, Program.QOQC])
def test_a_record_with_gamma_off_by_one_percent_fails(instances, n, kappa, program):
    alpha, cov = instances[n, kappa]
    params = PROGRAMS[program].arguments(_params(program, alpha))
    port = robust.solve_robust(program, alpha, cov, None, **params)
    assert _certified(port, alpha, cov)[0]
    assert not _certified(port, alpha, cov, gamma=5.05)[0]
