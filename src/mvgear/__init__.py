"""
mvgear: closed-form mean-variance portfolio programs with gearing
constraints, alpha-weight angle bounds, covariance shrinkage, and a
diversity-constrained quadratic solver.
"""

from .errors import (
    AsymmetricCovariance,
    ConvergenceFailure,
    DegenerateAlpha,
    DimensionError,
    Infeasible,
    InvalidEta,
    InvalidK,
    InvalidKappa,
    InvalidPortfolio,
    InvalidPsi,
    MissingParameter,
    MvgearError,
    NonFiniteData,
    NonPositiveParameter,
    NoRoot,
    RankDeficientConstraints,
    ShrinkBrokeSPD,
    SingularCovariance,
    SingularKkt,
    ToleranceNotMet,
    ZeroB,
    ZeroSum,
    ZeroVector,
)
from .moments import (
    AlphaVector,
    CovMatrix,
    ReturnsPanel,
    SpdRepairWarning,
    condition_number,
    estimate_moments,
    load_returns_csv,
    spectral_decompose,
)
from .solvers import (
    FrontierPoint,
    FrontierScalars,
    InefficientBranchWarning,
    Portfolio,
    Program,
    frontier_scalars,
    frontier_variance,
    gmv_portfolio,
    implied_returns,
    leverage,
    optimal_risky_portfolio,
    pareto_surface,
    solve_I,
    solve_II,
    solve_III,
    solve_IV,
    solve_V,
    solve_VI,
    solve_VII,
    solve_VIII,
)
from .geometry import (
    AngleDecomposition,
    BoundReport,
    WorstCasePair,
    alpha_angle,
    angle_decomposition,
    bauer_householder_bound,
    kantorovich_bound,
    minimax_degeneracy,
    smallest_valid_psi,
    verify_bound,
    worst_case_constrained,
    worst_case_unconstrained,
)
from .robust import (
    ShrinkMode,
    ShrinkageSpec,
    angle_floor,
    robust_alpha,
    shrink_covariance,
    solve_robust,
)
from .diversity import QoqcProblem, QoqcSolution, qoqc_portfolio, solve_qoqc
from .oracle import (
    KktProblem,
    dominance_sample,
    project_to_gearing,
    project_to_risk,
    return_objective,
    sharpe_objective,
    solve_kkt,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
