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
    estimate_moments,
    load_returns_csv,
)
from .solvers import (
    FrontierScalars,
    InefficientBranchWarning,
    ParetoSurface,
    Portfolio,
    Program,
    frontier_variance,
    implied_returns,
    pareto_surface,
    solve,
)
from .geometry import (
    AngleDecomposition,
    BoundReport,
    WorstCasePair,
    alpha_angle,
    alpha_angles,
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
    ShrinkPath,
    ShrinkageSpec,
    angle_floor,
    robust_alpha,
    shrink_covariance,
    shrink_sweep,
    solve_robust,
)
from .diversity import QoqcProblem, QoqcSolution, solve_qoqc
from .oracle import (
    KktProblem,
    dominance_sample,
    project_to_gearing,
    sharpe_objective,
    solve_kkt,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
