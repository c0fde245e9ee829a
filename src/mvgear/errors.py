"""Exception hierarchy shared by all mvgear modules."""


class MvgearError(Exception):
    """Base class for all mvgear errors."""


class NonFiniteData(MvgearError):
    """Input data contains NaN/inf or an unparseable/missing cell."""


class DimensionError(MvgearError):
    """Inputs have incompatible or disallowed dimensions (e.g. n < 2)."""


class DegenerateAlpha(MvgearError):
    """Expected returns are (numerically) constant, so D = AC - B^2 <= 0."""


class SingularCovariance(MvgearError):
    """Covariance is not strictly positive definite and repair is disabled."""


class AsymmetricCovariance(MvgearError):
    """Covariance entries are not symmetric within tolerance."""


class ConvergenceFailure(MvgearError):
    """An iterative eigensolver or internal identity check failed."""


class ZeroB(MvgearError):
    """1'Sigma^-1 alpha is numerically zero; fully-invested risky portfolio undefined."""


class NonPositiveParameter(MvgearError):
    """A program parameter is outside its admissible domain."""


class MissingParameter(MvgearError):
    """A program was asked to solve without a parameter it needs."""


class ZeroVector(MvgearError):
    """An angle was requested for a zero-length vector."""


class InvalidKappa(MvgearError):
    """Condition number below 1."""


class InvalidPsi(MvgearError):
    """Auxiliary angle outside [0, pi/2), or no admissible angle exists."""


class InvalidEta(MvgearError):
    """Spectral stretch factor eta below 1."""


class InvalidK(MvgearError):
    """Shrinkage/uncertainty parameter outside its admissible range."""


class ShrinkBrokeSPD(MvgearError):
    """Defensive: a shrunk covariance lost positive definiteness."""


class ZeroSum(MvgearError):
    """Implied-return normalization undefined (vector sums to ~0)."""


class InvalidPortfolio(MvgearError):
    """A portfolio argument violates the operation's precondition."""


class Infeasible(MvgearError):
    """The diversity-constrained problem has an empty feasible set."""


class ToleranceNotMet(MvgearError):
    """A solution was found but fails its stated residual tolerances."""


class RankDeficientConstraints(MvgearError):
    """Equality-constraint matrix is not full row rank."""


class SingularKkt(MvgearError):
    """The bordered KKT system could not be solved to tolerance."""
