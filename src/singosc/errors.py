"""Exception taxonomy shared across the package.

Each class maps to one failure mode of the numerical or physical layer,
so callers can discriminate without string matching.
"""


class SingOscError(Exception):
    """Base class for all package errors."""


class PoleError(SingOscError):
    """Gamma function evaluated at a non-positive integer."""


class NonConvergence(SingOscError):
    """A series or iteration hit its term/iteration budget before converging."""


class ParameterError(SingOscError):
    """Arguments outside the mathematical domain of an operation."""


class InadmissibleError(SingOscError):
    """An (alpha, beta) pair that violates the hermiticity admissibility criterion."""


class SupercriticalError(InadmissibleError):
    """alpha <= -1/4: no admissible bound-state family exists (fall to the center)."""


class SingularPointError(SingOscError):
    """Evaluation requested exactly at the potential singularity x = 0."""


class DepthExceeded(SingOscError):
    """A quadrature rule cannot resolve its integral: its 20- and 10-point
    values disagree or are not finite, or it would need too many panels."""


class PVDivergent(SingOscError):
    """A principal value whose integral folded about the pole does not converge."""


class DomainMismatch(SingOscError):
    """Operands live on different domains or different alpha."""


class ConvergenceError(SingOscError):
    """A finite-difference level cannot be trusted: Sturm bisection failed,
    the residual estimate reaches a level, or the top level lies above the
    window whose box the grid ends at."""


class BracketError(SingOscError):
    """No eigenvalue bracket found inside the scanned energy window."""


class ShapeMismatch(SingOscError):
    """Analytic and oracle level lists cannot be paired."""
