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
    """Adaptive quadrature exhausted its refinement budget without converging."""


class PVDivergent(SingOscError):
    """A principal value whose integral folded about the pole does not converge."""


class DomainMismatch(SingOscError):
    """Operands live on different domains or different alpha."""


class ConvergenceError(SingOscError):
    """Eigenvalue bisection failed to collapse its interval."""


class BracketError(SingOscError):
    """No eigenvalue bracket found inside the scanned energy window."""


class ShapeMismatch(SingOscError):
    """Analytic and oracle level lists cannot be paired."""
