"""Physical parameterization and near-origin (indicial) analysis.

The potential is V(x) = (1/2) m w^2 x^2 + hbar^2 alpha / (2 m x^2).  Near
x = 0 a solution behaves like x^(beta+1) with beta(beta+1) = alpha.  The
admissible exponents are the ones keeping the Hamiltonian Hermitian:
beta > -1/2, plus beta = -1 in the regular case alpha = 0.  For
alpha <= -1/4 the indicial roots are complex or marginal and the family
of bound states disappears (fall to the center).  admissible_beta is the
one gate every state and oracle passes through.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleError, ParameterError, SingularPointError, SupercriticalError

# Strict admissibility bound: alpha must exceed this for any bound state.
ALPHA_CRITICAL = -0.25

# Absolute slack when matching a caller-supplied beta against a root.
BETA_MATCH_TOL = 1e-9


class Domain(enum.Enum):
    HALF_LINE = "half"
    FULL_LINE = "full"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    NONE = "none"  # half-line states carry no parity label

    @property
    def sign(self) -> int:
        if self is Parity.EVEN:
            return 1
        if self is Parity.ODD:
            return -1
        raise ParameterError("half-line states have no parity sign")


class OriginBehavior(enum.Enum):
    ZERO = "zero"
    FINITE_NONZERO = "finite_nonzero"
    INFINITE = "infinite"


@dataclass(frozen=True)
class OscillatorSpec:
    """Physical parameters; computation happens in natural units.

    Internally everything uses hbar = m = w = 1 (lambda = 1, energies in
    units of hbar*w, xi = sqrt(lambda) x); this object only scales values
    at input/output boundaries.
    """

    alpha: float = 0.0
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not self.mass > 0:
            raise ParameterError("mass must be positive")
        if not self.omega > 0:
            raise ParameterError("omega must be positive")
        if not self.hbar > 0:
            raise ParameterError("hbar must be positive")

    @property
    def lam(self) -> float:
        """Inverse square length scale lambda = m w / hbar."""
        return self.mass * self.omega / self.hbar

    @property
    def length_scale(self) -> float:
        """x = xi * length_scale, with xi the dimensionless coordinate."""
        return 1.0 / math.sqrt(self.lam)

    @property
    def energy_scale(self) -> float:
        """E = eps * energy_scale, with eps the dimensionless energy."""
        return self.hbar * self.omega

    def eps_from_energy(self, energy: float) -> float:
        return energy / self.energy_scale

    def energy_from_eps(self, eps: float) -> float:
        return eps * self.energy_scale


@dataclass(frozen=True)
class IndicialRoots:
    """Roots of beta(beta+1) = alpha; complex_pair flags alpha < -1/4."""

    beta_plus: float
    beta_minus: float
    complex_pair: bool
    imag: float = 0.0


@dataclass(frozen=True)
class BetaSolution:
    """Admissible exponent set for one alpha.

    admissible is empty exactly when supercritical (alpha <= -1/4); for
    alpha = 0 it holds both branches (-1 and 0), otherwise just beta_plus.
    """

    beta_plus: float
    beta_minus: float
    admissible: tuple[float, ...]
    supercritical: bool


@dataclass(frozen=True)
class BoundaryClass:
    """Limiting behavior of (psi, psi') at x -> 0+ for an admissible pair."""

    psi_at_origin: OriginBehavior
    dpsi_at_origin: OriginBehavior


def indicial_roots(alpha: float) -> IndicialRoots:
    """Solve the indicial equation beta(beta+1) = alpha.

    For alpha >= -1/4 both roots are real: beta = -1/2 +- sqrt(1/4+alpha).
    For alpha < -1/4 the pair is complex with real part -1/2; that status
    is reported through complex_pair, not an exception.  A non-finite
    alpha raises ParameterError; every admissibility check starts here.
    """
    if not math.isfinite(alpha):
        raise ParameterError("alpha must be finite")
    disc = 0.25 + alpha
    if disc < 0:
        return IndicialRoots(-0.5, -0.5, True, math.sqrt(-disc))
    root = math.sqrt(disc)
    return IndicialRoots(-0.5 + root, -0.5 - root, False)


def admissible_betas(alpha: float) -> BetaSolution:
    """Apply the hermiticity criterion to the indicial roots.

    alpha > -1/4, alpha != 0: only beta_plus survives.  alpha = 0: both
    beta = -1 and beta = 0 are admissible (two distinct families).
    alpha <= -1/4: supercritical, nothing is admissible; the marginal
    double root at alpha = -1/4 (the logarithmic case) is excluded
    because the criterion is the strict inequality beta > -1/2.
    """
    roots = indicial_roots(alpha)
    if roots.complex_pair or alpha <= ALPHA_CRITICAL:
        return BetaSolution(roots.beta_plus, roots.beta_minus, (), True)
    if alpha == 0:
        return BetaSolution(0.0, -1.0, (-1.0, 0.0), False)
    return BetaSolution(roots.beta_plus, roots.beta_minus, (roots.beta_plus,), False)


def admissible_beta(alpha: float, beta: float | None = None) -> float:
    """The admissibility gate: the exponent a bound state at alpha uses.

    A non-finite alpha raises ParameterError and alpha <= -1/4 raises
    SupercriticalError.  With no beta requested the result is beta_plus
    (0 at alpha = 0, the vanishing-at-origin branch); a requested beta
    must lie within BETA_MATCH_TOL of an admissible root, which is then
    returned exactly, or InadmissibleError is raised.
    """
    sol = admissible_betas(alpha)
    if sol.supercritical:
        raise SupercriticalError(
            f"alpha = {alpha} is supercritical (alpha <= -1/4): no bound states"
        )
    if beta is None:
        return sol.beta_plus
    for root in sol.admissible:
        if abs(beta - root) <= BETA_MATCH_TOL:
            return root
    allowed = " or ".join(str(root) for root in sol.admissible)
    raise InadmissibleError(f"alpha = {alpha} admits only beta = {allowed}, got {beta}")


def classify_boundary(alpha: float, beta: float) -> BoundaryClass:
    """Limiting (psi, psi') behavior at the origin for an admissible pair.

    psi ~ x^(beta+1): zero at the origin unless beta = -1 (alpha = 0 even
    branch).  psi' ~ (beta+1) x^beta: zero for beta > 0, a finite constant
    for beta = 0, and divergent for -1/2 < beta < 0 (attractive alpha).
    """
    beta = admissible_beta(alpha, beta)
    if beta == -1.0:
        return BoundaryClass(OriginBehavior.FINITE_NONZERO, OriginBehavior.ZERO)
    if alpha == 0:
        return BoundaryClass(OriginBehavior.ZERO, OriginBehavior.FINITE_NONZERO)
    if alpha > 0:
        return BoundaryClass(OriginBehavior.ZERO, OriginBehavior.ZERO)
    return BoundaryClass(OriginBehavior.ZERO, OriginBehavior.INFINITE)


def potential_value(spec: OscillatorSpec, x):
    """V(x) = (1/2) m w^2 x^2 + hbar^2 alpha / (2 m x^2) in physical units.

    Accepts scalar or ndarray x.  x = 0 is a genuine singularity whenever
    alpha != 0.
    """
    x_arr = np.asarray(x, dtype=float)
    harmonic = 0.5 * spec.mass * spec.omega**2 * x_arr**2
    if spec.alpha == 0:
        out = harmonic
    else:
        if np.any(x_arr == 0.0):
            raise SingularPointError("V(0) undefined for alpha != 0")
        out = harmonic + spec.hbar**2 * spec.alpha / (2.0 * spec.mass * x_arr**2)
    return float(out) if np.ndim(x) == 0 else out


def map_radial(alpha: float, l: int) -> float:
    """Effective coupling for the 3D radial problem: alpha + l(l+1)."""
    if l < 0 or l != int(l):
        raise ParameterError("orbital quantum number l must be a non-negative integer")
    return alpha + l * (l + 1)
