"""Physical parameterization and near-origin (indicial) analysis.

The potential is V(x) = (1/2) m w^2 x^2 + hbar^2 alpha / (2 m x^2).  Near
x = 0 a solution behaves like x^(beta+1) with beta(beta+1) = alpha.  The
admissible exponents are the ones keeping the Hamiltonian Hermitian:
beta > -1/2, plus beta = -1 in the regular case alpha = 0.  For
alpha <= -1/4 the indicial roots are complex or marginal and the family
of bound states disappears (fall to the center).  indicial_roots gives
the roots and the admissible set in one record; admissible_beta is the
gate that each public state, table and oracle entry calls once per branch
it builds, and the only place that picks a branch (beta_plus unless
asked, so beta = 0 at alpha = 0).  The layers below take beta as data.
_box is the one rule for how far out an integration runs: a margin past
the outer turning point of its top energy.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import InadmissibleError, ParameterError, SingularPointError, SupercriticalError

# Strict admissibility bound: alpha must exceed this for any bound state.
ALPHA_CRITICAL = -0.25

# Absolute slack when matching a caller-supplied beta against a root.
BETA_MATCH_TOL = 1e-9

# Distance past the outer turning point that every box of the package
# reaches: 3 keeps the shooting levels within about 2e-7 relative (1.7 gave
# 2.6e-7).
_BOX_MARGIN = 3.0


class Domain(enum.Enum):
    HALF_LINE = "half"
    FULL_LINE = "full"


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    NONE = "none"  # half-line states carry no parity label


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
        if not math.isfinite(self.alpha):
            raise ParameterError("alpha must be finite")
        for name in ("mass", "omega", "hbar"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and positive")
        # the products can still overflow or underflow: lambda = 0 would
        # divide by zero in length_scale, inf would give x = 0 everywhere
        if not 0 < self.lam < math.inf:
            raise ParameterError(
                f"lambda = m omega / hbar = {self.lam} must be finite and positive"
            )
        if not 0 < self.energy_scale < math.inf:
            raise ParameterError(f"hbar omega = {self.energy_scale} must be finite and positive")

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

    def energy_from_eps(self, eps: float) -> float:
        energy = eps * self.energy_scale
        if not math.isfinite(energy):
            raise ParameterError(f"energy eps * hbar omega = {eps} * {self.energy_scale} overflows")
        return energy


@dataclass(frozen=True)
class IndicialRoots:
    """Roots of beta(beta+1) = alpha (their real part -1/2 when the pair
    is complex, alpha < -1/4) and the admissible ones: none when
    supercritical (alpha <= -1/4), both branches (-1, 0) at alpha = 0,
    otherwise just beta_plus."""

    beta_plus: float
    beta_minus: float
    admissible: tuple[float, ...] = ()

    @property
    def supercritical(self) -> bool:
        return not self.admissible


@dataclass(frozen=True)
class BoundaryClass:
    """Limiting behavior of (psi, psi') at x -> 0+ for an admissible pair."""

    psi_at_origin: OriginBehavior
    dpsi_at_origin: OriginBehavior


def indicial_roots(alpha: float) -> IndicialRoots:
    """Solve beta(beta+1) = alpha and apply the hermiticity criterion.

    For alpha >= -1/4 both roots are real: beta = -1/2 +- sqrt(1/4+alpha).
    For alpha < -1/4 the pair is complex with real part -1/2, which both
    fields hold, and the record is supercritical, not an exception.  The
    criterion admits beta > -1/2, plus beta = -1 at alpha = 0 (two
    families), so the marginal double root at alpha = -1/4 (the
    logarithmic case) is out.
    A non-finite alpha raises ParameterError; every check starts here.
    """
    if not math.isfinite(alpha):
        raise ParameterError("alpha must be finite")
    disc = 0.25 + alpha
    if disc < 0:
        return IndicialRoots(-0.5, -0.5)
    root = math.sqrt(disc)
    plus, minus = -0.5 + root, -0.5 - root
    admissible = () if alpha <= ALPHA_CRITICAL else (minus, plus) if alpha == 0 else (plus,)
    return IndicialRoots(plus, minus, admissible)


admissible_betas = indicial_roots  # second name, kept for existing callers


def admissible_beta(alpha: float, beta: float | None = None) -> float:
    """The admissibility gate: the exponent a bound state at alpha uses.

    A non-finite alpha raises ParameterError and alpha <= -1/4 raises
    SupercriticalError.  With no beta requested the result is beta_plus
    (0 at alpha = 0, the vanishing-at-origin branch); a requested beta
    must lie within BETA_MATCH_TOL of an admissible root, which is then
    returned exactly, or InadmissibleError is raised.
    """
    roots = indicial_roots(alpha)
    if roots.supercritical:
        raise SupercriticalError(
            f"alpha = {alpha} is supercritical (alpha <= -1/4): no bound states"
        )
    if beta is None:
        return roots.beta_plus
    for root in roots.admissible:
        if abs(beta - root) <= BETA_MATCH_TOL:
            return root
    allowed = " or ".join(str(root) for root in roots.admissible)
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
    alpha != 0 (SingularPointError).  Raises ParameterError, with no numpy
    warning, naming the first x where x or V is not finite: x^2 overflows
    from |x| ~ 1e154 on, and for alpha != 0 underflows to 0 near the origin.
    """
    import numpy as np

    x_arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        harmonic = 0.5 * spec.mass * spec.omega**2 * x_arr**2
        if spec.alpha == 0:
            out = harmonic
        else:
            if np.any(x_arr == 0.0):
                raise SingularPointError("V(0) undefined for alpha != 0")
            out = harmonic + spec.hbar**2 * spec.alpha / (2.0 * spec.mass * x_arr**2)
    bad = ~np.isfinite(out)
    if bad.any():
        raise ParameterError(f"V is not finite at x = {x_arr[bad][0]:.6g}")
    return float(out) if np.ndim(x) == 0 else out


def _box(alpha: float, eps: float) -> float:
    """Where an integration for levels up to eps stops: _BOX_MARGIN past the
    outer turning point sqrt(eps + sqrt(eps^2 - alpha)) of V, past which a
    bound state only decays (below the well's bottom the inner root counts
    as 0).  Both oracles and the Gram rule take their box from it."""
    turn = eps + math.sqrt(max(eps * eps - alpha, 0.0))
    return math.sqrt(max(turn, 0.0)) + _BOX_MARGIN


def map_radial(alpha: float, l: int) -> float:
    """Effective coupling for the 3D radial problem: alpha + l(l+1)."""
    if not 0 <= l < math.inf or l != int(l):  # also catches a NaN
        raise ParameterError("orbital quantum number l must be a non-negative integer")
    centrifugal = l * (l + 1)
    if centrifugal > sys.float_info.max:  # an int this large cannot become a float
        raise ParameterError("orbital quantum number l is too large: l(l+1) overflows a float")
    return alpha + centrifugal
