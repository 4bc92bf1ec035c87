"""Closed-form bound states of the singular harmonic oscillator.

Half-line eigenfunctions in natural units (lambda = 1):

    psi_n(x) = A_n x^(beta+1) e^(-x^2/2) L_n^(beta+1/2)(x^2),  x > 0
    eps_n    = 2n + beta + 3/2

with beta the admissible indicial exponent for the coupling alpha.
Whole-line states are parity extensions psi(x) = p^theta(-x) psi(|x|),
normalized with an extra 1/sqrt(2).  For alpha != 0 even and odd
extensions are exactly degenerate; at alpha = 0 the beta = -1 branch
supplies the even (intruder) levels 2n + 1/2 interleaving the odd
2n + 3/2 ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import Domain, Parity, admissible_beta
from .quad import X_MAX, QuadControl, integrate_adaptive
from .specfun import as_operand, laguerre


class _Divergent:
    """Sentinel value: a first-order matrix element that does not exist."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Divergent"


DIVERGENT = _Divergent()


def energy(n: int, beta: float) -> float:
    """Dimensionless eigenvalue eps = 2n + beta + 3/2."""
    _check_n(n)
    return 2.0 * n + beta + 1.5


def normalization_constant(n: int, beta: float) -> float:
    """Half-line closed form A_n = sqrt(2 n! / Gamma(n + beta + 3/2)).

    Follows from int_0^inf y^a e^-y [L_n^(a)]^2 dy = Gamma(n+a+1)/n! with
    a = beta + 1/2.  Evaluated through log-gamma so large n stays finite.
    Full-line states scale this by 1/sqrt(2).
    """
    _check_n(n)
    if not beta > -1.5:
        raise ParameterError("normalization needs beta > -3/2")
    return math.exp(
        0.5 * (math.log(2.0) + math.lgamma(n + 1) - math.lgamma(n + beta + 1.5))
    )


@dataclass(frozen=True)
class EigenState:
    """One normalized bound state with closed-form evaluators."""

    n: int
    beta: float
    parity: Parity
    energy_eps: float
    norm_const: float
    domain: Domain
    alpha: float

    def _base_psi(self, x):
        # half-line profile at x >= 0; norm_const already carries the
        # 1/sqrt(2) for full-line states
        y = x * x
        return (
            self.norm_const
            * np.power(x, self.beta + 1.0)
            * np.exp(-0.5 * y)
            * laguerre(self.n, self.beta + 0.5, y)
        )

    def _base_dpsi(self, x):
        y = x * x
        ln = laguerre(self.n, self.beta + 0.5, y)
        l1 = laguerre(self.n - 1, self.beta + 1.5, y) if self.n >= 1 else 0.0
        gauss = np.exp(-0.5 * y)
        if self.beta == -1.0:
            # the (beta+1) x^beta term vanishes identically; writing it
            # out would produce 0 * inf at the origin
            return self.norm_const * gauss * x * (-ln - 2.0 * l1)
        with np.errstate(divide="ignore"):
            lead = (self.beta + 1.0) * np.power(x, self.beta)
        tail = np.power(x, self.beta + 2.0) * (ln + 2.0 * l1)
        return self.norm_const * gauss * (lead * ln - tail)

    def _profile_arg(self, x):
        """(x, the argument of the half-line profile, whether x is 0-d)."""
        x, scalar = as_operand(x)
        if self.domain is Domain.FULL_LINE:
            return x, abs(x), scalar
        if x < 0 if scalar else np.any(x < 0):
            raise ParameterError("half-line state evaluated at x < 0")
        return x, x, scalar

    def psi(self, x):
        """Wavefunction value; scalar or ndarray argument (a 0-d x gives a
        Python float, equal bit for bit to the ndarray element)."""
        x, r, scalar = self._profile_arg(x)
        out = self._base_psi(r)
        if self.parity is Parity.ODD:
            out = ((x > 0) - (x < 0) if scalar else np.sign(x)) * out
        return float(out) if scalar else out

    def dpsi(self, x):
        """Analytic derivative psi'(x), using dL_n^(a)/dy = -L_{n-1}^(a+1).

        At x = 0 the value returned is the x -> 0+ limit (0, a finite
        constant, or +inf depending on beta); for -1/2 < beta < 0 the
        derivative genuinely diverges there.
        """
        x, r, scalar = self._profile_arg(x)
        out = self._base_dpsi(r)
        if self.parity is Parity.EVEN:
            out = (-out if x < 0 else out) if scalar else np.where(x < 0, -out, out)
        return float(out) if scalar else out


@dataclass(frozen=True)
class SpectrumTable:
    """Energy-ordered states with per-level multiplicities and spacing."""

    alpha: float
    domain: Domain
    states: tuple[EigenState, ...]
    degeneracy: tuple[int, ...]
    spacing: float

    def distinct_levels(self) -> tuple[float, ...]:
        levels: list[float] = []
        for s in self.states:
            if not levels or s.energy_eps != levels[-1]:
                levels.append(s.energy_eps)
        return tuple(levels)

    def rows(self) -> list[dict]:
        levels = self.distinct_levels()
        mult = dict(zip(levels, self.degeneracy))
        return [
            {
                "alpha": self.alpha,
                "domain": self.domain.value,
                "n": s.n,
                "parity": s.parity.value,
                "beta": s.beta,
                "eps": s.energy_eps,
                "degeneracy": mult[s.energy_eps],
            }
            for s in self.states
        ]


def _check_n(n: int) -> None:
    if n < 0 or n != int(n):
        raise ParameterError("quantum number n must be a non-negative integer")


def halfline_state(alpha: float, n: int, beta_branch: float | None = None) -> EigenState:
    """Normalized half-line bound state (alpha, n).

    For alpha = 0 the caller must pick the branch explicitly: beta_branch
    -1 (regular even family) or 0 (Dirichlet family).
    """
    _check_n(n)
    if alpha == 0 and beta_branch is None:
        raise ParameterError(
            "alpha = 0 has two admissible branches; pass beta_branch=-1 "
            "(even) or beta_branch=0 (odd)"
        )
    beta = admissible_beta(alpha, beta_branch)
    return EigenState(
        n=int(n),
        beta=beta,
        parity=Parity.NONE,
        energy_eps=energy(n, beta),
        norm_const=normalization_constant(n, beta),
        domain=Domain.HALF_LINE,
        alpha=alpha,
    )


def _extend(state: EigenState, parity: Parity) -> EigenState:
    return EigenState(
        n=state.n,
        beta=state.beta,
        parity=parity,
        energy_eps=state.energy_eps,
        norm_const=state.norm_const / math.sqrt(2.0),
        domain=Domain.FULL_LINE,
        alpha=state.alpha,
    )


def fullline_states(alpha: float, n: int) -> list[EigenState]:
    """Whole-line states at quantum number n.

    alpha != 0: the (Even, Odd) degenerate pair built on beta_plus.
    alpha = 0: the even beta = -1 state at eps = 2n + 1/2 and the odd
    beta = 0 state at eps = 2n + 3/2 (distinct energies).
    """
    _check_n(n)
    if alpha == 0:
        even = _extend(halfline_state(0.0, n, beta_branch=-1.0), Parity.EVEN)
        odd = _extend(halfline_state(0.0, n, beta_branch=0.0), Parity.ODD)
        return [even, odd]
    half = halfline_state(alpha, n)
    return [_extend(half, Parity.EVEN), _extend(half, Parity.ODD)]


def spectrum_table(
    alpha: float,
    n_max: int,
    domain: Domain,
    beta_branch: float | None = None,
) -> SpectrumTable:
    """Sorted spectrum up to quantum number n_max with degeneracies.

    Half-line tables at alpha = 0 need an explicit beta_branch; the
    full-line table always contains both branches there.
    """
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    if domain is Domain.HALF_LINE:
        states = [halfline_state(alpha, n, beta_branch) for n in range(n_max + 1)]
    else:
        states = [s for n in range(n_max + 1) for s in fullline_states(alpha, n)]
    states.sort(key=lambda s: (s.energy_eps, s.parity.value))
    degeneracy: list[int] = []
    levels: list[float] = []
    for s in states:
        if levels and s.energy_eps == levels[-1]:
            degeneracy[-1] += 1
        else:
            levels.append(s.energy_eps)
            degeneracy.append(1)
    spacing = 1.0 if (domain is Domain.FULL_LINE and alpha == 0) else 2.0
    return SpectrumTable(
        alpha=alpha,
        domain=domain,
        states=tuple(states),
        degeneracy=tuple(degeneracy),
        spacing=spacing,
    )


def density_current(state: EigenState, x):
    """Probability density and current (rho, J) at x.

    Stationary bound states are real, so J = (hbar/m) Im(psi* psi') is
    identically zero; it is returned explicitly to make that checkable.
    """
    rho = np.asarray(state.psi(x), dtype=float) ** 2
    j = np.zeros_like(rho)
    if np.ndim(x) == 0:
        return float(rho), float(j)
    return rho, j


def perturbation_first_order(n: int, parity: Parity):
    """First-order energy slope <psi_n| 1/(2 x^2) |psi_n> at alpha = 0.

    Finite for odd states (their psi vanishes linearly at the origin);
    returns the DIVERGENT sentinel for even states, whose psi(0) != 0
    makes the integrand non-integrable.  For the odd ground state the
    slope is exactly 1, matching d eps / d alpha = d beta_plus / d alpha
    at alpha = 0.
    """
    _check_n(n)
    if parity is Parity.EVEN:
        return DIVERGENT
    if parity is not Parity.ODD:
        raise ParameterError("perturbation diagnostic needs parity Even or Odd")
    state = halfline_state(0.0, n, beta_branch=0.0)

    def integrand(x: float) -> float:
        v = state.psi(x)
        return v * v / (2.0 * x * x)

    # x^2 cancels against psi^2 ~ x^2 near 0; integrand is regular
    return integrate_adaptive(integrand, 0.0, X_MAX, QuadControl(abs_tol=1e-12, rel_tol=1e-12))
