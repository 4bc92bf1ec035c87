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
from collections import Counter
from typing import NamedTuple

from . import specfun
from .errors import ParameterError
from .model import Domain, Parity, admissible_beta
# specfun holds the one check of a quantum number or a degree
from .specfun import _check_n, laguerre


class _Divergent:
    """Sentinel value: a first-order matrix element that does not exist.
    DIVERGENT below is its one instance; callers test it with `is`."""

    def __repr__(self) -> str:
        return "Divergent"


DIVERGENT = _Divergent()

# Largest quantum number accepted, the bound of specfun._check_n
N_MAX = specfun.N_MAX


def energy(n: int, beta: float) -> float:
    """Dimensionless eigenvalue eps = 2n + beta + 3/2.  Raises ParameterError
    where doubles do not separate it from the levels n -+ 1: from eps = 2^54
    on, where they lie 4 apart, and where rounding merges two near 2^53."""
    _check_n(n)
    below, eps, above = (2.0 * m + beta + 1.5 for m in (n - 1, n, n + 1))
    if not (math.ulp(eps) <= 2.0 and below < eps < above):  # also catches a NaN
        raise ParameterError(f"eps = {eps:.17g}: doubles do not separate level {n} from n -+ 1")
    return eps


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


class EigenState(NamedTuple):
    """One normalized bound state with closed-form evaluators; an immutable
    record."""

    n: int
    beta: float
    parity: Parity
    energy_eps: float
    norm_const: float
    domain: Domain
    alpha: float

    def psi(self, x):
        """Wavefunction value, one array expression for any x; a 0-d x gives
        a Python float, equal bit for bit to the ndarray element.  Raises
        ParameterError, with no numpy warning, naming the first x that is
        not finite before any factor is computed, and where a value is not
        finite: L_n overflows (laguerre's text), or another factor does, as
        x^(beta+1) before e^(-x^2/2) brings it back."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ParameterError(f"psi needs a finite xi, got xi = {x[~np.isfinite(x)][0]}")
        if self.domain is Domain.FULL_LINE:
            r = np.abs(x)
        elif (x < 0).any():
            raise ParameterError("half-line state evaluated at x < 0")
        else:
            r = x
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            y = r * r
            out = self._profile(
                self.norm_const,
                np.power(r, self.beta + 1.0),
                np.exp(-0.5 * y),
                laguerre(self.n, self.beta + 0.5, y),
            )
        if not np.isfinite(out).all():
            at = x[~np.isfinite(out)][0]
            raise ParameterError(f"psi is not finite at xi = {at:.6g}: a factor of it overflows")
        if self.parity is Parity.ODD:
            out = np.sign(x) * out
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def _profile(norm_const: float, power, decay, lag):
        """The half-line profile A r^(beta+1) e^(-r^2/2) L_n^(beta+1/2)(r^2)
        from its four factors, multiplied in this order; norm_const carries
        the 1/sqrt(2) of full-line states.  psi and the Gram rule's cache
        of psi per (beta, rule) (quad._entry) both take it from here, so
        their values agree bit for bit."""
        return norm_const * power * decay * lag


class SpectrumTable(NamedTuple):
    """Energy-ordered states with per-level multiplicities and spacing; an
    immutable record."""

    alpha: float
    domain: Domain
    states: tuple[EigenState, ...]
    degeneracy: tuple[int, ...]
    spacing: float

    def distinct_levels(self) -> tuple[float, ...]:
        return tuple(dict.fromkeys(s.energy_eps for s in self.states))

    def columns(self) -> dict[str, list]:
        """The level table as named columns, one entry per state."""
        mult = dict(zip(self.distinct_levels(), self.degeneracy))
        states = self.states
        return {
            "alpha": [self.alpha] * len(states),
            "domain": [self.domain.value] * len(states),
            "n": [s.n for s in states],
            "parity": [s.parity.value for s in states],
            "beta": [s.beta for s in states],
            "eps": [s.energy_eps for s in states],
            "degeneracy": [mult[s.energy_eps] for s in states],
        }


def _state(alpha: float, n: int, beta: float, parity: Parity = Parity.NONE) -> EigenState:
    """An EigenState computed from scratch (_level copies a whole-line
    even state to its odd twin by _replace).  beta is data here and passes
    no gate: _branches resolves it for the public entries, once per branch,
    so any root, beta_minus included, builds a state.  Parity NONE gives
    the half-line state; EVEN or ODD its whole-line extension, normalized
    with an extra 1/sqrt(2)."""
    eps = energy(n, beta)
    norm_const = normalization_constant(n, beta)
    if parity is Parity.NONE:
        domain = Domain.HALF_LINE
    else:
        domain, norm_const = Domain.FULL_LINE, norm_const / math.sqrt(2.0)
    return EigenState(
        n=int(n),
        beta=beta,
        parity=parity,
        energy_eps=eps,
        norm_const=norm_const,
        domain=domain,
        alpha=alpha,
    )


def _branches(
    alpha: float, domain: Domain, beta_branch: float | None = None
) -> tuple[tuple[float, Parity], ...]:
    """(beta, parity) of each family of states that domain holds at alpha,
    one gate call per branch: on the half line the requested branch with
    parity NONE; on the whole line the (Even, Odd) pair on beta_plus, or at
    alpha = 0 the even beta = -1 and the odd beta = 0 branches.  The one
    place in this module that picks a branch; raises ParameterError for a
    beta_branch on the whole line and for a domain that is not a Domain."""
    if domain is Domain.HALF_LINE:
        return ((admissible_beta(alpha, beta_branch), Parity.NONE),)
    if domain is not Domain.FULL_LINE:
        raise ParameterError(f"domain must be a Domain, got {domain!r}")
    if beta_branch is not None:
        raise ParameterError("a beta branch applies to half-line tables only")
    if alpha != 0:
        beta = admissible_beta(alpha)
        return (beta, Parity.EVEN), (beta, Parity.ODD)
    return (admissible_beta(alpha, -1.0), Parity.EVEN), (admissible_beta(alpha, 0.0), Parity.ODD)


def _level(alpha: float, n: int, branches: tuple[tuple[float, Parity], ...]) -> list[EigenState]:
    """The states of quantum number n on each (beta, parity) of branches,
    each (n, beta) built once: a whole-line pair on one beta shares eps and
    norm_const, so its odd state is the even one with parity Odd."""
    states = []
    for beta, parity in branches:
        if states and states[-1].beta == beta:
            states.append(states[-1]._replace(parity=parity))
        else:
            states.append(_state(alpha, n, beta, parity))
    return states


def halfline_state(alpha: float, n: int, beta_branch: float | None = None) -> EigenState:
    """Normalized half-line bound state (alpha, n).

    With no beta_branch the state takes the gate's beta_plus, which at
    alpha = 0 is the vanishing-at-origin branch 0; beta_branch=-1 gives
    the regular, finite-at-origin family there.
    """
    _check_n(n)
    ((beta, parity),) = _branches(alpha, Domain.HALF_LINE, beta_branch)
    return _state(alpha, n, beta, parity)


def fullline_states(alpha: float, n: int) -> list[EigenState]:
    """Whole-line states at quantum number n.

    alpha != 0: the (Even, Odd) degenerate pair built on beta_plus.
    alpha = 0: the even beta = -1 state at eps = 2n + 1/2 and the odd
    beta = 0 state at eps = 2n + 3/2 (distinct energies).
    """
    _check_n(n)
    return _level(alpha, n, _branches(alpha, Domain.FULL_LINE))


def spectrum_table(
    alpha: float,
    n_max: int,
    domain: Domain,
    beta_branch: float | None = None,
) -> SpectrumTable:
    """Sorted spectrum up to quantum number n_max with degeneracies.

    beta_branch picks the half-line branch as in halfline_state; the
    full-line table holds both branches at alpha = 0 and takes none.
    The states come out in (eps, parity) order as _level builds them, n
    by n and even before odd, so no sort runs.
    """
    n_max = _check_n(n_max)
    branches = _branches(alpha, domain, beta_branch)
    states = [s for n in range(n_max + 1) for s in _level(alpha, n, branches)]
    degeneracy = Counter(s.energy_eps for s in states).values()
    spacing = 1.0 if (domain is Domain.FULL_LINE and alpha == 0) else 2.0
    return SpectrumTable(
        alpha=alpha,
        domain=domain,
        states=tuple(states),
        degeneracy=tuple(degeneracy),
        spacing=spacing,
    )


def perturbation_first_order(n: int, parity: Parity):
    """First-order energy slope <psi_n| 1/(2 x^2) |psi_n> at alpha = 0.

    Finite for odd states (their psi vanishes linearly at the origin, so
    psi^2 / x^2 is regular there) and taken as one weighted entry of
    quad.gram on the half-line beta = 0 state; returns the DIVERGENT
    sentinel for even states, whose psi(0) != 0 makes the integrand
    non-integrable.  For every odd state the slope is exactly 1, matching
    d eps / d alpha = d beta_plus / d alpha at alpha = 0.
    """
    _check_n(n)
    if parity is Parity.EVEN:
        return DIVERGENT
    if parity is not Parity.ODD:
        raise ParameterError("perturbation diagnostic needs parity Even or Odd")
    from . import quad  # the analytic surface never loads the quadrature

    state = halfline_state(0.0, n, beta_branch=0.0)
    return float(quad.gram((state,), lambda x: 0.5 / (x * x))[0, 0])
