"""Integration utilities: adaptive quadrature, Cauchy principal value,
near-origin integrability classification, state overlaps, and the
derivative connection-formula residual at the origin.

Infinite limits are truncated at X_MAX = 12 (natural units): every
integrand in this package is bounded by e^(-x^2) tails, below 1e-62
there.  Half-line inner products also ship a Gauss-Laguerre path in the
y = x^2 variable, exact for the polynomial integrands of the bound
states; the adaptive x-space route is the general fallback and the
cross-check.  QUADPACK only ever bisects [0, X_MAX], so the nodes of
every pair in a Gram matrix come from one shared set: the adaptive route
evaluates each state once per node and reuses the value for every
partner.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DepthExceeded, DomainMismatch, ParameterError, PVDivergent
from .model import Domain, Parity

if TYPE_CHECKING:
    from .spectrum import EigenState

# Truncation point for infinite integration limits (natural units).
X_MAX = 12.0

# Principal value: number of epsilon halvings before giving up.
_PV_MAX_HALVINGS = 48

# psi values of each state at the quadrature nodes, {x: psi(x)}; an entry
# lives as long as its state, and equal states share one table.
_PSI_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class QuadControl:
    """Accuracy targets and refinement budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ParameterError("tolerances must be positive")
        if self.max_depth < 1:
            raise ParameterError("max_depth must be >= 1")


class IntegrabilityClass(enum.Enum):
    INTEGRABLE = "integrable"
    NON_INTEGRABLE = "non_integrable"


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, ctl: QuadControl | None = None
) -> float:
    """Adaptive quadrature of f on [a, b] (QAGS with endpoint extrapolation).

    Endpoint algebraic singularities are handled by the epsilon-algorithm
    extrapolation of the underlying rule.  max_depth scales the
    subinterval budget.  Infinite limits are replaced by +-X_MAX.
    """
    import scipy.integrate  # loaded on first use, not with the package

    if ctl is None:
        ctl = QuadControl()
    a = max(a, -X_MAX) if a == -np.inf else a
    b = min(b, X_MAX) if b == np.inf else b
    out = scipy.integrate.quad(
        f,
        a,
        b,
        epsabs=ctl.abs_tol,
        epsrel=ctl.rel_tol,
        limit=max(10, 5 * ctl.max_depth),
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > max(ctl.abs_tol, ctl.rel_tol * abs(value)):
        raise DepthExceeded(
            f"quadrature on [{a}, {b}] stalled: estimate {value}, "
            f"error {abserr}: {out[3]}"
        )
    return value


def cauchy_pv(
    f: Callable[[float], float],
    a: float,
    b: float,
    c: float,
    ctl: QuadControl | None = None,
) -> float:
    """Cauchy principal value of f over [a, b] with singular point c.

    Computes S_k = int_a^{c-eps_k} + int_{c+eps_k}^b on the sequence
    eps_k = 2^-k eps_0 and declares convergence when three successive
    partial sums agree within abs_tol.  Growing differences (ratio >= 1.5
    three times in a row) signal an even non-integrable singularity and
    raise PVDivergent.
    """
    if ctl is None:
        ctl = QuadControl()
    if not a < c < b:
        raise ValueError("need a < c < b")
    shell_ctl = QuadControl(
        abs_tol=min(ctl.abs_tol, 1e-13),
        rel_tol=min(ctl.rel_tol, 1e-13),
        max_depth=ctl.max_depth,
    )
    eps = min(c - a, b - c) / 2.0
    total = integrate_adaptive(f, a, c - eps, shell_ctl) + integrate_adaptive(
        f, c + eps, b, shell_ctl
    )
    prev_diff = None
    small_run = 0
    grow_run = 0
    for _ in range(_PV_MAX_HALVINGS):
        half = eps / 2.0
        shell = integrate_adaptive(f, c - eps, c - half, shell_ctl) + integrate_adaptive(
            f, c + half, c + eps, shell_ctl
        )
        total += shell
        eps = half
        diff = abs(shell)
        if diff < ctl.abs_tol:
            small_run += 1
            grow_run = 0
            if small_run >= 2:
                return total
        else:
            small_run = 0
            if prev_diff is not None and diff >= 1.5 * prev_diff and diff > 10 * ctl.abs_tol:
                grow_run += 1
                if grow_run >= 3:
                    raise PVDivergent(
                        f"partial sums diverge near x = {c} "
                        f"(last shell contribution {shell})"
                    )
            else:
                grow_run = 0
        prev_diff = diff
    raise PVDivergent(
        f"no Cauchy convergence after {_PV_MAX_HALVINGS} halvings near x = {c}"
    )


def integrability_class(p: float) -> IntegrabilityClass:
    """Classify int_0 |x|^p dx near the origin: integrable iff p > -1."""
    if p > -1:
        return IntegrabilityClass.INTEGRABLE
    return IntegrabilityClass.NON_INTEGRABLE


def _check_compatible(s1: EigenState, s2: EigenState) -> None:
    if s1.domain != s2.domain:
        raise DomainMismatch(f"domains differ: {s1.domain} vs {s2.domain}")
    if s1.alpha != s2.alpha:
        raise DomainMismatch(f"alpha differs: {s1.alpha} vs {s2.alpha}")


def overlap(s1: EigenState, s2: EigenState, ctl: QuadControl | None = None) -> float:
    """Inner product <s1|s2> by adaptive quadrature.

    Cross-parity full-line overlaps are 0 exactly (odd integrand on a
    symmetric domain); same-parity ones fold to twice the positive
    half-axis, which also moves the x = 0 singular behavior to an
    endpoint where the quadrature handles it.  Each state's psi is
    evaluated once per node: the value is kept for as long as the state
    lives and reused by every later overlap with that state.
    """
    _check_compatible(s1, s2)
    full = s1.domain is Domain.FULL_LINE
    if full and s1.parity is not s2.parity:
        return 0.0
    psi1, psi2 = s1.psi, s2.psi
    t1 = _PSI_TABLES.setdefault(s1, {})
    t2 = _PSI_TABLES.setdefault(s2, {})

    def integrand(x: float) -> float:
        v1 = t1.get(x)
        if v1 is None:
            v1 = t1[x] = psi1(x)
        v2 = t2.get(x)
        if v2 is None:
            v2 = t2[x] = psi2(x)
        return v1 * v2

    value = integrate_adaptive(integrand, 0.0, X_MAX, ctl)
    return 2.0 * value if full else value


def overlap_halfline_gauss(s1: EigenState, s2: EigenState) -> float:
    """Half-line inner product via y = x^2 and generalized Gauss-Laguerre.

    int_0^inf psi1 psi2 dx = (A1 A2 / 2) int_0^inf y^w e^-y L_n1 L_n2 dy
    with w = (beta1 + beta2 + 1)/2, so n1+n2+1 nodes integrate the
    polynomial part exactly.  Raises ParameterError when the weighted
    sum overflows (L_n^2 at the outer nodes, from n = 124).
    """
    import scipy.special

    from .specfun import laguerre

    _check_compatible(s1, s2)
    if s1.domain is not Domain.HALF_LINE:
        raise DomainMismatch("Gauss-Laguerre path is defined for half-line states")
    w = (s1.beta + s2.beta + 1.0) / 2.0
    nodes, weights = scipy.special.roots_genlaguerre(s1.n + s2.n + 1, w)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = laguerre(s1.n, s1.beta + 0.5, nodes) * laguerre(s2.n, s2.beta + 0.5, nodes)
        total = float(np.dot(weights, vals))
    if not np.isfinite(total):
        raise ParameterError(
            f"Gauss-Laguerre sum for n = {s1.n}, {s2.n} is not finite: "
            "L_n overflows at the outer nodes"
        )
    return 0.5 * s1.norm_const * s2.norm_const * total


def connection_residual(
    state: EigenState, eps: float, ctl: QuadControl | None = None
) -> float:
    """Residual of the derivative connection formula at the origin.

    r(eps) = [psi'(eps) - psi'(-eps)] - alpha * int_{-eps}^{+eps} psi/x^2 dx,
    the integral taken as a principal value for odd states and as an
    ordinary (improper) integral for even ones.  r(eps) -> 0 as eps -> 0
    for admissible states; for alpha = 0 the singular term is absent and
    the residual is identically 0.  The even-state integral only exists
    for alpha > 0 (psi ~ |x|^(beta+1) with beta > 0 there).
    """
    if state.domain is not Domain.FULL_LINE:
        raise DomainMismatch("connection formula applies to full-line states")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if state.alpha == 0:
        return 0.0
    jump = state.dpsi(eps) - state.dpsi(-eps)

    def g(x: float) -> float:
        return state.psi(x) / x**2

    if state.parity is Parity.ODD:
        integral = cauchy_pv(g, -eps, eps, 0.0, ctl)
    else:
        integral = 2.0 * integrate_adaptive(g, 0.0, eps, ctl)
    return jump - state.alpha * integral
