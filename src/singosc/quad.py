"""Integration utilities: adaptive quadrature, Cauchy principal value,
near-origin integrability classification, state overlaps, and the
derivative connection-formula residual at the origin.

Every integral is one QUADPACK call, and any failure QUADPACK reports
(or a non-finite value) raises DepthExceeded.  A principal value is
folded about its pole into one ordinary integral of f(c+t) + f(c-t);
when that integral fails the singularity is not odd and PVDivergent is
raised.

QUADPACK always runs with epsabs = epsrel = 1e-10 and 200 subintervals,
and an infinite limit goes to it as such.  Overlaps of bound states
integrate to X_MAX = 12 (natural units) instead: their e^(-x^2) tails are
below 1e-62 there, and a finite interval costs fewer evaluations than a
mapped infinite one.  Half-line inner products also ship a
Gauss-Laguerre path in the y = x^2 variable, exact for the polynomial
integrands of the bound states; the adaptive x-space route is the
general fallback and the cross-check.  QUADPACK only ever bisects
[0, X_MAX], so the nodes of every pair in a Gram matrix come from one
shared set: the adaptive route evaluates each state once per node and
reuses the value for every partner.
"""

from __future__ import annotations

import enum
import math
import weakref
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DepthExceeded, DomainMismatch, ParameterError, PVDivergent
from .model import Domain

if TYPE_CHECKING:
    from .spectrum import EigenState

# Outer end of bound-state integrals (natural units), shared with the
# finite-difference box of the oracles.
X_MAX = 12.0
# QUADPACK's absolute and relative tolerance, and its subinterval budget
_QUAD_TOL, _QUAD_LIMIT = 1e-10, 200

# psi values of each state at the quadrature nodes, {x: psi(x)}; an entry
# lives as long as its state, and equal states share one table.
_PSI_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class IntegrabilityClass(enum.Enum):
    INTEGRABLE = "integrable"
    NON_INTEGRABLE = "non_integrable"


def integrate_adaptive(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of f on [a, b] (QAGS with endpoint extrapolation,
    QAGI on an infinite interval).

    Endpoint algebraic singularities are handled by the epsilon-algorithm
    extrapolation of the underlying rule.  Raises DepthExceeded whenever
    QUADPACK reports a failure (budget spent, roundoff, a divergent or
    slowly convergent integral) or the value is not finite.
    """
    import scipy.integrate  # loaded on first use, not with the package

    out = scipy.integrate.quad(
        f, a, b, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=_QUAD_LIMIT, full_output=1
    )
    value = out[0]
    if len(out) > 3 or not math.isfinite(value):
        reason = out[3] if len(out) > 3 else "the value is not finite"
        raise DepthExceeded(
            f"quadrature on [{a}, {b}] failed: estimate {value}, error {out[1]}: {reason}"
        )
    return value


def cauchy_pv(f: Callable[[float], float], a: float, b: float, c: float) -> float:
    """Cauchy principal value of f over [a, b] with singular point c.

    Folds the symmetric part about the pole: with d = min(c - a, b - c),
    PV int_{c-d}^{c+d} f = int_0^d [f(c+t) + f(c-t)] dt, an ordinary
    integral that cancels the odd part of the singularity (Davis &
    Rabinowitz, Methods of Numerical Integration).  The one-sided rest of
    [a, b] is added as a plain integral.  Raises PVDivergent when the
    folded integral fails, as for an even singularity like 1/x^2.
    """
    if not a < c < b:
        raise ParameterError(f"need a < c < b, got a = {a}, c = {c}, b = {b}")
    left, right = c - a, b - c
    d = min(left, right)
    try:
        value = integrate_adaptive(lambda t: f(c + t) + f(c - t), 0.0, d)
    except DepthExceeded as exc:
        raise PVDivergent(f"principal value at x = {c} diverges: {exc}") from exc
    if left > d:
        value += integrate_adaptive(f, a, c - d)
    if right > d:
        value += integrate_adaptive(f, c + d, b)
    return value


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


def overlap(s1: EigenState, s2: EigenState) -> float:
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

    value = integrate_adaptive(integrand, 0.0, X_MAX)
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


def connection_residual(state: EigenState, eps: float) -> float:
    """Residual of the derivative connection formula at the origin.

    r(eps) = [psi'(eps) - psi'(-eps)] - alpha * PV int_{-eps}^{+eps} psi/x^2 dx.
    r(eps) -> 0 as eps -> 0 for admissible states; for alpha = 0 the
    singular term is absent and the residual is identically 0.  The fold
    of cauchy_pv gives exactly 0 for an odd state and twice the half-line
    integral for an even one; that integral only exists for alpha > 0
    (psi ~ |x|^(beta+1) with beta > 0 there), and for alpha < 0 it raises
    PVDivergent.  The window is 0 < eps <= X_MAX: past the box the states
    are below 1e-62, so r(eps) equals r(X_MAX) there.
    """
    if state.domain is not Domain.FULL_LINE:
        raise DomainMismatch("connection formula applies to full-line states")
    if not 0 < eps <= X_MAX:
        raise ParameterError(f"eps must lie in (0, X_MAX = {X_MAX}], got {eps}")
    if state.alpha == 0:
        return 0.0
    jump = state.dpsi(eps) - state.dpsi(-eps)

    def g(x: float) -> float:
        return state.psi(x) / x**2

    return jump - state.alpha * cauchy_pv(g, -eps, eps, 0.0)
