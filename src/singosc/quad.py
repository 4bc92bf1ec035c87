"""Integration utilities: adaptive quadrature, Cauchy principal value,
near-origin integrability classification, Gram matrices, matrix elements
and overlaps of states.

Every adaptive integral is one QUADPACK call, and any failure QUADPACK
reports (or a non-finite value) raises DepthExceeded.  QUADPACK serves
only cauchy_pv and the tests' independent references for the rule
below; no closed-form quantity goes through it.  A principal value is
folded about its pole into one ordinary integral of f(c+t) + f(c-t);
when that integral fails the singularity is not odd and PVDivergent is
raised.  QUADPACK always runs with epsabs = epsrel = 1e-10 and 200
subintervals, and an infinite limit goes to it as such.

Overlaps and matrix elements <psi_i|w|psi_j> of bound states, with w
an even multiplication operator such as 1/(2 x^2), integrate to
X_MAX = 12 (natural units), where the e^(-x^2) tails of the low states
are below 1e-62.  They use one fixed composite Gauss-Legendre rule on
[0, X_MAX] instead of QUADPACK.  Toward the origin the panels are
geometric, [r^(k+1), r^k] with r = 0.15 below x = 1 (the innermost one
reaching 0), which resolves the endpoint power x^(2 beta + 2) of
psi1 psi2 (x^(2 beta) with w = 1/x^2) at an exponential rate (hp
grading, Schwab, p- and hp-Finite Element Methods, 1998); from 1 to
X_MAX they are 0.5 wide.  Each panel carries 20 points, and a 10-point
copy of the same panels estimates the error: a Gram matrix whose two
values differ by more than 1e-8 in some entry raises DepthExceeded.
The gap does not see the tail past X_MAX, but the 10-point rule fails
first: at alpha = 0.5 the check raises from n = 21, and the tail left
out reaches 1e-9 only at n = 25.  A Gram matrix evaluates each state once, in one
array call on all nodes of both rules.  Half-line inner products also
ship a Gauss-Laguerre path in the y = x^2 variable, exact for the
polynomial integrands of the bound states; it is the independent second
route.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import DepthExceeded, DomainMismatch, ParameterError, PVDivergent
from .model import Domain, Parity

if TYPE_CHECKING:
    from .spectrum import EigenState

# Outer end of bound-state integrals (natural units), shared with the
# finite-difference box of the oracles.
X_MAX = 12.0
# QUADPACK's absolute and relative tolerance, and its subinterval budget
_QUAD_TOL, _QUAD_LIMIT = 1e-10, 200

# The composite Gauss-Legendre rule of overlaps: geometric panels
# [r^(k+1), r^k] on (0, 1], the innermost [0, r^(levels-1)], then panels of
# _PANEL_WIDTH to X_MAX; _Q_FINE points per panel, and _Q_COARSE for the
# error estimate, which may reach _GRAM_GAP_TOL
_GEOM_RATIO, _GEOM_LEVELS, _PANEL_WIDTH = 0.15, 24, 0.5
_Q_FINE, _Q_COARSE, _GRAM_GAP_TOL = 20, 10, 1e-8


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


@functools.cache
def _gram_rule() -> tuple[np.ndarray, np.ndarray, int]:
    """Nodes and weights of the composite rule on [0, X_MAX]: the
    20-point rule's, then the 10-point rule's, and where they split.

    Built on first use: numpy.polynomial is not loaded with the package.
    """
    from numpy.polynomial.legendre import leggauss

    inner = _GEOM_RATIO ** np.arange(_GEOM_LEVELS - 1, -1, -1)
    outer = np.arange(1.0 + _PANEL_WIDTH, X_MAX + _PANEL_WIDTH / 2, _PANEL_WIDTH)
    edges = np.concatenate(([0.0], inner, outer))
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2.0
    nodes, weights = [], []
    for q in (_Q_FINE, _Q_COARSE):
        t, w = leggauss(q)
        nodes.append((lo + half * (t + 1.0)).ravel())
        weights.append((half * w).ravel())
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, _Q_FINE * len(lo)


def gram(
    states: Sequence[EigenState],
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Matrix G[i, j] = <states[i]| w |states[j]> of the multiplication
    operator w(x) (the Gram matrix when weight is None) on the composite
    Gauss-Legendre rule.

    Each state is evaluated once, in one array call on the nodes of both
    rules; w is evaluated once, on the same positive nodes, and
    multiplies the rule's weights.  On the full line w must be even.
    Entry (i, j) sums psi_i psi_j w times the rule's weight over the
    nodes in one fixed order, so it does not depend on the other states:
    with no weight it equals overlap(states[i], states[j]) bit for bit,
    and G is symmetric.  On the full line cross-parity entries are 0
    exactly (odd integrand on a symmetric domain) and same-parity ones
    are twice the positive half-axis.  Raises DepthExceeded when the 20- and the 10-point rule
    differ by more than 1e-8 in some entry, as for a w psi_i psi_j that
    is not integrable at the origin, or a value is not finite.
    """
    if not states:
        raise ParameterError("a Gram matrix needs at least one state")
    for s in states[1:]:
        _check_compatible(states[0], s)
    nodes, weights, split = _gram_rule()
    if weight is not None:
        weights = weights * weight(nodes)
    psi = np.array([s.psi(nodes) for s in states])
    fine, coarse = np.empty((2, len(states), len(states)))
    for i, row in enumerate(psi):  # one row at a time: memory stays N x nodes
        terms = row * psi * weights
        fine[i] = np.sum(terms[:, :split], axis=-1)
        coarse[i] = np.sum(terms[:, split:], axis=-1)
    if states[0].domain is Domain.FULL_LINE:
        even = np.array([s.parity is Parity.EVEN for s in states])
        same = even[:, None] == even[None, :]
        fine = np.where(same, 2.0 * fine, 0.0)
        coarse = np.where(same, 2.0 * coarse, 0.0)
    gap = float(np.max(np.abs(fine - coarse)))
    if not gap <= _GRAM_GAP_TOL:
        raise DepthExceeded(
            f"Gram matrix of {len(states)} states: the {_Q_FINE}- and {_Q_COARSE}-point "
            f"rules differ by {gap:.2e} > {_GRAM_GAP_TOL:.0e}"
        )
    return fine


def overlap(s1: EigenState, s2: EigenState) -> float:
    """Inner product <s1|s2>: the entry of the pair's Gram matrix, which
    raises as gram does.

    Cross-parity full-line overlaps are 0 exactly and evaluate nothing;
    an equal pair is evaluated once.
    """
    _check_compatible(s1, s2)
    if s1.domain is Domain.FULL_LINE and s1.parity is not s2.parity:
        return 0.0
    if s1 == s2:
        return float(gram((s1,))[0, 0])
    return float(gram((s1, s2))[0, 1])


@functools.lru_cache(maxsize=64)
def _laguerre_rule(count: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the count-point generalized
    Gauss-Laguerre rule for y^w e^-y: every pair of one Gram matrix shares
    w, so each count is computed once."""
    import scipy.special

    nodes, weights = scipy.special.roots_genlaguerre(count, w)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def overlap_halfline_gauss(s1: EigenState, s2: EigenState) -> float:
    """Half-line inner product via y = x^2 and generalized Gauss-Laguerre.

    int_0^inf psi1 psi2 dx = (A1 A2 / 2) int_0^inf y^w e^-y L_n1 L_n2 dy
    with w = (beta1 + beta2 + 1)/2, so n1+n2+1 nodes integrate the
    polynomial part exactly.  Raises ParameterError when the weighted
    sum overflows (L_n^2 at the outer nodes, from n = 124).
    """
    from .specfun import laguerre

    _check_compatible(s1, s2)
    if s1.domain is not Domain.HALF_LINE:
        raise DomainMismatch("Gauss-Laguerre path is defined for half-line states")
    nodes, weights = _laguerre_rule(s1.n + s2.n + 1, (s1.beta + s2.beta + 1.0) / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = laguerre(s1.n, s1.beta + 0.5, nodes) * laguerre(s2.n, s2.beta + 0.5, nodes)
        total = float(np.dot(weights, vals))
    if not np.isfinite(total):
        raise ParameterError(
            f"Gauss-Laguerre sum for n = {s1.n}, {s2.n} is not finite: "
            "L_n overflows at the outer nodes"
        )
    return 0.5 * s1.norm_const * s2.norm_const * total
