"""Real-argument special functions for the analytic bound-state solution.

Provides the gamma function, the Kummer confluent hypergeometric series
M(a,b,y), its large-y dominant asymptotic term, and generalized Laguerre
and Hermite polynomials.  Polynomials are evaluated by three-term
recurrences rather than expanded coefficients so that cancellation stays
controlled up to n of order 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, ParameterError, PoleError

# Tolerance inside which an argument counts as sitting on a pole of Gamma.
POLE_TOL = 1e-12

# Lanczos approximation, g=7, 9 coefficients.  Relative error below 1e-13
# on the real axis away from poles, comfortably inside the 1e-12 target
# for |z| <= 30.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class SeriesControl:
    """Stopping policy for direct series evaluation."""

    rel_tol: float = 1e-15
    max_terms: int = 500

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ParameterError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ParameterError("max_terms must be >= 1")


def _near_nonpositive_integer(z: float, tol: float = POLE_TOL) -> bool:
    if z > 0.5:
        return False
    m = round(z)
    return m <= 0 and abs(z - m) <= tol


def _sinpi(z: float) -> float:
    # sin(pi z) with argument reduction about the nearest integer, so the
    # reflection formula keeps full precision next to the poles.
    m = round(z)
    s = math.sin(math.pi * (z - m))
    return -s if m % 2 else s


def _lanczos_gamma(z: float) -> float:
    # valid for z >= 0.5
    zm1 = z - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zm1 + 0.5) * math.exp(-t) * acc


def gamma_fn(z: float) -> float:
    """Gamma(z) for real z away from the poles at 0, -1, -2, ...

    Raises PoleError when z is within 1e-12 of a non-positive integer.
    """
    z = float(z)
    if _near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z >= 0.5:
        return _lanczos_gamma(z)
    # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
    return math.pi / (_sinpi(z) * _lanczos_gamma(1.0 - z))


def kummer_m(a: float, b: float, y: float, ctl: SeriesControl | None = None) -> float:
    """Kummer confluent hypergeometric M(a, b, y) by direct series.

    Terms follow t_{j+1} = t_j r_j, r_j = (a+j) y / ((b+j)(j+1)), from
    t_0 = 1.  The sum stops once two consecutive terms fall below
    rel_tol * |sum| (two, not one, to survive a near-vanishing (a+j)
    factor mid-series), counting only terms past which the series
    shrinks for good: |r_j| < 1, j + 1 > y and b + j > 0 keep every later
    |r_k| below 1.  Smallness alone is no signal: a tiny a makes the
    first terms tiny while later ones still grow by up to e^y.  For
    a = -n the series terminates exactly after the j = n term.
    """
    if ctl is None:
        ctl = SeriesControl()
    if _near_nonpositive_integer(b):
        raise ParameterError(f"b = {b} is a pole of Gamma(b)")
    if y < 0:
        raise ParameterError("series evaluation requires y >= 0")
    term = 1.0
    total = 1.0
    small_run = 0
    for j in range(ctl.max_terms):
        ratio = (a + j) * y / ((b + j) * (j + 1))
        term *= ratio
        total += term
        if term == 0.0:
            return total
        shrinking = abs(ratio) < 1.0 and j + 1 > y and b + j > 0
        if shrinking and abs(term) <= ctl.rel_tol * abs(total):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise NonConvergence(f"M({a},{b},{y}) did not converge in {ctl.max_terms} terms")


def kummer_m_asymptotic(a: float, b: float, y: float) -> float:
    """Dominant growing term of M(a, b, y) for large positive y.

    Returns Gamma(b)/Gamma(a) * e^y * y^(a-b).  The subdominant decaying
    term is omitted; the truncation error relative to the full function is
    of order (b-a)(1-a)/y, so agreement tightens only like 1/y.
    Intended for y >= 30.
    """
    if y <= 0:
        raise ParameterError("asymptotic form requires y > 0")
    try:
        ratio = gamma_fn(b) / gamma_fn(a)
    except PoleError as exc:
        raise ParameterError(str(exc)) from exc
    return ratio * math.exp(y) * y ** (a - b)


def as_operand(x):
    """(x, True) with x a Python float for a 0-d input (float, int,
    np.float64, 0-d array); (float ndarray, False) otherwise.

    The closed-form evaluators run one expression on either kind; plain
    floats skip the per-call numpy wrapping that dominates scalar calls
    under an adaptive integrator, with bit-identical arithmetic.
    """
    if isinstance(x, (float, int)):
        return float(x), True
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(arr), True
    return arr, False


def _check_degree(n: int) -> int:
    if n < 0 or n != int(n):
        raise ParameterError("n must be a non-negative integer")
    return int(n)


def laguerre(n: int, a: float, y):
    """Generalized Laguerre polynomial L_n^(a)(y), a > -1.

    Three-term recurrence (j+1) L_{j+1} = (2j+1+a-y) L_j - (j+a) L_{j-1}.
    Accepts scalar or ndarray y; a 0-d y gives a Python float.
    """
    n = _check_degree(n)
    if not a > -1:
        raise ParameterError("Laguerre order parameter must satisfy a > -1")
    a = float(a)
    y, scalar = as_operand(y)
    prev = 1.0 if scalar else np.ones_like(y)
    if n == 0:
        return prev
    cur = 1.0 + a - y
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + a - y) * cur - (j + a) * prev) / (j + 1)
    return cur


def hermite(n: int, xi):
    """Hermite polynomial H_n(xi) via H_{j+1} = 2 xi H_j - 2 j H_{j-1}.

    Accepts scalar or ndarray xi; a 0-d xi gives a Python float.
    Satisfies H_n(-xi) = (-1)^n H_n(xi).
    """
    n = _check_degree(n)
    xi, scalar = as_operand(xi)
    prev = 1.0 if scalar else np.ones_like(xi)
    if n == 0:
        return prev
    cur = 2.0 * xi
    for j in range(1, n):
        prev, cur = cur, 2.0 * xi * cur - 2.0 * j * prev
    return cur
