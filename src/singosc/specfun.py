"""Real-argument special functions for the analytic bound-state solution.

Provides the gamma function, the Kummer confluent hypergeometric series
M(a,b,y), its large-y dominant asymptotic term, and generalized Laguerre
and Hermite polynomials.  Polynomials are evaluated by three-term
recurrences rather than expanded coefficients so that cancellation stays
controlled up to n of order 50.
"""

from __future__ import annotations

import itertools
import math

from .errors import NonConvergence, ParameterError, PoleError

# Tolerance inside which an argument counts as sitting on a pole of Gamma.
POLE_TOL = 1e-12

# Relative size of the two last terms at which the Kummer series stops,
# and its term budget before the terms start shrinking for good at j = y
_SERIES_TOL, _SERIES_TERMS = 1e-15, 500


def _near_nonpositive_integer(z: float) -> bool:
    if z > 0.5:
        return False
    m = round(z)
    return m <= 0 and abs(z - m) <= POLE_TOL


def gamma_fn(z: float) -> float:
    """Gamma(z) for real z away from the poles at 0, -1, -2, ...

    Raises PoleError when z is within 1e-12 of a non-positive integer and
    ParameterError when z is not finite or Gamma(z) overflows (z > 171.624).
    """
    z = float(z)
    if not math.isfinite(z):
        raise ParameterError(f"Gamma needs a finite argument, got {z}")
    if _near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    try:
        return math.gamma(z)
    except OverflowError as exc:
        raise ParameterError(f"Gamma({z}) overflows") from exc


def kummer_m(a: float, b: float, y: float) -> float:
    """Kummer confluent hypergeometric M(a, b, y) by direct series.

    Terms follow t_{j+1} = t_j r_j, r_j = (a+j) y / ((b+j)(j+1)), from
    t_0 = 1.  The sum stops once two consecutive terms fall below
    1e-15 |sum| (two, not one, to survive a near-vanishing (a+j) factor
    mid-series), counting only terms past which the series shrinks for
    good: |r_j| < 1, j + 1 > y and b + j > 0 keep every later |r_k| below
    1.  Smallness alone is no signal: a tiny a makes the first terms tiny
    while later ones still grow by up to e^y.  So the term budget is 500
    past y.  For a = -n the series terminates exactly after the j = n
    term.  Raises NonConvergence when the sum is not finite (from about
    y = 710, where e^y overflows) or the budget runs out.
    """
    if _near_nonpositive_integer(b):
        raise ParameterError(f"b = {b} is a pole of Gamma(b)")
    if not 0 <= y < math.inf:  # also catches a NaN y
        raise ParameterError(f"series evaluation requires finite y >= 0, got {y}")
    term = 1.0
    total = 1.0
    small_run = 0
    max_terms = _SERIES_TERMS + math.ceil(y)
    for j in range(max_terms):
        ratio = (a + j) * y / ((b + j) * (j + 1))
        term *= ratio
        total += term
        if not math.isfinite(total):
            raise NonConvergence(f"M({a},{b},{y}) is not finite after {j + 1} terms")
        if term == 0.0:
            return total
        shrinking = abs(ratio) < 1.0 and j + 1 > y and b + j > 0
        if shrinking and abs(term) <= _SERIES_TOL * abs(total):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise NonConvergence(f"M({a},{b},{y}) did not converge in {max_terms} terms")


def kummer_m_asymptotic(a: float, b: float, y: float) -> float:
    """Dominant growing term of M(a, b, y) for large positive y.

    Returns Gamma(b)/Gamma(a) * e^y * y^(a-b).  The subdominant decaying
    term is omitted; the truncation error relative to the full function is
    of order (b-a)(1-a)/y, so agreement tightens only like 1/y.
    Intended for y >= 30.  Raises ParameterError where the term is not
    finite: e^y overflows from y = 710, and the product can before.
    """
    if not y > 0:  # also catches a NaN y
        raise ParameterError("asymptotic form requires y > 0")
    try:
        ratio = gamma_fn(b) / gamma_fn(a)
    except PoleError as exc:
        raise ParameterError(str(exc)) from exc
    try:
        value = ratio * math.exp(y) * y ** (a - b)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"Gamma(b)/Gamma(a) e^y y^(a-b) overflows at y = {y}")
    return value


# Largest degree or quantum number accepted: `singosc spectrum --domain full`
# up to it takes about 2 s, and far beyond it a table or a Laguerre or Hermite
# recurrence would run without end (L_n at n = 10^6 already takes 0.5 s).
N_MAX = 100_000


def _check_n(n: int) -> int:
    """n as an int: the one check of a quantum number or a degree, which
    raises ParameterError unless n is an integer in [0, N_MAX]."""
    if not 0 <= n <= N_MAX or n != int(n):  # also catches a NaN or infinite n
        raise ParameterError(f"quantum number n must be an integer in [0, {N_MAX}], got {n}")
    return int(n)


def laguerre(n: int, a: float, y):
    """Generalized Laguerre polynomial L_n^(a)(y), a > -1.

    Three-term recurrence (j+1) L_{j+1} = (2j+1+a-y) L_j - (j+a) L_{j-1},
    row n of _laguerre_rows, one array expression for any y; a 0-d y gives
    a Python float.  Raises ParameterError where a value is not finite:
    the recurrence overflows, or y is not finite.
    """
    import numpy as np

    n = _check_n(n)
    if not a > -1:
        raise ParameterError("Laguerre order parameter must satisfy a > -1")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
        out = next(itertools.islice(_laguerre_rows(float(a), y), n, None))
    if not np.isfinite(out).all():
        raise ParameterError(f"L_{n}(y) is not finite: y is not, or the recurrence overflows")
    return float(out) if out.ndim == 0 else out


def _laguerre_rows(a: float, y, rows=()):
    """L_k^(a)(y), L_(k+1)^(a)(y), ... without end, k = len(rows), by
    laguerre's recurrence and with no checks: the package's one Laguerre
    recurrence.  Given rows L_0 .. L_(k-1) of an earlier pass on the same a
    and y, the pass goes on from them, bit for bit as that pass would have
    (L_(-1) = 0 starts it from L_0 alone).  Each row is a new array, so a
    caller may keep the rows it has been given; the generator itself holds
    only the last two."""
    import numpy as np

    y = np.asarray(y, dtype=float)
    if not rows:
        yield np.ones_like(y)
        rows = (1.0, 1.0 + a - y)
        yield rows[1]
    prev, cur = rows[-2] if len(rows) > 1 else 0.0, rows[-1]
    for j in itertools.count(len(rows) - 1):
        prev, cur = cur, ((2 * j + 1 + a - y) * cur - (j + a) * prev) / (j + 1)
        yield cur


def hermite(n: int, xi):
    """Hermite polynomial H_n(xi) via H_{j+1} = 2 xi H_j - 2 j H_{j-1}.

    One array expression for any xi; a 0-d xi gives a Python float.
    Satisfies H_n(-xi) = (-1)^n H_n(xi).  Raises ParameterError where a
    value is not finite: the recurrence overflows, or xi is not finite.
    """
    import numpy as np

    n = _check_n(n)
    xi = np.asarray(xi, dtype=float)
    if n == 0:
        return 1.0 if xi.ndim == 0 else np.ones_like(xi)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
        prev, cur = 1.0, 2.0 * xi
        for j in range(1, n):
            prev, cur = cur, 2.0 * xi * cur - 2.0 * j * prev
    if not np.all(np.isfinite(cur)):
        raise ParameterError(f"H_{n}(xi) is not finite: xi is not, or the recurrence overflows")
    return float(cur) if cur.ndim == 0 else cur
