"""Independent numerical eigenvalue oracles.

Two routes that share nothing with the closed-form solution beyond the
local indicial exponent nu = beta_plus + 1/2 = sqrt(alpha + 1/4).  Finite
differences truncate the half-line at x = X_MAX = 12, the box quad
integrates bound states over; shooting stops a few decay lengths past
the outer turning point of its own top energy, never past X_MAX.

(a) Finite differences on a log grid: x = e^s and psi = x^(1/2) u turn
-psi'' + (x^2 + alpha/x^2) psi = mu psi into -u'' + (nu^2 + e^(4s)) u =
mu e^(2s) u.  Near x = 0 the regular solution is u ~ e^(nu s), so the
inner end s_min = _S_MIN carries the Frobenius condition u' = nu u, which
moves the levels by about e^(2 s_min) relative (less as nu grows); one
grid from s_min to ln X_MAX with a step of about _H_LOG then serves every
alpha.  Scaled by the square root of the mass weights on both sides this
is a graded tridiagonal matrix, solved by LAPACK Sturm bisection to an
explicit absolute tolerance (bisection is accurate on graded matrices,
Barlow & Demmel 1990; its default tolerance, eps |T|, is not); Richardson
extrapolation in the step removes the h^2 error.

(b) Shooting with an adaptive Runge-Kutta-Fehlberg integrator seeded by
a Frobenius series near the origin counts sign changes of psi for a batch
of energies in one pass; the count is monotone in the energy, so one scan
pass brackets every level and a few multisection passes (each splitting
every bracket into _KSECTION parts at once) narrow the brackets to the
tolerance.  Each pass integrates to _box of the top energy in its batch,
the outer turning point sqrt(eps + sqrt(eps^2 - alpha)) plus _BOX_MARGIN:
past it a bound state only decays, and relative error control would
chase the growing tail.

The matrix eigenvalue mu equals 2 eps, because the dimensionless ODE is
psi'' + (2 eps - x^2 - alpha/x^2) psi = 0; asserted by the alpha = 0
ground state eps = 1.5 in the test suite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketError, ConvergenceError, NonConvergence, ParameterError, ShapeMismatch
from .model import Domain, admissible_beta
from .quad import X_MAX
from .spectrum import SpectrumTable, _check_n

# X_MAX is the outer box of finite differences and the cap of shooting's
# _box.  Shooting's Frobenius start point floor and its scale in
# sqrt(beta + 1), terms, and the relative local error its step controller
# allows (and the Frobenius series' last term may reach):
_X0, _X0_SCALE, _N_TERMS, _RTOL = 1e-3, 0.05, 12, 1e-7
# distance past the outer turning point that shooting integrates to: 3
# keeps the narrowed levels within about 2e-7 relative (1.7 gave 2.6e-7); node
# counts at a level stop at 2, because at 3 the growing tail of a level
# near alpha = -1/4 flips the sign once more
_BOX_MARGIN, _COUNT_MARGIN = 3.0, 2.0
_RENORM_LIMIT = 1e100
_H_MAX = 0.25
_H_MIN = 1e-12
# energies per bracket in a narrowing pass of shoot_spectrum: a 0.5-wide
# scan bracket reaches the default eps_tol = 1e-6 in 3 passes
_KSECTION = 128
# finite differences: the step in s = ln x; the absolute bisection
# tolerance; the inner end of the log grid (scripts/convergence_study.py
# tabulates the levels against it)
_H_LOG, _STEBZ_TOL, _S_MIN = 0.02, 1e-13, -15.0

# Fehlberg 4(5) tableau: stage nodes, stage rows, 5th-order weights, and
# 5th- minus 4th-order weights (the local error estimate)
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    np.empty(0),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
)
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RKF_ERR = _RKF_B5 - np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])


class OracleMethod(enum.Enum):
    FINITE_DIFFERENCE = "finite_difference"
    SHOOTING = "shooting"


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: tuple[float, ...]
    method: OracleMethod
    residual_estimate: float
    passes: int = 0  # integrator passes a shooting run made
    steps_accepted: int = 0  # RKF45 steps over those passes
    steps_rejected: int = 0
    rows: int = 0  # matrix rows a finite-difference run diagonalized


@dataclass(frozen=True)
class CompareReport:
    """Per-level relative errors of an oracle against an analytic table."""

    analytic_levels: tuple[float, ...]
    oracle_levels: tuple[float, ...]
    rel_errors: tuple[float, ...]
    max_rel_error: float
    tol: float
    passed: bool
    note: str = ""


def _fd_eigenvalues(alpha: float, s_min: float, n: int, k: int) -> np.ndarray:
    # scipy.linalg loads here, not at import: the analytic CLI never needs it
    import scipy.linalg

    # nodes s_0 = s_min .. s_n of a uniform grid with u = 0 at ln X_MAX;
    # the Frobenius condition u' = nu u at s_0 gives the ghost node
    # u_-1 = u_1 - 2 h nu u_0, and halving row 0 keeps the matrix
    # symmetric; -u'' + (nu^2 + e^4s) u = mu e^2s u is then scaled by the
    # inverse square root of the mass weights (1/2, 1, ..., 1) e^2s
    nu = admissible_beta(alpha) + 0.5
    h = (math.log(X_MAX) - s_min) / (n + 1)
    s = s_min + h * np.arange(n + 1)
    diag = (2.0 / h**2 + alpha + 0.25) * np.exp(-2.0 * s) + np.exp(2.0 * s)
    diag[0] += 2.0 * nu / h * math.exp(-2.0 * s_min)
    off = -np.exp(-(s[:-1] + s[1:])) / h**2
    off[0] *= math.sqrt(2.0)
    try:
        mu = scipy.linalg.eigvalsh_tridiagonal(
            diag, off, select="i", select_range=(0, k - 1), lapack_driver="stebz", tol=_STEBZ_TOL
        )
    except scipy.linalg.LinAlgError as exc:  # LAPACK info != 0
        raise ConvergenceError(f"Sturm bisection failed: {exc}") from exc
    return mu / 2.0


def _richardson(alpha: float, s_min: float, k: int) -> tuple[np.ndarray, float, int]:
    """Levels of the log grid from s_min to ln X_MAX with a step of about
    _H_LOG and of the grid of twice its step, combined to cancel the h^2
    error; the residual estimate, the fine grid's error (which bounds the
    combination's) plus 3 e^(2 s_min) max|eps| for the inner end; rows.
    Raises ParameterError unless 1 <= k <= the coarse grid's rows."""
    n = math.ceil((math.log(X_MAX) - s_min) / _H_LOG)
    m = (n + 1) // 2 - 1
    if not 1 <= k <= m + 1 or k != int(k):  # also catches a NaN k
        raise ParameterError(f"k must be an integer in [1, {m + 1}], got {k}")
    fine = _fd_eigenvalues(alpha, s_min, n, int(k))
    shift = (fine - _fd_eigenvalues(alpha, s_min, m, int(k))) / (((n + 1) / (m + 1)) ** 2 - 1)
    levels = fine + shift
    inner = 3.0 * math.exp(2.0 * s_min) * float(np.max(np.abs(levels)))
    return levels, float(np.max(np.abs(shift))) + inner, n + m + 2


def _fd_result(levels: np.ndarray, residual: float, rows: int) -> OracleResult:
    if not residual < np.min(np.abs(levels)):  # also catches a NaN residual
        raise ConvergenceError(f"finite-difference residual {residual:.3g} exceeds a level")
    levels = tuple(float(v) for v in levels)
    return OracleResult(levels, OracleMethod.FINITE_DIFFERENCE, residual, rows=rows)


def fd_eigen(alpha: float, k: int = 1) -> OracleResult:
    """Lowest k eigenvalues by finite differences on the one log grid from
    s_min = _S_MIN to the box edge, with the Frobenius condition at s_min:
    the same grid for every alpha.  The residual estimate bounds the
    error (_richardson); ConvergenceError when it reaches a level.
    """
    return _fd_result(*_richardson(alpha, _S_MIN, k))


# a second name: perfbench/tracing.py and acceptance criterion 7 look it up
fd_eigen_extrapolated = fd_eigen


def _frobenius_series(alpha: float, eps_arr: np.ndarray, x0: float) -> np.ndarray:
    """Stacked (psi, psi') at x0 of psi = sum_j a_j x^(beta+1+2j), j < _N_TERMS,
    one column per energy."""
    # substituting into the ODE gives
    # 2j(2 beta + 2j + 1) a_j = a_{j-2} - 2 eps a_{j-1}, a_0 = 1
    beta = admissible_beta(alpha)
    a = np.zeros((_N_TERMS, eps_arr.shape[0]))
    a[0] = 1.0
    for j in range(1, _N_TERMS):
        prev2 = a[j - 2] if j >= 2 else 0.0
        a[j] = (prev2 - 2.0 * eps_arr * a[j - 1]) / (2.0 * j * (2.0 * beta + 2.0 * j + 1.0))
    exps = beta + 1.0 + 2.0 * np.arange(_N_TERMS)
    powers = (x0**exps, exps * x0 ** (exps - 1.0))
    series = np.stack([p @ a for p in powers])
    # the truncated series is only as good as its last term is small
    last = np.outer([p[-1] for p in powers], a[-1])
    if np.any(np.abs(last) > _RTOL * np.abs(series)):
        raise ParameterError(f"x0 = {x0} is too far out for the {_N_TERMS}-term Frobenius series")
    return series


def frobenius_start(alpha: float, eps_energy: float, x0: float) -> tuple[float, float]:
    """Series values (psi, psi') at a small x0 > 0 for energy eps_energy.

    Uses only the local indicial exponent beta_plus, so the start stays
    independent of the global closed-form solution.  Raises ParameterError
    where x0 is too large for the truncated series to converge, or where
    the energy or the series is not finite.
    """
    admissible_beta(alpha)
    if not x0 > 0:
        raise ParameterError("x0 must be positive")
    if not math.isfinite(eps_energy):
        raise ParameterError(f"energy must be finite, got {eps_energy}")
    with np.errstate(over="ignore", invalid="ignore"):
        psi, dpsi = _frobenius_series(alpha, np.array([eps_energy]), x0)[:, 0]
    if not (math.isfinite(psi) and math.isfinite(dpsi)):
        raise ParameterError(f"Frobenius series at x0 = {x0}, eps = {eps_energy} is not finite")
    return float(psi), float(dpsi)


def _box(alpha: float, eps: float, margin: float = _BOX_MARGIN) -> float:
    """Where shooting at energies up to eps stops: margin past the outer
    turning point sqrt(eps + sqrt(eps^2 - alpha)) of x^2/2 + alpha/(2 x^2),
    at most X_MAX.  Below the well's bottom, eps < sqrt(alpha), where no
    level lies, the inner root counts as 0."""
    turn = eps + math.sqrt(max(eps * eps - alpha, 0.0))
    return min(X_MAX, math.sqrt(max(turn, 0.0)) + margin)


def _rkf45_count_nodes(
    alpha: float, eps_arr: np.ndarray, x_max: float
) -> tuple[np.ndarray, int, int]:
    """Integrate the batch outward to x_max, counting sign changes of psi;
    also the accepted and the rejected steps.

    The Frobenius start is at x0 = max(_X0, _X0_SCALE sqrt(beta + 1)): the
    series converges farther out as beta grows.  The state stacks psi
    (row 0) and psi' (row 1) of every batch member into one (2, m) array,
    advanced by the Fehlberg tableau.  All members step in lockstep; the
    step controller obeys the worst member.  Raises NonConvergence when
    the error estimate or the state is not finite (a NaN, infinite or
    overflowing energy), or when the step size collapses.
    """
    m = eps_arr.shape[0]
    x = max(_X0, _X0_SCALE * math.sqrt(admissible_beta(alpha) + 1.0))
    y = _frobenius_series(alpha, eps_arr, x)
    two_eps = 2.0 * eps_arr
    stages = np.zeros((len(_RKF_C), 2, m))
    flat = stages.reshape(len(_RKF_C), 2 * m)  # view: one row per stage
    counts = np.zeros(m, dtype=int)
    sign = np.where(y[0] >= 0, 1.0, -1.0)
    h = x
    accepted = rejected = 0
    while x < x_max:
        h = min(h, x_max - x)
        for i, (c, row) in enumerate(zip(_RKF_C, _RKF_A)):
            s = y + ((h * row) @ flat[:i]).reshape(2, m) if i else y
            xs = x + c * h
            stages[i, 0] = s[1]
            np.multiply(xs * xs + alpha / (xs * xs) - two_eps, s[0], out=stages[i, 1])
        y5 = y + ((h * _RKF_B5) @ flat).reshape(2, m)
        err_abs = np.abs(((h * _RKF_ERR) @ flat).reshape(2, m)).max(axis=0)
        mag = np.abs(y5).max(axis=0)
        err = float(np.max(err_abs / (1e-300 + _RTOL * mag)))
        peak = float(mag.max())
        if not (math.isfinite(err) and math.isfinite(peak)):
            raise NonConvergence(f"integrator state is not finite at x = {x:.6g}")
        if err <= 1.0 or h <= _H_MIN:
            accepted += 1
            x += h
            y = y5
            flip = y[0] * sign < 0
            counts += flip
            sign = np.where(flip, -sign, sign)
            if peak > _RENORM_LIMIT:
                y = y * np.where(mag > _RENORM_LIMIT, 1.0 / mag, 1.0)
        else:
            rejected += 1
        if h <= _H_MIN and err > 1.0:
            raise NonConvergence("integrator step size collapsed")
        h = min(_H_MAX, h * min(4.0, max(0.1, 0.9 * err ** (-0.2) if err > 0 else 4.0)))
    return counts, accepted, rejected


def shoot_spectrum(alpha: float, n_max: int, eps_tol: float = 1e-6) -> OracleResult:
    """Shooting eigenvalues for n = 0 .. n_max by batched multisection.

    The total sign-change count along [x0, _box] (including the tail flip
    of the growing contamination) is the number of eigenvalues below eps.
    One scan pass counts it on a 0.5-spaced grid (levels are 2 apart) up
    to eps = 2 n_max + 4, doubling the window until the count exceeds
    n_max; past eps = X_MAX^2 the outer turning point leaves the box, so
    the scan gives up there with BracketError.  Each narrowing pass splits
    every bracket into _KSECTION parts in one batch (multisection, the
    k-way Barth-Martin-Wilkinson bisection) and keeps the part where the
    count first exceeds n, until all brackets are at most eps_tol wide or
    too narrow to split in floating point.  Every pass integrates to _box
    of the top energy of its own batch: the scan window's top, or the top
    bracket's upper end.
    """
    admissible_beta(alpha)
    _check_n(n_max)
    n_max = int(n_max)
    if not 0.0 <= eps_tol < math.inf:
        raise ParameterError(f"eps_tol must be finite and >= 0, got {eps_tol}")
    targets = np.arange(n_max + 1)
    steps: list[tuple[int, int]] = []  # (accepted, rejected) per pass

    def count(batch: np.ndarray, top: float) -> np.ndarray:
        counts, accepted, rejected = _rkf45_count_nodes(alpha, batch, _box(alpha, top))
        steps.append((accepted, rejected))
        return counts

    eps = np.empty(0)
    counts = np.empty(0, dtype=int)
    cap = X_MAX**2
    top = min(2.0 * n_max + 4.0, cap)
    while True:
        grid = np.arange(eps[-1] + 0.5 if eps.size else 0.25, top + 0.25, 0.5)
        eps = np.concatenate((eps, grid))
        counts = np.concatenate((counts, count(grid, top)))
        if counts[-1] > n_max or top >= cap:
            break
        top = min(2.0 * top, cap)
    above = counts > targets[:, None]
    first = above.argmax(axis=1)
    missing = targets[~above.any(axis=1) | (first == 0)]
    if missing.size:
        raise BracketError(f"no bracket for levels {missing.tolist()} in eps <= {top}")
    lo = eps[first - 1]
    hi = eps[first]
    split = np.arange(1, _KSECTION) / _KSECTION
    width = np.inf
    # stops at eps_tol, or where the float spacing of eps stops the splitting
    while eps_tol < np.max(hi - lo) < width:
        width = np.max(hi - lo)
        inner = lo[:, None] + (hi - lo)[:, None] * split
        counts = count(inner.ravel(), float(np.max(hi)))
        above = counts.reshape(inner.shape) > targets[:, None]
        # the count at hi exceeds n by construction: a True column for it
        first = 1 + np.pad(above, ((0, 0), (0, 1)), constant_values=True).argmax(axis=1)
        grid = np.column_stack((lo, inner, hi))
        lo = grid[targets, first - 1]
        hi = grid[targets, first]
    eigenvalues = tuple(float(v) for v in 0.5 * (lo + hi))
    accepted, rejected = map(sum, zip(*steps))
    residual = float(np.max(hi - lo)) / 2.0
    passes = len(steps)
    return OracleResult(eigenvalues, OracleMethod.SHOOTING, residual, passes, accepted, rejected)


def shoot_eigen(alpha: float, n_target: int) -> OracleResult:
    """Single shooting eigenvalue with n_target interior nodes."""
    full = shoot_spectrum(alpha, n_target)
    return replace(full, eigenvalues=(full.eigenvalues[n_target],))


def count_nodes_at(alpha: float, eps: float) -> int:
    """Interior sign changes of the shot solution at a fixed energy.

    The integration stops _COUNT_MARGIN past the outer turning point
    (_box), before the growing contamination could flip the sign, so at a
    level the count is the true node count of the bound state.
    """
    counts, _, _ = _rkf45_count_nodes(alpha, np.array([eps]), _box(alpha, eps, _COUNT_MARGIN))
    return int(counts[0])


def compare(analytic: SpectrumTable, oracle: OracleResult, tol: float) -> CompareReport:
    """Pair analytic distinct levels with oracle eigenvalues and grade."""
    a_levels = analytic.distinct_levels()
    o_levels = oracle.eigenvalues
    if len(a_levels) == 0 or len(o_levels) == 0:
        raise ShapeMismatch("cannot compare empty level lists")
    k = min(len(a_levels), len(o_levels))
    rel = tuple(abs(o - a) / abs(a) for a, o in zip(a_levels[:k], o_levels[:k]))
    max_rel = max(rel)
    passed = len(a_levels) == len(o_levels) and max_rel <= tol
    note = ""
    if len(a_levels) != len(o_levels):
        note = f"level counts differ: analytic {len(a_levels)}, oracle {len(o_levels)}; "
    if not passed and analytic.alpha == 0 and analytic.domain is Domain.FULL_LINE:
        note += (
            "oracle takes the branch beta = 0, psi(0) = 0, so the even-parity "
            "alpha = 0 levels are invisible to it"
        )
    return CompareReport(
        analytic_levels=a_levels,
        oracle_levels=o_levels,
        rel_errors=rel,
        max_rel_error=max_rel,
        tol=tol,
        passed=passed,
        note=note.strip(),
    )

