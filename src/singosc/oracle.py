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
of energies in one pass and keeps psi at the pass's end, the box-edge
value: on the series' common normalization it is analytic in the energy
and vanishes at the box levels (a miss-distance function, Pryce 1993).
One scan pass over a lattice _D_EPS apart brackets every level by the
node count, which is monotone in the energy, in one window from the
well's bottom up to at most V(X_MAX); a cubic through the box-edge values
of 4 neighbouring energies, solved by Newton, places each level, and one
confirming pass of the node count at the root -+ _EPS_TOL / 2 turns it
into a guaranteed bracket.  Each pass integrates to _box of the top
energy in its batch, the outer turning point sqrt(eps + sqrt(eps^2 -
alpha)) plus _BOX_MARGIN: past it a bound state only decays, and relative
error control would chase the growing tail.

The matrix eigenvalue mu equals 2 eps, because the dimensionless ODE is
psi'' + (2 eps - x^2 - alpha/x^2) psi = 0; asserted by the alpha = 0
ground state eps = 1.5 in the test suite.
"""

from __future__ import annotations

import enum
import math
import time
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
# keeps the levels of the box within about 2e-7 relative (1.7 gave 2.6e-7)
_BOX_MARGIN = 3.0
_RENORM_LIMIT = 1e100
_H_MAX = 0.25
_H_MIN = 1e-12
# shoot_spectrum: the energy step of its scan lattice (a cubic through 4
# box-edge values 0.02 apart places the levels within about 3e-7
# relative, 0.05 apart within 6e-6), the width of the bracket its
# confirming pass checks, and Newton steps on each cubic
_D_EPS, _EPS_TOL, _NEWTON_STEPS = 0.02, 1e-6, 8
# the monomial coefficients of the cubic through values at t = 0, 1, 2, 3
_CUBIC = np.linalg.inv(np.vander(np.arange(4.0), increasing=True))
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
    seconds: float = 0.0  # wall time of the run


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
    error (_richardson); ConvergenceError when it reaches a level, or when
    the top level turns past X_MAX, where the box truncates it unseen.
    """
    t0 = time.perf_counter()
    res = _fd_result(*_richardson(alpha, _S_MIN, k))
    top = max(res.eigenvalues)
    if not _turning_point(alpha, top) <= X_MAX:
        raise ConvergenceError(f"finite-difference level {top:.6g} turns past X_MAX = {X_MAX:g}")
    return replace(res, seconds=time.perf_counter() - t0)


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


def _turning_point(alpha: float, eps: float) -> float:
    """Outer turning point sqrt(eps + sqrt(eps^2 - alpha)) of x^2/2 + alpha/(2 x^2).
    Below the well's bottom, eps < sqrt(alpha), the inner root counts as 0."""
    turn = eps + math.sqrt(max(eps * eps - alpha, 0.0))
    return math.sqrt(max(turn, 0.0))


def _box(alpha: float, eps: float) -> float:
    """Where shooting at energies up to eps stops: _BOX_MARGIN past the
    outer turning point, at most X_MAX."""
    return min(X_MAX, _turning_point(alpha, eps) + _BOX_MARGIN)


def _rkf45_count_nodes(
    alpha: float, eps_arr: np.ndarray, x_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Integrate the batch outward to x_max, counting sign changes of psi;
    also psi(x_max), the log of the factor each member was scaled down by
    on the way, and the accepted and the rejected steps.

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
    log_scale = np.zeros(m)
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
                big = mag > _RENORM_LIMIT
                y = y * np.where(big, 1.0 / mag, 1.0)
                log_scale += np.where(big, np.log(mag), 0.0)
        else:
            rejected += 1
        if h <= _H_MIN and err > 1.0:
            raise NonConvergence("integrator step size collapsed")
        h = min(_H_MAX, h * min(4.0, max(0.1, 0.9 * err ** (-0.2) if err > 0 else 4.0)))
    return counts, y[0], log_scale, accepted, rejected


def _cubic_roots(
    eps: np.ndarray, psi: np.ndarray, log_scale: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Zeros of the box-edge value F, one per row, each between eps[:, j - 1]
    and eps[:, j], where F changes sign: Newton on the cubic through the
    4 equally spaced energies of each row (shape (levels, 4)), started at
    the secant root and kept inside the bracket."""
    # F = sign psi e^(ln|psi| + log_scale) on the members' common start
    # normalization a_0 = 1, scaled by its largest magnitude in each row
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(psi)) + log_scale
    f = np.sign(psi) * np.exp(log_f - log_f.max(axis=1, keepdims=True))
    coef = f @ _CUBIC.T  # c_0 + c_1 t + c_2 t^2 + c_3 t^3, eps = eps[:, 0] + _D_EPS t
    rows = np.arange(j.size)
    fa, fb = f[rows, j - 1], f[rows, j]
    t = j - 1 + fa / (fa - fb)
    for _ in range(_NEWTON_STEPS):
        p = ((coef[:, 3] * t + coef[:, 2]) * t + coef[:, 1]) * t + coef[:, 0]
        dp = (3.0 * coef[:, 3] * t + 2.0 * coef[:, 2]) * t + coef[:, 1]
        t = np.clip(t - p / dp, j - 1, j)
    return eps[:, 0] + _D_EPS * t


def shoot_spectrum(alpha: float, n_max: int) -> OracleResult:
    """Shooting eigenvalues for n = 0 .. n_max: the zeros of the box-edge
    value psi(_box), bracketed by the node count and confirmed by it.

    The total sign-change count along [x0, _box] (including the tail flip
    of the growing contamination) is the number of eigenvalues below eps,
    and the sign of psi(_box) is (-1)^count.  The scan pass integrates a
    lattice of energies _D_EPS apart from the well's bottom,
    max(0.25, sqrt(alpha)), up to 2 n_max + 2 above it (level n lies at
    most 2n + 1.31 above it), but no higher than V(X_MAX), past which the
    outer turning point leaves the box.  A level outside this one window
    raises BracketError, as does a window of fewer than 4 energies, which
    is not integrated; a well whose bottom alpha^(1/4) lies past X_MAX
    has none.  Level n lies where the count first exceeds n; a
    cubic through the box-edge values of the 4 lattice energies around
    it, solved by Newton, places it.  The confirming pass counts nodes at
    each root -+ _EPS_TOL / 2: counts n and n + 1 make a guaranteed
    bracket, anything else raises NonConvergence.  Each pass integrates
    to _box of the top energy of its own batch.
    """
    t0 = time.perf_counter()
    admissible_beta(alpha)
    _check_n(n_max)
    n_max = int(n_max)
    targets = np.arange(n_max + 1)
    steps: list[tuple[int, int]] = []  # (accepted, rejected) per pass

    def shoot(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts, psi, log_scale, accepted, rejected = _rkf45_count_nodes(
            alpha, batch, _box(alpha, float(batch.max()))
        )
        steps.append((accepted, rejected))
        return counts, psi, log_scale

    # one window from the well's bottom, as wide as the requested levels
    # need, up to V(X_MAX), where the top energy's outer turning point
    # reaches the box edge; a bottom past it, alpha^(1/4) > X_MAX, leaves none
    start = max(0.25, math.sqrt(max(alpha, 0.0)))
    edge = X_MAX * X_MAX
    top = min(start + 2.0 * n_max + 2.0, (edge + alpha / edge) / 2.0) if start <= edge else start
    eps = start + _D_EPS * np.arange(math.floor((top - start) / _D_EPS) + 1)
    if eps.size < 4:
        raise BracketError(f"no bracket for levels {targets.tolist()} in eps <= {top:.4g}")
    counts, psi, log_scale = shoot(eps)
    above = counts > targets[:, None]
    j = above.argmax(axis=1)
    missing = targets[~above.any(axis=1) | (j == 0)]
    if missing.size:
        raise BracketError(f"no bracket for levels {missing.tolist()} in eps <= {top:.4g}")
    # the 4 lattice energies around each level, as centred as the window allows
    first = np.minimum(np.maximum(j - 2, 0), eps.size - 4)
    stencil = first[:, None] + np.arange(4)
    roots = _cubic_roots(eps[stencil], psi[stencil], log_scale[stencil], j - first)
    half = _EPS_TOL / 2.0
    counts = shoot(np.concatenate((roots - half, roots + half)))[0].reshape(2, -1)
    wrong = targets[(counts[0] != targets) | (counts[1] != targets + 1)]
    if wrong.size:
        raise NonConvergence(
            f"node counts at eps -+ {half:g} do not bracket levels {wrong.tolist()}"
        )
    accepted, rejected = map(sum, zip(*steps))
    return OracleResult(
        tuple(float(v) for v in roots), OracleMethod.SHOOTING, half, len(steps),
        accepted, rejected, seconds=time.perf_counter() - t0,
    )


def shoot_eigen(alpha: float, n_target: int) -> OracleResult:
    """Single shooting eigenvalue with n_target interior nodes."""
    full = shoot_spectrum(alpha, n_target)
    return replace(full, eigenvalues=(full.eigenvalues[n_target],))


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

