"""Independent numerical eigenvalue oracles.

Two routes that share nothing with the closed-form solution beyond the
local indicial exponent: (a) finite-difference diagonalization of
-psi'' + (x^2 + alpha/x^2) psi = mu psi on a truncated uniform grid with
Dirichlet walls, eigenvalues by LAPACK Sturm-sequence bisection, and (b)
shooting with an adaptive embedded Runge-Kutta-Fehlberg integrator seeded
by a Frobenius series at a small x0.  The shooting route counts sign
changes of psi for a whole batch of energies in one integrator pass; the
count is monotone in the energy, so one scan pass brackets every level
and a few multisection passes (each splitting every bracket into
_KSECTION parts at once) narrow the brackets to the tolerance.

Convention fixed here: the matrix eigenvalue mu equals 2 eps, i.e.
eps = mu / 2, because the dimensionless ODE is
psi'' + (2 eps - x^2 - alpha/x^2) psi = 0.  Asserted by the alpha = 0
ground state eps = 1.5 in the test suite.

For -1/4 < alpha < 0 the Dirichlet wall at the inner cutoff e0 shifts
eigenvalues by a power law ~ e0^(2 beta + 1); fd_eigen_extrapolated
removes it by fitting eps(e0) = eps* + C t + D t^2 in t = e0^(2 beta+1)
over a cutoff sequence.  The wall layer must stay resolved, so the grid
density scales with 1/e0 there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    NonConvergence,
    ParameterError,
    ShapeMismatch,
)
from .model import Domain, admissible_beta
from .spectrum import SpectrumTable

_RENORM_LIMIT = 1e100
_H_MAX = 0.25
_H_MIN = 1e-12
# energies per bracket in a narrowing pass of shoot_spectrum: a 0.5-wide
# scan bracket reaches the default eps_tol = 1e-6 in 3 passes
_KSECTION = 128

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
class GridSpec:
    """Truncated domain [x_min, x_max] and point budget.

    x_min doubles as the inner cutoff e0; for the shooting oracle
    n_points is nominal (the integrator chooses its own steps).
    """

    x_min: float = 1e-3
    x_max: float = 12.0
    n_points: int = 4000

    def __post_init__(self) -> None:
        if not 0 < self.x_min < self.x_max:
            raise ParameterError("need 0 < x_min < x_max")
        if self.n_points < 100:
            raise ParameterError("n_points must be >= 100")


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: tuple[float, ...]
    method: OracleMethod
    grid: GridSpec
    residual_estimate: float
    passes: int = 0  # integrator passes a shooting run made


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


def _fd_eigenvalues(alpha: float, grid: GridSpec, k: int) -> np.ndarray:
    # scipy.linalg loads here, not at import: the analytic CLI never needs it
    import scipy.linalg

    # interior nodes of a uniform grid with Dirichlet walls at both ends
    h = (grid.x_max - grid.x_min) / (grid.n_points + 1)
    x = grid.x_min + h * np.arange(1, grid.n_points + 1)
    diag = 2.0 / h**2 + x**2
    if alpha != 0:
        diag = diag + alpha / x**2
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    try:
        mu = scipy.linalg.eigvalsh_tridiagonal(
            diag,
            off,
            select="i",
            select_range=(0, k - 1),
            lapack_driver="stebz",
        )
    except Exception as exc:  # LAPACK info != 0 surfaces as LinAlgError
        raise ConvergenceError(f"Sturm bisection failed: {exc}") from exc
    return mu / 2.0


def fd_eigen(alpha: float, grid: GridSpec | None = None, k: int = 1) -> OracleResult:
    """Lowest k eigenvalues by finite differences on a fixed grid.

    The residual estimate is a Richardson comparison against the same
    operator at half resolution (second-order scheme, so the coarse/fine
    gap overestimates the fine-grid error by about 3x).
    """
    admissible_beta(alpha)
    if grid is None:
        grid = GridSpec()
    if k < 1:
        raise ParameterError("k must be >= 1")
    fine = _fd_eigenvalues(alpha, grid, k)
    coarse_grid = GridSpec(grid.x_min, grid.x_max, max(100, grid.n_points // 2))
    coarse = _fd_eigenvalues(alpha, coarse_grid, k)
    residual = float(np.max(np.abs(fine - coarse)) / 3.0)
    return OracleResult(tuple(float(v) for v in fine), OracleMethod.FINITE_DIFFERENCE, grid, residual)


def wall_points(e0: float, x_max: float = 12.0) -> int:
    """Grid size that resolves the wall layer of width ~e0 at the inner
    cutoff: n ~ 2 x_max / e0, at least 4000 and at most 400k."""
    return int(min(max(4000, 2.0 * x_max / e0), 400_000))


def fd_eigen_extrapolated(
    alpha: float,
    k: int = 1,
    cutoffs: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    x_max: float = 12.0,
    points_per_cutoff: tuple[int, ...] | None = None,
) -> OracleResult:
    """Inner-cutoff-extrapolated finite-difference eigenvalues.

    Solves on each cutoff e0 in `cutoffs` and removes the Dirichlet-wall
    shift by the exact polynomial fit eps(e0) = eps* + sum_k C_k t^k with
    t = e0^(2 beta + 1), one term per cutoff.  Grid sizes default to
    wall_points(e0, x_max); override with points_per_cutoff.  Slowly
    decaying wall shifts (beta near -1/2) need more, smaller cutoffs,
    e.g. (1e-2, 3e-3, 1e-3, 3e-4, 1e-4).
    """
    beta = admissible_beta(alpha)
    m = len(cutoffs)
    if m < 2:
        raise ParameterError("extrapolation needs at least two cutoffs")
    if points_per_cutoff is None:
        points_per_cutoff = tuple(wall_points(e0, x_max) for e0 in cutoffs)
    elif len(points_per_cutoff) != m:
        raise ParameterError(
            f"points_per_cutoff has {len(points_per_cutoff)} entries for {m} cutoffs"
        )
    p = 2.0 * beta + 1.0
    t = np.array([e0**p for e0 in cutoffs])
    levels = np.empty((m, k))
    grids = []
    for i, (e0, npts) in enumerate(zip(cutoffs, points_per_cutoff)):
        g = GridSpec(x_min=e0, x_max=x_max, n_points=npts)
        grids.append(g)
        levels[i] = _fd_eigenvalues(alpha, g, k)
    vander = np.vander(t, m, increasing=True)  # columns 1, t, t^2, ...
    coeff = np.linalg.solve(vander, levels)  # first row is eps*
    extrapolated = coeff[0]
    # order-of-extrapolation discrepancy: redo the fit with one term and
    # one cutoff fewer (dropping the largest) and compare
    lower = np.linalg.solve(np.vander(t[1:], m - 1, increasing=True), levels[1:])
    residual = float(np.max(np.abs(extrapolated - lower[0])))
    return OracleResult(
        tuple(float(v) for v in extrapolated),
        OracleMethod.FINITE_DIFFERENCE,
        grids[-1],
        residual,
    )


def fd_spectrum(alpha: float, k: int) -> OracleResult:
    """Lowest k levels by finite differences with the default grid policy.

    Repulsive and free alpha use one 24000-point grid on [1e-3, 12];
    attractive alpha uses the wall extrapolation over cutoffs
    (1e-2, 1e-3, 1e-4), or the denser five-cutoff ladder when
    beta_plus < -0.35, where the wall shift decays slowly.
    """
    if alpha >= 0:
        return fd_eigen(alpha, GridSpec(n_points=24000), k=k)
    beta = admissible_beta(alpha)
    cutoffs = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4) if beta < -0.35 else (1e-2, 1e-3, 1e-4)
    return fd_eigen_extrapolated(alpha, k=k, cutoffs=cutoffs)


def _frobenius_series(alpha: float, eps_arr: np.ndarray, x0: float, n_terms: int) -> np.ndarray:
    """Stacked (psi, psi') at x0 of psi = sum_j a_j x^(beta+1+2j), one column per energy."""
    # substituting into the ODE gives
    # 2j(2 beta + 2j + 1) a_j = a_{j-2} - 2 eps a_{j-1}, a_0 = 1
    beta = admissible_beta(alpha)
    a = np.zeros((n_terms, eps_arr.shape[0]))
    a[0] = 1.0
    for j in range(1, n_terms):
        prev2 = a[j - 2] if j >= 2 else 0.0
        a[j] = (prev2 - 2.0 * eps_arr * a[j - 1]) / (2.0 * j * (2.0 * beta + 2.0 * j + 1.0))
    exps = beta + 1.0 + 2.0 * np.arange(n_terms)
    return np.stack([x0**exps @ a, (exps * x0 ** (exps - 1.0)) @ a])


def frobenius_start(
    alpha: float, eps_energy: float, x0: float, n_terms: int = 12
) -> tuple[float, float]:
    """Series values (psi, psi') at a small x0 > 0 for energy eps_energy.

    Uses only the local indicial exponent beta_plus, so the start stays
    independent of the global closed-form solution.
    """
    admissible_beta(alpha)
    if not x0 > 0:
        raise ParameterError("x0 must be positive")
    if n_terms < 1:
        raise ParameterError("n_terms must be >= 1")
    psi, dpsi = _frobenius_series(alpha, np.array([eps_energy]), x0, n_terms)[:, 0]
    return float(psi), float(dpsi)


def _rkf45_count_nodes(
    alpha: float,
    eps_arr: np.ndarray,
    x0: float,
    x_max: float,
    rtol: float,
    x_stop_count: float | None = None,
) -> np.ndarray:
    """Integrate the batch outward and count sign changes of psi.

    The state stacks psi (row 0) and psi' (row 1) of every batch member
    into one (2, m) array, advanced by the Fehlberg tableau.  All members
    step in lockstep; the step controller obeys the worst member.
    Counting may be restricted to x <= x_stop_count to exclude the far
    tail where the growing solution contaminates the decaying one.
    """
    m = eps_arr.shape[0]
    y = _frobenius_series(alpha, eps_arr, x0, 10)
    two_eps = 2.0 * eps_arr
    stages = np.zeros((len(_RKF_C), 2, m))
    flat = stages.reshape(len(_RKF_C), 2 * m)  # view: one row per stage
    counts = np.zeros(m, dtype=int)
    sign = np.where(y[0] >= 0, 1.0, -1.0)
    x = x0
    h = min(x0, 1e-3)
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
        err = np.max(err_abs / (1e-300 + rtol * mag))
        if err <= 1.0 or h <= _H_MIN:
            x += h
            y = y5
            if x_stop_count is None or x <= x_stop_count:
                flip = y[0] * sign < 0
                counts += flip
                sign = np.where(flip, -sign, sign)
            big = mag > _RENORM_LIMIT
            if np.any(big):
                y = y * np.where(big, 1.0 / mag, 1.0)
        if h <= _H_MIN and err > 1.0:
            raise NonConvergence("integrator step size collapsed")
        h = min(_H_MAX, h * min(4.0, max(0.1, 0.9 * err ** (-0.2) if err > 0 else 4.0)))
    return counts


def shoot_spectrum(
    alpha: float,
    n_max: int,
    x0: float = 1e-3,
    x_max: float = 12.0,
    rtol: float = 1e-7,
    eps_tol: float = 1e-6,
) -> OracleResult:
    """Shooting eigenvalues for n = 0 .. n_max by batched multisection.

    The total sign-change count along [x0, x_max] (including the tail
    flip of the growing contamination) is the number of eigenvalues below
    eps.  One scan pass counts it on a 0.5-spaced grid (levels are 2
    apart) up to eps = 2 n_max + 20, doubling the window until the count
    reaches n_max + 1; past eps = x_max^2 the outer turning point leaves
    the box, so the scan gives up there.  Each narrowing pass splits every
    bracket into _KSECTION parts in one batch (multisection, the k-way
    Barth-Martin-Wilkinson bisection) and keeps the part where the count
    first exceeds n, until all brackets are at most eps_tol wide or too
    narrow to split in floating point.
    """
    admissible_beta(alpha)
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    targets = np.arange(n_max + 1)
    passes = 0
    eps = np.empty(0)
    counts = np.empty(0, dtype=int)
    cap = x_max**2
    top = min(2.0 * n_max + 20.0, cap)
    while True:
        grid = np.arange(eps[-1] + 0.5 if eps.size else 0.25, top + 0.25, 0.5)
        eps = np.concatenate((eps, grid))
        counts = np.concatenate((counts, _rkf45_count_nodes(alpha, grid, x0, x_max, rtol)))
        passes += 1
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
        counts = _rkf45_count_nodes(alpha, inner.ravel(), x0, x_max, rtol)
        passes += 1
        above = counts.reshape(inner.shape) > targets[:, None]
        # the count at hi exceeds n by construction: a True column for it
        first = 1 + np.pad(above, ((0, 0), (0, 1)), constant_values=True).argmax(axis=1)
        grid = np.column_stack((lo, inner, hi))
        lo = grid[targets, first - 1]
        hi = grid[targets, first]
    eigenvalues = tuple(float(v) for v in 0.5 * (lo + hi))
    grid = GridSpec(x_min=x0, x_max=x_max, n_points=4000)
    return OracleResult(
        eigenvalues, OracleMethod.SHOOTING, grid, float(np.max(hi - lo)) / 2.0, passes
    )


def shoot_eigen(
    alpha: float,
    n_target: int,
    x0: float = 1e-3,
    x_max: float = 12.0,
    rtol: float = 1e-7,
    eps_tol: float = 1e-6,
) -> OracleResult:
    """Single shooting eigenvalue with n_target interior nodes."""
    full = shoot_spectrum(alpha, n_target, x0=x0, x_max=x_max, rtol=rtol, eps_tol=eps_tol)
    return replace(full, eigenvalues=(full.eigenvalues[n_target],))


def count_nodes_at(
    alpha: float,
    eps: float,
    x0: float = 1e-3,
    x_max: float = 12.0,
    rtol: float = 1e-7,
    exclude_tail: bool = True,
) -> int:
    """Interior sign changes of the shot solution at a fixed energy.

    With exclude_tail the count stops past the outer turning point
    (plus margin), where only the exponential contamination could flip
    the sign; that makes it the true node count of the bound state.
    """
    stop = math.sqrt(max(2.0 * eps, 1.0)) + 2.0 if exclude_tail else None
    return int(_rkf45_count_nodes(alpha, np.array([eps]), x0, x_max, rtol, stop)[0])


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
            "oracle enforces psi(0) = 0 (Dirichlet wall), so the even-parity "
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
