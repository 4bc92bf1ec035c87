"""Independent numerical eigenvalue oracles.

Two routes that share nothing with the closed-form solution beyond the
local indicial exponent nu = beta_plus + 1/2 = sqrt(alpha + 1/4).  Both
take one window of energies the requested levels lie in (_window) and
stop a few decay lengths past the outer turning point of its top
(model._box, the box quad's Gram rule takes too).

(a) Finite differences on a log grid: x = e^s and psi = x^(1/2) u turn
-psi'' + (x^2 + alpha/x^2) psi = mu psi into -u'' + (nu^2 + e^(4s)) u =
mu e^(2s) u.  Near x = 0 the regular solution is u ~ e^(nu s), so the
inner end s_min = _S_MIN carries the Frobenius condition u' = nu u, which
moves the levels by about e^(2 s_min) relative (less as nu grows).  The
grid runs to ln _box in steps of min(_H_LOG, _PHASE / kappa), where kappa
= sqrt(top^2 - nu^2) is the top's largest wavenumber in s (Pryce 1993).
Scaled by the square root of the mass weights on both sides this is a
graded tridiagonal matrix, solved by LAPACK Sturm bisection to an
explicit absolute tolerance (bisection is accurate on graded matrices,
Barlow & Demmel 1990; its default tolerance, eps |T|, is not); Richardson
extrapolation in the step removes the h^2 error.

(b) Shooting seeded by a Frobenius series near the origin steps a batch
of energies over one fixed grid with the 4th-order Magnus propagator of
the linear ODE (Iserles & Norsett 1999), built for every step and energy
in one array expression, with no step controller.  It counts sign
changes of psi and keeps psi at the pass's end, the box-edge value: on
the series' common normalization it is analytic in the energy and
vanishes at the box levels (a miss-distance function, Pryce 1993).  One
scan pass over a lattice _D_EPS apart brackets every level by the node
count, which is monotone in the energy, over the window; the degree-7
polynomial through the box-edge values of 8 neighbouring energies,
solved by Newton, places each level, and one confirming pass of the node
count at the root -+ _EPS_TOL / 2 turns it into a guaranteed bracket.
Each pass integrates to _box of the top energy in its batch.

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
from .model import Domain, _box, admissible_beta
from .spectrum import SpectrumTable, _check_n

# Shooting's Frobenius start point floor and its scale in sqrt(beta + 1),
# terms, and the relative size the series' last term may reach:
_X0, _X0_SCALE, _N_TERMS, _RTOL = 1e-3, 0.05, 12, 1e-7
_RENORM_LIMIT = 1e100
# shooting's grid: steps of _GRADE x near the origin, _H from x = _H /
# _GRADE on (over 68 sweep inputs the levels move by at most 0.11 of the
# residual estimate against a grid 5 times finer); the steps one array
# expression builds propagators for; the Taylor polynomial sinh(k)/k =
# sum_j k^2j / (2j + 1)!, j <= 6, leaves out 1e-17 up to k^2 = _TAYLOR_MAX
_GRADE, _H, _CHUNK, _TAYLOR_MAX = 0.02, 0.02, 32, 0.2
_SINHC = tuple(1.0 / math.factorial(2 * j + 1) for j in range(6, -1, -1))
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0  # as fractions of a step
# shoot_spectrum: the energy step of its scan lattice (the degree-7
# polynomial through 8 box-edge values 0.1 apart places the levels within
# 2e-8 of a lattice 0.01 apart; 0.15 apart fails the confirming pass at
# alpha = 300, a cubic 0.05 apart at alpha = 2), the width of the bracket
# its confirming pass checks, and Newton steps on each polynomial
_D_EPS, _EPS_TOL, _NEWTON_STEPS = 0.1, 1e-6, 8
# the monomial coefficients of the polynomial through values at t = 0 .. 7
_POLYNOMIAL = np.linalg.inv(np.vander(np.arange(8.0), increasing=True))
# finite differences: the longest step in s = ln x, the radians of the
# top level's oscillation a step may span, the absolute bisection tolerance,
# the inner end of the log grid (scripts/convergence_study.py tabulates the
# levels against it) and the most rows of the fine grid
_H_LOG, _PHASE, _STEBZ_TOL, _S_MIN, _MAX_ROWS = 0.02, 0.42, 1e-13, -15.0, 30_000


class OracleMethod(enum.Enum):
    FINITE_DIFFERENCE = "finite_difference"
    SHOOTING = "shooting"


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: tuple[float, ...]
    method: OracleMethod
    residual_estimate: float
    steps: int = 0  # grid steps over a shooting run's two passes
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


def _fd_eigenvalues(alpha: float, s_min: float, s_max: float, n: int, k: int) -> np.ndarray:
    # scipy.linalg loads here, not at import: the analytic CLI never needs it
    import scipy.linalg

    # nodes s_0 = s_min .. s_n of a uniform grid with u = 0 at s_max;
    # the Frobenius condition u' = nu u at s_0 gives the ghost node
    # u_-1 = u_1 - 2 h nu u_0, and halving row 0 keeps the matrix
    # symmetric; -u'' + (nu^2 + e^4s) u = mu e^2s u is then scaled by the
    # inverse square root of the mass weights (1/2, 1, ..., 1) e^2s
    nu = admissible_beta(alpha) + 0.5
    h = (s_max - s_min) / (n + 1)
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


def _richardson(alpha: float, s_min: float, k: int) -> tuple[np.ndarray, float, int, float]:
    """Levels of the log grid from s_min to ln _box(top) of the k levels'
    window and of the grid of twice its step, combined to cancel the h^2
    error; the residual estimate, the fine grid's error (which bounds the
    combination's) plus 3 e^(2 s_min) max|eps| for the inner end; rows; top.
    ParameterError unless k is an integer >= 1, the window's top passes nu
    and the grid fits _MAX_ROWS."""
    admissible_beta(alpha)
    if not 1 <= k <= _MAX_ROWS or k != int(k):  # also catches a NaN k
        raise ParameterError(f"k must be an integer in [1, {_MAX_ROWS}], got {k}")
    top = _window(alpha, int(k) - 1)[1]
    s_max = math.log(_box(alpha, top))
    kappa = math.sqrt(max(top * top - alpha - 0.25, 0.0))
    if not kappa > 0:  # from alpha ~ 1e32, where doubles merge the window's ends
        raise ParameterError(f"the window of {k} levels at alpha = {alpha:g} ends below nu")
    n = (s_max - s_min) * max(1.0 / _H_LOG, kappa / _PHASE)
    if not n + 1 <= _MAX_ROWS:
        raise ParameterError(f"{k} levels at alpha = {alpha:g} need over {_MAX_ROWS} grid rows")
    n = math.ceil(n)
    m = (n + 1) // 2 - 1
    fine, coarse = (_fd_eigenvalues(alpha, s_min, s_max, j, int(k)) for j in (n, m))
    shift = (fine - coarse) / (((n + 1) / (m + 1)) ** 2 - 1)
    levels = fine + shift
    inner = 3.0 * math.exp(2.0 * s_min) * float(np.max(np.abs(levels)))
    return levels, float(np.max(np.abs(shift))) + inner, n + m + 2, top


def _fd_result(levels: np.ndarray, residual: float, rows: int, top: float) -> OracleResult:
    if not residual < np.min(np.abs(levels)):  # also catches a NaN residual
        raise ConvergenceError(f"finite-difference residual {residual:.3g} exceeds a level")
    if not np.max(levels) <= top:  # the box, built for the window, truncates it
        raise ConvergenceError(f"finite-difference level {np.max(levels):.6g} lies above {top:.6g}")
    levels = tuple(float(v) for v in levels)
    return OracleResult(levels, OracleMethod.FINITE_DIFFERENCE, residual, rows=rows)


def fd_eigen(alpha: float, k: int = 1) -> OracleResult:
    """Lowest k eigenvalues by finite differences on the log grid from
    s_min = _S_MIN, with the Frobenius condition there, to _box of their
    _window.  The residual estimate bounds the error (_richardson);
    ConvergenceError when it reaches a level or the top level lies above
    the window, where the box truncates it."""
    t0 = time.perf_counter()
    res = _fd_result(*_richardson(alpha, _S_MIN, k))
    return replace(res, seconds=time.perf_counter() - t0)


# a second name: perfbench/tracing.py and acceptance criterion 7 look it up
fd_eigen_extrapolated = fd_eigen


def _frobenius_series(alpha: float, eps_arr: np.ndarray, x0: float) -> np.ndarray:
    """Stacked (psi, psi') at x0 of psi = sum_j a_j x^(beta+1+2j), j < _N_TERMS,
    one column per energy.  ParameterError unless every value is finite and
    every last term within _RTOL of its sum (a NaN or huge energy, an x0 too far out)."""
    # substituting into the ODE gives
    # 2j(2 beta + 2j + 1) a_j = a_{j-2} - 2 eps a_{j-1}, a_0 = 1
    beta = admissible_beta(alpha)
    a = np.zeros((_N_TERMS, eps_arr.shape[0]))
    a[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
        for j in range(1, _N_TERMS):
            prev2 = a[j - 2] if j >= 2 else 0.0
            a[j] = (prev2 - 2.0 * eps_arr * a[j - 1]) / (2.0 * j * (2.0 * beta + 2.0 * j + 1.0))
        exps = beta + 1.0 + 2.0 * np.arange(_N_TERMS)
        powers = (x0**exps, exps * x0 ** (exps - 1.0))
        series = np.stack([p @ a for p in powers])
        # the truncated series is only as good as its last term is small
        last = np.outer([p[-1] for p in powers], a[-1])
        ok = np.all(np.isfinite(series)) and np.all(np.abs(last) <= _RTOL * np.abs(series))
    if not ok:
        msg = f"the {_N_TERMS}-term Frobenius series at x0 = {x0:.6g} does not converge"
        raise ParameterError(msg)
    return series


def frobenius_start(alpha: float, eps_energy: float, x0: float) -> tuple[float, float]:
    """Series values (psi, psi') at a small x0 > 0 for energy eps_energy.

    Uses only the local indicial exponent beta_plus, so the start stays
    independent of the global closed-form solution.  Raises ParameterError
    where x0 is too large for the truncated series to converge, or where
    the energy or the series is not finite (_frobenius_series).
    """
    admissible_beta(alpha)
    if not x0 > 0:
        raise ParameterError("x0 must be positive")
    psi, dpsi = _frobenius_series(alpha, np.array([eps_energy]), x0)[:, 0]
    return float(psi), float(dpsi)


def _window(alpha: float, n_max: int) -> tuple[float, float]:
    """Energies from the well's bottom, max(0.25, sqrt(alpha)), to 2 n_max +
    2 above it: level n lies at most 2n + 1.31 above it."""
    start = max(0.25, math.sqrt(max(alpha, 0.0)))
    return start, start + 2.0 * n_max + 2.0


def _grid(x0: float, x_max: float) -> np.ndarray:
    """Shooting's grid from the Frobenius start x0 to x_max: steps of
    _GRADE x until that reaches _H, then steps of _H."""
    graded = math.ceil(math.log(_H / (_GRADE * x0)) / math.log1p(_GRADE))
    x = x0 * (1.0 + _GRADE) ** np.arange(max(graded, 0) + 1)
    x = np.concatenate((x, x[-1] + _H * np.arange(1.0, math.ceil((x_max - x[-1]) / _H))))
    return np.append(x[x < x_max], x_max)


def _cosh_sinhc(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh sqrt(z) and sinh sqrt(z) / sqrt(z), elementwise (cos and sin of
    sqrt(-z) where z < 0): a Taylor polynomial in z and a square root where
    |z| <= _TAYLOR_MAX, no other transcendental; the closed form elsewhere."""
    s = z * _SINHC[0]
    for coef in _SINHC[1:-1]:
        s += coef
        s *= z
    s += 1.0
    # cosh^2 - z sinhc^2 = 1, and the cosine is positive while z > -(pi/2)^2
    c = np.sqrt(1.0 + z * s * s)
    big = np.abs(z) > _TAYLOR_MAX
    if big.any():
        r = np.sqrt(np.abs(z[big]))
        c[big] = np.where(z[big] > 0, np.cosh(r), np.cos(r))
        s[big] = np.where(z[big] > 0, np.sinh(r), np.sin(r)) / r
    return c, s


def _magnus_count_nodes(
    alpha: float, eps_arr: np.ndarray, x_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Step the batch on _grid out to x_max, counting sign changes of psi;
    also psi(x_max), the log of the factor each member was scaled down by
    on the way, and the grid steps.  The series at the Frobenius start
    x0 = max(_X0, _X0_SCALE sqrt(beta + 1)) is checked before _grid runs.

    y = (psi, psi') obeys y' = [[0, 1], [q, 0]] y, q = x^2 + alpha/x^2 -
    2 eps.  The 4th-order Magnus step (Iserles & Norsett 1999), q_1 and
    q_2 at its two Gauss points, is exp(Omega) = cosh(kappa) I +
    sinh(kappa)/kappa Omega, Omega = [[d, h], [c, -d]] with d = sqrt(3)/12
    h^2 (q_1 - q_2), c = h (q_1 + q_2)/2 and Omega^2 = kappa^2 I = (d^2 +
    h c) I.  A member past _RENORM_LIMIT is scaled down; a state that is
    not finite raises NonConvergence.
    """
    x0 = max(_X0, _X0_SCALE * math.sqrt(admissible_beta(alpha) + 1.0))
    start = _frobenius_series(alpha, eps_arr, x0)
    x = _grid(x0, x_max)
    h = np.diff(x)
    g = x[:-1, None] + h[:, None] * _GAUSS
    v = g * g + alpha / (g * g)
    d = math.sqrt(3.0) / 12.0 * h * h * (v[:, 0] - v[:, 1])
    hv = h * (v[:, 0] + v[:, 1]) / 2.0
    ys = np.empty((_CHUNK + 1, 2, eps_arr.size))  # a chunk's states, after the one it starts from
    ys[0] = start
    counts = np.zeros(eps_arr.size, dtype=np.intp)
    log_scale = np.zeros(eps_arr.size)
    for k0 in range(0, h.size, _CHUNK):
        rows = slice(k0, k0 + _CHUNK)
        c = hv[rows, None] - np.multiply.outer(2.0 * h[rows], eps_arr)
        with np.errstate(over="ignore", invalid="ignore"):  # the state check raises
            cosh, sinhc = _cosh_sinhc(c * h[rows, None] + (d[rows] ** 2)[:, None])
        sd = sinhc * d[rows, None]
        prop = np.stack((cosh + sd, sinhc * h[rows, None], sinhc * c, cosh - sd), axis=1)
        for k, step in enumerate(prop.reshape(-1, 2, 2, c.shape[1]), 1):
            y = np.einsum("ijm,jm->im", step, ys[k - 1], out=ys[k])
            # the sum of squares is a cheap bound on every member's peak
            if not np.vdot(y, y) <= _RENORM_LIMIT**2:
                if not np.all(np.isfinite(y)):
                    raise NonConvergence(f"integrator state is not finite at x = {x[k0 + k]:.6g}")
                mag = np.abs(y).max(axis=0)
                big = mag > _RENORM_LIMIT
                y *= np.where(big, 1.0 / mag, 1.0)
                log_scale += np.where(big, np.log(mag), 0.0)
        sign = np.signbit(ys[: k + 1, 0])
        counts += np.count_nonzero(sign[1:] != sign[:-1], axis=0)
        ys[0] = ys[k]
    return counts, ys[0, 0].copy(), log_scale, h.size


def _polynomial_roots(
    eps: np.ndarray, psi: np.ndarray, log_scale: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Zeros of the box-edge value F, one per row, each between eps[:, j - 1]
    and eps[:, j], where F changes sign: Newton on the polynomial through
    the 8 equally spaced energies of each row (shape (levels, 8)), started
    at the secant root and kept inside the bracket."""
    # F = sign psi e^(ln|psi| + log_scale) on the members' common start
    # normalization a_0 = 1, scaled by its largest magnitude in each row
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(psi)) + log_scale
    f = np.sign(psi) * np.exp(log_f - log_f.max(axis=1, keepdims=True))
    coef = f @ _POLYNOMIAL.T  # sum_k c_k t^k, eps = eps[:, 0] + _D_EPS t
    rows = np.arange(j.size)
    fa, fb = f[rows, j - 1], f[rows, j]
    t = j - 1 + fa / (fa - fb)
    for _ in range(_NEWTON_STEPS):
        p, dp = coef[:, -1], 0.0
        for c in coef[:, -2::-1].T:  # Horner for p and its derivative
            dp = dp * t + p
            p = p * t + c
        t = np.clip(t - p / dp, j - 1, j)
    return eps[:, 0] + _D_EPS * t


def shoot_spectrum(alpha: float, n_max: int) -> OracleResult:
    """Shooting eigenvalues for n = 0 .. n_max: the zeros of the box-edge
    value psi(_box), bracketed by the node count and confirmed by it.

    The total sign-change count along [x0, _box] (including the tail flip
    of the growing contamination) is the number of eigenvalues below eps,
    and the sign of psi(_box) is (-1)^count.  The scan pass integrates a
    lattice of energies _D_EPS apart over _window.  A level outside it raises
    BracketError, as does a window of fewer than 8 energies (where doubles
    merge the lattice), which is not integrated.  Level n lies where the
    count first exceeds n; the degree-7 polynomial through the box-edge
    values of the 8 lattice energies around it, solved by Newton, places
    it.  The confirming pass counts nodes at each root -+ _EPS_TOL / 2:
    counts n and n + 1 make a guaranteed bracket, anything else raises
    NonConvergence.  Each pass integrates on _grid to _box of the top
    energy of its own batch; from alpha ~ 1e6 its start raises ParameterError.
    """
    t0 = time.perf_counter()
    admissible_beta(alpha)
    _check_n(n_max)
    n_max = int(n_max)
    targets = np.arange(n_max + 1)

    start, top = _window(alpha, n_max)
    eps = start + _D_EPS * np.arange(math.floor((top - start) / _D_EPS) + 1)
    if eps.size < 8:
        raise BracketError(f"no bracket for levels {targets.tolist()} in eps <= {top:.4g}")
    counts, psi, log_scale, steps = _magnus_count_nodes(alpha, eps, _box(alpha, eps[-1]))
    above = counts > targets[:, None]
    j = above.argmax(axis=1)
    missing = targets[~above.any(axis=1) | (j == 0)]
    if missing.size:
        raise BracketError(f"no bracket for levels {missing.tolist()} in eps <= {top:.4g}")
    # the 8 lattice energies around each level, as centred as the window allows
    first = np.clip(j - 4, 0, eps.size - 8)
    stencil = first[:, None] + np.arange(8)
    roots = _polynomial_roots(eps[stencil], psi[stencil], log_scale[stencil], j - first)
    half = _EPS_TOL / 2.0
    edges = np.concatenate((roots - half, roots + half))
    counts, _, _, confirm = _magnus_count_nodes(alpha, edges, _box(alpha, float(edges.max())))
    below, over = counts.reshape(2, -1)
    wrong = targets[(below != targets) | (over != targets + 1)]
    if wrong.size:
        msg = f"node counts at eps -+ {half:g} do not bracket levels {wrong.tolist()}"
        raise NonConvergence(msg)
    levels = tuple(float(v) for v in roots)
    seconds = time.perf_counter() - t0
    return OracleResult(levels, OracleMethod.SHOOTING, half, steps + confirm, seconds=seconds)


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

