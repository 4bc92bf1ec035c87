"""Independent numerical eigenvalue oracles.

Two routes that share nothing with the closed-form solution beyond the
local indicial exponent nu = beta_plus + 1/2 = sqrt(alpha + 1/4).  Both
take one window of energies the requested levels lie in and stop a few
decay lengths past the outer turning point of its top (model._box, the
box quad's Gram rule takes too).  Only the public entries choose: fd_eigen
and shoot_spectrum take the branch from the gate (admissible_beta) and the
window from _window, and shoot_spectrum its start from _x0.  The private
cores, _richardson and _shoot, take what they are given, and each is one
whole run: it checks the request, loads what it needs (_richardson
resolves its dstebz binding, only after its checks) and times itself, so
a direct call, on the beta_minus branch say, reports its seconds too.

(a) Finite differences on a log grid: x = e^s and psi = x^(1/2) u turn
-psi'' + (x^2 + alpha/x^2) psi = mu psi into -u'' + (nu^2 + e^(4s)) u =
mu e^(2s) u.  Near x = 0 the regular solution is u ~ e^(nu s) (1 + a_1
e^(2s)), a_1 = -eps / (2 beta + 3), so the inner end s_min = _S_MIN
carries the two-term Frobenius condition u'/u = kappa0 - mu c, c =
e^(2 s_min) / (2 (1 + nu)), with kappa0 the 3-point stencil's exact
exponent for nu; what it misses is of order e^(4 s_min) eps^2.  The
grid runs to ln _box in steps of min(_H_LOG, _PHASE / kappa), where kappa
= sqrt(top^2 - nu^2) is the top's largest wavenumber in s (Pryce 1993).
Scaled by the square root of the mass weights on both sides this is a
graded tridiagonal matrix (_log_grid), solved by LAPACK Sturm bisection
(_sturm, through the one dstebz binding _stebz resolves: numpy's own
OpenBLAS through ctypes, or scipy.linalg's, the package's one scipy
import, where numpy's LAPACK lacks that symbol) to an explicit absolute
tolerance (bisection is accurate on graded matrices, Barlow & Demmel
1990; its default tolerance, eps |T|, is not) over the window's values,
mu in (0, 2 top], not by index, which first brackets the levels in the
Gershgorin interval, ~1e9 wide from the inner end's e^(-2 s_min) / h^2;
Richardson extrapolation in the step (_richardson) removes the h^2 error.

(b) Shooting seeded by a Frobenius series near the origin steps a batch
of energies with the 6th-order, 3-point Magnus propagator of the linear
ODE (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009), with no
step controller, over one grid whose step, like FD's, follows the
largest wavenumber of the batch's top energy (_steps; Ledoux, Van Daele
& Vanden Berghe 2009 tie the step of high-index Sturm-Liouville levels
to it the same way), graded near the origin; its serial loop advances a
block of _BLOCK steps at a time, their propagators multiplied into one
beforehand.  It keeps psi at the grid's end, the box-edge value F: on
the series' common normalization F is analytic in the energy and
vanishes at the box levels (a miss-distance function, Pryce 1993), and
its sign is (-1)^N, N the node count.  One scan pass over a lattice
_D_EPS = 0.18 apart brackets every level by the sign changes of F over
the window, keeping no state along the grid (levels lie about 2 apart,
so no two share a lattice step); the degree-11 polynomial through the
box-edge values of the 12 energies around each level, solved by Newton,
places it (0.18 is the widest step at which the narrowest window, n_max
= 0, 2 wide, still holds 12 energies), and one confirming pass, which
counts the sign changes of psi at every grid point, at the root -+
_EPS_TOL / 2 turns it into a guaranteed bracket.  Both passes step one
grid, built once per call, to _box of the lattice's top energy.

The matrix eigenvalue mu equals 2 eps, because the dimensionless ODE is
psi'' + (2 eps - x^2 - alpha/x^2) psi = 0; asserted by the alpha = 0
ground state eps = 1.5 in the test suite.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BracketError, ConvergenceError, NonConvergence, ParameterError, ShapeMismatch
from .model import _box, admissible_beta
from .specfun import _check_n

# Shooting's Frobenius start point floor and its scale in sqrt(beta + 1),
# terms, and the relative size the series' last term may reach:
_X0, _X0_SCALE, _N_TERMS, _RTOL = 1e-3, 0.05, 12, 1e-7
_RENORM_LIMIT = 1e100
# shooting's grid (_steps): the longest step, the radians of the top
# energy's oscillation a step may span and the e-folds of x^(beta + 1) a
# graded step may span (sweep inputs, k <= 6.04, all take the longest
# step; over 80 of them the levels move by at most 0.043 of the residual
# estimate against a grid 5 times finer, and 0.5 rad keeps the levels up
# to n_max = 150 within 0.8 of it, where a fixed 0.04 left 2.46); the Taylor
# polynomial sinh(k)/k = sum_j k^2j / (2j + 1)!, j <= 8, leaves out 2e-20
# up to k^2 = _TAYLOR_MAX; a block's steps (a power of 2) and the steps x
# energies of one span of blocks, sized to a core's 1 MB L2 cache: a span's
# propagators, product tree and states take about 10 doubles per
# step-energy (8 in a pass that keeps no states), 640 KB at 8k and 1.3 MB
# at 16k.  shoot_spectrum over 80 sweep inputs took, in us per call on a
# 2-core AMD EPYC (medians of 15 rounds, spans interleaved in one
# process): 2k 940, 4k 740, 5k 700, 6k 670, 8k 640, 12k 625, 16k 725, 24k
# 725; 12k is as fast, but its buffers, about 950 KB, leave the cache
# no room.  A span is whole blocks, so it changes no result.
_H_MAX, _STEP_PHASE, _E_FOLDS = 0.07, 0.5, 10.0
_TAYLOR_MAX, _BLOCK, _SPAN = 0.5, 16, 8 * 1024
_SINHC = tuple(1.0 / math.factorial(2 * j + 1) for j in range(8, -1, -1))
# the 3 Gauss-Legendre nodes of a step, as fractions of it
_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# shoot_spectrum: the energies of the stencil that places each level and
# the energy step of its scan lattice (the degree-11 polynomial through 12
# box-edge values 0.18 apart places the levels within 6e-9 of a lattice
# 0.01 apart at sweep-like inputs, 7e-8 up to n_max = 40; the narrowest
# window, n_max = 0, 2 wide, holds floor(2 / 0.18) + 1 = 12 energies, and
# 0.2 apart only 11), the width of the bracket its confirming pass checks,
# and Newton steps on each polynomial (8 and 30 agree within 3e-14)
_STENCIL, _D_EPS, _EPS_TOL, _NEWTON_STEPS = 12, 0.18, 1e-6, 8
# the stencil's points t = 0 .. _STENCIL - 1, also the powers of t its
# polynomial sums, and the monomial coefficients of the polynomial through values there
_POWERS = np.arange(float(_STENCIL))
_POLYNOMIAL = np.linalg.inv(np.vander(_POWERS, increasing=True))
# finite differences: the longest step in s = ln x, the radians of the
# top level's oscillation a step may span, the absolute bisection tolerance,
# the inner end of the log grid (test_inner_end_error_lies_within_its_term and
# test_residual_bounds_error_with_the_wall measure what its condition misses
# against the grid from -15) and the most rows of the fine grid
_H_LOG, _PHASE, _STEBZ_TOL, _S_MIN, _MAX_ROWS = 0.02, 0.42, 1e-13, -6.0, 30_000


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
    """An oracle's levels graded against analytic ones by relative error."""

    analytic_levels: tuple[float, ...]
    oracle_levels: tuple[float, ...]
    max_rel_error: float
    passed: bool


def _log_grid(
    alpha: float, nu: float, s_min: float, s_max: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric tridiagonal matrix (diag, off) whose eigenvalues are
    the mu of the nodes s_0 = s_min .. s_n of a uniform grid with u = 0 at
    s_max, row 0 holding the two-term Frobenius condition of the signed
    exponent nu; _sturm solves it."""
    # -u'' + (nu^2 + e^4s) u = mu e^2s u is scaled by the inverse square
    # root of the mass weights e^2s
    h = (s_max - s_min) / (n + 1)
    s = s_min + h * np.arange(n + 1)
    diag = (2.0 / h**2 + alpha + 0.25) * np.exp(-2.0 * s) + np.exp(2.0 * s)
    off = -np.exp(-(s[:-1] + s[1:])) / h**2
    # row 0: the two-term Frobenius condition u'/u = kappa0 - mu c at s_0,
    # from u = e^(nu s) (1 + a_1 e^2s), a_1 = -eps / (2 beta + 3), gives the
    # ghost node u_-1 = u_1 - 2 h (kappa0 - mu c) u_0; halving row 0 keeps
    # the matrix symmetric and moves the mu c term into node 0's mass.
    # kappa0 = sinh(nu~ h) / h = nu sqrt(1 + h^2 nu^2 / 4), where cosh(nu~
    # h) = 1 + h^2 nu^2 / 2, so e^(nu~ s) solves the rows exactly where
    # e^4s is negligible; with c = 0 and kappa0 = nu this is the one-term
    # condition u' = nu u
    kappa0 = nu * math.sqrt(1.0 + (0.5 * h * nu) ** 2)
    c = math.exp(2.0 * s_min) / (2.0 * (1.0 + nu))
    m0 = 0.5 * math.exp(2.0 * s_min) + c / h
    diag[0] = (1.0 / h**2 + kappa0 / h + 0.5 * (alpha + 0.25 + math.exp(4.0 * s_min))) / m0
    off[0] = -1.0 / (h**2 * math.sqrt(m0 * math.exp(2.0 * s[1])))
    return diag, off


# LAPACK dstebz's arguments in order, for the message of a rejected one
_STEBZ_ARGS = ("RANGE", "ORDER", "N", "VL", "VU", "IL", "IU", "ABSTOL", "D", "E", "M",
               "NSPLIT", "W", "IBLOCK", "ISPLIT", "WORK", "IWORK", "INFO")


@functools.cache
def _stebz():
    """LAPACK dstebz by value over a window, as (diag, off, lo, hi) -> (m,
    w, info), w[:m] the eigenvalues in (lo, hi]: RANGE = 'V', ORDER = 'E',
    ABSTOL = _STEBZ_TOL.  The one place that knows the binding: the exact
    symbol scipy_dstebz_64_ (64-bit integers; scipy-openblas64, which numpy
    wheels ship) of the OpenBLAS numpy's linalg extension loaded, through
    ctypes, or, where that library lacks it (MKL, Accelerate, a distro's
    numpy), scipy.linalg's binding of the same routine, the package's one
    scipy import.  No other name or integer width is tried."""
    from numpy.ctypeslib import ndpointer
    from numpy.linalg import _umath_linalg

    try:  # the extension's handle also finds the symbols of its dependencies
        stebz = ctypes.CDLL(_umath_linalg.__file__).scipy_dstebz_64_
    except (OSError, AttributeError):
        # scipy.linalg loads on first use, not at import: the analytic CLI never needs it
        from scipy.linalg.lapack import dstebz

        def by_scipy(diag, off, lo, hi):
            # RANGE 1 is 'V'; f2py sizes E as max(N - 1, 1), so a 1-row
            # matrix passes a dummy E, which LAPACK never reads
            m, w, _, _, info = dstebz(diag, off if off.size else np.zeros(1), 1, lo, hi, 1, 1,
                                      _STEBZ_TOL, "E")
            return m, w, info

        return by_scipy
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    ints, floats = (ndpointer(t, ndim=1, flags="C_CONTIGUOUS") for t in (np.int64, np.float64))
    # in _STEBZ_ARGS's order, then the hidden lengths of the two strings
    stebz.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, f64, f64, i64, i64, f64, floats,
                      floats, i64, i64, floats, ints, ints, floats, ints, i64,
                      ctypes.c_size_t, ctypes.c_size_t]
    stebz.restype = None

    def by_ctypes(diag, off, lo, hi):
        n = diag.size
        # every buffer the routine reads or writes stays bound here across the call
        # (IL = IU = 1 stand in for the index range, which RANGE = 'V' never reads)
        size, vl, vu, index, tol = (ctypes.c_int64(n), ctypes.c_double(lo), ctypes.c_double(hi),
                                    ctypes.c_int64(1), ctypes.c_double(_STEBZ_TOL))
        m, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
        w, work = np.empty(n), np.empty(4 * n)
        iblock, isplit, iwork = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(3 * n, np.int64)
        stebz(b"V", b"E", size, vl, vu, index, index, tol, diag, off, m, nsplit,
              w, iblock, isplit, work, iwork, info, 1, 1)
        return m.value, w, info.value

    return by_ctypes


def _sturm(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Eigenvalues in (lo, hi] of the symmetric tridiagonal matrix (diag,
    off), ascending, by LAPACK Sturm bisection (dstebz, through the binding
    _stebz resolves) to _STEBZ_TOL.  ParameterError unless diag and off are
    1-D, float64, C-contiguous and finite, off is one shorter than a
    non-empty diag and lo < hi; ConvergenceError where LAPACK reports a
    failure.  The same checks and the same mapping of LAPACK's INFO serve
    either binding."""
    if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.float64
               and a.flags.c_contiguous for a in (diag, off)):
        raise ParameterError("a tridiagonal matrix takes 1-D, C-contiguous float64 arrays")
    if not off.size == diag.size - 1 >= 0:
        raise ParameterError(f"a diagonal of {diag.size} takes {diag.size - 1} "
                             f"off-diagonals, got {off.size}")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ParameterError("the tridiagonal matrix is not finite")
    if not lo < hi:  # also catches a NaN end
        raise ParameterError(f"the window ({lo:g}, {hi:g}] is empty")
    # by value over the window: by index, most Sturm sweeps go into bracketing
    # the levels inside the Gershgorin bound
    m, w, info = _stebz()(diag, off, lo, hi)
    if info < 0:  # the checks above leave none
        raise ParameterError(f"LAPACK dstebz rejected its argument {_STEBZ_ARGS[-info - 1]}")
    if info > 0:
        raise ConvergenceError(f"Sturm bisection failed: dstebz did not converge (LAPACK info={info})")
    return w[:m]


def _richardson(alpha: float, nu: float, s_min: float, top: float, k: int) -> OracleResult:
    """The lowest k levels of the log grid from s_min to ln _box(top) and
    of the grid of twice its step, combined to cancel the h^2 error, for
    the signed exponent nu = beta + 1/2 of the branch beta and the window's
    top the caller chose.  nu may be negative: with nu = beta_minus + 1/2
    row 0 holds beta_minus's two-term condition (kappa0 < 0), and the
    returned levels are its ladder.  The residual estimate is the fine
    grid's error (which bounds the combination's) plus 3 e^(4 s_min)
    eps_top^2, eps_top the top level, for what the two-term inner
    condition misses; seconds times the solve, not the checks or the
    first call's resolution of the dstebz binding (_stebz, which imports
    scipy.linalg where numpy's LAPACK lacks the routine).
    ParameterError unless k is an integer >= 1, nu > -1 (row 0's
    condition divides by 1 + nu), top passes |nu| and the grid fits
    _MAX_ROWS; ConvergenceError when a level's own error, its shift plus
    the inner term, reaches it or a level lies above top, where the box
    truncates it."""
    if not 1 <= k <= _MAX_ROWS or k != int(k):  # also catches a NaN k
        raise ParameterError(f"k must be an integer in [1, {_MAX_ROWS}], got {k}")
    if not nu > -1.0:  # row 0's c and node 0's mass need 1 + nu > 0
        raise ParameterError(f"the log grid's inner condition needs nu > -1, got {nu:g}")
    s_max = math.log(_box(alpha, top))
    kappa = math.sqrt(max(top * top - alpha - 0.25, 0.0))
    if not kappa > 0:  # from alpha ~ 1e32, where doubles merge the window's ends
        raise ParameterError(f"the window of {k} levels at alpha = {alpha:g} ends below nu")
    n = (s_max - s_min) * max(1.0 / _H_LOG, kappa / _PHASE)
    if not n + 1 <= _MAX_ROWS:
        raise ParameterError(f"{k} levels at alpha = {alpha:g} need over {_MAX_ROWS} grid rows")
    n = math.ceil(n)
    m = (n + 1) // 2 - 1
    # the binding resolves after the checks, so a rejected request raises
    # without it, and before the clock, so a first call does not time it
    _stebz()
    t0 = time.perf_counter()
    # every level of each grid up to top, mu = 2 eps; mu > 0 as kappa0 >= 0,
    # m0 > 0 and nu^2 + e^4s > 0 (SPD).  A grid's levels run out below the
    # top: the box truncates it (a coarse grid's low levels may leave more than k)
    grids = [_sturm(*_log_grid(alpha, nu, s_min, s_max, j), 0.0, 2.0 * top) / 2.0 for j in (n, m)]
    if min(g.size for g in grids) < k:
        raise ConvergenceError(f"finite-difference level {int(k) - 1} lies above {top:.6g}")
    fine, coarse = (g[: int(k)] for g in grids)
    shift = (fine - coarse) / (((n + 1) / (m + 1)) ** 2 - 1)
    levels = fine + shift
    inner = 3.0 * math.exp(4.0 * s_min) * float(np.max(np.abs(levels))) ** 2
    residual = float(np.max(np.abs(shift))) + inner
    if not (np.abs(shift) + inner < np.abs(levels)).all():  # also catches a NaN level
        raise ConvergenceError(f"finite-difference residual {residual:.3g} exceeds a level")
    if not np.max(levels) <= top:  # the box, built for the window, truncates it
        raise ConvergenceError(f"finite-difference level {np.max(levels):.6g} lies above {top:.6g}")
    return OracleResult(tuple(levels.tolist()), OracleMethod.FINITE_DIFFERENCE, residual,
                        rows=n + m + 2, seconds=time.perf_counter() - t0)


def fd_eigen(alpha: float, k: int = 1) -> OracleResult:
    """Lowest k eigenvalues by finite differences on the log grid from
    s_min = _S_MIN, with the two-term Frobenius condition there, to _box
    of their _window.  The residual estimate bounds the error
    (_richardson, which also checks k, resolves the dstebz binding and
    times the run); ConvergenceError when a level's own error reaches it
    or the top level lies above the window, where the box truncates it."""
    return _richardson(alpha, admissible_beta(alpha) + 0.5, _S_MIN, _window(alpha, k - 1)[1], k)


# a second name: perfbench/tracing.py and acceptance criterion 7 look it up
fd_eigen_extrapolated = fd_eigen


def _frobenius_series(beta: float, eps_arr: np.ndarray, x0: float) -> np.ndarray:
    """Stacked (psi, psi') at x0 of psi = sum_j a_j x^(beta+1+2j), j < _N_TERMS,
    one column per energy.  ParameterError unless every value is finite and
    every last term within _RTOL of its sum (a NaN or huge energy, an x0 too
    far out, a beta whose recurrence meets a zero denominator)."""
    # substituting into the ODE gives
    # 2j(2 beta + 2j + 1) a_j = a_{j-2} - 2 eps a_{j-1}, a_0 = 1, a_-1 = 0:
    # at j = 1, a[j - 2] is the last row, still 0
    a = np.zeros((_N_TERMS, eps_arr.shape[0]))
    a[0] = 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the check below raises
        for j in range(1, _N_TERMS):
            a[j] = (a[j - 2] - 2.0 * eps_arr * a[j - 1]) / (2.0 * j * (2.0 * beta + 2.0 * j + 1.0))
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
    beta = admissible_beta(alpha)
    if not x0 > 0:
        raise ParameterError("x0 must be positive")
    psi, dpsi = _frobenius_series(beta, np.array([eps_energy]), x0)[:, 0]
    return float(psi), float(dpsi)


def _window(alpha: float, n_max: int) -> tuple[float, float]:
    """Energies from the well's bottom, max(0.25, sqrt(alpha)), to 2 n_max +
    2 above it: level n lies at most 2n + 1.31 above it.  That bound is the
    closed-form beta_plus ladder's, 2n + 1 + nu minus the bottom, which
    peaks at 2n + 1.309 at alpha = 1/16.  The window only places the scan:
    a wrong one raises BracketError or ConvergenceError and never returns a
    wrong level.  A caller with another branch passes its own window."""
    start = max(0.25, math.sqrt(max(alpha, 0.0)))
    return start, start + 2.0 * n_max + 2.0


def _steps(alpha: float, beta: float, top: float) -> tuple[float, float]:
    """Shooting's uniform step h and graded fraction g for a batch up to
    the energy top: h = min(_H_MAX, _STEP_PHASE / k), k = sqrt(2 top - 2
    sqrt(max(alpha, 0))) the largest wavenumber of top, so no step spans
    more than _STEP_PHASE radians of its oscillation, and g = min(h,
    _E_FOLDS / |nu|), nu = beta + 1/2 of either branch, so no graded step
    spans more than _E_FOLDS e-folds of the start's x^(beta + 1) growth."""
    k = math.sqrt(2.0 * top - 2.0 * math.sqrt(max(alpha, 0.0)))
    h = min(_H_MAX, _STEP_PHASE / k)
    return h, min(h, _E_FOLDS / abs(beta + 0.5))


def _grid(x0: float, x_max: float, h: float, g: float) -> np.ndarray:
    """Shooting's grid from the Frobenius start x0 to x_max: steps of g x
    until that reaches h, then steps of h."""
    graded = math.ceil(math.log(h / (g * x0)) / math.log1p(g))
    x = x0 * (1.0 + g) ** np.arange(max(graded, 0) + 1)
    x = np.concatenate((x, x[-1] + h * np.arange(1.0, math.ceil((x_max - x[-1]) / h))))
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


class _MagnusGrid(NamedTuple):
    """_grid padded to whole blocks, its steps before the padding and each
    step's Omega coefficients: a = a_0 + a_1 eps, b = b_0, c = c_0 + c_1 eps."""

    x: np.ndarray
    steps: int
    a_0: np.ndarray
    a_1: np.ndarray
    b_0: np.ndarray
    c_0: np.ndarray
    c_1: np.ndarray


def _x0(beta: float) -> float:
    """Shooting's Frobenius start point."""
    return max(_X0, _X0_SCALE * math.sqrt(beta + 1.0))


def _magnus_grid(alpha: float, x0: float, x_max: float, h: float, g: float) -> _MagnusGrid:
    """_grid from x0 to x_max with the steps (h, g) of _steps, padded with
    steps of width 0 (propagator I) to whole blocks of _BLOCK steps, with
    each step's Omega in powers of eps.

    y = (psi, psi') obeys y' = A y, A = [[0, 1], [q, 0]], q = x^2 +
    alpha/x^2 - 2 eps.  The 6th-order Magnus step of width h (Iserles &
    Norsett 1999; Blanes, Casas, Oteo & Ros 2009), A_i = A at its three
    Gauss points (_NODES), takes W_1 = h A_2, W_2 = sqrt(15) h / 3
    (A_3 - A_1), W_3 = 10 h / 3 (A_3 - 2 A_2 + A_1), C_1 = [W_1, W_2], C_2 =
    -[W_1, 2 W_3 + C_1] / 60 and Omega = W_1 + W_3 / 12 + [-20 W_1 - W_3 +
    C_1, W_2 + C_2] / 240.  For these traceless 2x2 matrices, with s_2 =
    sqrt(15) h / 3 (q_3 - q_1) and s_3 = 10 h / 3 (q_3 - 2 q_2 + q_1),
    Omega = [[a, b], [c, -a]]:
        a = h s_2 / 240 (4 h^2 q_2 / 3 + h s_3 / 30 - 20),
        b = h - h^2 (20 s_3 - h s_2^2) / 3600,
        c = k q_2 + s_3 / 12 + h (s_3^2 - 30 s_2^2) / 3600,
        k = h + h^2 (20 s_3 + h s_2^2) / 3600;
    s_2, s_3, b and k do not depend on eps, and a and c are affine in it
    through q_2 = v_2 - 2 eps.
    """
    x = _grid(x0, x_max, h, g)
    steps = x.size - 1
    x = np.append(x, np.full(-steps % _BLOCK, x_max))
    h = np.diff(x)  # each step's width, 0 in the padding
    xg = x[:-1, None] + h[:, None] * _NODES
    v = xg * xg + alpha / (xg * xg)
    s2 = math.sqrt(15.0) / 3.0 * h * (v[:, 2] - v[:, 0])
    s3 = 10.0 / 3.0 * h * (v[:, 2] - 2.0 * v[:, 1] + v[:, 0])
    b_0 = h - h * h * (20.0 * s3 - h * s2 * s2) / 3600.0
    k = h + h * h * (20.0 * s3 + h * s2 * s2) / 3600.0
    a_0 = h * s2 / 240.0 * (4.0 / 3.0 * h * h * v[:, 1] + h * s3 / 30.0 - 20.0)
    a_1 = -(h**3) * s2 / 90.0
    c_0 = k * v[:, 1] + s3 / 12.0 + h * (s3 * s3 - 30.0 * s2 * s2) / 3600.0
    return _MagnusGrid(x, steps, a_0, a_1, b_0, c_0, -2.0 * k)


def _magnus_count_nodes(
    grid: _MagnusGrid, y: np.ndarray, eps_arr: np.ndarray, count: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Step the batch eps_arr over the grid from its Frobenius start y (its
    stacked psi and psi' at grid.x[0]): the sign changes of psi at every
    grid point (None unless count), psi at the grid's end and the log of
    the factor each member was scaled down by on the way.

    Each step's propagator is exp(Omega) = cosh(kappa) I + sinh(kappa)/kappa
    Omega, as Omega^2 = kappa^2 I = (a^2 + b c) I (_magnus_grid), built a
    span of about _SPAN steps x energies at a time.  Pairwise products
    give every block's propagator (a product of Magnus exponentials
    propagates over their union; Blanes, Casas, Oteo & Ros 2009); the one
    serial loop applies them, scales a member past _RENORM_LIMIT down and
    raises NonConvergence on a state that is not finite.  To count, the
    state before every block is kept and the left halves' products fill in
    the state before every step.  shoot_spectrum's scan pass does not
    count: it brackets the levels by the sign of psi at the end alone, and
    its confirming pass, which counts, steps the same grid.  With _BLOCK = 1
    it steps one at a time.
    """
    x, _, a_0, a_1, b_0, c_0, c_1 = grid
    m = eps_arr.size
    span = _BLOCK * max(1, _SPAN // (_BLOCK * m))
    # one buffer per call for the spans' propagators, products and states
    blocks = min(span, b_0.size) // _BLOCK
    prop = np.empty((blocks * _BLOCK, 4, m))
    products = [np.empty((blocks, _BLOCK >> j, 2, 2, m)) for j in range(1, _BLOCK.bit_length())]
    states = np.empty((blocks, _BLOCK, 2, m)) if count else None
    counts = np.zeros(m, dtype=np.intp) if count else None
    log_scale = np.zeros(m)
    for k0 in range(0, b_0.size, span):
        rows = slice(k0, k0 + span)
        a = np.multiply.outer(a_1[rows], eps_arr)
        a += a_0[rows, None]
        c = np.multiply.outer(c_1[rows], eps_arr)
        c += c_0[rows, None]
        with np.errstate(over="ignore", invalid="ignore"):  # the state check raises
            cosh, sinhc = _cosh_sinhc(a * a + b_0[rows, None] * c)
            sa = sinhc * a
            p = prop[:len(c)]
            np.add(cosh, sa, out=p[:, 0])
            np.multiply(sinhc, b_0[rows, None], out=p[:, 1])
            np.multiply(sinhc, c, out=p[:, 2])
            np.subtract(cosh, sa, out=p[:, 3])
            # tree[j][b, s]: the product over segment s, 2^j steps long, of block b
            tree = [p.reshape(-1, _BLOCK, 2, 2, m)]
            for q in products:
                p = tree[-1]
                tree.append(np.einsum("bsijm,bsjkm->bsikm", p[:, 1::2], p[:, 0::2], out=q[:len(p)]))
            if count:
                before = states[:len(tree[0])]  # the state before each step
            for b, block in enumerate(tree[-1][:, 0]):
                if count:
                    before[b, 0] = y
                y = np.einsum("ijm,jm->im", block, y)
                # the sum of squares is a cheap bound on every member's peak
                if not np.vdot(y, y) <= _RENORM_LIMIT**2:
                    if not np.all(np.isfinite(y)):
                        at = x[k0 + (b + 1) * _BLOCK]
                        raise NonConvergence(f"integrator state is not finite at x = {at:.6g}")
                    mag = np.abs(y).max(axis=0)
                    big = mag > _RENORM_LIMIT
                    y *= np.where(big, 1.0 / mag, 1.0)
                    log_scale += np.where(big, np.log(mag), 0.0)
            if count:
                for p in tree[-2::-1]:  # a right half starts at the left half's product times its start
                    seg = before.reshape(len(p), -1, 2, _BLOCK // p.shape[1], 2, m)
                    np.einsum("bsijm,bsjm->bsim", p[:, 0::2], seg[:, :, 0, 0], out=seg[:, :, 1, 0])
                sign = np.signbit(np.concatenate((before[:, :, 0].reshape(-1, m), y[:1])))
                counts += np.count_nonzero(sign[1:] != sign[:-1], axis=0)
    return counts, y[0].copy(), log_scale


def _sign_counts(psi: np.ndarray) -> np.ndarray:
    """Levels below each energy of an ascending lattice whose neighbours
    never have two levels between them, from the box-edge values psi alone:
    psi < 0 at the first energy (an odd count, so one level below it) plus
    the sign changes of psi up to each energy, as sign psi = (-1)^count."""
    return np.cumsum(np.diff(np.signbit(psi), prepend=False))


def _polynomial_roots(
    eps: np.ndarray, psi: np.ndarray, log_scale: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Zeros of the box-edge value F, one per row, each between eps[:, j - 1]
    and eps[:, j], where F changes sign: Newton on the polynomial through
    the _STENCIL equally spaced energies of each row (shape (levels,
    _STENCIL)), started at the secant root and kept inside the bracket."""
    # F = sign psi e^(ln|psi| + log_scale) on the members' common start
    # normalization a_0 = 1, scaled by its largest magnitude in each row
    with np.errstate(divide="ignore"):
        log_f = np.log(np.abs(psi)) + log_scale
    f = np.sign(psi) * np.exp(log_f - log_f.max(axis=1, keepdims=True))
    coef = f @ _POLYNOMIAL.T  # sum_k c_k t^k, eps = eps[:, 0] + _D_EPS t
    slope = coef[:, 1:] * _POWERS[1:]  # sum_k k c_k t^(k - 1)
    rows = np.arange(j.size)
    fa, fb = f[rows, j - 1], f[rows, j]
    t = j - 1 + fa / (fa - fb)
    for _ in range(_NEWTON_STEPS):
        powers = t[:, None] ** _POWERS
        p, dp = np.vecdot(coef, powers), np.vecdot(slope, powers[:, :-1])
        t = np.clip(t - p / dp, j - 1, j)
    return eps[:, 0] + _D_EPS * t


def _shoot(alpha: float, beta: float, x0: float, start: float, top: float, n_max: int) -> OracleResult:
    """Shooting levels 0 .. n_max of the branch beta from the Frobenius
    start x0, scanned over the lattice from start to top: the zeros of the
    box-edge value F = psi(_box), bracketed by its sign and confirmed by
    the node count, for the branch, start and window the caller chose.

    The total sign-change count along [x0, _box] (including the tail flip
    of the growing contamination) is the number of eigenvalues below eps,
    and the sign of F is (-1)^count.  The scan pass integrates a lattice of
    energies _D_EPS apart over the window, and counts at each the sign
    changes of F below it (_sign_counts): levels lie about 2 apart, many
    lattice steps.  A level outside the window raises BracketError, as
    does a window of fewer than _STENCIL energies (where doubles merge the
    lattice), which is not integrated.  Level n lies where the count first
    exceeds n; the degree-11 polynomial through the box-edge values of the
    12 lattice energies around it, solved by Newton, places it.  The
    confirming pass counts nodes at each root -+ _EPS_TOL / 2: counts n and
    n + 1 make a guaranteed bracket, anything else (a level the scan
    misnumbered, too) raises NonConvergence.  Both passes step one grid,
    to _box of the lattice's top energy; a start where the series does not
    converge raises ParameterError before it is built.  seconds times the
    whole call.
    """
    t0 = time.perf_counter()
    targets = np.arange(n_max + 1)
    eps = start + _D_EPS * np.arange(math.floor((top - start) / _D_EPS) + 1)
    if eps.size < _STENCIL:
        raise BracketError(f"no bracket for levels {targets.tolist()} in eps <= {top:.4g}")
    y = _frobenius_series(beta, eps, x0)  # checked before the grid is built
    grid = _magnus_grid(alpha, x0, _box(alpha, eps[-1]), *_steps(alpha, beta, eps[-1]))
    _, psi, log_scale = _magnus_count_nodes(grid, y, eps, count=False)
    above = _sign_counts(psi) > targets[:, None]
    j = above.argmax(axis=1)
    missing = targets[~above.any(axis=1) | (j == 0)]
    if missing.size:
        raise BracketError(f"no bracket for levels {missing.tolist()} in eps <= {top:.4g}")
    # the _STENCIL lattice energies around each level, as centred as the window allows
    first = np.clip(j - _STENCIL // 2, 0, eps.size - _STENCIL)
    stencil = first[:, None] + np.arange(_STENCIL)
    roots = _polynomial_roots(eps[stencil], psi[stencil], log_scale[stencil], j - first)
    half = _EPS_TOL / 2.0
    edges = np.concatenate((roots - half, roots + half))
    counts, _, _ = _magnus_count_nodes(grid, _frobenius_series(beta, edges, x0), edges)
    below, over = counts.reshape(2, -1)
    wrong = targets[(below != targets) | (over != targets + 1)]
    if wrong.size:
        raise NonConvergence(f"node counts at eps -+ {half:g} do not bracket levels {wrong.tolist()}")
    return OracleResult(tuple(roots.tolist()), OracleMethod.SHOOTING, half, 2 * grid.steps,
                        seconds=time.perf_counter() - t0)


def shoot_spectrum(alpha: float, n_max: int) -> OracleResult:
    """Shooting eigenvalues for n = 0 .. n_max (_shoot) of the admissible
    branch, from its start _x0 and over _window; from alpha ~ 1e6 the start
    raises ParameterError before any grid is built.  seconds is _shoot's."""
    beta = admissible_beta(alpha)
    n_max = _check_n(n_max)
    return _shoot(alpha, beta, _x0(beta), *_window(alpha, n_max), n_max)


def shoot_eigen(alpha: float, n_target: int) -> OracleResult:
    """Single shooting eigenvalue with n_target interior nodes: the last
    of shoot_spectrum's levels, which end at n_target."""
    full = shoot_spectrum(alpha, n_target)
    return replace(full, eigenvalues=full.eigenvalues[-1:])


def compare(analytic_levels: Sequence[float], oracle: OracleResult, tol: float) -> CompareReport:
    """Pair ascending analytic levels with the oracle's eigenvalues and
    grade: passed when the counts agree and every relative error is <= tol;
    a NaN on either side fails, with a NaN max_rel_error.  ShapeMismatch
    when either list is empty, ParameterError for a zero analytic level."""
    a_levels, o_levels = tuple(analytic_levels), oracle.eigenvalues
    if not a_levels or not o_levels:
        raise ShapeMismatch("cannot compare empty level lists")
    if 0.0 in a_levels:
        raise ParameterError("a zero analytic level has no relative error")
    rel = (abs(o - a) / abs(a) for a, o in zip(a_levels, o_levels))
    # the key ranks a NaN error above every number: max alone drops one that is not first
    max_rel = max(rel, key=lambda r: (math.isnan(r), r))
    passed = len(a_levels) == len(o_levels) and max_rel <= tol
    return CompareReport(a_levels, o_levels, max_rel, passed)
