"""Independent eigenvalue routes: finite differences, shooting, node counts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from singosc import oracle, spectrum
from singosc.errors import (
    BracketError,
    ConvergenceError,
    NonConvergence,
    ParameterError,
    ShapeMismatch,
    SingOscError,
    SupercriticalError,
)
from singosc.model import Domain, _box, admissible_beta, indicial_roots
from singosc.oracle import (
    _cosh_sinhc,
    _grid,
    _magnus_count_nodes,
    _richardson,
    OracleMethod,
    compare,
    fd_eigen,
    fd_eigen_extrapolated,
    frobenius_start,
    shoot_eigen,
    shoot_spectrum,
)
from singosc.spectrum import N_MAX, spectrum_table

FORMER_GRAM_BOX = 12.0  # the Gram rule's fixed box before it followed its states


def record_passes(monkeypatch):
    """The batch size of every pass shoot_spectrum integrates, in order."""
    sizes = []
    magnus_count_nodes = oracle._magnus_count_nodes

    def spy(grid, y, eps_arr, count=True):
        sizes.append(eps_arr.size)
        return magnus_count_nodes(grid, y, eps_arr, count)

    monkeypatch.setattr(oracle, "_magnus_count_nodes", spy)
    return sizes


def count_nodes(alpha, beta, eps, x_max):
    """Node counts, psi(x_max) and log_scale of a counting pass over the
    grid from the Frobenius start to x_max, with the steps shoot_spectrum
    takes for the batch's top energy, and the grid's steps."""
    x0 = oracle._x0(beta)
    y = oracle._frobenius_series(beta, eps, x0)
    grid = oracle._magnus_grid(alpha, x0, x_max, *oracle._steps(alpha, beta, np.max(eps)))
    return (*_magnus_count_nodes(grid, y, eps), grid.steps)


def max_error_over_residual(alpha, n_max, res):
    """Worst |level - closed form| of an oracle's levels 0 .. n_max over its
    residual estimate; the closed form is the reference only, never a seed."""
    want = np.array(spectrum_table(alpha, n_max, Domain.HALF_LINE).distinct_levels())
    return np.max(np.abs(np.array(res.eigenvalues) - want)) / res.residual_estimate


def shared_node_levels(alpha, k, s_min):
    """FD levels at h = 0.02, no Richardson, from s_min to the first node
    of the grid from -6 past ln _box of the window's top: the grids from
    -6 and from -15 share their nodes."""
    h = 0.02
    nu = admissible_beta(alpha) + 0.5
    top = oracle._window(alpha, k - 1)[1]
    s_max = -6.0 + h * math.ceil((math.log(_box(alpha, top)) + 6.0) / h)
    return oracle._fd_eigenvalues(alpha, nu, s_min, s_max, round((s_max - s_min) / h) - 1, top)[:k]


# (alpha, eps range width, whether the grid is padded to whole blocks; see block_case)
BLOCK_CASES = [
    (-0.2, 12.0, True), (-0.2, 12.3, False), (2.0, 12.3, True), (2.0, 13.9, False),
    (7.9, 12.0, True), (7.9, 14.0, False), (3e5, 12.1, True), (3e5, 15.0, False),
]


def block_case(alpha, width, padded, size=40):
    """size energies from 0.3 to width above the well's bottom, their beta
    and the box of their top energy; unless padded, the box moves back to
    the end of the grid's last whole block."""
    start = oracle._window(alpha, 0)[0]
    eps = np.linspace(start + 0.3, start + width, size)
    beta, box = admissible_beta(alpha), _box(alpha, eps[-1])
    if not padded:
        x = _grid(oracle._x0(beta), box, *oracle._steps(alpha, beta, eps[-1]))
        box = x[(x.size - 1) // oracle._BLOCK * oracle._BLOCK]
    return eps, beta, box


# 20 inputs like the oracle sweep's: alpha half from (-1/4, 0), half from (0, 8], n_max 4 or 8
SWEEP_LIKE = [
    (float(-0.25 * u if i % 2 else 8.0 * u), 4 + 4 * (i // 2 % 2))
    for i, u in enumerate(np.random.default_rng(1).uniform(1e-3, 1.0, 20))
]

FD_ALPHAS = (-0.2499999, -0.24999975, -0.2499, -0.249, -0.2435, -0.2, -0.1, 0.0, 0.5, 2.0, 7.5)


class TestFiniteDifference:
    def test_pure_oscillator(self):
        res = fd_eigen(0.0, k=3)
        want = np.array([1.5, 3.5, 5.5])
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 1e-4
        assert res.method is OracleMethod.FINITE_DIFFERENCE

    def test_repulsive_alpha(self):
        res = fd_eigen(2.0, k=3)
        want = np.array([2.5, 4.5, 6.5])
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 1e-4

    def test_residual_estimate_bounds_error(self):
        res = fd_eigen(0.5, k=2)
        want = np.array([1.8660254037844386, 3.8660254037844386])
        err = np.abs(res.eigenvalues - want).max()
        assert res.residual_estimate > 0
        assert err < 50 * res.residual_estimate + 1e-8

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            fd_eigen(-0.3, k=1)

    @pytest.mark.parametrize("alpha, k", [(1e5, 2), (2e4, 1), (1e6, 2), (2.0, 5)])
    def test_top_level_above_the_window_raises(self, alpha, k, monkeypatch):
        # a window 1.5 lower: level n_max, at least 2 n_max + 0.75 above its
        # bottom, lies above its top, and the box truncates it
        window = oracle._window

        def lowered(alpha, n_max):
            start, top = window(alpha, n_max)
            return start, top - 1.5

        monkeypatch.setattr(oracle, "_window", lowered)
        with pytest.raises(ConvergenceError, match="lies above"):
            fd_eigen(alpha, k)

    def test_levels_inside_the_box_return(self):
        # eps_7 = 46.6 at alpha = 1000 turns at x = 9.0
        res = fd_eigen(1000.0, 8)
        assert max_error_over_residual(1000.0, 7, res) <= 1.0

    @pytest.mark.parametrize(
        "alpha, k",
        [(1.2e4, 1), (1.5e4, 1), (1e4, 4), (1e5, 4), (1e6, 4), (0.0, 30), (45.96, 41)],
    )
    def test_levels_past_the_gram_box_lie_within_the_residual_estimate(self, alpha, k):
        # the box follows the window's top, past the former Gram box, and
        # the step follows its wavenumber: at alpha = 1.5e4 the box at 12 left
        # the ground level 27 residuals high, and at k = 41 a step of 0.02
        # left a residual above the levels
        res = fd_eigen(alpha, k)
        assert _box(alpha, max(res.eigenvalues)) > FORMER_GRAM_BOX
        assert max_error_over_residual(alpha, k - 1, res) <= 0.1

    @given(st.floats(-0.25, 1e6, exclude_min=True), st.integers(1, 20))
    @settings(max_examples=15, deadline=None)  # 600 random draws kept within 0.024
    @example(1e6, 20)
    @example(-0.2499999, 20)
    def test_levels_lie_within_the_residual_estimate_or_raise(self, alpha, k):
        try:
            res = fd_eigen(alpha, k)
        except SingOscError:
            return
        assert max_error_over_residual(alpha, k - 1, res) <= 1.0

    def test_residual_past_a_level_raises(self):
        # the inner end at x = e^-0.75: its term 3 e^(4 s_min) eps_top^2 =
        # 3 e^-3 6.509^2 = 6.33 passes the ground level 2.50, while the
        # levels stay in the window (top 7.414)
        with pytest.raises(ConvergenceError, match="exceeds a level"):
            _richardson(2.0, 1.5, -0.75, oracle._window(2.0, 2)[1], 3)

    def test_inner_end_past_the_window_raises(self):
        # the inner end at x = e^0.5 pushes level 2 of the fine grid's
        # matrix above the window's top 7.414 (at x = 1 it is still 6.86)
        with pytest.raises(ConvergenceError, match="level 2 lies above 7.41421"):
            _richardson(2.0, 1.5, 0.5, oracle._window(2.0, 2)[1], 3)

    @pytest.mark.parametrize("k", [9, 41])
    @pytest.mark.parametrize("alpha", [-0.2499, -0.2, 0.5, 2.0, 7.9])
    def test_inner_end_error_lies_within_its_term(self, alpha, k):
        # what the two-term condition at s_min = -6 misses, against the
        # same rows from -15: at most 0.47 of 3 e^(4 s_min) eps_top^2
        # (1.5e-8 at alpha = -0.2499, k = 9), round-off from alpha = 2 up
        near = shared_node_levels(alpha, k, -6.0)
        far = shared_node_levels(alpha, k, -15.0)
        assert np.max(np.abs(near - far)) <= 3.0 * math.exp(-24.0) * np.max(near) ** 2

    def test_inner_end_takes_the_stencils_exact_exponent(self, monkeypatch):
        # with kappa0 = nu in place of the stencil's exponent, row 0 misses
        # the grid's own e^(nu~ s) by order h^2, decaying only like
        # e^(2 nu s_min): 6.3e-8 at (alpha, k) = (-0.2, 5), against 1.1e-9
        import scipy.linalg

        alpha, k, h = -0.2, 5, 0.02
        far = shared_node_levels(alpha, k, -15.0)
        exact = shared_node_levels(alpha, k, -6.0)
        nu = math.sqrt(alpha + 0.25)
        kappa0 = nu * math.sqrt(1.0 + (0.5 * h * nu) ** 2)
        m0 = 0.5 * math.exp(-12.0) + math.exp(-12.0) / (2.0 * (1.0 + nu) * h)
        solve = scipy.linalg.eigvalsh_tridiagonal

        def nu_exponent(diag, off, **kwargs):
            diag = diag.copy()
            diag[0] -= (kappa0 - nu) / (h * m0)
            return solve(diag, off, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", nu_exponent)
        plain = shared_node_levels(alpha, k, -6.0)
        assert np.max(np.abs(exact - far)) <= 2e-9
        assert np.max(np.abs(plain - far)) >= 4e-8

    @pytest.mark.parametrize(
        "alpha, k",
        [(a, k) for a in (-0.2499, -0.2, 0.0, 0.5, 2.0, 7.9, 157.3, 1e4, 1e5) for k in (1, 5, 9)]
        + [(45.96, 41)],  # its coarse grid holds k + 1 levels below the top
    )
    def test_window_bisection_matches_index_bisection(self, alpha, k, monkeypatch):
        # every matrix the oracle bisects over (0, 2 top] gives the lowest k
        # levels that bisection by index gives, within twice the tolerance
        import scipy.linalg

        calls = []
        solve = scipy.linalg.eigvalsh_tridiagonal

        def spy(diag, off, **kwargs):
            mu = solve(diag, off, **kwargs)
            calls.append((diag, off, kwargs, mu))
            return mu

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", spy)
        fd_eigen(alpha, k)
        top = oracle._window(alpha, k - 1)[1]
        assert len(calls) == 2
        for diag, off, kwargs, mu in calls:
            assert kwargs["select"] == "v" and kwargs["select_range"] == (0, 2 * top)
            by_index = solve(
                diag, off, select="i", select_range=(0, k - 1), lapack_driver="stebz",
                tol=oracle._STEBZ_TOL,
            )
            assert np.max(np.abs(mu[:k] - by_index)) <= 2 * oracle._STEBZ_TOL
        if (alpha, k) == (45.96, 41):  # the fine grid, then the coarse one
            assert [mu.size for *_, mu in calls] == [k, k + 1]

    def test_step_follows_the_top_levels_wavenumber(self, monkeypatch):
        # the sweep's windows (kappa <= 21) keep the step _H_LOG; at k = 41
        # no step spans more than _PHASE radians of the top level
        steps = []
        solve = oracle._fd_eigenvalues

        def spy(alpha, nu, s_min, s_max, n, top):
            steps.append((s_max - s_min) / (n + 1))
            return solve(alpha, nu, s_min, s_max, n, top)

        monkeypatch.setattr(oracle, "_fd_eigenvalues", spy)
        fd_eigen(2.0, 9)
        assert 0.99 * oracle._H_LOG < steps[0] <= oracle._H_LOG
        steps.clear()
        fd_eigen(2.0, 41)
        top = oracle._window(2.0, 40)[1]
        assert steps[0] * math.sqrt(top**2 - 2.25) <= oracle._PHASE

    def test_one_window_per_call(self, monkeypatch):
        # nu, the window's top, the box and the step are taken once for
        # both grids of the Richardson pair
        calls = []
        window = oracle._window

        def spy(alpha, n_max):
            calls.append(n_max)
            return window(alpha, n_max)

        monkeypatch.setattr(oracle, "_window", spy)
        fd_eigen(2.0, 5)
        assert calls == [4]

    @pytest.mark.parametrize("k", [1, 5, 9])
    @pytest.mark.parametrize("e0", [1e-1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("alpha", FD_ALPHAS)
    def test_residual_bounds_error_with_the_wall(self, alpha, e0, k):
        # the grid's inner end at x = e0 instead of e^-6: the residual's
        # term 3 e0^4 eps_top^2 bounds what the two-term Frobenius condition
        # there misses (at e0 = 0.1 and k = 9, level 8 is 4e-4 high as nu ->
        # 0; the ground level stays on the step-error floor, as the condition
        # holds exactly for its u = e^(nu s - e^2s / 2))
        t = spectrum_table(alpha, k - 1, Domain.HALF_LINE)
        want = np.array(t.distinct_levels())
        top = oracle._window(alpha, k - 1)[1]
        res = _richardson(alpha, admissible_beta(alpha) + 0.5, math.log(e0), top, k)
        assert np.max(np.abs(np.array(res.eigenvalues) - want)) <= res.residual_estimate

    @pytest.mark.parametrize("k", [1, 4, 9])
    @pytest.mark.parametrize("alpha", [-0.2499, -0.2, -0.1, 0.0, 0.05, 0.3, 0.5, 0.7])
    def test_core_runs_the_minus_branch_from_its_signed_exponent(self, alpha, k):
        # nu = beta_minus + 1/2 < 0 puts beta_minus's two-term condition in
        # row 0 (kappa0 < 0), and the core returns its ladder 2n + beta_minus
        # + 3/2, the even ladder 2n + 1/2 at alpha = 0; the closed form is the
        # reference only (at most 0.017 of the residual, relative 2.6e-5, 618
        # rows); at (0.7, 9) the one residual, 0.0345, passes the ground level 0.025
        beta = indicial_roots(alpha).beta_minus
        top = oracle._window(alpha, k - 1)[1]
        if (alpha, k) == (0.7, 9):
            with pytest.raises(ConvergenceError, match="exceeds a level"):
                _richardson(alpha, beta + 0.5, oracle._S_MIN, top, k)
            return
        res = _richardson(alpha, beta + 0.5, oracle._S_MIN, top, k)
        want = 2.0 * np.arange(k) + beta + 1.5
        assert np.max(np.abs(np.array(res.eigenvalues) - want)) <= res.residual_estimate


class TestFdSpectrum:
    @pytest.mark.parametrize("k", [1, 5, 9])
    @pytest.mark.parametrize("alpha", FD_ALPHAS)
    def test_accuracy_residual_and_rows(self, alpha, k):
        res = fd_eigen(alpha, k)
        # the oracle's inner condition takes beta_plus, the branch 0 at alpha = 0
        t = spectrum_table(alpha, k - 1, Domain.HALF_LINE)
        want = np.array(t.distinct_levels())
        err = np.abs(np.array(res.eigenvalues) - want)
        assert res.method is OracleMethod.FINITE_DIFFERENCE
        assert np.max(err / want) <= 5e-3
        assert np.max(err) <= res.residual_estimate
        assert res.rows <= 1_500
        assert res.seconds > 0

    def test_oracles_do_not_call_the_closed_form(self, monkeypatch):
        want = {a: spectrum_table(a, 2, Domain.HALF_LINE).distinct_levels() for a in (-0.2, 2.0)}

        def closed_form(*args, **kwargs):
            raise AssertionError("an oracle called the closed form")

        monkeypatch.setattr(spectrum, "spectrum_table", closed_form)
        monkeypatch.setattr(spectrum, "halfline_state", closed_form)
        monkeypatch.setattr(spectrum, "_state", closed_form)
        for alpha, levels in want.items():
            assert fd_eigen(alpha, 3).eigenvalues == pytest.approx(levels, rel=1e-4)
            assert shoot_spectrum(alpha, 2).eigenvalues == pytest.approx(levels, abs=5e-6)


class TestWallExtrapolation:
    # fd_eigen_extrapolated, the name of the former inner-cutoff fit, is
    # kept for callers that look it up; it is the one grid now
    def test_is_the_one_oracle(self):
        assert fd_eigen_extrapolated is fd_eigen

    def test_attractive_alpha(self):
        res = fd_eigen_extrapolated(-0.2, k=3)
        t = spectrum_table(-0.2, 2, Domain.HALF_LINE)
        want = np.array(t.distinct_levels())
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 5e-3

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            fd_eigen_extrapolated(-0.26, k=1)


class TestLevelCounts:
    # a level count is an integer the oracle can hold, or a ParameterError
    @pytest.mark.parametrize("n_max", [-1, 2.5, N_MAX + 1, 10**20, math.nan])
    def test_shooting_n_max(self, n_max):
        with pytest.raises(ParameterError):
            shoot_spectrum(2.0, n_max)

    @pytest.mark.parametrize("k", [0, 2.5, 5000, math.nan])
    def test_fd_k(self, k):
        # k = 5000 needs a fine grid of about 476 000 rows, past _MAX_ROWS
        with pytest.raises(ParameterError):
            fd_eigen(2.0, k)

    @pytest.mark.parametrize(
        "alpha, k",
        [(2.0, 5000), (2.0, 10**20), (2.0, math.inf), (1e12, 1), (1e34, 1), (1e300, 1),
         (1.7976931348623157e308, 3)],
    )
    def test_fd_grid_out_of_reach_raises_before_any_matrix(self, alpha, k, monkeypatch):
        # past _MAX_ROWS, or a window whose top doubles round down to its
        # bottom (from alpha ~ 1e32, where a matrix entry alpha e^12 may
        # also overflow): a typed error, with no matrix built
        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(oracle, "_fd_eigenvalues", no_matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                fd_eigen(alpha, k)

    def test_fd_grid_up_to_the_cap_is_solved(self, monkeypatch):
        # k = 630 at alpha = 2 fits (29 959 fine rows) and is solved, and
        # k = 631 does not; the solve is stubbed, too slow for the suite
        rows = []

        def stub(alpha, nu, s_min, s_max, n, top):
            rows.append(n + 1)
            return np.arange(1.0, top)

        monkeypatch.setattr(oracle, "_fd_eigenvalues", stub)
        fd_eigen(2.0, 630)
        assert max(rows) <= oracle._MAX_ROWS
        with pytest.raises(ParameterError):
            fd_eigen(2.0, 631)

    def test_integral_float_count_is_an_integer(self):
        assert shoot_spectrum(2.0, 2.0).eigenvalues == shoot_spectrum(2.0, 2).eigenvalues


@pytest.mark.parametrize(
    "entry, args",
    [pytest.param(f, args, id=f.__name__) for f, args in (
        (shoot_spectrum, (2.0, 8)), (shoot_eigen, (2.0, 3)), (fd_eigen, (2.0, 5)),
        (frobenius_start, (2.0, 2.5, 1e-3)))],
)
def test_one_gate_call_per_public_call(entry, args, monkeypatch):
    # beta is resolved once at the entry and passed down as data
    calls = []
    gate = oracle.admissible_beta

    def spy(alpha, *rest):
        calls.append(alpha)
        return gate(alpha, *rest)

    monkeypatch.setattr(oracle, "admissible_beta", spy)
    entry(*args)
    assert calls == [2.0]


class TestFrobeniusStart:
    def test_leading_power(self):
        x0 = 1e-3
        psi, dpsi = frobenius_start(0.5, 1.8660254037844386, x0)
        beta = 0.3660254037844386
        assert psi == pytest.approx(x0 ** (beta + 1), rel=1e-5)
        assert dpsi == pytest.approx((beta + 1) * x0**beta, rel=1e-4)

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            frobenius_start(-0.25, 1.0, 1e-3)

    def test_truncated_series_rejected(self):
        # the ground state at alpha = 0.5 is x^(beta+1) e^(-x^2/2) up to a
        # constant; the 12 terms still give it at x0 = 1, not at 2 or 5
        psi, _ = frobenius_start(0.5, 1.8660254037844386, 1.0)
        assert psi == pytest.approx(math.exp(-0.5), rel=1e-10)
        for x0 in (2.0, 5.0):
            with pytest.raises(ParameterError, match="Frobenius series"):
                frobenius_start(0.5, 1.8660254037844386, x0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 1e300])
    def test_nonfinite_energy_rejected(self, eps):
        # a NaN or overflowing series must not come back as (nan, nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                frobenius_start(2.0, eps, 1e-3)


class TestShooting:
    def test_single_level(self):
        res = shoot_eigen(0.5, 0)
        assert res.eigenvalues[0] == pytest.approx(1.8660254037844386, abs=5e-6)
        assert res.method is OracleMethod.SHOOTING

    def test_free_particle_odd_ladder(self):
        res = shoot_spectrum(0.0, 1)
        assert res.eigenvalues == pytest.approx([1.5, 3.5], abs=5e-6)

    def test_attractive_alpha(self):
        res = shoot_spectrum(-0.1, 1)
        t = spectrum_table(-0.1, 1, Domain.HALF_LINE)
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            shoot_spectrum(-0.5, 1)

    @pytest.mark.parametrize("n_max", [1, 4, 8])
    @pytest.mark.parametrize(
        "alpha", [-0.2499, -0.2, -0.1, -0.01, 0.0, 1e-4, 0.5, 2.0, 3.3, 7.5, 8.0]
    )
    def test_two_passes_and_accuracy(self, alpha, n_max, monkeypatch):
        # one scan pass and one confirming pass
        passes = record_passes(monkeypatch)
        res = shoot_spectrum(alpha, n_max)
        # the oracle's Frobenius start takes beta_plus, the branch 0 at alpha = 0
        t = spectrum_table(alpha, n_max, Domain.HALF_LINE)
        assert len(passes) == 2
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)
        assert res.residual_estimate <= 1e-6 / 2
        assert res.steps > 0
        assert res.seconds > 0

    @pytest.mark.parametrize("n_max", [4, 8])
    @pytest.mark.parametrize("alpha", [-0.2499, -0.1, 0.0, 1e-4, 2.72, 6.08, 7.9])
    def test_error_is_well_inside_the_residual_estimate(self, alpha, n_max):
        # with no step controller the grid must leave margin: the worst
        # over 80 sweep inputs was 0.040 of the confirmed bracket
        res = shoot_spectrum(alpha, n_max)
        assert max_error_over_residual(alpha, n_max, res) <= 0.6

    @pytest.mark.parametrize("alpha", [-0.2499, 0.5, 7.9])
    def test_node_counts_bracket_each_level(self, alpha):
        # counted to x = 12, not to the confirming pass's own box: each level
        # lies within the residual estimate of the returned eigenvalue
        res = shoot_spectrum(alpha, 8)
        eps = np.array(res.eigenvalues)
        r = res.residual_estimate
        edges = np.concatenate((eps - r, eps + r))
        counts, *_ = count_nodes(alpha, admissible_beta(alpha), edges, FORMER_GRAM_BOX)
        np.testing.assert_array_equal(counts, [*range(9), *range(1, 10)])

    @pytest.mark.parametrize(
        "alpha, n_max, bound",
        [pytest.param(a, 8, 0.1, id=str(a)) for a in (-0.2499, 0.0, 0.5, 2.0, 7.9, 100.0, 1000.0)]
        + [(0.0, 40, 0.2), (1e4, 40, 0.2)],
    )
    def test_interpolation_leaves_margin(self, alpha, n_max, bound, monkeypatch):
        # the polynomial through 12 box-edge values _D_EPS apart places the
        # levels where a lattice 0.01 apart does, within 0.012 of the
        # residual estimate at n_max = 8 and 0.14 at n_max = 40: the
        # confirming pass keeps a margin
        res = shoot_spectrum(alpha, n_max)
        monkeypatch.setattr(oracle, "_D_EPS", 0.01)
        fine = shoot_spectrum(alpha, n_max)
        gap = np.max(np.abs(np.array(res.eigenvalues) - fine.eigenvalues))
        assert gap <= bound * res.residual_estimate

    def test_scan_integrates_a_coarse_lattice(self, monkeypatch):
        # the scan batch spans 2 n_max + 2 = 18 at _D_EPS = 0.18: 101
        # energies; the confirming batch is the 9 roots -+ _EPS_TOL / 2
        sizes = record_passes(monkeypatch)
        shoot_spectrum(2.0, 8)
        assert sizes == [101, 18]

    @pytest.mark.parametrize("alpha", [-0.2499, 0.5, 15231.232])
    def test_narrowest_window_holds_one_stencil(self, alpha, monkeypatch):
        # n_max = 0: the window, 2 wide, holds floor(2 / 0.18) + 1 = 12
        # energies, just the one stencil (0.2 apart it held 11 and raised
        # BracketError)
        sizes = record_passes(monkeypatch)
        res = shoot_spectrum(alpha, 0)
        t = spectrum_table(alpha, 0, Domain.HALF_LINE)
        assert sizes == [oracle._STENCIL, 2]
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)

    def test_coarse_lattice_fails_the_confirming_pass(self, monkeypatch):
        # the 12-point polynomial through box-edge values 0.4 apart misses
        # most levels by more than the confirmed bracket: an error, not a
        # wrong level (0.25 apart it still places them, 0.24 of it off)
        monkeypatch.setattr(oracle, "_D_EPS", 0.4)
        with pytest.raises(NonConvergence, match="do not bracket levels"):
            shoot_spectrum(2.0, 8)

    def test_two_hundred_levels_return(self):
        # one box for all 201 levels, set by the top energy, makes F of
        # the low levels vary steeply (an 8-point polynomial 0.1 apart put
        # level 0 outside the bracket); level 0 lies 0.24 residuals off
        res = shoot_spectrum(0.0, 200)
        t = spectrum_table(0.0, 200, Domain.HALF_LINE)
        assert len(res.eigenvalues) == 201 and np.all(np.diff(res.eigenvalues) > 0)
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)
        assert max_error_over_residual(0.0, 200, res) <= 1.0

    @pytest.mark.parametrize(
        "alpha, n_max",
        [(157.3, 40), (1e4, 40), (0.0, 180), (157.3, 150), (1000.0, 150), (1e4, 150)],
    )
    def test_high_levels_lie_within_the_residual_estimate(self, alpha, n_max):
        # the step error stays inside the confirmed bracket: 0.085, 0.138,
        # 0.198, 0.632, 0.676 and 0.798 of it, the worst at level 0 or 1
        # from n_max = 150 on; a fixed step of 0.04 leaves the top levels
        # of the last three 1.20, 2.46 and 1.27 of it off
        res = shoot_spectrum(alpha, n_max)
        assert max_error_over_residual(alpha, n_max, res) <= 1.0

    def test_step_follows_the_top_levels_wavenumber(self, monkeypatch):
        # h = min(_H_MAX, _STEP_PHASE / k), k the largest wavenumber of the
        # scan lattice's top energy, and graded steps of g x, g = min(h,
        # _E_FOLDS / nu): each pass's grid, with the scan's top energy
        scans = []
        magnus_count_nodes = oracle._magnus_count_nodes

        def spy(grid, y, eps_arr, count=True):
            if not count:
                scans.append((grid, eps_arr[-1]))
            return magnus_count_nodes(grid, y, eps_arr, count)

        def widths(alpha, n_max):
            scans.clear()
            shoot_spectrum(alpha, n_max)
            (grid, top), = scans
            x = grid.x[: grid.steps + 1]
            k = math.sqrt(2.0 * top - 2.0 * math.sqrt(max(alpha, 0.0)))
            return x[:-1], np.diff(x), k

        monkeypatch.setattr(oracle, "_magnus_count_nodes", spy)
        # sweep windows (k <= 6.04) take the longest step
        for alpha, n_max in SWEEP_LIKE:
            _, h, k = widths(alpha, n_max)
            assert k * oracle._H_MAX < oracle._STEP_PHASE
            assert np.max(h) == pytest.approx(oracle._H_MAX, rel=1e-12)
        # at n_max = 150 no step spans more than _STEP_PHASE radians of the
        # top level's oscillation, so psi cannot change sign twice in one
        # (a step of 0.04 would span 2.5 rad at n = 1000)
        _, h, k = widths(0.0, 150)
        assert np.max(h) < oracle._H_MAX
        assert np.max(h) * k <= oracle._STEP_PHASE * (1.0 + 1e-12) < math.pi
        # at alpha = 1e5 no graded step spans more than _E_FOLDS e-folds of
        # x^(beta + 1); without the cap the state overflows
        nu = admissible_beta(1e5) + 0.5
        x, h, _ = widths(1e5, 3)
        assert oracle._E_FOLDS / nu < np.max(h)
        assert np.max(h / x) * nu <= oracle._E_FOLDS * (1.0 + 1e-12)

    def test_window_starts_at_the_well_bottom(self):
        # the window starts at the well's bottom, eps = 20, and holds
        # eps_3 = 27.0 below its top, 28
        res = shoot_spectrum(400.0, 3)
        t = spectrum_table(400.0, 3, Domain.HALF_LINE)
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)

    @pytest.mark.parametrize(
        "alpha, n_max", [(0.0, 30), (0.0, 35), (0.0, 72), (1e4, 3), (1e5, 3), (15231.232, 0)]
    )
    def test_levels_past_the_gram_box_lie_within_the_residual_estimate(self, alpha, n_max):
        # each pass integrates to its own top energy's turning point plus 3,
        # past the former Gram box: eps_72 = 145.5 turns at 17.1, and at
        # alpha = 1e5 the well's bottom alpha^(1/4) = 17.8 lies past it
        res = shoot_spectrum(alpha, n_max)
        assert _box(alpha, max(res.eigenvalues)) > FORMER_GRAM_BOX
        assert max_error_over_residual(alpha, n_max, res) <= 1.0

    @given(st.floats(-0.25, 3e5, exclude_min=True), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    @example(3e5, 8)
    def test_levels_lie_within_the_residual_estimate_or_raise(self, alpha, n_max):
        try:
            res = shoot_spectrum(alpha, n_max)
        except SingOscError:
            return
        assert max_error_over_residual(alpha, n_max, res) <= 1.0

    @given(st.floats(-0.25, 2e4, exclude_min=True), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)  # 403 random draws kept within 0.18
    @seed(1)
    @example(157.3, 40)
    @example(2e4, 40)
    @example(-0.2499999, 40)
    def test_up_to_forty_levels_lie_within_the_residual_estimate_or_raise(self, alpha, n_max):
        try:
            res = shoot_spectrum(alpha, n_max)
        except SingOscError:
            return
        assert max_error_over_residual(alpha, n_max, res) <= 1.0

    @pytest.mark.parametrize("alpha", [2e6, 1e20, 1e30])
    def test_huge_alpha_fails_the_series_before_any_grid(self, alpha, monkeypatch):
        # x0 = 0.05 sqrt(beta + 1) lies too far out for the 12-term series;
        # the check runs before a grid out to the turning point is built
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(oracle, "_grid", no_grid)
        with pytest.raises(ParameterError, match="Frobenius series"):
            shoot_spectrum(alpha, 3)

    @pytest.mark.parametrize("alpha, n_max", [(8.8, 3), (50.0, 3), (1000.0, 8)])
    def test_one_window_at_large_alpha(self, alpha, n_max, monkeypatch):
        # the window reaches 2 n_max + 2 past the well's bottom, which
        # clears level n_max by at least 0.69: no pass is repeated
        passes = record_passes(monkeypatch)
        res = shoot_spectrum(alpha, n_max)
        t = spectrum_table(alpha, n_max, Domain.HALF_LINE)
        assert len(passes) == 2
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), rel=1e-6)

    @pytest.mark.parametrize("n_max", [0, 4, 8, 40])
    @pytest.mark.parametrize("alpha", [-0.2499, -0.1, 0.0, 0.5, 2.72, 7.9])
    def test_scan_sign_counts_are_node_counts(self, alpha, n_max, monkeypatch):
        # the scan counts levels by the sign changes of psi(box) over its
        # lattice alone; a counting pass over the same grid and batch gives
        # the same counts, and the same psi and log_scale bit for bit
        passes = []
        magnus_count_nodes = oracle._magnus_count_nodes

        def spy(grid, y, eps_arr, count=True):
            out = magnus_count_nodes(grid, y, eps_arr, count)
            passes.append((grid, y, eps_arr, out))
            return out

        monkeypatch.setattr(oracle, "_magnus_count_nodes", spy)
        shoot_spectrum(alpha, n_max)
        grid, y, eps, (scan_counts, psi, log_scale) = passes[0]
        assert scan_counts is None
        counts, psi_c, log_scale_c = magnus_count_nodes(grid, y, eps)
        np.testing.assert_array_equal(oracle._sign_counts(psi), counts)
        np.testing.assert_array_equal(psi_c, psi)
        np.testing.assert_array_equal(log_scale_c, log_scale)
        assert counts[-1] == n_max + 1  # the window holds every level

    def test_extra_sign_change_in_the_scan_raises(self, monkeypatch):
        # psi(box) flipped above eps = 9.5, between levels 3 (8.5) and 4
        # (10.5) at alpha = 2: one sign change the node count does not see,
        # so the scan numbers levels 4 .. 8 one too high, and level 3's
        # stencil straddles the flip; the confirming pass, which counts
        # nodes, refuses them all rather than return a level
        magnus_count_nodes = oracle._magnus_count_nodes

        def flip(grid, y, eps_arr, count=True):
            counts, psi, log_scale = magnus_count_nodes(grid, y, eps_arr, count)
            if not count:
                psi = np.where(eps_arr > 9.5, -psi, psi)
            return counts, psi, log_scale

        monkeypatch.setattr(oracle, "_magnus_count_nodes", flip)
        with pytest.raises(NonConvergence, match=r"do not bracket levels \[3, 4, 5, 6, 7, 8\]$"):
            shoot_spectrum(2.0, 8)

    def test_newton_on_powers_matches_horner(self, monkeypatch):
        # p and p' from one table of powers t^k per step against Horner's
        # rule, the reference, on every stencil of 20 sweep-like inputs
        def horner_roots(eps, psi, log_scale, j):
            with np.errstate(divide="ignore"):
                log_f = np.log(np.abs(psi)) + log_scale
            f = np.sign(psi) * np.exp(log_f - log_f.max(axis=1, keepdims=True))
            coef = f @ oracle._POLYNOMIAL.T
            rows = np.arange(j.size)
            fa, fb = f[rows, j - 1], f[rows, j]
            t = j - 1 + fa / (fa - fb)
            for _ in range(oracle._NEWTON_STEPS):
                p, dp = coef[:, -1], 0.0
                for c in coef[:, -2::-1].T:
                    dp = dp * t + p
                    p = p * t + c
                t = np.clip(t - p / dp, j - 1, j)
            return eps[:, 0] + oracle._D_EPS * t

        calls = []
        polynomial_roots = oracle._polynomial_roots

        def spy(*args):
            calls.append((args, polynomial_roots(*args)))
            return calls[-1][1]

        monkeypatch.setattr(oracle, "_polynomial_roots", spy)
        for alpha, n_max in SWEEP_LIKE:
            shoot_spectrum(alpha, n_max)
        assert len(calls) == len(SWEEP_LIKE)
        for args, roots in calls:
            np.testing.assert_allclose(roots, horner_roots(*args), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [20000.0, 20736.0])
    def test_window_of_fewer_than_a_stencil_is_not_integrated(self, alpha, monkeypatch):
        # the well's bottom sqrt(alpha * 1e30) lies in [2^56, 2^57), where
        # doubles are 16 apart: the window's top, 2 above it, rounds to it,
        # leaving one energy
        calls = []
        monkeypatch.setattr(oracle, "_magnus_count_nodes", lambda *a: calls.append(a))
        with pytest.raises(BracketError, match=r"levels \[0\]"):
            shoot_spectrum(alpha * 1e30, 0)
        assert calls == []


class TestNodeCounts:
    @pytest.mark.parametrize("alpha", [-0.2, 2.0, 7.5])
    def test_total_count_is_levels_below(self, alpha):
        # with the tail flip counted, the count is the number of levels
        # below eps; energies stay 0.05 away from every level
        t = spectrum_table(alpha, 12, Domain.HALF_LINE)
        levels = np.array(t.distinct_levels())
        eps = np.linspace(0.3, 24.0, 200)
        eps = eps[np.min(np.abs(eps[:, None] - levels), axis=1) > 0.05]
        beta = admissible_beta(alpha)
        counts, psi, _, _ = count_nodes(alpha, beta, eps, _box(alpha, eps.max()))
        np.testing.assert_array_equal(counts, np.searchsorted(levels, eps))
        # the box-edge value changes sign with every counted node
        np.testing.assert_array_equal(np.sign(psi), (-1.0) ** counts)

    def test_log_scale_carries_the_renormalization(self, monkeypatch):
        # scaling a member down rescales only its state: the node counts
        # and psi(x_max) e^(log_scale) stay the same
        eps = np.linspace(0.3, 20.0, 40)
        counts, psi, log_scale, steps = count_nodes(2.0, 1.0, eps, FORMER_GRAM_BOX)
        monkeypatch.setattr(oracle, "_RENORM_LIMIT", 1e3)
        counts_r, psi_r, log_scale_r, steps_r = count_nodes(2.0, 1.0, eps, FORMER_GRAM_BOX)
        assert np.all(log_scale == 0.0) and np.all(log_scale_r > 0.0)
        assert steps_r == steps
        np.testing.assert_array_equal(counts_r, counts)
        np.testing.assert_allclose(psi_r * np.exp(log_scale_r), psi, rtol=1e-12)

    def test_sign_changes_are_counted_chunk_by_chunk(self):
        # only one chunk of states is kept: the states of 3 000 energies
        # after each of 1 447 steps (of 0.0204) would take 69 MB
        eps = np.linspace(0.3, 300.0, 3000)
        tracemalloc.start()
        try:
            counts, _, _, steps = count_nodes(0.0, 0.0, eps, _box(0.0, 300.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == 1447 and counts[-1] == 150
        assert peak <= 16e6

    @pytest.mark.parametrize("renorm_limit", [oracle._RENORM_LIMIT, 1e3])
    @pytest.mark.parametrize("alpha, width, padded", BLOCK_CASES)
    def test_blocks_step_like_single_steps(self, alpha, width, padded, renorm_limit, monkeypatch):
        # a block of 1 steps one at a time; 16-step blocks give the same
        # node counts and steps, and psi(x_max) e^(log_scale) to rounding
        monkeypatch.setattr(oracle, "_RENORM_LIMIT", renorm_limit)
        eps, beta, box = block_case(alpha, width, padded)
        counts, psi, log_scale, steps = count_nodes(alpha, beta, eps, box)
        assert (steps % oracle._BLOCK != 0) == padded
        monkeypatch.setattr(oracle, "_BLOCK", 1)
        counts_1, psi_1, log_scale_1, steps_1 = count_nodes(alpha, beta, eps, box)
        assert steps_1 == steps
        np.testing.assert_array_equal(counts_1, counts)
        # compared in logs, as at alpha = 3e5 the product overflows: 1e-12
        # relative, plus the rounding of a log_scale summed over up to
        # hundreds of renormalizations (2.0e-12 at 3e5 with a limit of 1e3)
        np.testing.assert_array_equal(np.sign(psi_1), np.sign(psi))
        log_1 = np.log(np.abs(psi_1)) + log_scale_1
        log_16 = np.log(np.abs(psi)) + log_scale
        np.testing.assert_allclose(log_1, log_16, rtol=100 * np.finfo(float).eps, atol=1e-12)

    @pytest.mark.parametrize("renorm_limit", [oracle._RENORM_LIMIT, 1e3])
    @pytest.mark.parametrize("alpha, width, padded", BLOCK_CASES)
    def test_span_changes_no_bit(self, alpha, width, padded, renorm_limit, monkeypatch):
        # spans are whole blocks, and the serial loop applies the same
        # products in the same order: one block per span and the default
        # span give the same counts, psi, log_scale and steps, bit for bit
        monkeypatch.setattr(oracle, "_RENORM_LIMIT", renorm_limit)
        eps, beta, box = block_case(alpha, width, padded, size=100)
        default = count_nodes(alpha, beta, eps, box)
        # the default takes several spans
        assert default[3] > oracle._BLOCK * (oracle._SPAN // (oracle._BLOCK * eps.size))
        monkeypatch.setattr(oracle, "_SPAN", oracle._BLOCK * eps.size)
        for one_block, got in zip(count_nodes(alpha, beta, eps, box), default):
            np.testing.assert_array_equal(one_block, got)

    @pytest.mark.parametrize("span, row", [(0, 7), (1, 23)])
    def test_nan_propagator_inside_a_block_raises(self, span, row, monkeypatch):
        # one NaN propagator in the middle of a block, in the first span or
        # a later one, stops the pass at the state check with no warning:
        # the sign of a NaN is never counted
        cosh_sinhc = oracle._cosh_sinhc
        spans = []

        def one_nan(z):
            cosh, sinhc = cosh_sinhc(z)
            if len(spans) == span:
                sinhc[row, 1] = math.nan
            spans.append(len(z))
            return cosh, sinhc

        monkeypatch.setattr(oracle, "_cosh_sinhc", one_nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="not finite"):
                count_nodes(2.0, 1.0, np.linspace(1.5, 19.0, 181), _box(2.0, 19.0))
        assert len(spans) == span + 1

    def test_einsum_calls_are_a_fraction_of_the_steps(self, monkeypatch):
        # blocks of 16 steps: one serial product per block, not per step,
        # and batched products over every block of a span
        class NumpySpy:
            einsum_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def einsum(self, *args, **kwargs):
                self.einsum_calls += 1
                return np.einsum(*args, **kwargs)

        spy = NumpySpy()
        monkeypatch.setattr(oracle, "np", spy)
        res = shoot_spectrum(2.0, 8)
        # both passes step the one grid of 157 steps out to _box(2, 19.41),
        # that of the scan lattice's top energy
        assert res.steps == 314
        assert spy.einsum_calls <= res.steps / 4

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 1e300])
    def test_nonfinite_energy_raises(self, eps):
        # the series check at the start turns the energy away, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="Frobenius series"):
                count_nodes(2.0, 1.0, np.array([1.0, eps]), 9.0)

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_nonfinite_state_raises(self, monkeypatch):
        # every start the series check passes keeps the state finite; one
        # that is not finite still stops the pass at the state check
        monkeypatch.setattr(
            oracle, "_frobenius_series", lambda beta, eps_arr, x0: np.full((2, eps_arr.size), np.inf)
        )
        with pytest.raises(NonConvergence, match="not finite"):
            count_nodes(2.0, 1.0, np.array([1.0, 3.0]), _box(2.0, 3.0))

    def test_box_stops_before_x_max(self):
        # at alpha = 2 the top energy 20 turns at x = 6.3; the pass to 9.3
        # skips the steps that chase the growing tail out to 12
        eps = np.arange(0.25, 20.0, 0.5)
        box = _box(2.0, 20.0)
        assert box == pytest.approx(math.sqrt(20.0 + math.sqrt(398.0)) + 3.0)
        to_box, _, _, steps = count_nodes(2.0, 1.0, eps, box)
        to_cap, _, _, steps_cap = count_nodes(2.0, 1.0, eps, FORMER_GRAM_BOX)
        np.testing.assert_array_equal(to_box, to_cap)
        assert steps < steps_cap

    @pytest.mark.parametrize(
        "alpha, x_max", [(2.0, 9.3), (0.0, FORMER_GRAM_BOX), (1000.0, 5.0), (1e5, 23.0)]
    )
    def test_grid_is_graded_then_uniform(self, alpha, x_max):
        # steps of g x, then of h, for the window of 9 levels: g = h = 0.07
        # up to alpha = 1000, and g = 10 / nu = 0.032 at alpha = 1e5
        beta = admissible_beta(alpha)
        x0 = oracle._x0(beta)
        step, grade = oracle._steps(alpha, beta, oracle._window(alpha, 8)[1])
        x = _grid(x0, x_max, step, grade)
        h = np.diff(x)
        assert x[0] == x0
        assert x[-1] == x_max and np.all(h > 0)
        np.testing.assert_allclose(h[:-1], np.minimum(grade * x[:-2], step), rtol=1e-9)

    def test_box_is_the_turning_point_plus_the_margin(self):
        # with no cap: eps = 144 turns at sqrt(288) = 17.0, past x = 12
        assert _box(0.0, 144.0) == math.sqrt(288.0) + 3.0
        # below the well's bottom, eps < sqrt(alpha), the inner root counts as 0
        assert _box(400.0, 10.0) == pytest.approx(math.sqrt(10.0) + 3.0)


class TestMagnusPropagator:
    # no local error control is left: the grid's error is checked by
    # refining it and by the two ways a step's propagator is evaluated
    @pytest.mark.parametrize("alpha, n_max", [(157.3, 20), (1000.0, 20)])
    def test_levels_converge_as_h_to_the_sixth(self, alpha, n_max, monkeypatch):
        # on grids of twice, once and half the step; levels from n = 5 on,
        # whose differences lie well above the polynomial placement's floor
        # (about 1e-10 at the low levels); 61.8-66.0 measured
        levels, constants = [], ("_H_MAX", "_STEP_PHASE", "_E_FOLDS")
        defaults = [getattr(oracle, name) for name in constants]
        for refine in (0.5, 1, 2):
            for name, value in zip(constants, defaults):
                monkeypatch.setattr(oracle, name, value / refine)
            levels.append(np.array(shoot_spectrum(alpha, n_max).eigenvalues[5:]))
        coarse, fine = levels[0] - levels[1], levels[1] - levels[2]
        assert np.min(np.abs(coarse)) > 1e-8  # well above rounding
        np.testing.assert_allclose(coarse / fine, 64.0, rtol=0.1)

    def test_taylor_and_closed_form_agree_at_the_switch(self, monkeypatch):
        z = oracle._TAYLOR_MAX * np.array([-1.0, -0.9, 0.9, 1.0])
        taylor = _cosh_sinhc(z)
        monkeypatch.setattr(oracle, "_TAYLOR_MAX", 0.0)
        closed = _cosh_sinhc(z)
        np.testing.assert_allclose(taylor, closed, rtol=2e-15, atol=0)
        assert closed[0][0] == math.cos(math.sqrt(-z[0]))

    def test_large_alpha_takes_the_closed_form(self, monkeypatch):
        # the graded steps near the origin reach kappa^2 ~ g^2 alpha = 4.9
        # at alpha = 1000 (g = 0.07), whose levels test_one_window_at_large_alpha
        # pins at rel 1e-6
        largest = []

        def spy(z):
            largest.append(float(np.max(z)))
            return _cosh_sinhc(z)

        monkeypatch.setattr(oracle, "_cosh_sinhc", spy)
        shoot_spectrum(1000.0, 8)
        assert max(largest) > oracle._TAYLOR_MAX


class TestCompare:
    def test_pass_report(self):
        t = spectrum_table(0.5, 2, Domain.HALF_LINE)
        res = shoot_spectrum(0.5, 2)
        rep = compare(t, res, tol=1e-4)
        assert rep.passed
        assert rep.max_rel_error < 1e-4
        assert len(rep.rel_errors) == 3

    def test_tight_tolerance_fails(self):
        t = spectrum_table(0.5, 1, Domain.HALF_LINE)
        res = shoot_spectrum(0.5, 1)
        rep = compare(t, res, tol=1e-12)
        assert not rep.passed

    def test_fullline_free_case_notes_dirichlet_blindness(self):
        t = spectrum_table(0.0, 1, Domain.FULL_LINE)
        res = shoot_spectrum(0.0, 1)
        rep = compare(t, res, tol=1e-3)
        assert "even" in rep.note

    def test_empty_oracle_rejected(self):
        import dataclasses

        t = spectrum_table(0.5, 1, Domain.HALF_LINE)
        res = shoot_spectrum(0.5, 0)
        empty = dataclasses.replace(res, eigenvalues=())
        with pytest.raises(ShapeMismatch):
            compare(t, empty, tol=1e-4)
