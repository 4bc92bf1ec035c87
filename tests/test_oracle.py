"""Independent eigenvalue routes: finite differences, shooting, node counts."""

import math
import warnings

import numpy as np
import pytest

from singosc import oracle, spectrum
from singosc.errors import (
    BracketError,
    ConvergenceError,
    NonConvergence,
    ParameterError,
    ShapeMismatch,
    SupercriticalError,
)
from singosc.model import Domain, admissible_beta
from singosc.oracle import (
    _box,
    _cosh_sinhc,
    _fd_result,
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
from singosc.quad import X_MAX
from singosc.spectrum import N_MAX, spectrum_table


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

    @pytest.mark.parametrize("alpha, k", [(1e5, 2), (2e4, 1), (1e6, 2)])
    def test_levels_the_box_truncates_raise(self, alpha, k):
        # the top level turns past X_MAX: the box pushes it up (441.7 and
        # 455.8 for 317.2 and 319.2 at alpha = 1e5) by more than the residual
        with pytest.raises(ConvergenceError, match="turns past X_MAX"):
            fd_eigen(alpha, k)

    def test_levels_inside_the_box_return(self):
        # eps_7 = 46.6 at alpha = 1000 turns at x = 9.0
        res = fd_eigen(1000.0, 8)
        want = np.array(spectrum_table(1000.0, 7, Domain.HALF_LINE).distinct_levels())
        assert np.max(np.abs(np.array(res.eigenvalues) - want)) <= res.residual_estimate

    def test_unresolved_grid_raises(self):
        # the one grid's step near x = 12 (0.24 in x) cannot hold 30
        # levels: the step error passes the levels
        with pytest.raises(ConvergenceError, match="exceeds a level"):
            fd_eigen(-0.2, k=30)

    @pytest.mark.parametrize("k", [1, 5, 9])
    @pytest.mark.parametrize("e0", [1e-1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("alpha", FD_ALPHAS)
    def test_residual_bounds_error_with_the_wall(self, alpha, e0, k):
        # the grid's inner end at x = e0 instead of e^-15: the residual's
        # term 3 e0^2 max|eps| bounds what the Frobenius condition there
        # misses (at e0 = 0.1 the ground level is 1% high as nu -> 0)
        t = spectrum_table(alpha, k - 1, Domain.HALF_LINE)
        want = np.array(t.distinct_levels())
        res = _fd_result(*_richardson(alpha, math.log(e0), k))
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

    def test_one_grid_for_every_alpha(self):
        assert len({fd_eigen(alpha, k).rows for alpha in FD_ALPHAS for k in (1, 9)}) == 1

    def test_oracles_do_not_call_the_closed_form(self, monkeypatch):
        want = {a: spectrum_table(a, 2, Domain.HALF_LINE).distinct_levels() for a in (-0.2, 2.0)}

        def closed_form(*args, **kwargs):
            raise AssertionError("an oracle called the closed form")

        monkeypatch.setattr(spectrum, "spectrum_table", closed_form)
        monkeypatch.setattr(spectrum, "halfline_state", closed_form)
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
        # the coarse grid of the Richardson pair holds 438 levels
        with pytest.raises(ParameterError):
            fd_eigen(2.0, k)

    def test_integral_float_count_is_an_integer(self):
        assert shoot_spectrum(2.0, 2.0).eigenvalues == shoot_spectrum(2.0, 2).eigenvalues


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
    def test_two_passes_and_accuracy(self, alpha, n_max):
        # one scan pass and one confirming pass
        res = shoot_spectrum(alpha, n_max)
        # the oracle's Frobenius start takes beta_plus, the branch 0 at alpha = 0
        t = spectrum_table(alpha, n_max, Domain.HALF_LINE)
        assert res.passes == 2
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)
        assert res.residual_estimate <= 1e-6 / 2
        assert res.steps > 0
        assert res.seconds > 0

    @pytest.mark.parametrize("n_max", [4, 8])
    @pytest.mark.parametrize("alpha", [-0.2499, -0.1, 0.0, 1e-4, 2.72, 6.08, 7.9])
    def test_error_is_well_inside_the_residual_estimate(self, alpha, n_max):
        # with no step controller the fixed grid must leave margin: the
        # worst over 71 sweep inputs was 0.11 of the confirmed bracket
        res = shoot_spectrum(alpha, n_max)
        want = np.array(spectrum_table(alpha, n_max, Domain.HALF_LINE).distinct_levels())
        assert np.max(np.abs(np.array(res.eigenvalues) - want)) <= 0.6 * res.residual_estimate

    @pytest.mark.parametrize("alpha", [-0.2499, 0.5, 7.9])
    def test_node_counts_bracket_each_level(self, alpha):
        # counted to X_MAX, not to the confirming pass's own box: each level
        # lies within the residual estimate of the returned eigenvalue
        res = shoot_spectrum(alpha, 8)
        eps = np.array(res.eigenvalues)
        r = res.residual_estimate
        counts, *_ = _magnus_count_nodes(alpha, np.concatenate((eps - r, eps + r)), X_MAX)
        np.testing.assert_array_equal(counts, [*range(9), *range(1, 10)])

    @pytest.mark.parametrize("alpha", [-0.2499, 0.0, 0.5, 2.0, 7.9, 100.0, 1000.0])
    def test_interpolation_leaves_margin(self, alpha, monkeypatch):
        # the polynomial through 8 box-edge values _D_EPS apart places the
        # levels where a lattice 0.01 apart does, within 0.03 of the
        # residual estimate: the confirming pass keeps a wide margin
        res = shoot_spectrum(alpha, 8)
        monkeypatch.setattr(oracle, "_D_EPS", 0.01)
        fine = shoot_spectrum(alpha, 8)
        gap = np.max(np.abs(np.array(res.eigenvalues) - fine.eigenvalues))
        assert gap <= 0.1 * res.residual_estimate

    def test_scan_integrates_a_coarse_lattice(self, monkeypatch):
        # the scan batch spans 2 n_max + 2 = 18 at _D_EPS = 0.1: 181
        # energies; the confirming batch is the 9 roots -+ _EPS_TOL / 2
        sizes = []
        count_nodes = oracle._magnus_count_nodes

        def spy(alpha, eps_arr, x_max):
            sizes.append(eps_arr.size)
            return count_nodes(alpha, eps_arr, x_max)

        monkeypatch.setattr(oracle, "_magnus_count_nodes", spy)
        shoot_spectrum(2.0, 8)
        assert len(sizes) == 2
        assert sizes[0] <= 200 and sizes[1] == 18

    def test_coarse_lattice_fails_the_confirming_pass(self, monkeypatch):
        # the 8-point polynomial through box-edge values 0.25 apart misses
        # the levels by more than the confirmed bracket: an error, not a
        # wrong level
        monkeypatch.setattr(oracle, "_D_EPS", 0.25)
        with pytest.raises(NonConvergence, match="do not bracket levels"):
            shoot_spectrum(2.0, 8)

    def test_window_starts_at_the_well_bottom(self):
        # the window starts at the well's bottom, eps = 20, and holds
        # eps_3 = 27.0 below its top, 28
        res = shoot_spectrum(400.0, 3)
        t = spectrum_table(400.0, 3, Domain.HALF_LINE)
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)

    def test_windows_below_the_well_bottom_are_skipped(self, monkeypatch):
        # at alpha = 1e5 the well's bottom x = alpha^(1/4) = 17.8 lies past
        # X_MAX: the window is empty and nothing is integrated
        calls = []
        monkeypatch.setattr(oracle, "_magnus_count_nodes", lambda *a: calls.append(a))
        with pytest.raises(BracketError, match=r"levels \[0, 1, 2, 3\] in eps <= 316.2"):
            shoot_spectrum(1e5, 3)
        assert calls == []

    def test_scan_stops_at_the_potential_at_x_max(self):
        # the scan gives up at V(X_MAX) = 72, below eps_72 = 145.5
        with pytest.raises(BracketError, match="eps <= 72$"):
            shoot_spectrum(0.0, 72)

    @pytest.mark.parametrize("alpha, n_max", [(8.8, 3), (50.0, 3), (1000.0, 8)])
    def test_one_window_at_large_alpha(self, alpha, n_max):
        # the window reaches 2 n_max + 2 past the well's bottom, which
        # clears level n_max by at least 0.69: no pass is repeated
        res = shoot_spectrum(alpha, n_max)
        t = spectrum_table(alpha, n_max, Domain.HALF_LINE)
        assert res.passes == 2
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), rel=1e-6)

    def test_levels_whose_turning_point_leaves_the_box_raise(self):
        # eps_36 = 73.5 turns at x = 12.1 > X_MAX; a box clamped at X_MAX
        # would place it 7.7e-3 off with a residual estimate of 5e-7
        with pytest.raises(BracketError, match=r"levels \[36\] in eps <= 72$"):
            shoot_spectrum(0.0, 36)

    @pytest.mark.parametrize("alpha", [20000.0, 20736.0])
    def test_window_of_fewer_than_eight_energies_is_not_integrated(self, alpha, monkeypatch):
        # V(X_MAX) - sqrt(alpha) = (X_MAX^2 - sqrt(alpha))^2 / (2 X_MAX^2)
        # is 0.023 and 0: too narrow for one 8-energy stencil
        calls = []
        monkeypatch.setattr(oracle, "_magnus_count_nodes", lambda *a: calls.append(a))
        with pytest.raises(BracketError, match=r"levels \[0\]"):
            shoot_spectrum(alpha, 0)
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
        counts, psi, _, _ = _magnus_count_nodes(alpha, eps, _box(alpha, eps.max()))
        np.testing.assert_array_equal(counts, np.searchsorted(levels, eps))
        # the box-edge value changes sign with every counted node
        np.testing.assert_array_equal(np.sign(psi), (-1.0) ** counts)

    def test_log_scale_carries_the_renormalization(self, monkeypatch):
        # scaling a member down rescales only its state: the node counts
        # and psi(x_max) e^(log_scale) stay the same
        eps = np.linspace(0.3, 20.0, 40)
        counts, psi, log_scale, steps = _magnus_count_nodes(2.0, eps, X_MAX)
        monkeypatch.setattr(oracle, "_RENORM_LIMIT", 1e3)
        counts_r, psi_r, log_scale_r, steps_r = _magnus_count_nodes(2.0, eps, X_MAX)
        assert np.all(log_scale == 0.0) and np.all(log_scale_r > 0.0)
        assert steps_r == steps
        np.testing.assert_array_equal(counts_r, counts)
        np.testing.assert_allclose(psi_r * np.exp(log_scale_r), psi, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    @pytest.mark.parametrize("eps", [math.nan, math.inf, 1e300])
    def test_nonfinite_energy_raises(self, eps):
        with pytest.raises(NonConvergence, match="not finite"):
            _magnus_count_nodes(2.0, np.array([eps]), _box(2.0, eps))

    def test_box_stops_before_x_max(self):
        # at alpha = 2 the top energy 20 turns at x = 6.3; the pass to 9.3
        # skips the steps that chase the growing tail out to 12
        eps = np.arange(0.25, 20.0, 0.5)
        box = _box(2.0, 20.0)
        assert box == pytest.approx(math.sqrt(20.0 + math.sqrt(398.0)) + 3.0)
        to_box, _, _, steps = _magnus_count_nodes(2.0, eps, box)
        to_cap, _, _, steps_cap = _magnus_count_nodes(2.0, eps, X_MAX)
        np.testing.assert_array_equal(to_box, to_cap)
        assert steps < steps_cap

    @pytest.mark.parametrize("alpha, x_max", [(2.0, 9.3), (0.0, X_MAX), (1000.0, 5.0)])
    def test_grid_is_graded_then_uniform(self, alpha, x_max):
        x = _grid(alpha, x_max)
        h = np.diff(x)
        assert x[0] == max(oracle._X0, oracle._X0_SCALE * math.sqrt(admissible_beta(alpha) + 1))
        assert x[-1] == x_max and np.all(h > 0)
        np.testing.assert_allclose(h[:-1], np.minimum(oracle._GRADE * x[:-2], oracle._H), rtol=1e-9)

    def test_box_never_passes_x_max(self):
        assert _box(0.0, 144.0) == X_MAX
        # below the well's bottom, eps < sqrt(alpha), the inner root counts as 0
        assert _box(400.0, 10.0) == pytest.approx(math.sqrt(10.0) + 3.0)


class TestMagnusPropagator:
    # no local error control is left: the grid's error is checked by
    # refining it and by the two ways a step's propagator is evaluated
    @pytest.mark.parametrize("alpha, n_max", [(-0.2, 4), (2.0, 4)])
    def test_levels_converge_as_h_to_the_fourth(self, alpha, n_max, monkeypatch):
        levels, grade, h = [], oracle._GRADE, oracle._H
        for refine in (1, 2, 4):
            monkeypatch.setattr(oracle, "_GRADE", grade / refine)
            monkeypatch.setattr(oracle, "_H", h / refine)
            levels.append(np.array(shoot_spectrum(alpha, n_max).eigenvalues))
        coarse, fine = levels[0] - levels[1], levels[1] - levels[2]
        assert np.max(np.abs(coarse)) > 1e-9  # well above rounding
        np.testing.assert_allclose(coarse / fine, 16.0, rtol=0.1)

    def test_taylor_and_closed_form_agree_at_the_switch(self, monkeypatch):
        z = oracle._TAYLOR_MAX * np.array([-1.0, -0.9, 0.9, 1.0])
        taylor = _cosh_sinhc(z)
        monkeypatch.setattr(oracle, "_TAYLOR_MAX", 0.0)
        closed = _cosh_sinhc(z)
        np.testing.assert_allclose(taylor, closed, rtol=2e-15, atol=0)
        assert closed[0][0] == math.cos(math.sqrt(-z[0]))

    def test_large_alpha_takes_the_closed_form(self, monkeypatch):
        # the graded steps near the origin reach kappa^2 = _GRADE^2 alpha
        # = 0.4 at alpha = 1000, whose levels test_one_window_at_large_alpha
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
