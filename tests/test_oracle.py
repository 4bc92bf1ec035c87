"""Independent eigenvalue routes: finite differences, shooting, node counts."""

import math
import warnings

import numpy as np
import pytest

from singosc import spectrum
from singosc.errors import (
    BracketError,
    ConvergenceError,
    NonConvergence,
    ParameterError,
    ShapeMismatch,
    SupercriticalError,
)
from singosc.model import Domain
from singosc.oracle import (
    _box,
    _fd_result,
    _richardson,
    _rkf45_count_nodes,
    OracleMethod,
    compare,
    count_nodes_at,
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
        t = spectrum_table(alpha, k - 1, Domain.HALF_LINE, 0.0 if alpha == 0 else None)
        want = np.array(t.distinct_levels())
        res = _fd_result(*_richardson(alpha, math.log(e0), k))
        assert np.max(np.abs(np.array(res.eigenvalues) - want)) <= res.residual_estimate


class TestFdSpectrum:
    @pytest.mark.parametrize("k", [1, 5, 9])
    @pytest.mark.parametrize("alpha", FD_ALPHAS)
    def test_accuracy_residual_and_rows(self, alpha, k):
        res = fd_eigen(alpha, k)
        # the oracle's inner condition takes beta_plus, the branch 0 at alpha = 0
        t = spectrum_table(alpha, k - 1, Domain.HALF_LINE, 0.0 if alpha == 0 else None)
        want = np.array(t.distinct_levels())
        err = np.abs(np.array(res.eigenvalues) - want)
        assert res.method is OracleMethod.FINITE_DIFFERENCE
        assert np.max(err / want) <= 5e-3
        assert np.max(err) <= res.residual_estimate
        assert res.rows <= 1_500

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
    def test_multisection_passes_and_accuracy(self, alpha, n_max):
        # eps_8 lies above the first scan window, eps <= 20, from alpha = 7.3
        # on, so 7.5 and 8.0 at n_max = 8 take the doubled window
        res = shoot_spectrum(alpha, n_max)
        # the oracle's Frobenius start takes beta_plus, the branch 0 at alpha = 0
        t = spectrum_table(alpha, n_max, Domain.HALF_LINE, 0.0 if alpha == 0 else None)
        assert res.passes <= 5
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)
        assert res.residual_estimate <= 1e-6 / 2
        assert 0 <= res.steps_rejected < res.steps_accepted

    def test_scan_window_grows_for_large_alpha(self):
        # eps_3 = 27.0 lies above the first scan window, eps <= 26
        res = shoot_spectrum(400.0, 3)
        t = spectrum_table(400.0, 3, Domain.HALF_LINE)
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)

    def test_tolerance_below_float_spacing_terminates(self):
        res = shoot_spectrum(2.0, 0, eps_tol=0.0)
        assert res.eigenvalues[0] == pytest.approx(2.5, abs=5e-6)
        assert res.residual_estimate < 1e-14

    @pytest.mark.parametrize("eps_tol", [math.nan, math.inf, -1e-6])
    def test_tolerance_must_be_finite_and_nonnegative(self, eps_tol):
        with pytest.raises(ParameterError, match="eps_tol"):
            shoot_spectrum(2.0, 2, eps_tol=eps_tol)

    def test_scan_stops_at_x_max_squared(self):
        # the scan gives up at the box's cap eps = 12^2, below eps_72 = 145.5
        with pytest.raises(BracketError, match="eps <= 144.0"):
            shoot_spectrum(0.0, 72)


class TestNodeCounts:
    @pytest.mark.parametrize("alpha", [-0.2, 2.0, 7.5])
    def test_total_count_is_levels_below(self, alpha):
        # with the tail flip counted, the count is the number of levels
        # below eps; energies stay 0.05 away from every level
        t = spectrum_table(alpha, 12, Domain.HALF_LINE)
        levels = np.array(t.distinct_levels())
        eps = np.linspace(0.3, 24.0, 200)
        eps = eps[np.min(np.abs(eps[:, None] - levels), axis=1) > 0.05]
        counts, _, _ = _rkf45_count_nodes(alpha, eps, _box(alpha, eps.max()))
        np.testing.assert_array_equal(counts, np.searchsorted(levels, eps))

    @pytest.mark.parametrize("alpha", [-0.2499, 0.5, 2.0, 7.5, 400.0])
    def test_counts_match_quantum_number(self, alpha):
        # counting to the turning point plus 3 would see the growing tail
        # flip the sign of levels near alpha = -1/4
        t = spectrum_table(alpha, 12, Domain.HALF_LINE)
        for n, eps in enumerate(t.distinct_levels()):
            assert count_nodes_at(alpha, eps) == n

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    @pytest.mark.parametrize("eps", [math.nan, math.inf, 1e300])
    def test_nonfinite_energy_raises(self, eps):
        with pytest.raises(NonConvergence, match="not finite"):
            count_nodes_at(2.0, eps)

    def test_box_stops_before_x_max(self):
        # at alpha = 2 the top energy 20 turns at x = 6.3; the pass to 9.3
        # skips the steps that chase the growing tail out to 12
        eps = np.arange(0.25, 20.0, 0.5)
        box = _box(2.0, 20.0)
        assert box == pytest.approx(math.sqrt(20.0 + math.sqrt(398.0)) + 3.0)
        to_box, accepted, _ = _rkf45_count_nodes(2.0, eps, box)
        to_cap, accepted_cap, _ = _rkf45_count_nodes(2.0, eps, X_MAX)
        np.testing.assert_array_equal(to_box, to_cap)
        assert accepted < accepted_cap

    def test_box_never_passes_x_max(self):
        assert _box(0.0, 144.0) == X_MAX
        # below the well's bottom, eps < sqrt(alpha), the inner root counts as 0
        assert _box(400.0, 10.0) == pytest.approx(math.sqrt(10.0) + 3.0)


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
