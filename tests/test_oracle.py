"""Independent eigenvalue routes: finite differences, shooting, node counts."""

import numpy as np
import pytest

from singosc.errors import BracketError, ParameterError, ShapeMismatch, SupercriticalError
from singosc.model import Domain
from singosc.oracle import (
    GridSpec,
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
from singosc.spectrum import spectrum_table


class TestGridSpec:
    def test_defaults_valid(self):
        g = GridSpec()
        assert 0 < g.x_min < g.x_max
        assert g.n_points >= 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_min": 0.0},
            {"x_min": -1e-3},
            {"x_max": 1e-4},
            {"n_points": 5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            GridSpec(**kwargs)


class TestFiniteDifference:
    def test_pure_oscillator(self):
        res = fd_eigen(0.0, GridSpec(x_min=1e-4, n_points=24000), k=3)
        want = np.array([1.5, 3.5, 5.5])
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 2e-3  # Dirichlet wall at x_min limits the accuracy
        assert res.method is OracleMethod.FINITE_DIFFERENCE

    def test_repulsive_alpha(self):
        res = fd_eigen(2.0, GridSpec(n_points=24000), k=3)
        want = np.array([2.5, 4.5, 6.5])
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 1e-4

    def test_residual_estimate_bounds_error(self):
        res = fd_eigen(0.5, GridSpec(n_points=8000), k=2)
        want = np.array([1.8660254037844386, 3.8660254037844386])
        err = np.abs(res.eigenvalues - want).max()
        assert res.residual_estimate > 0
        assert err < 50 * res.residual_estimate + 1e-8

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            fd_eigen(-0.3, k=1)


class TestWallExtrapolation:
    def test_attractive_alpha(self):
        res = fd_eigen_extrapolated(-0.2, k=3)
        t = spectrum_table(-0.2, 2, Domain.HALF_LINE)
        want = np.array(t.distinct_levels())
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 5e-3

    def test_slow_wall_exponent_needs_denser_ladder(self):
        # beta close to -1/2: the wall shift decays like eps0^(2 beta + 1)
        res = fd_eigen_extrapolated(
            -0.24, k=2, cutoffs=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
        )
        t = spectrum_table(-0.24, 1, Domain.HALF_LINE)
        want = np.array(t.distinct_levels())
        rel = np.abs(res.eigenvalues - want) / want
        assert rel.max() < 5e-3

    def test_cutoff_schedule_validation(self):
        with pytest.raises(ParameterError):
            fd_eigen_extrapolated(-0.2, k=1, cutoffs=(1e-3,))

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            fd_eigen_extrapolated(-0.26, k=1)


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
    @pytest.mark.parametrize("alpha", [-0.2499, -0.1, 0.0, 2.0, 7.5])
    def test_multisection_passes_and_accuracy(self, alpha, n_max):
        res = shoot_spectrum(alpha, n_max)
        # the oracle's Frobenius start takes beta_plus, the branch 0 at alpha = 0
        t = spectrum_table(alpha, n_max, Domain.HALF_LINE, 0.0 if alpha == 0 else None)
        assert res.passes <= 5
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)
        assert res.residual_estimate <= 1e-6 / 2

    def test_scan_window_grows_for_large_alpha(self):
        # eps_3 = 27.0 lies above the first scan window, eps <= 26
        res = shoot_spectrum(400.0, 3)
        t = spectrum_table(400.0, 3, Domain.HALF_LINE)
        assert res.eigenvalues == pytest.approx(list(t.distinct_levels()), abs=5e-6)

    def test_tolerance_below_float_spacing_terminates(self):
        res = shoot_spectrum(2.0, 0, eps_tol=0.0)
        assert res.eigenvalues[0] == pytest.approx(2.5, abs=5e-6)
        assert res.residual_estimate < 1e-14

    def test_scan_stops_at_x_max_squared(self):
        with pytest.raises(BracketError, match="eps <= 16.0"):
            shoot_spectrum(0.0, 10, x_max=4.0)


class TestNodeCounts:
    @pytest.mark.parametrize("alpha", [-0.2, 2.0, 7.5])
    def test_total_count_is_levels_below(self, alpha):
        # with the tail flip counted, the count is the number of levels
        # below eps; energies stay 0.05 away from every level
        t = spectrum_table(alpha, 12, Domain.HALF_LINE)
        levels = np.array(t.distinct_levels())
        eps = np.linspace(0.3, 24.0, 200)
        eps = eps[np.min(np.abs(eps[:, None] - levels), axis=1) > 0.05]
        counts = _rkf45_count_nodes(alpha, eps, 1e-3, 12.0, 1e-7)
        np.testing.assert_array_equal(counts, np.searchsorted(levels, eps))

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_counts_match_quantum_number(self, alpha):
        t = spectrum_table(alpha, 4, Domain.HALF_LINE)
        for n, eps in enumerate(t.distinct_levels()):
            assert count_nodes_at(alpha, eps) == n


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
