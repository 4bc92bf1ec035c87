"""Quadrature layer: adaptive integrals, principal values, overlaps."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singosc.errors import DepthExceeded, DomainMismatch, ParameterError, PVDivergent
from singosc.model import Domain
from singosc.quad import (
    X_MAX,
    IntegrabilityClass,
    QuadControl,
    cauchy_pv,
    connection_residual,
    integrability_class,
    integrate_adaptive,
    overlap,
    overlap_halfline_gauss,
)
from singosc.spectrum import EigenState, fullline_states, halfline_state


class TestIntegrateAdaptive:
    def test_integrable_endpoint_singularity(self):
        val = integrate_adaptive(lambda x: x**-0.5, 0.0, 1.0)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_gaussian_over_line(self):
        val = integrate_adaptive(lambda x: math.exp(-x * x), -np.inf, np.inf)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_polynomial(self):
        assert integrate_adaptive(lambda x: 3 * x * x, 0.0, 2.0) == pytest.approx(8.0)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: 1.0 / x,
            lambda x: x**-2,
            lambda x: x**-1.5,
            lambda x: math.nan,
            lambda x: math.inf,
        ],
        ids=["inv_x", "inv_x2", "x_pow_-1.5", "nan", "inf"],
    )
    def test_nonintegrable_raises(self, f):
        # QUADPACK extrapolates x^-2 and x^-1.5 to the finite values -1 and
        # -2 with a small error estimate, but flags them divergent
        with pytest.raises(DepthExceeded):
            integrate_adaptive(f, 0.0, 1.0)


class TestCauchyPV:
    def test_symmetric_reciprocal(self):
        assert abs(cauchy_pv(lambda x: 1.0 / x, -1.0, 1.0, 0.0)) <= 1e-10

    def test_asymmetric_reciprocal(self):
        val = cauchy_pv(lambda x: 1.0 / x, -2.0, 1.0, 0.0)
        assert val == pytest.approx(-math.log(2.0), abs=1e-8)

    def test_shifted_pole(self):
        val = cauchy_pv(lambda x: 1.0 / (x - 1.0), 0.0, 2.0, 1.0)
        assert abs(val) <= 1e-10

    def test_even_divergence_detected(self):
        with pytest.raises(PVDivergent):
            cauchy_pv(lambda x: 1.0 / (x * x), -1.0, 1.0, 0.0)
        with pytest.raises(PVDivergent):
            cauchy_pv(lambda x: 1.0 / abs(x), -1.0, 1.0, 0.0)

    def test_integrable_even_singularity(self):
        # |x|^-1/2 is integrable, so its principal value is the plain integral
        val = cauchy_pv(lambda x: abs(x) ** -0.5, -1.0, 1.0, 0.0)
        assert val == pytest.approx(4.0, rel=1e-10)

    def test_exponential_integral(self):
        # PV int_{-1}^{2} e^x/x dx = Ei(2) - Ei(-1)
        import scipy.special

        val = cauchy_pv(lambda x: math.exp(x) / x, -1.0, 2.0, 0.0)
        expected = scipy.special.expi(2.0) - scipy.special.expi(-1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_odd_integrand_cancels(self, half_width):
        val = cauchy_pv(lambda x: x**3 / x, -half_width, half_width, 0.0)
        # x^3/x = x^2 is regular; PV must agree with the plain integral
        assert val == pytest.approx(2 * half_width**3 / 3, rel=1e-9)

    def test_requires_interior_pole(self):
        with pytest.raises(ParameterError):
            cauchy_pv(lambda x: 1.0 / x, 0.5, 1.0, 0.0)


class TestIntegrabilityClass:
    @pytest.mark.parametrize("p", [-0.5, -0.999, 0.0, 2.0])
    def test_integrable(self, p):
        assert integrability_class(p) is IntegrabilityClass.INTEGRABLE

    @pytest.mark.parametrize("p", [-1.0, -1.0000001, -2.4, -3.0])
    def test_non_integrable(self, p):
        assert integrability_class(p) is IntegrabilityClass.NON_INTEGRABLE


class TestOverlap:
    def test_normalized_state(self):
        s = halfline_state(0.5, 0)
        assert overlap(s, s) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        s0 = halfline_state(2.0, 0)
        s1 = halfline_state(2.0, 1)
        assert abs(overlap(s0, s1)) <= 1e-10

    def test_cross_parity_is_exactly_zero(self):
        even, odd = fullline_states(0.7, 0)
        assert overlap(even, odd) == 0.0

    def test_fullline_normalization(self):
        even, odd = fullline_states(0.7, 2)
        assert overlap(even, even) == pytest.approx(1.0, abs=1e-10)
        assert overlap(odd, odd) == pytest.approx(1.0, abs=1e-10)

    def test_mixed_domain_rejected(self):
        half = halfline_state(0.5, 0)
        even, _ = fullline_states(0.5, 0)
        with pytest.raises(DomainMismatch):
            overlap(half, even)

    def test_mixed_alpha_rejected(self):
        with pytest.raises(DomainMismatch):
            overlap(halfline_state(0.5, 0), halfline_state(0.7, 0))

    def test_adaptive_and_gauss_routes_agree(self):
        # two independent quadratures of the same matrix element
        for alpha in (-0.2, 0.5, 3.0):
            for n1, n2 in ((0, 0), (0, 2), (1, 3), (4, 4)):
                s1 = halfline_state(alpha, n1)
                s2 = halfline_state(alpha, n2)
                a = overlap(s1, s2)
                g = overlap_halfline_gauss(s1, s2)
                assert a == pytest.approx(g, abs=5e-11)

    def test_gauss_route_raises_when_laguerre_overflows(self):
        # L_150^2 at the outer nodes (y ~ 1200) overflows to inf, and
        # inf * 0 weights would give NaN
        s = halfline_state(1.3, 150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                overlap_halfline_gauss(s, s)

    def test_gauss_route_rejects_fullline(self):
        even, odd = fullline_states(0.5, 0)
        with pytest.raises(DomainMismatch):
            overlap_halfline_gauss(even, odd)


def _counting_psi(monkeypatch):
    """Patch EigenState.psi on the class; returns the list of
    (id(state), x) of every real evaluation."""
    seen = []
    inner = EigenState.psi

    def psi(self, x):
        seen.append((id(self), x))
        return inner(self, x)

    monkeypatch.setattr(EigenState, "psi", psi)
    return seen


class TestOverlapTables:
    """Each state's psi is tabulated at the quadrature nodes and shared by
    every overlap with that state; the values must not move by an ulp."""

    @pytest.mark.parametrize("alpha", [-0.2499, -0.2, 0.0, 0.5, 7.9])
    def test_bit_identical_to_uncached_integral(self, alpha):
        branches = (-1.0, 0.0) if alpha == 0 else (None,)
        half = [halfline_state(alpha, n, b) for b in branches for n in range(6)]
        full = [s for n in range(6) for s in fullline_states(alpha, n)]
        for states, factor in ((half, 1.0), (full, 2.0)):
            for i, s1 in enumerate(states):
                for s2 in states[i:]:
                    if s1.parity is not s2.parity:
                        continue
                    ref = integrate_adaptive(lambda x: s1.psi(x) * s2.psi(x), 0.0, X_MAX)
                    assert overlap(s1, s2) == factor * ref, (s1.n, s1.beta, s2.n, s2.beta)

    def test_each_state_evaluated_once_per_node(self, monkeypatch):
        seen = _counting_psi(monkeypatch)
        states = [halfline_state(3.3, n) for n in range(12)]
        for i, s1 in enumerate(states):
            for s2 in states[i:]:
                overlap(s1, s2)
        assert len(seen) > 0
        assert len(set(seen)) == len(seen)

    def test_table_does_not_keep_the_state_alive(self, monkeypatch):
        s = halfline_state(1.7, 3)
        overlap(s, s)
        ref = weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None
        # the table went with the state: an equal new state evaluates again
        seen = _counting_psi(monkeypatch)
        s = halfline_state(1.7, 3)
        overlap(s, s)
        assert len(seen) > 0


class TestConnectionResidual:
    """Derivative jump of the even extension vs alpha times the principal
    value of psi/x^2: residual vanishes as the window shrinks."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_even_state_matches_at_leading_order(self, alpha):
        even, _ = fullline_states(alpha, 0)
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            r = connection_residual(even, eps)
            jump = even.dpsi(eps) - even.dpsi(-eps)
            ratios.append(abs(r / jump))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 5e-3

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_odd_state_trivial(self, alpha):
        _, odd = fullline_states(alpha, 0)
        assert connection_residual(odd, 0.1) == 0.0

    @pytest.mark.parametrize("alpha", [-0.2, -0.1])
    def test_even_state_diverges_for_attractive_alpha(self, alpha):
        # psi ~ |x|^(beta+1) with beta < 0: psi/x^2 is not integrable at 0
        even, odd = fullline_states(alpha, 0)
        with pytest.raises(PVDivergent):
            connection_residual(even, 0.1)
        assert connection_residual(odd, 0.1) == 0.0

    def test_free_case_is_zero(self):
        even, odd = fullline_states(0.0, 1)
        assert connection_residual(even, 0.1) == 0.0
        assert connection_residual(odd, 0.1) == 0.0

    def test_halfline_rejected(self):
        with pytest.raises(DomainMismatch):
            connection_residual(halfline_state(0.5, 0), 0.1)

    def test_bad_window_rejected(self):
        even, _ = fullline_states(0.5, 0)
        for eps in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                connection_residual(even, eps)


class TestQuadControl:
    def test_defaults(self):
        ctl = QuadControl()
        assert ctl.rel_tol > 0 and ctl.abs_tol > 0 and ctl.max_depth >= 1

    def test_validation(self):
        from singosc.errors import ParameterError

        with pytest.raises(ParameterError):
            QuadControl(rel_tol=-1.0)
        with pytest.raises(ParameterError):
            QuadControl(max_depth=0)
