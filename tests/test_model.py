"""Indicial algebra, admissibility, boundary classes, units, radial map."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singosc.errors import InadmissibleError, ParameterError, SingularPointError
from singosc.model import (
    ALPHA_CRITICAL,
    Domain,
    OriginBehavior,
    OscillatorSpec,
    Parity,
    admissible_betas,
    classify_boundary,
    indicial_roots,
    map_radial,
    potential_value,
)

subcritical = st.floats(min_value=-0.249, max_value=50.0)


class TestIndicialRoots:
    @given(subcritical)
    @settings(max_examples=300)
    def test_roots_solve_indicial_equation(self, alpha):
        r = indicial_roots(alpha)
        for beta in (r.beta_plus, r.beta_minus):
            assert beta * (beta + 1) == pytest.approx(alpha, rel=1e-11, abs=1e-11)

    @given(subcritical)
    @settings(max_examples=200)
    def test_vieta(self, alpha):
        r = indicial_roots(alpha)
        assert r.beta_plus + r.beta_minus == pytest.approx(-1.0, abs=1e-12)
        assert r.beta_plus * r.beta_minus == pytest.approx(-alpha, rel=1e-11, abs=1e-12)

    def test_reference_values(self):
        assert indicial_roots(0.0).beta_plus == 0.0
        assert indicial_roots(0.0).beta_minus == -1.0
        assert indicial_roots(2.0).beta_plus == pytest.approx(1.0, rel=1e-15)
        assert indicial_roots(-0.24).beta_plus == pytest.approx(-0.4, rel=1e-12)

    def test_complex_pair_below_critical(self):
        r = indicial_roots(-0.3)
        assert r.complex_pair
        assert r.imag > 0

    def test_marginal_point(self):
        r = indicial_roots(ALPHA_CRITICAL)
        assert not r.complex_pair
        assert r.beta_plus == r.beta_minus == -0.5

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        # one gate: admissible_betas and the oracle's check both go through here
        with pytest.raises(ParameterError, match="alpha must be finite"):
            indicial_roots(alpha)
        with pytest.raises(ParameterError, match="alpha must be finite"):
            admissible_betas(alpha)


class TestAdmissibleBetas:
    def test_free_case_has_both_branches(self):
        sol = admissible_betas(0.0)
        assert sol.admissible == (-1.0, 0.0)
        assert not sol.supercritical

    @given(st.floats(min_value=-0.249, max_value=50.0))
    @settings(max_examples=200)
    def test_admissible_set_obeys_hermiticity_bound(self, alpha):
        sol = admissible_betas(alpha)
        assert not sol.supercritical
        for beta in sol.admissible:
            assert beta > -0.5 or beta == -1.0

    @given(st.floats(min_value=-0.249, max_value=50.0).filter(lambda a: a != 0.0))
    @settings(max_examples=200)
    def test_single_branch_away_from_zero(self, alpha):
        sol = admissible_betas(alpha)
        assert sol.admissible == (sol.beta_plus,)

    @pytest.mark.parametrize("alpha", [-0.25, -0.2500000001, -1.0, -40.0])
    def test_supercritical(self, alpha):
        sol = admissible_betas(alpha)
        assert sol.supercritical
        assert sol.admissible == ()


class TestClassifyBoundary:
    def test_positive_beta(self):
        bc = classify_boundary(0.5, indicial_roots(0.5).beta_plus)
        assert bc.psi_at_origin is OriginBehavior.ZERO
        assert bc.dpsi_at_origin is OriginBehavior.ZERO

    def test_zero_beta(self):
        bc = classify_boundary(0.0, 0.0)
        assert bc.psi_at_origin is OriginBehavior.ZERO
        assert bc.dpsi_at_origin is OriginBehavior.FINITE_NONZERO

    def test_negative_admissible_beta(self):
        bc = classify_boundary(-0.24, indicial_roots(-0.24).beta_plus)
        assert bc.psi_at_origin is OriginBehavior.ZERO
        assert bc.dpsi_at_origin is OriginBehavior.INFINITE

    def test_free_even_branch(self):
        bc = classify_boundary(0.0, -1.0)
        assert bc.psi_at_origin is OriginBehavior.FINITE_NONZERO
        assert bc.dpsi_at_origin is OriginBehavior.ZERO

    def test_rejects_beta_minus(self):
        with pytest.raises(InadmissibleError):
            classify_boundary(0.5, indicial_roots(0.5).beta_minus)

    def test_rejects_mismatched_pair(self):
        with pytest.raises(InadmissibleError):
            classify_boundary(0.5, 0.25)


class TestOscillatorSpec:
    def test_natural_units(self):
        spec = OscillatorSpec(alpha=0.3)
        assert spec.lam == 1.0
        assert spec.length_scale == 1.0
        assert spec.energy_scale == 1.0

    def test_scales(self):
        spec = OscillatorSpec(alpha=0.0, mass=2.0, omega=3.0, hbar=0.5)
        assert spec.energy_scale == pytest.approx(1.5)
        # lam = m omega / hbar, length = 1/sqrt(lam)
        assert spec.lam == pytest.approx(12.0)
        assert spec.length_scale == pytest.approx(1.0 / math.sqrt(12.0))

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=100)
    def test_energy_round_trip(self, m, w, hb, e):
        spec = OscillatorSpec(alpha=0.1, mass=m, omega=w, hbar=hb)
        assert spec.eps_from_energy(spec.energy_from_eps(e)) == pytest.approx(
            e, rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_parameters(self, bad):
        with pytest.raises(ParameterError):
            OscillatorSpec(alpha=0.0, mass=bad)
        with pytest.raises(ParameterError):
            OscillatorSpec(alpha=0.0, omega=bad)
        with pytest.raises(ParameterError):
            OscillatorSpec(alpha=0.0, hbar=bad)


class TestPotential:
    def test_pure_oscillator_at_unit_point(self):
        assert potential_value(OscillatorSpec(alpha=0.0), 1.0) == pytest.approx(0.5)

    def test_singular_term_sign(self):
        up = potential_value(OscillatorSpec(alpha=0.2), 0.1)
        down = potential_value(OscillatorSpec(alpha=-0.2), 0.1)
        assert up > 0 > down

    def test_origin_is_singular(self):
        with pytest.raises(SingularPointError):
            potential_value(OscillatorSpec(alpha=0.2), 0.0)

    def test_origin_regular_when_alpha_zero(self):
        assert potential_value(OscillatorSpec(alpha=0.0), 0.0) == 0.0

    def test_even_in_x(self):
        spec = OscillatorSpec(alpha=0.7)
        assert potential_value(spec, -1.3) == potential_value(spec, 1.3)


class TestRadialMap:
    @pytest.mark.parametrize(
        "alpha,l,want",
        [(0.0, 0, 0.0), (0.0, 1, 2.0), (0.5, 0, 0.5), (-0.2, 1, 1.8), (0.3, 3, 12.3)],
    )
    def test_values(self, alpha, l, want):
        assert map_radial(alpha, l) == pytest.approx(want, rel=1e-15)

    def test_rejects_negative_l(self):
        with pytest.raises(ParameterError):
            map_radial(0.0, -1)


class TestEnums:
    def test_parity_signs(self):
        assert Parity.EVEN.sign == 1
        assert Parity.ODD.sign == -1

    def test_domain_values(self):
        assert Domain("half") is Domain.HALF_LINE
        assert Domain("full") is Domain.FULL_LINE
