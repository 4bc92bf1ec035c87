"""Indicial algebra, admissibility, boundary classes, units, radial map."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singosc import oracle, spectrum
from singosc.errors import (
    InadmissibleError,
    ParameterError,
    SingularPointError,
    SupercriticalError,
)
from singosc.model import (
    ALPHA_CRITICAL,
    Domain,
    OriginBehavior,
    OscillatorSpec,
    admissible_beta,
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

    def test_marginal_point(self):
        r = indicial_roots(ALPHA_CRITICAL)
        assert r.beta_plus == r.beta_minus == -0.5

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        # one gate: admissible_betas and the oracle's check both go through here
        with pytest.raises(ParameterError, match="alpha must be finite"):
            indicial_roots(alpha)
        with pytest.raises(ParameterError, match="alpha must be finite"):
            admissible_betas(alpha)


class TestAdmissibleBetas:
    def test_one_record(self):
        # admissible_betas is a second name of indicial_roots, whose record
        # carries the admissible set next to both roots
        assert admissible_betas is indicial_roots
        r = indicial_roots(2.0)
        assert (r.beta_plus, r.beta_minus, r.admissible) == (1.0, -2.0, (1.0,))

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


# the nine supercritical entry points of acceptance criterion 7, plus
# classify_boundary: every one goes through admissible_beta
GATED_ENTRY_POINTS = {
    "halfline_state": lambda a: spectrum.halfline_state(a, 0),
    "fullline_states": lambda a: spectrum.fullline_states(a, 0),
    "spectrum_table_half": lambda a: spectrum.spectrum_table(a, 1, Domain.HALF_LINE),
    "spectrum_table_full": lambda a: spectrum.spectrum_table(a, 1, Domain.FULL_LINE),
    "fd_eigen": lambda a: oracle.fd_eigen(a, k=1),
    "fd_eigen_extrapolated": lambda a: oracle.fd_eigen_extrapolated(a, k=1),
    "shoot_spectrum": lambda a: oracle.shoot_spectrum(a, 0),
    "shoot_eigen": lambda a: oracle.shoot_eigen(a, 0),
    "frobenius_start": lambda a: oracle.frobenius_start(a, 1.0, 1e-3),
    "classify_boundary": lambda a: classify_boundary(a, -0.5),
}


class TestAdmissibleBeta:
    def test_default_is_beta_plus(self):
        assert admissible_beta(2.0) == 1.0
        assert admissible_beta(-0.1875) == -0.25
        assert admissible_beta(0.0) == 0.0  # the vanishing-at-origin branch

    def test_requested_root_is_returned_exactly(self):
        assert admissible_beta(2.0, 1.0 + 5e-10) == 1.0
        assert admissible_beta(0.0, -1.0 - 5e-10) == -1.0
        assert admissible_beta(0.0, 0.0) == 0.0

    def test_mismatch_wording(self):
        beta_plus = indicial_roots(0.5).beta_plus
        with pytest.raises(InadmissibleError) as exc:
            admissible_beta(0.5, -1.0)
        assert str(exc.value) == f"alpha = 0.5 admits only beta = {beta_plus}, got -1.0"
        assert not isinstance(exc.value, SupercriticalError)
        with pytest.raises(InadmissibleError, match=r"only beta = -1.0 or 0.0, got 0.5$"):
            admissible_beta(0.0, 0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha must be finite"):
            admissible_beta(alpha)

    @pytest.mark.parametrize("alpha", [ALPHA_CRITICAL, -0.3])
    @pytest.mark.parametrize("entry", sorted(GATED_ENTRY_POINTS))
    def test_supercritical_message_is_shared(self, entry, alpha):
        with pytest.raises(SupercriticalError) as exc:
            GATED_ENTRY_POINTS[entry](alpha)
        assert str(exc.value) == (
            f"alpha = {alpha} is supercritical (alpha <= -1/4): no bound states"
        )

    def test_supercritical_is_inadmissible(self):
        with pytest.raises(SupercriticalError) as exc:
            classify_boundary(-0.3, -0.5)
        assert isinstance(exc.value, InadmissibleError)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_nonpositive_parameters(self, bad):
        with pytest.raises(ParameterError):
            OscillatorSpec(alpha=0.0, mass=bad)
        with pytest.raises(ParameterError):
            OscillatorSpec(alpha=0.0, omega=bad)
        with pytest.raises(ParameterError):
            OscillatorSpec(alpha=0.0, hbar=bad)


    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_alpha(self, bad):
        with pytest.raises(ParameterError, match="alpha must be finite"):
            OscillatorSpec(alpha=bad)

    @pytest.mark.parametrize(
        "units",
        [
            {"mass": 1e-300, "omega": 1e-300, "hbar": 1e300},  # lambda = 0
            {"mass": 1e300, "omega": 1e300},  # lambda = inf
            {"mass": 1e-300, "omega": 1e300, "hbar": 1e300},  # hbar omega = inf
            {"omega": 1e-200, "hbar": 1e-200},  # hbar omega = 0
        ],
    )
    def test_rejects_unrepresentable_scales(self, units):
        with pytest.raises(ParameterError, match="finite and positive"):
            OscillatorSpec(alpha=0.0, **units)

    def test_energy_overflow_raises(self):
        spec = OscillatorSpec(alpha=0.0, omega=1e308)
        assert spec.energy_from_eps(1.5) == 1.5e308
        with pytest.raises(ParameterError, match="overflows"):
            spec.energy_from_eps(2.5)

    def test_repr_names_every_field(self):
        spec = OscillatorSpec(alpha=0.5, mass=2.0)
        assert repr(spec) == "OscillatorSpec(alpha=0.5, mass=2.0, omega=1.0, hbar=1.0)"

    def test_replace_runs_the_checks(self):
        spec = OscillatorSpec(alpha=0.5)
        assert spec._replace(mass=2.0) == OscillatorSpec(alpha=0.5, mass=2.0)
        with pytest.raises(ParameterError, match="alpha must be finite"):
            spec._replace(alpha=math.nan)
        with pytest.raises(ParameterError, match="omega must be finite and positive"):
            spec._replace(omega=-1.0)


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("x, at", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (1e200, "1e+200"),
    ])
    def test_scalar_not_finite_raises(self, alpha, x, at):
        # x or V not finite (x^2 overflows at 1e200) raises, with no numpy
        # warning, where V was inf or nan
        with pytest.raises(ParameterError, match=f"V is not finite at x = {re.escape(at)}$"):
            potential_value(OscillatorSpec(alpha=alpha), x)

    def test_underflowing_singular_term_raises(self):
        # alpha / x^2 at x = 1e-200: x^2 underflows to 0 and V to inf
        with pytest.raises(ParameterError, match="x = 1e-200$"):
            potential_value(OscillatorSpec(alpha=1.0), 1e-200)
        assert potential_value(OscillatorSpec(alpha=0.0), 1e-200) == 0.0

    @pytest.mark.parametrize(
        "alpha, units",
        [
            (0.0, {"mass": 1e-200, "omega": 1e200}),  # omega^2 overflows, lambda = 1
            (0.5, {"mass": 1e-200, "omega": 1e200}),
            (0.5, {"mass": 1e200, "hbar": 1e200}),  # hbar^2 overflows, lambda = 1
        ],
    )
    def test_squared_units_that_overflow_raise(self, alpha, units):
        # OscillatorSpec accepts these; w^2 or hbar^2 is past the float
        # range, which raised a bare OverflowError
        spec = OscillatorSpec(alpha=alpha, **units)
        with pytest.raises(ParameterError, match="V is not finite at x = 1.5$"):
            potential_value(spec, 1.5)
        with pytest.raises(ParameterError, match="V is not finite at x = 0.5$"):
            potential_value(spec, np.array([0.5, 2.0]))

    def test_large_hbar_without_the_singular_term(self):
        # at alpha = 0 hbar^2 is not needed: V = m w^2 x^2 / 2
        spec = OscillatorSpec(alpha=0.0, mass=1e200, hbar=1e200)
        assert potential_value(spec, 1.0) == 0.5 * 1e200

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.0])
    def test_array_names_the_first_bad_x(self, alpha):
        spec = OscillatorSpec(alpha=alpha)
        x = np.array([0.5, 2.0, math.nan, 1e200, 3.0])
        with pytest.raises(ParameterError, match="x = nan$"):
            potential_value(spec, x)
        with pytest.raises(ParameterError, match="x = 1e\\+200$"):
            potential_value(spec, x[[0, 3, 2]])
        good = potential_value(spec, x[[0, 1, 4]])
        assert good.tolist() == [potential_value(spec, float(v)) for v in x[[0, 1, 4]]]


class TestRadialMap:
    @pytest.mark.parametrize(
        "alpha,l,want",
        [(0.0, 0, 0.0), (0.0, 1, 2.0), (0.5, 0, 0.5), (-0.2, 1, 1.8), (0.3, 3, 12.3)],
    )
    def test_values(self, alpha, l, want):
        assert map_radial(alpha, l) == pytest.approx(want, rel=1e-15)

    def test_rejects_negative_l(self):
        for l in (-1, math.inf, math.nan):
            with pytest.raises(ParameterError, match="non-negative integer"):
                map_radial(0.0, l)

    def test_rejects_l_whose_square_overflows(self):
        # an int l(l+1) past the float range cannot be added to alpha
        for l in (10**160, 1e200):
            with pytest.raises(ParameterError, match="overflows"):
                map_radial(1.0, l)
        assert map_radial(1.0, 10**150) == 1.0 + 10**300
        assert map_radial(1.0, 10**150) == 1.0 + 10**300


class TestEnums:
    def test_domain_values(self):
        assert Domain("half") is Domain.HALF_LINE
        assert Domain("full") is Domain.FULL_LINE
