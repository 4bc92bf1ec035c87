"""Special-function kernels vs stdlib/scipy references and exact identities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singosc.errors import NonConvergence, ParameterError, PoleError
from singosc.specfun import (
    N_MAX,
    gamma_fn,
    hermite,
    kummer_m,
    kummer_m_asymptotic,
    laguerre,
)


class TestGamma:
    def test_half_integer(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_reflection_region(self):
        # frozen reference: math.gamma(-0.3)
        assert gamma_fn(-0.3) == pytest.approx(-4.326851108825192, rel=1e-13)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=300)
    def test_against_math_gamma(self, z):
        if abs(z - round(z)) < 1e-3 and z < 0.5:
            return  # too close to a pole for a meaningful comparison
        assert gamma_fn(z) == pytest.approx(math.gamma(z), rel=1e-11)

    @given(st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=200)
    def test_functional_equation(self, z):
        assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-11)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            gamma_fn(z)

    def test_largest_arguments(self):
        assert gamma_fn(171.5) == pytest.approx(9.483367566824801e307, rel=1e-13)
        assert gamma_fn(-200.5) == 0.0
        with pytest.raises(ParameterError):
            gamma_fn(172.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_nonfinite_argument_rejected(self, z):
        with pytest.raises(ParameterError):
            gamma_fn(z)


def _hyp1f1(a, b, y):
    """Reference M(a, b, y) from mpmath at 40 digits."""
    # an exact zero such as M(-1, 1, 1) = 1 - 1 cancels every bit, and
    # mpmath raises for it unless a sum that cancels past zeroprec bits
    # may return 0
    with mpmath.workdps(40):
        return float(mpmath.hyp1f1(a, b, y, zeroprec=1000))


class TestKummer:
    def test_at_origin(self):
        assert kummer_m(0.35, 1.9, 0.0) == 1.0

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=150)
    def test_a_equals_b_is_exp(self, a, y):
        assert kummer_m(a, a, y) == pytest.approx(math.exp(y), rel=1e-12)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.3, max_value=8.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    # a tiny a makes the first terms small while later ones still grow
    @example(9.815143769555652e-19, 0.3125, 21.0)
    # scipy.special.hyp1f1 gives -0.72234 here; the value is -0.69634
    @example(-2.5, 0.9999999999998099, 2.0)
    # M(-1, 1, 1) = 0 exactly: the reference must return 0, not raise
    @example(-1.0, 1.0, 1.0)
    @settings(max_examples=200)
    def test_against_scipy(self, a, b, y):
        # the reference is mpmath: scipy's hyp1f1 is wrong near b = 1
        assert kummer_m(a, b, y) == pytest.approx(_hyp1f1(a, b, y), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("a,b,y", [(0.35, 1.9, 400.0), (-0.3, 1.2, 700.0)])
    def test_large_argument(self, a, b, y):
        # the terms grow up to j ~ y, so the term budget follows y
        assert kummer_m(a, b, y) == pytest.approx(_hyp1f1(a, b, y), rel=1e-12, abs=0)

    def test_overflow_raises(self):
        # M(0.35, 1.9, 800) is about 3e342, past the largest double
        with pytest.raises(NonConvergence):
            kummer_m(0.35, 1.9, 800.0)

    def test_truncates_to_laguerre(self):
        # M(-n, a+1, y) * binom(n+a, n) = L_n^{(a)}(y)
        for n in (0, 1, 3, 5):
            for y in (0.3, 2.0, 7.5):
                a = 0.5
                binom = math.gamma(n + a + 1) / (math.gamma(n + 1) * math.gamma(a + 1))
                lhs = binom * kummer_m(-n, a + 1, y)
                assert lhs == pytest.approx(laguerre(n, a, y), rel=1e-12)

    def test_small_leading_terms_before_growth(self):
        # |r_0|, |r_1| < 1 and tiny t_1, t_2, then ratios above 1 up to j ~ 60
        a, b, y = 1e-18, 100.0, 160.0
        assert kummer_m(a, b, y) == pytest.approx(float(sps.hyp1f1(a, b, y)), rel=1e-14, abs=0)

    def test_terminating_series_beyond_term_budget(self):
        # a = -2: the series ends after three terms, whatever y, long
        # before j passes y, where an endless series may first stop
        y, b = 1000.0, 0.5
        want = 1.0 - 2.0 * y / b + y * y / (b * (b + 1.0))
        assert kummer_m(-2.0, b, y) == pytest.approx(want, rel=1e-14)

    def test_b_pole_rejected(self):
        with pytest.raises(ParameterError):
            kummer_m(0.3, 0.0, 1.0)
        with pytest.raises(ParameterError):
            kummer_m(0.3, -2.0, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ParameterError):
            kummer_m(0.3, 1.2, -1.0)


class TestKummerAsymptotic:
    def test_exact_when_a_equals_b(self):
        # dominant term reduces to e^y exactly
        y = 12.0
        assert kummer_m_asymptotic(0.7, 0.7, y) == pytest.approx(
            math.exp(y), rel=1e-13
        )

    @pytest.mark.parametrize("a,b", [(0.35, 1.9), (-0.3, 1.2)])
    def test_converges_for_large_argument(self, a, b):
        err40 = abs(kummer_m_asymptotic(a, b, 40.0) / kummer_m(a, b, 40.0) - 1.0)
        err400 = abs(kummer_m_asymptotic(a, b, 400.0) / kummer_m(a, b, 400.0) - 1.0)
        assert err400 < err40 / 5.0
        assert err400 < 6e-3

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ParameterError):
            kummer_m_asymptotic(0.35, 1.9, 0.0)

    def test_rejects_gamma_pole(self):
        with pytest.raises(ParameterError):
            kummer_m_asymptotic(-1.0, 1.9, 10.0)

    @pytest.mark.parametrize(
        "a, b, y", [(0.35, 1.9, 1e4), (0.7, 0.7, 710.0), (0.5, 1.5, math.inf), (0.5, 1.5, math.nan)]
    )
    def test_overflow_raises(self, a, b, y):
        # e^y overflows from y = 710: a bare OverflowError before
        with pytest.raises(ParameterError):
            kummer_m_asymptotic(a, b, y)

    def test_largest_finite_values_return(self):
        # e^709 y^(a - b) stays below the largest double
        assert kummer_m_asymptotic(0.7, 0.7, 709.0) == math.exp(709.0)


# a negative, fractional or non-finite polynomial degree
BAD_DEGREES = (-1, 2.5, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize(
    "call", [lambda n: laguerre(n, 0.5, 1.0), lambda n: hermite(n, 0.0)], ids=["laguerre", "hermite"]
)
def test_degree_past_n_max_raises_at_once(call):
    # the degree shares the quantum number's bound: with none, L_n at
    # n = 10^6 took 0.5 s, so n = 10^12 would run for days
    for n in (N_MAX + 1, 10**12):
        with pytest.raises(ParameterError, match=f"quantum number n must be an integer in \\[0, {N_MAX}\\]"):
            call(n)


class TestLaguerre:
    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=-0.99, max_value=5.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=200)
    def test_against_scipy(self, n, a, y):
        ref = float(sps.eval_genlaguerre(n, a, y))
        assert laguerre(n, a, y) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_quadratic_closed_form(self):
        a = 0.5
        for y in (0.0, 1.0, 3.7):
            want = (a + 1) * (a + 2) / 2 - (a + 2) * y + y * y / 2
            assert laguerre(2, a, y) == pytest.approx(want, rel=1e-14)

    def test_array_evaluation(self):
        y = np.linspace(0.0, 5.0, 7)
        out = laguerre(3, 0.5, y)
        assert out.shape == y.shape
        assert out[0] == pytest.approx(laguerre(3, 0.5, 0.0))

    def test_scalar_returns_float(self):
        assert isinstance(laguerre(4, -0.5, 1.3), float)

    @pytest.mark.parametrize("n", BAD_DEGREES)
    def test_rejects_negative_degree(self, n):
        with pytest.raises(ParameterError):
            laguerre(n, 0.5, 1.0)

    @pytest.mark.parametrize("a", [-1.0, -1.5, -math.inf, math.nan])
    def test_rejects_order_at_or_below_minus_one(self, a):
        # L_n^(a) is orthogonal on (0, inf) only for a > -1; NaN is rejected too
        with pytest.raises(ParameterError, match="a > -1"):
            laguerre(2, a, 1.0)

    @pytest.mark.parametrize(
        "n, y", [(3, 1e200), (200, 1e4), (1, math.inf), (2, math.nan)]
    )
    def test_overflow_raises(self, n, y):
        # the recurrence reaches inf (L_3(1e200) returned -inf before) or
        # y is not finite: a typed error, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                laguerre(n, 0.5, y)
            with pytest.raises(ParameterError, match="not finite"):
                laguerre(n, 0.5, np.array([0.5, y]))

    def test_largest_finite_values_return(self):
        # L_3^(a)(y) = -y^3/6 + ..., -1.7e299 at y = 1e100
        assert laguerre(3, 0.5, 1e100) == pytest.approx(-1e300 / 6.0, rel=1e-12)


class TestHermite:
    @given(
        st.integers(min_value=0, max_value=13),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=200)
    def test_against_scipy(self, n, x):
        ref = float(sps.eval_hermite(n, x))
        assert hermite(n, x) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_cubic_closed_form(self):
        for x in (-2.0, 0.3, 1.7):
            assert hermite(3, x) == pytest.approx(8 * x**3 - 12 * x, rel=1e-13)

    def test_parity(self):
        x = 1.234
        assert hermite(4, -x) == hermite(4, x)
        assert hermite(5, -x) == -hermite(5, x)

    def test_array_evaluation(self):
        x = np.linspace(-2, 2, 9)
        out = hermite(6, x)
        assert out.shape == x.shape

    @pytest.mark.parametrize("n", BAD_DEGREES)
    def test_rejects_bad_degree(self, n):
        with pytest.raises(ParameterError):
            hermite(n, 1.0)

    @pytest.mark.parametrize(
        "n, xi", [(5, 1e200), (200, 100.0), (1, 1e308), (3, math.inf), (2, math.nan)]
    )
    def test_overflow_raises(self, n, xi):
        # 2 xi H_j - 2 j H_(j-1) reaches inf - inf, or H_n passes the
        # largest double: a typed error, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                hermite(n, xi)
            with pytest.raises(ParameterError, match="not finite"):
                hermite(n, np.array([0.5, xi]))

    def test_largest_finite_values_return(self):
        # H_5(xi) = 32 xi^5 + ..., 3.2e306 at xi = 1e61
        assert hermite(5, 1e61) == pytest.approx(3.2e306, rel=1e-12)
        assert hermite(5, -1e61) == -hermite(5, 1e61)


ZERO_D_INPUTS = (
    pytest.param(lambda v: v, id="float"),
    pytest.param(np.float64, id="np.float64"),
    pytest.param(lambda v: int(round(v)), id="int"),
    pytest.param(np.array, id="0-d array"),
)


class TestScalarPath:
    """A 0-d argument runs the same array recurrence as an array: same
    values bit for bit, returned as a Python float."""

    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=-0.99, max_value=8.5),
        st.lists(st.floats(min_value=0.0, max_value=80.0), min_size=1, max_size=12),
    )
    @settings(max_examples=150)
    def test_laguerre_scalar_equals_array(self, n, a, ys):
        ys = [0.0, *ys]
        whole = laguerre(n, a, np.array(ys))
        for y, v in zip(ys, whole):
            assert laguerre(n, a, y) == v

    @given(
        st.integers(min_value=0, max_value=25),
        st.lists(st.floats(min_value=-9.0, max_value=9.0), min_size=1, max_size=12),
    )
    @settings(max_examples=150)
    def test_hermite_scalar_equals_array(self, n, xs):
        xs = [0.0, *xs]
        whole = hermite(n, np.array(xs))
        for x, v in zip(xs, whole):
            assert hermite(n, x) == v

    @pytest.mark.parametrize("wrap", ZERO_D_INPUTS)
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_zero_d_inputs_return_float(self, wrap, n):
        assert type(laguerre(n, 0.3, wrap(2.0))) is float
        assert type(hermite(n, wrap(-2.0))) is float
        assert laguerre(n, 0.3, wrap(2.0)) == laguerre(n, 0.3, np.array([2.0]))[0]

    def test_array_inputs_stay_arrays(self):
        for n in (0, 3):
            assert laguerre(n, 0.3, [1.0, 2.0]).shape == (2,)
            assert hermite(n, np.zeros((2, 3))).shape == (2, 3)


class TestLaguerreHermiteBridge:
    """The half-line polynomials at beta = -1 and beta = 0 are rescaled
    even/odd Hermite polynomials."""

    def test_even_identity(self):
        for n in range(7):
            scale = (-1) ** n / (math.factorial(n) * 2 ** (2 * n))
            for x in np.linspace(0.1, 3.9, 20):
                lhs = laguerre(n, -0.5, x * x)
                rhs = scale * hermite(2 * n, x)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_odd_identity(self):
        for n in range(7):
            scale = (-1) ** n / (math.factorial(n) * 2 ** (2 * n + 1))
            for x in np.linspace(0.1, 3.9, 20):
                lhs = laguerre(n, 0.5, x * x)
                rhs = scale * hermite(2 * n + 1, x) / x
                assert lhs == pytest.approx(rhs, rel=1e-10)
