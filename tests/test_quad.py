"""Quadrature layer: principal values, Gram matrices and overlaps."""

import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singosc import quad, specfun, spectrum
from singosc.errors import DepthExceeded, DomainMismatch, ParameterError, PVDivergent, SingOscError
from singosc.model import Parity
from singosc.quad import (
    IntegrabilityClass,
    cauchy_pv,
    gram,
    integrability_class,
    overlap,
    overlap_halfline_gauss,
)
from singosc.spectrum import fullline_states, halfline_state


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

        val = cauchy_pv(lambda x: np.exp(x) / x, -1.0, 2.0, 0.0)
        expected = scipy.special.expi(2.0) - scipy.special.expi(-1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_odd_integrand_cancels(self, half_width):
        val = cauchy_pv(lambda x: x**3 / x, -half_width, half_width, 0.0)
        # x^3/x = x^2 is regular; PV must agree with the plain integral
        assert val == pytest.approx(2 * half_width**3 / 3, rel=1e-9)

    def test_value_that_is_not_finite_raises_with_no_warning(self):
        # the gap of two NaN sums is NaN: a typed error that says so
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PVDivergent, match="a value is not finite"):
                cauchy_pv(lambda x: np.full_like(x, np.nan), -1.0, 1.0, 0.0)

    def test_divergent_infinite_tail_raises(self):
        # the rest, int_{-inf}^{-1} dx/x, diverges: an infinite limit is
        # refused, never truncated (at x = 12 it would return -ln 12)
        with pytest.raises(ParameterError):
            cauchy_pv(lambda x: 1.0 / x, -np.inf, 1.0, 0.0)

    @pytest.mark.parametrize("c", [1.0, 0.5, 1e-3, 1e3, -7.3])
    @pytest.mark.parametrize(
        "below, above, expected",
        [(1.0, 1.0, 0.0), (0.3, 2.0, math.log(2.0 / 0.3)), (2.0, 0.3, math.log(0.3 / 2.0))],
        ids=["symmetric", "rest_above", "rest_below"],
    )
    def test_shifted_poles(self, c, below, above, expected):
        # the fold samples c +- t with t down to 1e-20: rounded to the
        # spacing of c, the two sides stay exact negatives of each other
        val = cauchy_pv(lambda x: 1.0 / (x - c), c - below, c + above, c)
        assert abs(val - expected) <= 1e-12

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-12])
    def test_pole_near_one_end(self, delta):
        # the rest [delta, 1] runs in u = ln(x / delta); on panels in x the
        # 20- and 10-point rules disagree for every delta <= 0.01
        val = cauchy_pv(lambda x: 1.0 / x, -delta, 1.0, 0.0)
        assert abs(val - math.log(1.0 / delta)) <= 1e-12

    def test_long_rest(self):
        assert cauchy_pv(lambda x: 1.0 / x, -1.0, 1e6, 0.0) == pytest.approx(
            math.log(1e6), rel=1e-15
        )

    def test_singularity_at_an_end_raises(self):
        # |2 - x|^-1.5 is not integrable at b = 2
        with pytest.raises(DepthExceeded):
            cauchy_pv(lambda x: 1.0 / x + np.abs(2.0 - x) ** -1.5, -1.0, 2.0, 0.0)

    def test_nan_integrand_raises(self):
        with pytest.raises(PVDivergent):
            cauchy_pv(lambda x: np.full_like(x, np.nan), -1.0, 1.0, 0.0)

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

    def test_gauss_route_caches_its_rule_bit_for_bit(self):
        # the pair (2, 3) takes the 8-node rule, the smallest multiple of 8
        # >= 2 + 3 + 1; the cache starts empty, so the counts do not depend
        # on which earlier test filled it
        quad._laguerre_table.cache_clear()
        s1, s2 = halfline_state(0.5, 2), halfline_state(0.5, 3)
        w = a = s1.beta + 0.5
        cold = overlap_halfline_gauss(s1, s2)
        table = quad._laguerre_table.cache_info()
        assert table[:2] == (1, 1)  # both states share a, so one entry
        assert overlap_halfline_gauss(s1, s2) == cold
        assert quad._laguerre_table.cache_info()[:2] == (table.hits + 2, 1)
        weights, rows = quad._laguerre_table(a, 8, w)
        nodes, fresh = quad._gauss_laguerre(8, w)
        np.testing.assert_array_equal(weights, fresh)
        assert rows.shape == (8, 8)
        for n, row in enumerate(rows):
            np.testing.assert_array_equal(row, _laguerre_ref(n, a, nodes))
        assert not (weights.flags.writeable or rows.flags.writeable)
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_gauss_pairwise_loop_evaluates_each_laguerre_once_per_rule(self, monkeypatch):
        # 78 pairs share the 8-, 16- and 24-node rules, one entry of 8, 16
        # and 24 rows each, where an exact n1 + n2 + 1 rule per pair needs 23
        # rules and 156 L_n; the checked specfun.laguerre is not called
        states = [halfline_state(3.3, n) for n in range(12)]
        pairs = [(i, j) for i in range(12) for j in range(i, 12)]
        cold = []
        for i, j in pairs:
            quad._laguerre_table.cache_clear()
            cold.append(overlap_halfline_gauss(states[i], states[j]))
        seen = _counting(monkeypatch)
        assert [overlap_halfline_gauss(states[i], states[j]) for i, j in pairs] == cold
        assert seen == {"passes": 3, "rows": 48, "laguerre": 0, "rules": 3}

    def test_gauss_mixed_branch_pair_builds_its_rule_once_per_a(self, monkeypatch):
        # the alpha = 0 branches beta = -1 and beta = 0 differ in a = beta +
        # 1/2 but share w: each a's entry builds the 8-node rule, and both
        # get the same weights bit for bit
        quad._laguerre_table.cache_clear()
        calls, build = [], quad._gauss_laguerre
        monkeypatch.setattr(quad, "_gauss_laguerre", lambda *args: calls.append(args) or build(*args))
        s1, s2 = halfline_state(0.0, 2, -1.0), halfline_state(0.0, 3)
        value = overlap_halfline_gauss(s1, s2)
        assert calls == [(8, 0.0), (8, 0.0)]
        assert quad._laguerre_table.cache_info()[:2] == (0, 2)
        (w1, _), (w2, _) = (quad._laguerre_table(s.beta + 0.5, 8, 0.0) for s in (s1, s2))
        np.testing.assert_array_equal(w1, w2)
        assert abs(value - _exact_gauss(s1, s2)) <= 1e-13

    @pytest.mark.parametrize("n1, n2", [(0, 383), (188, 188), (300, 300), (2000, 2000)])
    def test_gauss_route_refuses_pairs_past_its_largest_rule(self, n1, n2, monkeypatch):
        # from 384 nodes the sum of every pair overflows (361 of 361 sampled
        # pairs at nine alpha raised), and the 4 008-node rule of (2000,
        # 2000) took 0.5-0.7 s to build: such a pair raises with no rule,
        # table or recurrence built, and no numpy warning
        assert quad._GL_MAX == 376
        seen = _counting(monkeypatch)
        s1, s2 = halfline_state(0.3, n1), halfline_state(0.3, n2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"n = {n1}, {n2} is not finite"):
                overlap_halfline_gauss(s1, s2)
        assert seen == {"passes": 0, "rows": 0, "laguerre": 0, "rules": 0}
        assert quad._laguerre_table.cache_info()[:2] == (0, 0)

    def test_gauss_route_builds_its_largest_rule(self, monkeypatch):
        # (0, 375) takes the 376-node rule, the largest one built; its sum
        # still overflows and raises after one rule and one table
        seen = _counting(monkeypatch)
        s1, s2 = halfline_state(0.3, 0), halfline_state(0.3, 375)
        with pytest.raises(ParameterError, match="not finite"):
            overlap_halfline_gauss(s1, s2)
        assert seen["rules"] == 1 and seen["passes"] == 1

    @pytest.mark.parametrize("alpha", [-0.2499, -0.2, 0.0, 0.5, 3.0, 7.9, 157.3, "mixed"])
    def test_gauss_route_matches_the_exact_rule(self, alpha):
        # the reference takes the exact n1 + n2 + 1 node rule and its own
        # recurrence; "mixed" pairs the alpha = 0 beta = -1 and beta = 0 branches
        if alpha == "mixed":
            firsts = [halfline_state(0.0, n, -1.0) for n in range(41)]
            seconds = [halfline_state(0.0, n) for n in range(41)]
            pairs = [(s1, s2) for s1 in firsts for s2 in seconds]
        else:
            states = [halfline_state(alpha, n) for n in range(41)]
            pairs = [(s1, s2) for i, s1 in enumerate(states) for s2 in states[i:]]
        worst = max(abs(overlap_halfline_gauss(s1, s2) - _exact_gauss(s1, s2)) for s1, s2 in pairs)
        assert worst <= 1e-13

    @pytest.mark.parametrize(
        "alpha, last", [(-0.2, 123), (7.9, 123), (45.96, 123), (157.3, 122), (1000.0, 121)]
    )
    def test_gauss_route_overflow_limit(self, alpha, last):
        # the rounded-up rule reaches past the exact one's outer node: at
        # alpha = 157.3 and 1000 the diagonal raises one level earlier than
        # the exact n1 + n2 + 1 rule did (from 124 and 123)
        s = halfline_state(alpha, last)
        assert math.isfinite(overlap_halfline_gauss(s, s))
        s = halfline_state(alpha, last + 1)
        with pytest.raises(ParameterError, match="not finite"):
            overlap_halfline_gauss(s, s)

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


_RULE_WS = [-0.99, -0.5, 0.0, 0.7416, 3.3, 12.0]


class TestGaussLaguerreRule:
    """quad._gauss_laguerre against scipy.special.roots_genlaguerre, which
    it replaces, and against the moments of y^w e^-y."""

    @pytest.mark.parametrize("w", _RULE_WS)
    def test_matches_scipys_rule(self, w):
        # weights below 1e-290 are left out: where L_M'^2 overflows this
        # builder flushes 1/(y L_M'^2) to 0 and scipy's rescaled product
        # does not; near 368 nodes the two differ in which rules overflow
        import scipy.special

        compared = 0
        for count in range(8, quad._GL_MAX + 1, 8):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                nodes, weights = quad._gauss_laguerre(count, w)
                ref_nodes, ref_weights = scipy.special.roots_genlaguerre(count, w)
            rules = (nodes, weights, ref_nodes, ref_weights)
            if not all(np.isfinite(v).all() for v in rules):
                continue
            compared += 1
            np.testing.assert_allclose(nodes, ref_nodes, rtol=4e-15, atol=0.0)
            kept = ref_weights > 1e-290
            np.testing.assert_allclose(weights[kept], ref_weights[kept], rtol=2e-11, atol=0.0)
        assert compared >= 44

    @pytest.mark.parametrize("w", [-0.5, 3.3])
    def test_weights_match_a_40_digit_rule(self, w):
        # carrying L_M' to the polished node puts the weights within 3e-14
        # at 64 nodes; without it they lie 4e-13 off, and scipy's 2e-13;
        # the smallest node is 8e-15 off at w = 3.3, as scipy's is
        import mpmath

        nodes, weights = quad._gauss_laguerre(64, w)
        with mpmath.workdps(40):
            ref_nodes, ref_weights = [], []
            for y in map(mpmath.mpf, nodes):
                for _ in range(3):
                    value, slope = _laguerre_and_slope(64, w, y)
                    y -= value / slope
                ref_nodes.append(float(y))
                ref_weights.append(float(mpmath.gamma(64 + w + 1) / (mpmath.factorial(64) * y * slope**2)))
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-14, atol=0.0)
        kept = np.array(ref_weights) > 1e-290
        np.testing.assert_allclose(weights[kept], np.array(ref_weights)[kept], rtol=5e-14, atol=0.0)

    @pytest.mark.parametrize("w", _RULE_WS)
    def test_integrates_the_moments(self, w):
        # an M-node rule is exact to degree 2M - 1: sum w_i y_i^j = Gamma(w + j + 1)
        worst = 0.0
        for count in range(1, 49):
            nodes, weights = quad._gauss_laguerre(count, w)
            for j in range(2 * count):
                exact = math.gamma(w + j + 1.0)
                worst = max(worst, abs(float(np.dot(weights, nodes**j)) - exact) / exact)
        assert worst <= 1e-12

    @pytest.mark.parametrize("w", _RULE_WS)
    def test_one_node_rule(self, w):
        # the mean of y^w e^-y, with all of its mass
        nodes, weights = quad._gauss_laguerre(1, w)
        assert nodes.tolist() == [w + 1.0]
        assert weights.tolist() == [pytest.approx(math.gamma(w + 1.0), rel=1e-15)]

    @pytest.mark.parametrize("w", [-0.5, 0.7416, 12.0, 200.0])
    def test_table_is_silent_up_to_the_largest_rule(self, w):
        # the polish and the rows overflow at the outer nodes of the largest
        # rules, and Gamma(w + 1) past w = 170.6, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for count in range(8, quad._GL_MAX + 1, 8):
                quad._laguerre_table.__wrapped__(w, count, w)

    def test_a_rule_that_overflows_raises(self):
        # (0, 360) at alpha = 0.3 takes the 368-node rule, whose polish
        # overflows at w = beta + 1/2 = 0.74; and at alpha = 3e4 Gamma(w + 1)
        # overflows; both raise as any sum that is not finite does
        s1, s2 = halfline_state(0.3, 0), halfline_state(0.3, 360)
        weights, _ = quad._laguerre_table(s1.beta + 0.5, 368, s1.beta + 0.5)
        assert not np.isfinite(weights).all()
        for pair in ((s1, s2), (halfline_state(3e4, 0),) * 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match="not finite"):
                    overlap_halfline_gauss(*pair)

    @pytest.mark.parametrize("alpha", [3e4, 1e5])
    def test_weights_that_overflow_are_named(self, alpha):
        # Gamma(w + 1) overflows past w = 170.6, so every weight is inf:
        # the error names the weights, not L_0 = 1
        s = halfline_state(alpha, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"n = 0, 0 is not finite: the weights of the 8-node rule"):
                overlap_halfline_gauss(s, s)


def _counting(monkeypatch):
    """Empty quad's caches of Gram entries and of Gauss-Laguerre rules with
    their rows, and count from here on the Laguerre recurrence passes quad
    starts and the rows it draws from them, its calls of the checked
    specfun.laguerre and the Gauss-Laguerre rules it builds."""
    for cache in (quad._entry, quad._laguerre_table):
        cache.cache_clear()
    seen = {"passes": 0, "rows": 0, "laguerre": 0, "rules": 0}

    def rows(a, y, kept=()):
        seen["passes"] += 1
        for row in specfun._laguerre_rows(a, y, kept):
            seen["rows"] += 1
            yield row

    monkeypatch.setattr(quad, "_laguerre_rows", rows)
    for module, name, key in ((specfun, "laguerre", "laguerre"), (quad, "_gauss_laguerre", "rules")):

        def counted(*args, _inner=getattr(module, name), _key=key):
            seen[_key] += 1
            return _inner(*args)

        monkeypatch.setattr(module, name, counted)
    return seen


def _laguerre_ref(n, a, y):
    """L_n^(a)(y) on an array y by the three-term recurrence."""
    prev, cur = np.zeros_like(y), np.ones_like(y)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + a - y) * cur - (k + a) * prev) / (k + 1)
    return cur


def _laguerre_and_slope(m, w, y):
    """L_m^(w)(y) and its derivative, (m L_m - (m + w) L_(m-1)) / y, by
    the three-term recurrence in the arithmetic of y."""
    prev, cur = 0, 1
    for k in range(m):
        prev, cur = cur, ((2 * k + 1 + w - y) * cur - (k + w) * prev) / (k + 1)
    return cur, (m * cur - (m + w) * prev) / y


def _exact_gauss(s1, s2):
    """The half-line overlap on the exact n1 + n2 + 1 node Gauss-Laguerre
    rule for y^w e^-y, w = (beta1 + beta2 + 1) / 2: scipy's rule, built
    apart from quad's, and the reference's own recurrence."""
    import scipy.special

    nodes, weights = scipy.special.roots_genlaguerre(s1.n + s2.n + 1, (s1.beta + s2.beta + 1.0) / 2.0)
    lag1 = _laguerre_ref(s1.n, s1.beta + 0.5, nodes)
    lag2 = _laguerre_ref(s2.n, s2.beta + 0.5, nodes)
    return 0.5 * s1.norm_const * s2.norm_const * float(np.dot(weights, lag1 * lag2))


GRAM_ALPHAS = [-0.2499, -0.2, 0.0, 0.5, 7.9]
REFERENCE_BOX = 12.0  # the references' own box: psi_11^2 past it is below 1e-28


def _psi_closed_form(state, x):
    """psi of a state at one x in plain floats, sharing no code with
    EigenState.psi: N |x|^(beta+1) e^(-x^2/2) L_n^(beta+1/2)(x^2), times
    sign(x) for an odd state, with L_n from its three-term recurrence."""
    r, a = abs(x), state.beta + 0.5
    lag_prev, lag = 0.0, 1.0
    for k in range(state.n):
        lag_prev, lag = lag, ((2 * k + 1 + a - r * r) * lag - (k + a) * lag_prev) / (k + 1)
    sign = math.copysign(1.0, x) if state.parity is Parity.ODD else 1.0
    return sign * state.norm_const * r ** (state.beta + 1.0) * math.exp(-0.5 * r * r) * lag


def _quadpack(f, a, b):
    """An independent reference: one scipy QUADPACK integral at 1e-12."""
    import scipy.integrate

    value, error = scipy.integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert error <= 1e-12
    return value


def _gram_families(alpha):
    """(states, fold factor): the first 12 half-line states of each branch,
    and the 12 full-line states with n < 6."""
    branches = (-1.0, 0.0) if alpha == 0 else (None,)
    half = [([halfline_state(alpha, n, b) for n in range(12)], 1.0) for b in branches]
    return half + [([s for n in range(6) for s in fullline_states(alpha, n)], 2.0)]


class TestGram:
    """The composite Gauss-Legendre rule behind every overlap: each state
    evaluated once per rule, from one Laguerre recurrence per beta and
    rule, and a box and panels that follow the top state."""

    @pytest.mark.parametrize("alpha", GRAM_ALPHAS)
    def test_entries_equal_overlap_bit_for_bit(self, alpha):
        # the batch's top energy sets the rule: a pair that holds it gets
        # the same rule from overlap, any other pair a shorter one
        for states, _ in _gram_families(alpha):
            g = gram(states)
            np.testing.assert_array_equal(g, g.T)
            top = max(s.energy_eps for s in states)
            for i, s1 in enumerate(states):
                for j, s2 in enumerate(states):
                    if top in (s1.energy_eps, s2.energy_eps):
                        assert g[i, j] == overlap(s1, s2), (i, j)
                    else:
                        assert abs(g[i, j] - overlap(s1, s2)) <= 1e-15, (i, j)

    @pytest.mark.parametrize("alpha", GRAM_ALPHAS)
    def test_entries_match_adaptive_quadrature(self, alpha):
        for states, factor in _gram_families(alpha):
            g = gram(states)
            for i, s1 in enumerate(states):
                for j in range(i, len(states)):
                    s2 = states[j]
                    if s1.parity is not s2.parity:
                        assert g[i, j] == 0.0
                        continue
                    ref = _quadpack(
                        lambda x: _psi_closed_form(s1, x) * _psi_closed_form(s2, x), 0.0, REFERENCE_BOX
                    )
                    assert abs(g[i, j] - factor * ref) <= 1e-12, (i, j)

    def test_one_psi_call_per_state(self, monkeypatch):
        # one recurrence pass on the rule serves all 12 states, one row each
        seen = _counting(monkeypatch)
        states = [halfline_state(3.3, n) for n in range(12)]
        gram(states)
        assert (seen["passes"], seen["rows"]) == (1, 12)
        assert quad._entry.cache_info()[:2] == (0, 1)
        overlap(states[4], states[4])  # a shorter rule: its own entry and pass
        assert (seen["passes"], seen["rows"]) == (2, 17)
        gram(states)
        overlap(states[4], states[4])
        assert (seen["passes"], seen["rows"]) == (2, 17)
        assert quad._entry.cache_info()[:2] == (2, 2)

    def test_pairwise_loop_evaluates_each_state_once_per_rule(self, monkeypatch):
        # overlap(s_i, s_j) takes the rule of the top state s_j, so a pairwise
        # loop meets (s_j, rule_j) again for every i <= j.  The half-line and
        # the full-line loop share one entry per (beta, rule), 10 of them; a
        # request above an entry's rows goes on from them, so the loops make
        # 12 passes and 63 rows, where psi state by state restarted the
        # recurrence 105 times
        half = [halfline_state(3.3, n) for n in range(12)]
        full = [s for n in range(6) for s in fullline_states(3.3, n)]
        pairs = [(states, i, j) for states in (half, full) for i in range(12) for j in range(i, 12)]
        cold = []
        for states, i, j in pairs:
            quad._entry.cache_clear()
            cold.append(overlap(states[i], states[j]))
        seen = _counting(monkeypatch)
        assert [overlap(states[i], states[j]) for states, i, j in pairs] == cold
        assert (seen["passes"], seen["rows"]) == (12, 63)
        assert quad._entry.cache_info().misses == 10

    def test_pairwise_loop_sums_each_diagonal_once_per_rule(self, monkeypatch):
        # overlap sums one product, psi_i psi_j w, per same-parity pair, and
        # reads each state's own sums from its entry, summed once per rule;
        # the entries' passes, rows and misses are those of the loops above
        half = [halfline_state(3.3, n) for n in range(12)]
        full = [s for n in range(6) for s in fullline_states(3.3, n)]
        pairs = [(states[i], states[j]) for states in (half, full) for i in range(12) for j in range(i, 12)]
        same = [pair for pair in pairs if pair[0].parity is pair[1].parity]
        diagonals = {(s.beta, s.n, s.norm_const, quad._rule_size(pair)) for pair in same for s in pair}
        assert (len(pairs), len(same), len(diagonals)) == (156, 120, 84)
        seen, sums, calls = _counting(monkeypatch), quad._sums, []
        monkeypatch.setattr(quad, "_sums", lambda *args: calls.append(args) or sums(*args))
        cold = [overlap(*pair) for pair in pairs]
        assert (seen["passes"], seen["rows"]) == (12, 63)
        assert quad._entry.cache_info().misses == 10
        assert len(calls) == len(same) + len(diagonals)
        calls.clear()
        assert [overlap(*pair) for pair in pairs] == cold
        assert len(calls) == len(same)  # a cross product each, no diagonal again

    @pytest.mark.parametrize(
        "pair",
        [
            # psi_-^2 ~ x^(1 - 2 nu) at the origin: the 20- and the 10-point
            # rule differ on the beta_- diagonal
            lambda: (halfline_state(0.5, 0), spectrum._state(0.5, 0, -0.5 - math.sqrt(0.75))),
            lambda: (halfline_state(0.5, 0), halfline_state(0.5, 300)),  # L_300 overflows
            lambda: (halfline_state(1e6, 10),) * 2,  # x^(beta+1) overflows
            lambda: (halfline_state(0.5, 0), fullline_states(0.5, 0)[0]),
            lambda: (halfline_state(0.5, 0), halfline_state(0.7, 0)),
        ],
        ids=["beta_minus", "laguerre", "power", "domain", "alpha"],
    )
    def test_overlap_raises_as_gram_does(self, pair):
        # the same type and text on a cold entry, one gram has warmed, and a
        # second call, which reads the sums kept on the first
        def raised(call, *args):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingOscError) as info:
                    call(*args)
            return type(info.value), str(info.value)

        pair = pair()
        quad._entry.cache_clear()
        cold = raised(overlap, *pair)
        quad._entry.cache_clear()
        want = raised(gram, pair)
        assert cold == want
        assert raised(overlap, *pair) == raised(overlap, *pair) == want

    def test_many_rules_build_each_entry_once(self, monkeypatch):
        # at alpha = 0.5 the pairwise loops over n <= 40 (half line, and the
        # even and the odd full-line states) take 30 rules, one beta: each
        # (beta, rule) entry is built once, and each pass goes on from the
        # rows before it, where a 16-entry cache of rows and a 32-entry
        # cache of values rebuilt rows 1 341 times (34 503 rows)
        families = [[halfline_state(0.5, n) for n in range(41)]]
        families += [[fullline_states(0.5, n)[k] for n in range(41)] for k in range(2)]
        seen = _counting(monkeypatch)
        for states in families:
            for i, s1 in enumerate(states):
                for s2 in states[i:]:
                    overlap(s1, s2)
        assert quad._entry.cache_info().misses == quad._entry.cache_info().currsize == 30
        assert (seen["passes"], seen["rows"]) == (41, 620)

    def test_cached_values_are_read_only(self):
        quad._entry.cache_clear()
        states = [halfline_state(0.5, n) for n in range(4)]
        g = gram(states)
        m, panels = quad._rule_size(states)
        nodes, weights, split = quad._rule(quad._WIDTH_MAX / m, panels)
        entry = quad._entry(states[0].beta, m, panels)
        rows, records = entry.rows, entry.kept
        assert len(rows) == 4 and len(records) == 4
        for s in states:
            values, *own = records[s.n, s.norm_const]
            np.testing.assert_array_equal(values, s.psi(nodes))
            assert own == list(quad._sums(values, values, weights, split))
            with pytest.raises(ValueError):
                values[0] = 1.0
        np.testing.assert_array_equal(gram(states), g)

    @pytest.mark.parametrize("alpha", [-0.2499, 0.0, 0.5, 7.9, 157.3])
    def test_cached_values_equal_psi_bit_for_bit(self, alpha):
        # the requests of every pairwise overlap loop over n <= 40, for the
        # half line (both branches at alpha = 0) and for the even and odd
        # full-line states, first in loop order and then in reverse
        branches = (-1.0, 0.0) if alpha == 0 else (None,)
        families = [[halfline_state(alpha, n, b) for n in range(41)] for b in branches]
        for k in range(2):
            families.append([fullline_states(alpha, n)[k] for n in range(41)])
        requests = [
            (pair, quad._rule_size(pair))
            for states in families
            for i, s1 in enumerate(states)
            for pair in ((s1, s2) for s2 in states[i:])
        ]
        psi = {}
        for order in (requests, requests[::-1]):
            quad._entry.cache_clear()
            for pair, (m, panels) in order:
                nodes, weights, split = quad._rule(quad._WIDTH_MAX / m, panels)
                for s in pair:
                    values, *own = quad._entry(s.beta, m, panels).psi(pair)[s.n, s.norm_const]
                    if (s, m, panels) not in psi:
                        psi[s, m, panels] = s.psi(nodes)
                    assert np.array_equal(values, psi[s, m, panels]), (s, m, panels)
                    assert own == list(quad._sums(values, values, weights, split)), (s, m, panels)

    def test_request_below_the_kept_rows_restarts_the_pass(self, monkeypatch):
        # the rule of n = 249 at alpha = 0.5 has 9 720 nodes, so its entry
        # keeps at most 30 arrays of rows and values: L_0 .. L_249 pass that
        # budget, so a request's one pass from L_0 holds only the rows it
        # asks for, and the request keeps nothing
        s0, s5, s249 = (halfline_state(0.5, n) for n in (0, 5, 249))
        m, panels = quad._rule_size((s249,))
        nodes = quad._rule(quad._WIDTH_MAX / m, panels)[0]
        assert len(nodes) == 9720 and quad._KEEP_MAX // len(nodes) == 30
        # a row is 76 KB: holding L_0 .. L_249 would take 19 MB
        quad._entry.cache_clear()
        tracemalloc.start()
        try:
            overlap(s0, s249)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        seen = _counting(monkeypatch)
        overlap(s0, s249)
        overlap(s5, s249)
        assert (seen["passes"], seen["rows"]) == (2, 500)
        entry = quad._entry(s249.beta, m, panels)
        assert (entry.rows, entry.kept) == ((), {})
        for s in (s0, s5, s249):
            np.testing.assert_array_equal(entry.psi((s,))[s.n, s.norm_const][0], s.psi(nodes))
        # requests within the budget keep their rows and psi: L_0 .. L_5
        assert (len(entry.rows), len(entry.kept)) == (6, 2)

    def test_threads_share_a_cold_entry(self):
        # four threads that meet one cold entry may each run a pass and sum a
        # diagonal; every matrix and every pairwise overlap loop equals the
        # one of a single thread bit for bit
        states = [halfline_state(0.5, n) for n in range(30)]
        pairs = [(s1, s2) for i, s1 in enumerate(states) for s2 in states[i:]]

        def both():
            return gram(states).tobytes(), np.array([overlap(*pair) for pair in pairs]).tobytes()

        quad._entry.cache_clear()
        want = both()
        barrier, got = threading.Barrier(4), [None] * 4

        def run(k):
            barrier.wait()
            got[k] = both()

        for _ in range(3):
            quad._entry.cache_clear()
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [want] * 4

    def test_overflow_raises_a_typed_error_with_no_warning(self):
        # L_300 overflows on the rule's outer nodes, and at alpha = 1e6
        # x^(beta+1) overflows while norm_const underflows to 0
        big = halfline_state(1e6, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DepthExceeded, match=r"L_300\^\(0\.866025\) overflows on the Gram rule"):
                gram((halfline_state(0.5, 300),))
            with pytest.raises(DepthExceeded, match=r"x\^\(beta\+1\) at beta = 999\.5 overflows"):
                overlap(big, big)
        s = halfline_state(0.5, 300)
        entry = quad._entry(s.beta, *quad._rule_size((s,)))
        assert (entry.rows, entry.kept) == ((), {})  # nothing kept

    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    def test_laguerre_rows_equal_laguerre_bit_for_bit(self, n):
        y = quad._rule(quad._WIDTH_MAX, 20)[0] ** 2
        for a in (-0.7499, 0.5, 3.8):
            row = next(itertools.islice(specfun._laguerre_rows(a, y), n, None))
            for k in range(1, min(n, 3) + 1):
                # a pass that goes on from the first k rows of another
                rows = tuple(itertools.islice(specfun._laguerre_rows(a, y), k))
                np.testing.assert_array_equal(next(itertools.islice(specfun._laguerre_rows(a, y, rows), n - k, None)), row)
            np.testing.assert_array_equal(row, specfun.laguerre(n, a, y))
            np.testing.assert_array_equal(row, _laguerre_ref(n, a, y))
            one = specfun.laguerre(n, a, np.array([2.0]))[0]
            for wrap in (float, np.float64, np.array):
                assert type(specfun.laguerre(n, a, wrap(2.0))) is float
                assert specfun.laguerre(n, a, wrap(2.0)) == one

    @pytest.mark.parametrize("n", [31, 40])
    def test_high_state_resolves_to_one(self, n):
        # with 0.5-wide panels to x = 12 psi_40 oscillated too fast for the
        # 10-point rule (a gap of 1.7e-6), and psi_31 lost 1.9e-4 past
        # x = 12 unseen: the panels are now 0.25 wide and end past x = 17
        s = halfline_state(0.5, n)
        assert abs(overlap(s, s) - 1.0) <= 1e-13

    @pytest.mark.parametrize("alpha", [-0.2499, 0.5, 7.9])
    def test_twenty_states_pass_the_gap_check(self, alpha):
        g = gram([halfline_state(alpha, n) for n in range(20)])
        assert np.max(np.abs(g - np.eye(20))) <= 1e-13

    @pytest.mark.parametrize(
        "alpha, size",
        [(a, size) for size in (21, 32, 64) for a in (-0.2499, 0.5, 7.9)] + [(0.5, 250)],
    )
    def test_many_states_are_orthonormal(self, alpha, size):
        # a box and panels fixed at 12 and 0.5 raised DepthExceeded from
        # 21 states at alpha = 0.5 and from 32 at -0.2499 and 7.9
        g = gram([halfline_state(alpha, n) for n in range(size)])
        assert np.max(np.abs(g - np.eye(size))) <= 1e-12

    def test_rule_follows_the_top_state(self):
        # eps <= 40.5 keeps 0.5-wide panels; eps_20 = 41.9 at alpha = 0.5
        # halves them, and the rule ends at _box(alpha, eps_top) + 3 = 15.15,
        # rounded up to 61 panels of 0.25
        states = [halfline_state(0.5, n) for n in range(21)]
        assert quad._rule_size(states[:20]) == (1, 30)
        assert quad._rule_size(states) == (2, 61)
        nodes, weights, split = quad._rule(0.25, 61)
        assert 0.0 < nodes.min() and nodes.max() < 15.25
        assert math.fsum(weights[:split]) == pytest.approx(15.25, rel=1e-15)
        assert math.fsum(weights[split:]) == pytest.approx(15.25, rel=1e-15)

    def test_rule_past_its_panel_budget_raises(self):
        # at alpha = 1e12 the ground state would need 318 000 panels of
        # 1/316 before its box at x = 1007
        with pytest.raises(DepthExceeded, match="panels"):
            overlap(halfline_state(1e12, 0), halfline_state(1e12, 0))

    def test_needs_compatible_states(self):
        even, _ = fullline_states(0.5, 1)
        with pytest.raises(DomainMismatch):
            gram([halfline_state(0.5, 0), even])
        with pytest.raises(DomainMismatch):
            gram([halfline_state(0.5, 0), halfline_state(0.7, 0)])
        with pytest.raises(ParameterError):
            gram([])


def _inverse_square(x):
    return 1.0 / (x * x)


class TestWeightedGram:
    """gram(states, w): the matrix of the multiplication operator w on the
    same rule, fold and gap check as the Gram matrix."""

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 2.0, 7.9])
    def test_hellmann_feynman(self, alpha):
        # d eps / d alpha = <1/(2 x^2)> and d eps / d alpha = 1/(2 beta + 1),
        # so (beta + 1/2) <1/x^2> = 1 for every n; at alpha = 0 the branch
        # is beta = 0
        for n in range(12):
            s = halfline_state(alpha, n)
            mean = gram((s,), _inverse_square)[0, 0]
            assert abs((s.beta + 0.5) * mean - 1.0) <= 1e-12, n

    def test_full_line_is_symmetric_and_folds_parity(self):
        states = [s for n in range(3) for s in fullline_states(0.5, n)]
        g = gram(states, _inverse_square)
        np.testing.assert_array_equal(g, g.T)
        for i, s1 in enumerate(states):
            for j, s2 in enumerate(states):
                if s1.parity is not s2.parity:
                    assert g[i, j] == 0.0, (i, j)
        # the diagonal is twice the half-axis of the 1/sqrt(2)-scaled state
        half = gram((halfline_state(0.5, 0),), _inverse_square)[0, 0]
        assert g[0, 0] == pytest.approx(half, rel=1e-13)

    def test_weight_that_is_not_finite_raises_with_no_warning(self):
        states = [halfline_state(0.5, n) for n in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DepthExceeded, match="weight is not finite"):
                gram(states, lambda x: np.where(x > 1.0, np.inf, 1.0))

    def test_unit_weight_is_the_gram_matrix(self):
        states = [halfline_state(0.5, n) for n in range(6)]
        np.testing.assert_array_equal(gram(states, np.ones_like), gram(states))

    @pytest.mark.parametrize(
        "state",
        [
            # psi^2 / x^2 ~ x^(2 beta), beta = -0.276: the two rules differ
            # by 8.8e-8
            halfline_state(-0.2, 0),
            # psi(0) != 0: psi^2 / x^2 is not integrable, the gap is 3e21
            fullline_states(0.0, 0)[0],
        ],
        ids=["alpha=-0.2", "alpha=0 even"],
    )
    def test_refuses_what_it_cannot_resolve(self, state):
        with pytest.raises(DepthExceeded, match="differ by"):
            gram((state,), lambda x: 0.5 / (x * x))
