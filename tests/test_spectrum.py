"""Closed-form eigensystem: energies, normalization, parity, tables."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singosc import spectrum
from singosc.cli import emit_rows
from singosc.errors import InadmissibleError, ParameterError, SupercriticalError
from singosc.model import Domain, Parity, indicial_roots
from singosc.spectrum import (
    DIVERGENT,
    _state,
    energy,
    fullline_states,
    halfline_state,
    normalization_constant,
    perturbation_first_order,
    spectrum_table,
)

subcritical_nonzero = st.floats(min_value=-0.249, max_value=20.0).filter(
    lambda a: a != 0.0
)


class TestEnergy:
    def test_reference_values(self):
        assert energy(0, 1.0) == 2.5
        assert energy(2, 0.0) == 5.5
        assert energy(0, -1.0) == 0.5

    @given(st.integers(0, 30), st.floats(min_value=-1.0, max_value=10.0))
    @settings(max_examples=100)
    def test_linear_in_n(self, n, beta):
        assert energy(n + 1, beta) - energy(n, beta) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n, beta",
        [
            (0, 2.0**54),  # doubles 4 apart
            (0, 3.1622776601683792e16),  # beta_plus at alpha = 1e33
            (0, 1e17),
            # doubles 2 apart, but 2n + beta rounds to 2^53 + 4 at n = 69
            # and 70 alike, and + 3/2 to 2^53 + 6
            (70, 2.0**53 - 135),
            (69, 2.0**53 - 135),
            (0, math.inf),
            (0, math.nan),
        ],
    )
    def test_levels_doubles_cannot_separate_raise(self, n, beta):
        with pytest.raises(ParameterError, match="do not separate"):
            energy(n, beta)

    def test_levels_stay_distinct_below_two_to_the_54(self):
        # beta_plus at alpha = 3e32: eps = 1.73e16, doubles 2 apart
        beta = 1.7320508075688772e16
        levels = [energy(n, beta) for n in range(50)]
        assert all(b - a == 2.0 for a, b in zip(levels, levels[1:]))


class TestNormalizationConstant:
    def test_frozen_reference(self):
        # beta = 1 ground state: sqrt(2/Gamma(2.5))
        assert normalization_constant(0, 1.0) == pytest.approx(
            1.226582877806204, rel=1e-12
        )

    @given(
        st.integers(0, 15),
        st.floats(min_value=-1.49, max_value=6.0),
    )
    @settings(max_examples=150)
    def test_squared_form(self, n, beta):
        a = normalization_constant(n, beta)
        want = 2.0 * math.factorial(n) / math.gamma(n + beta + 1.5)
        assert a > 0
        assert a * a == pytest.approx(want, rel=1e-11)

    def test_rejects_deep_beta(self):
        with pytest.raises(ParameterError):
            normalization_constant(0, -1.5)


class TestHalflineState:
    def test_energy_and_exponent(self):
        s = halfline_state(2.0, 1)
        assert s.beta == pytest.approx(1.0, rel=1e-14)
        assert s.energy_eps == pytest.approx(4.5, rel=1e-14)
        assert s.parity is Parity.NONE
        assert s.domain is Domain.HALF_LINE

    def test_ground_state_positive(self):
        s = halfline_state(0.5, 0)
        x = np.linspace(0.01, 6.0, 500)
        assert np.all(np.asarray(s.psi(x)) > 0)

    def test_node_count(self):
        s = halfline_state(0.5, 3)
        x = np.linspace(1e-3, 8.0, 4000)
        signs = np.sign(np.asarray(s.psi(x)))
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert flips == 3

    def test_rejects_negative_x(self):
        s = halfline_state(0.5, 0)
        with pytest.raises(ParameterError):
            s.psi(-0.5)

    def test_alpha_zero_defaults_to_branch_zero(self):
        # the gate's default beta_plus, the alpha -> 0 limit of beta_plus
        for n in (0, 1, 7):
            assert halfline_state(0.0, n) == halfline_state(0.0, n, beta_branch=0.0)

    def test_alpha_zero_branches(self):
        odd_like = halfline_state(0.0, 0, beta_branch=0.0)
        even_like = halfline_state(0.0, 0, beta_branch=-1.0)
        assert odd_like.energy_eps == 1.5
        assert even_like.energy_eps == 0.5
        assert odd_like.psi(0.0) == 0.0
        assert even_like.psi(0.0) == pytest.approx(
            math.sqrt(2.0 / math.sqrt(math.pi)), rel=1e-12
        )

    def test_branch_rejected_away_from_zero(self):
        with pytest.raises(InadmissibleError) as exc:
            halfline_state(0.5, 0, beta_branch=-1.0)
        assert not isinstance(exc.value, SupercriticalError)

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            halfline_state(-0.25, 0)



def _states(alpha, n):
    """Every state at (alpha, n): half-line (both branches at alpha = 0)
    and the full-line even/odd pair."""
    if alpha == 0:
        half = [halfline_state(0.0, n, beta_branch=b) for b in (-1.0, 0.0)]
    else:
        half = [halfline_state(alpha, n)]
    return half + fullline_states(alpha, n)


class TestScalarPath:
    """psi of a 0-d x runs the same array expression as an array:
    the same values bit for bit, returned as a Python float."""

    @given(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=-0.25, max_value=8.0, exclude_min=True),
        ),
        st.integers(0, 12),
        st.lists(st.floats(min_value=0.0, max_value=9.0), min_size=1, max_size=10),
    )
    @settings(max_examples=120, deadline=None)
    def test_scalar_equals_array(self, alpha, n, xs):
        pos = [0.0, *xs]
        for s in _states(alpha, n):
            grid = pos if s.domain is Domain.HALF_LINE else pos + [-x for x in pos]
            for x, v in zip(grid, s.psi(np.array(grid))):
                assert s.psi(x) == v

    @pytest.mark.parametrize(
        "wrap",
        [lambda v: v, np.float64, lambda v: int(round(v)), np.array],
        ids=["float", "np.float64", "int", "0-d array"],
    )
    def test_zero_d_inputs_return_float(self, wrap):
        for s in _states(0.7, 3):
            for x in (2.0, -2.0) if s.domain is Domain.FULL_LINE else (2.0,):
                assert type(s.psi(wrap(x))) is float
                assert s.psi(wrap(x)) == s.psi(np.array([x]))[0]

    @pytest.mark.parametrize("x", [-0.5, np.float64(-0.5), -1, np.array(-0.5), np.array([0.5, -1e-300])])
    def test_halfline_rejects_negative_x(self, x):
        s = halfline_state(0.7, 2)
        with pytest.raises(ParameterError):
            s.psi(x)


class TestPsiIsFiniteOrRaises:
    """psi returns finite values or raises ParameterError, with no numpy
    warning: a factor that overflows is never multiplied into a NaN."""

    @pytest.mark.parametrize(
        "state, x, match",
        [
            # x^(beta+1) overflows where e^(-x^2/2) underflows to 0
            (halfline_state(1.0, 0), np.array([0.0, 5e199, 1e200]), r"psi is not finite at xi = 5e\+199: "),
            # x^(beta+1) with beta near 1000 overflows inside the printed grid
            (halfline_state(1e6, 0), np.array([10.0, 20.0, 30.0, 40.0]), "psi is not finite at xi = 10: "),
            (fullline_states(1e6, 0)[1], np.array([1.0, -10.0]), "psi is not finite at xi = -10: "),
            # L_n overflows first and raises with laguerre's own text
            (halfline_state(0.5, 300), 40.0, r"L_300\(y\) is not finite"),
        ],
    )
    def test_overflow_raises(self, state, x, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=match):
                state.psi(x)

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize(
        "x, named",
        [
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (np.array([0.5, math.nan, math.inf]), "nan"),
            (np.array([[0.5, -math.inf], [math.nan, 1.0]]), "-inf"),
        ],
    )
    def test_x_that_is_not_finite_is_named(self, n, x, named):
        # checked before any factor: at n = 0 a NaN x read "a factor of it
        # overflows", and from n = 1 laguerre's "y is not" text
        for s in [halfline_state(0.5, n), *fullline_states(0.5, n)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError) as info:
                    s.psi(x)
            assert str(info.value) == f"psi needs a finite xi, got xi = {named}", s

    def test_finite_values_are_returned(self):
        # the check keeps the values it passes: psi far out is 0, not NaN
        s = halfline_state(1.0, 0)
        assert s.psi(np.array([0.0, 40.0])).tolist() == [0.0, 0.0]


class TestFulllineStates:
    def test_degenerate_pair(self):
        even, odd = fullline_states(1.3, 2)
        assert even.parity is Parity.EVEN and odd.parity is Parity.ODD
        assert even.energy_eps == odd.energy_eps

    def test_parity_symmetry(self):
        even, odd = fullline_states(0.7, 1)
        x = np.linspace(-3.0, 3.0, 41)
        pe = np.asarray(even.psi(x))
        po = np.asarray(odd.psi(x))
        assert np.allclose(pe, pe[::-1], rtol=0, atol=1e-14)
        assert np.allclose(po, -po[::-1], rtol=0, atol=1e-14)

    def test_odd_vanishes_at_origin(self):
        _, odd = fullline_states(0.7, 0)
        assert odd.psi(0.0) == 0.0

    def test_free_case_energies(self):
        even, odd = fullline_states(0.0, 1)
        assert even.energy_eps == 2.5  # even intruder ladder 2n + 1/2
        assert odd.energy_eps == 3.5  # odd ladder 2n + 3/2

    def test_halved_weight_vs_halfline(self):
        half = halfline_state(0.6, 0)
        even, _ = fullline_states(0.6, 0)
        assert even.psi(1.0) == pytest.approx(half.psi(1.0) / math.sqrt(2.0), rel=1e-14)


class TestSpectrumTable:
    def test_halfline_sorted_and_simple(self):
        t = spectrum_table(0.5, 4, Domain.HALF_LINE)
        eps = [s.energy_eps for s in t.states]
        assert eps == sorted(eps)
        assert all(d == 1 for d in t.degeneracy)
        assert t.spacing == 2.0

    def test_fullline_degeneracy_column(self):
        t = spectrum_table(0.5, 3, Domain.FULL_LINE)
        assert all(d == 2 for d in t.degeneracy)
        assert t.spacing == 2.0

    def test_free_fullline_interleaved(self):
        t = spectrum_table(0.0, 4, Domain.FULL_LINE)
        assert t.distinct_levels() == tuple(n + 0.5 for n in range(10))
        assert all(d == 1 for d in t.degeneracy)
        assert t.spacing == 1.0

    # cli.emit_rows is the one serializer for spectrum tables
    def test_csv_round_trip(self, capsys):
        t = spectrum_table(0.7, 3, Domain.HALF_LINE)
        cols = t.columns()
        emit_rows(cols, list(cols), "csv", None)
        text = capsys.readouterr().out
        assert "\r" not in text
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == list(cols)
        assert len(rows) == len(t.states)
        for parsed, eps, beta, n in zip(rows, cols["eps"], cols["beta"], cols["n"]):
            assert float(parsed["eps"]) == eps
            assert float(parsed["beta"]) == beta
            assert int(parsed["n"]) == n

    def test_json_payload(self, capsys):
        t = spectrum_table(0.7, 2, Domain.FULL_LINE)
        emit_rows(t.columns(), [], "json", None, {"spacing": t.spacing})
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert doc["spacing"] == 2.0
        assert len(doc["rows"]) == 6
        # the layout the CLI writes: rows before spacing, indent 2, one "\n"
        assert list(doc) == ["rows", "spacing"]
        want = [
            {"alpha": 0.7, "domain": "full", "n": s.n, "parity": s.parity.value,
             "beta": s.beta, "eps": s.energy_eps, "degeneracy": 2}
            for s in t.states
        ]
        assert text == json.dumps({"rows": want, "spacing": 2.0}, indent=2) + "\n"
        assert text.startswith('{\n  "rows": [\n    {\n      "alpha": 0.7,')
        assert text.endswith('\n  "spacing": 2.0\n}\n')

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_branch_rejected_on_full_line(self, alpha):
        # the full-line table holds both alpha = 0 branches and picks none
        with pytest.raises(ParameterError, match="half-line"):
            spectrum_table(alpha, 1, Domain.FULL_LINE, beta_branch=0.0)

    def test_rejects_negative_n_max(self):
        with pytest.raises(ParameterError):
            spectrum_table(0.5, -1, Domain.HALF_LINE)

    @pytest.mark.parametrize("domain", ["half", "full", None])
    def test_rejects_a_domain_that_is_not_a_domain(self, domain):
        # a string or None is no Domain: it raises, and is not read as the
        # whole line
        with pytest.raises(ParameterError, match="domain must be a Domain"):
            spectrum_table(0.5, 1, domain)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, 0.5, -0.2])
    def test_entries_build_the_table_states(self, alpha):
        # one resolver picks the (beta, parity) families for the entries
        # and the tables: each state equals the table's state at (n, parity)
        # and records the alpha its caller passed, sign of zero included
        branches = [None, -1.0] if alpha == 0 else [None]
        for branch in branches:
            half = spectrum_table(alpha, 4, Domain.HALF_LINE, branch).states
            assert list(half) == [halfline_state(alpha, n, branch) for n in range(5)]
        full = spectrum_table(alpha, 4, Domain.FULL_LINE).states
        by_label = {(s.n, s.parity): s for s in full}
        assert len(by_label) == len(full) == 10
        for n in range(5):
            for s in fullline_states(alpha, n):
                assert s == by_label[s.n, s.parity]
        for s in half + full:
            assert math.copysign(1.0, s.alpha) == math.copysign(1.0, alpha)

    @given(subcritical_nonzero)
    @settings(max_examples=100)
    def test_distinct_level_gaps(self, alpha):
        t = spectrum_table(alpha, 5, Domain.HALF_LINE)
        gaps = np.diff(t.distinct_levels())
        assert np.all(np.abs(gaps - 2.0) < 1e-12)


class TestPerturbation:
    def test_odd_slope_is_unity(self):
        slope = perturbation_first_order(0, Parity.ODD)
        assert slope == pytest.approx(1.0, abs=1e-6)

    def test_even_diverges(self):
        assert perturbation_first_order(0, Parity.EVEN) is DIVERGENT

    def test_higher_odd_states_also_unity(self):
        # <1/(2x^2)> = 1 for every odd oscillator state, matching the
        # uniform first-order shift d eps/d alpha = 1
        for n in range(1, 8):
            slope = perturbation_first_order(n, Parity.ODD)
            assert abs(slope - 1.0) <= 1e-12, n

    def test_rejects_no_parity(self):
        with pytest.raises(ParameterError):
            perturbation_first_order(0, Parity.NONE)


@pytest.mark.parametrize("entry, args, count", [
    pytest.param(halfline_state, (2.0, 5), 1, id="halfline_state"),
    pytest.param(fullline_states, (2.0, 3), 1, id="fullline_states"),
    pytest.param(fullline_states, (0.0, 3), 2, id="fullline_states-alpha0"),
    pytest.param(spectrum_table, (2.0, 8, Domain.HALF_LINE), 1, id="spectrum_table-half"),
    pytest.param(spectrum_table, (2.0, 8, Domain.FULL_LINE), 1, id="spectrum_table-full"),
    pytest.param(spectrum_table, (0.0, 4, Domain.FULL_LINE), 2, id="spectrum_table-full-alpha0"),
    pytest.param(perturbation_first_order, (3, Parity.ODD), 1, id="perturbation_first_order"),
])
def test_one_gate_call_per_branch(entry, args, count, monkeypatch):
    # beta is resolved once per branch at the entry, not once per state
    calls = []
    gate = spectrum.admissible_beta

    def spy(*rest):
        calls.append(rest)
        return gate(*rest)

    monkeypatch.setattr(spectrum, "admissible_beta", spy)
    entry(*args)
    assert len(calls) == count


def test_state_takes_the_root_the_gate_rejects():
    # beta_minus at 0 < alpha < 3/4 passes no gate in the one constructor
    beta = indicial_roots(0.5).beta_minus
    with pytest.raises(InadmissibleError):
        halfline_state(0.5, 2, beta)
    s = _state(0.5, 2, beta)
    assert s.beta == beta and s.energy_eps == energy(2, beta)
    assert s.domain is Domain.HALF_LINE and s.parity is Parity.NONE


class TestEigenStateInvariants:
    @given(
        subcritical_nonzero,
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponent_energy_consistency(self, alpha, n):
        s = halfline_state(alpha, n)
        beta = indicial_roots(alpha).beta_plus
        assert s.energy_eps == pytest.approx(2 * n + beta + 1.5, rel=1e-14)
        assert s.beta == beta

    @given(st.floats(min_value=-0.24, max_value=5.0).filter(lambda a: a != 0.0))
    @settings(max_examples=40, deadline=None)
    def test_psi_scalar_and_array_agree(self, alpha):
        s = halfline_state(alpha, 1)
        xs = np.array([0.3, 1.0, 2.5])
        arr = np.asarray(s.psi(xs))
        for i, x in enumerate(xs):
            assert arr[i] == pytest.approx(s.psi(float(x)), rel=1e-14)
