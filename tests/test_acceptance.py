"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test records its verdict (with measured numbers) on the shared
board in conftest.py before asserting, so the end-of-run summary always
shows every criterion.  Tolerances are pinned here and must not be
loosened; a criterion that cannot be met fails loudly.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from singosc import cli, oracle, quad, spectrum
from singosc.errors import (
    InadmissibleError,
    PVDivergent,
    SupercriticalError,
)
from singosc.model import Domain, Parity, admissible_betas, indicial_roots
from singosc.specfun import hermite, kummer_m, kummer_m_asymptotic, laguerre

ORACLE_ALPHAS = (-0.24, -0.1, 0.5, 2.0)
N_MAX = 4


@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion-1 workload, shared with criterion 2 (oracle spacing)."""
    runs = {}
    t0 = time.perf_counter()
    for alpha in ORACLE_ALPHAS:
        table = spectrum.spectrum_table(alpha, N_MAX, Domain.HALF_LINE)
        shoot = oracle.shoot_spectrum(alpha, N_MAX)
        fd = oracle.fd_eigen(alpha, N_MAX + 1)
        runs[alpha] = (table, shoot, fd)
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_01_spectrum_formula_vs_oracles(oracle_runs):
    runs, elapsed = oracle_runs
    worst_shoot = worst_fd = 0.0
    for alpha, (table, shoot, fd) in runs.items():
        levels = table.distinct_levels()
        worst_shoot = max(worst_shoot, oracle.compare(levels, shoot, 1e-4).max_rel_error)
        worst_fd = max(worst_fd, oracle.compare(levels, fd, 5e-3).max_rel_error)
    ok = worst_shoot <= 1e-4 and worst_fd <= 5e-3 and elapsed < 10.0
    record_criterion(
        1,
        "spectrum formula vs shooting/finite-difference oracles",
        ok,
        f"shoot {worst_shoot:.2e} <= 1e-4, fd {worst_fd:.2e} <= 5e-3, "
        f"{elapsed:.1f}s < 10s",
    )
    assert worst_shoot <= 1e-4
    assert worst_fd <= 5e-3
    assert elapsed < 10.0


def test_criterion_02_level_spacing(oracle_runs):
    runs, _ = oracle_runs
    analytic_ok = True
    for alpha in (0.5, 2.0, -0.2):
        half = spectrum.spectrum_table(alpha, 5, Domain.HALF_LINE)
        full = spectrum.spectrum_table(alpha, 5, Domain.FULL_LINE)
        analytic_ok &= half.spacing == 2.0 and full.spacing == 2.0
        analytic_ok &= bool(
            np.all(np.abs(np.diff(half.distinct_levels()) - 2.0) < 1e-12)
        )
    free = spectrum.spectrum_table(0.0, 5, Domain.FULL_LINE)
    analytic_ok &= free.spacing == 1.0
    analytic_ok &= all(d == 1.0 for d in np.diff(free.distinct_levels()))
    worst = 0.0
    for alpha, (_, shoot, _) in runs.items():
        gaps = np.diff(np.sort(shoot.eigenvalues))
        worst = max(worst, float(np.abs(gaps - 2.0).max()))
    ok = analytic_ok and worst <= 1e-3
    record_criterion(
        2,
        "level spacing 2 (1 for free full line); oracle spacing 2 +- 1e-3",
        ok,
        f"analytic exact, oracle worst |gap-2| = {worst:.1e}",
    )
    assert analytic_ok
    assert worst <= 1e-3


def test_criterion_03_ground_state_bounds():
    alphas = np.linspace(-0.249, 10.0, 51)[1:]
    eps0 = np.array(
        [spectrum.halfline_state(float(a), 0).energy_eps for a in alphas]
    )
    full0 = np.array(
        [
            spectrum.fullline_states(float(a), 0)[0].energy_eps
            for a in alphas
            if a != 0.0
        ]
    )
    ok = bool(np.all(eps0 > 1.0) and np.all(np.diff(eps0) > 0) and np.all(full0 > 1.0))
    record_criterion(
        3,
        "half-line eps0 > 1, strictly increasing; singular full-line eps0 > 1",
        ok,
        f"min eps0 = {eps0.min():.4f}, min increment {np.diff(eps0).min():.2e}",
    )
    assert np.all(eps0 > 1.0)
    assert np.all(np.diff(eps0) > 0)
    assert np.all(full0 > 1.0)


def test_criterion_04_degeneracy():
    pair_ok = True
    for alpha in (0.2, 0.5, 2.0):
        for n in range(5):
            even, odd = spectrum.fullline_states(alpha, n)
            pair_ok &= even.energy_eps == odd.energy_eps
    free = spectrum.spectrum_table(0.0, 4, Domain.FULL_LINE)
    free_ok = free.distinct_levels() == tuple(n + 0.5 for n in range(10))
    free_ok &= all(d == 1 for d in free.degeneracy)
    ok = pair_ok and free_ok
    record_criterion(
        4,
        "even/odd degeneracy exact for alpha != 0; free spectrum {n+1/2} simple",
        ok,
        "machine-exact equality" if ok else "mismatch",
    )
    assert pair_ok
    assert free_ok


def test_criterion_05_orthonormality():
    worst_gram = worst_norm = 0.0
    for alpha in (*ORACLE_ALPHAS, 0.0):
        branch = 0.0 if alpha == 0.0 else None
        states = [spectrum.halfline_state(alpha, n, branch) for n in range(6)]
        for i in range(6):
            for j in range(i, 6):
                g = quad.overlap(states[i], states[j])
                worst_gram = max(worst_gram, abs(g - (1.0 if i == j else 0.0)))
        for s in states:
            norm2 = quad.overlap(s, s)
            worst_norm = max(worst_norm, abs(1.0 / math.sqrt(norm2) - 1.0))
    ok = worst_gram <= 1e-8 and worst_norm <= 1e-8
    record_criterion(
        5,
        "6x6 Gram matrices identity within 1e-8; norm constants within 1e-8",
        ok,
        f"max |G-I| = {worst_gram:.1e}, max norm gap = {worst_norm:.1e}",
    )
    assert worst_gram <= 1e-8
    assert worst_norm <= 1e-8


def test_criterion_06_special_function_identities():
    xi = np.linspace(0.1, 3.9, 20)
    worst_lag = 0.0
    for n in range(7):
        se = (-1) ** n / (math.factorial(n) * 2 ** (2 * n))
        so = (-1) ** n / (math.factorial(n) * 2 ** (2 * n + 1))
        for x in xi:
            even = se * hermite(2 * n, x)
            odd = so * hermite(2 * n + 1, x) / x
            worst_lag = max(
                worst_lag,
                abs(laguerre(n, -0.5, x * x) / even - 1.0),
                abs(laguerre(n, 0.5, x * x) / odd - 1.0),
            )
    kummer_errs = {}
    for a, b in ((0.35, 1.9), (-0.3, 1.2)):
        kummer_errs[(a, b)] = abs(
            kummer_m_asymptotic(a, b, 40.0) / kummer_m(a, b, 40.0) - 1.0
        )
    worst_kummer = max(kummer_errs.values())
    ok = worst_lag <= 1e-10 and worst_kummer <= 0.02
    record_criterion(
        6,
        "Laguerre-Hermite identities 1e-10; Kummer dominant term 2% at y=40",
        ok,
        f"Laguerre-Hermite {worst_lag:.1e} <= 1e-10; Kummer "
        + ", ".join(f"{k}: {v:.4f}" for k, v in kummer_errs.items())
        + " vs 0.02 (leading 1/y correction at y=40 exceeds 2%)",
    )
    assert worst_lag <= 1e-10
    # the dominant asymptotic term carries an intrinsic relative error of
    # about (b-a)(1-a)/y, which is 2.6% and 5.0% at y=40 for these pairs;
    # the pinned 2% bound therefore fails and records the measured gap
    assert worst_kummer <= 0.02


def test_criterion_07_hermiticity_and_supercritical(capsys):
    grid = np.concatenate(
        [np.linspace(-0.2499, -1e-4, 120), np.linspace(1e-4, 0.7499, 120)]
    )
    reject_ok = all(
        quad.integrability_class(2.0 * indicial_roots(float(a)).beta_minus)
        is quad.IntegrabilityClass.NON_INTEGRABLE
        for a in grid
    )
    raised = 0
    entry_points = (
        lambda a: spectrum.halfline_state(a, 0),
        lambda a: spectrum.fullline_states(a, 0),
        lambda a: spectrum.spectrum_table(a, 1, Domain.HALF_LINE),
        lambda a: spectrum.spectrum_table(a, 1, Domain.FULL_LINE),
        lambda a: oracle.fd_eigen(a, k=1),
        lambda a: oracle.fd_eigen_extrapolated(a, k=1),
        lambda a: oracle.shoot_spectrum(a, 0),
        lambda a: oracle.shoot_eigen(a, 0),
        lambda a: oracle.frobenius_start(a, 1.0, 1e-3),
    )
    probes = 0
    for alpha in (-0.25, -0.26, -2.0):
        flag_ok = admissible_betas(alpha).supercritical
        for entry in entry_points:
            probes += 1
            try:
                entry(alpha)
            except SupercriticalError:
                raised += 1
        probes += 1
        try:
            from singosc.model import classify_boundary

            classify_boundary(alpha, -0.5)
        except InadmissibleError as exc:
            raised += "supercritical" in str(exc)
        if not flag_ok:
            raised = -probes  # force failure if the flag itself is wrong
    cli_ok = True
    for argv in (
        ["spectrum", "--alpha", "-0.25", "--n-max", "1"],
        ["spectrum", "--alpha", "-0.3", "--n-max", "1"],
        ["wavefunction", "--alpha", "-1.0"],
        ["radial", "--alpha", "-0.25", "--l", "0"],
    ):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        cli_ok &= rc == 2 and "alpha <= -1/4" in err
    ok = reject_ok and raised == probes and cli_ok
    record_criterion(
        7,
        "beta_minus non-integrable on (-1/4,0)u(0,3/4); supercritical -> exit 2",
        ok,
        f"240 grid points rejected, {raised}/{probes} raises, CLI exit 2 incl. "
        "alpha = -0.25",
    )
    assert reject_ok
    assert raised == probes
    assert cli_ok


def test_criterion_08_perturbation_breakdown():
    slope = spectrum.perturbation_first_order(0, Parity.ODD)
    h = 1e-7
    exact = (indicial_roots(h).beta_plus - indicial_roots(0.0).beta_plus) / h
    even = spectrum.perturbation_first_order(0, Parity.EVEN)
    ok = (
        abs(slope - 1.0) <= 1e-6
        and abs(exact - 1.0) <= 1e-5
        and even is spectrum.DIVERGENT
    )
    record_criterion(
        8,
        "odd first-order slope 1.0 +- 1e-6 = d eps/d alpha; even Divergent",
        ok,
        f"odd slope {slope:.9f}, d beta/d alpha {exact:.6f}, even {even!r}",
    )
    assert abs(slope - 1.0) <= 1e-6
    assert abs(exact - 1.0) <= 1e-5
    assert even is spectrum.DIVERGENT


def test_criterion_09_principal_value():
    sym = quad.cauchy_pv(lambda x: 1.0 / x, -1.0, 1.0, 0.0)
    asym = quad.cauchy_pv(lambda x: 1.0 / x, -2.0, 1.0, 0.0)
    try:
        quad.cauchy_pv(lambda x: 1.0 / (x * x), -1.0, 1.0, 0.0)
        diverged = False
    except PVDivergent:
        diverged = True
    ok = abs(sym) <= 1e-10 and abs(asym + math.log(2.0)) <= 1e-8 and diverged
    record_criterion(
        9,
        "PV reciprocal integrals exact; even 1/x^2 flagged divergent",
        ok,
        f"symmetric {sym:.1e}, asymmetric err {abs(asym + math.log(2.0)):.1e}, "
        f"divergence detected: {diverged}",
    )
    assert abs(sym) <= 1e-10
    assert abs(asym + math.log(2.0)) <= 1e-8
    assert diverged


def _figure_rows(args, tmp_path, name):
    out = tmp_path / name
    rc = cli.main([*args, "--out", str(out)])
    assert rc == 0
    return list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))


def test_criterion_10_figure_regeneration(tmp_path):
    rows2 = _figure_rows(["figure", "2"], tmp_path, "fig2.csv")
    rows4 = _figure_rows(["figure", "4"], tmp_path, "fig4.csv")
    rows3 = _figure_rows(["figure", "3"], tmp_path, "fig3.csv")

    def curve_ok(rows, want_deg):
        curves = [r for r in rows if r["kind"] == "curve"]
        by_n = {}
        for r in curves:
            by_n.setdefault(int(r["n"]), []).append((float(r["alpha"]), float(r["eps"])))
        if set(by_n) != set(range(5)):
            return False
        for pts in by_n.values():
            pts.sort()
            eps = np.array([p[1] for p in pts])
            if len(pts) != 200 or not np.all(np.diff(eps) > 0):
                return False
            if np.max(np.diff(eps)) > 0.06:  # no jumps: curves stay continuous
                return False
        return all(int(r["degeneracy"]) == want_deg for r in curves)

    def marker_eps(rows):
        return sorted(float(r["eps"]) for r in rows if r["kind"] == "marker")

    fig2_ok = curve_ok(rows2, 1) and marker_eps(rows2) == [
        0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5,
    ]
    fig4_ok = curve_ok(rows4, 2) and marker_eps(rows4) == [
        0.5 + k for k in range(10)
    ]
    labels4 = [
        r["label"]
        for r in sorted(
            (r for r in rows4 if r["kind"] == "marker"), key=lambda r: float(r["eps"])
        )
    ]
    fig4_ok &= labels4 == ["even", "odd"] * 5

    peaks = {}
    origins_ok = True
    for a in (-0.249, -0.2, 0.2, 3.0):
        sub = [r for r in rows3 if float(r["alpha"]) == a]
        origins_ok &= float(sub[0]["psi"]) == 0.0
        rho = np.array([float(r["rho"]) for r in sub])
        xi = np.array([float(r["xi"]) for r in sub])
        peaks[a] = float(xi[np.argmax(rho)])
    peak_seq = [peaks[a] for a in sorted(peaks)]
    fig3_ok = origins_ok and all(
        peak_seq[i] < peak_seq[i + 1] for i in range(len(peak_seq) - 1)
    )
    ok = fig2_ok and fig4_ok and fig3_ok
    record_criterion(
        10,
        "figure data: continuous level curves, alpha=0 markers, psi(0)=0, "
        "monotone peak shift",
        ok,
        f"peaks {', '.join(f'{v:.3f}' for v in peak_seq)} (increasing)",
    )
    assert fig2_ok
    assert fig4_ok
    assert fig3_ok
