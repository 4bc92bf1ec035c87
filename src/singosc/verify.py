"""Named verification suites behind `singosc verify`.

Each suite re-derives one analytic claim numerically and reports
PASS/FAIL per check with the measured number and its bound, so the CLI
(and the test suite) can render or serialize them uniformly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import oracle, quad, spectrum
from .errors import SupercriticalError
from .model import ALPHA_CRITICAL, Domain, Parity, admissible_betas, indicial_roots


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: str
    bound: str


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, measured: str, bound: str) -> None:
        self.checks.append(Check(name, bool(passed), measured, bound))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def suite_hermiticity() -> SuiteReport:
    """Admissibility: beta_minus rejection and the supercritical wall."""
    rep = SuiteReport("hermiticity")
    grid = np.concatenate(
        [np.linspace(-0.249, -0.001, 40), np.linspace(0.001, 0.749, 40)]
    )
    worst = float("inf")
    ok = True
    for a in grid:
        bm = indicial_roots(float(a)).beta_minus
        cls = quad.integrability_class(2.0 * bm)
        ok &= cls is quad.IntegrabilityClass.NON_INTEGRABLE
        worst = min(worst, -(2.0 * bm))
    rep.add(
        "beta_minus rejected on (-1/4,0)u(0,3/4)",
        ok,
        f"min |2 beta_minus| = {worst:.3f} (all < -1 classed non-integrable)",
        "NonIntegrable everywhere",
    )
    flags_ok = all(admissible_betas(a).supercritical for a in (ALPHA_CRITICAL, -0.26, -1.0, -5.0))
    flags_ok &= not any(
        admissible_betas(a).supercritical for a in (-0.249, -0.1, 0.0, 1.0)
    )
    rep.add(
        "supercritical flag boundary",
        flags_ok,
        "flag true exactly for alpha <= -1/4 on samples",
        f"alpha <= {ALPHA_CRITICAL}",
    )
    raised = 0
    probes = 0
    for alpha in (ALPHA_CRITICAL, -0.3):
        for entry in (
            lambda a: spectrum.halfline_state(a, 0),
            lambda a: spectrum.fullline_states(a, 0),
            lambda a: spectrum.spectrum_table(a, 1, Domain.HALF_LINE),
            lambda a: oracle.fd_eigen(a, k=1),
            lambda a: oracle.shoot_eigen(a, 0),
            lambda a: oracle.frobenius_start(a, 1.0, 1e-3),
        ):
            probes += 1
            try:
                entry(alpha)
            except SupercriticalError:
                raised += 1
    rep.add(
        "entry points raise SupercriticalError",
        raised == probes,
        f"{raised}/{probes} raised",
        "all",
    )
    betas = [admissible_betas(float(a)).beta_plus for a in np.linspace(-0.249, 10.0, 60)]
    rep.add(
        "beta_plus strictly increasing",
        bool(np.all(np.diff(betas) > 0)),
        f"min increment {np.min(np.diff(betas)):.2e}",
        "> 0",
    )
    return rep


def suite_orthonormality() -> SuiteReport:
    """Gram matrices of the first 6 half-line states and norm constants."""
    rep = SuiteReport("orthonormality")
    tol = 1e-8
    for alpha in (-0.2, 0.0, 0.5, 2.0):
        branch = 0.0 if alpha == 0 else None
        states = [spectrum.halfline_state(alpha, n, branch) for n in range(6)]
        worst = 0.0
        norms2 = []
        for i in range(6):
            for j in range(i, 6):
                g = quad.overlap(states[i], states[j])
                if i == j:
                    norms2.append(g)
                worst = max(worst, abs(g - (1.0 if i == j else 0.0)))
        rep.add(
            f"gram 6x6 alpha={alpha}",
            worst <= tol,
            f"max |G - I| = {worst:.2e}",
            f"<= {tol:.0e}",
        )
        worst_norm = 0.0
        for s, norm2 in zip(states, norms2):
            a_quad = s.norm_const / np.sqrt(norm2)
            worst_norm = max(worst_norm, abs(a_quad / s.norm_const - 1.0))
        rep.add(
            f"closed-form norm constants alpha={alpha}",
            worst_norm <= tol,
            f"max rel gap vs quadrature = {worst_norm:.2e}",
            f"<= {tol:.0e}",
        )
    return rep


def suite_oracle(
    alphas: tuple[float, ...] = (0.5, 2.0),
    n_max: int = 3,
    tol_shoot: float = 1e-4,
) -> SuiteReport:
    """Shooting and finite-difference eigenvalues vs the closed form."""
    rep = SuiteReport("oracle")
    tol_fd = 5e-3
    for alpha in alphas:
        table = spectrum.spectrum_table(alpha, n_max, Domain.HALF_LINE)
        shoot = oracle.shoot_spectrum(alpha, n_max)
        r1 = oracle.compare(table, shoot, tol_shoot)
        rep.add(
            f"shooting alpha={alpha}",
            r1.passed,
            f"max rel err {r1.max_rel_error:.2e}",
            f"<= {tol_shoot:.0e}",
        )
        fd = oracle.fd_eigen(alpha, n_max + 1)
        r2 = oracle.compare(table, fd, tol_fd)
        rep.add(
            f"finite-difference alpha={alpha}",
            r2.passed,
            f"max rel err {r2.max_rel_error:.2e}",
            f"<= {tol_fd:.0e}",
        )
    return rep


def suite_degeneracy() -> SuiteReport:
    """Exact double degeneracy for alpha != 0; simple levels at alpha = 0."""
    rep = SuiteReport("degeneracy")
    for alpha in (0.2, 0.5, 2.0):
        gaps = []
        for n in range(5):
            even, odd = spectrum.fullline_states(alpha, n)
            gaps.append(abs(even.energy_eps - odd.energy_eps))
        rep.add(
            f"even/odd degenerate alpha={alpha}",
            max(gaps) == 0.0,
            f"max |eps_even - eps_odd| = {max(gaps):.1e}",
            "= 0 (machine exact)",
        )
    table = spectrum.spectrum_table(0.0, 4, Domain.FULL_LINE)
    levels = table.distinct_levels()
    expected = tuple(n + 0.5 for n in range(10))
    rep.add(
        "alpha=0 combined spectrum",
        levels == expected and all(d == 1 for d in table.degeneracy),
        f"levels {levels[:4]}... all simple",
        "{n + 1/2 : n <= 9}, multiplicity 1",
    )
    return rep


def suite_perturbation() -> SuiteReport:
    """First-order slope at alpha = 0: odd finite (1.0), even divergent."""
    rep = SuiteReport("perturbation")
    slope = spectrum.perturbation_first_order(0, Parity.ODD)
    rep.add(
        "odd ground-state slope",
        abs(slope - 1.0) <= 1e-6,
        f"slope {slope:.9f}",
        "1.0 +- 1e-6",
    )
    even = spectrum.perturbation_first_order(0, Parity.EVEN)
    rep.add(
        "even ground state",
        even is spectrum.DIVERGENT,
        repr(even),
        "Divergent",
    )
    delta = 1e-8
    fd_slope = (indicial_roots(delta).beta_plus - indicial_roots(0.0).beta_plus) / delta
    rep.add(
        "exact slope d beta_plus / d alpha at 0",
        abs(fd_slope - 1.0) <= 1e-6,
        f"finite difference {fd_slope:.9f}",
        "1.0 +- 1e-6",
    )
    return rep


SUITES = {
    "hermiticity": suite_hermiticity,
    "orthonormality": suite_orthonormality,
    "oracle": suite_oracle,
    "degeneracy": suite_degeneracy,
    "perturbation": suite_perturbation,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(
    names: tuple[str, ...],
    alpha: float | None = None,
    tol: float | None = None,
) -> list[SuiteReport]:
    """Run the named suites; alpha/tol override the oracle suite only."""
    overrides = {}
    if alpha is not None:
        overrides["alphas"] = (alpha,)
    if tol is not None:
        overrides["tol_shoot"] = tol
    reports = []
    for name in names:
        suite = SUITES.get(name)
        if suite is None:
            raise ValueError(f"unknown suite {name!r}")
        reports.append(suite(**overrides) if name == "oracle" else suite())
    return reports
