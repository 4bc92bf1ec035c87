"""Named verification suites behind `singosc verify`.

Each suite reports PASS/FAIL per check with the measured number and its
bound, so the CLI can render or serialize them uniformly.  Every check
re-derives an analytic claim numerically except six that restate a
closed form, each the report's only line for its claim: "beta_minus
rejected" and "even ground state" until the finite-difference oracle
runs both indicial branches, and the three "even/odd degenerate" lines
and "alpha=0 combined spectrum" until a whole-line oracle measures them.

`run_suites` is the one judge of a request: it checks the suite names and
alpha before any suite runs.  The oracles and the quadrature are imported
inside the suites that call them, and the CLI imports this module only
for `singosc verify`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import spectrum
from .errors import ParameterError, SupercriticalError
from .model import ALPHA_CRITICAL, Domain, Parity, admissible_beta, indicial_roots

ORACLE_TOL_SHOOT, ORACLE_TOL_FD = 1e-4, 5e-3  # bounds on the largest relative level error


class Check(NamedTuple):
    name: str
    passed: bool
    measured: str
    bound: str


class SuiteReport(NamedTuple):
    """A suite's name and its checks, in order."""

    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        """Every check passed, and there is at least one."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        checks = [c._asdict() for c in self.checks]
        return {"suite": self.suite, "passed": self.passed, "checks": checks}


def suite_hermiticity() -> SuiteReport:
    """Admissibility: beta_minus rejection and the supercritical wall."""
    import numpy as np

    from . import oracle, quad

    checks = []
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
    checks.append(Check(
        "beta_minus rejected on (-1/4,0)u(0,3/4)",
        ok,
        f"min |2 beta_minus| = {worst:.3f} (all < -1 classed non-integrable)",
        "NonIntegrable everywhere",
    ))
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
    checks.append(Check(
        "entry points raise SupercriticalError",
        raised == probes,
        f"{raised}/{probes} raised",
        "all",
    ))
    return SuiteReport("hermiticity", tuple(checks))


def suite_orthonormality() -> SuiteReport:
    """Gram matrices of the first 6 half-line states: |G - I| bounds the
    closed-form norm constants' error |1/sqrt(G_nn) - 1| too."""
    import numpy as np

    from . import quad

    checks = []
    tol = 1e-8
    for alpha in (-0.2, 0.0, 0.5, 2.0):
        states = [spectrum.halfline_state(alpha, n) for n in range(6)]
        gram = quad.gram(states)
        worst = float(np.max(np.abs(gram - np.eye(6))))
        checks.append(Check(
            f"gram 6x6 alpha={alpha}",
            worst <= tol,
            f"max |G - I| = {worst:.2e}",
            f"<= {tol:.0e}",
        ))
    return SuiteReport("orthonormality", tuple(checks))


def suite_oracle(alphas: tuple[float, ...] = (0.5, 2.0), n_max: int = 3) -> SuiteReport:
    """Shooting and finite-difference eigenvalues vs the closed form."""
    from . import oracle

    checks = []
    for alpha in alphas:
        levels = spectrum.spectrum_table(alpha, n_max, Domain.HALF_LINE).distinct_levels()
        for name, result, tol in (
            ("shooting", oracle.shoot_spectrum(alpha, n_max), ORACLE_TOL_SHOOT),
            ("finite-difference", oracle.fd_eigen(alpha, n_max + 1), ORACLE_TOL_FD),
        ):
            r = oracle.compare(levels, result, tol)
            checks.append(Check(
                f"{name} alpha={alpha}",
                r.passed,
                f"max rel err {r.max_rel_error:.2e}",
                f"<= {tol:.0e}",
            ))
    return SuiteReport("oracle", tuple(checks))


def suite_degeneracy() -> SuiteReport:
    """Exact double degeneracy for alpha != 0; simple levels at alpha = 0."""
    checks = []
    for alpha in (0.2, 0.5, 2.0):
        gaps = []
        for n in range(5):
            even, odd = spectrum.fullline_states(alpha, n)
            gaps.append(abs(even.energy_eps - odd.energy_eps))
        checks.append(Check(
            f"even/odd degenerate alpha={alpha}",
            max(gaps) == 0.0,
            f"max |eps_even - eps_odd| = {max(gaps):.1e}",
            "= 0 (machine exact)",
        ))
    table = spectrum.spectrum_table(0.0, 4, Domain.FULL_LINE)
    levels = table.distinct_levels()
    expected = tuple(n + 0.5 for n in range(10))
    checks.append(Check(
        "alpha=0 combined spectrum",
        levels == expected and all(d == 1 for d in table.degeneracy),
        f"levels {levels[:4]}... all simple",
        "{n + 1/2 : n <= 9}, multiplicity 1",
    ))
    return SuiteReport("degeneracy", tuple(checks))


def suite_perturbation() -> SuiteReport:
    """First-order slope at alpha = 0: odd finite (1.0), even divergent."""
    checks = []
    slope = spectrum.perturbation_first_order(0, Parity.ODD)
    checks.append(Check(
        "odd ground-state slope",
        abs(slope - 1.0) <= 1e-6,
        f"slope {slope:.9f}",
        "1.0 +- 1e-6",
    ))
    even = spectrum.perturbation_first_order(0, Parity.EVEN)
    checks.append(Check(
        "even ground state",
        even is spectrum.DIVERGENT,
        repr(even),
        "Divergent",
    ))
    return SuiteReport("perturbation", tuple(checks))


SUITES = {
    "hermiticity": suite_hermiticity,
    "orthonormality": suite_orthonormality,
    "oracle": suite_oracle,
    "degeneracy": suite_degeneracy,
    "perturbation": suite_perturbation,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(names: tuple[str, ...], alpha: float | None = None) -> list[SuiteReport]:
    """Run the named suites, alpha overriding the oracle suite's.  Before
    any suite runs, in this order: every name must be a suite, alpha needs
    the oracle suite among the names, and alpha must pass admissible_beta."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ParameterError(f"unknown suites {unknown}; choose from {SUITE_NAMES}")
    if alpha is not None:
        if "oracle" not in names:
            raise ParameterError(f"alpha applies to the oracle suite only, not to {list(names)}")
        admissible_beta(alpha)
    return [SUITES[name](alphas=(alpha,)) if name == "oracle" and alpha is not None
            else SUITES[name]() for name in names]
