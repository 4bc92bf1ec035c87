"""The three workloads of the singosc benchmark: seeded inputs, one op
each, and the checker that grades every op.

Every workload is a closed loop with one client and one op in flight, in
one process.  Inputs depend only on the seed: op i of a seed is the same
on every run.  Continuous parameters come from a Kronecker sequence
u_k = frac(u_0 + k / phi) with a seeded start u_0, so each draw is
uniform on its range while a short run still covers the range evenly;
discrete choices are dealt in shuffled rounds with fixed shares.  Both
keep the op mix, and so the medians, alike from seed to seed.

Importing this module imports singosc, which is what a benchmark set-up
child times.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

import singosc
from singosc import cli, oracle, quad, spectrum, verify

OK, MISS, WRONG = "ok", "miss", "wrong"
"""Verdicts.  MISS: the program flagged its own failure (a suite check
reported FAIL, or a typed SingOscError).  WRONG: an answer that is wrong
or malformed and not flagged as such.  Both count as failed ops; only
WRONG makes a run incorrect."""

ORACLE_TOL_SHOOT = 1e-4  # verify.suite_oracle defaults, the package's own tolerances
ORACLE_TOL_FD = 5e-3
GRAM_TOL = 1e-8
PV_TOL = 1e-8
LEVEL_RTOL = 1e-12
CLI_TIMEOUT_S = 60.0

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Outcome:
    """What one op produced, as the checker graded it."""

    verdict: str
    detail: str = ""
    values: dict = field(default_factory=dict)


def closed_form_levels(alpha: float, n_max: int) -> list[float]:
    """eps_n = 2n + beta + 3/2 with beta = -1/2 + sqrt(1/4 + alpha),
    written out here so the checker shares no code with the package."""
    beta = -0.5 + math.sqrt(0.25 + alpha)
    return [2.0 * n + beta + 1.5 for n in range(n_max + 1)]


def _kronecker(rng: np.random.Generator) -> Iterator[float]:
    u = rng.random()
    while True:
        yield min(max(u, 1e-12), 1.0 - 1e-12)
        u = (u + _INV_PHI) % 1.0


# ---------------------------------------------------------------- oracle-sweep


def _strata(rng: np.random.Generator, block: list) -> Iterator[tuple]:
    """Deal the entries of `block` in shuffled rounds; yield each with the
    next value of its own Kronecker stream, so every stratum covers its
    range evenly on its own."""
    streams = {entry: _kronecker(rng) for entry in dict.fromkeys(block)}
    while True:
        for i in rng.permutation(len(block)):
            yield block[i], next(streams[block[i]])


ORACLE_ROUND = [("attractive", 4), ("attractive", 8), ("repulsive", 4), ("repulsive", 8)]


def oracle_inputs(seed: int) -> Iterator[dict]:
    """alpha half from (-1/4, 0), half from (0, 8]; n_max from {4, 8}."""
    rng = np.random.default_rng(seed)
    for (side, n_max), u in _strata(rng, ORACLE_ROUND):
        alpha = -0.25 * (1.0 - u) if side == "attractive" else 8.0 * (1.0 - u)
        yield {"alpha": alpha, "n_max": n_max}


@contextlib.contextmanager
def _capture(module, name: str) -> Iterator[list]:
    """Record (args, result) of every call to module.name in the block."""
    seen: list = []
    inner = getattr(module, name)

    def tap(*args, **kwargs):
        result = inner(*args, **kwargs)
        seen.append((args, result))
        return result

    setattr(module, name, tap)
    try:
        yield seen
    finally:
        setattr(module, name, inner)


def oracle_execute(inp: dict) -> tuple:
    """`singosc verify --suite oracle --alpha a` with n_max levels; also
    returns what each compare inside the suite saw."""
    with _capture(oracle, "compare") as compares:
        report = verify.suite_oracle(alphas=(inp["alpha"],), n_max=inp["n_max"])
    return report, [(args[1].method, result) for args, result in compares]


_MEASURED = re.compile(r"max rel err (\S+)$")


def check_oracle(inp: dict, result: tuple) -> Outcome:
    """Grade a suite_oracle report against the closed form.

    `result` is the SuiteReport and, for every compare the suite made,
    (OracleMethod, CompareReport).  The report is WRONG if its levels, errors or verdicts
    disagree with an independent recomputation; MISS if it is right and
    says FAIL.
    """
    report, compares = result
    alpha, n_max = inp["alpha"], inp["n_max"]
    methods = [m for m, _ in compares]
    if methods != [oracle.OracleMethod.SHOOTING, oracle.OracleMethod.FINITE_DIFFERENCE]:
        return Outcome(WRONG, f"unexpected compare sequence {methods}")
    if len(report.checks) != 2:
        return Outcome(WRONG, f"expected 2 checks, got {len(report.checks)}")
    expected = closed_form_levels(alpha, n_max)
    errors = {}
    for (method, cmp), check, tol in zip(
        compares, report.checks, (ORACLE_TOL_SHOOT, ORACLE_TOL_FD)
    ):
        analytic = list(cmp.analytic_levels)
        if len(analytic) != len(expected) or any(
            not math.isclose(a, e, rel_tol=LEVEL_RTOL) for a, e in zip(analytic, expected)
        ):
            return Outcome(WRONG, f"{method.value}: analytic levels differ from closed form")
        levels = list(cmp.oracle_levels)
        finite = len(levels) == len(expected) and all(math.isfinite(v) for v in levels)
        worst = (
            max(abs(o - e) / abs(e) for o, e in zip(levels, expected)) if finite else math.inf
        )
        if finite and not math.isclose(cmp.max_rel_error, worst, rel_tol=1e-9, abs_tol=1e-300):
            return Outcome(WRONG, f"{method.value}: max_rel_error {cmp.max_rel_error} != {worst}")
        should_pass = finite and worst <= tol
        if check.passed != should_pass or cmp.passed != should_pass:
            return Outcome(
                WRONG, f"{method.value}: verdict {check.passed} but error {worst:.3e} vs {tol:.0e}"
            )
        match = _MEASURED.search(check.measured)
        if finite and (
            match is None or not math.isclose(float(match.group(1)), worst, rel_tol=1e-2)
        ):
            return Outcome(WRONG, f"{method.value}: report says {check.measured!r}, error {worst:.3e}")
        errors[method] = worst
    if report.passed != all(c.passed for c in report.checks):
        return Outcome(WRONG, "suite verdict disagrees with its checks")
    values = {
        "shoot_rel_err": errors[oracle.OracleMethod.SHOOTING],
        "fd_rel_err": errors[oracle.OracleMethod.FINITE_DIFFERENCE],
    }
    if not report.passed:
        failed = ", ".join(f"{c.name} ({c.measured})" for c in report.checks if not c.passed)
        return Outcome(MISS, failed, values)
    return Outcome(OK, "", values)


# --------------------------------------------------------------- overlap-check


OVERLAP_ROUND = [6, 6, 12, 12, 12]


def overlap_inputs(seed: int) -> Iterator[dict]:
    """alpha on (-1/4, 8]; N = 6 for two ops in five, 12 for three; a
    principal-value interval [-a, b] with a, b on [0.25, 4].  With more
    N = 12 ops than N = 6 ones, the median and the tail op of a run both
    fall among the N = 12 ops, not in the gap between the two sizes."""
    rng = np.random.default_rng(seed)
    for size, u in _strata(rng, OVERLAP_ROUND):
        a, b = rng.uniform(0.25, 4.0, size=2)
        yield {"alpha": -0.25 + 8.25 * (1.0 - u), "N": size, "a": float(a), "b": float(b)}


def _gram_dev(states, inner: Callable) -> float:
    worst = 0.0
    for i, s in enumerate(states):
        for j in range(i, len(states)):
            g = inner(s, states[j])
            worst = max(worst, abs(g - (1.0 if i == j else 0.0)) if math.isfinite(g) else math.inf)
    return worst


def overlap_execute(inp: dict) -> tuple:
    """Half-line Gram matrix twice (adaptive and Gauss-Laguerre), the
    full-line even/odd Gram adaptively, and one principal value; returns
    the three max |G - I| and the principal value."""
    alpha, size = inp["alpha"], inp["N"]
    half = [spectrum.halfline_state(alpha, n) for n in range(size)]
    adaptive = _gram_dev(half, quad.overlap)
    gauss = _gram_dev(half, quad.overlap_halfline_gauss)
    full = [s for n in range(size // 2) for s in spectrum.fullline_states(alpha, n)]
    fullline = _gram_dev(full, quad.overlap)
    return adaptive, gauss, fullline, quad.cauchy_pv(_reciprocal, -inp["a"], inp["b"], 0.0)


def _reciprocal(x: float) -> float:
    return 1.0 / x


def check_overlap(inp: dict, result: tuple) -> Outcome:
    """Every |G - I| <= GRAM_TOL and the PV of 1/x within PV_TOL of ln(b/a)."""
    adaptive, gauss, fullline, pv = result
    pv_err = abs(pv - math.log(inp["b"] / inp["a"])) if math.isfinite(pv) else math.inf
    devs = (adaptive, gauss, fullline)
    dev = max(devs) if all(math.isfinite(d) for d in devs) else math.inf
    values = {"gram_max_dev": dev, "pv_err": pv_err}
    if not dev <= GRAM_TOL:
        return Outcome(
            WRONG, f"max |G - I| adaptive {adaptive:.2e} gauss {gauss:.2e} full {fullline:.2e}", values
        )
    if not pv_err <= PV_TOL:
        return Outcome(WRONG, f"principal value off by {pv_err:.2e}", values)
    return Outcome(OK, "", values)


# ------------------------------------------------------------------- cli-calls

_FIGURE_ROWS = {1: 450, 2: 1010, 3: 1604, 4: 1010}
_HEADERS = {
    "spectrum": ["alpha", "domain", "n", "parity", "beta", "eps", "degeneracy"],
    "radial": ["alpha", "l", "alpha_eff", "n", "parity", "beta", "eps", "degeneracy"],
    "wavefunction": ["xi", "psi", "rho"],
    1: ["alpha", "x", "V"],
    2: ["kind", "alpha", "n", "label", "eps", "degeneracy"],
    3: ["alpha", "xi", "psi", "rho"],
    4: ["kind", "alpha", "n", "label", "eps", "degeneracy"],
}
_TEXT_COLUMNS = {"domain", "parity", "kind", "label"}


CLI_ROUND = (
    [("spectrum", "half")] * 2
    + [("spectrum", "full")] * 2
    + [("radial", None)] * 2
    + [("wavefunction", "half")] * 3
    + [("wavefunction", "full")] * 2
    + [("figure", k) for k in (1, 2, 3, 4)]
)


def cli_inputs(seed: int) -> Iterator[dict]:
    """Per round of 15 commands: 4 spectrum (2 half, 2 full line), 2
    radial, 5 wavefunction (601 to 100 000 points, log-uniform) and one
    each of figure 1-4.  alpha on (-1/4, 8], n-max up to 50."""
    rng = np.random.default_rng(seed)
    points = {"half": _kronecker(rng), "full": _kronecker(rng)}
    for (kind, arg), u in _strata(rng, CLI_ROUND):
        alpha = repr(-0.25 + 8.25 * (1.0 - u))
        if kind == "spectrum":
            n_max = int(rng.integers(0, 51))
            argv = ["spectrum", "--alpha", alpha, "--n-max", str(n_max), "--domain", arg]
            rows = (n_max + 1) * (2 if arg == "full" else 1)
        elif kind == "radial":
            n_max = int(rng.integers(0, 51))
            argv = ["radial", "--alpha", alpha, "--l", str(int(rng.integers(0, 4))),
                    "--n-max", str(n_max)]
            rows = n_max + 1
        elif kind == "wavefunction":
            rows = int(round(601 * (100_000 / 601) ** next(points[arg])))
            argv = ["wavefunction", "--alpha", alpha, "--n", str(int(rng.integers(0, 6))),
                    "--domain", arg, "--xi-points", str(rows)]
            if arg == "full":
                argv += ["--parity", str(rng.choice(["even", "odd"]))]
        else:
            argv = ["figure", str(arg)]
            rows = _FIGURE_ROWS[arg]
        yield {"argv": argv, "rows": rows}


def cli_execute(inp: dict) -> subprocess.CompletedProcess:
    """One fresh `python -m singosc ...` process, waited for.  It inherits
    the environment, so PYTHONPATH must point at the source tree."""
    return subprocess.run(
        [sys.executable, "-m", "singosc", *inp["argv"]],
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )


def cli_replay(inp: dict) -> None:
    """The same command in-process, after import, output discarded: the
    only way to see the layers inside a fresh process from outside it."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(inp["argv"])


def check_cli(inp: dict, proc: subprocess.CompletedProcess) -> Outcome:
    """Exit 0, the expected header and row count, finite numbers; energies
    of spectrum and radial rows equal the closed form, rho = psi^2."""
    argv = inp["argv"]
    values = {"bytes_out": len(proc.stdout)}
    if proc.returncode != 0:
        flagged = proc.returncode in (1, 2) and proc.stderr.startswith(b"singosc: error:")
        return Outcome(
            MISS if flagged else WRONG, f"exit {proc.returncode}: {proc.stderr[-200:]!r}", values
        )
    try:
        table = list(csv.reader(io.StringIO(proc.stdout.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return Outcome(WRONG, f"unparseable CSV: {exc}", values)
    key = int(argv[1]) if argv[0] == "figure" else argv[0]
    if not table or table[0] != _HEADERS[key]:
        return Outcome(WRONG, f"header {table[:1]}", values)
    header, rows = table[0], table[1:]
    if len(rows) != inp["rows"]:
        return Outcome(WRONG, f"{len(rows)} rows, expected {inp['rows']}", values)
    numeric = [i for i, name in enumerate(header) if name not in _TEXT_COLUMNS]
    for row in rows:
        try:
            nums = {header[i]: float(row[i]) for i in numeric}
        except (ValueError, IndexError):
            return Outcome(WRONG, f"bad row {row}", values)
        if not all(math.isfinite(v) for v in nums.values()):
            return Outcome(WRONG, f"non-finite value in row {row}", values)
        if "eps" in nums and argv[0] != "figure":
            alpha = nums["alpha_eff" if argv[0] == "radial" else "alpha"]
            want = closed_form_levels(alpha, int(nums["n"]))[-1]
            if not math.isclose(nums["eps"], want, rel_tol=LEVEL_RTOL):
                return Outcome(WRONG, f"eps {nums['eps']} != closed form {want}", values)
        if "rho" in nums and nums["rho"] != nums["psi"] * nums["psi"]:
            return Outcome(WRONG, f"rho {nums['rho']} != psi^2", values)
    return Outcome(OK, "", values)


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """inputs(seed) yields op inputs in shuffled rounds of round_size
    ops, each round with the same mix; round_s is about one round's
    time on a 2-vCPU Intel Xeon VM, reference runs included, which fixes
    how many rounds a run of a given length takes (see ops_for);
    execute(inp) is the timed op;
    check(inp, result) grades it outside the timed region.  replay, when
    set, runs inside a traced op after execute.  in_process: the op runs
    in this interpreter, so its times are scaled by the reference loop;
    otherwise it is a fresh process, scaled by a reference process (see
    run.py)."""

    name: str
    in_process: bool
    round_size: int
    round_s: float
    inputs: Callable[[int], Iterator[dict]]
    execute: Callable[[dict], object]
    check: Callable[[dict, object], Outcome]
    warmup: dict
    replay: Callable[[dict], None] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-sweep", True, len(ORACLE_ROUND), 9.0, oracle_inputs, oracle_execute, check_oracle,
                 {"alpha": 2.0, "n_max": 4}),
        Workload("overlap-check", True, len(OVERLAP_ROUND), 5.5, overlap_inputs, overlap_execute, check_overlap,
                 {"alpha": 0.5, "N": 6, "a": 0.5, "b": 2.0}),
        Workload("cli-calls", False, len(CLI_ROUND), 16.0, cli_inputs, cli_execute, check_cli,
                 {"argv": ["spectrum", "--alpha", "0.5"], "rows": 5}, cli_replay),
    )
}


def ops_for(workload: Workload, seed: int, seconds: float, passes: int = 1) -> list[dict]:
    """The inputs of one run: whole rounds, enough for `seconds` of
    nominal time when each input runs `passes` times.  The count depends
    only on the workload and `seconds`, never on how fast this machine
    is, so the same seed always gives the same ops and the same failures."""
    rounds = max(1, math.ceil(seconds / (passes * workload.round_s)))
    return list(itertools.islice(workload.inputs(seed), rounds * workload.round_size))


def grade(workload: Workload, inp: dict, result: object, error: Exception | None) -> Outcome:
    """Outcome of one op that returned `result` or raised `error`."""
    if isinstance(error, singosc.SingOscError):
        return Outcome(MISS, f"{type(error).__name__}: {error}")
    if error is not None:
        return Outcome(WRONG, f"{type(error).__name__}: {error}")
    return workload.check(inp, result)


def warm_up_in_process(name: str) -> float:
    """Run the workload's fixed warm-up op inside this interpreter and
    return its wall seconds; for cli-calls the command runs through
    cli.main.  A set-up child runs this right after importing singosc."""
    workload = WORKLOADS[name]
    run = workload.replay or workload.execute
    t0 = time.perf_counter()
    result = run(workload.warmup)
    seconds = time.perf_counter() - t0
    if workload.replay is None:
        outcome = workload.check(workload.warmup, result)
        if outcome.verdict != OK:
            raise RuntimeError(f"warm-up op of {name} failed: {outcome.detail}")
    return seconds
