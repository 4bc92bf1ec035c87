"""Command-line surface: spectra, wavefunctions, figure data, verification.

All computation happens in natural units (lengths in 1/sqrt(lambda), energies
in hbar*omega). The --mass/--omega/--hbar flags only append scaled output
columns; they never change what is computed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import verify as verify_mod
from .errors import SingOscError, SupercriticalError
from .model import Domain, OscillatorSpec, Parity, map_radial, potential_value
from .spectrum import fullline_states, halfline_state, spectrum_table

# default alpha sweep for the level diagrams: (-0.249, 0.25], open on the left
ALPHA_SWEEP_LO = -0.249
ALPHA_SWEEP_HI = 0.25
ALPHA_SWEEP_POINTS = 200

_BRANCH_FLAG = {"minus1": -1.0, "zero": 0.0, None: None}


class OutputKind(Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class OutputFormat:
    kind: OutputKind = OutputKind.CSV
    path: str | None = None


class Parser(argparse.ArgumentParser):
    """argparse with two changes: usage errors exit 1 (the contract here
    reserves 2 for supercritical alpha), and any argument float() accepts
    is a value, not an option, so `--alpha -1e-3` and `--alpha -inf` parse
    (argparse alone only takes plain decimals such as -0.3)."""

    def error(self, message: str) -> None:  # noqa: D401 (argparse override)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _fmt(value: object) -> object:
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def emit_rows(
    rows: list[dict], fieldnames: list[str], fmt: OutputFormat, meta: dict | None = None
) -> None:
    """Serialize rows as CSV (header, '\\n' endings, 17 significant digits)
    or JSON, to stdout or to fmt.path."""
    if fmt.kind is OutputKind.CSV:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
        _write_text(buf.getvalue(), fmt.path)
    else:
        _write_json({"rows": rows, **(meta or {})}, fmt.path)


def _write_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", path)


def _alpha_sweep(points: int) -> np.ndarray:
    # uniform on (lo, hi]: drop the open left endpoint
    return np.linspace(ALPHA_SWEEP_LO, ALPHA_SWEEP_HI, points + 1)[1:]


def _output_format(args: argparse.Namespace) -> OutputFormat:
    return OutputFormat(OutputKind(args.format), args.out)


def _spec_from(args: argparse.Namespace, alpha: float) -> OscillatorSpec:
    return OscillatorSpec(
        alpha=alpha, mass=args.mass, omega=args.omega, hbar=args.hbar
    )


def _has_units(args: argparse.Namespace) -> bool:
    return (args.mass, args.omega, args.hbar) != (1.0, 1.0, 1.0)


def _branch_for(alpha: float, domain: Domain, flag: str | None) -> float | None:
    branch = _BRANCH_FLAG[flag]
    if alpha == 0.0 and domain is Domain.HALF_LINE and branch is None:
        return 0.0  # vanishing-at-origin branch unless asked otherwise
    return branch


def cmd_spectrum(args: argparse.Namespace) -> int:
    domain = Domain(args.domain)
    branch = _branch_for(args.alpha, domain, args.beta_branch)
    table = spectrum_table(args.alpha, args.n_max, domain, branch)
    fields = ["alpha", "domain", "n", "parity", "beta", "eps", "degeneracy"]
    return _emit_levels(args, table.rows(), fields, table.spacing)


def _emit_levels(
    args: argparse.Namespace, rows: list[dict], fields: list[str], spacing: float
) -> int:
    """Write spectrum rows, with an `energy` column when units are given."""
    if _has_units(args):
        scale = _spec_from(args, args.alpha).energy_scale
        for row in rows:
            row["energy"] = row["eps"] * scale
        fields.append("energy")
    emit_rows(rows, fields, _output_format(args), {"spacing": spacing})
    return 0


def _xi_grid(args: argparse.Namespace, domain: Domain) -> np.ndarray:
    lo = args.xi_min if args.xi_min is not None else (-6.0 if domain is Domain.FULL_LINE else 0.0)
    hi = args.xi_max if args.xi_max is not None else 6.0
    n = args.xi_points if args.xi_points is not None else 601
    if n < 2:
        raise SingOscError("--xi-points must be at least 2")
    if hi <= lo:
        raise SingOscError("--xi-max must exceed --xi-min")
    return np.linspace(lo, hi, n)


def cmd_wavefunction(args: argparse.Namespace) -> int:
    domain = Domain(args.domain)
    if domain is Domain.HALF_LINE:
        state = halfline_state(
            args.alpha, args.n, _branch_for(args.alpha, domain, args.beta_branch)
        )
    else:
        if args.parity is None:
            raise SingOscError("--parity is required for --domain full")
        want = Parity(args.parity)
        even, odd = fullline_states(args.alpha, args.n)
        state = even if want is Parity.EVEN else odd
    xi = _xi_grid(args, domain)
    psi = state.psi(xi)
    rows = []
    length = _spec_from(args, args.alpha).length_scale if _has_units(args) else None
    for x, p in zip(xi.tolist(), np.asarray(psi).tolist()):
        row = {"xi": x, "psi": p, "rho": p * p}
        if length is not None:
            row["x"] = x * length
        rows.append(row)
    fields = ["xi", "psi", "rho"] + (["x"] if length is not None else [])
    emit_rows(
        rows,
        fields,
        _output_format(args),
        {
            "alpha": args.alpha,
            "n": args.n,
            "parity": state.parity.value,
            "beta": state.beta,
            "eps": state.energy_eps,
        },
    )
    return 0


def _figure_potential() -> tuple[list[dict], list[str]]:
    rows = []
    x = np.linspace(0.02, 3.0, 150)
    for alpha in (-0.2, 0.0, 0.2):
        spec = OscillatorSpec(alpha=alpha)
        for xi in x.tolist():
            rows.append({"alpha": alpha, "x": xi, "V": potential_value(spec, xi)})
    return rows, ["alpha", "x", "V"]


def _figure_levels_halfline(points: int) -> tuple[list[dict], list[str]]:
    rows = []
    for alpha in _alpha_sweep(points).tolist():
        table = spectrum_table(alpha, 4, Domain.HALF_LINE)
        for state in table.states:
            rows.append(
                {
                    "kind": "curve",
                    "alpha": alpha,
                    "n": state.n,
                    "label": f"n={state.n}",
                    "eps": state.energy_eps,
                    "degeneracy": 1,
                }
            )
    for branch, label in ((-1.0, "beta=-1"), (0.0, "beta=0")):
        for n in range(5):
            state = halfline_state(0.0, n, branch)
            rows.append(
                {
                    "kind": "marker",
                    "alpha": 0.0,
                    "n": n,
                    "label": label,
                    "eps": state.energy_eps,
                    "degeneracy": 1,
                }
            )
    return rows, ["kind", "alpha", "n", "label", "eps", "degeneracy"]


def _figure_ground_states() -> tuple[list[dict], list[str]]:
    rows = []
    xi = np.linspace(0.0, 4.0, 401)
    for alpha in (-0.249, -0.2, 0.2, 3.0):
        state = halfline_state(alpha, 0)
        psi = np.asarray(state.psi(xi))
        for x, p in zip(xi.tolist(), psi.tolist()):
            rows.append({"alpha": alpha, "xi": x, "psi": p, "rho": p * p})
    return rows, ["alpha", "xi", "psi", "rho"]


def _figure_levels_fullline(points: int) -> tuple[list[dict], list[str]]:
    rows = []
    for alpha in _alpha_sweep(points).tolist():
        # sweep grid never hits alpha = 0 exactly, so every level is a
        # degenerate even/odd pair drawn as one curve
        for n in range(5):
            even = fullline_states(alpha, n)[0]
            rows.append(
                {
                    "kind": "curve",
                    "alpha": alpha,
                    "n": n,
                    "label": f"n={n}",
                    "eps": even.energy_eps,
                    "degeneracy": 2,
                }
            )
    table = spectrum_table(0.0, 4, Domain.FULL_LINE)
    for state in table.states:
        rows.append(
            {
                "kind": "marker",
                "alpha": 0.0,
                "n": state.n,
                "label": state.parity.value,
                "eps": state.energy_eps,
                "degeneracy": 1,
            }
        )
    return rows, ["kind", "alpha", "n", "label", "eps", "degeneracy"]


def cmd_figure(args: argparse.Namespace) -> int:
    points = args.alpha_points
    if args.id == 1:
        rows, fields = _figure_potential()
    elif args.id == 2:
        rows, fields = _figure_levels_halfline(points)
    elif args.id == 3:
        rows, fields = _figure_ground_states()
    else:
        rows, fields = _figure_levels_fullline(points)
    emit_rows(rows, fields, _output_format(args), {"figure": args.id})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = verify_mod.SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = verify_mod.run_suites(names, alpha=args.alpha, tol=args.tol)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        _write_json({"passed": ok, "suites": [r.to_dict() for r in reports]}, args.out)
    else:
        lines = []
        for rep in reports:
            lines.append(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'}")
            for c in rep.checks:
                status = "PASS" if c.passed else "FAIL"
                lines.append(f"  {status} {c.name}: {c.measured} [want {c.bound}]")
        lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
        _write_text("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_radial(args: argparse.Namespace) -> int:
    alpha_eff = map_radial(args.alpha, args.l)
    branch = _branch_for(alpha_eff, Domain.HALF_LINE, args.beta_branch)
    table = spectrum_table(alpha_eff, args.n_max, Domain.HALF_LINE, branch)
    rows = table.rows()
    for row in rows:
        del row["domain"]
        row.update(l=args.l, alpha_eff=alpha_eff, alpha=args.alpha)
    fields = ["alpha", "l", "alpha_eff", "n", "parity", "beta", "eps", "degeneracy"]
    return _emit_levels(args, rows, fields, table.spacing)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)


def build_parser() -> Parser:
    parser = Parser(prog="singosc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[], help="bound-state table for one alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--domain", choices=["half", "full"], default="half")
    p.add_argument("--beta-branch", choices=["minus1", "zero"], default=None,
                   help="alpha=0 half-line branch (default: zero)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="sampled normalized eigenfunction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--domain", choices=["half", "full"], default="half")
    p.add_argument("--parity", choices=["even", "odd"], default=None)
    p.add_argument("--beta-branch", choices=["minus1", "zero"], default=None)
    p.add_argument("--xi-min", type=float, default=None)
    p.add_argument("--xi-max", type=float, default=None)
    p.add_argument("--xi-points", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("figure", help="data behind the level/profile diagrams")
    p.add_argument("id", type=int, choices=[1, 2, 3, 4])
    p.add_argument("--alpha-points", type=int, default=ALPHA_SWEEP_POINTS,
                   help="sweep resolution on (-0.249, 0.25]")
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("--suite", choices=["all", *verify_mod.SUITE_NAMES], default="all")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the oracle-suite alpha sample")
    p.add_argument("--tol", type=float, default=None,
                   help="override the oracle-suite shooting tolerance")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("radial", help="spectrum for effective alpha + l(l+1)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--beta-branch", choices=["minus1", "zero"], default=None)
    _add_common(p)
    p.set_defaults(func=cmd_radial)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SupercriticalError as exc:
        print(f"singosc: error: {exc}", file=sys.stderr)
        return 2
    except SingOscError as exc:
        print(f"singosc: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed stdout; suppress the
        # shutdown flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
