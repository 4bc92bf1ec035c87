"""Command-line surface: spectra, wavefunctions, figure data, verification.

All computation happens in natural units (lengths in 1/sqrt(lambda), energies
in hbar*omega). The --mass/--omega/--hbar flags only append scaled output
columns; they never change what is computed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import sys

from .errors import SingOscError, SupercriticalError
from .model import Domain, OscillatorSpec, Parity, map_radial, potential_value
from .spectrum import fullline_states, halfline_state, spectrum_table

# default alpha sweep for the level diagrams: (-0.249, 0.25], open on the left
ALPHA_SWEEP_LO = -0.249
ALPHA_SWEEP_HI = 0.25
ALPHA_SWEEP_POINTS = 200
# largest --xi-points and --alpha-points, checked before any grid is built
MAX_POINTS = 100_000

_BRANCH_FLAG = {"minus1": -1.0, "zero": 0.0, None: None}


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


# every character that may make csv.writer quote a field or refuse it, in
# any Python version; a text free of them is written as it is
_MAY_NEED_QUOTES = re.compile('[,"\r\n\0]').search


def _csv_cell(value: object) -> str:
    """One cell as csv.writer writes it among other fields."""
    text = "" if value is None else str(_fmt(value))
    if not _MAY_NEED_QUOTES(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]  # drop the empty field's "," and the line end


def _csv_column(column: list, lone: bool) -> tuple[str, list]:
    """A column's %-spec and the cells it formats: a column of exact
    floats formats itself with %.17g, any other is encoded here.  A lone
    field that is empty is written "", as csv.writer writes it."""
    if {*map(type, column)} == {float}:
        return "%.17g", column
    cells = list(map(_csv_cell, column))
    if lone:
        cells = [cell or '""' for cell in cells]
    return "%s", cells


def _json_column(column: list) -> tuple[str, list]:
    """A column's %-spec and the cells it formats: a column of exact,
    finite floats formats itself with %r (float.__repr__, as json writes
    a float), any other is encoded here by json.dumps."""
    import json

    if {*map(type, column)} == {float} and all(map(math.isfinite, column)):
        return "%r", column
    return "%s", list(map(json.dumps, column))


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SingOscError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def emit_rows(
    columns: dict[str, list],
    fields: list[str],
    fmt: str,
    path: str | None,
    meta: dict | None = None,
) -> None:
    """Serialize named, equally long columns to stdout or to path.

    fmt "csv": the columns in `fields` order under a header, '\\n' endings,
    floats to 17 significant digits (the bytes csv.DictWriter would write),
    each row one % format of a template built per column.
    fmt "json": {"rows": [...], **meta}, each row keyed in the order of
    `columns`: the bytes json.dumps(..., indent=2) writes, each row one %
    format of a template whose keys are encoded once."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        encoded = [_csv_column(columns[f], len(fields) == 1) for f in fields]
        template = ",".join(spec for spec, _ in encoded) + "\n"
        buf.write("".join(map(template.__mod__, zip(*(cells for _, cells in encoded)))))
        _write_text(buf.getvalue(), path)
    else:
        import json

        encoded = [(json.dumps(key).replace("%", "%%"), *_json_column(cells))
                   for key, cells in columns.items()]
        template = "    {\n" + ",\n".join(f"      {key}: {spec}" for key, spec, _ in encoded) + "\n    }"
        rows = ",\n".join(map(template.__mod__, zip(*(cells for _, _, cells in encoded))))
        head = f'{{\n  "rows": [\n{rows}\n  ]' if rows else '{\n  "rows": []'
        tail = "," + json.dumps(meta, indent=2)[1:] if meta else "\n}"
        _write_text(head + tail + "\n", path)


def _alpha_sweep(points: int) -> list[float]:
    """points alphas uniform on (lo, hi], the open left endpoint dropped:
    np.linspace(lo, hi, points + 1)[1:] bit for bit, by its arithmetic
    (i * step + lo, the last point set to hi), with no numpy."""
    if points < 0:
        raise SingOscError("--alpha-points must be >= 0")
    if points > MAX_POINTS:
        raise SingOscError(f"--alpha-points must be at most {MAX_POINTS}")
    if points == 0:
        return []
    step = (ALPHA_SWEEP_HI - ALPHA_SWEEP_LO) / points
    return [i * step + ALPHA_SWEEP_LO for i in range(1, points)] + [ALPHA_SWEEP_HI]


def _spec_from(args: argparse.Namespace, alpha: float) -> OscillatorSpec:
    return OscillatorSpec(
        alpha=alpha, mass=args.mass, omega=args.omega, hbar=args.hbar
    )


def _has_units(args: argparse.Namespace) -> bool:
    return (args.mass, args.omega, args.hbar) != (1.0, 1.0, 1.0)


def cmd_spectrum(args: argparse.Namespace) -> int:
    branch = _BRANCH_FLAG[args.beta_branch]
    table = spectrum_table(args.alpha, args.n_max, Domain(args.domain), branch)
    columns = table.columns()
    return _emit_levels(args, columns, list(columns), table.spacing)


def _emit_levels(
    args: argparse.Namespace, columns: dict[str, list], fields: list[str], spacing: float
) -> int:
    """Write spectrum columns, with an `energy` column when units are given."""
    if _has_units(args):
        spec = _spec_from(args, args.alpha)
        columns["energy"] = [spec.energy_from_eps(eps) for eps in columns["eps"]]
        fields.append("energy")
    emit_rows(columns, fields, args.format, args.out, {"spacing": spacing})
    return 0


def _xi_grid(args: argparse.Namespace, domain: Domain):
    import numpy as np

    lo = args.xi_min if args.xi_min is not None else (-6.0 if domain is Domain.FULL_LINE else 0.0)
    hi = args.xi_max if args.xi_max is not None else 6.0
    n = args.xi_points if args.xi_points is not None else 601
    if n < 2:
        raise SingOscError("--xi-points must be at least 2")
    if n > MAX_POINTS:
        raise SingOscError(f"--xi-points must be at most {MAX_POINTS}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise SingOscError("--xi-min and --xi-max must be finite")
    if hi <= lo:
        raise SingOscError("--xi-max must exceed --xi-min")
    return np.linspace(lo, hi, n)


def cmd_wavefunction(args: argparse.Namespace) -> int:
    domain = Domain(args.domain)
    if domain is Domain.HALF_LINE:
        if args.parity is not None:
            raise SingOscError("--parity applies to --domain full only")
        state = halfline_state(args.alpha, args.n, _BRANCH_FLAG[args.beta_branch])
    else:
        if args.parity is None:
            raise SingOscError("--parity is required for --domain full")
        if args.beta_branch is not None:
            raise SingOscError("--beta-branch applies to --domain half only")
        want = Parity(args.parity)
        even, odd = fullline_states(args.alpha, args.n)
        state = even if want is Parity.EVEN else odd
    xi = _xi_grid(args, domain)
    psi = state.psi(xi)
    rho = psi * psi
    columns = {"xi": xi.tolist(), "psi": psi.tolist(), "rho": rho.tolist()}
    if _has_units(args):
        columns["x"] = (xi * _spec_from(args, args.alpha).length_scale).tolist()
    emit_rows(
        columns,
        list(columns),
        args.format,
        args.out,
        {
            "alpha": args.alpha,
            "n": args.n,
            "parity": state.parity.value,
            "beta": state.beta,
            "eps": state.energy_eps,
        },
    )
    return 0


def _figure_potential() -> dict[str, list]:
    import numpy as np

    x = np.linspace(0.02, 3.0, 150)
    columns = {"alpha": [], "x": [], "V": []}
    for alpha in (-0.2, 0.0, 0.2):
        columns["alpha"] += [alpha] * len(x)
        columns["x"] += x.tolist()
        columns["V"] += potential_value(OscillatorSpec(alpha=alpha), x).tolist()
    return columns


def _figure_ground_states() -> dict[str, list]:
    import numpy as np

    xi = np.linspace(0.0, 4.0, 401)
    columns = {"alpha": [], "xi": [], "psi": [], "rho": []}
    for alpha in (-0.249, -0.2, 0.2, 3.0):
        psi = halfline_state(alpha, 0).psi(xi)
        columns["alpha"] += [alpha] * len(xi)
        columns["xi"] += xi.tolist()
        columns["psi"] += psi.tolist()
        columns["rho"] += (psi * psi).tolist()
    return columns


def _figure_levels(domain: Domain, points: int) -> dict[str, list]:
    """Level-diagram columns of figures 2 and 4, every value from the
    level table's columns.  Curves: per sweep alpha, one row per level on
    the table's largest beta, beta_plus (at alpha = 0 on the whole line,
    the odd ladder), with its degeneracy.  Markers: every alpha = 0
    state, labelled by its branch on the half line and by its parity on
    the whole line."""
    rows = []
    for alpha in _alpha_sweep(points):
        c = spectrum_table(alpha, 4, domain).columns()
        top, levels = max(c["beta"]), {}
        for a, n, beta, eps, deg in zip(c["alpha"], c["n"], c["beta"], c["eps"], c["degeneracy"]):
            if beta == top and eps not in levels:
                levels[eps] = ("curve", a, n, f"n={n}", eps, deg)
        rows += levels.values()
    half = domain is Domain.HALF_LINE
    for branch in (-1.0, 0.0) if half else (None,):
        c = spectrum_table(0.0, 4, domain, branch).columns()
        labels = [f"beta={beta:g}" for beta in c["beta"]] if half else c["parity"]
        rows += zip(["marker"] * len(labels), c["alpha"], c["n"], labels, c["eps"], c["degeneracy"])
    fields = ("kind", "alpha", "n", "label", "eps", "degeneracy")
    return dict(zip(fields, map(list, zip(*rows))))


def cmd_figure(args: argparse.Namespace) -> int:
    points = args.alpha_points
    if args.id in (1, 3) and points is not None:
        raise SingOscError("--alpha-points applies to figures 2 and 4 only")
    if points is None:
        points = ALPHA_SWEEP_POINTS
    if args.id == 1:
        columns = _figure_potential()
    elif args.id == 3:
        columns = _figure_ground_states()
    else:
        columns = _figure_levels(Domain.HALF_LINE if args.id == 2 else Domain.FULL_LINE, points)
    emit_rows(columns, list(columns), args.format, args.out, {"figure": args.id})
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import json

    from . import verify  # loaded for this command only; run_suites checks the request

    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = verify.run_suites(names, alpha=args.alpha)
    ok = all(r.passed for r in reports)
    if args.format == "json":
        text = json.dumps({"passed": ok, "suites": [r.to_dict() for r in reports]}, indent=2)
    else:
        lines = []
        for rep in reports:
            lines.append(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'}")
            for c in rep.checks:
                status = "PASS" if c.passed else "FAIL"
                lines.append(f"  {status} {c.name}: {c.measured} [want {c.bound}]")
        text = "\n".join([*lines, f"overall: {'PASS' if ok else 'FAIL'}"])
    _write_text(text + "\n", args.out)
    return 0 if ok else 1


def cmd_radial(args: argparse.Namespace) -> int:
    alpha_eff = map_radial(args.alpha, args.l)
    branch = _BRANCH_FLAG[args.beta_branch]
    table = spectrum_table(alpha_eff, args.n_max, Domain.HALF_LINE, branch)
    columns = table.columns()
    del columns["domain"]
    k = len(table.states)
    # alpha keeps its place in the JSON rows; l and alpha_eff follow degeneracy
    columns.update(l=[args.l] * k, alpha_eff=[alpha_eff] * k, alpha=[args.alpha] * k)
    fields = ["alpha", "l", "alpha_eff", "n", "parity", "beta", "eps", "degeneracy"]
    return _emit_levels(args, columns, fields, table.spacing)


def _add_common(p: argparse.ArgumentParser, units: bool = True) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if units:  # figure data are in natural units only
        for name in ("mass", "omega", "hbar"):
            p.add_argument(f"--{name}", type=float, default=1.0)


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
    p.add_argument("--alpha-points", type=int, default=None,
                   help="figures 2 and 4: sweep resolution on (-0.249, 0.25] "
                        f"(default {ALPHA_SWEEP_POINTS})")
    _add_common(p, units=False)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("--suite", default="all", help="one suite, or all (default)")
    p.add_argument("--alpha", type=float, default=None,
                   help="suites oracle and all: the one alpha sampled by the "
                        "oracle suite (default 0.5 and 2)")
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
    except SingOscError as exc:
        print(f"singosc: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SupercriticalError) else 1
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed stdout; suppress the
        # shutdown flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
