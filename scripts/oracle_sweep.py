#!/usr/bin/env python3
"""Sweep alpha and grade both numerical oracles against the closed form.

Prints one row per alpha with the worst relative eigenvalue error of the
shooting route and the finite-difference route (one log grid for every
alpha), the seconds each route took (`OracleResult.seconds`), the matrix
rows the finite-difference route diagonalized and the grid steps the
shooting route took over its two passes.  This is the calibration
experiment behind the default grids and tolerances.

Usage: python scripts/oracle_sweep.py [--n-max 4] [--alphas -0.24 -0.1 0.5 2.0]
"""

import sys

# singosc loads scipy.linalg on the first finite-difference call; loading it
# here keeps the import out of the first alpha's `fd s` timing
import scipy.linalg  # noqa: F401

from singosc.cli import Parser
from singosc.errors import SingOscError, SupercriticalError
from singosc.model import Domain, indicial_roots
from singosc.oracle import compare, fd_eigen, shoot_spectrum
from singosc.spectrum import spectrum_table
from singosc.verify import ORACLE_TOL_FD, ORACLE_TOL_SHOOT


def run(alphas: tuple[float, ...], n_max: int) -> None:
    print(
        f"{'alpha':>8}  {'beta_plus':>10}  {'shoot err':>10}  {'fd err':>10}  "
        f"{'fd resid':>10}  {'shoot s':>7}  {'fd s':>6}  {'fd rows':>7}  {'steps':>6}"
    )
    for alpha in alphas:
        levels = spectrum_table(alpha, n_max, Domain.HALF_LINE).distinct_levels()
        shoot = shoot_spectrum(alpha, n_max)
        fd = fd_eigen(alpha, n_max + 1)
        rs = compare(levels, shoot, tol=ORACLE_TOL_SHOOT)
        rf = compare(levels, fd, tol=ORACLE_TOL_FD)
        beta = indicial_roots(alpha).beta_plus
        print(
            f"{alpha:>8.3f}  {beta:>10.5f}  {rs.max_rel_error:>10.2e}  "
            f"{rf.max_rel_error:>10.2e}  {fd.residual_estimate:>10.2e}  "
            f"{shoot.seconds:>7.2f}  {fd.seconds:>6.2f}  {fd.rows:>7d}  {shoot.steps:>6d}"
        )


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[-0.24, -0.1, 0.5, 2.0])
    ap.add_argument("--n-max", type=int, default=4)
    args = ap.parse_args(argv)
    try:
        run(tuple(args.alphas), args.n_max)
    except SingOscError as exc:  # exit codes as in the singosc CLI
        ap.exit(2 if isinstance(exc, SupercriticalError) else 1, f"{ap.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
