#!/usr/bin/env python3
"""Sweep alpha and grade both numerical oracles against the closed form.

Prints one row per alpha with the worst relative eigenvalue error of the
shooting route and the finite-difference route (one log grid for every
alpha), the seconds each route took, the matrix rows the finite-difference
route diagonalized and the number of integrator passes the shooting route
made.  This is the calibration experiment behind the
default grids and tolerances.

Usage: python scripts/oracle_sweep.py [--n-max 4] [--alphas -0.24 -0.1 0.5 2.0]
"""

import sys
import time

from singosc.cli import Parser
from singosc.model import Domain, indicial_roots
from singosc.oracle import compare, fd_eigen, shoot_spectrum
from singosc.spectrum import spectrum_table


def run(alphas: tuple[float, ...], n_max: int) -> None:
    print(
        f"{'alpha':>8}  {'beta_plus':>10}  {'shoot err':>10}  {'fd err':>10}  "
        f"{'fd resid':>10}  {'shoot s':>7}  {'fd s':>6}  {'fd rows':>7}  {'passes':>6}"
    )
    for alpha in alphas:
        table = spectrum_table(alpha, n_max, Domain.HALF_LINE)
        t0 = time.perf_counter()
        shoot = shoot_spectrum(alpha, n_max)
        t1 = time.perf_counter()
        fd = fd_eigen(alpha, n_max + 1)
        t2 = time.perf_counter()
        rs = compare(table, shoot, tol=1e-4)
        rf = compare(table, fd, tol=5e-3)
        beta = indicial_roots(alpha).beta_plus
        print(
            f"{alpha:>8.3f}  {beta:>10.5f}  {rs.max_rel_error:>10.2e}  "
            f"{rf.max_rel_error:>10.2e}  {fd.residual_estimate:>10.2e}  "
            f"{t1 - t0:>7.2f}  {t2 - t1:>6.2f}  {fd.rows:>7d}  {shoot.passes:>6d}"
        )


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[-0.24, -0.1, 0.5, 2.0])
    ap.add_argument("--n-max", type=int, default=4)
    args = ap.parse_args(argv)
    run(tuple(args.alphas), args.n_max)
    return 0


if __name__ == "__main__":
    sys.exit(main())
