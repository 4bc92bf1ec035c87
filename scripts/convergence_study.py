#!/usr/bin/env python3
"""Study the Dirichlet-wall shift of finite-difference eigenvalues.

For attractive alpha the log grid s = ln x starts at an inner cutoff
e0 = e^(s_min) > 0 and the wall pushes every eigenvalue up by
~ C e0^(2 beta + 1).  This script tabulates the ground-state eigenvalue
of the log grid at each cutoff (step-extrapolated, not wall-extrapolated),
the measured local decay exponent, and the polynomial-in-t extrapolation
(t = e0^(2 beta+1)) against the closed-form energy.

Usage: python scripts/convergence_study.py [--alpha -0.2] [--cutoffs ...]
"""

import math
import sys

from singosc.cli import Parser
from singosc.model import indicial_roots
from singosc.oracle import _richardson, fd_eigen_extrapolated
from singosc.spectrum import halfline_state


def run(alpha: float, cutoffs: tuple[float, ...]) -> None:
    beta = indicial_roots(alpha).beta_plus
    p = 2.0 * beta + 1.0
    exact = halfline_state(alpha, 0).energy_eps
    res = fd_eigen_extrapolated(alpha, k=1, cutoffs=cutoffs)  # checks the cutoffs
    print(f"alpha = {alpha}, beta_plus = {beta:.6f}, wall exponent 2b+1 = {p:.4f}")
    print(f"exact eps0 = {exact:.12f}")
    print(f"{'cutoff':>10}  {'raw eps0':>16}  {'raw error':>12}  {'local p':>8}")
    prev = None
    for e0 in cutoffs:
        raw = float(_richardson(alpha, e0, 1)[0][0])
        err = raw - exact
        local = ""
        if prev is not None:
            e_prev, err_prev = prev
            if err > 0 and err_prev > 0:
                local = f"{math.log(err_prev / err) / math.log(e_prev / e0):8.4f}"
        print(f"{e0:>10.1e}  {raw:>16.12f}  {err:>12.3e}  {local:>8}")
        prev = (e0, err)
    ex = res.eigenvalues[0]
    print(f"extrapolated eps0 = {ex:.12f}  (error {ex - exact:+.3e}, "
          f"residual estimate {res.residual_estimate:.1e})")


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=-0.2)
    ap.add_argument("--cutoffs", type=float, nargs="+",
                    default=[1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    args = ap.parse_args(argv)
    if args.alpha >= 0:
        ap.error("the wall study needs attractive alpha (alpha < 0)")
    run(args.alpha, tuple(args.cutoffs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
