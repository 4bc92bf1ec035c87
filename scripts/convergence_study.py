#!/usr/bin/env python3
"""Study the inner end s_min of the finite-difference log grid.

The log grid s = ln x starts at s_min, where the two-term Frobenius
condition u'/u = kappa0 - mu e^(2 s_min) / (2 (1 + nu)), nu = beta_plus +
1/2 and kappa0 the 3-point stencil's exact exponent for nu, stands in for
the regular solution u ~ e^(nu s) (1 + a_1 e^(2s)).  What that condition
misses moves a level eps by order e^(4 s_min) eps^2; the ground level's
u = e^(nu s - e^(2s) / 2) meets it exactly.  This script tabulates the
step-extrapolated ground level of the grid at each s_min, its error
against the closed-form energy and the local slope ln(err_1 / err_2) /
(s_1 - s_2) between neighbouring rows (about 0 from s_min = -3 on, where
the step error of about 5e-9 near alpha = -1/4 is all that is left; the
one-term condition u' = nu u gave slope 2 there down to s_min ~ -10),
then the level fd_eigen returns from s_min = _S_MIN.  The outer end and
the step follow the window of the requested levels, as shooting's box
does.

Usage: python scripts/convergence_study.py [--alpha -0.2] [--s-min -3 -4 ...]
"""

import math
import sys

from singosc.cli import Parser
from singosc.errors import SingOscError, SupercriticalError
from singosc.oracle import _S_MIN, _richardson, fd_eigen
from singosc.spectrum import halfline_state

# the scaled matrix holds e^(-2 s_min), and stebz squares it
_S_MIN_RANGE = (-150.0, 0.0)


def run(alpha: float, s_mins: tuple[float, ...]) -> None:
    state = halfline_state(alpha, 0)  # beta_plus, as the oracle takes
    exact = state.energy_eps
    print(f"alpha = {alpha}, beta_plus = {state.beta:.6f}, nu = {state.beta + 0.5:.6f}")
    print(f"exact eps0 = {exact:.12f}")
    print(f"{'s_min':>8}  {'eps0':>16}  {'error':>12}  {'slope':>8}")
    prev = None
    for s_min in s_mins:
        level = float(_richardson(alpha, s_min, 1)[0][0])
        err = abs(level - exact)
        slope = ""
        if prev is not None and err > 0 and prev[1] > 0 and s_min != prev[0]:
            slope = f"{math.log(prev[1] / err) / (prev[0] - s_min):8.4f}"
        print(f"{s_min:>8.2f}  {level:>16.12f}  {err:>12.3e}  {slope:>8}")
        prev = (s_min, err)
    res = fd_eigen(alpha)
    one = res.eigenvalues[0]
    print(f"one grid (s_min = {_S_MIN:g}) eps0 = {one:.12f}  (error {one - exact:+.3e}, "
          f"residual estimate {res.residual_estimate:.1e})")


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=-0.2)
    ap.add_argument("--s-min", type=float, nargs="+", default=[-3.0, -4.0, -5.0, -6.0, -7.0])
    args = ap.parse_args(argv)
    low, high = _S_MIN_RANGE
    if not all(low <= s <= high for s in args.s_min):  # also catches a NaN
        ap.error(f"every --s-min must lie in [{low:g}, {high:g}]")
    try:
        run(args.alpha, tuple(args.s_min))
    except SingOscError as exc:  # exit codes as in the singosc CLI
        ap.exit(2 if isinstance(exc, SupercriticalError) else 1, f"{ap.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
