#!/usr/bin/env python3
"""Regenerate the four figure datasets as CSV files in one pass.

Usage: python scripts/emit_figures.py [--outdir figures] [--alpha-points 200]
"""

import pathlib
import sys

from singosc.cli import Parser, main as cli_main


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--alpha-points", type=int, default=200)
    args = ap.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for fig in (1, 2, 3, 4):
        out = outdir / f"figure{fig}.csv"
        rc = cli_main(
            ["figure", str(fig), "--alpha-points", str(args.alpha_points),
             "--out", str(out)]
        )
        if rc != 0:
            return rc
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
