#!/usr/bin/env python3
"""Regenerate the four figure datasets as CSV files in one pass.

Usage: python scripts/emit_figures.py [--outdir figures] [--alpha-points 200]
"""

import pathlib
import sys

from singosc.cli import MAX_POINTS, Parser, main as cli_main


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--alpha-points", type=int, default=200)
    args = ap.parse_args(argv)
    # figure 2 would reject it only after figure 1 is written
    if not 0 <= args.alpha_points <= MAX_POINTS:
        ap.error(f"--alpha-points must lie in [0, {MAX_POINTS}]")
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or on the way to it
        ap.exit(1, f"{ap.prog}: error: cannot create --outdir {outdir}: {exc.strerror or exc}\n")
    for fig in (1, 2, 3, 4):
        out = outdir / f"figure{fig}.csv"
        # only the level diagrams 2 and 4 sweep alpha
        sweep = ["--alpha-points", str(args.alpha_points)] if fig in (2, 4) else []
        rc = cli_main(["figure", str(fig), *sweep, "--out", str(out)])
        if rc != 0:
            return rc
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
