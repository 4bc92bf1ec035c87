"""Run the benchmark over several seeds and workloads and summarize.

    python3 perfbench/report.py                       # every workload, seeds 1-10
    python3 perfbench/report.py --workloads cli-calls --seeds 1-5
    python3 perfbench/report.py --trace 1 --seeds 1-3

Each run is `perfbench/run.py` in a fresh process, one after another.
Prints every end-to-end metric (or per-layer metric, with --trace 1) of
every run, then per workload and metric the median over runs, the
quartiles as statistics.quantiles(n=4) gives them, and their distance as
a share of the median next to the metric's bound from BENCHMARK.json.
A metric is steady when that spread is below a third of its bound.
setup_s is exempt from the spread rule; only its median is compared.
The full table is also written to perfbench/out/report-trace<k>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900.0


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)  # the middle cut is the median
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    table: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            values = " ".join(
                f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']} {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = {}
        for spec in specs:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"values": values}
            if len(values) >= 2:
                med, q1, q3, share = spread(values)
                row.update(median=med, q1=q1, q3=q3, spread=share)
                if "bound" in spec:
                    row["bound"] = spec["bound"]
                    row["steady"] = name == "setup_s" or share < spec["bound"] / 3
            rows[name] = row
        table[workload] = {"attempted": attempted, "failed": failed,
                           "failed_frac": failed / attempted,
                           "all_correct": all(r["correct"] for r in runs),
                           "metrics": rows, "runs": runs}
        print(f"== {workload}: {len(runs)} runs, failed_frac {failed}/{attempted} "
              f"= {failed / attempted:.4g}, all correct {table[workload]['all_correct']}")
        for spec in specs:
            row = rows[spec["name"]]
            if "median" not in row:
                continue
            bound = f" bound {row['bound']:.3g} steady {row['steady']}" if "bound" in row else ""
            print(f"  {spec['name']:28s} median {row['median']:.6g} {spec['unit']} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f}{bound}")
    out = HERE / "out" / f"report-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "workloads": table,
                               "claim": None}, indent=1) + "\n")
    print(f"written {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
