"""singosc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/ and nowhere else.  With --trace 0 the run measures
set-up time, then runs the workload's ops back to back (one op in
flight), and reports the end-to-end metrics.  A run takes a fixed number
of whole rounds of ops, about --seconds of work on the reference VM
below (workloads.ops_for): the op count depends on the workload and
--seconds only, so a seed gives the same ops, and the same failures, on
any machine.  With --trace 1 every op input runs twice, once plain and
once with spans around each singosc layer, over half as many inputs, and
the run reports per-layer metrics and the tracing overhead.

On a shared 2-vCPU Intel Xeon VM the speed switches between two levels,
about 1.8x apart, for seconds to minutes at a time.  So every time is in
reference-speed seconds: the raw wall time times a nominal value over
the time of a fixed reference that uses no singosc, averaged over the
reference runs just before and just after the timed work.  Work done in
this process (the ops of oracle-sweep and overlap-check) is scaled by a
reference loop of pure Python and small numpy calls (REF_LOOP_NOMINAL_S),
raised to the power REF_LOOP_SENSITIVITY, because these ops switch speed
less than the loop does.  Fresh processes (the ops of cli-calls) slow
down less still, so they are scaled by a fresh process that imports
numpy (REF_PROCESS_CODE, REF_PROCESS_NOMINAL_S); over a run whose speed
switched, cli ops divided by it stay within 2% from the slow to the fast
third, where the loop would drift by 14%.  A set-up sample is a fresh
process that runs one warm-up op: its start-up and imports are scaled
by the process reference, its warm-up op by the loop.  Raw times stay
in the summary file.

Every op is checked.  `failed` counts ops that raised, exited nonzero or
missed a tolerance; `correct` is false only if some op gave a wrong
answer the program did not flag itself (see workloads.OK/MISS/WRONG).
The last line of stdout is the result JSON; a fuller summary, ending
with "claim": null, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads, and inherited by every
# child: load comes from one process with one op in flight.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
TAIL_BEYOND = 10
REF_ITERS = 5000
# about each reference's time at the slower speed of a 2-vCPU Intel Xeon VM
REF_LOOP_NOMINAL_S = 0.025
# Pooled over 10 runs each of oracle-sweep and overlap-check, ops took 1.4x
# to 1.6x longer when the reference loop took 1.75x longer: the ops' time
# goes as the loop's to about this power.
REF_LOOP_SENSITIVITY = 0.75
REF_PROCESS_NOMINAL_S = 0.18
REF_PROCESS_CODE = "import numpy"

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s"}
PER_LAYER = {
    "verify.suite_oracle.s": "s/op",
    "oracle.shoot_spectrum.s": "s/op",
    "oracle.shoot_spectrum.calls": "calls/op",
    "oracle.fd.s": "s/op",
    "oracle.compare.s": "s/op",
    "oracle.stebz.s": "s/op",
    "oracle.stebz.calls": "calls/op",
    "oracle.stebz.rows": "rows/op",
    "quad.overlap.s": "s/op",
    "quad.overlap.calls": "calls/op",
    "quad.gauss.s": "s/op",
    "quad.cauchy_pv.s": "s/op",
    "quad.neval": "evals/op",
    "spectrum.psi.s": "s/op",
    "spectrum.psi.calls": "calls/op",
    "spectrum.table.s": "s/op",
    "specfun.laguerre.s": "s/op",
    "specfun.laguerre.calls": "calls/op",
    "cli.import_s": "s",
    "cli.main.s": "s/op",
    "cli.emit_rows.s": "s/op",
    "cli.bytes_out": "bytes/op",
    "verify.self_s": "s/op",
    "oracle.self_s": "s/op",
    "quad.self_s": "s/op",
    "spectrum.self_s": "s/op",
    "specfun.self_s": "s/op",
    "cli.self_s": "s/op",
    "process.self_s": "s/op",
    "bench.self_s": "s/op",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "spans/op",
    "oracle.shoot_max_rel_err": "1",
    "oracle.fd_max_rel_err": "1",
    "quad.gram_max_dev": "1",
}
# per-layer metrics kept straight from the tracer: metric -> (kind, span name)
_SPAN_METRICS = {
    name: (name.rsplit(".", 1)[1], name.rsplit(".", 1)[0])
    for name in PER_LAYER
    if name.endswith((".s", ".calls")) and not name.startswith("trace.")
}
_ACCURACY = {  # summary key -> (outcome value, per-layer metric)
    "shoot_max_rel_err": ("shoot_rel_err", "oracle.shoot_max_rel_err"),
    "fd_max_rel_err": ("fd_rel_err", "oracle.fd_max_rel_err"),
    "gram_max_dev": ("gram_max_dev", "quad.gram_max_dev"),
}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference
    loop runs where the timed work runs (on a 2-vCPU VM the two CPUs can
    differ in speed by 1.8x at the same moment)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_package():
    """Import singosc from this checkout's src/, and point children there."""
    if not (SRC / "singosc" / "__init__.py").is_file():
        raise RuntimeError(f"no singosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import singosc
    import tracing
    import workloads

    if SRC not in Path(singosc.__file__).resolve().parents:
        raise RuntimeError(f"singosc imported from {singosc.__file__}, not from {SRC}")
    return workloads, tracing


_REF_VECTOR = [0.1 + 0.9 * k / 63 for k in range(64)]


def reference_seconds(np) -> float:
    """Wall seconds of the fixed reference loop."""
    vec = np.array(_REF_VECTOR)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        acc += float(np.sum(vec * vec)) + i * 0.5
    return time.perf_counter() - t0


class Clock:
    """Converts raw seconds to reference-speed seconds and keeps the
    reference samples.  reference() times one run of the reference."""

    def __init__(self, reference, nominal: float, sensitivity: float = 1.0) -> None:
        self.reference = reference
        self.nominal = nominal
        self.sensitivity = sensitivity
        self.refs: list[float] = []
        self.start()

    def start(self) -> None:
        """Time the reference right before the work to be scaled."""
        self.refs.append(self.reference())

    def scale(self) -> float:
        """Factor for the work since the previous call: nominal over the
        mean of the references just before and just after it."""
        self.refs.append(self.reference())
        return (self.nominal / (0.5 * (self.refs[-2] + self.refs[-1]))) ** self.sensitivity

    def run_factor(self) -> float:
        return (self.nominal / statistics.median(self.refs)) ** self.sensitivity


def child_run(code: str) -> tuple[float, str]:
    """Wall seconds of a fresh interpreter running `code`, start to exit,
    and what it printed."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.decode()[-500:]}")
    return elapsed, proc.stdout.decode()


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it; the median when there are fewer
    than 2 * TAIL_BEYOND + 1 samples."""
    n = len(times)
    if n <= 2 * TAIL_BEYOND:
        value = statistics.median(times)
        return value, 50.0, sum(t > value for t in times)
    value = sorted(times)[n - TAIL_BEYOND - 1]
    return value, 100.0 * (n - TAIL_BEYOND) / n, sum(t > value for t in times)


def run_ops(workload, inputs, variants, run_op, grade, clock: Clock, interlude) -> list[dict]:
    """Closed loop: one op after another over all of `inputs`.  Input i
    runs once per flag in variants(i), as run_op(traced, i, input).
    Grading, the reference and interlude(share of inputs done), called
    before each input, happen outside the timer.  interlude must leave a
    fresh reference sample on `clock` when it runs anything."""
    records: list[dict] = []
    for i, inp in enumerate(inputs):
        interlude(i / len(inputs))
        for traced in variants(i):
            t0 = time.perf_counter()
            try:
                result, error = run_op(traced, i, inp), None
            except Exception as exc:  # graded below: typed errors MISS, others WRONG
                result, error = None, exc
            dt = time.perf_counter() - t0
            scaled = dt * clock.scale()
            outcome = grade(workload, inp, result, error)
            records.append({
                "op": i,
                "traced": traced,
                "input": inp,
                "raw_seconds": dt,
                "seconds": scaled,
                "verdict": outcome.verdict,
                "detail": outcome.detail,
                "values": outcome.values,
            })
    return records


def accuracy(records: list[dict], ok: str) -> dict:
    """Worst error of each kind over passed ops."""
    found = {}
    for key, (value, _) in _ACCURACY.items():
        seen = [r["values"][value] for r in records if r["verdict"] == ok and value in r["values"]]
        if seen:
            found[key] = max(seen)
    return found


def measure(args, workloads, tracing) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.ops_for(workload, args.seed, args.seconds, passes=1 + args.trace)
    child_prefix = f"import sys; sys.path.insert(0, {str(HERE)!r}); "
    summary: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "seconds": args.seconds}

    if args.trace == 0:
        key, repeats = "setup_samples_s", SETUP_REPEATS
        code = child_prefix + f"import workloads; print(workloads.warm_up_in_process({args.workload!r}))"
    elif workload.replay is not None:
        key, repeats, code = "cli_import_samples_s", IMPORT_REPEATS, "import singosc.cli"
    else:
        key, repeats, code = None, 0, ""
    children: list[float] = []
    if key:
        summary[key] = children

    def interlude(done: float) -> None:
        # fresh-process samples spread over the run, not bunched at its start;
        # both references are timed right before and right after each one
        while len(children) < repeats and done >= len(children) / repeats:
            loop.start()
            processes.start()
            total, printed = child_run(code)
            warm_s = float(printed or 0.0)  # a set-up child prints its warm-up op's seconds
            children.append((total - warm_s) * processes.scale() + warm_s * loop.scale())

    warm = workloads.grade(workload, workload.warmup, workload.execute(workload.warmup), None)
    if warm.verdict != workloads.OK:
        raise RuntimeError(f"warm-up op failed: {warm.detail}")

    import numpy as np

    loop = Clock(lambda: reference_seconds(np), REF_LOOP_NOMINAL_S, REF_LOOP_SENSITIVITY)
    processes = Clock(lambda: child_run(REF_PROCESS_CODE)[0], REF_PROCESS_NOMINAL_S)
    clock = loop if workload.in_process else processes

    tracer = tracing.Tracer()
    execute = workload.execute
    if workload.replay is not None:
        execute = tracer.wrap(workload.execute, "process.cli")

    def run_op(traced: bool, i: int, inp: dict):
        if not traced:
            return workload.execute(inp)
        with tracer, tracer.op_span(i):
            result = execute(inp)
            if workload.replay is not None:
                workload.replay(inp)
        return result

    def variants(i: int) -> tuple[bool, ...]:
        if args.trace == 0:
            return (False,)
        return (False, True) if i % 2 == 0 else (True, False)  # alternate which goes first

    records = run_ops(workload, inputs, variants, run_op, workloads.grade, clock, interlude)

    attempted = len(records)
    failed = sum(r["verdict"] != workloads.OK for r in records)
    summary.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        correct=all(r["verdict"] != workloads.WRONG for r in records),
        **accuracy(records, workloads.OK),
    )
    metrics: dict = {}
    if args.trace == 0:
        times = [r["seconds"] for r in records]
        value, pct, beyond = tail(times)
        passed = attempted - failed
        metrics = {
            "setup_s": statistics.median(summary["setup_samples_s"]),
            "op_p50_s": statistics.median(times),
            "op_tail_s": value,
            "ops_per_s": passed / sum(times),
        }
        summary.update(op_samples=attempted, tail_percentile=pct, tail_samples_beyond=beyond,
                       setup_samples=SETUP_REPEATS)
    else:
        metrics = layer_metrics(records, tracer, clock.run_factor(), summary)
        tracer.write(OUT / f"spans-{args.workload}.npz")
        summary["spans_file"] = str((OUT / f"spans-{args.workload}.npz").relative_to(ROOT))
    unit = END_TO_END if args.trace == 0 else PER_LAYER
    summary["metrics"] = {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}
    summary["ops"] = [
        {k: r[k] for k in ("op", "traced", "input", "seconds", "raw_seconds", "verdict", "detail")}
        for r in records
    ]
    summary["loop_reference_samples_s"] = loop.refs
    summary["process_reference_samples_s"] = processes.refs
    summary["environment"] = environment()
    summary["claim"] = None
    return summary


def layer_metrics(records: list[dict], tracer, factor: float, summary: dict) -> dict:
    """Per traced op means of span times (scaled by the run's reference
    factor), call counts and counters, plus the tracing overhead."""
    traced_ops = [r for r in records if r["traced"]]
    plain_ops = [r for r in records if not r["traced"]]
    n = len(traced_ops)
    spans = tracer.summary()
    metrics = {}
    for name, (kind, span) in _SPAN_METRICS.items():
        if kind == "s":
            metrics[name] = spans["seconds"].get(span, 0.0) * factor / n
        else:
            metrics[name] = spans["calls"].get(span, 0) / n
    for layer in ("verify", "oracle", "quad", "spectrum", "specfun", "cli", "process", "bench"):
        metrics[f"{layer}.self_s"] = spans["self_seconds"].get(layer, 0.0) * factor / n
    metrics["oracle.stebz.rows"] = tracer.counts["oracle.stebz.rows"] / n
    metrics["quad.neval"] = tracer.counts["quad.neval"] / n
    metrics["cli.bytes_out"] = sum(r["values"].get("bytes_out", 0) for r in traced_ops) / n
    imports = summary.get("cli_import_samples_s")
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    traced_p50 = statistics.median(r["seconds"] for r in traced_ops)
    plain_p50 = statistics.median(r["seconds"] for r in plain_ops)
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.untraced_op_p50_s"] = plain_p50
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    metrics["trace.spans"] = spans["spans"] / n
    for key, (_, metric) in _ACCURACY.items():
        metrics[metric] = summary.get(key, 0.0)
    summary.update(traced_ops=n, span_seconds=spans["seconds"], span_calls=spans["calls"],
                   layer_self_seconds=spans["self_seconds"], counts=dict(tracer.counts))
    return {name: metrics[name] for name in PER_LAYER}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
        "load": "closed loop, one client, one op in flight, one process",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["oracle-sweep", "overlap-check", "cli-calls"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        workloads, tracing = import_package()
        summary = measure(args, workloads, tracing)
    except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{summary['attempted']} ops, {summary['failed']} failed "
          f"(failed_frac {summary['failed_frac']:.4g}), correct {summary['correct']}")
    if args.trace == 0:
        print(f"  op_tail_s is p{summary['tail_percentile']:.4g} of {summary['op_samples']} ops "
              f"({summary['tail_samples_beyond']} beyond); setup_s is the median of "
              f"{summary['setup_samples']} fresh processes")
    for key in _ACCURACY:
        if key in summary:
            print(f"  {key} = {summary[key]:.4g}")
    for name, m in summary["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  summary: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
