"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads, _ = run.import_package()  # singosc from src/, for this process and its children
MISS, OK, WRONG, WORKLOADS = workloads.MISS, workloads.OK, workloads.WRONG, workloads.WORKLOADS

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(name: str, seed: int, k: int = 40) -> list[dict]:
    return list(itertools.islice(WORKLOADS[name].inputs(seed), k))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first(name, 7) == first(name, 7)
    assert first(name, 7) != first(name, 8)


def test_input_ranges():
    oracle_ops = first("oracle-sweep", 3)
    assert {op["n_max"] for op in oracle_ops} == {4, 8}
    attractive = [op["alpha"] for op in oracle_ops if op["alpha"] < 0]
    assert len(attractive) == len(oracle_ops) // 2
    assert all(-0.25 < a < 0 for a in attractive)
    assert all(0 < op["alpha"] <= 8 for op in oracle_ops if op["alpha"] >= 0)
    overlap_ops = first("overlap-check", 3, 50)
    assert [op["N"] for op in overlap_ops].count(12) == 30
    assert all(-0.25 < op["alpha"] <= 8 and op["a"] != op["b"] for op in overlap_ops)
    cli_ops = first("cli-calls", 3, 15)
    kinds = sorted(op["argv"][0] for op in cli_ops)
    assert kinds.count("wavefunction") == 5 and kinds.count("figure") == 4
    points = [op["rows"] for op in first("cli-calls", 3, 200) if op["argv"][0] == "wavefunction"]
    assert 601 <= min(points) and max(points) <= 100_000


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_has_the_same_mix(name):
    workload = WORKLOADS[name]
    ops = first(name, 11, 5 * workload.round_size)

    def stratum(op):
        if name == "oracle-sweep":
            return op["alpha"] < 0, op["n_max"]
        if name == "overlap-check":
            return op["N"]
        return tuple(op["argv"][:2]) if op["argv"][0] == "figure" else op["argv"][0]

    rounds = [
        sorted(map(stratum, ops[k:k + workload.round_size]), key=repr)
        for k in range(0, len(ops), workload.round_size)
    ]
    assert all(r == rounds[0] for r in rounds)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_count_depends_only_on_seconds(name):
    workload = WORKLOADS[name]
    ops = workloads.ops_for(workload, 4, 25)
    assert ops == workloads.ops_for(workload, 4, 25)
    assert len(ops) == len(workloads.ops_for(workload, 9, 25))
    assert len(ops) % workload.round_size == 0
    assert len(workloads.ops_for(workload, 4, 1)) == workload.round_size
    traced = workloads.ops_for(workload, 4, 25, passes=2)
    assert traced == ops[:len(traced)] and len(traced) < len(ops)


@pytest.fixture(scope="module")
def oracle_result():
    inp = {"alpha": 2.0, "n_max": 4}
    return inp, workloads.oracle_execute(inp)


def test_oracle_checker_accepts_a_right_report(oracle_result):
    inp, result = oracle_result
    outcome = workloads.check_oracle(inp, result)
    assert outcome.verdict == OK
    assert outcome.values["shoot_rel_err"] < workloads.ORACLE_TOL_SHOOT


def test_oracle_checker_flags_perturbed_levels(oracle_result):
    inp, (report, compares) = oracle_result
    method, shoot = compares[0]
    levels = list(shoot.oracle_levels)
    levels[2] *= 1.001  # wrong level, report still says PASS
    bad = dataclasses.replace(shoot, oracle_levels=tuple(levels))
    outcome = workloads.check_oracle(inp, (report, [(method, bad)] + compares[1:]))
    assert outcome.verdict == WRONG


def test_oracle_checker_flags_wrong_closed_form(oracle_result):
    inp, result = oracle_result
    assert workloads.check_oracle({**inp, "alpha": 2.001}, result).verdict == WRONG


def test_known_fd_defect_near_the_wall_is_a_flagged_miss():
    inp = {"alpha": -0.245, "n_max": 4}
    outcome = workloads.check_oracle(inp, workloads.oracle_execute(inp))
    assert outcome.verdict == MISS
    assert outcome.values["fd_rel_err"] > workloads.ORACLE_TOL_FD


def test_overlap_checker():
    inp = {"alpha": 0.5, "N": 6, "a": 0.5, "b": 2.0}
    pv = math.log(4.0)
    assert workloads.check_overlap(inp, (1e-13, 1e-14, 1e-13, pv)).verdict == OK
    assert workloads.check_overlap(inp, (1e-6, 1e-14, 1e-13, pv)).verdict == WRONG
    assert workloads.check_overlap(inp, (1e-13, math.nan, 1e-13, pv)).verdict == WRONG
    assert workloads.check_overlap(inp, (1e-13, 1e-14, 1e-13, pv + 1e-6)).verdict == WRONG
    small = {**inp, "N": 4}
    assert workloads.check_overlap(small, workloads.overlap_execute(small)).verdict == OK


@pytest.fixture(scope="module")
def spectrum_run():
    inp = {"argv": ["spectrum", "--alpha", "0.3", "--n-max", "3", "--domain", "full"], "rows": 8}
    return inp, workloads.cli_execute(inp)


def _with_stdout(proc, text: str, returncode: int = 0, stderr: bytes = b""):
    return subprocess.CompletedProcess(proc.args, returncode, text.encode(), stderr)


def test_cli_checker(spectrum_run):
    inp, proc = spectrum_run
    assert workloads.check_cli(inp, proc).verdict == OK
    text = proc.stdout.decode()
    lines = text.splitlines()
    cells = lines[3].split(",")
    cells[5] = "nan"
    bad = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
    assert workloads.check_cli(inp, _with_stdout(proc, bad)).verdict == WRONG
    cells[5] = repr(float(lines[3].split(",")[5]) + 1e-6)
    bad = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
    assert workloads.check_cli(inp, _with_stdout(proc, bad)).verdict == WRONG
    short = "\n".join(lines[:-1]) + "\n"
    assert workloads.check_cli(inp, _with_stdout(proc, short)).verdict == WRONG
    flagged = _with_stdout(proc, "", 2, b"singosc: error: supercritical\n")
    assert workloads.check_cli(inp, flagged).verdict == MISS
    assert workloads.check_cli(inp, _with_stdout(proc, "", 1, b"Traceback")).verdict == WRONG


def test_wavefunction_checker_flags_rho():
    inp = {"argv": ["wavefunction", "--alpha", "0.5", "--xi-points", "5"], "rows": 5}
    proc = workloads.cli_execute(inp)
    assert workloads.check_cli(inp, proc).verdict == OK
    lines = proc.stdout.decode().splitlines()
    xi, psi, rho = lines[2].split(",")
    lines[2] = ",".join([xi, psi, repr(float(rho) * (1 + 1e-9))])
    bad = _with_stdout(proc, "\n".join(lines) + "\n")
    assert workloads.check_cli(inp, bad).verdict == WRONG


def test_tail():
    assert run.tail(list(range(10))) == (4.5, 50.0, 5)
    times = [float(t) for t in range(40)]
    assert run.tail(times) == (29.0, 75.0, 10)


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
