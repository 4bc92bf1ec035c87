"""CLI surface: exit codes, CSV/JSON contracts, figure data shapes."""

import contextlib
import ctypes
import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singosc import oracle, quad, spectrum, verify
from singosc.cli import (
    ALPHA_SWEEP_HI,
    ALPHA_SWEEP_LO,
    ALPHA_SWEEP_POINTS,
    MAX_POINTS,
    _alpha_sweep,
    build_parser,
    emit_rows,
    main,
)
from singosc.errors import ParameterError
from singosc.model import Domain, OscillatorSpec, potential_value
from singosc.spectrum import N_MAX, spectrum_table


def run_cli(args, tmp_path=None, fmt="csv"):
    """Invoke main() in-process with output captured to a temp file."""
    out = tmp_path / "out.txt"
    rc = main([*args, "--format", fmt, "--out", str(out)])
    return rc, out.read_text(encoding="utf-8")


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestExitCodes:
    def test_supercritical_is_exit_2(self, capsys):
        rc = main(["spectrum", "--alpha", "-0.3", "--n-max", "2"])
        assert rc == 2
        assert "alpha <= -1/4" in capsys.readouterr().err

    def test_marginal_alpha_is_exit_2(self, capsys):
        rc = main(["spectrum", "--alpha", "-0.25", "--n-max", "1"])
        assert rc == 2
        assert "alpha <= -1/4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["spectrum", "radial", "wavefunction"])
    def test_nonfinite_alpha_is_exit_1(self, capsys, command, value):
        for argv in ([command, f"--alpha={value}"], [command, "--alpha", value]):
            rc = main(argv)
            assert rc == 1
            captured = capsys.readouterr()
            assert "alpha must be finite" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("spectrum", "--alpha", "-1e-3"),
            ("spectrum", "--alpha", "-1E-3"),
            ("spectrum", "--alpha", "-.001"),
            ("radial", "--alpha", "-2e-1"),
            ("wavefunction --alpha 0.5 --domain full --parity odd", "--xi-min", "-1e0"),
        ],
    )
    def test_negative_exponent_form_is_a_value(self, capsys, command, option, value):
        assert main([*command.split(), f"{option}={value}"]) == 0
        joined = capsys.readouterr().out
        assert main([*command.split(), option, value]) == 0
        assert capsys.readouterr().out == joined != ""

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --alpha 1 --n-max 0 --omega inf",
            "wavefunction --alpha 1 --xi-points 3 --mass inf",
            "radial --alpha 1 --hbar nan",
            # lambda = m omega / hbar underflows to 0
            "wavefunction --alpha 1 --mass 1e-300 --omega 1e-300 --hbar 1e300",
            # lambda overflows to inf
            "wavefunction --alpha 1 --mass 1e300 --omega 1e300",
            # hbar omega overflows while lambda stays finite
            "spectrum --alpha 1 --mass 1e-300 --omega 1e300 --hbar 1e300",
            # hbar omega is finite but eps * hbar omega is not
            "spectrum --alpha 1 --omega 1e308",
        ],
    )
    def test_unrepresentable_units_are_exit_1(self, capsys, argv):
        rc = main(argv.split())
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("singosc: error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_usage_error_is_exit_1(self):
        for value in ("not-a-number", "-not-a-number"):
            with pytest.raises(SystemExit) as exc:
                main(["spectrum", "--alpha", value])
            assert exc.value.code == 1

    def test_unknown_command_is_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_missing_parity_on_full_line_is_exit_1(self, capsys):
        rc = main(["wavefunction", "--alpha", "0.5", "--domain", "full"])
        assert rc == 1
        assert "parity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("wavefunction --alpha 1 --xi-points 100000000000000000000",
             f"--xi-points must be at most {MAX_POINTS}"),
            ("figure 2 --alpha-points 100000000000000000000",
             f"--alpha-points must be at most {MAX_POINTS}"),
            (f"figure 4 --alpha-points {MAX_POINTS + 1}",
             f"--alpha-points must be at most {MAX_POINTS}"),
            ("radial --alpha 1 --l 1" + "0" * 160, "l(l+1) overflows a float"),
        ],
    )
    def test_oversized_count_is_exit_1(self, capsys, argv, message):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"singosc: error: \S[^\n]*\n", captured.err)
        assert message in captured.err
        assert captured.out == ""

    def test_largest_point_count_is_accepted(self, tmp_path):
        argv = ["wavefunction", "--alpha", "1", "--xi-points", str(MAX_POINTS)]
        rc, text = run_cli(argv, tmp_path)
        assert rc == 0 and len(text.splitlines()) == MAX_POINTS + 1

    @pytest.mark.parametrize("unit", ["--mass", "--omega", "--hbar"])
    def test_figure_takes_no_unit_options(self, unit):
        # figure data are in natural units, so a unit option would change nothing
        for value in ("2", "inf"):
            with pytest.raises(SystemExit) as exc:
                main(["figure", "1", unit, value])
            assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, option",
        [
            ("spectrum --alpha 0.5 --domain full --beta-branch minus1", "branch"),
            ("spectrum --alpha 0 --domain full --beta-branch zero", "branch"),
            ("wavefunction --alpha 0.5 --domain half --parity odd", "--parity"),
            ("wavefunction --alpha 0 --parity even", "--parity"),
            ("wavefunction --alpha 0.5 --domain full --parity odd --beta-branch zero",
             "--beta-branch"),
        ],
    )
    def test_option_of_the_other_domain_is_exit_1(self, capsys, argv, option):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("singosc: error:") and option in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-1", str(N_MAX + 1), "100000000000000000000"])
    @pytest.mark.parametrize("option", ["spectrum --n-max", "wavefunction --n"])
    def test_quantum_number_out_of_range_is_exit_1(self, capsys, option, value):
        command, flag = option.split()
        assert main([command, "--alpha", "1", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("singosc: error:")
        assert "quantum number n" in captured.err
        assert captured.out == ""

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "singosc", "spectrum", "--alpha", "2",
             "--n-max", "2", "--domain", "half"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        rows = parse_csv(proc.stdout)
        assert [float(r["eps"]) for r in rows] == [2.5, 4.5, 6.5]

    def test_subprocess_supercritical(self):
        proc = subprocess.run(
            [sys.executable, "-m", "singosc", "spectrum", "--alpha", "-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "alpha <= -1/4" in proc.stderr

    @pytest.mark.parametrize(
        "where, reason",
        [("missing/x.csv", "No such file or directory"), (".", "Is a directory")],
    )
    @pytest.mark.parametrize(
        "command", [["spectrum", "--alpha", "0.5"], ["verify", "--suite", "degeneracy"]]
    )
    def test_unwritable_out_path_is_exit_1(self, tmp_path, capsys, command, where, reason):
        path = tmp_path / where
        assert main([*command, "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"singosc: error: cannot write --out {path}: {reason}\n"
        assert captured.out == ""


_UNIT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 1e-300, 1e300]),
    st.floats(),
)


def _numeric_cells(text):
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                pass  # a label such as `half` or `even`


class TestUnitOptions:
    @given(st.sampled_from(["spectrum", "wavefunction"]), _UNIT_VALUES, _UNIT_VALUES, _UNIT_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_finite_output_or_typed_error(self, command, mass, omega, hbar):
        units = {"mass": mass, "omega": omega, "hbar": hbar}
        argv = [command, "--alpha", "1", *(f"--{k}={v!r}" for k, v in units.items())]
        if command == "wavefunction":
            argv += ["--xi-points", "5"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:
            cells = list(_numeric_cells(out.getvalue()))
            assert cells and all(math.isfinite(v) for v in cells)
        else:
            assert rc == 1
            assert out.getvalue() == ""
            assert re.fullmatch(r"singosc: error: \S[^\n]*\n", err.getvalue())


def _count(small, cap):
    """Small counts, negative ones included, and counts past the cap."""
    return st.one_of(st.integers(-3, small), st.integers(cap + 1, 10**30))


_ARGV = st.one_of(
    st.builds(
        lambda alpha, n_max, domain: ["spectrum", f"--alpha={alpha!r}", "--n-max", str(n_max),
                                      "--domain", domain],
        st.floats(), _count(30, N_MAX), st.sampled_from(["half", "full"]),
    ),
    st.builds(
        lambda alpha, l, n_max: ["radial", f"--alpha={alpha!r}", "--l", str(l),
                                 "--n-max", str(n_max)],
        st.floats(), st.one_of(st.integers(-3, 30), st.integers(10**150, 10**200)),
        _count(30, N_MAX),
    ),
    st.builds(
        lambda fig, points: ["figure", str(fig), "--alpha-points", str(points)],
        st.integers(1, 4), _count(30, MAX_POINTS),
    ),
    st.builds(
        lambda alpha, xi_max, points: ["wavefunction", f"--alpha={alpha!r}",
                                       f"--xi-max={xi_max!r}", "--xi-points", str(points)],
        st.floats(-1.0, 1e6), st.floats(-1.0, 1e200), _count(60, MAX_POINTS),
    ),
)


class TestInputDomain:
    """Couplings and counts: finite output or one typed error line."""

    @given(_ARGV)
    @settings(max_examples=300, deadline=None)
    @example(["radial", "--alpha=1e308", "--l", str(10**154)])
    @example(["spectrum", "--alpha=1e308", "--n-max", "3", "--domain", "full"])
    @example(["spectrum", "--alpha=3e32", "--n-max", "3", "--domain", "half"])
    @example(["spectrum", "--alpha=3e32", "--n-max", "3", "--domain", "full"])
    # psi is NaN at xi = 10 .. 40, where x^(beta+1) overflows, and far out
    @example(["wavefunction", "--alpha=1000000.0", "--xi-max=40.0", "--xi-points", "5"])
    @example(["wavefunction", "--alpha=1.0", "--xi-max=1e200", "--xi-points", "3"])
    def test_finite_output_or_typed_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:
            cells = list(_numeric_cells(out.getvalue()))
            assert cells and all(math.isfinite(v) for v in cells)
            if argv[0] in ("spectrum", "radial"):
                # radial tables carry no domain column: they are half-line
                for row in parse_csv(out.getvalue()):
                    pair = row.get("domain") == "full" and float(row["alpha"]) != 0
                    assert int(row["degeneracy"]) == (2 if pair else 1)
        else:
            assert rc in (1, 2)
            assert out.getvalue() == ""
            assert re.fullmatch(r"singosc: error: \S[^\n]*\n", err.getvalue())

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --alpha 1e33 --n-max 3",
            "spectrum --alpha 1e33 --domain full --n-max 1",
            "radial --alpha 0 --l 100000000000000000 --n-max 2",
        ],
    )
    def test_levels_doubles_cannot_separate_exit_1(self, argv, capsys):
        # from eps = 2^54 on, 2n + beta + 3/2 would print n and n + 1 as one level
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"singosc: error: \S[^\n]*do not separate[^\n]*\n", captured.err)


class TestSpectrumCommand:
    def test_csv_columns_and_values(self, tmp_path):
        rc, text = run_cli(
            ["spectrum", "--alpha", "0.7", "--n-max", "3"], tmp_path
        )
        assert rc == 0
        assert "\r" not in text
        rows = parse_csv(text)
        assert list(rows[0].keys()) == [
            "alpha", "domain", "n", "parity", "beta", "eps", "degeneracy",
        ]
        assert len(rows) == 4

    def test_csv_round_trips_to_full_precision(self, tmp_path):
        rc, text = run_cli(["spectrum", "--alpha", "0.7", "--n-max", "3"], tmp_path)
        assert rc == 0
        want = spectrum_table(0.7, 3, Domain.HALF_LINE).columns()
        parsed = parse_csv(text)
        assert len(parsed) == len(want["eps"])
        for row, eps, beta, alpha in zip(parsed, want["eps"], want["beta"], want["alpha"]):
            assert float(row["eps"]) == eps
            assert float(row["beta"]) == beta
            assert float(row["alpha"]) == alpha

    def test_free_fullline_parity_labels(self, tmp_path):
        rc, text = run_cli(
            ["spectrum", "--alpha", "0", "--domain", "full", "--n-max", "1"], tmp_path
        )
        rows = parse_csv(text)
        assert [float(r["eps"]) for r in rows] == [0.5, 1.5, 2.5, 3.5]
        assert [r["parity"] for r in rows] == ["even", "odd", "even", "odd"]

    def test_free_halfline_defaults_to_vanishing_branch(self, tmp_path):
        rc, text = run_cli(["spectrum", "--alpha", "0", "--n-max", "1"], tmp_path)
        assert rc == 0
        assert [float(r["eps"]) for r in parse_csv(text)] == [1.5, 3.5]

    def test_explicit_intruder_branch(self, tmp_path):
        rc, text = run_cli(
            ["spectrum", "--alpha", "0", "--n-max", "1", "--beta-branch", "minus1"],
            tmp_path,
        )
        assert [float(r["eps"]) for r in parse_csv(text)] == [0.5, 2.5]

    def test_physical_units_append_energy_column(self, tmp_path):
        rc, text = run_cli(
            ["spectrum", "--alpha", "2", "--n-max", "1", "--omega", "3"], tmp_path
        )
        rows = parse_csv(text)
        assert "energy" in rows[0]
        assert float(rows[0]["energy"]) == pytest.approx(7.5)

    def test_json_payload(self, tmp_path):
        rc, text = run_cli(
            ["spectrum", "--alpha", "0.5", "--n-max", "1"], tmp_path, fmt="json"
        )
        doc = json.loads(text)
        assert doc["spacing"] == 2.0
        assert len(doc["rows"]) == 2


class TestWavefunctionCommand:
    def test_halfline_grid_and_density(self, tmp_path):
        rc, text = run_cli(
            ["wavefunction", "--alpha", "3", "--n", "0",
             "--xi-min", "0", "--xi-max", "4", "--xi-points", "81"],
            tmp_path,
        )
        rows = parse_csv(text)
        assert rc == 0
        assert len(rows) == 81
        assert float(rows[0]["psi"]) == 0.0
        for r in rows:
            assert float(r["rho"]) == pytest.approx(float(r["psi"]) ** 2, rel=1e-12)

    def test_fullline_odd_antisymmetric(self, tmp_path):
        rc, text = run_cli(
            ["wavefunction", "--alpha", "0.5", "--domain", "full", "--parity", "odd",
             "--xi-min", "-2", "--xi-max", "2", "--xi-points", "41"],
            tmp_path,
        )
        rows = parse_csv(text)
        psi = [float(r["psi"]) for r in rows]
        assert psi[20] == 0.0  # xi = 0
        for k in range(41):
            assert psi[k] == pytest.approx(-psi[40 - k], abs=1e-14)

    def test_bad_grid_is_exit_1(self, capsys):
        rc = main(["wavefunction", "--alpha", "0.5", "--xi-min", "2", "--xi-max", "1"])
        assert rc == 1

    @pytest.mark.parametrize(
        "argv, cause",
        [("--alpha 1e6 --xi-points 5 --xi-max 40", "psi is not finite at xi = 10: a factor of it overflows"),
         ("--alpha 1 --xi-points 3 --xi-max 1e200", "psi is not finite at xi = 5e+199: a factor of it overflows"),
         ("--alpha 0.5 --n 300 --xi-min 0.01 --xi-max 50 --xi-points 4001",
          "L_300(y) is not finite: y is not, or the recurrence overflows")],
    )
    def test_psi_that_is_not_finite_is_exit_1(self, argv, cause, capsys):
        # x^(beta+1) overflows before e^(-x^2/2) brings it back, or L_n
        # overflows: no NaN row is printed, and no numpy warning, only the
        # library's own text
        assert main(["wavefunction", *argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"singosc: error: {cause}\n"

    @pytest.mark.parametrize(
        "grid",
        [
            ["--xi-max", "nan"],
            ["--xi-min", "nan"],
            ["--xi-max", "inf"],
            ["--domain", "full", "--parity", "odd", "--xi-min", "-inf"],
        ],
    )
    def test_nonfinite_grid_is_exit_1(self, capsys, grid):
        assert main(["wavefunction", "--alpha", "0.5", *grid]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("singosc: error:")
        assert "finite" in captured.err
        assert captured.out == ""

    def test_units_append_x_column(self, tmp_path):
        rc, text = run_cli(
            ["wavefunction", "--alpha", "0.5", "--xi-points", "11", "--mass", "4"],
            tmp_path,
        )
        rows = parse_csv(text)
        assert "x" in rows[0]
        # lam = 4, length scale 1/2
        assert float(rows[-1]["x"]) == pytest.approx(float(rows[-1]["xi"]) / 2.0)

    def test_json_units_meta_and_x_column(self, tmp_path):
        argv = ["wavefunction", "--alpha", "0.5", "--n", "1", "--xi-points", "21",
                "--mass", "2"]
        rc, text = run_cli(argv, tmp_path, fmt="json")
        assert rc == 0
        doc = json.loads(text)
        assert list(doc) == ["rows", "alpha", "n", "parity", "beta", "eps"]
        assert (doc["alpha"], doc["n"], doc["parity"]) == (0.5, 1, "none")
        assert doc["eps"] == pytest.approx(2.0 + doc["beta"] + 1.5)
        rows = doc["rows"]
        assert len(rows) == 21
        assert all(list(r) == ["xi", "psi", "rho", "x"] for r in rows)
        # lam = 2, length scale 2^(-1/2)
        length = OscillatorSpec(alpha=0.5, mass=2.0).length_scale
        assert length == pytest.approx(2.0**-0.5)
        assert [r["x"] for r in rows] == [r["xi"] * length for r in rows]


class TestFigureCommands:
    def test_figure1_reference_point(self, tmp_path):
        rc, text = run_cli(["figure", "1"], tmp_path)
        rows = parse_csv(text)
        hit = [r for r in rows if float(r["alpha"]) == 0.0 and float(r["x"]) == 1.0]
        assert len(hit) == 1
        assert float(hit[0]["V"]) == pytest.approx(0.5)

    def test_figure1_potential_column_is_pointwise_potential_value(self, tmp_path):
        # the V column is written to 17 digits, so it reads back bit for bit
        rc, text = run_cli(["figure", "1"], tmp_path)
        rows = parse_csv(text)
        assert len(rows) == 3 * 150
        for r in rows:
            want = potential_value(OscillatorSpec(alpha=float(r["alpha"])), float(r["x"]))
            assert float(r["V"]) == want

    def test_figure2_structure(self, tmp_path):
        rc, text = run_cli(["figure", "2", "--alpha-points", "16"], tmp_path)
        rows = parse_csv(text)
        curves = [r for r in rows if r["kind"] == "curve"]
        markers = [r for r in rows if r["kind"] == "marker"]
        assert len(curves) == 16 * 5
        assert len(markers) == 10
        assert {r["label"] for r in markers} == {"beta=-1", "beta=0"}
        alphas = sorted({float(r["alpha"]) for r in curves})
        assert alphas[0] > -0.249 and alphas[-1] == 0.25

    def test_figure3_ground_state_profiles(self, tmp_path):
        rc, text = run_cli(["figure", "3"], tmp_path)
        rows = parse_csv(text)
        alphas = sorted({float(r["alpha"]) for r in rows})
        assert alphas == [-0.249, -0.2, 0.2, 3.0]
        for a in alphas:
            sub = [r for r in rows if float(r["alpha"]) == a]
            assert len(sub) == 401
            assert float(sub[0]["psi"]) == 0.0

    def test_zero_alpha_points_writes_only_markers(self, tmp_path):
        for fig in ("2", "4"):
            rc, text = run_cli(["figure", fig, "--alpha-points", "0"], tmp_path)
            assert rc == 0
            rows = parse_csv(text)
            assert len(rows) == 10
            assert {r["kind"] for r in rows} == {"marker"}

    @pytest.mark.parametrize("fig", ["2", "4"])
    @pytest.mark.parametrize("points", ["-5", "-1"])
    def test_negative_alpha_points_is_exit_1(self, capsys, fig, points):
        assert main(["figure", fig, "--alpha-points", points]) == 1
        captured = capsys.readouterr()
        assert captured.err == "singosc: error: --alpha-points must be >= 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("fig", ["1", "3"])
    @pytest.mark.parametrize("points", ["5", "-4"])
    def test_alpha_points_rejected_without_a_sweep(self, capsys, fig, points):
        assert main(["figure", fig, "--alpha-points", points]) == 1
        captured = capsys.readouterr()
        assert captured.err == "singosc: error: --alpha-points applies to figures 2 and 4 only\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", ["1", "2", "2 --alpha-points 5", "3", "4", "4 --alpha-points 5"])
    def test_out_file_equals_stdout(self, argv, tmp_path, capsys):
        # `figure k --out` is the one writer of the figure files
        assert main(["figure", *argv.split()]) == 0
        want = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "f.csv"
        assert main(["figure", *argv.split(), "--out", str(out)]) == 0
        assert out.read_bytes() == want

    @pytest.mark.parametrize("fig", ["2", "4"])
    @pytest.mark.parametrize("points", ["-1", str(MAX_POINTS + 1)])
    def test_bad_point_count_writes_no_file(self, fig, points, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["figure", fig, "--alpha-points", points, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("singosc: error: --alpha-points must be ")
        assert not out.exists()

    def test_default_sweep_points(self, tmp_path):
        rc, text = run_cli(["figure", "4"], tmp_path)
        curves = [r for r in parse_csv(text) if r["kind"] == "curve"]
        assert rc == 0 and len(curves) == ALPHA_SWEEP_POINTS * 5

    @pytest.mark.parametrize("points", [0, 1, 2, 3, 7, 200, 99_999, 100_000])
    def test_alpha_sweep_is_linspace_bit_for_bit(self, points):
        want = np.linspace(ALPHA_SWEEP_LO, ALPHA_SWEEP_HI, points + 1)[1:].tolist()
        assert list(map(float.hex, _alpha_sweep(points))) == list(map(float.hex, want))

    def test_figure4_degenerate_curves_and_markers(self, tmp_path):
        rc, text = run_cli(["figure", "4", "--alpha-points", "12"], tmp_path)
        rows = parse_csv(text)
        curves = [r for r in rows if r["kind"] == "curve"]
        markers = [r for r in rows if r["kind"] == "marker"]
        assert all(int(r["degeneracy"]) == 2 for r in curves)
        marks = sorted((float(r["eps"]), r["label"]) for r in markers)
        assert [m[0] for m in marks] == [0.5 + k for k in range(10)]
        assert [m[1] for m in marks[:4]] == ["even", "odd", "even", "odd"]

    @pytest.mark.parametrize("points", [499, 998])
    def test_sweep_through_alpha_zero(self, points, tmp_path):
        # these sweeps hold alpha = 0.0 exactly (i = 249 of 499): there the
        # whole-line curves are the odd ladder, each level simple, and the
        # beta = -1 intruders appear as markers only
        assert 0.0 in _alpha_sweep(points)
        text = run_cli(["figure", "4", "--alpha-points", str(points)], tmp_path)[1]
        curves = [r for r in parse_csv(text) if r["kind"] == "curve"]
        at_zero = [(float(r["eps"]), int(r["degeneracy"])) for r in curves if float(r["alpha"]) == 0.0]
        assert at_zero == [(2 * n + 1.5, 1) for n in range(5)]
        assert {int(r["degeneracy"]) for r in curves if float(r["alpha"]) != 0.0} == {2}
        for n in range(5):
            # criterion 10's check: each curve rises with alpha, with no jump
            pts = sorted((float(r["alpha"]), float(r["eps"])) for r in curves if int(r["n"]) == n)
            steps = np.diff([eps for _, eps in pts])
            assert len(pts) == points and np.all(steps > 0) and np.max(steps) <= 0.06
        # the half-line diagram is each state of each sweep table, then the
        # states of both alpha = 0 branches, as it was written before
        text = run_cli(["figure", "2", "--alpha-points", str(points)], tmp_path)[1]
        rows = [list(r.values()) for r in parse_csv(text)]
        want = [["curve", a, s.n, f"n={s.n}", s.energy_eps, 1]
                for a in _alpha_sweep(points) for s in spectrum_table(a, 4, Domain.HALF_LINE).states]
        want += [["marker", 0.0, s.n, label, s.energy_eps, 1]
                 for branch, label in ((-1.0, "beta=-1"), (0.0, "beta=0"))
                 for s in spectrum_table(0.0, 4, Domain.HALF_LINE, branch).states]
        assert rows == [[format(v, ".17g") if isinstance(v, float) else str(v) for v in row] for row in want]

    @pytest.mark.parametrize("fig", ["2", "4"])
    def test_level_figures_gate_once_per_alpha(self, fig, tmp_path, monkeypatch):
        # one table per sweep alpha, and one per alpha = 0 branch for the
        # markers: 3 + 2 gate calls, not one per state (3 * 5 + 10)
        calls = []
        gate = spectrum.admissible_beta

        def spy(*rest):
            calls.append(rest)
            return gate(*rest)

        monkeypatch.setattr(spectrum, "admissible_beta", spy)
        assert run_cli(["figure", fig, "--alpha-points", "3"], tmp_path)[0] == 0
        assert len(calls) == 5


class TestVerifyCommand:
    @pytest.fixture
    def called(self, monkeypatch):
        """The names of the suites run, each suite a stub that records it."""
        called = []
        for name in verify.SUITE_NAMES:
            monkeypatch.setitem(verify.SUITES, name, lambda *a, name=name, **k: called.append(name))
        return called

    def test_quick_suite_json(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", "perturbation", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "perturbation"

    def test_oracle_suite_at_alpha_zero(self, capsys):
        # both oracles compute beta_plus = 0, the library's default branch
        assert main(["verify", "--suite", "oracle", "--alpha", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "suite oracle: PASS" and lines[-1] == "overall: PASS"
        assert [line.split(":")[0] for line in lines[1:3]] == [
            "  PASS shooting alpha=0.0", "  PASS finite-difference alpha=0.0"
        ]

    @pytest.mark.parametrize("alpha", ["1e4", "1e5"])
    def test_oracle_suite_passes_past_the_gram_box(self, alpha, capsys):
        # both oracles take their box from their own window: past x = 12,
        # the former Gram box, where finite differences failed before
        assert main(["verify", "--suite", "oracle", "--alpha", alpha]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:3]] == ["PASS", "PASS"]
        assert lines[-1] == "overall: PASS"

    def test_oracle_suite_grades_shooting_then_fd_through_compare(self, monkeypatch):
        # the benchmark's checker reads every oracle.compare call the suite
        # makes, the oracle's result as its second positional argument
        calls = []
        inner = oracle.compare

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(oracle, "compare", spy)
        verify.suite_oracle(alphas=(0.5,), n_max=4)
        assert [(args[1].method, args[2]) for args in calls] == [
            (oracle.OracleMethod.SHOOTING, verify.ORACLE_TOL_SHOOT),
            (oracle.OracleMethod.FINITE_DIFFERENCE, verify.ORACLE_TOL_FD),
        ]
        beta = math.sqrt(0.75) - 0.5
        ladder = [2 * n + beta + 1.5 for n in range(5)]
        assert [list(args[0]) for args in calls] == [pytest.approx(ladder, rel=1e-15)] * 2

    def test_oracle_suite_one_level_pair_within_bounds(self):
        # the smallest ladder both oracles grade: n_max = 1 at alpha = 1/2
        rep = verify.suite_oracle(alphas=(0.5,), n_max=1)
        assert [(c.name, c.passed) for c in rep.checks] == [
            ("shooting alpha=0.5", True), ("finite-difference alpha=0.5", True)
        ]

    def test_suite_with_no_checks_does_not_pass(self):
        # all([]) is True: a suite that checked nothing must not report PASS
        rep = verify.suite_oracle(alphas=())
        assert rep.checks == () and not rep.passed
        assert rep.to_dict()["passed"] is False

    def test_oracle_suite_rejects_a_negative_level_count(self, monkeypatch):
        # the closed form checks n_max before either oracle runs
        called = []
        monkeypatch.setattr(oracle, "shoot_spectrum", lambda *a, **k: called.append(a))
        with pytest.raises(ParameterError, match="quantum number n must be an integer"):
            verify.suite_oracle(alphas=(0.5,), n_max=-1)
        assert called == []

    def test_oracle_suite_at_huge_alpha_exits_1(self, capsys):
        # shooting's Frobenius series does not converge at x0 = 1.6e6
        assert main(["verify", "--suite", "oracle", "--alpha", "1e30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"singosc: error: [^\n]*Frobenius series[^\n]*\n", captured.err)

    def test_degeneracy_suite_text(self, capsys):
        rc = main(["verify", "--suite", "degeneracy"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_tolerance_is_not_an_option(self, capsys):
        # the oracle suite's bounds are constants; --tol is an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "oracle", "--tol", "1e-4"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: singosc ")
        assert "unrecognized arguments: --tol 1e-4" in captured.err

    # the ids are the ones these two cases ran under while two --tol cases
    # came first in the list
    @pytest.mark.parametrize(
        "flags, code",
        [(["--alpha", "nan"], 1), (["--alpha", "-1"], 2), (["--alpha", "-0.25"], 2)],
        ids=["flags2-1", "flags3-2", "quarter-2"],
    )
    def test_bad_oracle_flags_rejected_before_any_suite(self, called, capsys, flags, code):
        # --suite all would run hermiticity and orthonormality before the
        # oracle suite; a bad --alpha must stop it before them
        assert main(["verify", "--suite", "all", *flags]) == code
        assert called == []
        captured = capsys.readouterr()
        assert captured.err.startswith("singosc: error: ") and captured.out == ""

    @pytest.mark.parametrize(
        "names", [("nope",), ("oracle", "nope")], ids=["alone", "after-oracle"]
    )
    def test_unknown_suite_rejected_before_any_suite(self, called, names):
        # run_suites checks every name first, so the oracle suite named
        # before an unknown one must not run
        with pytest.raises(ParameterError, match="nope"):
            verify.run_suites(names)
        assert called == []

    def test_unknown_suite_from_the_cli_rejected_before_any_suite(self, called, capsys):
        # the CLI leaves --suite to run_suites, so its error is the one line
        assert main(["verify", "--suite", "nope"]) == 1
        assert called == []
        captured = capsys.readouterr()
        assert re.fullmatch(r"singosc: error: unknown suites \['nope'\][^\n]*\n", captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "names", [("degeneracy",), ("hermiticity", "perturbation")], ids=["one", "two"]
    )
    def test_alpha_without_the_oracle_suite_rejected_before_any_suite(self, called, names):
        # an alpha only the oracle suite reads is an error, not dropped
        with pytest.raises(ParameterError, match="oracle suite only"):
            verify.run_suites(names, alpha=2.0)
        assert called == []

    # verify checks that restate a closed form, each the report's only line
    # for a paper claim, by the ROADMAP item whose measurement replaces it
    RESTATED = {
        "beta_minus rejected on (-1/4,0)u(0,3/4)": 1,
        "even ground state": 1,
        "even/odd degenerate alpha=0.2": 4,
        "even/odd degenerate alpha=0.5": 4,
        "even/odd degenerate alpha=2.0": 4,
        "alpha=0 combined spectrum": 4,
    }

    def test_only_the_restated_checks_survive_wrong_numerics(self, monkeypatch):
        # every oracle level and every quadrature entry 1% off: a check
        # that still passes computes none of them
        def off(fn, scale):
            return lambda *a, **k: scale(fn(*a, **k))

        def levels(res):
            return dataclasses.replace(res, eigenvalues=tuple(1.01 * e for e in res.eigenvalues))

        for owner, name, scale in (
            (oracle, "shoot_spectrum", levels),
            (oracle, "fd_eigen", levels),
            # spectrum's slope reads quad.gram when called, so this reaches it too
            (quad, "gram", lambda g: 1.01 * g),
        ):
            monkeypatch.setattr(owner, name, off(getattr(owner, name), scale))
        checks = [c for rep in verify.run_suites(verify.SUITE_NAMES) for c in rep.checks]
        # json writes a bool, not numpy's bool_: every verdict is built a bool
        assert {type(c.passed) for c in checks} == {bool}
        passed = {c.name for c in checks if c.passed}
        # the gate check drives the entry points with supercritical alpha
        assert passed == {"entry points raise SupercriticalError", *self.RESTATED}
        assert len(checks) - len(passed) == 9  # 4 Gram, 4 oracle, odd slope

    @pytest.mark.parametrize(
        "suite", ["hermiticity", "orthonormality", "degeneracy", "perturbation"]
    )
    @pytest.mark.parametrize("flags", [["--alpha", "2"]])
    def test_oracle_flags_rejected_by_other_suites(self, capsys, suite, flags):
        assert main(["verify", "--suite", suite, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"singosc: error: alpha applies to the oracle suite only, not to {[suite]}\n"
        )
        assert captured.out == ""

    @given(st.floats())
    @settings(max_examples=100, deadline=None)
    @example(8000.0)
    @example(1e5)
    @example(1e30)
    def test_oracle_suite_at_any_alpha_reports_or_errs(self, alpha):
        # a report that passes (exit 0) or fails (exit 1), or no report
        # and one typed error line (exit 1, or 2 at alpha <= -1/4)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--suite", "oracle", f"--alpha={alpha!r}"])
        text = out.getvalue()
        if rc == 0 or (rc == 1 and text):
            assert text.startswith("suite oracle: ") and err.getvalue() == ""
            assert text.endswith("overall: PASS\n" if rc == 0 else "overall: FAIL\n")
        else:
            assert rc in (1, 2) and text == ""
            assert re.fullmatch(r"singosc: error: \S[^\n]*\n", err.getvalue())


class TestRadialCommand:
    def test_swave_matches_plain_spectrum(self, tmp_path):
        rc, text = run_cli(["radial", "--alpha", "0.5", "--l", "0", "--n-max", "2"],
                           tmp_path)
        rows = parse_csv(text)
        want = spectrum_table(0.5, 2, Domain.HALF_LINE)
        assert [float(r["eps"]) for r in rows] == list(want.distinct_levels())

    def test_centrifugal_shift(self, tmp_path):
        rc, text = run_cli(["radial", "--alpha", "0", "--l", "1", "--n-max", "0"],
                           tmp_path)
        rows = parse_csv(text)
        assert float(rows[0]["alpha_eff"]) == 2.0
        assert float(rows[0]["eps"]) == 2.5
        assert int(rows[0]["l"]) == 1

    def test_supercritical_effective_alpha(self, capsys):
        rc = main(["radial", "--alpha", "-0.5", "--l", "0"])
        assert rc == 2

    def test_json_key_order_and_csv_header(self, tmp_path):
        argv = ["radial", "--alpha", "0.3", "--l", "2", "--n-max", "1"]
        rc, text = run_cli(argv, tmp_path, fmt="json")
        assert rc == 0
        rows = json.loads(text)["rows"]
        assert [list(r) for r in rows] == [
            ["alpha", "n", "parity", "beta", "eps", "degeneracy", "l", "alpha_eff"]
        ] * 2
        assert rows[0]["alpha"] == 0.3 and rows[0]["alpha_eff"] == pytest.approx(6.3)
        rc, text = run_cli([*argv, "--omega", "2"], tmp_path, fmt="json")
        assert list(json.loads(text)["rows"][0])[-1] == "energy"
        rc, text = run_cli(argv, tmp_path)
        assert text.splitlines()[0] == "alpha,l,alpha_eff,n,parity,beta,eps,degeneracy"
        rc, text = run_cli([*argv, "--omega", "2"], tmp_path)
        assert text.splitlines()[0].endswith(",degeneracy,energy")

    def test_centrifugal_rescues_supercritical_alpha(self, tmp_path):
        rc, text = run_cli(["radial", "--alpha", "-0.3", "--l", "1", "--n-max", "0"],
                           tmp_path)
        assert rc == 0
        assert float(parse_csv(text)[0]["alpha_eff"]) == pytest.approx(1.7)


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        names = set(actions[0].choices)
        assert names == {"spectrum", "wavefunction", "figure", "verify", "radial"}


def _loaded_after(code, package="scipy"):
    """Run code in a fresh interpreter and return the modules of package
    (the package itself and its submodules) that it loaded."""
    probe = (
        f"{code}\nimport sys\n"
        f"print(*sorted(m for m in sys.modules if (m + '.').startswith({package!r} + '.')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _run_module(*argv):
    """Source that runs `python -m singosc ARGV` and asserts it exits 0."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['singosc', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('singosc', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


_ANALYTIC_ARGV = [
    ("spectrum", "--alpha", "0.5"),
    ("radial", "--alpha", "0.5", "--l", "1"),
    ("wavefunction", "--alpha", "-0.2", "--domain", "full", "--parity", "odd"),
    ("figure", "4", "--alpha-points", "5"),
]


# whether numpy's own LAPACK exports the dstebz symbol oracle._stebz binds
_NUMPY_HAS_DSTEBZ = hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), "scipy_dstebz_64_")


def _linalg_only(loaded):
    """Whether the scipy modules a process loaded are scipy.linalg and no
    other subpackage the package could use."""
    return "scipy.linalg" in loaded and "scipy.integrate" not in loaded and "scipy.special" not in loaded


def _fd_loaded(loaded):
    """Whether the scipy modules a process loaded are those its FD oracle
    needs: none where numpy's LAPACK has dstebz, else scipy.linalg alone."""
    return loaded == [] if _NUMPY_HAS_DSTEBZ else _linalg_only(loaded)


class TestLazyScipy:
    """scipy loads only inside the oracle calls that use it, and there only
    where numpy's own LAPACK lacks the Sturm bisection."""

    def test_import_loads_no_scipy(self):
        assert _loaded_after("import singosc") == []

    @pytest.mark.parametrize("argv", _ANALYTIC_ARGV)
    def test_analytic_commands_load_no_scipy(self, argv):
        assert _loaded_after(_run_module(*argv)) == []

    def test_oracle_suite_loads_linalg_when_called(self):
        assert _fd_loaded(_loaded_after(_run_module("verify", "--suite", "oracle", "--alpha", "2")))

    def test_verify_all_loads_linalg_only(self):
        assert _fd_loaded(_loaded_after(_run_module("verify", "--suite", "all")))

    def test_perturbation_suite_loads_no_scipy(self):
        assert _loaded_after(_run_module("verify", "--suite", "perturbation")) == []

    def test_hermiticity_suite_loads_no_scipy(self):
        # its supercritical fd_eigen calls raise at the gate, before the import
        assert _loaded_after(_run_module("verify", "--suite", "hermiticity")) == []

    @pytest.mark.parametrize("k", ["0", "1.5", "631"])
    def test_rejected_fd_request_loads_no_scipy(self, k):
        # _richardson checks k and the row cap before it loads its solver
        code = (
            "from singosc import oracle\n"
            "from singosc.errors import ParameterError\n"
            "try:\n"
            f"    oracle.fd_eigen(2.0, {k})\n"
            "except ParameterError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('no ParameterError')\n"
        )
        assert _loaded_after(code) == []

    def test_first_fd_call_does_not_time_the_import(self):
        # a process's first fd_eigen resolves dstebz, or loads scipy.linalg,
        # which takes far longer than the run itself, off its clock
        code = (
            "import sys\n"
            "from singosc import oracle\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "seconds = oracle.fd_eigen(0.5, 2).seconds\n"
            "assert seconds < 0.05, seconds\n"
        )
        assert _fd_loaded(_loaded_after(code))

    def test_fallback_binding_loads_linalg_off_the_clock(self):
        # where numpy's library cannot be opened, the first fd_eigen binds
        # scipy.linalg's dstebz before its clock and returns the levels the
        # ctypes binding gives
        want = repr(oracle.fd_eigen(0.5, 2).eigenvalues)
        code = (
            "import ctypes\n"
            "from singosc import oracle\n"
            "def no_library(name):\n"
            "    raise OSError(name)\n"
            "ctypes.CDLL = no_library\n"
            "res = oracle.fd_eigen(0.5, 2)\n"
            "assert res.seconds < 0.05, res.seconds\n"
            f"assert repr(res.eigenvalues) == {want!r}, res.eigenvalues\n"
        )
        assert _linalg_only(_loaded_after(code))

    def test_quadrature_loads_no_scipy(self):
        # the Gauss-Legendre rule behind Gram matrices and principal values
        # and the Gauss-Laguerre rule of the second route are built in numpy
        def after(call):
            return _loaded_after(
                "from singosc import quad, spectrum\n"
                "s = spectrum.halfline_state(0.5, 2)\n"
                f"assert abs({call} - 1.0) < 1e-12\n"
            )

        assert after("quad.overlap(s, s)") == []
        assert after("quad.gram([s])[0, 0]") == []
        assert after("quad.overlap_halfline_gauss(s, s)") == []
        # PV of 1/x on [-1, 1] is 0
        assert after("1.0 + quad.cauchy_pv(lambda x: 1.0 / x, -1.0, 1.0, 0.0)") == []


class TestLazyOracleAndQuadrature:
    """singosc.oracle and singosc.quad load on first use, and singosc.verify
    for `singosc verify` only, never on import or in an analytic command."""

    _DEFERRED = {"singosc.oracle", "singosc.quad", "singosc.verify"}

    def _deferred_after(self, code):
        return self._DEFERRED.intersection(_loaded_after(code, package="singosc"))

    def test_import_loads_neither(self):
        assert self._deferred_after("import singosc") == set()

    def test_cli_import_loads_none(self):
        # the CLI imports verify inside `singosc verify` alone
        assert self._deferred_after("import singosc.cli") == set()

    @pytest.mark.parametrize("argv", _ANALYTIC_ARGV)
    def test_analytic_commands_load_neither(self, argv):
        assert self._deferred_after(_run_module(*argv)) == set()

    @pytest.mark.parametrize(
        "suite, loaded",
        [
            ("oracle", {"singosc.oracle"}),
            ("perturbation", {"singosc.quad"}),
            ("degeneracy", set()),
            ("all", {"singosc.oracle", "singosc.quad"}),
        ],
    )
    def test_verify_loads_what_its_suites_call(self, suite, loaded):
        argv = ("verify", "--suite", suite, *(("--alpha", "2") if suite == "oracle" else ()))
        assert self._deferred_after(_run_module(*argv)) == {"singosc.verify", *loaded}

    def test_lazy_names_are_the_modules_own(self):
        code = (
            "import singosc, sys\n"
            "o = singosc.oracle\n"
            "from singosc import shoot_spectrum, gram, cauchy_pv\n"
            "import singosc.quad as q\n"
            "assert o is sys.modules['singosc.oracle'] and shoot_spectrum is o.shoot_spectrum\n"
            "assert gram is q.gram and cauchy_pv is q.cauchy_pv\n"
            "for name in singosc._LAZY['oracle']:\n"
            "    assert getattr(singosc, name) is getattr(o, name), name\n"
            "for name in singosc._LAZY['quad']:\n"
            "    assert getattr(singosc, name) is getattr(q, name), name\n"
            "assert {'oracle', 'quad', 'gram', 'compare'} <= set(dir(singosc))\n"
            "try:\n"
            "    singosc.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('no AttributeError')\n"
        )
        assert self._deferred_after(code) == {"singosc.oracle", "singosc.quad"}


class TestLazyQuadratureRule:
    """The overlaps' Gauss-Legendre rule, and numpy.polynomial behind it,
    are built on the first Gram matrix, not on import or an analytic call."""

    def test_import_loads_no_rule(self):
        assert _loaded_after("import singosc", "numpy.polynomial") == []

    def test_spectrum_command_loads_no_rule(self):
        code = _run_module("spectrum", "--alpha", "0.5")
        assert _loaded_after(code, "numpy.polynomial") == []

    def test_first_overlap_builds_the_rule(self):
        code = (
            "from singosc import quad, spectrum\n"
            "s = spectrum.halfline_state(0.5, 2)\n"
            "quad.overlap(s, s)\n"
        )
        assert "numpy.polynomial.legendre" in _loaded_after(code, "numpy.polynomial")


class TestLazyNumpy:
    """numpy loads only in the calls that build arrays: the closed-form
    ladder of a level table needs only math."""

    @pytest.mark.parametrize(
        "code",
        [
            "import singosc",
            "import singosc.cli",
            _run_module("spectrum", "--alpha", "0.5"),
            _run_module("spectrum", "--alpha", "0.3", "--domain", "full"),
            _run_module("spectrum", "--alpha", "0.5", "--format", "json"),
            _run_module("spectrum", "--alpha", "0.5", "--mass", "2"),
            _run_module("radial", "--alpha", "0.5", "--l", "1"),
            _run_module("figure", "2"),
            _run_module("figure", "4"),
            _run_module("verify", "--suite", "degeneracy"),
        ],
        ids=["import", "import-cli", "spectrum-half", "spectrum-full", "spectrum-json",
             "spectrum-mass", "radial", "figure-2", "figure-4", "verify-degeneracy"],
    )
    def test_level_tables_load_no_numpy(self, code):
        assert _loaded_after(code, "numpy") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("wavefunction", "--alpha", "0.5", "--xi-points", "5"),
            ("figure", "1"),
            ("figure", "3"),
            ("verify", "--suite", "hermiticity"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_array_calls_load_numpy(self, argv):
        assert "numpy" in _loaded_after(_run_module(*argv), "numpy")


def _loaded_of(code, names):
    """Run code in a fresh interpreter and return which of the modules
    names it loaded."""
    probe = f"{code}\nimport sys\nprint('loaded:', *sorted(m for m in {names!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


class TestLazyStdlib:
    """The analytic records are named tuples, so a level table loads no
    dataclasses (which loads inspect), and the CSV writer loads no json."""

    CSV_CALLS = {
        "import": "import singosc",
        "import-cli": "import singosc.cli",
        "spectrum-half": _run_module("spectrum", "--alpha", "0.5"),
        "spectrum-full": _run_module("spectrum", "--alpha", "0.3", "--domain", "full"),
        "spectrum-mass": _run_module("spectrum", "--alpha", "0.5", "--mass", "2"),
        "radial": _run_module("radial", "--alpha", "0.5", "--l", "1"),
        "figure-2": _run_module("figure", "2"),
        "figure-4": _run_module("figure", "4"),
    }

    @pytest.mark.parametrize("code", CSV_CALLS.values(), ids=CSV_CALLS)
    def test_csv_level_tables_load_no_dataclasses_inspect_or_json(self, code):
        assert _loaded_of(code, ["dataclasses", "inspect", "json"]) == []

    def test_json_output_loads_json(self):
        code = _run_module("spectrum", "--alpha", "0.5", "--format", "json")
        assert _loaded_of(code, ["dataclasses", "inspect", "json"]) == ["json"]


def _dictwriter_csv(rows, fields):
    """Reference CSV: one formatted dict and one csv.DictWriter call per row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: format(v, ".17g") if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def _emit_csv(rows, fields):
    """emit_rows on the rows turned into columns, keyed in the rows' own
    order (every field when there are no rows)."""
    keys = list(rows[0]) if rows else fields
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit_rows({f: [r[f] for r in rows] for f in keys}, fields, "csv", None)
    return out.getvalue()


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]),
    st.integers(),
    st.sampled_from(["n=3", "beta=-1", "even", "half"]),
)


@st.composite
def _tables(draw):
    fields = draw(st.lists(st.sampled_from(["alpha", "n", "label", "eps", "x"]),
                           min_size=1, max_size=5, unique=True))
    # rows may hold their keys in another order than the header, as radial's do
    keys = draw(st.permutations(fields))
    rows = draw(st.lists(st.fixed_dictionaries({f: _CELLS for f in keys}), max_size=20))
    return rows, fields


_JSON_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-300, math.inf, -math.inf, math.nan]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(['say "hi"', "caf\u00e9", "\u2603", "back\\slash", "50%", "%s", "%r"]),
)
_JSON_KEYS = st.one_of(
    st.sampled_from(["alpha", "eps", "n", 'a"b', "\u00e9", "%r", "100%", "%%"]),
    st.text(max_size=3),
)


@st.composite
def _json_tables(draw):
    """Equally long columns, each all finite floats, as most are, or any
    cells, and the meta that follows the rows (never a "rows" key)."""
    keys = draw(st.lists(_JSON_KEYS, max_size=5, unique=True))
    count = draw(st.integers(0, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    columns = {
        key: draw(st.lists(st.one_of(finite, _JSON_CELLS) if draw(st.booleans()) else finite,
                           min_size=count, max_size=count))
        for key in keys
    }
    meta = draw(st.none() | st.dictionaries(_JSON_KEYS.filter(lambda k: k != "rows"),
                                            _JSON_CELLS, max_size=3))
    return columns, meta


class TestEmitRowsBytes:
    @settings(max_examples=200)
    @given(_tables())
    @example(([{"eps": -0.0, "n": 3}, {"eps": 5e-324, "n": -1}], ["eps", "n"]))
    def test_csv_equals_dictwriter(self, table):
        rows, fields = table
        assert _emit_csv(rows, fields) == _dictwriter_csv(rows, fields)

    @settings(max_examples=300)
    @given(_json_tables())
    @example(({}, None))
    @example(({"eps": [], "n": []}, {"spacing": 2.0}))
    @example(({"eps": [-0.0, 1e-300, math.nan], "%r": [math.inf, -math.inf, 5e-324]}, {"a": 1}))
    def test_json_equals_json_dumps(self, table):
        columns, meta = table
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        want = json.dumps({"rows": rows, **(meta or {})}, indent=2) + "\n"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            emit_rows(columns, list(columns), "json", None, meta)
        assert out.getvalue() == want

    @pytest.mark.parametrize("fields", [["cell"], ["cell", "eps"], ["eps", "cell"]])
    @pytest.mark.parametrize(
        "cells",
        [
            [0, -3, 10**20],  # ints
            [True, False, True],
            [1, True, 2.5, None],
            ["even", "odd", "n=3", " lead"],  # strs csv.writer leaves bare
            ["even", "a,b"],
            ['say "hi"', "x"],
            ["two\nlines", "y"],
            ["", "odd"],
            [""],  # a lone empty field is written ""
        ],
    )
    def test_typed_columns(self, cells, fields):
        rows = [{f: {"cell": cell, "eps": 1.5}[f] for f in fields} for cell in cells]
        assert _emit_csv(rows, fields) == _dictwriter_csv(rows, fields)

    @pytest.mark.parametrize("fields", [["label"], ["label", "eps"]])
    @pytest.mark.parametrize(
        "label", ["a,b", 'say "hi"', '"', ",", "two\nlines", "cr\rhere", "", " lead"]
    )
    def test_text_needing_quotes(self, label, fields):
        rows = [{"label": label, "eps": 1.5}, {"label": "even", "eps": -0.0}]
        rows = [{f: row[f] for f in fields} for row in rows]
        assert _emit_csv(rows, fields) == _dictwriter_csv(rows, fields)
