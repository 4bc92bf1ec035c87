"""CLI surface: exit codes, CSV/JSON contracts, figure data shapes."""

import csv
import io
import json
import subprocess
import sys

import pytest

from singosc.cli import build_parser, main
from singosc.model import Domain
from singosc.spectrum import spectrum_table


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
        want = spectrum_table(0.7, 3, Domain.HALF_LINE).rows()
        for parsed, raw in zip(parse_csv(text), want):
            assert float(parsed["eps"]) == raw["eps"]
            assert float(parsed["beta"]) == raw["beta"]
            assert float(parsed["alpha"]) == raw["alpha"]

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

    def test_units_append_x_column(self, tmp_path):
        rc, text = run_cli(
            ["wavefunction", "--alpha", "0.5", "--xi-points", "11", "--mass", "4"],
            tmp_path,
        )
        rows = parse_csv(text)
        assert "x" in rows[0]
        # lam = 4, length scale 1/2
        assert float(rows[-1]["x"]) == pytest.approx(float(rows[-1]["xi"]) / 2.0)


class TestFigureCommands:
    def test_figure1_reference_point(self, tmp_path):
        rc, text = run_cli(["figure", "1"], tmp_path)
        rows = parse_csv(text)
        hit = [r for r in rows if float(r["alpha"]) == 0.0 and float(r["x"]) == 1.0]
        assert len(hit) == 1
        assert float(hit[0]["V"]) == pytest.approx(0.5)

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

    def test_figure4_degenerate_curves_and_markers(self, tmp_path):
        rc, text = run_cli(["figure", "4", "--alpha-points", "12"], tmp_path)
        rows = parse_csv(text)
        curves = [r for r in rows if r["kind"] == "curve"]
        markers = [r for r in rows if r["kind"] == "marker"]
        assert all(int(r["degeneracy"]) == 2 for r in curves)
        marks = sorted((float(r["eps"]), r["label"]) for r in markers)
        assert [m[0] for m in marks] == [0.5 + k for k in range(10)]
        assert [m[1] for m in marks[:4]] == ["even", "odd", "even", "odd"]


class TestVerifyCommand:
    def test_quick_suite_json(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", "perturbation", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "perturbation"

    def test_degeneracy_suite_text(self, capsys):
        rc = main(["verify", "--suite", "degeneracy"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out


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
