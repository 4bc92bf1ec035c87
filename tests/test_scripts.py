"""Smoke tests for the command-line scripts under scripts/, run in-process."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

from singosc.cli import main as cli_main

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConvergenceStudy:
    def test_two_cutoffs(self, capsys):
        study = load_script("convergence_study")
        argv = ["--s-min", "-3", "-4"]
        assert study.main(["--alpha", "-0.2", *argv]) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0].startswith("alpha = -0.2, beta_plus = -0.276393")
        # one row per inner cutoff s_min between the header and the one-grid line
        assert [line.split()[0] for line in lines[3:5]] == ["-3.00", "-4.00"]
        assert lines[-1].startswith("one grid (s_min = -15) eps0 = ")
        # the exponent form of a negative value parses as the same alpha
        assert study.main(["--alpha", "-2e-1", *argv]) == 0
        assert capsys.readouterr().out == text

    def test_near_critical_alpha_default_cutoffs(self, capsys):
        # nu = 3.2e-4: the inner cutoff x = e^(s_min) moves the ground
        # level by about e^(2 s_min), so the local slope is 2
        study = load_script("convergence_study")
        assert study.main(["--alpha", "-0.2499999"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:8]
        assert [row.split()[0] for row in rows] == ["-3.00", "-4.00", "-5.00", "-6.00", "-7.00"]
        assert [float(row.split()[3]) for row in rows[1:]] == pytest.approx([2.0] * 4, abs=0.01)

    def test_repulsive_alpha(self, capsys):
        study = load_script("convergence_study")
        assert study.main(["--alpha", "0.5", "--s-min", "-4"]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("alpha = 0.5, beta_plus = 0.366025")

    @pytest.mark.parametrize("alpha, code", [("-0.25", 2), ("nan", 1)])
    def test_inadmissible_alpha_exit_code(self, alpha, code):
        # the singosc CLI's codes: 2 for supercritical alpha, 1 otherwise
        study = load_script("convergence_study")
        with pytest.raises(SystemExit) as exc:
            study.main(["--alpha", alpha])
        assert exc.value.code == code

    @pytest.mark.parametrize("s_min", ["1", "-200", "nan"])
    def test_inner_end_out_of_range_is_usage_error(self, s_min):
        study = load_script("convergence_study")
        with pytest.raises(SystemExit) as exc:
            study.main(["--s-min", s_min])
        assert exc.value.code == 1


class TestOracleSweep:
    def test_one_alpha(self, capsys):
        sweep = load_script("oracle_sweep")
        assert sweep.main(["--alphas", "0.5", "--n-max", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "alpha"
        fields = row.split()
        assert float(fields[0]) == 0.5
        assert float(fields[2]) < 1e-4  # shooting error
        assert float(fields[3]) < 5e-3  # finite-difference error
        assert int(fields[-1]) == sweep.shoot_spectrum(0.5, 1).steps  # over both passes

    def test_scipy_loaded_before_the_timed_loop(self):
        # an import inside the first `fd s` timing would charge it to one
        # alpha; a fresh interpreter shows which calls start with it loaded
        path = str(SCRIPTS / "oracle_sweep.py")
        probe = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('sweep', {path!r})\n"
            "sweep = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(sweep)\n"
            "seen, fd = [], sweep.fd_eigen\n"
            "sweep.fd_eigen = lambda *a: seen.append('scipy.linalg' in sys.modules) or fd(*a)\n"
            "sweep.main(['--alphas', '0.5', '2.0', '--n-max', '0'])\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[True, True]"


class TestEmitFigures:
    def test_files_equal_figure_command_output(self, tmp_path, capsys):
        emit = load_script("emit_figures")
        assert emit.main(["--alpha-points", "5", "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / f'figure{k}.csv'}" for k in (1, 2, 3, 4)
        ]
        for k in (1, 2, 3, 4):
            sweep = ["--alpha-points", "5"] if k in (2, 4) else []
            assert cli_main(["figure", str(k), *sweep]) == 0
            want = capsys.readouterr().out.encode("utf-8")
            assert (tmp_path / f"figure{k}.csv").read_bytes() == want
