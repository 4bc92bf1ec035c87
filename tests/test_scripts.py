"""Smoke tests for the command-line scripts under scripts/, run in-process."""

import importlib.util
import pathlib

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
        argv = ["--cutoffs", "1e-2", "1e-3"]
        assert study.main(["--alpha", "-0.2", *argv]) == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0].startswith("alpha = -0.2, beta_plus = -0.276393")
        # one row per cutoff between the header and the extrapolated line
        assert [line.split()[0] for line in lines[3:5]] == ["1.0e-02", "1.0e-03"]
        assert lines[-1].startswith("extrapolated eps0 = ")
        # the exponent form of a negative value parses as the same alpha
        assert study.main(["--alpha", "-2e-1", *argv]) == 0
        assert capsys.readouterr().out == text

    def test_near_critical_alpha_default_cutoffs(self, capsys):
        # the raw levels at coarse cutoffs are tabulated even where the
        # wall shift (3 t eps = 1.48 at e0 = 1e-2) passes the level
        study = load_script("convergence_study")
        assert study.main(["--alpha", "-0.24"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[3:8]] == [
            "1.0e-02", "3.0e-03", "1.0e-03", "3.0e-04", "1.0e-04"
        ]
        assert lines[-1].startswith("extrapolated eps0 = ")

    def test_repulsive_alpha_is_usage_error(self):
        study = load_script("convergence_study")
        with pytest.raises(SystemExit) as exc:
            study.main(["--alpha", "0.5"])
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
        assert 3 <= int(fields[-1]) <= 5  # shooting passes


class TestEmitFigures:
    def test_files_equal_figure_command_output(self, tmp_path, capsys):
        emit = load_script("emit_figures")
        assert emit.main(["--alpha-points", "5", "--outdir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / f'figure{k}.csv'}" for k in (1, 2, 3, 4)
        ]
        for k in (1, 2, 3, 4):
            assert cli_main(["figure", str(k), "--alpha-points", "5"]) == 0
            want = capsys.readouterr().out.encode("utf-8")
            assert (tmp_path / f"figure{k}.csv").read_bytes() == want
